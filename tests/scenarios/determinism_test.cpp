// Whole-system determinism: identical seeds must reproduce identical runs
// bit-for-bit across every feature combination (VBR randomness, backoff
// draws, RED drops, churn, mtrace discovery, TCP cross-traffic). Determinism
// is what makes the paper reproduction reviewable: every number in
// EXPERIMENTS.md can be regenerated exactly.
#include <gtest/gtest.h>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"
#include "transport/tcp_flow.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// Full observable fingerprint of a run.
std::string fingerprint(Scenario& s) {
  std::string out;
  for (const auto& r : s.results()) {
    out += r.name + ":";
    for (const auto& [t, level] : r.timeline.points()) {
      out += std::to_string(t.as_nanoseconds()) + "/" + std::to_string(level) + ",";
    }
    out += "|loss=" + std::to_string(r.loss_overall) + ";";
  }
  return out;
}

ScenarioConfig base_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  cfg.traffic.peak_to_mean = 6.0;
  cfg.duration = 150_s;
  return cfg;
}

TEST(DeterminismTest, VbrTopologyA) {
  auto a = ScenarioBuilder(base_config(5)).topology_a(TopologyAOptions{}).build();
  auto b = ScenarioBuilder(base_config(5)).topology_a(TopologyAOptions{}).build();
  a->run();
  b->run();
  EXPECT_EQ(fingerprint(*a), fingerprint(*b));
}

TEST(DeterminismTest, ChurnAndCrossTraffic) {
  TopologyAOptions options;
  options.receivers_per_set = 3;
  options.join_stagger = 10_s;
  options.leave_fraction = 0.4;
  options.leave_at = 100_s;
  const CrossTrafficSpec cross{"r0", "r1", 96e3, 50_s};
  auto a = ScenarioBuilder(base_config(9)).topology_a(options).with_cross_traffic(cross).build();
  auto b = ScenarioBuilder(base_config(9)).topology_a(options).with_cross_traffic(cross).build();
  a->run();
  b->run();
  EXPECT_EQ(fingerprint(*a), fingerprint(*b));
}

TEST(DeterminismTest, MtraceDiscovery) {
  ScenarioConfig cfg = base_config(11);
  cfg.control.discovery = DiscoveryMode::kMtrace;
  auto a = ScenarioBuilder(cfg).topology_a(TopologyAOptions{}).build();
  auto b = ScenarioBuilder(cfg).topology_a(TopologyAOptions{}).build();
  a->run();
  b->run();
  EXPECT_EQ(fingerprint(*a), fingerprint(*b));
}

TEST(DeterminismTest, RedQueues) {
  ScenarioConfig cfg = base_config(13);
  cfg.queues.red = true;
  TopologyBOptions options;
  options.sessions = 3;
  auto a = ScenarioBuilder(cfg).topology_b(options).build();
  auto b = ScenarioBuilder(cfg).topology_b(options).build();
  a->run();
  b->run();
  EXPECT_EQ(fingerprint(*a), fingerprint(*b));
}

TEST(DeterminismTest, TieredGenerator) {
  auto a = ScenarioBuilder(base_config(17)).tiered(TieredOptions{}).build();
  auto b = ScenarioBuilder(base_config(17)).tiered(TieredOptions{}).build();
  a->run();
  b->run();
  EXPECT_EQ(fingerprint(*a), fingerprint(*b));
}

TEST(DeterminismTest, TcpCrossTraffic) {
  auto run_once = [](std::uint64_t seed) {
    auto s = ScenarioBuilder(base_config(seed)).topology_a(TopologyAOptions{}).build();
    transport::TcpFlow::Config tcfg;
    tcfg.src = 1;
    tcfg.dst = 4;
    tcfg.start = 30_s;
    transport::TcpFlow tcp{s->simulation(), s->network(), s->demuxes(), tcfg};
    tcp.start();
    s->run();
    return fingerprint(*s) + "|tcp=" + std::to_string(tcp.delivered_bytes());
  };
  EXPECT_EQ(run_once(21), run_once(21));
  EXPECT_NE(run_once(21), run_once(22));
}

TEST(DeterminismTest, RunUntilSplitMatchesSingleRun) {
  // Driving the same scenario in two run_until() steps must not change
  // anything (no hidden wall-clock or iteration-order dependence).
  auto a = ScenarioBuilder(base_config(23)).topology_b(TopologyBOptions{}).build();
  auto b = ScenarioBuilder(base_config(23)).topology_b(TopologyBOptions{}).build();
  a->run();
  b->run_until(70_s);
  b->run_until(150_s);
  EXPECT_EQ(fingerprint(*a), fingerprint(*b));
}

}  // namespace
}  // namespace tsim::scenarios
