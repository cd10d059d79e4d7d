// Fluid-vs-packet equivalence: the fluid engine exists to shed per-packet
// event load, not to change the closed-loop answer. On the paper's Fig 5
// scenarios both engines oscillate around the same optimum (probe up, hit
// loss at the bottleneck, back off) but the probe phases are not aligned —
// fluid loss onset is an analytic function of the step while packet loss
// depends on queue phase — so the equivalence claim is on the CONVERGED MEAN
// subscription per receiver, tight for CBR and looser for VBR (whose fluid
// trajectory also drops the sub-interval phase effects: per-layer stagger
// and +/-10% spacing jitter; see docs/performance.md).
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

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

/// Subscription level of `r` at time `t` (level of the last change <= t).
int level_at(const ReceiverResult& r, Time t) {
  int level = 0;
  for (const auto& [when, lvl] : r.timeline.points()) {
    if (when > t) break;
    level = lvl;
  }
  return level;
}

/// Mean subscription over [from, to], sampled once per second.
double mean_level(const ReceiverResult& r, Time from, Time to) {
  double sum = 0.0;
  int samples = 0;
  for (Time t = from; t <= to; t = t + 1_s) {
    sum += level_at(r, t);
    ++samples;
  }
  return sum / samples;
}

ScenarioConfig engine_config(TrafficEngine engine, traffic::TrafficModel model,
                             std::uint64_t seed = 5) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = 150_s;
  cfg.traffic.model = model;
  cfg.traffic.engine = engine;
  return cfg;
}

TEST(FluidEquivalenceTest, CbrTopologyAMatchesPacketModelMean) {
  // Fig 5/6 heterogeneity scenario: set 1 behind a 3-layer bottleneck, set 2
  // behind a 5-layer bottleneck. CBR rates are identical constants in both
  // engines, so each receiver's converged mean must agree tightly and sit
  // near its declared optimum in BOTH engines.
  auto packet = ScenarioBuilder(engine_config(TrafficEngine::kPacket, traffic::TrafficModel::kCbr))
                    .topology_a(TopologyAOptions{})
                    .build();
  auto fluid = ScenarioBuilder(engine_config(TrafficEngine::kFluid, traffic::TrafficModel::kCbr))
                   .topology_a(TopologyAOptions{})
                   .build();
  packet->run();
  fluid->run();
  ASSERT_EQ(packet->results().size(), fluid->results().size());
  for (std::size_t i = 0; i < packet->results().size(); ++i) {
    const auto& p = packet->result(i);
    const auto& f = fluid->result(i);
    const double mp = mean_level(p, 50_s, 150_s);
    const double mf = mean_level(f, 50_s, 150_s);
    EXPECT_NEAR(mp, mf, 0.75) << p.name;
    EXPECT_NEAR(mp, p.optimal, 1.0) << p.name;
    EXPECT_NEAR(mf, f.optimal, 1.0) << f.name;
  }
}

TEST(FluidEquivalenceTest, CbrTopologyBMatchesPacketModelMean) {
  // Fig 5/7 fairness scenario: 4 sessions share one link sized for 4 layers
  // each.
  TopologyBOptions options;
  auto packet = ScenarioBuilder(engine_config(TrafficEngine::kPacket, traffic::TrafficModel::kCbr))
                    .topology_b(options)
                    .build();
  auto fluid = ScenarioBuilder(engine_config(TrafficEngine::kFluid, traffic::TrafficModel::kCbr))
                   .topology_b(options)
                   .build();
  packet->run();
  fluid->run();
  ASSERT_EQ(packet->results().size(), fluid->results().size());
  for (std::size_t i = 0; i < packet->results().size(); ++i) {
    const auto& p = packet->result(i);
    const auto& f = fluid->result(i);
    EXPECT_NEAR(mean_level(p, 50_s, 150_s), mean_level(f, 50_s, 150_s), 0.75) << p.name;
  }
}

TEST(FluidEquivalenceTest, VbrTopologyAWithinTolerance) {
  // VBR: the engines draw the same per-second on/off process from different
  // stream positions and the fluid side has no sub-interval phase, so exact
  // trajectories are not expected — the converged mean subscription is.
  auto packet = ScenarioBuilder(engine_config(TrafficEngine::kPacket, traffic::TrafficModel::kVbr))
                    .topology_a(TopologyAOptions{})
                    .build();
  auto fluid = ScenarioBuilder(engine_config(TrafficEngine::kFluid, traffic::TrafficModel::kVbr))
                   .topology_a(TopologyAOptions{})
                   .build();
  packet->run();
  fluid->run();
  ASSERT_EQ(packet->results().size(), fluid->results().size());
  for (std::size_t i = 0; i < packet->results().size(); ++i) {
    const auto& p = packet->result(i);
    const auto& f = fluid->result(i);
    EXPECT_NEAR(mean_level(p, 50_s, 150_s), mean_level(f, 50_s, 150_s), 1.0) << p.name;
  }
}

TEST(FluidEquivalenceTest, FluidStarConvergesAndCreditsEndpoints) {
  ScenarioConfig cfg = engine_config(TrafficEngine::kFluid, traffic::TrafficModel::kCbr);
  cfg.duration = 60_s;
  StarOptions star;
  star.receivers = 40;
  auto scenario = ScenarioBuilder(cfg).star(star).build();
  scenario->run();
  ASSERT_NE(scenario->fluid_engine(), nullptr);
  // One event per 100 ms step for the whole network, not one per packet.
  EXPECT_GE(scenario->fluid_engine()->steps_executed(), 590u);
  ASSERT_EQ(scenario->results().size(), 40u);
  for (std::size_t i = 0; i < scenario->endpoints().size(); ++i) {
    // Integrated deliveries reached every endpoint through the real tree.
    EXPECT_GT(scenario->endpoints()[i]->total_packets().count(), 0u)
        << scenario->result(i).name;
    // 1.2 Mbps access fits 5 layers (992 kbps); receivers probe up from 1.
    EXPECT_GE(scenario->result(i).final_subscription, 3) << scenario->result(i).name;
    EXPECT_LE(scenario->result(i).final_subscription, 5) << scenario->result(i).name;
  }
}

TEST(FluidEquivalenceTest, FluidRunsAreDeterministic) {
  auto run_once = [] {
    ScenarioConfig cfg = engine_config(TrafficEngine::kFluid, traffic::TrafficModel::kVbr, 9);
    auto s = ScenarioBuilder(cfg)
                 .topology_a({})
                 .with_cross_traffic({"r0", "r1", 96e3, 50_s})  // the background-flow path
                 .build();
    s->run();
    return fingerprint(*s);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace tsim::scenarios
