// Fluid-vs-fluid cross-session fairness: when two fluid-engine sessions
// share one bottleneck, the *split* between them must match what the packet
// engine produces — not just each receiver matching its own packet twin
// (fluid_equivalence_test.cpp covers that). The fluid loss signal is shared
// per link, so a systematic bias (e.g. pass order favoring the session
// walked first) would show up here as a skewed split long before it moved
// any single receiver out of the equivalence band. Tolerances follow the
// equivalence test: converged means over the tail window, 0.75 layers
// against the packet engine, and the two sessions within one layer of each
// other inside each engine.
#include <gtest/gtest.h>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

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

ScenarioConfig engine_config(TrafficEngine engine) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration = 150_s;
  cfg.traffic.model = traffic::TrafficModel::kCbr;
  cfg.traffic.engine = engine;
  return cfg;
}

TEST(FluidFairnessTest, TwoFluidSessionsSplitSharedBottleneckLikePacketEngine) {
  // Topology B shrunk to the minimal fairness shape: 2 sessions, shared link
  // sized for exactly 2 * TopologyBOptions::kPerSession, so the fair outcome
  // is each session at its declared optimal.
  TopologyBOptions options;
  options.sessions = 2;
  auto packet =
      ScenarioBuilder(engine_config(TrafficEngine::kPacket)).topology_b(options).build();
  auto fluid =
      ScenarioBuilder(engine_config(TrafficEngine::kFluid)).topology_b(options).build();
  packet->run();
  fluid->run();
  ASSERT_EQ(packet->results().size(), 2u);
  ASSERT_EQ(fluid->results().size(), 2u);

  double mean_p[2];
  double mean_f[2];
  for (int k = 0; k < 2; ++k) {
    const auto& p = packet->result(k);
    const auto& f = fluid->result(k);
    mean_p[k] = mean_level(p, 50_s, 150_s);
    mean_f[k] = mean_level(f, 50_s, 150_s);
    // Each fluid receiver tracks its packet twin and its declared optimum.
    EXPECT_NEAR(mean_p[k], mean_f[k], 0.75) << p.name;
    EXPECT_NEAR(mean_f[k], f.optimal, 1.0) << f.name;
  }
  // The split itself: neither engine may systematically favor one session.
  EXPECT_NEAR(mean_f[0], mean_f[1], 1.0);
  // And the fluid skew must match the packet skew, not just stay small.
  EXPECT_NEAR(mean_f[0] - mean_f[1], mean_p[0] - mean_p[1], 0.75);
}

TEST(FluidFairnessTest, StaggeredFluidSessionsConvergeToTheSameSplit) {
  // Late-joiner variant: session 1 starts 20 s into session 0's run, so the
  // incumbent holds the whole bottleneck first. After convergence the split
  // must be indistinguishable from the packet engine's — the fluid loss
  // model may not let the incumbent starve (or be starved by) the joiner.
  TopologyBOptions options;
  options.sessions = 2;
  options.session_stagger = 20_s;
  auto packet =
      ScenarioBuilder(engine_config(TrafficEngine::kPacket)).topology_b(options).build();
  auto fluid =
      ScenarioBuilder(engine_config(TrafficEngine::kFluid)).topology_b(options).build();
  packet->run();
  fluid->run();
  ASSERT_EQ(packet->results().size(), 2u);
  ASSERT_EQ(fluid->results().size(), 2u);

  // Tail window well past the stagger: both sessions long since joined.
  double mean_p[2];
  double mean_f[2];
  for (int k = 0; k < 2; ++k) {
    mean_p[k] = mean_level(packet->result(k), 100_s, 150_s);
    mean_f[k] = mean_level(fluid->result(k), 100_s, 150_s);
    EXPECT_NEAR(mean_p[k], mean_f[k], 0.75) << packet->result(k).name;
  }
  // The late joiner converges to the incumbent's share in the fluid engine
  // just as it does in the packet engine.
  EXPECT_NEAR(mean_f[0] - mean_f[1], mean_p[0] - mean_p[1], 0.75);
}

}  // namespace
}  // namespace tsim::scenarios
