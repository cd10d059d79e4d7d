// Receiver churn and cross-traffic scenarios: the paper's architecture admits
// receivers registering at any time and must adapt to transient competing
// flows (§III). These integration tests exercise the dynamic-membership and
// cross-traffic machinery end to end.
#include <gtest/gtest.h>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

TEST(ChurnTest, StaggeredJoinsStillConverge) {
  ScenarioConfig config;
  config.seed = 51;
  config.duration = 240_s;
  TopologyAOptions options;
  options.receivers_per_set = 3;
  options.join_stagger = 20_s;  // receivers join at 0/20/40 s
  auto s = ScenarioBuilder(config).topology_a(options).build();
  s->run();
  for (const auto& r : s->results()) {
    double mean = 0.0;
    for (int level = 0; level <= 6; ++level) {
      mean += level * r.timeline.time_at_level_fraction(level, 150_s, 240_s);
    }
    EXPECT_GE(mean, 1.8) << r.name;
    // Late joiners were at level 0 before their start; deviation measured
    // only over the settled tail.
    EXPECT_LT(r.timeline.relative_deviation(r.optimal, 150_s, 240_s), 0.7) << r.name;
  }
}

TEST(ChurnTest, LateJoinerDoesNotDisturbSettledReceivers) {
  ScenarioConfig config;
  config.seed = 52;
  config.duration = 200_s;
  TopologyAOptions options;
  options.receivers_per_set = 2;
  options.join_stagger = 60_s;  // second receiver of each set joins at 60 s
  auto s = ScenarioBuilder(config).topology_a(options).build();
  s->run();
  // The early receiver of set 1 must not be pushed below base by the
  // newcomer joining behind the same bottleneck.
  const auto& early = s->results()[0];
  EXPECT_GE(early.timeline.level_at(190_s), 2) << early.name;
}

TEST(ChurnTest, LeaversReleaseTheirGroups) {
  ScenarioConfig config;
  config.seed = 53;
  config.duration = 200_s;
  TopologyAOptions options;
  options.receivers_per_set = 2;
  options.leave_fraction = 0.5;  // one receiver per set leaves...
  options.leave_at = 100_s;      // ...at t=100 s
  auto s = ScenarioBuilder(config).topology_a(options).build();
  s->run();
  // Leavers end at level 0; stayers keep a sane level.
  EXPECT_EQ(s->results()[1].final_subscription, 0);
  EXPECT_EQ(s->results()[3].final_subscription, 0);
  auto mean_tail = [&](std::size_t i) {
    double mean = 0.0;
    for (int level = 0; level <= 6; ++level) {
      mean += level * s->results()[i].timeline.time_at_level_fraction(level, 150_s, 200_s);
    }
    return mean;
  };
  EXPECT_GE(mean_tail(0), 1.8);
  EXPECT_GE(mean_tail(2), 1.8);
  // And their groups are actually gone from the multicast state.
  EXPECT_FALSE(s->multicast().is_member(s->results()[1].node, net::GroupAddr{0, 1}));
}

TEST(CrossTrafficTest, FlowSqueezesSubscriptionThenReleases) {
  ScenarioConfig config;
  config.seed = 54;
  config.duration = 400_s;
  TopologyAOptions options;
  options.receivers_per_set = 2;
  // A 128 Kbps non-conforming flow crosses the 256 Kbps bottleneck during
  // [100 s, 250 s): set 1's sustainable level drops from 3 to 2.
  auto s = ScenarioBuilder(config)
               .topology_a(options)
               .with_cross_traffic({"r0", "r1", 128e3, 100_s, 250_s})
               .build();
  s->run();

  const auto& r = s->results()[0];  // a set-1 receiver
  // During the squeeze the receiver spends most time at <= 2 layers...
  const double squeezed = r.timeline.time_at_level_fraction(3, 140_s, 250_s);
  // ...and recovers to 3 afterwards.
  const double recovered = r.timeline.time_at_level_fraction(3, 320_s, 400_s) +
                           r.timeline.time_at_level_fraction(4, 320_s, 400_s);
  EXPECT_LT(squeezed, 0.6) << "should be squeezed below 3 most of the time";
  EXPECT_GT(recovered, 0.4) << "should recover after the flow stops";
}

TEST(SessionStaggerTest, LateSessionGetsItsShare) {
  ScenarioConfig config;
  config.seed = 55;
  config.duration = 400_s;
  TopologyBOptions options;
  options.sessions = 4;
  options.session_stagger = 30_s;  // sessions start at 0/30/60/90 s
  auto s = ScenarioBuilder(config).topology_b(options).build();
  s->run();
  // Every session, including the latest joiner, converges near the fair
  // 4-layer point over the final stretch.
  for (const auto& r : s->results()) {
    EXPECT_LT(r.timeline.relative_deviation(r.optimal, 250_s, 400_s), 0.6) << r.name;
  }
}

}  // namespace
}  // namespace tsim::scenarios
