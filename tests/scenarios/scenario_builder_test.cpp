// ScenarioBuilder: the fluent front door must enforce its single-topology
// contract and compose faults and cross traffic.
#include "scenarios/scenario_builder.hpp"

#include <gtest/gtest.h>

#include <string>

#include "scenarios/scenario.hpp"

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
    out += ";";
  }
  return out;
}

ScenarioConfig quick_config(std::uint64_t seed = 5) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = 60_s;
  return cfg;
}

TEST(ScenarioBuilderTest, BuildWithoutTopologyThrows) {
  ScenarioBuilder builder{quick_config()};
  EXPECT_THROW((void)builder.build(), std::logic_error);
}

TEST(ScenarioBuilderTest, SelectingTwoTopologiesThrows) {
  ScenarioBuilder builder{quick_config()};
  builder.topology_a({});
  EXPECT_THROW(builder.topology_b({}), std::logic_error);
}

TEST(ScenarioBuilderTest, CrossTrafficByNameReachesTheNamedLink) {
  CrossTrafficSpec spec{"r0", "r1", 200e3, 10_s, 40_s};
  auto with = ScenarioBuilder(quick_config()).topology_a({}).with_cross_traffic(spec).build();
  with->run();
  auto without = ScenarioBuilder(quick_config()).topology_a({}).build();
  without->run();
  EXPECT_NE(fingerprint(*with), fingerprint(*without));
}

TEST(ScenarioBuilderTest, CrossTrafficUnknownNodeThrows) {
  EXPECT_THROW(ScenarioBuilder(quick_config())
                   .topology_a({})
                   .with_cross_traffic({"r0", "missing", 100e3})
                   .build(),
               std::invalid_argument);
}

TEST(ScenarioBuilderTest, TopologyFromDescriptionRuns) {
  constexpr const char* kText = R"(
node s
node r
node d
link s r 2Mbps 20ms
link r d 512kbps 20ms
source 0 s
receiver d 0
controller s
)";
  const auto parsed = parse_topology(kText);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  auto s = ScenarioBuilder(quick_config()).topology(*parsed.description).build();
  s->run();
  ASSERT_EQ(s->results().size(), 1u);
  EXPECT_GT(s->results()[0].final_subscription, 0);
}

}  // namespace
}  // namespace tsim::scenarios
