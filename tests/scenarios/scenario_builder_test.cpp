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

/// The star of StarOptions{} written in the topology language: same nodes,
/// links, latency and bandwidths, no `optimal` and no labels.
std::string star_text(int receivers, const char* traffic = "") {
  std::string text = "node source\nnode hub\nlink source hub 1Gbps 200ms\n";
  for (int i = 0; i < receivers; ++i) {
    const std::string node = "recv" + std::to_string(i);
    text += "node " + node + "\nlink hub " + node + " 1.2Mbps 200ms\n";
  }
  for (int i = 0; i < receivers; ++i) text += "receiver recv" + std::to_string(i) + " 0\n";
  return text + "source 0 source\ncontroller source\n" + traffic;
}

// Every receiver reports to the controller, a routing sink: a star written as
// text routes its reports through one sink row, not one row per receiver.
TEST(ScenarioBuilderTest, DescribedStarRoutesReportsThroughOneSinkRow) {
  const auto parsed = parse_topology(star_text(2000, "traffic fluid\n"));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ScenarioConfig config = quick_config();
  config.duration = 3_s;
  auto s = ScenarioBuilder(config).topology(*parsed.description).build();
  s->run();
  ASSERT_NE(s->controller(), nullptr);
  ASSERT_GE(s->controller()->reports_received(), 2000u);  // every receiver reported
  EXPECT_LE(s->network().routes().computed_rows(), 2u);
  EXPECT_EQ(s->network().routes().computed_sink_rows(), 1u);
}

// The built-in star is its description: the same star written as text builds
// the same network and runs the same, only the result labels differ.
TEST(ScenarioBuilderTest, BuiltInStarMatchesTheSameStarWrittenAsText) {
  ScenarioConfig config = quick_config(17);
  config.duration = 20_s;
  auto built_in = ScenarioBuilder(config).star({.receivers = 50}).build();
  const auto parsed = parse_topology(star_text(50));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  auto described = ScenarioBuilder(config).topology(*parsed.description).build();
  built_in->run();
  described->run();

  ASSERT_EQ(built_in->results().size(), 50u);
  ASSERT_EQ(described->results().size(), 50u);
  EXPECT_EQ(built_in->network().node_count(), described->network().node_count());
  EXPECT_EQ(built_in->network().link_count(), described->network().link_count());
  for (std::size_t i = 0; i < 50; ++i) {
    const ReceiverResult& a = built_in->result(i);
    const ReceiverResult& b = described->result(i);
    EXPECT_EQ(a.name, "star/" + std::to_string(i));
    EXPECT_EQ(b.name, "recv" + std::to_string(i) + "/s0");
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.optimal, 5);  // the closed form: 992 kbps fits 1.2 Mbps
    EXPECT_EQ(a.optimal, b.optimal);  // the allocator agrees
    EXPECT_EQ(a.timeline.points(), b.timeline.points()) << a.name;
    const auto& ea = *built_in->endpoints()[i];
    const auto& eb = *described->endpoints()[i];
    EXPECT_EQ(ea.total_packets(), eb.total_packets()) << a.name;
    EXPECT_EQ(ea.total_lost_packets(), eb.total_lost_packets()) << a.name;
    EXPECT_EQ(ea.total_bytes(), eb.total_bytes()) << a.name;
  }
}

}  // namespace
}  // namespace tsim::scenarios
