#include "scenarios/topology_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenarios/scenario.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

constexpr const char* kValid = R"(
# A comment
node src
node r
node a

link src r 10Mbps 50ms
link r a 256kbps 100ms queue 20 red

source 0 src
receiver a 0 start 5 stop 100
controller src
)";

TEST(BandwidthParseTest, AcceptsSuffixes) {
  EXPECT_DOUBLE_EQ(parse_bandwidth("256kbps").bps(), 256e3);
  EXPECT_DOUBLE_EQ(parse_bandwidth("1.5Mbps").bps(), 1.5e6);
  EXPECT_DOUBLE_EQ(parse_bandwidth("2Gbps").bps(), 2e9);
  EXPECT_DOUBLE_EQ(parse_bandwidth("8000bps").bps(), 8000.0);
  EXPECT_DOUBLE_EQ(parse_bandwidth("64KBPS").bps(), 64e3);  // case-insensitive
}

TEST(BandwidthParseTest, RejectsGarbage) {
  EXPECT_LT(parse_bandwidth("fast").bps(), 0.0);
  EXPECT_LT(parse_bandwidth("10").bps(), 0.0);
  EXPECT_LT(parse_bandwidth("-5Mbps").bps(), 0.0);
  EXPECT_LT(parse_bandwidth("Mbps").bps(), 0.0);
}

TEST(LatencyParseTest, AcceptsUnits) {
  EXPECT_EQ(parse_latency("200ms"), 200_ms);
  EXPECT_EQ(parse_latency("1.5s"), Time::seconds(1.5));
  EXPECT_EQ(parse_latency("0ms"), Time::zero());
}

TEST(LatencyParseTest, RejectsGarbage) {
  EXPECT_LT(parse_latency("fast"), Time::zero());
  EXPECT_LT(parse_latency("100"), Time::zero());
}

TEST(TopologyParseTest, ParsesValidFile) {
  const auto result = parse_topology(kValid);
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& d = *result.description;
  EXPECT_EQ(d.nodes.size(), 3u);
  ASSERT_EQ(d.links.size(), 2u);
  EXPECT_DOUBLE_EQ(d.links[1].bandwidth.bps(), 256e3);
  EXPECT_EQ(d.links[1].latency, 100_ms);
  EXPECT_TRUE(d.links[1].red);
  ASSERT_TRUE(d.links[1].queue_packets.has_value());
  EXPECT_EQ(*d.links[1].queue_packets, 20u);
  EXPECT_FALSE(d.links[0].red);
  ASSERT_EQ(d.receivers.size(), 1u);
  EXPECT_EQ(d.receivers[0].start, Time::seconds(std::int64_t{5}));
  EXPECT_EQ(d.receivers[0].stop, Time::seconds(std::int64_t{100}));
  EXPECT_EQ(d.controller_node, "src");
}

TEST(TopologyParseTest, ErrorsNameTheLine) {
  const auto result = parse_topology("node a\nlink a b 10Mbps 5ms\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("undeclared node 'b'"), std::string::npos);

  const auto bad_bw = parse_topology("node a\nnode b\nlink a b fast 5ms\n");
  ASSERT_FALSE(bad_bw.ok());
  EXPECT_NE(bad_bw.error.find("line 3"), std::string::npos);
}

TEST(TopologyParseTest, RequiresControllerSourceAndReceivers) {
  EXPECT_FALSE(parse_topology("node a\nsource 0 a\ncontroller a\n").ok());
  EXPECT_FALSE(
      parse_topology("node a\nnode b\nsource 0 a\nreceiver b 0\n").ok());  // no controller
  EXPECT_FALSE(parse_topology("node a\nnode b\nreceiver b 0\ncontroller a\n").ok());
}

TEST(TopologyParseTest, ReceiverWithoutSourceSessionFails) {
  const auto result =
      parse_topology("node a\nnode b\nsource 0 a\nreceiver b 7\ncontroller a\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("session 7"), std::string::npos);
}

TEST(TopologyParseTest, DuplicateNodeFails) {
  EXPECT_FALSE(parse_topology("node a\nnode a\n").ok());
}

TEST(TopologyParseTest, SemanticErrorsNameTheOffendingLine) {
  // Undeclared link endpoint: the error points at the link line, not "line 0".
  const auto link = parse_topology("node a\nlink a b 10Mbps 5ms\n");
  ASSERT_FALSE(link.ok());
  EXPECT_NE(link.error.find("line 2"), std::string::npos) << link.error;

  const auto rcv =
      parse_topology("node a\nnode b\nsource 0 a\nreceiver b 7\ncontroller a\n");
  ASSERT_FALSE(rcv.ok());
  EXPECT_NE(rcv.error.find("line 4"), std::string::npos) << rcv.error;

  const auto ctrl =
      parse_topology("node a\nnode b\nsource 0 a\nreceiver b 0\ncontroller ghost\n");
  ASSERT_FALSE(ctrl.ok());
  EXPECT_NE(ctrl.error.find("line 5"), std::string::npos) << ctrl.error;

  // A second source for one session: both would send, and the tree would
  // root at the last. The error names both lines.
  const auto twice = parse_topology(
      "node s\nnode a\nlink s a 1Mbps 5ms\nreceiver a 0\ncontroller s\n"
      "source 0 s\nsource 0 a\n");
  ASSERT_FALSE(twice.ok());
  EXPECT_NE(twice.error.find("line 7: session 0 already has a source (line 6)"),
            std::string::npos)
      << twice.error;

  // The engines are packet and fluid; anything else names its line.
  const auto burst = parse_topology(
      "node a\nnode b\nsource 0 a\nreceiver b 0\ncontroller a\ntraffic burst train 4\n");
  ASSERT_FALSE(burst.ok());
  EXPECT_NE(burst.error.find("line 6: unknown traffic engine 'burst'"), std::string::npos)
      << burst.error;
}

/// The error for a valid six-line topology followed by `extra_lines`, or "".
std::string refusal(const std::string& extra_lines) {
  const auto result = parse_topology(
      "node r\nnode d\nlink r d 1Mbps 20ms\nsource 0 r\nreceiver d 0\ncontroller r\n" +
      extra_lines);
  return result.ok() ? "" : result.error;
}

TEST(TopologyParseTest, SecondControllerNamesBothLines) {
  // Taking the last controller line would move the controller silently.
  EXPECT_EQ(refusal("controller d\n"), "line 7: a controller is already declared (line 6)");
}

// Fault lines that each parse can still make a plan the whole file refuses;
// the refusal names the line of the event at fault, which need not be the
// event's index (a `down .. up ..` line holds two events).
TEST(TopologyParseTest, FlapWithZeroPeriodNamesItsLine) {
  EXPECT_EQ(refusal("fault link r d down 1 up 2\nfault link r d flap 10 20 period 0\n"),
            "line 8: flap period must be positive");
}

TEST(TopologyParseTest, InvertedFlapWindowNamesItsLine) {
  EXPECT_EQ(refusal("fault link r d flap 20 10 period 2\n"),
            "line 7: flap window must end after it starts");
}

TEST(TopologyParseTest, InvertedLossWindowNamesItsLine) {
  EXPECT_EQ(refusal("fault link r d lossy 0.2 50 10\n"),
            "line 7: loss window must end after it starts");
  EXPECT_EQ(refusal("fault controller down 1 up 2\nfault suggestions drop 0.5 50 10\n"),
            "line 8: loss window must end after it starts");
}

TEST(TopologyParseTest, OverlappingOutageNamesItsLine) {
  EXPECT_EQ(refusal("fault link r d down 10 up 50\nfault link d r down 30 up 70\n"),
            "line 8: link d-r: down at t=30.0s while already down (overlapping down/up "
            "schedules)");
}

TEST(TopologyParseTest, RepairWithoutFailureNamesItsLine) {
  EXPECT_EQ(refusal("fault link r d lossy 0.1 1 2\n\nfault link r d down 50 up 20\n"),
            "line 9: link d-r: up at t=20.0s without a preceding down");
}

TEST(TopologyParseTest, RejectsBadSessionIds) {
  const auto garbage =
      parse_topology("node a\nnode b\nsource zero a\nreceiver b 0\ncontroller a\n");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.error.find("bad session id"), std::string::npos) << garbage.error;

  const auto range =
      parse_topology("node a\nnode b\nsource 0 a\nreceiver b 70000\ncontroller a\n");
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.error.find("bad session id"), std::string::npos) << range.error;

  const auto trailing =
      parse_topology("node a\nnode b\nsource 0x1 a\nreceiver b 0\ncontroller a\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.error.find("bad session id"), std::string::npos)
      << trailing.error;
}

TEST(TopologyParseTest, RejectsOutOfRangeBandwidth) {
  const auto result = parse_topology("node a\nnode b\nlink a b 5000Gbps 5ms\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("out of range"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("line 3"), std::string::npos) << result.error;
}

TEST(TopologyParseTest, RejectsQueueLimitsAbove32Bits) {
  const auto result =
      parse_topology("node a\nnode b\nlink a b 1Mbps 5ms queue 4294967296\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("line 3"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("4294967296"), std::string::npos) << result.error;

  const auto largest = parse_topology(
      "node a\nnode b\nlink a b 1Mbps 5ms queue 4294967295\nsource 0 a\nreceiver b 0\n"
      "controller a\n");
  ASSERT_TRUE(largest.ok()) << largest.error;
  EXPECT_EQ(*largest.description->links[0].queue_packets, 4294967295ULL);
}

TEST(TopologyParseTest, RejectsBrokenReceiverWindows) {
  // Unpaired trailing option token: an error, not silently dropped.
  const auto unpaired = parse_topology(
      "node a\nnode b\nsource 0 a\nreceiver b 0 start\ncontroller a\n");
  ASSERT_FALSE(unpaired.ok());
  EXPECT_NE(unpaired.error.find("needs a value"), std::string::npos)
      << unpaired.error;

  const auto negative = parse_topology(
      "node a\nnode b\nsource 0 a\nreceiver b 0 start -5\ncontroller a\n");
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.error.find("bad time"), std::string::npos) << negative.error;

  const auto inverted = parse_topology(
      "node a\nnode b\nsource 0 a\nreceiver b 0 start 50 stop 10\ncontroller a\n");
  ASSERT_FALSE(inverted.ok());
  EXPECT_NE(inverted.error.find("stop must be after start"), std::string::npos)
      << inverted.error;
}

// Numbers must be finite and times must fit sim::Time (int64 nanoseconds):
// each input below is refused with its line instead of reaching an undefined
// double-to-integer conversion in build() or a NaN in the datapath.
struct NumberCase {
  const char* directive;  ///< replaces line `line` of the base text, or is appended
  int line;
  const char* expected;   ///< a fragment of the diagnostic
};

void PrintTo(const NumberCase& c, std::ostream* os) { *os << '\'' << c.directive << '\''; }

class BadNumbers : public ::testing::TestWithParam<NumberCase> {};

TEST_P(BadNumbers, AreRejectedWithTheirLine) {
  std::vector<std::string> lines{"node r",      "node d",       "link r d 1Mbps 20ms",
                                 "source 0 r", "receiver d 0", "controller r"};
  const NumberCase& c = GetParam();
  if (c.line <= static_cast<int>(lines.size())) {
    lines[static_cast<std::size_t>(c.line - 1)] = c.directive;
  } else {
    lines.emplace_back(c.directive);
  }
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  const auto result = parse_topology(text);
  ASSERT_FALSE(result.ok()) << c.directive;
  EXPECT_NE(result.error.find("line " + std::to_string(c.line) + ":"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find(c.expected), std::string::npos) << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadNumbers,
    ::testing::Values(NumberCase{"link r d nanMbps 20ms", 3, "bad bandwidth"},
                      NumberCase{"link r d 1Mbps nanms", 3, "at most 9.2e9 s"},
                      NumberCase{"link r d 1Mbps infs", 3, "at most 9.2e9 s"},
                      NumberCase{"link r d 1Mbps 1e300s", 3, "at most 9.2e9 s"},
                      NumberCase{"receiver d 0 start nan", 5, "bad time"},
                      NumberCase{"receiver d 0 start 1e30", 5, "out of range"},
                      NumberCase{"fault link r d lossy nan 1 5", 7, "bad probability"},
                      NumberCase{"fault link r d down 1e30", 7, "out of range"},
                      NumberCase{"traffic fluid step nan", 7,
                                 "unknown traffic option 'step' for engine 'fluid'"}));

TEST(TopologyParseTest, AcceptsTimesUpToTheLimit) {
  const auto result = parse_topology(
      "node r\nnode d\nlink r d 1Mbps 20ms\nsource 0 r\nreceiver d 0 stop 9.2e9\n"
      "controller r\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.description->receivers[0].stop, Time::seconds(std::int64_t{9'200'000'000}));
}

TEST(FromDescriptionTest, BuildsAndRunsEndToEnd) {
  const auto parsed = parse_topology(kValid);
  ASSERT_TRUE(parsed.ok());
  ScenarioConfig config;
  config.seed = 81;
  config.duration = 120_s;
  auto scenario = Scenario::from_description(config, *parsed.description);
  ASSERT_EQ(scenario->results().size(), 1u);
  EXPECT_EQ(scenario->results()[0].optimal, 3);  // 256 kbps bottleneck
  scenario->run();
  // Receiver joined at 5 s and should have climbed toward 3 layers.
  double mean = 0.0;
  for (int level = 0; level <= 6; ++level) {
    mean += level * scenario->results()[0].timeline.time_at_level_fraction(level, 60_s, 120_s);
  }
  EXPECT_GE(mean, 1.7);  // RED early-drops shave the mean slightly below the drop-tail value
  // The RED link option took effect.
  bool any_red = false;
  for (net::LinkId id = 0; id < scenario->network().link_count(); ++id) {
    if (scenario->network().link(id).red_enabled()) any_red = true;
  }
  EXPECT_TRUE(any_red);
}

// Robustness sweep: structured garbage must produce an error, never a crash
// or a silently-accepted description.
class ParserRobustness : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRobustness, GarbageYieldsErrorNotCrash) {
  const auto result = parse_topology(GetParam());
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserRobustness,
    ::testing::Values("", "nonsense directive here", "node", "node a b c",
                      "link a b", "node a\nnode b\nlink a b 1Mbps",
                      "node a\nnode b\nlink a b 1Mbps 10ms queue zero",
                      "node a\nnode b\nlink a b 1Mbps 10ms frobnicate",
                      "source 0 ghost", "controller ghost",
                      "node a\nsource 0 a\nreceiver a 0 start soon\ncontroller a",
                      "node a\nnode a",
                      "receiver x 0", "#only a comment\n\n\n"));

TEST(FromDescriptionTest, MultiSessionOptimaShareBottlenecks) {
  // Two sessions, both with a receiver behind one 512 kbps link: the greedy
  // lexicographic optimum gives 3 layers each (2 x 224 kbps <= 512 kbps).
  const auto parsed = parse_topology(R"(
node s0
node s1
node core
node edge
node a
node b
link s0 core 45Mbps 10ms
link s1 core 45Mbps 10ms
link core edge 512kbps 50ms
link edge a 10Mbps 10ms
link edge b 10Mbps 10ms
source 0 s0
source 1 s1
receiver a 0
receiver b 1
controller s0
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ScenarioConfig config;
  config.duration = 10_s;
  auto scenario = Scenario::from_description(config, *parsed.description);
  ASSERT_EQ(scenario->results().size(), 2u);
  EXPECT_EQ(scenario->results()[0].optimal, 3);
  EXPECT_EQ(scenario->results()[1].optimal, 3);
}

TEST(FromDescriptionTest, UnreachableReceiverThrows) {
  const auto parsed = parse_topology(
      "node src\nnode island\nsource 0 src\nreceiver island 0\ncontroller src\n");
  ASSERT_TRUE(parsed.ok());
  ScenarioConfig config;
  try {
    (void)Scenario::from_description(config, *parsed.description);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message points at the receiver's line.
    EXPECT_STREQ(e.what(), "line 4: receiver 'island' unreachable from source");
  }
}

}  // namespace
}  // namespace tsim::scenarios
