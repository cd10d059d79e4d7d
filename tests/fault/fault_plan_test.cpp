// FaultPlan: fluent construction, ordering, validation, and the topology-file
// `fault` grammar that produces plans from text.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include "scenarios/topology_file.hpp"

namespace tsim::fault {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// validate()'s message, or "" for a well-formed plan.
std::string problem_of(const FaultPlan& plan) {
  const auto problem = plan.validate();
  return problem ? problem->message : "";
}

TEST(FaultPlanTest, FluentBuildersRecordEvents) {
  FaultPlan plan;
  plan.link_outage("a", "b", 10_s, 20_s)
      .link_flap("a", "b", 30_s, 60_s, 10_s, 0.5)
      .link_lossy("b", "c", 0.25, 5_s, 15_s)
      .controller_outage(40_s, 50_s)
      .drop_suggestions(1.0, 70_s, 80_s);
  // link_outage and controller_outage each expand to a down + an up event.
  ASSERT_EQ(plan.size(), 7u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kLinkLossy);
  EXPECT_EQ(plan.events()[4].kind, FaultKind::kControllerDown);
  EXPECT_EQ(plan.events()[5].kind, FaultKind::kControllerUp);
  EXPECT_EQ(plan.events()[6].kind, FaultKind::kSuggestionDrop);
  EXPECT_EQ(problem_of(plan), "");
}

TEST(FaultPlanTest, SortedEventsOrderByStartTimeStably) {
  FaultPlan plan;
  plan.link_down("a", "b", 30_s);
  plan.link_lossy("a", "b", 0.1, 10_s, 20_s);
  plan.link_down("c", "d", 10_s);  // same start as lossy: insertion order kept
  const auto sorted = plan.sorted_events();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].kind, FaultKind::kLinkLossy);
  EXPECT_EQ(sorted[1].a, "c");
  EXPECT_EQ(sorted[2].at, 30_s);
}

TEST(FaultPlanTest, ValidateCatchesBadInput) {
  {
    FaultPlan p;
    p.link_down("", "b", 10_s);
    EXPECT_NE(problem_of(p), "");
  }
  {
    FaultPlan p;
    p.link_lossy("a", "b", 1.5, 10_s, 20_s);  // probability > 1
    EXPECT_NE(problem_of(p), "");
  }
  {
    FaultPlan p;
    p.link_lossy("a", "b", 0.5, 20_s, 10_s);  // inverted window
    EXPECT_NE(problem_of(p), "");
  }
  {
    FaultPlan p;
    p.link_flap("a", "b", 10_s, 20_s, Time::zero(), 0.5);  // period must be > 0
    EXPECT_NE(problem_of(p), "");
  }
  {
    FaultPlan p;
    p.link_flap("a", "b", 10_s, 20_s, 2_s, 1.5);  // duty out of range
    EXPECT_NE(problem_of(p), "");
  }
}

TEST(FaultPlanTest, ValidateRejectsOverlappingOutages) {
  {
    FaultPlan p;  // second down lands inside the first outage window
    p.link_outage("a", "b", 10_s, 30_s).link_down("a", "b", 20_s);
    ASSERT_NE(problem_of(p).find("overlapping"), std::string::npos) << problem_of(p);
    EXPECT_EQ(p.validate()->event, 2u);  // the down that overlaps, not the first one
  }
  {
    FaultPlan p;  // same physical link, opposite endpoint order
    p.link_outage("a", "b", 10_s, 30_s).link_outage("b", "a", 15_s, 40_s);
    EXPECT_NE(problem_of(p).find("overlapping"), std::string::npos) << problem_of(p);
  }
  {
    FaultPlan p;
    p.link_up("a", "b", 10_s);  // repairs a link that never went down
    EXPECT_NE(problem_of(p).find("without a preceding down"), std::string::npos);
  }
  {
    FaultPlan p;  // back-to-back outages on one link are fine
    p.link_outage("a", "b", 10_s, 20_s).link_outage("a", "b", 30_s, 40_s);
    EXPECT_EQ(problem_of(p), "");
  }
  {
    FaultPlan p;  // permanent down after a completed outage is fine
    p.link_outage("a", "b", 10_s, 20_s).link_down("a", "b", 50_s);
    EXPECT_EQ(problem_of(p), "");
  }
  {
    FaultPlan p;  // distinct links may overlap freely
    p.link_outage("a", "b", 10_s, 30_s).link_outage("b", "c", 15_s, 25_s);
    EXPECT_EQ(problem_of(p), "");
  }
}

TEST(FaultPlanTest, SummaryMentionsEveryEvent) {
  FaultPlan plan;
  plan.link_outage("r0", "r1", 60_s, 120_s).controller_outage(10_s, 20_s);
  const std::string s = plan.summary();
  EXPECT_NE(s.find("r0"), std::string::npos);
  EXPECT_NE(s.find("controller"), std::string::npos);
}

/// --- topology-file grammar --------------------------------------------------

constexpr const char* kBaseTopology = R"(
node s
node r
node d
link s r 1Mbps 10ms
link r d 1Mbps 10ms
source 0 s
receiver d 0
controller s
)";

scenarios::ParseResult parse_with(const std::string& fault_lines) {
  return scenarios::parse_topology(std::string{kBaseTopology} + fault_lines);
}

TEST(FaultGrammarTest, ParsesLinkOutage) {
  const auto result = parse_with("fault link r d down 60 up 120\n");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& events = result.description->faults.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(events[0].at, 60_s);
  EXPECT_EQ(events[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(events[1].at, 120_s);
}

TEST(FaultGrammarTest, ParsesPermanentLinkDown) {
  const auto result = parse_with("fault link s r down 30\n");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.description->faults.size(), 1u);
  EXPECT_EQ(result.description->faults.events()[0].kind, FaultKind::kLinkDown);
}

TEST(FaultGrammarTest, ParsesLossyFlapControllerAndSuggestions) {
  const auto result = parse_with(
      "fault link r d lossy 0.2 10 50\n"
      "fault link r d flap 100 160 period 10 duty 0.7\n"
      "fault controller down 60 up 90\n"
      "fault suggestions drop 0.5 20 40\n");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& events = result.description->faults.events();
  ASSERT_EQ(events.size(), 5u);  // controller outage = down + up
  EXPECT_EQ(events[0].kind, FaultKind::kLinkLossy);
  EXPECT_DOUBLE_EQ(events[0].probability, 0.2);
  EXPECT_EQ(events[1].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(events[1].period, 10_s);
  EXPECT_DOUBLE_EQ(events[1].duty, 0.7);
  EXPECT_EQ(events[2].kind, FaultKind::kControllerDown);
  EXPECT_EQ(events[3].kind, FaultKind::kControllerUp);
  EXPECT_EQ(events[4].kind, FaultKind::kSuggestionDrop);
}

TEST(FaultGrammarTest, RejectsMalformedFaultLines) {
  EXPECT_FALSE(parse_with("fault link r d down\n").ok());
  EXPECT_FALSE(parse_with("fault link r d lossy 1.5 10 20\n").ok());
  EXPECT_FALSE(parse_with("fault link r d flap 10 20\n").ok());
  EXPECT_FALSE(parse_with("fault controller down 10\n").ok());
  EXPECT_FALSE(parse_with("fault suggestions drop 0.5\n").ok());
  EXPECT_FALSE(parse_with("fault disk full 10\n").ok());
}

TEST(FaultGrammarTest, RejectsUndeclaredNodes) {
  const auto result = parse_with("fault link r ghost down 60\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("ghost"), std::string::npos);
  // The diagnostic points at the fault line (base topology spans lines 1-9).
  EXPECT_NE(result.error.find("line 10"), std::string::npos) << result.error;
}

TEST(FaultGrammarTest, RejectsFaultOnNonexistentLink) {
  // s and d are both declared nodes, but no `link s d` exists.
  const auto result = parse_with("fault link s d down 60\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("nonexistent link"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("line 10"), std::string::npos) << result.error;
}

TEST(FaultGrammarTest, RejectsOverlappingOutageSchedules) {
  const auto result = parse_with(
      "fault link r d down 10 up 50\n"
      "fault link d r down 30 up 70\n");  // same link, reversed endpoints
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("overlapping"), std::string::npos) << result.error;

  const auto sequential = parse_with(
      "fault link r d down 10 up 50\n"
      "fault link r d down 60 up 70\n");
  EXPECT_TRUE(sequential.ok()) << sequential.error;
}

TEST(FaultGrammarTest, RejectsInvertedWindowViaPlanValidation) {
  EXPECT_FALSE(parse_with("fault link r d lossy 0.2 50 10\n").ok());
}

}  // namespace
}  // namespace tsim::fault
