// End-to-end fault scenarios: receivers fall back to unilateral decisions
// while the control loop is severed, recover after repair, and every fault
// scenario reproduces bit-identically from the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "scenarios/scenario_builder.hpp"
#include "scenarios/topology_file.hpp"

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

ScenarioConfig config(std::uint64_t seed, Time duration) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  return cfg;
}

TEST(LinkFailureTest, UnilateralFallbackDuringOutageAndRecoveryAfterRepair) {
  fault::FaultPlan plan;
  plan.link_outage("r0", "r1", 120_s, 180_s);
  auto s = ScenarioBuilder(config(42, 360_s)).topology_a({}).with_faults(plan).build();

  // Converged before the cut.
  s->run_until(120_s);
  EXPECT_GE(s->endpoints()[0]->subscription(), 2);

  // During the outage the set-1 receivers hear neither data nor suggestions:
  // the watchdog must shed layers without any controller help.
  s->run_until(180_s);
  EXPECT_LE(s->endpoints()[0]->subscription(), 1);
  EXPECT_GT(s->receiver_agents()[0]->unilateral_drops(), 0u);
  EXPECT_GT(s->receiver_agents()[0]->max_suggestion_gap(), 30_s);
  // The unaffected set-2 branch kept hearing suggestions throughout.
  EXPECT_LT(s->receiver_agents()[2]->max_suggestion_gap(), 30_s);

  // After repair the tree re-grafts and the controller steers set 1 back.
  s->run();
  for (const auto& r : s->results()) {
    EXPECT_GE(r.final_subscription, r.optimal - 1) << r.name;
  }
  EXPECT_EQ(s->fault_injectors().front()->stats().link_down_transitions, 1u);
  EXPECT_EQ(s->fault_injectors().front()->stats().link_up_transitions, 1u);
}

TEST(ControllerOutageTest, ReceiversActUnilaterallyWhileControllerIsDown) {
  fault::FaultPlan plan;
  plan.controller_outage(60_s, 120_s);
  auto s = ScenarioBuilder(config(43, 240_s))
               .topology_a({})
               .with_faults(plan)
               .with_cross_traffic({"r0", "r2", 700e3, 65_s, 120_s})
               .build();
  s->run();

  EXPECT_EQ(s->controller()->outages(), 1u);
  EXPECT_TRUE(s->controller()->enabled());
  std::uint64_t unilateral = 0;
  Time max_gap = Time::zero();
  for (const auto& agent : s->receiver_agents()) {
    unilateral += agent->unilateral_actions();
    max_gap = std::max(max_gap, agent->max_suggestion_gap());
  }
  // Congestion arrived mid-outage: somebody had to act alone.
  EXPECT_GT(unilateral, 0u);
  EXPECT_GT(max_gap, 12_s);
  for (const auto& r : s->results()) {
    EXPECT_GE(r.final_subscription, r.optimal - 1) << r.name;
  }
}

TEST(ControllerOutageTest, RestartDropsLearnedStateButKeepsDurableRecord) {
  // Pins the set_enabled contract (see ControllerAgent's header): disabling
  // models a process death, so the in-memory report history is lost, while
  // the wire counters — the durable audit record — must survive the restart
  // untouched.
  auto s = ScenarioBuilder(config(11, 240_s)).topology_a({}).build();
  s->run_until(59_s);
  control::ControllerAgent* agent = s->controller();
  ASSERT_NE(agent, nullptr);
  const control::ControllerStats before = agent->stats();
  EXPECT_GT(before.reports_received, 0u);
  EXPECT_GT(agent->report_history_size(), 0u);

  agent->set_enabled(false);
  EXPECT_EQ(agent->report_history_size(), 0u);  // learned state died with the process
  EXPECT_EQ(agent->stats().reports_received, before.reports_received);  // counters survive
  EXPECT_EQ(agent->stats().suggestions_sent, before.suggestions_sent);
  EXPECT_EQ(agent->stats().outages, before.outages + 1);

  agent->set_enabled(true);
  s->run_until(240_s);
  const control::ControllerStats after = agent->stats();
  EXPECT_GT(after.reports_received, before.reports_received);  // control loop resumed
  EXPECT_GT(after.intervals_run, before.intervals_run);
  EXPECT_GT(agent->report_history_size(), 0u);  // history rebuilt from fresh reports
}

TEST(FaultDeterminismTest, SameSeedSameFingerprintForEveryFaultKind) {
  const auto run_plan = [](const fault::FaultPlan& plan) {
    auto s = ScenarioBuilder(config(7, 200_s)).topology_a({}).with_faults(plan).build();
    s->run();
    return fingerprint(*s);
  };

  std::vector<fault::FaultPlan> plans(5);
  plans[0].link_outage("r0", "r1", 60_s, 120_s);
  plans[1].link_flap("r0", "r1", 60_s, 120_s, 20_s, 0.5);
  plans[2].link_lossy("r0", "r1", 0.2, 60_s, 120_s);
  plans[3].controller_outage(60_s, 120_s);
  plans[4].drop_suggestions(0.5, 60_s, 120_s);

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const std::string first = run_plan(plans[i]);
    const std::string second = run_plan(plans[i]);
    EXPECT_EQ(first, second) << "fault plan " << i << " is not deterministic";
    EXPECT_FALSE(first.empty());
  }
}

TEST(FaultDeterminismTest, FaultRunDiffersFromFaultFreeRun) {
  // Sanity: the injector actually changes the observable run.
  auto clean = ScenarioBuilder(config(7, 200_s)).topology_a({}).build();
  clean->run();
  fault::FaultPlan plan;
  plan.link_outage("r0", "r1", 60_s, 120_s);
  auto faulty = ScenarioBuilder(config(7, 200_s)).topology_a({}).with_faults(plan).build();
  faulty->run();
  EXPECT_NE(fingerprint(*clean), fingerprint(*faulty));
}

TEST(TopologyFileFaultTest, FileDeclaredFaultsAreInstalledAndApplied) {
  constexpr const char* kTopology = R"(
node src
node mid
node leaf
link src mid 2Mbps 20ms
link mid leaf 512kbps 20ms
source 0 src
receiver leaf 0
controller src
fault link mid leaf down 30 up 60
fault suggestions drop 1.0 90 120
)";
  const auto parsed = parse_topology(kTopology);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.description->faults.size(), 3u);

  auto s = Scenario::from_description(config(3, 150_s), *parsed.description);
  s->run();
  ASSERT_EQ(s->fault_injectors().size(), 1u);
  const auto& stats = s->fault_injectors().front()->stats();
  EXPECT_EQ(stats.link_down_transitions, 1u);
  EXPECT_EQ(stats.link_up_transitions, 1u);
  EXPECT_GT(stats.suggestions_dropped, 0u);
}

TEST(ScenarioFaultApiTest, UnknownLinkNameThrowsAtInstall) {
  fault::FaultPlan plan;
  plan.link_down("r0", "nonexistent", 10_s);
  EXPECT_THROW(
      ScenarioBuilder(config(1, 60_s)).topology_a({}).with_faults(plan).build(),
      std::invalid_argument);
}

TEST(ScenarioFaultApiTest, ControllerFaultWithoutControllerThrows) {
  fault::FaultPlan plan;
  plan.controller_outage(10_s, 20_s);
  ScenarioConfig cfg = config(1, 60_s);
  cfg.control.kind = ControllerKind::kNone;
  EXPECT_THROW(ScenarioBuilder(cfg).topology_a({}).with_faults(plan).build(),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsim::scenarios
