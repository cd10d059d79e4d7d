// Every paper scenario (Fig 6-10 equivalents, shortened) and every fault kind
// runs to completion with auditing in assert mode: a single invariant
// violation throws and fails the test. Registered under the ctest label
// `audit` (see tests/CMakeLists.txt); CI runs `ctest -L audit` explicitly.
#include <gtest/gtest.h>

#include "check/invariant_auditor.hpp"
#include "fault/fault_plan.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"
#include "scenarios/topology_file.hpp"
#include "../control/two_domain_topology.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

ScenarioConfig audited_config(std::uint64_t seed, Time duration) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.audit.mode = check::AuditMode::kAssert;
  return cfg;
}

void run_audited(std::unique_ptr<Scenario> scenario) {
  ASSERT_NE(scenario->auditor(), nullptr);
  scenario->run();  // throws check::AuditError on any violation
  EXPECT_EQ(scenario->auditor()->violation_count(), 0u);
  EXPECT_GT(scenario->auditor()->checks_run(), 0u);
}

TEST(AuditScenarioTest, Fig6StabilityTopologyACbr) {
  run_audited(ScenarioBuilder(audited_config(6, 120_s)).topology_a({}).build());
}

TEST(AuditScenarioTest, Fig6StabilityTopologyAVbr) {
  ScenarioConfig cfg = audited_config(6, 120_s);
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  cfg.traffic.peak_to_mean = 3.0;
  TopologyAOptions opt;
  opt.receivers_per_set = 4;
  run_audited(ScenarioBuilder(cfg).topology_a(opt).build());
}

TEST(AuditScenarioTest, Fig7StabilityTopologyB) {
  TopologyBOptions opt;
  opt.sessions = 4;
  run_audited(ScenarioBuilder(audited_config(7, 120_s)).topology_b(opt).build());
}

TEST(AuditScenarioTest, MultiDomainSummaryExchange) {
  // Declared domains under assert auditing: exercises the control.domains
  // sweep (border registration, cap ranges, summary counter sanity) on top of
  // the usual invariants.
  const ParseResult parsed = parse_topology(kTwoDomainTopology);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ScenarioConfig cfg = audited_config(13, 120_s);
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  cfg.traffic.peak_to_mean = 3.0;
  auto scenario = ScenarioBuilder(cfg).topology(*parsed.description).build();
  ASSERT_NE(scenario->domains(), nullptr);
  ASSERT_EQ(scenario->domains()->domain_count(), 3u);
  run_audited(std::move(scenario));
}

TEST(AuditScenarioTest, Fig8FairnessTopologyBVbr) {
  ScenarioConfig cfg = audited_config(8, 120_s);
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  TopologyBOptions opt;
  opt.sessions = 8;
  run_audited(ScenarioBuilder(cfg).topology_b(opt).build());
}

TEST(AuditScenarioTest, Fig9SubscriptionTraceVbr) {
  ScenarioConfig cfg = audited_config(9, 120_s);
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  cfg.traffic.peak_to_mean = 3.0;
  TopologyBOptions opt;
  opt.sessions = 4;
  run_audited(ScenarioBuilder(cfg).topology_b(opt).build());
}

TEST(AuditScenarioTest, Fig10StaleInformationTopologyA) {
  ScenarioConfig cfg = audited_config(10, 120_s);
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  cfg.control.info_staleness = 6_s;
  run_audited(ScenarioBuilder(cfg).topology_a({}).build());
}

TEST(AuditScenarioTest, MtraceDiscoveryStaysClean) {
  ScenarioConfig cfg = audited_config(11, 90_s);
  cfg.control.discovery = DiscoveryMode::kMtrace;
  run_audited(ScenarioBuilder(cfg).topology_a({}).build());
}

TEST(AuditScenarioTest, ReceiverDrivenBaselineStaysClean) {
  ScenarioConfig cfg = audited_config(12, 90_s);
  cfg.control.kind = ControllerKind::kReceiverDriven;
  run_audited(ScenarioBuilder(cfg).topology_a({}).build());
}

/// --- every fault kind, audited in assert mode ------------------------------

TEST(AuditFaultTest, LinkOutageWithReroute) {
  fault::FaultPlan plan;
  plan.link_outage("r0", "r1", 30_s, 60_s);
  run_audited(
      ScenarioBuilder(audited_config(21, 120_s)).topology_a({}).with_faults(plan).build());
}

TEST(AuditFaultTest, PermanentLinkDown) {
  fault::FaultPlan plan;
  plan.link_down("r0", "r1", 30_s);
  run_audited(
      ScenarioBuilder(audited_config(22, 90_s)).topology_a({}).with_faults(plan).build());
}

TEST(AuditFaultTest, LinkFlap) {
  fault::FaultPlan plan;
  plan.link_flap("r0", "r1", 30_s, 70_s, 10_s, 0.5);
  run_audited(
      ScenarioBuilder(audited_config(23, 120_s)).topology_a({}).with_faults(plan).build());
}

TEST(AuditFaultTest, LossyLink) {
  fault::FaultPlan plan;
  plan.link_lossy("r0", "r1", 0.2, 30_s, 60_s);
  run_audited(
      ScenarioBuilder(audited_config(24, 120_s)).topology_a({}).with_faults(plan).build());
}

TEST(AuditFaultTest, ControllerOutage) {
  fault::FaultPlan plan;
  plan.controller_outage(30_s, 60_s);
  run_audited(
      ScenarioBuilder(audited_config(25, 120_s)).topology_a({}).with_faults(plan).build());
}

TEST(AuditFaultTest, SuggestionDrops) {
  fault::FaultPlan plan;
  plan.drop_suggestions(0.5, 30_s, 60_s);
  run_audited(
      ScenarioBuilder(audited_config(26, 120_s)).topology_a({}).with_faults(plan).build());
}

TEST(AuditFaultTest, CrossTrafficBurst) {
  run_audited(ScenarioBuilder(audited_config(27, 120_s))
                  .topology_a({})
                  .with_cross_traffic({"r0", "r1", 200e3, 30_s, 60_s})
                  .build());
}

}  // namespace
}  // namespace tsim::scenarios
