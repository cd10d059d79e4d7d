// InvariantAuditor: mode parsing, reporting plumbing, and — via the
// corrupt_*_for_test hooks — proof that each invariant family actually fires
// with the right invariant id and context when its property is broken.
#include "check/invariant_auditor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace tsim::check {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

AuditConfig log_config() {
  AuditConfig cfg;
  cfg.mode = AuditMode::kLog;
  cfg.log_to_stderr = false;
  return cfg;
}

bool has_violation(const InvariantAuditor& auditor, const std::string& invariant) {
  const auto& v = auditor.violations();
  return std::any_of(v.begin(), v.end(),
                     [&](const Violation& x) { return x.invariant == invariant; });
}

TEST(AuditModeTest, ParsesKnownModesAndRejectsGarbage) {
  EXPECT_EQ(parse_audit_mode("off"), AuditMode::kOff);
  EXPECT_EQ(parse_audit_mode("log"), AuditMode::kLog);
  EXPECT_EQ(parse_audit_mode("assert"), AuditMode::kAssert);
  EXPECT_FALSE(parse_audit_mode("loud").has_value());
  EXPECT_FALSE(parse_audit_mode("").has_value());
  EXPECT_STREQ(audit_mode_name(AuditMode::kLog), "log");
}

TEST(AuditorReportTest, OffModeIgnoresEverything) {
  InvariantAuditor auditor{AuditConfig{}};  // mode defaults to kOff
  auditor.report(Violation{"x", Time::zero(), 0, net::kInvalidNode, net::kInvalidLink, ""});
  EXPECT_EQ(auditor.violation_count(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(AuditorReportTest, LogModeCountsPastTheRecordBound) {
  AuditConfig cfg = log_config();
  cfg.max_recorded = 2;
  InvariantAuditor auditor{cfg};
  for (int i = 0; i < 5; ++i) {
    auditor.report(
        Violation{"x", Time::zero(), 0, net::kInvalidNode, net::kInvalidLink, ""});
  }
  EXPECT_EQ(auditor.violation_count(), 5u);
  EXPECT_EQ(auditor.violations().size(), 2u);
}

TEST(AuditorReportTest, JsonReportNamesInvariantAndMode) {
  InvariantAuditor auditor{log_config()};
  auditor.set_now(Time::seconds(std::int64_t{7}));
  auditor.report(Violation{"link.byte_conservation", Time::seconds(std::int64_t{7}), 3, 2,
                           1, "10 bytes missing"});
  const std::string json = auditor.report_json();
  EXPECT_NE(json.find("\"mode\":\"log\""), std::string::npos) << json;
  EXPECT_NE(json.find("link.byte_conservation"), std::string::npos) << json;
  EXPECT_NE(json.find("10 bytes missing"), std::string::npos) << json;
}

/// One duplex link, auditor attached to the network.
struct LinkAuditFixture : ::testing::Test {
  sim::Simulation simulation{1};
  net::Network network{simulation};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};

  LinkAuditFixture() {
    network.add_duplex_link(a, b, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.compute_routes();
  }
};

TEST_F(LinkAuditFixture, SkippedByteCreditFiresConservation) {
  InvariantAuditor auditor{log_config()};
  auditor.attach_network(network);
  auditor.run_checks_now();
  EXPECT_EQ(auditor.violation_count(), 0u);  // untouched links conserve

  network.link(0).corrupt_accounting_for_test();
  auditor.run_checks_now();
  EXPECT_TRUE(has_violation(auditor, "link.packet_conservation"));
  EXPECT_TRUE(has_violation(auditor, "link.byte_conservation"));
  // The violation localizes the corrupted link.
  for (const auto& v : auditor.violations()) EXPECT_EQ(v.link, 0u);
}

TEST_F(LinkAuditFixture, AssertModeThrowsWithTheInvariantId) {
  AuditConfig cfg;
  cfg.mode = AuditMode::kAssert;
  InvariantAuditor auditor{cfg};
  auditor.attach_network(network);
  network.link(0).corrupt_accounting_for_test();
  try {
    auditor.run_checks_now();
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().invariant, "link.packet_conservation");
    EXPECT_EQ(e.violation().link, 0u);
  }
}

TEST(SchedulerAuditTest, ClockCorruptionFiresTimeInvariants) {
  sim::Simulation simulation{1};
  InvariantAuditor auditor{log_config()};
  auditor.attach_simulation(simulation);
  simulation.at(5_s, [] {});
  auditor.run_checks_now();
  EXPECT_EQ(auditor.violation_count(), 0u);

  // Jump the clock past the pending event: the event is now "in the past".
  simulation.scheduler().corrupt_clock_for_test(10_s);
  auditor.run_checks_now();
  EXPECT_TRUE(has_violation(auditor, "sim.event_in_past"));

  // Then yank it backwards: monotonicity breaks.
  simulation.scheduler().corrupt_clock_for_test(Time::seconds(std::int64_t{2}));
  auditor.run_checks_now();
  EXPECT_TRUE(has_violation(auditor, "sim.time_monotonic"));
}

/// source -> r -> {a, b} multicast fixture with an attached auditor.
struct TreeAuditFixture : ::testing::Test {
  sim::Simulation simulation{1};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId r{network.add_node("r")};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  mcast::MulticastRouter router{simulation, network, {1_s}};

  TreeAuditFixture() {
    network.add_duplex_link(src, r, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, a, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, b, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.compute_routes();
    router.set_session_source(0, src);
  }
};

TEST_F(TreeAuditFixture, CorruptedTreeEdgeFiresWellFormednessChecks) {
  InvariantAuditor auditor{log_config()};
  auditor.attach_network(network);
  auditor.attach_multicast(router);

  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(b, g);
  ASSERT_NE(router.tree(g), nullptr);  // forces a clean rebuild (audited)
  const std::uint64_t before = auditor.violation_count();
  EXPECT_EQ(before, 0u) << auditor.report_json();

  router.corrupt_tree_edge_for_test(g);
  auditor.run_checks_now();
  // Reversing the first edge (source -> r) hands the source an incoming edge;
  // on deeper trees the same hook manufactures a multi-parent node + cycle.
  EXPECT_TRUE(has_violation(auditor, "mcast.tree_root") ||
              has_violation(auditor, "mcast.tree_multi_parent") ||
              has_violation(auditor, "mcast.tree_cycle"))
      << auditor.report_json();
  // The extra edge has no link in the fan spans route() forwards on.
  EXPECT_TRUE(has_violation(auditor, "mcast.tree_csr")) << auditor.report_json();
}

TEST_F(TreeAuditFixture, LinkCutWithoutRerouteFiresDeadEdge) {
  InvariantAuditor auditor{log_config()};
  auditor.attach_network(network);
  auditor.attach_multicast(router);

  const net::GroupAddr g{0, 1};
  router.join(a, g);
  ASSERT_NE(router.tree(g), nullptr);
  ASSERT_EQ(auditor.violation_count(), 0u) << auditor.report_json();

  // Cut r -> a behind the router's back: no on_topology_changed(), so the
  // tree stays clean and stamped with the current epoch.
  const net::LinkId cut = network.routes().next_hop(r, a);
  network.link(cut).set_up(false);
  ASSERT_NE(router.tree_if_clean(g), nullptr);
  auditor.run_checks_now();

  const auto& v = auditor.violations();
  const auto dead = std::find_if(v.begin(), v.end(), [](const Violation& x) {
    return x.invariant == "mcast.tree_dead_edge";
  });
  ASSERT_NE(dead, v.end()) << auditor.report_json();
  EXPECT_EQ(dead->node, r);
  EXPECT_EQ(dead->link, cut);
  EXPECT_FALSE(has_violation(auditor, "mcast.tree_stale_epoch"));
  EXPECT_FALSE(has_violation(auditor, "mcast.tree_csr"));
}

TEST(WatchdogAuditTest, FlagsAddUnderLossAndCleanDrop) {
  InvariantAuditor auditor{log_config()};
  auditor.set_now(Time::seconds(std::int64_t{30}));

  InvariantAuditor::WatchdogObservation add;
  add.node = 4;
  add.add = true;
  add.loss = 0.5;
  add.add_loss_threshold = 0.25;
  auditor.on_unilateral_action(add);
  EXPECT_TRUE(has_violation(auditor, "control.watchdog_add_under_loss"));
  EXPECT_EQ(auditor.violations().front().node, 4u);

  InvariantAuditor::WatchdogObservation drop;
  drop.node = 5;
  drop.add = false;
  drop.loss = 0.0;
  drop.starved = false;
  drop.drop_loss_threshold = 0.1;
  auditor.on_unilateral_action(drop);
  EXPECT_TRUE(has_violation(auditor, "control.watchdog_drop_clean"));

  // Sane decisions stay silent: add on a clean window, drop under loss.
  const std::uint64_t count = auditor.violation_count();
  InvariantAuditor::WatchdogObservation ok_add;
  ok_add.add = true;
  ok_add.loss = 0.0;
  ok_add.add_loss_threshold = 0.25;
  auditor.on_unilateral_action(ok_add);
  InvariantAuditor::WatchdogObservation ok_drop;
  ok_drop.add = false;
  ok_drop.loss = 0.9;
  ok_drop.drop_loss_threshold = 0.1;
  auditor.on_unilateral_action(ok_drop);
  EXPECT_EQ(auditor.violation_count(), count);
}

}  // namespace
}  // namespace tsim::check
