#include "control/controller_agent.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "control/receiver_agent.hpp"
#include "mcast/multicast_router.hpp"
#include "topo/discovery.hpp"
#include "sim/simulation.hpp"
#include "traffic/layered_source.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::control {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// Minimal end-to-end control loop: src --10 Mbps-- r --bottleneck-- rcv,
/// with the controller at src.
struct ControlFixture : ::testing::Test {
  sim::Simulation simulation{21};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId r{network.add_node("r")};
  net::NodeId rcv{network.add_node("rcv")};
  mcast::MulticastRouter mcast{simulation, network, {1_s}};
  transport::DemuxRegistry demuxes{network};
  std::unique_ptr<topo::DiscoveryService> discovery;
  std::unique_ptr<ControllerAgent> controller;
  std::unique_ptr<traffic::LayeredSource> source;
  std::unique_ptr<transport::ReceiverEndpoint> endpoint;
  std::unique_ptr<ReceiverAgent> agent;

  void build(double bottleneck_bps, Time staleness = Time::zero(),
             Time report_period = 2_s) {
    network.add_duplex_link(src, r, tsim::units::BitsPerSec{10e6}, 200_ms, 30);
    network.add_duplex_link(r, rcv, tsim::units::BitsPerSec{bottleneck_bps}, 200_ms, 30);
    network.compute_routes();
    mcast.set_session_source(0, src);

    discovery = std::make_unique<topo::DiscoveryService>(
        simulation, mcast, topo::DiscoveryService::Config{1_s, staleness});

    ControllerAgent::Config ccfg;
    ccfg.node = src;
    ccfg.info_staleness = staleness;
    ccfg.params.interval = 2_s;
    controller = std::make_unique<ControllerAgent>(simulation, network, *discovery,
                                                   demuxes.at(src), ccfg);
    controller->register_receiver(0, rcv);

    traffic::LayeredSource::Config scfg;
    scfg.session = 0;
    scfg.node = src;
    scfg.model = traffic::TrafficModel::kCbr;
    source = std::make_unique<traffic::LayeredSource>(simulation, network, scfg);

    transport::ReceiverEndpoint::Config ecfg;
    ecfg.node = rcv;
    ecfg.session = 0;
    ecfg.controller = src;
    ecfg.report_period = report_period;
    endpoint = std::make_unique<transport::ReceiverEndpoint>(simulation, network, mcast,
                                                             demuxes.at(rcv), ecfg);
    agent = std::make_unique<ReceiverAgent>(simulation, *endpoint, ccfg.params.interval);

    discovery->start();
    controller->start();
    source->start();
    endpoint->start();
    agent->start();
  }
};

TEST_F(ControlFixture, ReportsFlowToController) {
  build(10e6);
  simulation.run_until(20_s);
  EXPECT_GT(controller->reports_received(), 5u);
}

TEST_F(ControlFixture, SuggestionsDriveSubscriptionUp) {
  build(10e6);  // no bottleneck: should reach all 6 layers
  simulation.run_until(60_s);
  EXPECT_EQ(endpoint->subscription(), 6);
  EXPECT_GT(controller->suggestions_sent(), 0u);
  EXPECT_GT(agent->suggestions_applied(), 0u);
}

TEST_F(ControlFixture, ConvergesNearBottleneckOptimal) {
  build(256e3);  // optimal 3 layers
  simulation.run_until(300_s);
  EXPECT_GE(endpoint->subscription(), 2);
  EXPECT_LE(endpoint->subscription(), 4);
  // Loss must be controlled after convergence: check recent window.
  EXPECT_LT(endpoint->last_completed_window().loss_rate().value(), 0.3);
}

TEST_F(ControlFixture, IntervalsKeepRunning) {
  build(10e6);
  simulation.run_until(50_s);
  // Controller starts at 2.5 s with a 2 s interval: ~24 runs by 50 s.
  EXPECT_GE(controller->intervals_run(), 20u);
  EXPECT_LE(controller->intervals_run(), 25u);
}

TEST_F(ControlFixture, LastOutputHasDiagnostics) {
  build(10e6);
  simulation.run_until(20_s);
  ASSERT_FALSE(controller->last_output().diagnostics.empty());
  EXPECT_FALSE(controller->last_output().prescriptions.empty());
}

TEST_F(ControlFixture, StaleInfoStillConverges) {
  build(10e6, 4_s);
  simulation.run_until(120_s);
  EXPECT_GE(endpoint->subscription(), 5);
}

TEST_F(ControlFixture, SubIntervalReportingStillConverges) {
  // Receivers reporting twice per algorithm interval: the controller folds
  // multiple small windows into one interval-equivalent aggregate.
  build(10e6, Time::zero(), 1_s);
  simulation.run_until(60_s);
  EXPECT_EQ(endpoint->subscription(), 6);
  // Twice the report traffic reached the controller.
  EXPECT_GT(controller->reports_received(), 45u);
}

TEST_F(ControlFixture, ReportHistoryKeepsOnlyReadableReports) {
  // 2 s reports and 2 s intervals without staleness: no interval reads a
  // report whose window ended three intervals (6 s) or more before now, so
  // about three reports stay.
  build(10e6);
  simulation.run_until(300_s);
  EXPECT_GT(controller->report_history_size(), 0u);
  EXPECT_LE(controller->report_history_size(), 4u);
}

TEST_F(ControlFixture, ReportHistoryCoversTheStaleWindow) {
  // With 4 s of staleness the readable span reaches 4 s + 6 s back: about
  // five 2 s reports.
  build(10e6, 4_s);
  simulation.run_until(300_s);
  EXPECT_GE(controller->report_history_size(), 5u);
  EXPECT_LE(controller->report_history_size(), 6u);
}

TEST_F(ControlFixture, SlowReportingStillConverges) {
  // Reports every 4 s against a 2 s interval: the controller reuses the
  // last report for the in-between runs instead of treating the receiver
  // as silent.
  build(10e6, Time::zero(), 4_s);
  simulation.run_until(90_s);
  EXPECT_EQ(endpoint->subscription(), 6);
}

/// Registration bookkeeping without traffic: src -- r -- {a, b, x} and
/// x -- y. The controller's discovery is scoped to {src, r, a, b, x}, so x
/// is a leaf of its snapshot, the way a child domain's border is.
struct MembershipFixture : ::testing::Test {
  sim::Simulation simulation{3};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId r{network.add_node("r")};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  net::NodeId x{network.add_node("x")};
  net::NodeId y{network.add_node("y")};
  mcast::MulticastRouter mcast{simulation, network, {}};
  transport::DemuxRegistry demuxes{network};
  std::unique_ptr<topo::DiscoveryService> discovery;
  std::unique_ptr<ControllerAgent> controller;

  MembershipFixture() {
    for (const auto& [from, to] : {std::pair{src, r}, {r, a}, {r, b}, {r, x}, {x, y}}) {
      network.add_duplex_link(from, to, tsim::units::BitsPerSec{10e6}, 10_ms);
    }
    network.compute_routes();
    mcast.set_session_source(0, src);
    topo::DiscoveryService::Config dcfg;
    dcfg.domain_nodes = {src, r, a, b, x};
    dcfg.domain_root = src;
    discovery = std::make_unique<topo::DiscoveryService>(simulation, mcast, dcfg);
    ControllerAgent::Config ccfg;
    ccfg.node = src;
    controller = std::make_unique<ControllerAgent>(simulation, network, *discovery,
                                                   demuxes.at(src), ccfg);
  }
};

TEST_F(MembershipFixture, DuplicateRegistrationIsIgnoredAndOrderKept) {
  controller->register_receiver(0, b);
  controller->register_receiver(0, a);
  controller->register_receiver(1, y);
  controller->register_receiver(0, b);
  controller->register_receiver(0, a);
  controller->register_receiver(1, y);
  controller->register_border_receiver(0, a);  // already a receiver: no second entry
  const std::map<net::SessionId, std::vector<net::NodeId>> expected{{0, {b, a}}, {1, {y}}};
  EXPECT_EQ(controller->registered(), expected);
}

TEST_F(MembershipFixture, AlgorithmInputAdmitsOnlyRegisteredReceivers) {
  // a is a registered member; b is a member that never registered; x is a
  // registered border pseudo-receiver and no member at all.
  for (const net::NodeId member : {a, b, y}) mcast.join(member, net::GroupAddr{0, 1});
  controller->register_receiver(0, a);
  controller->register_border_receiver(0, x);

  std::map<net::NodeId, bool> is_receiver;
  controller->set_audit_hook(
      [&is_receiver](const core::AlgorithmInput& input, const core::AlgorithmOutput&) {
        if (!is_receiver.empty()) return;
        for (const core::SessionInput& session : input.sessions) {
          for (const core::SessionNodeInput& node : session.nodes) {
            is_receiver[node.node] = node.is_receiver;
          }
        }
      });
  discovery->start();
  controller->start();
  simulation.run_until(3_s);

  const std::map<net::NodeId, bool> expected{
      {src, false}, {r, false}, {a, true}, {b, false}, {x, true}};
  EXPECT_EQ(is_receiver, expected);
}

TEST(ReceiverAgentTest, UnilateralDropOnSuggestionSilence) {
  // No controller at all: the agent must eventually shed layers when the
  // subscription overloads the bottleneck.
  sim::Simulation simulation{5};
  net::Network network{simulation};
  const net::NodeId src = network.add_node("src");
  const net::NodeId rcv = network.add_node("rcv");
  network.add_duplex_link(src, rcv, tsim::units::BitsPerSec{128e3}, 200_ms, 10);  // ~1.5 layers
  network.compute_routes();
  mcast::MulticastRouter mcast{simulation, network, {}};
  mcast.set_session_source(0, src);
  transport::DemuxRegistry demuxes{network};

  traffic::LayeredSource::Config scfg;
  scfg.session = 0;
  scfg.node = src;
  traffic::LayeredSource source{simulation, network, scfg};

  transport::ReceiverEndpoint::Config ecfg;
  ecfg.node = rcv;
  ecfg.session = 0;
  ecfg.controller = net::kInvalidNode;  // reports disabled
  ecfg.initial_subscription = 4;
  transport::ReceiverEndpoint endpoint{simulation, network, mcast, demuxes.at(rcv), ecfg};

  // Expects a suggestion every 2 s, so it acts alone after 6 s of silence.
  ReceiverAgent agent{simulation, endpoint, 2_s};

  source.start();
  endpoint.start();
  agent.start();
  simulation.run_until(120_s);
  EXPECT_LT(endpoint.subscription(), 4);
  EXPECT_GT(agent.unilateral_actions(), 0u);
}

}  // namespace
}  // namespace tsim::control
