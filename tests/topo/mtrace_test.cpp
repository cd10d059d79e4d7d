#include "topo/mtrace.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace tsim::topo {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// src -- r -- {a, b}; tool at src.
struct MtraceFixture : ::testing::Test {
  sim::Simulation simulation{23};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId r{network.add_node("r")};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  mcast::MulticastRouter mcast{simulation, network, {}};
  transport::DemuxRegistry demuxes{network};
  std::unique_ptr<MtraceDiscovery> discovery;

  MtraceFixture() {
    network.add_duplex_link(src, r, tsim::units::BitsPerSec{10e6}, 50_ms);
    network.add_duplex_link(r, a, tsim::units::BitsPerSec{10e6}, 50_ms);
    network.add_duplex_link(r, b, tsim::units::BitsPerSec{10e6}, 50_ms);
    network.compute_routes();
    mcast.set_session_source(0, src);

    MtraceDiscovery::Config cfg;
    cfg.tool_node = src;
    cfg.query_period = 1_s;
    cfg.assembly_delay = 500_ms;
    discovery = std::make_unique<MtraceDiscovery>(simulation, network, mcast, demuxes, cfg);
    discovery->track_session(0, 6);
  }
};

TEST_F(MtraceFixture, AssemblesTreeFromResponses) {
  mcast.join(a, net::GroupAddr{0, 1});
  mcast.join(b, net::GroupAddr{0, 1});
  discovery->register_receiver(0, a);
  discovery->register_receiver(0, b);
  discovery->start();
  simulation.run_until(1_s);

  const TopologySnapshot* snap = discovery->snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->source, src);
  EXPECT_EQ(snap->receivers, (std::vector<net::NodeId>{a, b}));
  EXPECT_EQ(snap->edges.size(), 3u);  // src->r, r->a, r->b
}

TEST_F(MtraceFixture, QueriesAreLinearInReceivers) {
  mcast.join(a, net::GroupAddr{0, 1});
  mcast.join(b, net::GroupAddr{0, 1});
  discovery->register_receiver(0, a);
  discovery->register_receiver(0, b);
  discovery->start();
  simulation.run_until(Time::seconds(10.5));
  // 11 rounds (t=0..10) x 2 receivers.
  EXPECT_EQ(discovery->queries_sent(), 22u);
  EXPECT_EQ(discovery->responses_received(), 22u);
}

TEST_F(MtraceFixture, DuplicateRegistrationInstallsOneResponder) {
  mcast.join(a, net::GroupAddr{0, 1});
  discovery->register_receiver(0, a);
  discovery->register_receiver(0, a);
  discovery->start();
  simulation.run_until(500_ms);  // one round, assembled at 500 ms
  EXPECT_EQ(discovery->queries_sent(), 1u);
  EXPECT_EQ(discovery->responses_received(), 1u);
}

TEST_F(MtraceFixture, NonSubscribedReceiverExcluded) {
  mcast.join(a, net::GroupAddr{0, 1});
  // b registered with the tool but never joined any group.
  discovery->register_receiver(0, a);
  discovery->register_receiver(0, b);
  discovery->start();
  simulation.run_until(1_s);
  const TopologySnapshot* snap = discovery->snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->receivers, (std::vector<net::NodeId>{a}));
  EXPECT_EQ(snap->edges.size(), 2u);
}

TEST_F(MtraceFixture, NoSnapshotBeforeFirstAssembly) {
  discovery->register_receiver(0, a);
  discovery->start();
  EXPECT_EQ(discovery->snapshot(0), nullptr);
  simulation.run_until(100_ms);  // queries in flight, assembly at 500 ms
  EXPECT_EQ(discovery->snapshot(0), nullptr);
}

TEST_F(MtraceFixture, SnapshotLagsMembershipByOneRound) {
  mcast.join(a, net::GroupAddr{0, 1});
  discovery->register_receiver(0, a);
  discovery->register_receiver(0, b);
  discovery->start();
  simulation.run_until(1_s);
  ASSERT_EQ(discovery->snapshot(0)->receivers.size(), 1u);

  mcast.join(b, net::GroupAddr{0, 1});
  // The join shows up only after the next query round completes.
  simulation.run_until(Time::seconds(1.4));
  EXPECT_EQ(discovery->snapshot(0)->receivers.size(), 1u);
  simulation.run_until(3_s);
  EXPECT_EQ(discovery->snapshot(0)->receivers.size(), 2u);
}

TEST_F(MtraceFixture, SubscribedLayersReportHighestContiguous) {
  mcast.join(a, net::GroupAddr{0, 1});
  mcast.join(a, net::GroupAddr{0, 2});
  mcast.join(a, net::GroupAddr{0, 3});
  discovery->register_receiver(0, a);
  discovery->start();
  simulation.run_until(1_s);
  // The session tree overlays layers 1..3 along the same path.
  const TopologySnapshot* snap = discovery->snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->edges.size(), 2u);
}

TEST_F(MtraceFixture, KeepsPreviousViewWhenRoundYieldsNothing) {
  mcast.join(a, net::GroupAddr{0, 1});
  discovery->register_receiver(0, a);
  discovery->start();
  simulation.run_until(1_s);
  ASSERT_EQ(discovery->snapshot(0)->receivers.size(), 1u);

  // Receiver leaves: subsequent rounds report no subscription, but an empty
  // round must not erase the tree outright until a valid round replaces it.
  mcast.leave(a, net::GroupAddr{0, 1});
  simulation.run_until(5_s);
  const TopologySnapshot* snap = discovery->snapshot(0);
  ASSERT_NE(snap, nullptr);
  // Stale-beats-empty policy: the old single-receiver view persists.
  EXPECT_EQ(snap->receivers.size(), 1u);
}

}  // namespace
}  // namespace tsim::topo
