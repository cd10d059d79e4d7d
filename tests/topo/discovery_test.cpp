#include "topo/discovery.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace tsim::topo {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

struct DiscoveryFixture : ::testing::Test {
  sim::Simulation simulation{3};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId r{network.add_node("r")};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  mcast::MulticastRouter mcast{simulation, network, {}};

  DiscoveryFixture() {
    network.add_duplex_link(src, r, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, a, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, b, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.compute_routes();
    mcast.set_session_source(0, src);
  }
};

TEST_F(DiscoveryFixture, SnapshotCapturesTreeAndReceivers) {
  DiscoveryService discovery{simulation, mcast, {1_s, Time::zero()}};
  discovery.track_session(0, 6);
  mcast.join(a, net::GroupAddr{0, 1});
  discovery.start();
  simulation.run_until(100_ms);
  const TopologySnapshot* snap = discovery.snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->source, src);
  EXPECT_EQ(snap->receivers, (std::vector<net::NodeId>{a}));
  EXPECT_EQ(snap->edges.size(), 2u);  // src->r, r->a
}

TEST_F(DiscoveryFixture, NoSnapshotBeforeStart) {
  DiscoveryService discovery{simulation, mcast, {}};
  discovery.track_session(0, 6);
  EXPECT_EQ(discovery.snapshot(0), nullptr);
}

TEST_F(DiscoveryFixture, UntrackedSessionReturnsNull) {
  DiscoveryService discovery{simulation, mcast, {}};
  discovery.start();
  simulation.run_until(1_s);
  EXPECT_EQ(discovery.snapshot(42), nullptr);
}

TEST_F(DiscoveryFixture, StalenessServesOldTree) {
  DiscoveryService discovery{simulation, mcast, {1_s, 5_s}};
  discovery.track_session(0, 6);
  mcast.join(a, net::GroupAddr{0, 1});
  discovery.start();

  // b joins at t=3 s. With 5 s staleness, a query at t=6 s must still see
  // the tree as of t<=1 s (a only); by t=9 s the post-join tree is visible.
  simulation.at(3_s, [&]() { mcast.join(b, net::GroupAddr{0, 1}); });
  simulation.run_until(6_s);
  const TopologySnapshot* old_snap = discovery.snapshot(0);
  ASSERT_NE(old_snap, nullptr);
  EXPECT_EQ(old_snap->receivers.size(), 1u);

  simulation.run_until(9_s);
  const TopologySnapshot* new_snap = discovery.snapshot(0);
  ASSERT_NE(new_snap, nullptr);
  EXPECT_EQ(new_snap->receivers.size(), 2u);
}

TEST_F(DiscoveryFixture, StalenessLongerThanTheRunYieldsNull) {
  DiscoveryService discovery{simulation, mcast, {1_s, 60_s}};
  discovery.track_session(0, 6);
  discovery.start();
  simulation.run_until(5_s);
  // Nothing captured 60 s ago yet.
  EXPECT_EQ(discovery.snapshot(0), nullptr);
}

TEST_F(DiscoveryFixture, ZeroStalenessServesTheNewestSnapshot) {
  DiscoveryService discovery{simulation, mcast, {1_s, Time::zero()}};
  discovery.track_session(0, 6);
  discovery.start();
  simulation.run_until(100_s);
  const TopologySnapshot* snap = discovery.snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->captured_at, 100_s);
}

TEST_F(DiscoveryFixture, LongStalenessServesTheSnapshotFromThatLongAgo) {
  // 150 s of staleness at 1 s sampling needs the snapshot of 150 samples
  // ago: the history keeps it however many samples that is.
  DiscoveryService discovery{simulation, mcast, {1_s, 150_s}};
  discovery.track_session(0, 6);
  mcast.join(a, net::GroupAddr{0, 1});
  discovery.start();
  simulation.at(200_s, [&]() { mcast.join(b, net::GroupAddr{0, 1}); });
  simulation.run_until(300_s);
  const TopologySnapshot* snap = discovery.snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->captured_at, 150_s);
  EXPECT_EQ(snap->receivers.size(), 1u);

  // Later queries move forward with time and reach b's join.
  simulation.run_until(351_s);
  const TopologySnapshot* later = discovery.snapshot(0);
  ASSERT_NE(later, nullptr);
  EXPECT_EQ(later->captured_at, 201_s);
  EXPECT_EQ(later->receivers.size(), 2u);
}

}  // namespace
}  // namespace tsim::topo
