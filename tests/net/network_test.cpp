#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/simulation.hpp"

namespace tsim::net {
namespace {

using namespace tsim::sim::time_literals;

struct NetworkFixture : ::testing::Test {
  sim::Simulation simulation{1};
  Network network{simulation};
};

TEST_F(NetworkFixture, NodesGetSequentialIdsAndDefaultNames) {
  const NodeId a = network.add_node();
  const NodeId b = network.add_node("router");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(network.node(a).name, "n0");
  EXPECT_EQ(network.node(b).name, "router");
  EXPECT_EQ(network.node_count(), 2u);
}

TEST_F(NetworkFixture, DuplexLinkCreatesBothDirections) {
  const NodeId a = network.add_node();
  const NodeId b = network.add_node();
  const auto [ab, ba] = network.add_duplex_link(a, b, tsim::units::BitsPerSec{1e6}, 10_ms);
  EXPECT_EQ(network.link(ab).from(), a);
  EXPECT_EQ(network.link(ab).to(), b);
  EXPECT_EQ(network.link(ba).from(), b);
  EXPECT_EQ(network.link(ba).to(), a);
  EXPECT_EQ(network.link_count(), 2u);
}

TEST_F(NetworkFixture, AddLinkValidatesNodes) {
  network.add_node();
  EXPECT_THROW(network.add_link(0, 5, tsim::units::BitsPerSec{1e6}, 1_ms), std::out_of_range);
}

TEST_F(NetworkFixture, AddLinkRejectsNanBandwidth) {
  const NodeId a = network.add_node();
  const NodeId b = network.add_node();
  EXPECT_THROW(network.add_link(a, b, tsim::units::BitsPerSec{std::nan("")}, 1_ms),
               std::invalid_argument);
  EXPECT_EQ(network.link_count(), 0u);
}

TEST_F(NetworkFixture, AddLinkRejectsQueueLimitsAbove32Bits) {
  const NodeId a = network.add_node();
  const NodeId b = network.add_node();
  EXPECT_THROW(network.add_link(a, b, tsim::units::BitsPerSec{1e6}, 1_ms, 4294967296ULL),
               std::invalid_argument);
  EXPECT_EQ(network.link_count(), 0u);

  // The largest limit that fits is kept exactly, and the Link reports what
  // the datapath enforces.
  const LinkId id = network.add_link(a, b, tsim::units::BitsPerSec{1e6}, 1_ms, 4294967295ULL);
  EXPECT_EQ(network.link(id).queue_limit(), 4294967295ULL);
  EXPECT_EQ(network.link_hot(id).queue_limit, 4294967295U);
  EXPECT_EQ(network.link(id).bandwidth(), tsim::units::BitsPerSec{1e6});
  EXPECT_EQ(network.link(id).latency(), 1_ms);
}

TEST_F(NetworkFixture, SendBeforeRoutesComputedThrows) {
  const NodeId a = network.add_node();
  const NodeId b = network.add_node();
  network.add_link(a, b, tsim::units::BitsPerSec{1e6}, 1_ms);
  Packet p;
  p.src = a;
  p.dst = b;
  EXPECT_THROW(network.send_unicast(p), std::logic_error);
}

TEST_F(NetworkFixture, UnicastTraversesMultipleHops) {
  // a - m - b chain.
  const NodeId a = network.add_node();
  const NodeId m = network.add_node();
  const NodeId b = network.add_node();
  network.add_duplex_link(a, m, tsim::units::BitsPerSec{8e6}, 100_ms);
  network.add_duplex_link(m, b, tsim::units::BitsPerSec{8e6}, 100_ms);
  network.compute_routes();

  int got = 0;
  network.set_local_sink(b, [&](const PacketRef&) { ++got; });
  Packet p;
  p.kind = PacketKind::kReport;
  p.size_bytes = 64;
  p.src = a;
  p.dst = b;
  network.send_unicast(p);
  simulation.run_until(150_ms);
  EXPECT_EQ(got, 0);  // only one hop done
  simulation.run_until(300_ms);
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkFixture, LocalDeliveryWhenSrcEqualsDst) {
  const NodeId a = network.add_node();
  network.compute_routes();
  int got = 0;
  network.set_local_sink(a, [&](const PacketRef&) { ++got; });
  Packet p;
  p.src = a;
  p.dst = a;
  network.send_unicast(p);
  simulation.run_until(1_s);
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkFixture, NoRouteDropsSilently) {
  const NodeId a = network.add_node();
  const NodeId b = network.add_node();
  network.compute_routes();
  Packet p;
  p.src = a;
  p.dst = b;
  network.send_unicast(p);  // no links at all: dropped, no crash
  simulation.run_until(1_s);
  SUCCEED();
}

TEST_F(NetworkFixture, PacketUidsAreUnique) {
  network.add_node();
  network.compute_routes();
  const auto u1 = network.next_packet_uid();
  const auto u2 = network.next_packet_uid();
  EXPECT_NE(u1, u2);
}

TEST_F(NetworkFixture, MulticastWithoutForwarderIsDropped) {
  const NodeId a = network.add_node();
  network.compute_routes();
  Packet p;
  p.src = a;
  p.multicast = true;
  network.send_multicast(p);
  simulation.run_until(1_s);
  SUCCEED();
}

TEST(GroupAddrTest, KeyAndEquality) {
  const GroupAddr g1{3, 2};
  const GroupAddr g2{3, 2};
  const GroupAddr g3{3, 4};
  EXPECT_EQ(g1, g2);
  EXPECT_NE(g1, g3);
  EXPECT_EQ(g1.key(), (3u << 8) | 2u);
  EXPECT_NE(std::hash<GroupAddr>{}(g1), std::hash<GroupAddr>{}(g3));
}

}  // namespace
}  // namespace tsim::net
