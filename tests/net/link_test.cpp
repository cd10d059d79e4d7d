#include "net/link.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace tsim::net {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

struct LinkFixture : ::testing::Test {
  sim::Simulation simulation{1};
  Network network{simulation};
  NodeId a{network.add_node("a")};
  NodeId b{network.add_node("b")};

  std::vector<Packet> delivered;

  void wire_sink() {
    network.set_local_sink(b, [this](const PacketRef& p) { delivered.push_back(*p); });
  }

  Packet data_packet(std::uint32_t bytes) {
    Packet p;
    p.kind = PacketKind::kData;
    p.size_bytes = bytes;
    p.src = a;
    p.dst = b;
    return p;
  }
};

TEST_F(LinkFixture, TransmissionTimeMatchesBandwidth) {
  const LinkId id = network.add_link(a, b, tsim::units::BitsPerSec{8000.0}, 100_ms);  // 1000 B/s
  EXPECT_EQ(network.link(id).transmission_time(1000), Time::seconds(std::int64_t{1}));
  EXPECT_EQ(network.link(id).transmission_time(500), 500_ms);
}

TEST_F(LinkFixture, DeliversAfterSerializationPlusLatency) {
  const LinkId id = network.add_link(a, b, tsim::units::BitsPerSec{8'000'000.0}, 200_ms);  // 1 ms / 1000 B
  network.compute_routes();
  wire_sink();
  network.send_unicast(data_packet(1000));
  simulation.run_until(200_ms);
  EXPECT_TRUE(delivered.empty());  // still propagating (1 ms tx + 200 ms)
  simulation.run_until(202_ms);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(network.link(id).stats().delivered_packets, 1u);
}

TEST_F(LinkFixture, SerializesBackToBackPackets) {
  network.add_link(a, b, tsim::units::BitsPerSec{8000.0}, Time::zero(), 10);  // 1 s per 1000 B packet
  network.compute_routes();
  wire_sink();
  for (int i = 0; i < 3; ++i) network.send_unicast(data_packet(1000));
  simulation.run_until(Time::seconds(1.5));
  EXPECT_EQ(delivered.size(), 1u);
  simulation.run_until(Time::seconds(2.5));
  EXPECT_EQ(delivered.size(), 2u);
  simulation.run_until(Time::seconds(3.5));
  EXPECT_EQ(delivered.size(), 3u);
}

TEST_F(LinkFixture, DropTailWhenQueueFull) {
  const LinkId id = network.add_link(a, b, tsim::units::BitsPerSec{8000.0}, Time::zero(), 2);  // queue of 2
  network.compute_routes();
  wire_sink();
  // One transmitting + 2 queued = 3 accepted; the 4th and 5th drop.
  for (int i = 0; i < 5; ++i) network.send_unicast(data_packet(1000));
  simulation.run_until(10_s);
  EXPECT_EQ(delivered.size(), 3u);
  EXPECT_EQ(network.link(id).stats().dropped_packets, 2u);
  EXPECT_EQ(network.link(id).stats().dropped_bytes.count(), 2000u);
  EXPECT_EQ(network.link(id).stats().enqueued_packets, 5u);
}

TEST_F(LinkFixture, QueueDrainsAndAcceptsAgain) {
  const LinkId id = network.add_link(a, b, tsim::units::BitsPerSec{8000.0}, Time::zero(), 1);
  network.compute_routes();
  wire_sink();
  network.send_unicast(data_packet(1000));
  network.send_unicast(data_packet(1000));
  simulation.run_until(Time::seconds(2.5));
  EXPECT_EQ(delivered.size(), 2u);
  network.send_unicast(data_packet(1000));
  simulation.run_until(4_s);
  EXPECT_EQ(delivered.size(), 3u);
  EXPECT_EQ(network.link(id).stats().dropped_packets, 0u);
}

TEST_F(LinkFixture, PerGroupStatsTrackMulticastBytes) {
  const LinkId id = network.add_link(a, b, tsim::units::BitsPerSec{8'000'000.0}, 1_ms);
  network.compute_routes();

  // Stub forwarder: everything at `a` goes out on link `id`.
  struct Stub final : MulticastForwarder {
    LinkId link;
    NodeId origin;
    void route(NodeId node, const Packet&, std::vector<LinkId>& out, bool& local) override {
      if (node == origin) out.push_back(link);
      local = false;
    }
  } stub;
  stub.link = id;
  stub.origin = a;
  network.set_multicast_forwarder(&stub);

  Packet p = data_packet(1000);
  p.multicast = true;
  p.group = GroupAddr{7, 2};
  network.send_multicast(p);
  simulation.run_until(1_s);
  const auto& stats = network.link(id).stats();
  EXPECT_EQ(stats.delivered_bytes.count(), 1000u);
  EXPECT_EQ(network.link(id).delivered_bytes_for_group(GroupAddr{7, 2}).count(), 1000u);
}

TEST_F(LinkFixture, ZeroBandwidthRejected) {
  EXPECT_THROW(network.add_link(a, b, tsim::units::BitsPerSec{0.0}, 1_ms), std::invalid_argument);
  EXPECT_THROW(network.add_link(a, b, tsim::units::BitsPerSec{-5.0}, 1_ms), std::invalid_argument);
}

}  // namespace
}  // namespace tsim::net
