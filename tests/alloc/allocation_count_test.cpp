// Heap-allocation counts on the packet datapath and in per-node set-up. This
// binary replaces the global operator new with a counting one, so it holds
// only tests that read the count: the datapath and the event queue must not
// allocate per packet, and a link or a node's demux must not allocate before
// it is used.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "traffic/layered_source.hpp"
#include "transport/demux.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tsim::net {
namespace {

using namespace tsim::sim::time_literals;

std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

Packet data_packet(NodeId src, NodeId dst) {
  Packet p;
  p.kind = PacketKind::kData;
  p.size_bytes = 1000;
  p.src = src;
  p.dst = dst;
  return p;
}

TEST(AllocationCount, PacketsSentOneAtATimeDoNotAllocate) {
  // Each send finds the link idle, so it goes straight to the transmitter
  // and schedules its completion; that closure must be stored inline.
  sim::Simulation simulation{1};
  Network network{simulation};
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_link(a, b, units::BitsPerSec{8e6}, 10_ms);  // 1 ms per packet
  network.compute_routes();
  int delivered = 0;
  network.set_local_sink(b, [&delivered](const PacketRef&) { ++delivered; });

  const auto send_spaced = [&](int count) {
    for (int i = 0; i < count; ++i) {
      network.send_unicast(data_packet(a, b));
      simulation.run_until(simulation.now() + 20_ms);
    }
  };
  send_spaced(200);  // warm-up: packet pool, scheduler slots and buckets
  constexpr int kSends = 2000;
  const std::size_t before = allocations();
  send_spaced(kSends);
  const double per_send = static_cast<double>(allocations() - before) / kSends;
  EXPECT_EQ(delivered, 200 + kSends);
  EXPECT_LE(per_send, 0.1);
}

TEST(AllocationCount, VbrStarRunsWithoutAllocatingPerPacket) {
  // One VBR source multicasting every layer onto 25 access links (10 Mbps,
  // 5 ms, 64-packet queues): each burst fans out into same-timestamp events
  // and queues wait and drain. Once the run has seen its peak burst, the
  // event queue and the link rings reuse their capacity.
  sim::Simulation simulation{1};
  Network network{simulation};
  const NodeId src = network.add_node("src");
  std::vector<LinkId> links;
  for (int i = 0; i < 25; ++i) {
    links.push_back(network.add_link(src, network.add_node(), units::BitsPerSec{10e6}, 5_ms, 64));
  }
  network.compute_routes();
  struct Star final : MulticastForwarder {
    NodeId origin{kInvalidNode};
    const std::vector<LinkId>* links{nullptr};
    void route(NodeId node, const Packet&, std::vector<LinkId>& out, bool& local) override {
      if (node == origin) {
        out.insert(out.end(), links->begin(), links->end());
      } else {
        local = true;
      }
    }
  } forwarder;
  forwarder.origin = src;
  forwarder.links = &links;
  network.set_multicast_forwarder(&forwarder);
  std::uint64_t delivered = 0;
  for (const LinkId id : links) {
    network.set_local_sink(network.link(id).to(), [&delivered](const PacketRef&) { ++delivered; });
  }
  traffic::LayeredSource::Config cfg;
  cfg.node = src;
  cfg.model = traffic::TrafficModel::kVbr;
  traffic::LayeredSource source{simulation, network, cfg};
  source.start();
  const auto link_packets = [&] {
    std::uint64_t total = 0;
    for (const LinkId id : links) total += network.link(id).stats().enqueued_packets;
    return total;
  };

  simulation.run_until(30_s);  // warm-up
  const std::size_t before = allocations();
  const std::uint64_t packets_before = link_packets();
  simulation.run_until(90_s);
  const std::uint64_t packets = link_packets() - packets_before;
  ASSERT_GT(packets, 100'000u);
  EXPECT_GT(delivered, 0u);
  const double per_thousand =
      1000.0 * static_cast<double>(allocations() - before) / static_cast<double>(packets);
  EXPECT_LE(per_thousand, 5.0);
}

TEST(AllocationCount, LinkAllocatesNothingUntilAPacketWaits) {
  sim::Simulation simulation{1};
  Network network{simulation};
  const NodeId a = network.add_node("a");
  // Ids of 10,000 and more used to push the fault stream's label past the
  // inline string limit.
  const std::size_t before = allocations();
  Link link{simulation, network, LinkId{12'345}, a};
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(link.queue_length(), 0u);
}

TEST(AllocationCount, QueueRingGrowsOnlyAtANewPeak) {
  sim::Simulation simulation{1};
  Network network{simulation};
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const LinkId id = network.add_link(a, b, units::BitsPerSec{1e6}, 1_ms);
  Link& link = network.link(id);
  std::vector<PacketRef> packets;
  for (std::uint32_t i = 0; i < 40; ++i) {
    Packet p = data_packet(a, b);
    p.size_bytes = 100 + i;  // tags the FIFO position
    packets.push_back(PacketRef::make(std::move(p)));
  }
  const auto push = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) link.push_queue(packets[i]);
  };
  const auto pop_expect = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      EXPECT_EQ(link.pop_queue()->size_bytes, 100 + i);
    }
  };

  std::size_t before = allocations();
  push(0, 1);  // the first packet that waits allocates the ring
  EXPECT_EQ(allocations() - before, 1u);
  before = allocations();
  push(1, 6);
  pop_expect(0, 5);  // the head is now mid-ring
  push(6, 13);       // fills all 8 slots, wrapping around
  EXPECT_EQ(allocations() - before, 0u);
  before = allocations();
  push(13, 30);  // doubles while wrapped, twice
  EXPECT_EQ(allocations() - before, 2u);
  EXPECT_EQ(link.queue_length(), 25u);
  pop_expect(5, 30);
  before = allocations();
  push(0, 32);  // the ring kept its 32 slots: a burst of 32 fits as it is
  EXPECT_EQ(allocations() - before, 0u);
  pop_expect(0, 32);
  EXPECT_EQ(link.queue_length(), 0u);
  EXPECT_EQ(link.queued_bytes().count(), 0u);
}

TEST(AllocationCount, DemuxWithOneHandlerAllocatesOncePerNode) {
  sim::Simulation simulation{1};
  Network network{simulation};
  constexpr int kNodes = 2000;
  for (int i = 0; i < kNodes; ++i) network.add_node();
  transport::DemuxRegistry demuxes{network};
  int dispatched = 0;
  const std::size_t before = allocations();
  for (NodeId node = 0; node < kNodes; ++node) {
    demuxes.at(node).add_handler(PacketKind::kData,
                                 [&dispatched](const PacketRef&) { ++dispatched; });
  }
  const double per_node = static_cast<double>(allocations() - before) / kNodes;
  // The handler list, plus the registry's amortized growth.
  EXPECT_LE(per_node, 1.2);
}

}  // namespace
}  // namespace tsim::net
