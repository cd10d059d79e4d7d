// Packet conservation properties of the forwarding substrate: every packet a
// link accepts is either delivered downstream or counted as dropped; nothing
// is silently created or lost.
#include <gtest/gtest.h>

#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "traffic/layered_source.hpp"

namespace tsim::net {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

class ConservationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationProperty, LinkCountersBalance) {
  sim::Simulation simulation{GetParam()};
  Network network{simulation};
  const NodeId src = network.add_node("src");
  const NodeId r = network.add_node("r");
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  // Narrow middle link forces drops; receivers on fat access links.
  network.add_duplex_link(src, r, tsim::units::BitsPerSec{200e3}, 100_ms, 8);
  network.add_duplex_link(r, a, tsim::units::BitsPerSec{10e6}, 50_ms, 8);
  network.add_duplex_link(r, b, tsim::units::BitsPerSec{10e6}, 50_ms, 8);
  network.compute_routes();

  mcast::MulticastRouter mcast{simulation, network, {}};
  mcast.set_session_source(0, src);
  mcast.join(a, GroupAddr{0, 1});
  mcast.join(a, GroupAddr{0, 2});
  mcast.join(a, GroupAddr{0, 3});
  mcast.join(b, GroupAddr{0, 1});

  traffic::LayeredSource::Config scfg;
  scfg.session = 0;
  scfg.node = src;
  scfg.model = traffic::TrafficModel::kVbr;
  scfg.stop = 60_s;  // stop emitting, then drain the queues below
  traffic::LayeredSource source{simulation, network, scfg};

  std::uint64_t received_a = 0;
  std::uint64_t received_b = 0;
  network.set_local_sink(a, [&](const PacketRef&) { ++received_a; });
  network.set_local_sink(b, [&](const PacketRef&) { ++received_b; });

  source.start();
  simulation.run_until(60_s);
  // Drain in-flight packets: the source stopped being interesting; let the
  // queues flush.
  simulation.run_until(70_s);

  for (LinkId id = 0; id < network.link_count(); ++id) {
    const LinkStats stats = network.link(id).stats();
    // Everything enqueued is eventually delivered or dropped (transmitter
    // can hold at most one in-flight packet, flushed by the drain above).
    EXPECT_EQ(stats.enqueued_packets, stats.delivered_packets + stats.dropped_packets)
        << "link " << id;
  }

  // Receivers cannot get more than the source sent.
  std::uint64_t sent = 0;
  for (int l = 1; l <= 6; ++l) sent += source.sent_packets(static_cast<LayerId>(l));
  EXPECT_LE(received_a + received_b, 2 * sent);
  EXPECT_GT(received_a, 0u);
  EXPECT_GT(received_b, 0u);

  // The narrow link did drop under a 3-layer load of 224 Kbps on 200 Kbps.
  const LinkStats bottleneck = network.link(0).stats();
  EXPECT_GT(bottleneck.dropped_packets, 0u);
}

TEST_P(ConservationProperty, PerGroupBytesSumToTotal) {
  sim::Simulation simulation{GetParam()};
  Network network{simulation};
  const NodeId src = network.add_node("src");
  const NodeId dst = network.add_node("dst");
  const LinkId link = network.add_link(src, dst, tsim::units::BitsPerSec{10e6}, 10_ms, 100);
  network.compute_routes();

  mcast::MulticastRouter mcast{simulation, network, {}};
  mcast.set_session_source(0, src);
  for (int l = 1; l <= 4; ++l) {
    mcast.join(dst, GroupAddr{0, static_cast<LayerId>(l)});
  }

  traffic::LayeredSource::Config scfg;
  scfg.session = 0;
  scfg.node = src;
  traffic::LayeredSource source{simulation, network, scfg};
  source.start();
  simulation.run_until(30_s);

  const LinkStats stats = network.link(link).stats();
  std::uint64_t by_group = 0;
  for (std::uint32_t gid = 0; gid < network.group_stats_count(); ++gid) {
    by_group += network.group_delivered_cell(gid, link);
  }
  EXPECT_EQ(by_group, stats.delivered_bytes.count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty, ::testing::Values(1u, 17u, 333u));

}  // namespace
}  // namespace tsim::net
