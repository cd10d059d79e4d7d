// Golden fingerprint of the delivery datapath on a small topology.
//
// The fan-out hot path (multicast route -> link enqueue -> transmit ->
// arrival -> demux) is being migrated from per-object state to dense
// struct-of-arrays. The migration must be observationally invisible: every
// counter, every drop, every report must land exactly as before. This test
// pins the complete observable state of a small mixed workload (fan-out,
// tail drops, a mid-run back-off, a receiver stop, reverse-path reports) to
// a fingerprint recorded on the per-object layout. Any layout change that
// perturbs delivery order, drop decisions, or stats accounting fails here
// long before the scale bench or the e2e baseline would notice.
//
// A second case does the same for the fluid engine: every LinkHot counter,
// every per-(group, link) cell, and each endpoint's totals and subscription
// timeline, recorded while the engine kept its credit state in per-group
// hash maps.
//
// If this test fails after an INTENTIONAL behaviour change (not a layout
// change), re-record: run with --gtest_also_run_disabled_tests and copy the
// printed fingerprint, noting the behaviour change in the commit message.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/topology_file.hpp"
#include "sim/simulation.hpp"
#include "traffic/layered_source.hpp"
#include "transport/demux.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::net {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

/// src -- r (fat); r -- a (thin, tail-drops under 3 layers); r -- b (mid).
/// Receiver at a subscribes 3 layers and stops at 45 s; receiver at b starts
/// at 2 layers and backs off to 1 at 20 s (exercising the leave-latency
/// forward window). Reports flow back to src over the same links.
struct GoldenFixture {
  sim::Simulation simulation{42};
  Network network{simulation};
  NodeId src{network.add_node("src")};
  NodeId r{network.add_node("r")};
  NodeId a{network.add_node("a")};
  NodeId b{network.add_node("b")};
  mcast::MulticastRouter mcast{simulation, network, {1_s}};
  transport::DemuxRegistry demuxes{network};

  GoldenFixture() {
    network.add_duplex_link(src, r, units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, a, units::BitsPerSec{128e3}, 20_ms, 5);
    network.add_duplex_link(r, b, units::BitsPerSec{256e3}, 20_ms, 8);
    network.compute_routes();
    mcast.set_session_source(0, src);
  }

  std::uint64_t run() {
    traffic::LayeredSource::Config scfg;
    scfg.session = 0;
    scfg.node = src;
    scfg.model = traffic::TrafficModel::kCbr;
    traffic::LayeredSource source{simulation, network, scfg};

    transport::ReceiverEndpoint::Config acfg;
    acfg.node = a;
    acfg.session = 0;
    acfg.controller = src;
    acfg.initial_subscription = 3;
    acfg.stop = Time::seconds(45);
    transport::ReceiverEndpoint rx_a{simulation, network, mcast, demuxes.at(a), acfg};

    transport::ReceiverEndpoint::Config bcfg;
    bcfg.node = b;
    bcfg.session = 0;
    bcfg.controller = src;
    bcfg.initial_subscription = 2;
    transport::ReceiverEndpoint rx_b{simulation, network, mcast, demuxes.at(b), bcfg};

    source.start();
    rx_a.start();
    rx_b.start();
    simulation.at(20_s, [&rx_b]() { rx_b.set_subscription(1); });
    simulation.run_until(60_s);

    std::uint64_t h = kFnvOffset;
    // Per-link counters in LinkId order: the full conservation ledger plus
    // the per-group breakdown for every interned group.
    for (LinkId id = 0; id < network.link_count(); ++id) {
      const LinkStats s = network.link(id).stats();
      fold(h, s.enqueued_packets);
      fold(h, s.enqueued_bytes.count());
      fold(h, s.delivered_packets);
      fold(h, s.delivered_bytes.count());
      fold(h, s.dropped_packets);
      fold(h, s.dropped_bytes.count());
      fold(h, network.link(id).queue_length());
      for (std::uint32_t g = 0; g < network.group_stats_count(); ++g) {
        const GroupAddr group = network.group_stats_key(g);
        fold(h, network.link(id).delivered_bytes_for_group(group).count());
        fold(h, network.link(id).dropped_packets_for_group(group));
      }
    }
    // Receiver observables: totals plus the per-window loss accounting.
    for (const transport::ReceiverEndpoint* rx : {&rx_a, &rx_b}) {
      fold(h, rx->total_bytes().count());
      fold(h, rx->total_packets().count());
      fold(h, rx->total_lost_packets().count());
      fold(h, rx->last_completed_window().received_packets.count());
      fold(h, rx->last_completed_window().lost_packets.count());
      fold(h, static_cast<std::uint64_t>(rx->subscription()));
    }
    // Tree shape for every group that still exists at the end.
    for (const GroupAddr group : mcast.active_groups()) {
      const mcast::GroupTree* tree = mcast.tree(group);
      if (tree == nullptr) continue;
      fold(h, tree->edges.size());
      for (const auto& [parent, child] : tree->edges) {
        fold(h, (static_cast<std::uint64_t>(parent) << 32) | child);
      }
    }
    return h;
  }
};

TEST(DeliveryGoldenTest, FingerprintPinnedAcrossLayoutChanges) {
  const std::uint64_t got = GoldenFixture{}.run();
  // Recorded on the per-object (heap-scattered) layout; the SoA layout must
  // reproduce it bit-for-bit.
  constexpr std::uint64_t kGolden = 0xda20927570477992ull;
  EXPECT_EQ(got, kGolden) << "delivery fingerprint changed: 0x" << std::hex << got;
}

TEST(DeliveryGoldenTest, FingerprintIsStableAcrossRuns) {
  EXPECT_EQ(GoldenFixture{}.run(), GoldenFixture{}.run());
}

/// The fluid datapath's counterpart: two VBR sessions share core->hub, a
/// background flow crosses it from 10 s to 50 s, receiver a stops at 40 s and
/// receiver c starts late at 25 s. The TopoSense closed loop drives every
/// subscription, so a changed loss fraction anywhere surfaces in the
/// timelines as well as in the credited counters.
std::uint64_t run_fluid_golden() {
  constexpr const char* kTopology =
      "node src0\nnode src1\nnode core\nnode hub\nnode a\nnode b\nnode c\n"
      "link src0 core 10Mbps 10ms\n"
      "link src1 core 10Mbps 10ms\n"
      "link core hub 1Mbps 20ms queue 20\n"
      "link hub a 512kbps 20ms queue 10\n"
      "link hub b 2Mbps 20ms\n"
      "link hub c 256kbps 20ms queue 8\n"
      "source 0 src0\nsource 1 src1\n"
      "receiver a 0 stop 40\n"
      "receiver b 0\n"
      "receiver b 1\n"
      "receiver c 1 start 25\n"
      "controller core\n"
      "traffic fluid\n";
  const scenarios::ParseResult parsed = scenarios::parse_topology(kTopology);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  if (!parsed.ok()) return 0;
  scenarios::ScenarioConfig config;
  config.seed = 42;
  config.duration = 60_s;
  config.traffic.model = traffic::TrafficModel::kVbr;
  auto scenario = scenarios::Scenario::from_description(config, *parsed.description);
  scenario->add_cross_traffic({"src1", "b", 300e3, 10_s, 50_s});
  scenario->run();

  const Network& network = scenario->network();
  std::uint64_t h = kFnvOffset;
  fold(h, scenario->fluid_engine()->steps_executed());
  for (LinkId id = 0; id < network.link_count(); ++id) {
    const LinkHot& hot = network.link_hot(id);
    fold(h, hot.enqueued_packets);
    fold(h, hot.enqueued_bytes);
    fold(h, hot.delivered_packets);
    fold(h, hot.delivered_bytes);
    fold(h, hot.dropped_packets);
    fold(h, hot.dropped_bytes);
    fold(h, hot.transmitting_bytes);
    fold(h, hot.queue_len);
    for (std::uint32_t g = 0; g < network.group_stats_count(); ++g) {
      fold(h, network.group_delivered_cell(g, id));
      fold(h, network.group_dropped_cell(g, id));
    }
  }
  for (std::size_t i = 0; i < scenario->endpoints().size(); ++i) {
    const transport::ReceiverEndpoint& rx = *scenario->endpoints()[i];
    fold(h, rx.total_bytes().count());
    fold(h, rx.total_packets().count());
    fold(h, rx.total_lost_packets().count());
    fold(h, static_cast<std::uint64_t>(rx.subscription()));
    for (const auto& [when, level] : scenario->result(i).timeline.points()) {
      fold(h, static_cast<std::uint64_t>(when.as_nanoseconds()));
      fold(h, static_cast<std::uint64_t>(level));
    }
  }
  return h;
}

TEST(DeliveryGoldenTest, FluidFingerprintPinnedAcrossLayoutChanges) {
  const std::uint64_t got = run_fluid_golden();
  // Recorded on the hash-map credit layout; the dense credit rows must
  // reproduce it bit-for-bit.
  constexpr std::uint64_t kGolden = 0xb5146a9dcff0fc6full;
  EXPECT_EQ(got, kGolden) << "fluid delivery fingerprint changed: 0x" << std::hex << got;
}

}  // namespace
}  // namespace tsim::net
