// Golden fingerprint of the fluid engine on a star wide enough that every
// group walk is split into tasks.
//
// Each group's tree walk is cut into independent tasks that may run on any
// worker. Every per-step write lands on per-link, per-(group, link) or
// per-member state, and a tree holds each link and member once, so any
// partition of one walk performs the same floating-point operations on the
// same cells. This test pins that claim: the complete observable state of a
// 4100-receiver star (every LinkHot counter, every per-(group, link) cell,
// each endpoint's totals and subscription timeline) must equal one constant,
// recorded before the walk was split, at every pool size.
//
// The workload: two VBR sessions share core->hub; session 1 starts late and
// stops early; a background flow crosses the bottleneck; some receivers start
// late and some leave mid-run, and the hub itself hosts one; a per-second
// loss rule moves every subscription, so a changed loss fraction anywhere
// shows in the timelines.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "sim/worker_pool.hpp"
#include "traffic/fluid_engine.hpp"
#include "traffic/fluid_source.hpp"
#include "transport/demux.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::traffic {
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

/// Hub fan-out: session 0's layer-1 span holds every receiver (4100 links,
/// five tasks with a short last one), session 1's every other receiver.
constexpr int kReceivers = 4100;

struct FluidStar {
  explicit FluidStar(std::size_t workers) : pool{workers} {}

  sim::WorkerPool pool;
  sim::Simulation simulation{11};
  net::Network network{simulation};
  mcast::MulticastRouter mcast{simulation, network};
  transport::DemuxRegistry demuxes{network};
  std::vector<std::unique_ptr<FluidSource>> sources;
  std::vector<std::unique_ptr<transport::ReceiverEndpoint>> endpoints;
  std::vector<std::vector<std::pair<Time, int>>> timelines;

  std::uint64_t run() {
    const net::NodeId src0 = network.add_node("src0");
    const net::NodeId src1 = network.add_node("src1");
    const net::NodeId core = network.add_node("core");
    const net::NodeId hub = network.add_node("hub");
    network.add_duplex_link(src0, core, units::BitsPerSec{100e6}, 5_ms);
    network.add_duplex_link(src1, core, units::BitsPerSec{100e6}, 5_ms);
    network.add_duplex_link(core, hub, units::BitsPerSec{3e6}, 10_ms, 20);
    constexpr double kAccessBps[] = {256e3, 512e3, 1.2e6, 3e6};
    std::vector<net::NodeId> receivers;
    for (int i = 0; i < kReceivers; ++i) {
      receivers.push_back(network.add_node());
      network.add_duplex_link(hub, receivers.back(), units::BitsPerSec{kAccessBps[i % 4]},
                              10_ms, 10 + static_cast<std::size_t>(i % 3) * 10);
    }
    network.compute_routes();
    mcast.set_session_source(0, src0);
    mcast.set_session_source(1, src1);

    for (net::SessionId session : {0, 1}) {
      FluidSource::Config scfg;
      scfg.session = session;
      scfg.node = session == 0 ? src0 : src1;
      scfg.model = TrafficModel::kVbr;
      if (session == 1) {
        scfg.start = 3_s;
        scfg.stop = 13_s;
      }
      sources.push_back(std::make_unique<FluidSource>(simulation, scfg));
    }

    for (int i = 0; i < kReceivers; ++i) {
      for (net::SessionId session : {0, 1}) {
        if (session == 1 && i % 2 != 0) continue;
        transport::ReceiverEndpoint::Config rcfg;
        rcfg.node = receivers[i];
        rcfg.session = session;
        rcfg.initial_subscription = 1 + (i + session) % 6;
        if (i % 17 == 5) rcfg.start = 4_s;
        if (i % 13 == 0) rcfg.stop = 9_s;
        add_endpoint(rcfg);
      }
    }
    // The hub hosts a receiver as well, so the node whose span is split also
    // delivers locally.
    transport::ReceiverEndpoint::Config hub_cfg;
    hub_cfg.node = hub;
    hub_cfg.session = 0;
    hub_cfg.initial_subscription = 6;
    add_endpoint(hub_cfg);

    FluidEngine::Config ecfg;
    FluidEngine engine{simulation, network, mcast, pool, ecfg};
    for (const auto& source : sources) engine.add_source(source.get());
    for (const auto& endpoint : endpoints) {
      engine.register_sink(endpoint->config().node, endpoint.get());
    }
    engine.add_background_flow(src1, receivers[3], units::BitsPerSec{1.5e6}, 2_s, 11_s);

    engine.start();
    for (const auto& endpoint : endpoints) endpoint->start();
    schedule_loss_rule(1500_ms);
    simulation.run_until(15_s);

    std::uint64_t h = kFnvOffset;
    fold(h, engine.steps_executed());
    for (net::LinkId id = 0; id < network.link_count(); ++id) {
      const net::LinkHot& hot = network.link_hot(id);
      fold(h, hot.enqueued_packets);
      fold(h, hot.enqueued_bytes);
      fold(h, hot.delivered_packets);
      fold(h, hot.delivered_bytes);
      fold(h, hot.dropped_packets);
      fold(h, hot.dropped_bytes);
      for (std::uint32_t g = 0; g < network.group_stats_count(); ++g) {
        fold(h, network.group_delivered_cell(g, id));
        fold(h, network.group_dropped_cell(g, id));
      }
    }
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      const transport::ReceiverEndpoint& rx = *endpoints[i];
      fold(h, rx.total_bytes().count());
      fold(h, rx.total_packets().count());
      fold(h, rx.total_lost_packets().count());
      fold(h, rx.last_completed_window().received_packets.count());
      fold(h, rx.last_completed_window().lost_packets.count());
      fold(h, static_cast<std::uint64_t>(rx.subscription()));
      for (const auto& [when, level] : timelines[i]) {
        fold(h, static_cast<std::uint64_t>(when.as_nanoseconds()));
        fold(h, static_cast<std::uint64_t>(level));
      }
    }
    return h;
  }

  void add_endpoint(const transport::ReceiverEndpoint::Config& rcfg) {
    endpoints.push_back(std::make_unique<transport::ReceiverEndpoint>(
        simulation, network, mcast, demuxes.at(rcfg.node), rcfg));
    timelines.emplace_back();
    endpoints.back()->on_subscription_change(
        [this, index = timelines.size() - 1](Time when, int, int level) {
          timelines[index].emplace_back(when, level);
        });
  }

  /// Once a second, after each report window closes: a receiver whose last
  /// window lost more than 5 % drops a layer, one that lost nothing adds a
  /// layer on every third try.
  void schedule_loss_rule(Time when) {
    simulation.at(when, [this, when] {
      const auto second = static_cast<std::size_t>(when.as_nanoseconds() / 1'000'000'000);
      for (std::size_t i = 0; i < endpoints.size(); ++i) {
        transport::ReceiverEndpoint& rx = *endpoints[i];
        if (!rx.active()) continue;
        const double loss = rx.last_completed_window().loss_rate().value();
        if (loss > 0.05 && rx.subscription() > 1) {
          rx.set_subscription(rx.subscription() - 1);
        } else if (loss == 0.0 && (i + second) % 3 == 0) {
          rx.set_subscription(rx.subscription() + 1);
        }
      }
      schedule_loss_rule(when + 1_s);
    });
  }
};

class FluidParallelGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FluidParallelGoldenTest, StarFingerprintPinned) {
  const std::uint64_t got = FluidStar{GetParam()}.run();
  // Recorded with the single-threaded walk, before it was split into tasks.
  constexpr std::uint64_t kGolden = 0x6a736a431975e5beull;
  EXPECT_EQ(got, kGolden) << "fluid star fingerprint changed: 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, FluidParallelGoldenTest, ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<std::size_t>& pool_size) {
                           return std::to_string(pool_size.param) + "Workers";
                         });

}  // namespace
}  // namespace tsim::traffic
