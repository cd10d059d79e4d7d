#include "traffic/layered_source.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/simulation.hpp"

namespace tsim::traffic {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// One source at `src` multicasting over a fat, lossless link to `dst`, which
/// records per-layer receive counts, highest sequence numbers and distinct
/// emission instants.
struct Bench {
  explicit Bench(std::uint64_t seed = 7) : simulation{seed} {
    const net::LinkId link =
        network.add_link(src, dst, tsim::units::BitsPerSec{100e6}, 1_ms, 10000);
    network.compute_routes();
    forwarder.link = link;
    forwarder.origin = src;
    network.set_multicast_forwarder(&forwarder);
    network.set_local_sink(dst, [this](const net::PacketRef& p) {
      ++received[p->group.layer];
      max_seq[p->group.layer] = std::max(max_seq[p->group.layer], p->seq);
      emit_times[p->group.layer].insert(p->sent_at.as_nanoseconds());
    });
  }

  [[nodiscard]] LayeredSource::Config config(TrafficModel model) const {
    LayeredSource::Config cfg;
    cfg.session = 0;
    cfg.node = src;
    cfg.model = model;
    cfg.peak_to_mean = 3.0;
    return cfg;
  }

  struct CatchAll final : net::MulticastForwarder {
    net::LinkId link;
    net::NodeId origin;
    void route(net::NodeId node, const net::Packet&, std::vector<net::LinkId>& out,
               bool& local) override {
      if (node == origin) {
        out.push_back(link);
      } else {
        local = true;
      }
    }
  };

  sim::Simulation simulation;
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId dst{network.add_node("dst")};
  CatchAll forwarder;
  std::map<net::LayerId, int> received;
  std::map<net::LayerId, std::uint32_t> max_seq;
  std::map<net::LayerId, std::set<std::int64_t>> emit_times;  ///< distinct sent_at ns
};

struct SourceFixture : ::testing::Test {};

TEST_F(SourceFixture, CbrRatesMatchSpec) {
  Bench bench;
  LayeredSource source{bench.simulation, bench.network, bench.config(TrafficModel::kCbr)};
  source.start();
  bench.simulation.run_until(100_s);
  // Layer 1: 4 pps, layer 6: 128 pps; allow the startup stagger margin.
  EXPECT_NEAR(bench.received[1], 400, 8);
  EXPECT_NEAR(bench.received[2], 800, 8);
  EXPECT_NEAR(bench.received[6], 12800, 40);
}

TEST_F(SourceFixture, PacketsArriveInTrainsOfK) {
  Bench bench;
  LayeredSource source{bench.simulation, bench.network, bench.config(TrafficModel::kCbr)};
  source.start();
  bench.simulation.run_until(100_s);
  // Trains of one packet: every scheduler event stamps its packet with its
  // own sent_at, so a layer has as many distinct emission instants as packets.
  for (const auto& [layer, count] : bench.received) {
    const auto events = static_cast<int>(bench.emit_times[layer].size());
    EXPECT_NEAR(events, count, 1) << "layer " << int(layer);
  }
}

TEST_F(SourceFixture, SequenceNumbersAreDense) {
  Bench bench;
  auto cfg = bench.config(TrafficModel::kCbr);
  cfg.stop = 50_s;
  LayeredSource source{bench.simulation, bench.network, cfg};
  source.start();
  bench.simulation.run_until(51_s);  // every packet sent before the stop lands
  // No loss on a fat link: max seq == count-1 per layer.
  for (const auto& [layer, count] : bench.received) {
    EXPECT_EQ(bench.max_seq[layer], static_cast<std::uint32_t>(count - 1))
        << "layer " << int(layer);
    EXPECT_EQ(source.sent_packets(layer), static_cast<std::uint64_t>(count));
  }
}

TEST_F(SourceFixture, VbrMeanRateMatchesCbr) {
  Bench bench;
  LayeredSource source{bench.simulation, bench.network, bench.config(TrafficModel::kVbr)};
  source.start();
  bench.simulation.run_until(400_s);
  // E[n] = A per second; over 400 s layer 1 should be ~1600 packets.
  EXPECT_NEAR(bench.received[1], 1600, 160);
  EXPECT_NEAR(bench.received[3], 6400, 640);
}

TEST_F(SourceFixture, VbrIsBurstierThanCbr) {
  // Count per-second emissions for layer 1 and check the peak is near the
  // model's burst size P*A+1-P = 10 for P=3, A=4.
  Bench bench;
  LayeredSource source{bench.simulation, bench.network, bench.config(TrafficModel::kVbr)};
  source.start();
  std::map<std::int64_t, int> per_second;
  bench.network.set_local_sink(bench.dst, [&](const net::PacketRef& p) {
    if (p->group.layer == 1) {
      ++per_second[p->sent_at.as_nanoseconds() / 1'000'000'000];
    }
  });
  bench.simulation.run_until(300_s);
  int peak = 0;
  for (const auto& [sec, n] : per_second) peak = std::max(peak, n);
  EXPECT_GE(peak, 9);   // bursts occur
  EXPECT_LE(peak, 21);  // bounded by two adjacent bursts
}

TEST_F(SourceFixture, StopTimeHaltsEmission) {
  Bench bench;
  auto cfg = bench.config(TrafficModel::kCbr);
  cfg.stop = 10_s;
  LayeredSource source{bench.simulation, bench.network, cfg};
  source.start();
  bench.simulation.run_until(100_s);
  EXPECT_NEAR(bench.received[1], 40, 5);  // ~4 pps for 10 s
}

TEST_F(SourceFixture, VbrStopBoundaryIsStrict) {
  // Regression pin for the per-emit stop guard: a VBR interval schedules its
  // n packets up to a second ahead, so an interval straddling config.stop has
  // emits queued past the boundary. Those must be suppressed (strictly
  // now < stop), while packets of the straddling interval BEFORE the boundary
  // still flow — the final partial interval is not dropped wholesale.
  Bench bench;
  auto cfg = bench.config(TrafficModel::kVbr);
  cfg.stop = Time::milliseconds(10'500);
  LayeredSource source{bench.simulation, bench.network, cfg};
  sim::Time last_emit = sim::Time::zero();
  bool saw_late_window = false;
  bench.network.set_local_sink(bench.dst, [&](const net::PacketRef& p) {
    last_emit = std::max(last_emit, p->sent_at);
    // Traffic inside the final second before the stop proves the straddling
    // interval emitted its pre-boundary share.
    if (p->sent_at >= Time::milliseconds(9'500) && p->sent_at < cfg.stop) {
      saw_late_window = true;
    }
  });
  source.start();
  bench.simulation.run_until(100_s);
  EXPECT_LT(last_emit, cfg.stop);
  EXPECT_TRUE(saw_late_window);
  // Nothing emitted after the boundary: totals are frozen from stop onward.
  std::uint64_t total = 0;
  for (int l = 1; l <= cfg.layers.num_layers; ++l) {
    total += source.sent_packets(static_cast<net::LayerId>(l));
  }
  bench.simulation.run_until(200_s);
  std::uint64_t total_after = 0;
  for (int l = 1; l <= cfg.layers.num_layers; ++l) {
    total_after += source.sent_packets(static_cast<net::LayerId>(l));
  }
  EXPECT_EQ(total, total_after);
}

TEST_F(SourceFixture, DeterministicAcrossRuns) {
  // Two simulations with the same seed emit identical packet counts.
  const auto run_once = [](std::uint64_t seed) {
    Bench bench{seed};
    LayeredSource source{bench.simulation, bench.network, bench.config(TrafficModel::kVbr)};
    source.start();
    bench.simulation.run_until(60_s);
    int count = 0;
    for (const auto& [layer, n] : bench.received) count += n;
    return count;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));  // different seed, different bursts
}

}  // namespace
}  // namespace tsim::traffic
