// FaultInjector: link outages drop traffic deterministically, lossy windows
// thin it, flapping follows a golden transition timetable, and bad plans fail
// at construction, not mid-run.
#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace tsim::fault {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// chain: a -- b (duplex, 1 Mbps, 10 ms), unicast traffic a -> b.
struct InjectorFixture : ::testing::Test {
  sim::Simulation simulation{7};
  net::Network network{simulation};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};

  InjectorFixture() {
    network.add_duplex_link(a, b, tsim::units::BitsPerSec{1e6}, 10_ms);
    network.compute_routes();
  }

  net::Packet packet() const {
    net::Packet p;
    p.kind = net::PacketKind::kData;
    p.size_bytes = 500;
    p.src = a;
    p.dst = b;
    return p;
  }

  /// Sends one packet per `spacing` over [from, to).
  void send_stream(Time from, Time to, Time spacing) {
    for (Time t = from; t < to; t = t + spacing) {
      simulation.at(t, [this]() { network.send_unicast(packet()); });
    }
  }
};

TEST_F(InjectorFixture, LinkOutageBlocksDeliveryAndRepairRestoresIt) {
  int delivered = 0;
  network.set_local_sink(b, [&](const net::PacketRef&) { ++delivered; });

  FaultPlan plan;
  plan.link_outage("a", "b", 1_s, 2_s);
  FaultInjector injector{simulation, network, plan, {}};
  injector.start();

  send_stream(Time::zero(), 3_s, 100_ms);  // 10 packets per second
  simulation.run_until(4_s);

  // ~10 packets before the outage, ~10 after, ~10 dropped during it.
  EXPECT_GE(delivered, 18);
  EXPECT_LE(delivered, 22);
  EXPECT_EQ(injector.stats().link_down_transitions, 1u);
  EXPECT_EQ(injector.stats().link_up_transitions, 1u);
}

TEST_F(InjectorFixture, LinkDownDrainsQueuedPackets) {
  // Saturate the link so packets queue, then cut it: the queue must drain as
  // fault drops and the in-flight packet must not arrive.
  int delivered = 0;
  network.set_local_sink(b, [&](const net::PacketRef&) { ++delivered; });
  simulation.at(100_ms, [this]() {
    for (int i = 0; i < 20; ++i) network.send_unicast(packet());
  });

  FaultPlan plan;
  plan.link_down("a", "b", 110_ms);  // a few packets into the burst
  FaultInjector injector{simulation, network, plan, {}};
  injector.start();
  simulation.run_until(2_s);

  EXPECT_LT(delivered, 10);
  const net::Link& ab = network.link(network.links_between(a, b)[0]);
  EXPECT_GT(ab.stats().fault_dropped_packets, 0u);
  EXPECT_EQ(ab.queue_length(), 0u);
}

TEST_F(InjectorFixture, LossyWindowThinsTraffic) {
  int delivered = 0;
  network.set_local_sink(b, [&](const net::PacketRef&) { ++delivered; });

  FaultPlan plan;
  plan.link_lossy("a", "b", 0.5, Time::zero(), 10_s);
  FaultInjector injector{simulation, network, plan, {}};
  injector.start();

  send_stream(Time::zero(), 10_s, 10_ms);  // 1000 packets
  simulation.run_until(11_s);

  // Bernoulli(0.5) over 1000 trials: far from both 0 and 1000.
  EXPECT_GT(delivered, 400);
  EXPECT_LT(delivered, 600);
  // Window closed: subsequent traffic is clean.
  const int at_window_end = delivered;
  send_stream(11_s, 12_s, 10_ms);
  simulation.run_until(13_s);
  EXPECT_EQ(delivered - at_window_end, 100);
}

TEST_F(InjectorFixture, LossyWindowDropsArePinned) {
  // Two lossy windows on one link: the second continues the link's fault
  // stream where the first left off. The counts were recorded when every
  // link forked its fault stream at construction; forking it on first use
  // must draw the same sequence.
  int delivered = 0;
  network.set_local_sink(b, [&](const net::PacketRef&) { ++delivered; });

  FaultPlan plan;
  plan.link_lossy("a", "b", 0.3, 1_s, 4_s);
  plan.link_lossy("a", "b", 0.6, 6_s, 8_s);
  FaultInjector injector{simulation, network, plan, {}};
  injector.start();

  send_stream(Time::zero(), 10_s, 10_ms);  // 1000 packets, 500 in the windows
  simulation.run_until(11_s);

  const net::LinkStats stats = network.link(0).stats();
  EXPECT_EQ(stats.fault_dropped_packets, 205u);
  EXPECT_EQ(stats.dropped_packets, 205u);
  EXPECT_EQ(delivered, 795);
}

TEST_F(InjectorFixture, FlapFollowsGoldenTransitionTimeline) {
  // flap [10, 25) s, period 10 s, duty 0.5: down@10, up@15, down@20, and the
  // final restore at the window end 25 (the up@25 inside the last cycle is
  // subsumed). Sample link state between every transition.
  FaultPlan plan;
  plan.link_flap("a", "b", 10_s, 25_s, 10_s, 0.5);
  FaultInjector injector{simulation, network, plan, {}};
  injector.start();

  const net::Link& ab = network.link(network.links_between(a, b)[0]);
  std::vector<std::pair<double, bool>> samples;
  for (const double t : {9.0, 11.0, 14.0, 16.0, 19.0, 21.0, 24.0, 26.0}) {
    simulation.at(Time::seconds(t), [&samples, &ab, t]() { samples.emplace_back(t, ab.is_up()); });
  }
  simulation.run_until(30_s);

  const std::vector<std::pair<double, bool>> golden{{9.0, true},  {11.0, false}, {14.0, false},
                                                    {16.0, true}, {19.0, true},  {21.0, false},
                                                    {24.0, false}, {26.0, true}};
  EXPECT_EQ(samples, golden);
  EXPECT_EQ(injector.stats().link_down_transitions, 2u);
  EXPECT_EQ(injector.stats().link_up_transitions, 2u);
}

TEST_F(InjectorFixture, SuggestionDropFilterDropsOnlySuggestions) {
  int data = 0;
  int suggestions = 0;
  network.set_local_sink(b, [&](const net::PacketRef& p) {
    if (p->kind == net::PacketKind::kSuggestion) {
      ++suggestions;
    } else {
      ++data;
    }
  });

  FaultPlan plan;
  plan.drop_suggestions(1.0, Time::zero(), 10_s);
  FaultInjector injector{simulation, network, plan, {}};
  injector.start();

  for (int i = 0; i < 5; ++i) {
    simulation.at(Time::seconds(1 + i), [this]() {
      network.send_unicast(packet());
      net::Packet s = packet();
      s.kind = net::PacketKind::kSuggestion;
      network.send_unicast(s);
    });
  }
  simulation.run_until(8_s);

  EXPECT_EQ(data, 5);
  EXPECT_EQ(suggestions, 0);
  EXPECT_EQ(injector.stats().suggestions_dropped, 5u);
}

TEST_F(InjectorFixture, ConstructionRejectsBadPlans) {
  {
    FaultPlan plan;
    plan.link_down("a", "ghost", 1_s);
    EXPECT_THROW((FaultInjector{simulation, network, plan, {}}), std::invalid_argument);
  }
  {
    // A validation failure (inverted window), not a resolution failure.
    FaultPlan plan;
    plan.link_lossy("a", "b", 0.5, 10_s, 5_s);
    EXPECT_THROW((FaultInjector{simulation, network, plan, {}}), std::invalid_argument);
  }
  {
    // Controller events need a controller hook.
    FaultPlan plan;
    plan.controller_outage(1_s, 2_s);
    EXPECT_THROW((FaultInjector{simulation, network, plan, {}}), std::invalid_argument);
  }
  {
    // Nodes exist but no link connects them.
    net::NodeId c = network.add_node("c");
    (void)c;
    FaultPlan plan;
    plan.link_down("a", "c", 1_s);
    EXPECT_THROW((FaultInjector{simulation, network, plan, {}}), std::invalid_argument);
  }
}

}  // namespace
}  // namespace tsim::fault
