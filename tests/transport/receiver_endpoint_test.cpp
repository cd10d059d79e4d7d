#include "transport/receiver_endpoint.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mcast/multicast_router.hpp"
#include "sim/simulation.hpp"
#include "traffic/layered_source.hpp"
#include "transport/control_messages.hpp"
#include "transport/demux.hpp"

namespace tsim::transport {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// src --(link under test)-- rcv, plus a controller node hanging off src.
struct EndpointFixture : ::testing::Test {
  sim::Simulation simulation{11};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId rcv{network.add_node("rcv")};
  mcast::MulticastRouter mcast{simulation, network, {500_ms}};
  DemuxRegistry demuxes{network};

  std::vector<ReceiverReport> reports_at_src;

  EndpointFixture() {
    mcast.set_session_source(0, src);
    demuxes.at(src).add_handler(net::PacketKind::kReport, [this](const net::PacketRef& p) {
      const auto* r = dynamic_cast<const ReceiverReport*>(p->control.get());
      if (r != nullptr) reports_at_src.push_back(*r);
    });
  }

  void add_link(double bps, std::size_t queue = 30) {
    network.add_duplex_link(src, rcv, tsim::units::BitsPerSec{bps}, 20_ms, queue);
    network.compute_routes();
  }

  std::unique_ptr<ReceiverEndpoint> make_endpoint(int initial = 1) {
    ReceiverEndpoint::Config cfg;
    cfg.node = rcv;
    cfg.session = 0;
    cfg.controller = src;
    cfg.report_period = 1_s;
    cfg.initial_subscription = initial;
    return std::make_unique<ReceiverEndpoint>(simulation, network, mcast, demuxes.at(rcv), cfg);
  }

  std::unique_ptr<traffic::LayeredSource> make_source() {
    traffic::LayeredSource::Config cfg;
    cfg.session = 0;
    cfg.node = src;
    cfg.model = traffic::TrafficModel::kCbr;
    return std::make_unique<traffic::LayeredSource>(simulation, network, cfg);
  }
};

TEST_F(EndpointFixture, SubscriptionJoinsGroups) {
  add_link(10e6);
  auto endpoint = make_endpoint(2);
  endpoint->start();
  simulation.run_until(100_ms);
  EXPECT_TRUE(mcast.is_member(rcv, net::GroupAddr{0, 1}));
  EXPECT_TRUE(mcast.is_member(rcv, net::GroupAddr{0, 2}));
  EXPECT_FALSE(mcast.is_member(rcv, net::GroupAddr{0, 3}));
  EXPECT_EQ(endpoint->subscription(), 2);
}

TEST_F(EndpointFixture, SetSubscriptionClampsToValidRange) {
  add_link(10e6);
  auto endpoint = make_endpoint(1);
  endpoint->start();
  simulation.run_until(100_ms);
  endpoint->set_subscription(99);
  EXPECT_EQ(endpoint->subscription(), 6);
  endpoint->set_subscription(-5);
  EXPECT_EQ(endpoint->subscription(), 0);
}

TEST_F(EndpointFixture, ReceivesBytesOnFatLink) {
  add_link(10e6);
  auto source = make_source();
  auto endpoint = make_endpoint(3);
  source->start();
  endpoint->start();
  simulation.run_until(30_s);
  // 3 layers = 224 Kbps = 28 KB/s.
  EXPECT_NEAR(static_cast<double>(endpoint->total_bytes().count()), 28e3 * 30, 28e3 * 2);
  EXPECT_NEAR(endpoint->lifetime_loss_rate().value(), 0.0, 1e-9);
}

TEST_F(EndpointFixture, DetectsLossOnThinLink) {
  add_link(128e3, 5);  // can carry ~1.5 layers; subscription of 3 overloads it
  auto source = make_source();
  auto endpoint = make_endpoint(3);
  source->start();
  endpoint->start();
  simulation.run_until(60_s);
  EXPECT_GT(endpoint->lifetime_loss_rate().value(), 0.2);
  EXPECT_GT(endpoint->total_lost_packets().count(), 100u);
}

TEST_F(EndpointFixture, ReportsArriveAtController) {
  add_link(10e6);
  auto source = make_source();
  auto endpoint = make_endpoint(2);
  source->start();
  endpoint->start();
  simulation.run_until(Time::seconds(10.5));
  ASSERT_GE(reports_at_src.size(), 9u);
  const ReceiverReport& r = reports_at_src.back();
  EXPECT_EQ(r.receiver, rcv);
  EXPECT_EQ(r.session, 0);
  EXPECT_EQ(r.subscription, 2);
  EXPECT_GT(r.bytes_received.count(), 0u);
  EXPECT_DOUBLE_EQ(r.loss_rate.value(), 0.0);
  // Report seq increments.
  EXPECT_GT(reports_at_src.back().report_seq, reports_at_src.front().report_seq);
}

TEST_F(EndpointFixture, LossRateAppearsInReports) {
  add_link(128e3, 5);
  auto source = make_source();
  auto endpoint = make_endpoint(4);
  source->start();
  endpoint->start();
  simulation.run_until(30_s);
  ASSERT_FALSE(reports_at_src.empty());
  double max_loss = 0.0;
  for (const auto& r : reports_at_src) max_loss = std::max(max_loss, r.loss_rate.value());
  EXPECT_GT(max_loss, 0.2);
}

TEST_F(EndpointFixture, SuggestionsReachCallback) {
  add_link(10e6);
  auto endpoint = make_endpoint(1);
  endpoint->start();
  int suggested = -1;
  endpoint->on_suggestion([&](const Suggestion& s) { suggested = s.subscription; });

  auto payload = std::make_shared<Suggestion>();
  payload->receiver = rcv;
  payload->session = 0;
  payload->subscription = 4;
  net::Packet p;
  p.kind = net::PacketKind::kSuggestion;
  p.size_bytes = kSuggestionPacketBytes;
  p.src = src;
  p.dst = rcv;
  p.control = payload;
  simulation.at(1_s, [&]() { network.send_unicast(p); });
  simulation.run_until(2_s);
  EXPECT_EQ(suggested, 4);
}

TEST_F(EndpointFixture, SuggestionForOtherReceiverIgnored) {
  add_link(10e6);
  auto endpoint = make_endpoint(1);
  endpoint->start();
  int calls = 0;
  endpoint->on_suggestion([&](const Suggestion&) { ++calls; });

  auto payload = std::make_shared<Suggestion>();
  payload->receiver = src;  // someone else
  payload->session = 0;
  net::Packet p;
  p.kind = net::PacketKind::kSuggestion;
  p.size_bytes = kSuggestionPacketBytes;
  p.src = src;
  p.dst = rcv;
  p.control = payload;
  simulation.at(1_s, [&]() { network.send_unicast(p); });
  simulation.run_until(2_s);
  EXPECT_EQ(calls, 0);
}

TEST_F(EndpointFixture, SubscriptionChangeCallbackFires) {
  add_link(10e6);
  auto endpoint = make_endpoint(1);
  std::vector<std::pair<int, int>> changes;
  endpoint->on_subscription_change(
      [&](Time, int from, int to) { changes.emplace_back(from, to); });
  endpoint->start();
  simulation.run_until(100_ms);
  endpoint->set_subscription(3);
  endpoint->set_subscription(3);  // no-op, must not fire
  endpoint->set_subscription(2);
  ASSERT_EQ(changes.size(), 3u);  // 0->1 (start), 1->3, 3->2
  EXPECT_EQ(changes[0], (std::pair{0, 1}));
  EXPECT_EQ(changes[1], (std::pair{1, 3}));
  EXPECT_EQ(changes[2], (std::pair{3, 2}));
}

TEST_F(EndpointFixture, MidWindowLayerDropFoldsGapLossIntoWindow) {
  // Thin link under a 3-layer subscription: drop-tail loss accrues on every
  // layer. Dropping to 1 layer mid-window must fold the departing layers'
  // sequence-gap loss into the current window — the buggy code wiped the
  // tracks, so loss vanished exactly when the receiver backed off.
  add_link(128e3, 5);  // can carry ~1.5 layers; subscription of 3 overloads it
  auto source = make_source();
  auto endpoint = make_endpoint(3);
  source->start();
  endpoint->start();
  simulation.run_until(Time::seconds(10.5));  // mid-window: last close at 10s
  ASSERT_EQ(endpoint->window().lost_packets.count(), 0u)
      << "window loss is only folded at window close / layer leave";
  endpoint->set_subscription(1);  // leave layers 3 and 2 mid-window
  EXPECT_GT(endpoint->window().lost_packets.count(), 0u)
      << "gap loss accrued on the dropped layers this window was discarded";
}

TEST_F(EndpointFixture, StopClosesFinalWindowAndReportsItsLoss) {
  // Stop mid-window: the final partial window must be closed (and reported)
  // before the receiver leaves its groups — the buggy order cleared every
  // track first, silently discarding the last window's loss.
  add_link(128e3, 5);
  auto source = make_source();
  ReceiverEndpoint::Config cfg;
  cfg.node = rcv;
  cfg.session = 0;
  cfg.controller = src;
  cfg.report_period = 1_s;
  cfg.initial_subscription = 3;
  cfg.stop = Time::seconds(10.5);
  auto endpoint = std::make_unique<ReceiverEndpoint>(simulation, network, mcast,
                                                     demuxes.at(rcv), cfg);
  source->start();
  endpoint->start();
  simulation.run_until(12_s);

  ASSERT_FALSE(reports_at_src.empty());
  const ReceiverReport& last = reports_at_src.back();
  EXPECT_EQ(last.window_end, Time::seconds(10.5))
      << "no report was sent for the final partial window";
  EXPECT_GT(last.lost_packets.count(), 0u)
      << "the final window's loss was discarded at stop";
  // The folded loss also reaches the lifetime totals.
  EXPECT_EQ(endpoint->last_completed_window().lost_packets, last.lost_packets);
}

TEST_F(EndpointFixture, RejoinResetsSequenceTracking) {
  add_link(10e6);
  auto source = make_source();
  auto endpoint = make_endpoint(2);
  source->start();
  endpoint->start();
  simulation.run_until(5_s);
  endpoint->set_subscription(1);  // drop layer 2
  simulation.run_until(20_s);     // seq of layer 2 keeps advancing at source
  endpoint->set_subscription(2);  // rejoin
  simulation.run_until(40_s);
  // The seq jump while away must not be counted as loss.
  EXPECT_NEAR(endpoint->lifetime_loss_rate().value(), 0.0, 0.01);
}

}  // namespace
}  // namespace tsim::transport
