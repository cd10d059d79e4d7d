#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "traffic/cross_traffic.hpp"

namespace tsim::net {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

struct RedFixture : ::testing::Test {
  sim::Simulation simulation{43};
  Network network{simulation};
  NodeId a{network.add_node("a")};
  NodeId b{network.add_node("b")};
  LinkId link{};

  void build(double bps, std::size_t queue, bool red) {
    link = network.add_link(a, b, tsim::units::BitsPerSec{bps}, 10_ms, queue);
    network.add_link(b, a, tsim::units::BitsPerSec{bps}, 10_ms, queue);
    network.compute_routes();
    if (red) network.link(link).enable_red();
  }

  void offer(double rate_bps, Time duration) {
    traffic::CbrFlow::Config cfg;
    cfg.src = a;
    cfg.dst = b;
    cfg.rate_bps = rate_bps;
    traffic::CbrFlow flow{simulation, network, cfg};
    flow.start();
    simulation.run_until(duration);
  }
};

TEST_F(RedFixture, NoEarlyDropsWhenUnderloaded) {
  build(1e6, 50, true);
  offer(300e3, 60_s);  // 30% load: queue stays near empty
  EXPECT_EQ(network.link(link).stats().dropped_packets, 0u);
}

TEST_F(RedFixture, EarlyDropsBeforeQueueFull) {
  build(200e3, 50, true);
  offer(300e3, 60_s);  // 150% load
  const auto& stats = network.link(link).stats();
  EXPECT_GT(stats.dropped_packets, 0u);
  // RED keeps the average queue between the thresholds rather than pinned at
  // the tail: the EWMA should sit below ~80% of the limit.
  EXPECT_LT(network.link(link).red_average_queue(), 0.8 * 50);
}

TEST_F(RedFixture, DropTailFillsQueueCompletely) {
  build(200e3, 50, false);
  offer(300e3, 60_s);
  // Under the same overload, drop-tail rides with a full queue.
  EXPECT_GT(network.link(link).queue_length(), 40u);
}

TEST_F(RedFixture, RedKeepsQueueShorter) {
  // Same load, two disciplines: RED's standing queue is much shorter.
  build(200e3, 50, true);
  offer(300e3, 60_s);
  const auto red_queue = network.link(link).queue_length();

  sim::Simulation sim2{43};
  Network net2{sim2};
  const NodeId a2 = net2.add_node();
  const NodeId b2 = net2.add_node();
  const LinkId l2 = net2.add_link(a2, b2, tsim::units::BitsPerSec{200e3}, 10_ms, 50);
  net2.add_link(b2, a2, tsim::units::BitsPerSec{200e3}, 10_ms, 50);
  net2.compute_routes();
  traffic::CbrFlow::Config cfg;
  cfg.src = a2;
  cfg.dst = b2;
  cfg.rate_bps = 300e3;
  traffic::CbrFlow flow{sim2, net2, cfg};
  flow.start();
  sim2.run_until(60_s);

  EXPECT_LT(red_queue, net2.link(l2).queue_length());
}

TEST_F(RedFixture, IdleDecayShrinksAverageQueue) {
  // Floyd/Jacobson idle handling: the EWMA only updates on arrivals, so
  // after an idle period the stale average must be decayed as if the queue
  // had drained one packet per transmission slot.
  build(200e3, 50, true);
  traffic::CbrFlow::Config burst_cfg;
  burst_cfg.src = a;
  burst_cfg.dst = b;
  burst_cfg.rate_bps = 300e3;  // 150% load for 30s builds the average up
  burst_cfg.stop = 30_s;
  traffic::CbrFlow burst{simulation, network, burst_cfg};
  burst.start();
  simulation.run_until(30_s);
  const double busy_avg = network.link(link).red_average_queue();
  ASSERT_GT(busy_avg, 1.0);

  // Two idle minutes (the queue drains, no arrivals touch the EWMA)...
  simulation.run_until(150_s);
  EXPECT_DOUBLE_EQ(network.link(link).red_average_queue(), busy_avg);  // stale until an arrival

  // ...then a single trickle arrival: the decay collapses the average.
  traffic::CbrFlow::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 8e3;  // one 1000-byte packet per second
  cfg.start = 150_s;
  cfg.stop = 152_s;
  traffic::CbrFlow flow{simulation, network, cfg};
  flow.start();
  simulation.run_until(152_s);
  EXPECT_LT(network.link(link).red_average_queue(), 0.05 * busy_avg);
}

TEST_F(RedFixture, NoSpuriousDropsAfterIdle) {
  // Without idle decay, the stale average can sit above min_threshold and
  // early-drop the first packets of a new burst on an empty queue.
  build(200e3, 50, true);
  traffic::CbrFlow::Config burst_cfg;
  burst_cfg.src = a;
  burst_cfg.dst = b;
  burst_cfg.rate_bps = 300e3;
  burst_cfg.stop = 30_s;
  traffic::CbrFlow burst{simulation, network, burst_cfg};
  burst.start();
  simulation.run_until(150_s);
  const auto drops_before = network.link(link).stats().dropped_packets;

  traffic::CbrFlow::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 100e3;  // 50% load: must sail through untouched
  cfg.start = 150_s;
  cfg.stop = 180_s;
  traffic::CbrFlow flow{simulation, network, cfg};
  flow.start();
  simulation.run_until(180_s);
  EXPECT_EQ(network.link(link).stats().dropped_packets, drops_before);
}

TEST_F(RedFixture, RedFlagAndAccessors) {
  build(1e6, 50, false);
  EXPECT_FALSE(network.link(link).red_enabled());
  network.link(link).enable_red();
  EXPECT_TRUE(network.link(link).red_enabled());
  EXPECT_DOUBLE_EQ(network.link(link).red_average_queue(), 0.0);
}

}  // namespace
}  // namespace tsim::net
