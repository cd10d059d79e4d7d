#include "traffic/cross_traffic.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace tsim::traffic {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

struct CrossTrafficFixture : ::testing::Test {
  sim::Simulation simulation{17};
  net::Network network{simulation};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  std::uint64_t received_bytes{0};
  int received_packets{0};

  CrossTrafficFixture() {
    network.add_duplex_link(a, b, tsim::units::BitsPerSec{10e6}, 10_ms, 200);
    network.compute_routes();
    network.set_local_sink(b, [this](const net::PacketRef& p) {
      received_bytes += p->size_bytes;
      ++received_packets;
    });
  }
};

TEST_F(CrossTrafficFixture, CbrFlowDeliversConfiguredRate) {
  CbrFlow::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 256e3;  // 32 pps at 1000 B
  CbrFlow flow{simulation, network, cfg};
  flow.start();
  simulation.run_until(100_s);
  const double rate = received_bytes * 8.0 / 100.0;
  EXPECT_NEAR(rate, 256e3, 256e2);
  // At the horizon the last packet may still be in flight.
  EXPECT_LE(flow.sent_packets() - static_cast<std::uint64_t>(received_packets), 1u);
}

TEST_F(CrossTrafficFixture, CbrFlowRespectsStartAndStop) {
  CbrFlow::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 80e3;  // 10 pps
  cfg.start = 10_s;
  cfg.stop = 20_s;
  CbrFlow flow{simulation, network, cfg};
  flow.start();
  simulation.run_until(5_s);
  EXPECT_EQ(received_packets, 0);
  simulation.run_until(100_s);
  // ~10 s of 10 pps.
  EXPECT_NEAR(received_packets, 100, 15);
}

}  // namespace
}  // namespace tsim::traffic
