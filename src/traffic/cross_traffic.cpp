#include "traffic/cross_traffic.hpp"

#include <string>

namespace tsim::traffic {

namespace {

tsim::net::Packet unicast_packet(net::Network& network, net::NodeId src, net::NodeId dst,
                                 std::uint32_t size_bytes) {
  net::Packet p;
  p.uid = network.next_packet_uid();
  p.kind = net::PacketKind::kData;
  p.size_bytes = size_bytes;
  p.src = src;
  p.dst = dst;
  return p;
}

}  // namespace

CbrFlow::CbrFlow(sim::Simulation& simulation, net::Network& network, Config config)
    : simulation_{simulation},
      network_{network},
      config_{config},
      rng_{simulation.rng_stream("cbrflow/" + std::to_string(config.src) + "/" +
                                 std::to_string(config.dst))},
      emit_thunk_{this} {
  // 1/pps hoisted out of emit(): same division the per-packet path computed,
  // done once, so spacing draws stay bit-identical.
  const double pps = config_.rate_bps / (8.0 * config_.packet_size_bytes);
  period_s_ = 1.0 / pps;
}

void CbrFlow::start() {
  const sim::Time stagger = sim::Time::seconds(rng_.uniform(0.0, period_s_));
  simulation_.at(config_.start + stagger, emit_thunk_);
}

void CbrFlow::emit() {
  if (simulation_.now() >= config_.stop) return;
  network_.send_unicast(
      unicast_packet(network_, config_.src, config_.dst, config_.packet_size_bytes));
  ++sent_packets_;
  const double spacing = period_s_ * rng_.uniform(0.9, 1.1);
  simulation_.after(sim::Time::seconds(spacing), emit_thunk_);
}

}  // namespace tsim::traffic
