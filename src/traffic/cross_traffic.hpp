#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace tsim::traffic {

/// Unicast constant-bit-rate cross-traffic — the "transient non-conforming
/// flow" of the paper's §III/§V. TopoSense must adapt when such a flow takes
/// a cut of a bottleneck link, and must recover (via the periodic capacity
/// re-estimation) when it stops.
class CbrFlow {
 public:
  struct Config {
    net::NodeId src{net::kInvalidNode};
    net::NodeId dst{net::kInvalidNode};
    double rate_bps{256e3};
    std::uint32_t packet_size_bytes{1000};
    sim::Time start{sim::Time::zero()};
    sim::Time stop{sim::Time::max()};
  };

  CbrFlow(sim::Simulation& simulation, net::Network& network, Config config);

  void start();

  [[nodiscard]] std::uint64_t sent_packets() const { return sent_packets_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void emit();

  /// Pre-bound reschedule callback: an 8-byte trivially-copyable functor
  /// built once at construction, so every per-packet reschedule copies it
  /// straight into the scheduler's inline slot storage instead of capturing
  /// a fresh lambda (and re-deriving the packet period) per packet.
  struct EmitThunk {
    CbrFlow* flow;
    void operator()() const { flow->emit(); }
  };

  sim::Simulation& simulation_;
  net::Network& network_;
  Config config_;
  sim::Rng rng_;
  EmitThunk emit_thunk_;
  double period_s_{0.0};  ///< seconds per packet at the configured rate
  std::uint64_t sent_packets_{0};
};

}  // namespace tsim::traffic
