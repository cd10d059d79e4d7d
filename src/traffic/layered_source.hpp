#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "traffic/layer_spec.hpp"

namespace tsim::traffic {

enum class TrafficModel : std::uint8_t {
  kCbr,  ///< constant bit rate: evenly spaced packets per layer
  kVbr,  ///< the Gopalakrishnan et al. on/off model the paper uses
};

/// One per-interval draw of the paper's VBR process: the packets n a layer
/// averaging `avg_pps` (A) sends in one one-second interval at peak-to-mean
/// ratio P. n = max(round(P*A + 1 - P), 1) with probability 1/P, else n = 1,
/// so E[n] = A. Consumes exactly one Bernoulli draw from `rng`; the packet
/// and fluid sources both draw their trajectories here, each on its own
/// stream.
[[nodiscard]] long vbr_interval_packets(double avg_pps, double peak_to_mean, sim::Rng& rng);

/// A layered multicast video source (hierarchical source model, McCanne et
/// al.). Every layer of the session is transmitted on its own multicast group
/// continuously; receivers adapt by joining/leaving groups — the source never
/// adapts.
///
/// Each scheduler event emits one packet. CBR packets are one packet period
/// apart; VBR follows the paper exactly: per one-second interval a layer sends
/// the n packets of vbr_interval_packets, spread evenly across the second.
/// n_min is 1 in the paper's formulation.
class LayeredSource {
 public:
  struct Config {
    net::SessionId session{0};
    net::NodeId node{net::kInvalidNode};
    LayerSpec layers{};
    TrafficModel model{TrafficModel::kCbr};
    double peak_to_mean{3.0};  ///< P, used by VBR only (paper studies 3 and 6)
    sim::Time start{sim::Time::zero()};
    sim::Time stop{sim::Time::max()};
  };

  LayeredSource(sim::Simulation& simulation, net::Network& network, Config config);

  /// Begins transmission at config.start.
  void start();

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t sent_packets(net::LayerId layer) const {
    return sent_packets_[layer - 1];
  }

 private:
  void schedule_cbr_layer(net::LayerId layer);
  void schedule_vbr_interval(net::LayerId layer);
  void emit(net::LayerId layer);

  sim::Simulation& simulation_;
  net::Network& network_;
  Config config_;
  sim::Rng rng_;
  std::vector<std::uint32_t> next_seq_;
  std::vector<std::uint64_t> sent_packets_;
  /// packets_per_second(layer), precomputed once — the formula calls pow(),
  /// which is far too slow to re-evaluate on every emitted packet.
  std::vector<double> pps_by_layer_;
};

}  // namespace tsim::traffic
