#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "traffic/layered_source.hpp"

namespace tsim::traffic {

/// The fluid-approximation counterpart of LayeredSource: instead of emitting
/// one scheduler event per packet, it exposes the per-layer rate trajectory
/// and lets traffic::FluidEngine integrate it once per step.
///
/// CBR layers are flat at LayerSpec::layer_rate. VBR reproduces the paper's
/// on/off process at its native granularity: per one-second interval a layer
/// carries the n packets of vbr_interval_packets, so the layer's rate during
/// that interval is n * packet_size * 8 bps. The draws come from a dedicated
/// stream ("fluid-source/<session>") and are consumed strictly in
/// (interval, layer) order, so trajectories are deterministic and
/// independent of how the engine interleaves queries across sources.
///
/// Deliberate divergence from the packet model: the per-layer start stagger
/// and the +/-10% spacing jitter vanish — both are sub-interval phase effects
/// a rate trajectory cannot represent (see docs/performance.md).
class FluidSource {
 public:
  using Config = LayeredSource::Config;

  FluidSource(sim::Simulation& simulation, Config config);

  /// Rate of `layer` during the one-second interval containing `when`.
  /// `when` must be non-decreasing across calls (the engine integrates
  /// forward); VBR draws advance one interval at a time so skipped intervals
  /// still consume their draws.
  [[nodiscard]] units::BitsPerSec layer_rate(net::LayerId layer, sim::Time when);

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void advance_to_interval(std::int64_t index);

  Config config_;
  sim::Rng rng_;
  std::vector<double> pps_by_layer_;
  /// Packets in the current one-second interval, per layer (VBR only).
  std::vector<double> interval_packets_;
  std::int64_t current_interval_{-1};
};

}  // namespace tsim::traffic
