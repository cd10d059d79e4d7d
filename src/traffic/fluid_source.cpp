#include "traffic/fluid_source.hpp"

#include <string>

namespace tsim::traffic {

FluidSource::FluidSource(sim::Simulation& simulation, Config config)
    : config_{config},
      rng_{simulation.rng_stream("fluid-source/" + std::to_string(config.session))},
      interval_packets_(static_cast<std::size_t>(config.layers.num_layers), 0.0) {
  pps_by_layer_.reserve(static_cast<std::size_t>(config_.layers.num_layers));
  for (int l = 1; l <= config_.layers.num_layers; ++l) {
    pps_by_layer_.push_back(config_.layers.packets_per_second(static_cast<net::LayerId>(l)));
  }
}

units::BitsPerSec FluidSource::layer_rate(net::LayerId layer, sim::Time when) {
  if (config_.model == TrafficModel::kCbr) {
    return config_.layers.layer_rate(layer);
  }
  advance_to_interval(when.as_nanoseconds() / 1'000'000'000);
  const double packets = interval_packets_[static_cast<std::size_t>(layer - 1)];
  return units::BitsPerSec{packets * static_cast<double>(config_.layers.packet_size_bytes) * 8.0};
}

void FluidSource::advance_to_interval(std::int64_t index) {
  // One draw per (interval, layer), always in order: the trajectory is a pure
  // function of the interval index regardless of engine step size.
  while (current_interval_ < index) {
    ++current_interval_;
    for (std::size_t l = 0; l < interval_packets_.size(); ++l) {
      interval_packets_[l] = static_cast<double>(
          vbr_interval_packets(pps_by_layer_[l], config_.peak_to_mean, rng_));
    }
  }
}

}  // namespace tsim::traffic
