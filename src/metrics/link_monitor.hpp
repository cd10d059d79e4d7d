#pragma once

#include <vector>

#include "core/units.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace tsim::metrics {

/// Samples a link's delivered throughput and drop rate per period — the
/// simulator-side ground truth the benches compare the algorithm's estimates
/// against.
class LinkMonitor {
 public:
  struct Sample {
    sim::Time at{};
    units::BitsPerSec throughput{};
    double drop_rate{0.0};       ///< dropped / enqueued in the period
    std::size_t queue_length{0};
  };

  LinkMonitor(sim::Simulation& simulation, net::Network& network, net::LinkId link,
              sim::Time period)
      : simulation_{simulation}, network_{network}, link_{link}, period_{period} {}

  void start() {
    const net::LinkStats stats = network_.link(link_).stats();
    last_delivered_bytes_ = stats.delivered_bytes;
    last_enqueued_ = stats.enqueued_packets;
    last_dropped_ = stats.dropped_packets;
    simulation_.after(period_, [this]() { sample(); });
  }

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

  /// Mean utilization (delivered / capacity) across all samples.
  [[nodiscard]] double mean_utilization() const {
    if (samples_.empty()) return 0.0;
    units::BitsPerSec total = units::BitsPerSec::zero();
    for (const Sample& s : samples_) total += s.throughput;
    return total / static_cast<double>(samples_.size()) / network_.link(link_).bandwidth();
  }

 private:
  void sample() {
    const net::LinkStats stats = network_.link(link_).stats();
    Sample s;
    s.at = simulation_.now();
    s.throughput = (stats.delivered_bytes - last_delivered_bytes_) / period_;
    const auto enq = stats.enqueued_packets - last_enqueued_;
    const auto drop = stats.dropped_packets - last_dropped_;
    s.drop_rate = enq == 0 ? 0.0 : static_cast<double>(drop) / static_cast<double>(enq);
    s.queue_length = network_.link(link_).queue_length();
    samples_.push_back(s);
    last_delivered_bytes_ = stats.delivered_bytes;
    last_enqueued_ = stats.enqueued_packets;
    last_dropped_ = stats.dropped_packets;
    simulation_.after(period_, [this]() { sample(); });
  }

  sim::Simulation& simulation_;
  net::Network& network_;
  net::LinkId link_;
  sim::Time period_;
  units::Bytes last_delivered_bytes_{};
  std::uint64_t last_enqueued_{0};
  std::uint64_t last_dropped_{0};
  std::vector<Sample> samples_;
};

}  // namespace tsim::metrics
