#include "traffic/layered_source.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace tsim::traffic {

long vbr_interval_packets(double avg_pps, double peak_to_mean, sim::Rng& rng) {
  const double p = std::max(1.0, peak_to_mean);  // P
  if (!rng.bernoulli(1.0 / p)) return 1;
  return std::max(std::lround(p * avg_pps + 1.0 - p), 1L);
}

LayeredSource::LayeredSource(sim::Simulation& simulation, net::Network& network, Config config)
    : simulation_{simulation},
      network_{network},
      config_{config},
      rng_{simulation.rng_stream("source/" + std::to_string(config.session))},
      next_seq_(static_cast<std::size_t>(config.layers.num_layers), 0),
      sent_packets_(static_cast<std::size_t>(config.layers.num_layers), 0) {
  pps_by_layer_.reserve(static_cast<std::size_t>(config_.layers.num_layers));
  for (int l = 1; l <= config_.layers.num_layers; ++l) {
    pps_by_layer_.push_back(config_.layers.packets_per_second(static_cast<net::LayerId>(l)));
  }
}

void LayeredSource::start() {
  for (int l = 1; l <= config_.layers.num_layers; ++l) {
    const auto layer = static_cast<net::LayerId>(l);
    // Random per-layer phase so layers (and sessions) do not emit in lockstep
    // — real encoders are not clock-synchronized across the Internet.
    const sim::Time stagger = sim::Time::seconds(rng_.uniform(
        0.0, config_.model == TrafficModel::kCbr ? 0.25 : 1.0));
    simulation_.at(config_.start + stagger, [this, layer]() {
      if (config_.model == TrafficModel::kCbr) {
        schedule_cbr_layer(layer);
      } else {
        schedule_vbr_interval(layer);
      }
    });
  }
}

void LayeredSource::emit(net::LayerId layer) {
  net::Packet packet;
  packet.uid = network_.next_packet_uid();
  packet.kind = net::PacketKind::kData;
  packet.size_bytes = config_.layers.packet_size_bytes;
  packet.src = config_.node;
  packet.multicast = true;
  packet.group = net::GroupAddr{config_.session, layer};
  packet.seq = next_seq_[layer - 1]++;
  ++sent_packets_[layer - 1];
  sent_bytes_total_ += packet.size_bytes;
  network_.send_multicast(packet);
}

void LayeredSource::schedule_cbr_layer(net::LayerId layer) {
  if (simulation_.now() >= config_.stop) return;
  emit(layer);
  // +/-10% spacing jitter (mean-preserving): without it, a layer whose packet
  // period exactly matches a link's service time phase-locks with the
  // transmitter and captures the whole drop-tail queue — an artifact real,
  // unsynchronized senders do not exhibit.
  const double spacing = (1.0 / pps_by_layer_[layer - 1]) * rng_.uniform(0.9, 1.1);
  simulation_.after(sim::Time::seconds(spacing),
                    [this, layer]() { schedule_cbr_layer(layer); });
}

void LayeredSource::schedule_vbr_interval(net::LayerId layer) {
  if (simulation_.now() >= config_.stop) return;

  const long n = vbr_interval_packets(pps_by_layer_[layer - 1], config_.peak_to_mean, rng_);

  // The n packets of this one-second interval are spread evenly across it;
  // burstiness lives at the seconds scale, as in the source model the paper
  // cites.
  const double spacing = 1.0 / static_cast<double>(n);
  for (long i = 0; i < n; ++i) {
    simulation_.after(sim::Time::seconds(spacing * static_cast<double>(i)), [this, layer]() {
      if (simulation_.now() < config_.stop) emit(layer);
    });
  }
  simulation_.after(sim::Time::seconds(1),
                    [this, layer]() { schedule_vbr_interval(layer); });
}

}  // namespace tsim::traffic
