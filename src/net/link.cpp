#include "net/link.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "net/network.hpp"

namespace tsim::net {

namespace {
/// RED parameters; the thresholds are fractions of the queue limit.
constexpr double kRedMinThresholdFrac = 0.25;
constexpr double kRedMaxThresholdFrac = 0.75;
constexpr double kRedMaxDropProbability = 0.1;
constexpr double kRedQueueWeight = 0.02;  ///< EWMA weight for the average queue length
}  // namespace

Link::Link(sim::Simulation& simulation, Network& network, LinkId id, NodeId from)
    : simulation_{simulation},
      network_{network},
      id_{id},
      from_{from},
      red_rng_{simulation.rng_stream("link/" + std::to_string(id))},
      fault_rng_{simulation.rng_stream("fault-loss/" + std::to_string(id))} {}

LinkHot& Link::hot() const { return network_.link_hot(id_); }

NodeId Link::to() const { return network_.link_params(id_).to; }

units::BitsPerSec Link::bandwidth() const { return network_.link_params(id_).bandwidth; }

sim::Time Link::latency() const { return network_.link_params(id_).latency; }

std::size_t Link::queue_limit() const { return hot().queue_limit; }

bool Link::red_enabled() const { return (hot().flags & LinkHot::kRed) != 0; }

void Link::enable_red() {
  red_avg_ = 0.0;
  hot().flags |= LinkHot::kRed;
}

bool Link::is_up() const { return (hot().flags & LinkHot::kUp) != 0; }

bool Link::transmitting() const { return (hot().flags & LinkHot::kTransmitting) != 0; }

units::Bytes Link::transmitting_bytes() const { return units::Bytes{hot().transmitting_bytes}; }

void Link::set_fault_loss(double probability) {
  fault_loss_ = probability;
  if (probability > 0.0) {
    hot().flags |= LinkHot::kFaultLoss;
  } else {
    hot().flags &= static_cast<std::uint8_t>(~LinkHot::kFaultLoss);
  }
}

std::uint32_t Link::group_stats_index(const Packet& packet) const {
  if (packet.group_stats_id != kInvalidGroupStatsId) return packet.group_stats_id;
  return network_.intern_group(packet.group);
}

units::Bytes Link::delivered_bytes_for_group(GroupAddr group) const {
  const std::uint32_t id = network_.find_group_id(group);
  if (id == kInvalidGroupStatsId || id >= network_.group_stats_count()) {
    return units::Bytes::zero();
  }
  return units::Bytes{network_.group_delivered_cell(id, id_)};
}

std::uint64_t Link::dropped_packets_for_group(GroupAddr group) const {
  const std::uint32_t id = network_.find_group_id(group);
  if (id == kInvalidGroupStatsId || id >= network_.group_stats_count()) return 0;
  return network_.group_dropped_cell(id, id_);
}

LinkStats Link::stats() const {
  const LinkHot& h = hot();
  return LinkStats{.enqueued_packets = h.enqueued_packets,
                   .enqueued_bytes = units::Bytes{h.enqueued_bytes},
                   .delivered_packets = h.delivered_packets,
                   .delivered_bytes = units::Bytes{h.delivered_bytes},
                   .dropped_packets = h.dropped_packets,
                   .dropped_bytes = units::Bytes{h.dropped_bytes},
                   .fault_dropped_packets = fault_dropped_packets_};
}

void Link::corrupt_accounting_for_test() {
  LinkHot& h = hot();
  h.delivered_packets += 1;
  h.delivered_bytes += 100;
}

void Link::count_drop(const Packet& packet, bool fault) {
  LinkHot& h = hot();
  ++h.dropped_packets;
  h.dropped_bytes += packet.size_bytes;
  if (fault) ++fault_dropped_packets_;
  if (packet.multicast) {
    ++network_.group_dropped_cell(group_stats_index(packet), id_);
  }
}

void Link::set_up(bool up) {
  LinkHot& h = hot();
  if (up == ((h.flags & LinkHot::kUp) != 0)) return;
  if (up) {
    h.flags |= LinkHot::kUp;
    return;
  }
  h.flags &= static_cast<std::uint8_t>(~LinkHot::kUp);
  // The cut loses everything waiting for the transmitter. The packet being
  // transmitted (if any) fails in Network::on_tx_complete; packets already
  // propagating were past the cut and still arrive downstream.
  while (!queue_.empty()) {
    count_drop(*queue_.front(), /*fault=*/true);
    queue_.pop_front();
  }
  h.queue_len = 0;
  queued_bytes_ = units::Bytes::zero();
}

void Link::enqueue_slow(const PacketRef& packet) {
  LinkHot& h = hot();
  if ((h.flags & LinkHot::kUp) == 0) {
    count_drop(*packet, /*fault=*/true);
    return;
  }
  if (fault_loss_ > 0.0 && fault_rng_.bernoulli(fault_loss_)) {
    count_drop(*packet, /*fault=*/true);
    return;
  }

  if ((h.flags & LinkHot::kRed) != 0) {
    // Idle-time decay (Floyd/Jacobson §4): arrivals stop while the link is
    // idle, so the EWMA would otherwise freeze at its last (possibly high)
    // value and spuriously early-drop the first packets of a new burst.
    // Decay by the number of packets that *could* have been transmitted
    // during the idle period, as if each had sampled an empty queue.
    if ((h.flags & LinkHot::kTransmitting) == 0 && queue_.empty() && red_avg_ > 0.0) {
      const double slot_s = transmission_time(packet->size_bytes).as_seconds();
      const double idle_s = (simulation_.now() - idle_since_).as_seconds();
      if (slot_s > 0.0 && idle_s > 0.0) {
        red_avg_ *= std::pow(1.0 - kRedQueueWeight, idle_s / slot_s);
      }
    }
    // EWMA of the instantaneous queue length, updated per arrival.
    red_avg_ = (1.0 - kRedQueueWeight) * red_avg_ +
               kRedQueueWeight * static_cast<double>(queue_.size());
    const double min_th = kRedMinThresholdFrac * static_cast<double>(h.queue_limit);
    const double max_th = kRedMaxThresholdFrac * static_cast<double>(h.queue_limit);
    bool early_drop = false;
    if (red_avg_ >= max_th) {
      early_drop = true;
    } else if (red_avg_ > min_th) {
      const double p = kRedMaxDropProbability * (red_avg_ - min_th) / (max_th - min_th);
      early_drop = red_rng_.bernoulli(p);
    }
    if (early_drop) {
      count_drop(*packet, /*fault=*/false);
      return;
    }
  }

  if ((h.flags & LinkHot::kTransmitting) == 0) {
    network_.start_transmission(id_, packet);
    return;
  }
  if (queue_.size() >= h.queue_limit) {
    count_drop(*packet, /*fault=*/false);
    return;
  }
  ++h.queue_len;
  push_queue(packet);
}

}  // namespace tsim::net
