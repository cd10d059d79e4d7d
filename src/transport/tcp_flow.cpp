#include "transport/tcp_flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

namespace tsim::transport {

namespace {
constexpr std::uint32_t kAckBytes = 40;
constexpr std::uint32_t kMssBytes = 1000;
constexpr double kInitialSsthreshPackets = 64.0;
/// RFC 6298 floor: survives queueing-delay RTT spikes.
constexpr sim::Time kMinRto = sim::Time::seconds(1);
}

TcpFlow::TcpFlow(sim::Simulation& simulation, net::Network& network,
                 transport::DemuxRegistry& demuxes, Config config)
    : simulation_{simulation},
      network_{network},
      config_{config},
      ssthresh_{kInitialSsthreshPackets} {
  // Receiver side: ACK every arriving segment of this flow.
  demuxes.at(config_.dst).add_handler(
      net::PacketKind::kTcpData, [this](const net::PacketRef& p) {
        if (p->src != config_.src || p->dst != config_.dst) return;
        const auto* segment = dynamic_cast<const TcpSegment*>(p->control.get());
        if (segment != nullptr && !segment->ack) on_data_at_receiver(*segment);
      });
  // Sender side: process ACKs.
  demuxes.at(config_.src).add_handler(
      net::PacketKind::kTcpAck, [this](const net::PacketRef& p) {
        if (p->src != config_.dst || p->dst != config_.src) return;
        const auto* segment = dynamic_cast<const TcpSegment*>(p->control.get());
        if (segment != nullptr && segment->ack) on_ack(segment->ack_seq);
      });
}

void TcpFlow::start() {
  simulation_.at(config_.start, [this]() {
    active_ = true;
    started_at_ = simulation_.now();
    maybe_send();
    arm_rto();
  });
}

double TcpFlow::mean_goodput_bps() const {
  const sim::Time end = finished_ ? completion_time_ : simulation_.now();
  const double elapsed = (end - started_at_).as_seconds();
  return elapsed <= 0.0 ? 0.0 : static_cast<double>(delivered_bytes_) * 8.0 / elapsed;
}

void TcpFlow::maybe_send() {
  if (!active_ || finished_ || simulation_.now() >= config_.stop) return;
  const std::uint64_t total_segments =
      config_.transfer_bytes == 0
          ? std::numeric_limits<std::uint64_t>::max()
          : (config_.transfer_bytes + kMssBytes - 1) / kMssBytes;
  while (next_seq_ - highest_acked_ < static_cast<std::uint64_t>(cwnd_) &&
         next_seq_ < total_segments) {
    send_segment(next_seq_, false);
    ++next_seq_;
  }
}

void TcpFlow::send_segment(std::uint64_t seq, bool retransmit) {
  auto payload = std::make_shared<TcpSegment>();
  payload->seq = seq;

  net::Packet packet;
  packet.kind = net::PacketKind::kTcpData;
  packet.size_bytes = kMssBytes;
  packet.src = config_.src;
  packet.dst = config_.dst;
  packet.control = std::move(payload);
  network_.send_unicast(packet);

  if (retransmit || seq < max_sent_) {
    ++retransmits_;
    sent_at_.erase(seq);  // do not RTT-sample retransmissions (Karn's rule)
  } else {
    sent_at_[seq] = simulation_.now();
    max_sent_ = seq + 1;
  }
}

void TcpFlow::on_data_at_receiver(const TcpSegment& segment) {
  if (segment.seq == rcv_next_) {
    ++rcv_next_;
    delivered_bytes_ += kMssBytes;
    // Drain any buffered out-of-order segments.
    auto it = out_of_order_.find(rcv_next_);
    while (it != out_of_order_.end()) {
      out_of_order_.erase(it);
      ++rcv_next_;
      delivered_bytes_ += kMssBytes;
      it = out_of_order_.find(rcv_next_);
    }
  } else if (segment.seq > rcv_next_) {
    out_of_order_[segment.seq] = true;
  }

  auto ack = std::make_shared<TcpSegment>();
  ack->ack = true;
  ack->ack_seq = rcv_next_;
  net::Packet packet;
  packet.kind = net::PacketKind::kTcpAck;
  packet.size_bytes = kAckBytes;
  packet.src = config_.dst;
  packet.dst = config_.src;
  packet.control = std::move(ack);
  network_.send_unicast(packet);
}

void TcpFlow::on_ack(std::uint64_t ack_seq) {
  if (finished_ || !active_) return;

  if (ack_seq > highest_acked_) {
    // New data acked: RTT sample from the newest acked segment.
    const auto it = sent_at_.find(ack_seq - 1);
    if (it != sent_at_.end()) {
      const sim::Time sample = simulation_.now() - it->second;
      if (!have_rtt_) {
        srtt_ = sample;
        rttvar_ = sim::Time::nanoseconds(sample.as_nanoseconds() / 2);
        have_rtt_ = true;
      } else {
        const auto err = std::abs((sample - srtt_).as_nanoseconds());
        rttvar_ = sim::Time::nanoseconds((3 * rttvar_.as_nanoseconds() + err) / 4);
        srtt_ = sim::Time::nanoseconds((7 * srtt_.as_nanoseconds() + sample.as_nanoseconds()) / 8);
      }
    }
    for (std::uint64_t s = highest_acked_; s < ack_seq; ++s) sent_at_.erase(s);

    const std::uint64_t newly_acked = ack_seq - highest_acked_;
    highest_acked_ = ack_seq;
    dup_acks_ = 0;

    if (in_recovery_ && ack_seq >= recovery_point_) {
      in_recovery_ = false;
      cwnd_ = ssthresh_;
    } else if (in_recovery_) {
      // NewReno partial ACK: the window had more than one hole — retransmit
      // the next missing segment immediately instead of stalling until RTO.
      send_segment(highest_acked_, true);
    } else {
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(newly_acked);  // slow start
      } else {
        cwnd_ += static_cast<double>(newly_acked) / cwnd_;  // AIMD increase
      }
    }

    const std::uint64_t total_segments =
        config_.transfer_bytes == 0
            ? std::numeric_limits<std::uint64_t>::max()
            : (config_.transfer_bytes + kMssBytes - 1) / kMssBytes;
    if (highest_acked_ >= total_segments) {
      finished_ = true;
      completion_time_ = simulation_.now();
      simulation_.cancel(rto_timer_);
      return;
    }
    arm_rto();
    maybe_send();
    return;
  }

  // Duplicate ACK.
  ++dup_acks_;
  if (dup_acks_ == 3 && !in_recovery_) {
    // Fast retransmit: halve, retransmit the missing segment.
    ssthresh_ = std::max(2.0, cwnd_ / 2.0);
    cwnd_ = ssthresh_;
    in_recovery_ = true;
    recovery_point_ = next_seq_;
    send_segment(highest_acked_, true);
    arm_rto();
  }
}

void TcpFlow::arm_rto() {
  simulation_.cancel(rto_timer_);
  sim::Time rto = kMinRto;
  if (have_rtt_) {
    const sim::Time computed = srtt_ + 4 * rttvar_;
    rto = std::max(rto, computed);
  }
  rto_timer_ = simulation_.after(rto, [this]() { on_rto(); });
}

void TcpFlow::on_rto() {
  if (finished_ || !active_ || simulation_.now() >= config_.stop) return;
  if (highest_acked_ >= next_seq_) {
    // Nothing outstanding; try to send and re-arm.
    maybe_send();
    arm_rto();
    return;
  }
  // Timeout: collapse to one segment and go back to the first unacked
  // segment (cumulative-ACK go-back-N restart).
  ssthresh_ = std::max(2.0, cwnd_ / 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  in_recovery_ = false;
  next_seq_ = highest_acked_;
  maybe_send();
  arm_rto();
}

}  // namespace tsim::transport
