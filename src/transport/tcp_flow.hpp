#pragma once

#include <cstdint>
#include <map>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "transport/demux.hpp"

namespace tsim::transport {

/// A simplified TCP Reno sender/receiver pair riding the simulated network —
/// the substrate for the paper's §VI TCP-friendliness discussion. Implements
/// slow start, congestion avoidance (AIMD), fast retransmit on 3 duplicate
/// ACKs, and RTO-based recovery with an exponentially smoothed RTT estimate.
/// No SACK, no delayed ACKs, a fixed 1000-byte MSS, an initial ssthresh of
/// 64 segments and a 1 s RTO floor — the congestion behaviour is what matters
/// here, not wire fidelity.
class TcpFlow {
 public:
  struct Config {
    net::NodeId src{net::kInvalidNode};
    net::NodeId dst{net::kInvalidNode};
    sim::Time start{sim::Time::zero()};
    sim::Time stop{sim::Time::max()};
    /// Bytes to transfer; 0 = unbounded (a long-lived flow).
    std::uint64_t transfer_bytes{0};
  };

  /// Registers the receiver-side ACK generator on dst's demux.
  TcpFlow(sim::Simulation& simulation, net::Network& network,
          transport::DemuxRegistry& demuxes, Config config);

  void start();

  [[nodiscard]] double cwnd_packets() const { return cwnd_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] sim::Time completion_time() const { return completion_time_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// Mean goodput over the flow's active life so far.
  [[nodiscard]] double mean_goodput_bps() const;

 private:
  struct TcpSegment final : net::ControlPayload {
    std::uint64_t seq{0};   ///< segment index (not bytes)
    bool ack{false};
    std::uint64_t ack_seq{0};  ///< next expected segment (cumulative)
  };

  void maybe_send();
  void send_segment(std::uint64_t seq, bool retransmit);
  void on_ack(std::uint64_t ack_seq);
  void on_data_at_receiver(const TcpSegment& segment);
  void arm_rto();
  void on_rto();

  sim::Simulation& simulation_;
  net::Network& network_;
  Config config_;

  // Sender state.
  double cwnd_{1.0};
  double ssthresh_;
  std::uint64_t next_seq_{0};       ///< next segment to send (rewound on RTO)
  std::uint64_t max_sent_{0};       ///< highest segment ever sent + 1
  std::uint64_t highest_acked_{0};  ///< all segments below this are acked
  int dup_acks_{0};
  bool in_recovery_{false};
  std::uint64_t recovery_point_{0};
  sim::Time srtt_{};
  sim::Time rttvar_{};
  bool have_rtt_{false};
  std::map<std::uint64_t, sim::Time> sent_at_;  ///< unacked send times
  sim::EventId rto_timer_{};
  sim::Time started_at_{};
  bool active_{false};
  bool finished_{false};
  sim::Time completion_time_{};
  std::uint64_t retransmits_{0};

  // Receiver state.
  std::uint64_t rcv_next_{0};
  std::map<std::uint64_t, bool> out_of_order_;
  std::uint64_t delivered_bytes_{0};
};

}  // namespace tsim::transport
