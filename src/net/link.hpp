#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/hotpath.hpp"
#include "core/units.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace tsim::net {

class Network;

/// Hot per-link state: everything the no-drop datapath (enqueue -> transmit ->
/// deliver) reads or writes per packet, packed into one cache line. The
/// Network owns one dense LinkId-indexed array of these, so a 10k-receiver
/// fan-out sweeps a contiguous 640 KB table instead of chasing 10k
/// heap-scattered Link objects. Cold state (the queue ring, RED/fault
/// machinery, RNGs) stays on the Link and is only touched on the slow paths
/// gated by `flags`.
struct alignas(64) LinkHot {
  /// Datapath gate bits. The fast paths fire only on exact flag values:
  /// `kUp` (idle, healthy) and `kUp|kTransmitting` (busy, healthy); any other
  /// combination — down, RED, or fault-loss — detours to Link's slow path.
  static constexpr std::uint8_t kUp = 1U;
  static constexpr std::uint8_t kTransmitting = 2U;
  static constexpr std::uint8_t kRed = 4U;
  static constexpr std::uint8_t kFaultLoss = 8U;

  std::uint64_t enqueued_packets{0};
  std::uint64_t enqueued_bytes{0};
  std::uint64_t delivered_packets{0};
  std::uint64_t delivered_bytes{0};
  std::uint64_t dropped_packets{0};
  std::uint64_t dropped_bytes{0};
  std::uint32_t transmitting_bytes{0};  ///< size of the packet on the transmitter
  std::uint32_t queue_len{0};           ///< mirrors Link::queue_length()
  std::uint32_t queue_limit{0};
  std::uint8_t flags{kUp};
};
static_assert(sizeof(LinkHot) == 64, "LinkHot must stay one cache line");

/// Read-only per-link parameters for the fast datapath, dense by LinkId.
/// Written once at add_link; never touched again, so the array shares cleanly.
struct LinkParams {
  units::BitsPerSec bandwidth{};
  sim::Time latency{};
  NodeId to{kInvalidNode};
};

/// Serialization delay of one packet at `bandwidth`. Shared by Link and the
/// Network fast path so both compute bit-identical times.
[[nodiscard]] inline sim::Time transmission_time_for(std::uint32_t size_bytes,
                                                     units::BitsPerSec bandwidth) {
  const double seconds = units::Bytes{size_bytes}.bits() / bandwidth.bps();
  return sim::Time::seconds(seconds);
}

/// Fluid-model queue state for one link. In fluid mode data traffic carries
/// no packets, so this backlog lives beside — not inside — LinkHot (which is
/// pinned to one cache line): the real queue stays empty and control packets
/// traverse it normally. The backlog exists purely to time drop-tail
/// overflow onset; see fluid_queue_step.
struct FluidQueue {
  double backlog_bits{0.0};
};

/// Advances one link's fluid queue by `dt` under aggregate offered rate
/// `offered` against `capacity`, and returns the fraction of offered traffic
/// lost during the step (drop-tail overflow fraction).
///
/// The analytic drop-tail step: while offered <= capacity the backlog drains
/// at (capacity - offered) and nothing is lost. While offered > capacity the
/// backlog fills at (offered - capacity) until it hits the queue limit after
///   t_fill = (limit - backlog) / (offered - capacity);
/// for the remainder of the step the queue overflows, shedding
/// (offered - capacity) * (dt - t_fill) bits, i.e. a loss fraction of
/// overflow / (offered * dt). The queue is a pure accounting device here —
/// fluid traffic sees no queueing delay (documented divergence from the
/// packet model, docs/performance.md).
HOT_PATH [[nodiscard]] inline double fluid_queue_step(FluidQueue& queue,
                                                      units::BitsPerSec offered,
                                                      units::BitsPerSec capacity,
                                                      units::Bytes queue_limit, sim::Time dt) {
  const double dt_s = dt.as_seconds();
  const double rate = offered.bps();
  const double cap = capacity.bps();
  if (rate <= cap) {
    const double drained = (cap - rate) * dt_s;
    queue.backlog_bits = queue.backlog_bits > drained ? queue.backlog_bits - drained : 0.0;
    return 0.0;
  }
  const double limit_bits = queue_limit.bits();
  const double headroom = limit_bits - queue.backlog_bits;
  const double fill_time = headroom > 0.0 ? headroom / (rate - cap) : 0.0;
  if (fill_time >= dt_s) {
    queue.backlog_bits += (rate - cap) * dt_s;
    return 0.0;
  }
  queue.backlog_bits = limit_bits;
  const double overflow_bits = (rate - cap) * (dt_s - fill_time);
  return overflow_bits / (rate * dt_s);
}

/// Per-link counters. `delivered_*` counts packets that finished transmission
/// and were handed to the downstream node.
///
/// A snapshot assembled by Link::stats(): the live counters are the Network's
/// LinkHot entry, and only `fault_dropped_packets` (slow path only) lives on
/// the Link. Per-group ground truth stays in the Network's dense
/// per-(group,link) tables (Link::delivered_bytes_for_group,
/// Network::group_delivered_cell).
struct LinkStats {
  std::uint64_t enqueued_packets{0};
  units::Bytes enqueued_bytes{};
  std::uint64_t delivered_packets{0};
  units::Bytes delivered_bytes{};
  std::uint64_t dropped_packets{0};
  units::Bytes dropped_bytes{};
  std::uint64_t fault_dropped_packets{0};  ///< subset of drops caused by injected faults
};

/// A unidirectional link with finite bandwidth, fixed propagation latency and
/// a drop-tail FIFO queue — the queueing model the paper simulates in ns.
/// Transmission is serialized: one packet occupies the transmitter for
/// size*8/bandwidth seconds, then propagates for `latency` before arriving.
///
/// The per-packet state machine lives in Network (fast paths over the LinkHot
/// array); the Link keeps the queue storage and the slow paths (down links,
/// fault loss, RED) that the flag gate routes here. Parameters and counters
/// live only in the Network's LinkParams/LinkHot tables; the accessors below
/// read them there.
class Link {
 public:
  Link(sim::Simulation& simulation, Network& network, LinkId id, NodeId from);

  /// Switches the queue from drop-tail to Random Early Detection
  /// (Floyd/Jacobson; parameters in link.cpp). Call before traffic flows.
  /// Forks the link's RED stream, which nothing else draws from.
  void enable_red();
  [[nodiscard]] bool red_enabled() const;
  [[nodiscard]] double red_average_queue() const { return red_avg_; }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// --- Fault state (driven by fault::FaultInjector) ------------------------

  /// Takes the link down or brings it back up. Going down drains the queue
  /// (every queued packet is dropped) and fails the packet currently being
  /// transmitted; packets already propagating were past the cut and still
  /// arrive. While down the link accepts nothing. The caller is responsible
  /// for recomputing routes (Network::on_topology_changed).
  void set_up(bool up);
  [[nodiscard]] bool is_up() const;

  /// Bernoulli drop probability applied to every enqueue (0 disables). Draws
  /// come from the link's own seeded fault stream, so enabling loss on one
  /// link never perturbs any other component's randomness. The stream is
  /// forked from the seed the first time p > 0 and kept from then on.
  void set_fault_loss(double probability);

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] NodeId from() const { return from_; }
  [[nodiscard]] NodeId to() const;
  [[nodiscard]] units::BitsPerSec bandwidth() const;
  [[nodiscard]] sim::Time latency() const;
  [[nodiscard]] std::size_t queue_limit() const;
  [[nodiscard]] std::size_t queue_length() const { return queue_size_; }
  [[nodiscard]] bool transmitting() const;
  /// Counters as a coherent snapshot, read from the hot table on call.
  [[nodiscard]] LinkStats stats() const;

  /// Per-group counters by address (the dense tables are indexed by group id);
  /// 0 for groups this link never saw.
  [[nodiscard]] units::Bytes delivered_bytes_for_group(GroupAddr group) const;
  [[nodiscard]] std::uint64_t dropped_packets_for_group(GroupAddr group) const;

  /// --- Conservation accounting (audited by check::InvariantAuditor) --------
  /// Every packet offered to the link (stats().enqueued_*) is, at any instant,
  /// in exactly one of: delivered, dropped, waiting in the queue, or occupying
  /// the transmitter. Packets propagating after transmission count as
  /// delivered. The auditor checks
  ///   enqueued == delivered + dropped + queued + transmitting
  /// at both packet and byte granularity.
  [[nodiscard]] units::Bytes queued_bytes() const { return queued_bytes_; }
  [[nodiscard]] units::Bytes transmitting_bytes() const;

  /// Test-only: skips a byte credit (and a packet credit) so the conservation
  /// invariants fail — used to prove the auditor detects accounting leaks.
  /// Never call outside tests.
  void corrupt_accounting_for_test();

  /// Serialization delay of one packet at this link's bandwidth.
  [[nodiscard]] sim::Time transmission_time(std::uint32_t size_bytes) const {
    return transmission_time_for(size_bytes, bandwidth());
  }

  /// --- Internal: Network datapath hooks ------------------------------------

  /// Slow-path enqueue for links with any non-fast flag set (down, fault
  /// loss, RED). The caller has already bumped the enqueued_* counters.
  void enqueue_slow(const PacketRef& packet);

  /// Queue storage ops for the Network datapath; the caller maintains the
  /// LinkHot queue_len mirror.
  void push_queue(const PacketRef& packet) {
    if (queue_size_ == queue_.size()) grow_queue();
    queue_[(queue_head_ + queue_size_) & (queue_.size() - 1)] = packet;
    ++queue_size_;
    queued_bytes_ += units::Bytes{packet->size_bytes};
  }
  [[nodiscard]] PacketRef pop_queue() {
    PacketRef next{std::move(queue_[queue_head_])};
    queue_head_ = (queue_head_ + 1) & (queue_.size() - 1);
    --queue_size_;
    queued_bytes_ -= units::Bytes{next->size_bytes};
    return next;
  }

  /// Records the transmitter going idle (read by the RED EWMA idle decay;
  /// only invoked for RED links — non-RED links never read it).
  void note_idle(sim::Time now) { idle_since_ = now; }

  /// Drop accounting shared by every drop site (tail, RED, fault, down):
  /// bumps the hot drop counters, the fault subset, and the per-group table.
  void count_drop(const Packet& packet, bool fault);

 private:
  /// This link's hot entry in the Network's dense table (slow paths only —
  /// the fast paths index the array directly in Network).
  [[nodiscard]] LinkHot& hot() const;
  /// Dense stats index for a multicast packet: the stamped id, or an
  /// on-the-fly intern for packets that bypassed Network::send_multicast.
  [[nodiscard]] std::uint32_t group_stats_index(const Packet& packet) const;
  /// Doubles the full ring (kMinQueueCapacity slots when it has none yet).
  void grow_queue();

  static constexpr std::size_t kMinQueueCapacity = 8;

  sim::Simulation& simulation_;
  Network& network_;
  LinkId id_;
  NodeId from_;
  /// Packets waiting for the transmitter: a FIFO ring whose capacity,
  /// queue_.size(), is 0 until a packet first has to wait and a power of two
  /// from then on. FIFO position i is queue_[(queue_head_ + i) & (size - 1)];
  /// free slots hold null refs.
  std::vector<PacketRef> queue_;
  std::size_t queue_head_{0};
  std::size_t queue_size_{0};
  units::Bytes queued_bytes_{};
  std::uint64_t fault_dropped_packets_{0};  ///< slow-path only; see LinkStats
  double red_avg_{0.0};
  sim::Time idle_since_{sim::Time::zero()};  ///< when the transmitter last went idle
  std::optional<sim::Rng> red_rng_;  ///< forked by enable_red()
  double fault_loss_{0.0};
  std::optional<sim::Rng> fault_rng_;  ///< forked when fault loss is first set
};

}  // namespace tsim::net
