#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "sim/worker_pool.hpp"

namespace tsim::sim {

/// Conservative-lookahead parallel runner for a set of otherwise independent
/// Simulations ("shards"). Each shard keeps its own single-threaded Scheduler
/// — nothing inside a shard changes — and the executor advances all shards in
/// lock-step windows no wider than the smallest cross-shard channel latency.
/// Any event a shard emits for another shard during a window therefore lands
/// at or after the *next* window boundary, so shards never see each other
/// mid-window and every window can run on its own thread.
///
/// Determinism contract:
///  - A single registered shard runs through the plain `Simulation::run_until`
///    path, bit-for-bit identical to not using the executor at all.
///  - Multi-shard runs are bit-for-bit identical for every thread count
///    (including 1): each shard's intra-window execution is sequential, and
///    handoffs are merged at the barrier in (when, channel id, post sequence)
///    order by a single thread before any shard resumes.
///
/// Handoffs are *actions*, not packets: the poster captures whatever state it
/// needs **by value** and the action runs later on the destination shard's
/// thread (see net::ShardLink for the packet adapter). Captured state must not
/// reference source-shard objects — PacketRef, for one, is backed by a
/// thread-local pool and must never cross shards.
///
/// Threading model (see docs/sharding.md): each window is one sim::WorkerPool
/// run with one task per shard, so the pool's annotated handshake is the only
/// shared state; the TSan shard gate in CI validates it dynamically.
class ShardExecutor {
 public:
  struct Config {
    /// Threads for shard windows, counting the calling thread. 0 picks
    /// min(shards, WorkerPool::available_cpus()); 1 runs shards sequentially
    /// on the calling thread (same results, no threads).
    std::size_t threads{0};
  };

  /// A one-way handoff queue between two shards with a fixed minimum latency.
  /// post() is legal only from the source shard's thread while its window is
  /// running (each channel has exactly one posting shard, so no lock is
  /// needed); the executor drains every channel on the calling thread after
  /// the window's pool run has returned — the two phases never overlap, which
  /// is why `outbox_` needs no capability of its own.
  class Channel {
   public:
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Queues `action` to run in the destination shard at absolute time
    /// `when`. The lookahead contract requires `when >= post time + latency()`
    /// — the barrier throws std::logic_error on violations rather than
    /// silently reordering history.
    void post(Time when, std::function<void()> action) {
      outbox_.push_back(Message{when, next_seq_++, std::move(action)});
    }

    [[nodiscard]] Time latency() const { return latency_; }
    [[nodiscard]] std::size_t source() const { return from_; }
    [[nodiscard]] std::size_t destination() const { return to_; }
    [[nodiscard]] std::uint64_t posted() const { return next_seq_; }

   private:
    friend class ShardExecutor;
    struct Message {
      Time when{};
      std::uint64_t seq{0};
      std::function<void()> action;
    };

    Channel(std::size_t id, std::size_t from, std::size_t to, Time latency)
        : id_{id}, from_{from}, to_{to}, latency_{latency} {}

    std::size_t id_;
    std::size_t from_;
    std::size_t to_;
    Time latency_;
    std::uint64_t next_seq_{0};
    std::vector<Message> outbox_;
  };

  ShardExecutor() = default;
  explicit ShardExecutor(Config config) : config_{config} {}
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Registers a shard; returns its index. All shards must be registered
  /// before the first run_until. The executor does not own the Simulation.
  std::size_t add_shard(Simulation& shard);

  /// Declares a handoff channel from shard `from` to shard `to` whose
  /// messages take at least `latency` to arrive. The smallest latency across
  /// all channels becomes the window width (the conservative lookahead).
  /// Throws std::invalid_argument on self-loops, unknown shards, or a
  /// non-positive latency.
  Channel& connect(std::size_t from, std::size_t to, Time latency);

  /// Advances every shard to `end` (events at exactly `end` execute, matching
  /// Simulation::run_until). Callable repeatedly with increasing bounds.
  /// A shard that throws is rethrown after its window's barrier, once the
  /// pool has stopped and joined its threads; a lookahead violation throws
  /// from the barrier. Either way the executor stays destructible and
  /// restartable.
  void run_until(Time end);

  /// Scheduler events executed, summed over all shards.
  [[nodiscard]] std::uint64_t executed_events() const;
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }

 private:
  void run_window(Time bound);
  void drain_channels(std::int64_t bound_ns);

  Config config_;
  std::vector<Simulation*> shards_;
  std::vector<std::unique_ptr<Channel>> channels_;
  Time lookahead_{Time::max()};
  std::int64_t cursor_ns_{0};  ///< next window start
  std::uint64_t windows_{0};
  std::uint64_t delivered_{0};
  /// Created by the first window, sized from config_.threads and the shard
  /// count.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace tsim::sim
