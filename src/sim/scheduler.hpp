#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/hotpath.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace tsim::sim {

/// Opaque handle to a scheduled event; used for cancellation. Encodes a slot
/// in the scheduler's cancellation pool plus a generation counter, so handles
/// of already-fired events go stale automatically (cancelling one is a no-op
/// instead of leaking tombstone state, as the seed's cancelled-id set did).
struct EventId {
  std::uint64_t value{0};
  [[nodiscard]] friend bool operator==(EventId, EventId) = default;
};

/// Discrete-event scheduler: a time-ordered queue of callbacks with
/// deterministic FIFO tie-breaking (events scheduled earlier at the same
/// timestamp fire first). Single-threaded by design — determinism is a core
/// requirement for reproducible experiments; parallelism in the benches comes
/// from running independent simulations on separate threads, each with its
/// own Scheduler.
///
/// Queue structure: a monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
/// JACM '90) keyed on the timestamp. Simulated time never runs backwards, so
/// every queued entry is at or after `last_ns_`, the timestamp of the last
/// minimum taken. Bucket b holds the entries whose timestamp first differs
/// from `last_ns_` at bit b - 1; bucket 0 holds those at exactly `last_ns_`.
/// Pop drains bucket 0, then re-bases `last_ns_` on the lowest non-empty
/// bucket's minimum and moves that bucket's entries into lower buckets, so an
/// entry moves at most 63 times in its life and a same-timestamp burst moves
/// as one block. Entries at one timestamp always share a bucket and only ever
/// move by in-order appends, so they leave in schedule order by construction;
/// the equivalence test in tests/sim checks the order against a reference
/// binary heap on (timestamp, schedule sequence).
///
/// Allocation behaviour: each pending event lives in a free-listed slot pool
/// whose size is bounded by the maximum number of *concurrently pending*
/// events, not by the total number of events ever scheduled or cancelled.
/// Every callback is stored inline in its slot (SmallCallback refuses, at
/// compile time, a closure that does not fit), and the queue entries are
/// 16-byte PODs — bucket moves never touch callback storage. A drained bucket
/// keeps its capacity, which never exceeds twice the most entries it held at
/// once, so the 64 buckets together stay within 128 times the peak number of
/// queued entries however long the run.
class Scheduler {
 public:
  using Callback = SmallCallback;

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  EventId schedule_at(Time when, Callback cb);

  /// Schedules `cb` `delay` after the current time.
  EventId schedule_after(Time delay, Callback cb);

  /// Cancels a pending event. Cancelling an already-fired or unknown event is
  /// a harmless no-op (the common case when a timer raced its cancellation).
  void cancel(EventId id);

  /// Runs events until the queue empties or the clock passes `until`.
  /// Events at exactly `until` are executed. The per-event loop: every
  /// simulation, sharded or not, spends its run here.
  HOT_PATH void run_until(Time until);

  /// Runs a single event; returns false if the queue is empty.
  bool step();

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pending_events() const { return entries_ - cancelled_pending_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Size of the cancellation slot pool — bounded by the peak number of
  /// simultaneously pending events. Exposed so tests can pin the bound.
  [[nodiscard]] std::size_t slot_pool_size() const { return slots_.size(); }

  /// --- Pool-consistency accessors (audited by check::InvariantAuditor) -----
  /// Every slot is either on the free list or owned by exactly one queue
  /// entry, so slot_pool_size() == free_slot_count() + queued_entries() holds
  /// between events; cancelled entries still own their slot until popped, so
  /// cancelled_pending() <= queued_entries().
  [[nodiscard]] std::size_t free_slot_count() const { return free_slots_.size(); }
  [[nodiscard]] std::size_t queued_entries() const { return entries_; }
  [[nodiscard]] std::size_t cancelled_pending() const { return cancelled_pending_; }

  /// Earliest pending timestamp, Time::max() when the queue is empty. Never
  /// earlier than now() — schedule_at refuses past times.
  [[nodiscard]] Time next_event_time() const;

  /// Test-only: jumps the clock past pending events so the auditor's
  /// event-in-the-past / monotonic-time invariants fire. Never call outside
  /// tests — it breaks the scheduler's ordering contract by design.
  void corrupt_clock_for_test(Time now) { now_ = now; }

 private:
  /// One queue entry: a 16-byte POD, so bucket moves touch no callback
  /// storage.
  struct Entry {
    std::int64_t when_ns;
    std::uint64_t id;  ///< encoded EventId (slot + generation)
  };
  /// One pending event: its callback plus cancellation state. `generation`
  /// is bumped when the slot is released, so EventIds referring to a previous
  /// occupant miss.
  struct Slot {
    std::uint32_t generation{1};  ///< generation 0 never matches: EventId{0} is null
    bool cancelled{false};
    Callback cb;
  };

  static constexpr std::uint64_t encode(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(generation) << 32) | (slot + 1);
  }

  /// Queues `entry`. An empty queue first re-anchors `last_ns_` at now():
  /// anchoring it at the entry instead would bucket a later, earlier-timed
  /// schedule_at below `last_ns_`.
  void push_entry(Entry entry);
  /// Appends `entry` to the bucket its timestamp selects relative to `base`,
  /// keeping that bucket's minimum and its bit in `occupied`.
  void place(Entry entry, std::int64_t base, std::uint64_t& occupied);
  /// Pops the minimum entry into `out` if its timestamp is <= `until_ns`;
  /// returns false (leaving the queue untouched) when the queue is empty or
  /// the minimum lies beyond the bound.
  HOT_PATH bool pop_min_upto(std::int64_t until_ns, Entry& out);
  /// Releases `entry`'s slot. True when the entry was live (not cancelled);
  /// the callback and fire time are moved to `out` / `when`.
  bool resolve_entry(const Entry& entry, Callback& out, Time& when);

  Time now_{Time::zero()};
  std::uint64_t executed_{0};
  std::size_t entries_{0};  ///< live + cancelled entries across all buckets

  /// Every queued entry is at or after last_ns_; outside the run loop,
  /// last_ns_ <= now() too, except after a step() that popped only cancelled
  /// entries, which leaves the queue empty (push_entry re-anchors it).
  std::int64_t last_ns_{0};
  /// buckets_[0] is consumed from front_head_; buckets 1..63 are taken
  /// whole. Bit b of occupied_ marks buckets_[b] as holding entries not yet
  /// taken, and bucket_min_[b] is then their minimum timestamp (for bucket 0,
  /// last_ns_).
  std::array<std::vector<Entry>, 64> buckets_;
  std::array<std::int64_t, 64> bucket_min_{};
  std::uint64_t occupied_{0};
  std::size_t front_head_{0};

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_pending_{0};
};

}  // namespace tsim::sim
