#pragma once

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
/// Queue structure: a two-level calendar queue (R. Brown, CACM '88 — the
/// structure ns-2 uses). Near-future events live in a ring of time buckets
/// whose occupancy is tracked in a bitmap, so pop scans empty buckets a word
/// at a time; far-future events wait in a sorted overflow band and migrate
/// into fresh buckets when the window advances. Bucket count and width adapt
/// to the pending population at each migration, keeping both dense packet
/// bursts and sparse second-scale timers O(1) amortized per event, where the
/// seed's binary heap paid O(log n) sifts on every operation. Events run in
/// the total order (timestamp, then schedule sequence); the equivalence test
/// in tests/sim checks it against a reference binary heap.
///
/// Allocation behaviour: each pending event lives in a free-listed slot pool
/// whose size is bounded by the maximum number of *concurrently pending*
/// events, not by the total number of events ever scheduled or cancelled.
/// Every callback is stored inline in its slot (SmallCallback refuses, at
/// compile time, a closure that does not fit), and the queue entries are
/// 24-byte PODs — bucket and heap shuffles never move callback storage.
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
  /// One queue entry: 24-byte POD so bucket inserts and heap sifts move no
  /// callback storage.
  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint64_t id;  ///< encoded EventId (slot + generation)

    /// The execution total order: timestamp, then schedule sequence (FIFO at
    /// equal timestamps).
    [[nodiscard]] friend bool operator<(const Entry& a, const Entry& b) {
      if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
      return a.seq < b.seq;
    }
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

  /// --- queue structure -----------------------------------------------------

  void push_entry(Entry entry);
  /// Removes and returns the (when, seq)-minimum entry. Pre: entries_ > 0.
  Entry pop_min();
  /// Pops the minimum entry into `out` if its timestamp is <= `until_ns`;
  /// returns false (leaving the queue untouched) when the queue is empty or
  /// the minimum lies beyond the bound. One positioning pass — the run loop's
  /// peek-then-pop fused.
  HOT_PATH bool pop_min_upto(std::int64_t until_ns, Entry& out);
  /// Releases `entry`'s slot. True when the entry was live (not cancelled);
  /// the callback and fire time are moved to `out` / `when`.
  bool resolve_entry(const Entry& entry, Callback& out, Time& when);
  /// Timestamp of the minimum entry without removing it; INT64_MAX when
  /// empty. Const: scans without committing cursor movement or migrations.
  [[nodiscard]] std::int64_t peek_min_when() const;

  // calendar internals
  void insert_into_bucket(Entry entry, std::size_t idx);
  HOT_PATH_EXEMPT(
      "window (re)anchoring: allocates the bucket array on first use and otherwise just "
      "re-bases the window origin; runs when the calendar empties, never per event")
  void start_window(std::int64_t anchor_ns);
  HOT_PATH_EXEMPT(
      "amortized migration: fires once per fully-drained window to re-bucket the overflow "
      "heap and adapt bucket geometry; its cost is spread over every pop in the window")
  void migrate_overflow();
  HOT_PATH_EXEMPT(
      "cold re-base: only reachable when an external schedule_at lands before the live "
      "window, which callbacks (whose now() is inside the window) can never do")
  void rebuild_window();
  [[nodiscard]] std::size_t bucket_index(std::int64_t when_ns) const {
    return static_cast<std::size_t>((when_ns - win_start_ns_) >> shift_);
  }
  void mark_occupied(std::size_t idx) {
    occupancy_[idx >> 6] |= (std::uint64_t{1} << (idx & 63));
  }
  void mark_empty(std::size_t idx) {
    occupancy_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }
  /// First non-empty bucket at or after `from`; bucket_count_ when none.
  [[nodiscard]] std::size_t next_occupied(std::size_t from) const;

  /// Pops the queue minimum, releasing its cancellation slot. Returns true
  /// when the entry was live (not cancelled); the callback is moved to `out`.
  bool take_front(Callback& out, Time& when);

  Time now_{Time::zero()};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::size_t entries_{0};  ///< live + cancelled entries across both levels

  /// Calendar level 1: buckets_[i] covers
  /// [win_start + (i << shift), win_start + ((i + 1) << shift)). `head` marks
  /// consumed slots; [head, entries.size()) is sorted ascending unless
  /// `dirty`. Inserts into not-yet-draining buckets are O(1) appends (the
  /// bucket is lazily sorted once when the cursor reaches it), so clustered
  /// timestamps never degenerate into per-insert memmoves; pop is an O(1)
  /// index bump.
  struct Bucket {
    std::vector<Entry> entries;
    std::size_t head{0};
    bool dirty{false};
  };
  /// Mutable so the logically-const peek path can commit a pending lazy sort.
  mutable std::vector<Bucket> buckets_;
  /// Sorts buckets_[idx]'s live suffix if an out-of-order append left it dirty.
  /// Inline dirty check so hot pop/peek paths pay one branch when clean; the
  /// actual sort lives out of line.
  void ensure_sorted(std::size_t idx) const {
    Bucket& bucket = buckets_[idx];
    if (bucket.dirty) sort_bucket(bucket);
  }
  static void sort_bucket(Bucket& bucket);
  std::vector<std::uint64_t> occupancy_;  ///< bit i set <=> buckets_[i] non-empty
  std::size_t bucket_count_{0};           ///< power of two (0 until first use)
  int shift_{20};                         ///< bucket width = 1 << shift_ ns (~1 ms)
  std::int64_t win_start_ns_{0};
  /// Buckets below the cursor are empty. Mutable: peek_min_when() memoizes
  /// its occupancy scan here without changing observable state.
  mutable std::size_t cursor_{0};

  /// Calendar level 2: a binary min-heap on (when, seq) where far-future
  /// events wait for their window.
  std::vector<Entry> overflow_;

  /// Execution-density estimate migrate_overflow() sizes bucket width from:
  /// the mean timestamp gap over everything popped since the last migration
  /// (window span / pops), EWMA-smoothed across windows. A *mean over the
  /// whole drained window* is the load-bearing choice: migrations fire
  /// exactly when the buckets run dry, i.e. right after the longest
  /// inter-burst gap in the workload, so any instantaneous estimator (the
  /// previous per-pop EWMA) systematically samples at its most inflated
  /// moment. Under a 10k-receiver fan-out that inflated a ~0.4 us true mean
  /// gap to ~1 ms, producing buckets wider than the tx+latency horizon —
  /// every completion then ordered-inserted its arrival into the bucket
  /// being drained, degenerating the calendar into one giant sorted array
  /// (terabytes of memmove over a bench run). Derived purely from popped
  /// timestamps, so it is deterministic.
  std::int64_t window_gap_ewma_ns_{-1};  ///< -1 until the first full window
  std::int64_t last_pop_when_ns_{0};
  std::int64_t window_first_pop_ns_{0};  ///< first pop of the current window
  std::uint64_t window_pops_{0};         ///< pops since the last migration
  void note_popped(std::int64_t when_ns) {
    if (window_pops_ == 0) window_first_pop_ns_ = when_ns;
    last_pop_when_ns_ = when_ns;
    ++window_pops_;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_pending_{0};
};

}  // namespace tsim::sim
