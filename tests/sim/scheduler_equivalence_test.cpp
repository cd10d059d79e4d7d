#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsim::sim {
namespace {

// The Scheduler's radix heap must execute the same total order as a binary
// heap on (timestamp, schedule sequence), so that every simulation
// fingerprint is independent of the queue structure. These tests drive the
// Scheduler and a reference heap through the same randomized schedule /
// cancel / run workloads and assert the execution traces and pending counts
// match exactly, and that the Scheduler's slot pool stays consistent.

/// The reference: a binary min-heap on (timestamp, schedule sequence), the
/// structure the seed's scheduler used. Every event of a run keeps its
/// record, indexed by schedule order, so cancellation is a flag and a handle
/// to a fired or cancelled event misses.
class ReferenceHeap {
 public:
  EventId schedule_at(Time when, std::function<void()> cb) {
    const std::uint64_t seq = events_.size();
    events_.push_back(Event{std::move(cb), false});
    heap_.push_back(Entry{when.as_nanoseconds(), seq});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++pending_;
    return EventId{seq + 1};
  }

  void cancel(EventId id) {
    Event& event = events_[id.value - 1];
    if (event.settled) return;
    event.settled = true;
    event.cb = nullptr;
    --pending_;
  }

  void run_until(Time until) {
    while (!heap_.empty() && heap_.front().when_ns <= until.as_nanoseconds()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const Entry entry = heap_.back();
      heap_.pop_back();
      Event& event = events_[entry.seq];
      if (event.settled) continue;  // cancelled
      event.settled = true;
      --pending_;
      now_ = Time::nanoseconds(entry.when_ns);
      ++executed_;
      // Moved out first: the callback may schedule, which grows events_.
      const std::function<void()> cb = std::move(event.cb);
      cb();
    }
    if (now_ < until) now_ = until;
  }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pending_events() const { return pending_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq;
  };
  struct Event {
    std::function<void()> cb;
    bool settled;  ///< fired or cancelled
  };
  /// std::push_heap/pop_heap keep the comparator's maximum at the front, so
  /// ordering by "fires later" puts the next event there.
  static bool later(const Entry& a, const Entry& b) {
    if (a.when_ns != b.when_ns) return a.when_ns > b.when_ns;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::vector<Event> events_;
  Time now_{Time::zero()};
  std::size_t pending_{0};
  std::uint64_t executed_{0};
};

/// Slot-pool consistency: every slot is either free or owned by exactly one
/// queued entry, and cancelled entries still hold their slots until popped.
void check_pool_invariants(const Scheduler& scheduler) {
  EXPECT_EQ(scheduler.slot_pool_size(),
            scheduler.free_slot_count() + scheduler.queued_entries());
  EXPECT_LE(scheduler.cancelled_pending(), scheduler.queued_entries());
  EXPECT_EQ(scheduler.pending_events(),
            scheduler.queued_entries() - scheduler.cancelled_pending());
}

/// Drives one queue through a scripted workload and records, for every
/// executed event, the (fire time, creation index) pair. Identical scripts on
/// both queues must produce identical traces.
template <typename Queue>
class WorkloadDriver {
 public:
  /// Schedules event number `tag` at absolute `when_ns`; remembers its id so
  /// cancel_nth can target it later.
  void schedule(std::int64_t when_ns, std::uint64_t tag) {
    ids_.push_back(queue_.schedule_at(
        Time::nanoseconds(when_ns), [this, when_ns, tag]() {
          trace_.push_back({queue_.now().as_nanoseconds(), tag});
          EXPECT_EQ(queue_.now().as_nanoseconds(), when_ns);
        }));
  }

  void cancel_nth(std::size_t n) { queue_.cancel(ids_[n]); }

  void run_until(std::int64_t until_ns) { queue_.run_until(Time::nanoseconds(until_ns)); }

  [[nodiscard]] const Queue& queue() const { return queue_; }
  [[nodiscard]] const std::vector<std::pair<std::int64_t, std::uint64_t>>& trace() const {
    return trace_;
  }

 private:
  Queue queue_;
  std::vector<EventId> ids_;
  std::vector<std::pair<std::int64_t, std::uint64_t>> trace_;
};

/// One randomized schedule–cancel–run script, applied identically to both
/// drivers. Operations are drawn from a seeded Rng, so failures reproduce.
/// Every 50th operation drains both queues to empty and leaves the clock
/// past the last event, so each seed re-anchors an empty queue several times.
void run_random_workload(std::uint64_t seed, int operations) {
  WorkloadDriver<Scheduler> radix;
  WorkloadDriver<ReferenceHeap> heap;
  Rng rng{seed};

  std::int64_t horizon_ns = 0;  // both schedulers share the same clock floor
  std::uint64_t tag = 0;
  std::size_t scheduled = 0;
  for (int op = 0; op < operations; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (op % 50 == 49) {
      // Drain: the farthest schedule below lies 400 ms past the horizon.
      horizon_ns += 1'000'000'000;
      radix.run_until(horizon_ns);
      heap.run_until(horizon_ns);
      ASSERT_EQ(radix.queue().queued_entries(), 0u);
      ASSERT_EQ(radix.trace().size(), heap.trace().size());
    } else if (dice < 0.55) {
      // Schedule: cluster timestamps so FIFO ties, nearby buckets and
      // far-off ones all occur; a far-future entry moves down through
      // several buckets before it fires.
      std::int64_t when = horizon_ns;
      const double spread = rng.uniform(0.0, 1.0);
      if (spread < 0.4) {
        when += rng.uniform_int(0, 1000);              // dense cluster, many ties
      } else if (spread < 0.8) {
        when += rng.uniform_int(0, 2'000'000);         // a few ms ahead
      } else {
        when += rng.uniform_int(0, 400'000'000);       // far future
      }
      radix.schedule(when, tag);
      heap.schedule(when, tag);
      ++tag;
      ++scheduled;
    } else if (dice < 0.75 && scheduled > 0) {
      // Cancel a random already-created event (possibly already fired or
      // already cancelled — both must treat stale handles as no-ops).
      const auto n = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(scheduled) - 1));
      radix.cancel_nth(n);
      heap.cancel_nth(n);
    } else {
      // Run forward a random amount; both clocks advance identically.
      horizon_ns += rng.uniform_int(0, 5'000'000);
      radix.run_until(horizon_ns);
      heap.run_until(horizon_ns);
      ASSERT_EQ(radix.trace().size(), heap.trace().size());
    }
    check_pool_invariants(radix.queue());
    ASSERT_EQ(radix.queue().pending_events(), heap.queue().pending_events());
  }

  // Drain everything still queued.
  radix.run_until(horizon_ns + 1'000'000'000);
  heap.run_until(horizon_ns + 1'000'000'000);

  ASSERT_EQ(radix.trace(), heap.trace())
      << "execution order diverged for seed " << seed;
  EXPECT_EQ(radix.queue().executed_events(), heap.queue().executed_events());
  EXPECT_EQ(radix.queue().pending_events(), 0u);
  EXPECT_EQ(heap.queue().pending_events(), 0u);
  check_pool_invariants(radix.queue());
}

TEST(SchedulerEquivalence, RandomizedWorkloadsMatchHeapExactly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_random_workload(seed, 400);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first diverging seed: " << seed;
    }
  }
}

TEST(SchedulerEquivalence, TimestampsSpanningEveryBucketMatchHeap) {
  // Offsets from 1 ns to about 2^62 ns spread entries from the radix heap's
  // lowest buckets to its highest, and re-used timestamps add FIFO ties at
  // every scale, interleaved with other schedules, cancellations and runs.
  WorkloadDriver<Scheduler> radix;
  WorkloadDriver<ReferenceHeap> heap;
  Rng rng{2024};
  std::int64_t horizon_ns = 0;
  std::vector<std::int64_t> used;  // timestamps to repeat as ties
  std::uint64_t tag = 0;
  for (int op = 0; op < 3000; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.6) {
      std::int64_t when;
      if (!used.empty() && rng.uniform(0.0, 1.0) < 0.3) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(used.size()) - 1));
        when = std::max(horizon_ns, used[pick]);
      } else {
        const std::int64_t scale = std::int64_t{1} << rng.uniform_int(0, 61);
        when = horizon_ns + scale + rng.uniform_int(-scale / 2, scale / 2);
        used.push_back(when);
      }
      radix.schedule(when, tag);
      heap.schedule(when, tag);
      ++tag;
    } else if (dice < 0.7 && tag > 0) {
      const auto n =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(tag) - 1));
      radix.cancel_nth(n);
      heap.cancel_nth(n);
    } else {
      // Keep the horizon at most 2^61, so horizon + 1.5 * 2^61 fits.
      const std::int64_t step = std::int64_t{1} << rng.uniform_int(0, 56);
      horizon_ns = std::min(horizon_ns + step, std::int64_t{1} << 61);
      radix.run_until(horizon_ns);
      heap.run_until(horizon_ns);
      ASSERT_EQ(radix.trace().size(), heap.trace().size());
    }
    ASSERT_EQ(radix.queue().pending_events(), heap.queue().pending_events());
  }
  radix.run_until(std::numeric_limits<std::int64_t>::max());
  heap.run_until(std::numeric_limits<std::int64_t>::max());
  ASSERT_EQ(radix.trace(), heap.trace());
  EXPECT_EQ(radix.queue().pending_events(), 0u);
  check_pool_invariants(radix.queue());
}

TEST(SchedulerEquivalence, SameTimestampFifoTieBreak) {
  // Every event at one timestamp, scheduled in interleaved order with
  // cancellations: both queues must fire survivors in schedule order.
  WorkloadDriver<Scheduler> radix;
  WorkloadDriver<ReferenceHeap> heap;
  constexpr std::int64_t kWhen = 5'000'000;
  for (std::uint64_t tag = 0; tag < 1000; ++tag) {
    radix.schedule(kWhen, tag);
    heap.schedule(kWhen, tag);
  }
  for (std::size_t n = 0; n < 1000; n += 3) {
    radix.cancel_nth(n);
    heap.cancel_nth(n);
  }
  radix.run_until(kWhen);
  heap.run_until(kWhen);
  ASSERT_EQ(radix.trace(), heap.trace());
  ASSERT_EQ(radix.trace().size(), 1000u - 334u);
  EXPECT_TRUE(std::is_sorted(radix.trace().begin(), radix.trace().end()));
}

TEST(SchedulerEquivalence, SlotPoolBoundedByPeakPending) {
  // The pool must be bounded by the peak number of concurrently pending
  // events — scheduling N, draining, and scheduling N again must not grow it
  // past N.
  WorkloadDriver<Scheduler> driver;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t base = round * 10'000'000;
    for (std::uint64_t tag = 0; tag < 500; ++tag) {
      driver.schedule(base + 1'000 + static_cast<std::int64_t>(tag), tag);
    }
    driver.run_until(base + 5'000'000);
    check_pool_invariants(driver.queue());
  }
  EXPECT_LE(driver.queue().slot_pool_size(), 500u);
}

/// Callbacks that schedule from inside the run loop — the shape real
/// components (links, timers) produce. Returns the fire times in order.
template <typename Queue>
std::vector<std::int64_t> reentrant_trace(std::uint64_t seed) {
  Queue queue;
  Rng rng{seed};
  std::vector<std::int64_t> trace;
  // Self-rescheduling chain: each firing schedules 0-2 successors at
  // randomized offsets (some same-timestamp) until a budget runs out.
  int budget = 3000;
  const auto spawn = [&](auto&& self, std::int64_t when_ns) -> void {
    queue.schedule_at(Time::nanoseconds(when_ns), [&, when_ns]() {
      trace.push_back(when_ns);
      if (budget <= 0) return;
      const int children = static_cast<int>(rng.uniform_int(0, 2));
      for (int c = 0; c < children; ++c) {
        --budget;
        self(self, when_ns + rng.uniform_int(0, 1'000'000));
      }
    });
  };
  for (int i = 0; i < 16; ++i) spawn(spawn, 1'000 * i);
  queue.run_until(Time::seconds(std::int64_t{3600}));
  EXPECT_EQ(queue.pending_events(), 0u);
  return trace;
}

TEST(SchedulerEquivalence, ReentrantSchedulingMatches) {
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    ASSERT_EQ(reentrant_trace<Scheduler>(seed), reentrant_trace<ReferenceHeap>(seed))
        << "reentrant divergence for seed " << seed;
  }
}

}  // namespace
}  // namespace tsim::sim
