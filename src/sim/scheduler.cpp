#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace tsim::sim {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// std::push_heap/pop_heap build a max-heap under their comparator; inverting
/// Entry's total order makes the (when, seq) minimum the heap front.
constexpr auto kMinFirst = [](const auto& a, const auto& b) { return b < a; };

}  // namespace

// --- slot pool --------------------------------------------------------------

EventId Scheduler::schedule_at(Time when, Callback cb) {
  if (when < now_) {
    // HOTPATH_ALLOW(throw-expr: scheduling into the past is a programming error; the guard costs one predicted-not-taken branch per schedule)
    throw std::invalid_argument("Scheduler::schedule_at: time is in the past");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    // HOTPATH_ALLOW(container-growth: slot-pool high-water growth; slots recycle through free_slots_, so steady state never reallocates)
    slots_.push_back(Slot{});
  }
  slots_[slot].cancelled = false;
  slots_[slot].cb = std::move(cb);
  const std::uint64_t id = encode(slot, slots_[slot].generation);
  push_entry(Entry{when.as_nanoseconds(), next_seq_++, id});
  return EventId{id};
}

EventId Scheduler::schedule_after(Time delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::cancel(EventId id) {
  if (id.value == 0) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu) - 1;
  const std::uint32_t generation = static_cast<std::uint32_t>(id.value >> 32);
  // Stale handles (event already fired, or never existed) miss on the
  // generation check and are dropped — no tombstone accumulates.
  if (slot >= slots_.size() || slots_[slot].generation != generation) return;
  if (!slots_[slot].cancelled) {
    slots_[slot].cancelled = true;
    ++cancelled_pending_;
  }
}

bool Scheduler::take_front(Callback& out, Time& when) {
  return resolve_entry(pop_min(), out, when);
}

bool Scheduler::resolve_entry(const Entry& entry, Callback& out, Time& when) {
  const std::uint32_t slot = static_cast<std::uint32_t>(entry.id & 0xFFFFFFFFu) - 1;
  const bool cancelled = slots_[slot].cancelled;
  if (cancelled) {
    slots_[slot].cancelled = false;
    slots_[slot].cb = Callback{};
    --cancelled_pending_;
  } else {
    out = std::move(slots_[slot].cb);
    when = Time::nanoseconds(entry.when_ns);
  }
  ++slots_[slot].generation;  // invalidate outstanding handles to this event
  // HOTPATH_ALLOW(container-growth: returns a slot to the free list; capacity is bounded by the slot pool's own high-water mark)
  free_slots_.push_back(slot);
  return !cancelled;
}

// --- queue structure --------------------------------------------------------

void Scheduler::push_entry(Entry entry) {
  ++entries_;
  if (entries_ == 1) {
    // Empty queue: re-anchor the window at this event so small workloads and
    // fresh simulations never pay a migration.
    start_window(entry.when_ns);
    insert_into_bucket(entry, 0);
    return;
  }
  if (entry.when_ns < win_start_ns_) {
    // Only reachable by external scheduling after run_until() advanced the
    // clock into a gap before the current window (never from callbacks, whose
    // now() is inside the window). Rebuild around the new minimum.
    // HOTPATH_ALLOW(container-growth: cold re-base feeding rebuild_window; see the exemption on that function)
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), kMinFirst);
    rebuild_window();
    return;
  }
  const std::size_t idx = bucket_index(entry.when_ns);
  if (idx < bucket_count_) {
    insert_into_bucket(entry, idx);
  } else {
      // HOTPATH_ALLOW(container-growth: far-future park into the overflow heap; capacity persists across migrations)
      overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), kMinFirst);
  }
}

void Scheduler::insert_into_bucket(Entry entry, std::size_t idx) {
  Bucket& bucket = buckets_[idx];
  if (bucket.entries.empty()) {
    // HOTPATH_ALLOW(container-growth: bucket append; bucket vectors keep their capacity across windows, so steady state is a store + length bump)
    bucket.entries.push_back(entry);
    mark_occupied(idx);
  } else if (bucket.dirty || bucket.entries.back() < entry) {
    // Append blindly: either the bucket already awaits its lazy sort, or the
    // entry extends the sorted suffix anyway.
    // HOTPATH_ALLOW(container-growth: bucket append into retained capacity; see above)
    bucket.entries.push_back(entry);
  } else if (idx == cursor_) {
    // The bucket is draining right now — keep it sorted in place rather than
    // re-sorting the live suffix on every subsequent pop.
    // HOTPATH_ALLOW(container-growth: ordered insert into the draining bucket; bounded by that bucket's live suffix and reuses its capacity)
    bucket.entries.insert(
        std::upper_bound(bucket.entries.begin() + static_cast<std::ptrdiff_t>(bucket.head),
                         bucket.entries.end(), entry),
        entry);
  } else {
    // Not reached yet: defer ordering to one sort when the cursor arrives.
    // HOTPATH_ALLOW(container-growth: bucket append into retained capacity; see above)
    bucket.entries.push_back(entry);
    bucket.dirty = true;
  }
  if (idx < cursor_) cursor_ = idx;
}

void Scheduler::sort_bucket(Bucket& bucket) {
  std::sort(bucket.entries.begin() + static_cast<std::ptrdiff_t>(bucket.head),
            bucket.entries.end());
  bucket.dirty = false;
}

void Scheduler::start_window(std::int64_t anchor_ns) {
  if (bucket_count_ == 0) {
    bucket_count_ = 64;
    buckets_.resize(bucket_count_);
    occupancy_.assign((bucket_count_ + 63) / 64, 0);
  }
  win_start_ns_ = anchor_ns;
  cursor_ = 0;
}

void Scheduler::migrate_overflow() {
  // Pre: every bucket is empty; the overflow heap is not.
  assert(!overflow_.empty());

  // Adapt geometry to the traffic. Bucket width tracks the *mean*
  // inter-execution gap of the window just drained: that measures event
  // density where the cursor actually drains, unlike the span of the parked
  // overflow band (dominated by sparse long-horizon timers) or a per-pop
  // EWMA (sampled here, right after the inter-burst gap that emptied the
  // buckets, so biased wide by orders of magnitude). A width estimated
  // milliseconds wide puts every short-horizon datapath event in the
  // currently-draining bucket, where each pays an ordered-insert memmove —
  // the degenerate case this estimator exists to avoid. Target ~8 events
  // per bucket so cursor-bucket inserts stay a handful of moves.
  if (window_pops_ >= 64) {
    const std::int64_t span = last_pop_when_ns_ - window_first_pop_ns_;
    const std::int64_t mean_gap = span / static_cast<std::int64_t>(window_pops_);
    // Smooth across windows (1/2 weight) so one anomalous window does not
    // whipsaw the geometry; seed with the first window's mean directly.
    window_gap_ewma_ns_ =
        window_gap_ewma_ns_ < 0 ? mean_gap : (window_gap_ewma_ns_ + mean_gap) / 2;
  }
  window_pops_ = 0;
  if (window_gap_ewma_ns_ >= 0) {
    const std::uint64_t width = 8 * static_cast<std::uint64_t>(window_gap_ewma_ns_) + 1;
    shift_ = std::clamp(static_cast<int>(std::bit_width(width)), 0, 40);
    // Size the ring to a multiple of the pending population so the window
    // spans several scheduling horizons: a window of about one horizon would
    // bounce most callback-scheduled events through the overflow heap —
    // paying heap sifts *plus* bucket work. The extra bucket headers cost a
    // few KB.
    const std::size_t target = std::bit_ceil(
        std::clamp<std::size_t>(entries_ * 2, 64, 65536));
    if (target > bucket_count_ || target * 4 < bucket_count_) {
      bucket_count_ = target;
      buckets_.clear();  // all empty; drop capacity together with the resize
      buckets_.resize(bucket_count_);
      occupancy_.assign((bucket_count_ + 63) / 64, 0);
    }
  }

  start_window(overflow_.front().when_ns);

  // Drain every overflow entry that lands in the new window. Heap pops come
  // out in ascending (when, seq) order, so plain appends keep every bucket
  // sorted.
  while (!overflow_.empty()) {
    const Entry& top = overflow_.front();
    const std::size_t idx = bucket_index(top.when_ns);
    if (idx >= bucket_count_) break;
    Bucket& bucket = buckets_[idx];
    if (bucket.entries.empty()) mark_occupied(idx);
    bucket.entries.push_back(top);
    std::pop_heap(overflow_.begin(), overflow_.end(), kMinFirst);
    overflow_.pop_back();
  }
}

void Scheduler::rebuild_window() {
  for (std::size_t idx = next_occupied(0); idx < bucket_count_;
       idx = next_occupied(idx + 1)) {
    Bucket& bucket = buckets_[idx];
    for (std::size_t i = bucket.head; i < bucket.entries.size(); ++i) {
      overflow_.push_back(bucket.entries[i]);
      std::push_heap(overflow_.begin(), overflow_.end(), kMinFirst);
    }
    bucket.entries.clear();
    bucket.head = 0;
    bucket.dirty = false;
    mark_empty(idx);
  }
  migrate_overflow();
}

std::size_t Scheduler::next_occupied(std::size_t from) const {
  if (from >= bucket_count_) return bucket_count_;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (from & 63));
  const std::size_t words = occupancy_.size();
  while (bits == 0) {
    if (++word >= words) return bucket_count_;
    bits = occupancy_[word];
  }
  return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

Scheduler::Entry Scheduler::pop_min() {
  Entry entry;
  const bool popped = pop_min_upto(std::numeric_limits<std::int64_t>::max(), entry);
  assert(popped);
  static_cast<void>(popped);
  return entry;
}

bool Scheduler::pop_min_upto(std::int64_t until_ns, Entry& out) {
  // One positioning pass serves both the bound check and the pop, where a
  // peek-then-pop pair would scan the occupancy bitmap and dirty-check the
  // front bucket twice per executed event.
  if (entries_ == 0) return false;
  for (;;) {
    cursor_ = next_occupied(cursor_);
    if (cursor_ < bucket_count_) {
      ensure_sorted(cursor_);
      Bucket& bucket = buckets_[cursor_];
      out = bucket.entries[bucket.head];
      if (out.when_ns > until_ns) return false;
      ++bucket.head;
      if (bucket.head == bucket.entries.size()) {
        bucket.entries.clear();  // keeps capacity for the bucket's next window
        bucket.head = 0;
        mark_empty(cursor_);
      }
      --entries_;
      note_popped(out.when_ns);
      return true;
    }
    migrate_overflow();  // buckets exhausted; the minimum waits in overflow
  }
}

std::int64_t Scheduler::peek_min_when() const {
  if (entries_ == 0) return kNever;
  // Memoize the scan: committing cursor advancement is purely structural
  // (buckets below the cursor are verified empty), so peek stays logically
  // const while making the subsequent pop_min O(1).
  cursor_ = next_occupied(cursor_);
  if (cursor_ < bucket_count_) {
    ensure_sorted(cursor_);
    const Bucket& bucket = buckets_[cursor_];
    return bucket.entries[bucket.head].when_ns;
  }
  return overflow_.front().when_ns;
}

Time Scheduler::next_event_time() const {
  const std::int64_t when = peek_min_when();
  return when == kNever ? Time::max() : Time::nanoseconds(when);
}

// --- execution --------------------------------------------------------------

bool Scheduler::step() {
  while (entries_ > 0) {
    assert(peek_min_when() >= now_.as_nanoseconds());
    Callback cb;
    Time when;
    if (!take_front(cb, when)) continue;
    now_ = when;
    ++executed_;
    cb();
    return true;
  }
  return false;
}

void Scheduler::run_until(Time until) {
  const std::int64_t until_ns = until.as_nanoseconds();
  Entry entry;
  while (pop_min_upto(until_ns, entry)) {
    Callback cb;
    Time when;
    if (!resolve_entry(entry, cb, when)) continue;
    now_ = when;
    ++executed_;
    cb();
  }
  if (now_ < until) now_ = until;
}

}  // namespace tsim::sim
