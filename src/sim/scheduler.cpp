#include "sim/scheduler.hpp"

#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace tsim::sim {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

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
  push_entry(Entry{when.as_nanoseconds(), id});
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

// --- radix heap -------------------------------------------------------------

// Defined inline before its callers, so the pop loop inlines it and keeps
// its mask in a register.
inline void Scheduler::place(Entry entry, std::int64_t base, std::uint64_t& occupied) {
  const auto b = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(entry.when_ns ^ base)));
  const std::uint64_t bit = std::uint64_t{1} << b;
  if ((occupied & bit) == 0 || entry.when_ns < bucket_min_[b]) bucket_min_[b] = entry.when_ns;
  occupied |= bit;
  // HOTPATH_ALLOW(container-growth: bucket append; a drained bucket keeps its capacity, which stays below twice the peak queued entries)
  buckets_[b].push_back(entry);
}

void Scheduler::push_entry(Entry entry) {
  if (entries_ == 0) last_ns_ = now_.as_nanoseconds();
  assert(entry.when_ns >= last_ns_);
  ++entries_;
  place(entry, last_ns_, occupied_);
}

bool Scheduler::pop_min_upto(std::int64_t until_ns, Entry& out) {
  if (entries_ == 0) return false;
  if ((occupied_ & 1) == 0) {
    // Bucket 0 is drained: re-base on the lowest non-empty bucket. Buckets
    // below it are empty, so its entries land, in order, in lower buckets
    // only, and the ones at its minimum fill bucket 0.
    assert(occupied_ != 0);
    const auto b = static_cast<std::size_t>(std::countr_zero(occupied_));
    const std::int64_t base = bucket_min_[b];
    if (base > until_ns) return false;
    last_ns_ = base;
    std::uint64_t occupied = occupied_ & ~(std::uint64_t{1} << b);
    for (const Entry& entry : buckets_[b]) place(entry, base, occupied);
    occupied_ = occupied;
    buckets_[b].clear();  // keeps capacity for the bucket's next fill
  } else if (last_ns_ > until_ns) {
    return false;
  }
  std::vector<Entry>& front = buckets_[0];
  out = front[front_head_++];
  if (front_head_ == front.size()) {
    front.clear();
    front_head_ = 0;
    occupied_ &= ~std::uint64_t{1};
  }
  --entries_;
  return true;
}

Time Scheduler::next_event_time() const {
  if (entries_ == 0) return Time::max();
  return Time::nanoseconds(bucket_min_[static_cast<std::size_t>(std::countr_zero(occupied_))]);
}

// --- execution --------------------------------------------------------------

bool Scheduler::step() {
  assert(next_event_time() >= now_);
  Entry entry;
  while (pop_min_upto(kNever, entry)) {
    Callback cb;
    Time when;
    if (!resolve_entry(entry, cb, when)) continue;
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
