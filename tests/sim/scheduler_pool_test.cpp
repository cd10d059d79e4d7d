// Tests for the scheduler's slot-pool cancellation state and SmallCallback
// storage: the pool must stay bounded by the peak number of concurrently
// pending events (the seed's cancelled-id set grew without bound), stale
// handles must miss harmlessly, and a closure that does not fit inline must
// be refused at compile time.

#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace tsim::sim {
namespace {

using namespace tsim::sim::time_literals;

TEST(SchedulerPoolTest, CancelledIdsDoNotAccumulate) {
  Scheduler sched;
  // The seed kept every cancelled id in a set forever; the slot pool must
  // instead stay bounded by the peak number of concurrently pending events.
  for (int i = 0; i < 10'000; ++i) {
    const EventId keep = sched.schedule_after(1_s, [] {});
    const EventId drop = sched.schedule_after(2_s, [] {});
    sched.cancel(drop);
    sched.run_until(sched.now() + 3_s);
    (void)keep;
  }
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_LE(sched.slot_pool_size(), 4u);  // peak concurrency was 2
  EXPECT_EQ(sched.executed_events(), 10'000u);
}

TEST(SchedulerPoolTest, CancelAfterFireIsHarmless) {
  Scheduler sched;
  int fired = 0;
  const EventId id = sched.schedule_at(1_s, [&] { ++fired; });
  sched.run_until(2_s);
  EXPECT_EQ(fired, 1);
  // The slot has been recycled; the stale handle must not cancel whatever
  // occupies it now.
  sched.cancel(id);
  sched.schedule_at(3_s, [&] { ++fired; });
  sched.run_until(4_s);
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerPoolTest, StaleHandleMissesRecycledSlot) {
  Scheduler sched;
  bool first = false;
  bool second = false;
  const EventId a = sched.schedule_at(1_s, [&] { first = true; });
  sched.run_until(1_s);  // slot freed, generation bumped
  const EventId b = sched.schedule_at(2_s, [&] { second = true; });
  sched.cancel(a);  // stale: same slot, old generation
  sched.run_until(2_s);
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_NE(a, b);
}

TEST(SchedulerPoolTest, DoubleCancelCountsOnce) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1_s, [] {});
  sched.schedule_at(1_s, [] {});
  sched.cancel(id);
  sched.cancel(id);  // must not double-decrement the pending count
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run_until(2_s);
  EXPECT_EQ(sched.pending_events(), 0u);
}

// Every callback is stored inline: a closure that would need the heap does
// not convert, so it fails at compile time instead of allocating per event.
constexpr auto kSmall = [token = std::uint64_t{0}] { static_cast<void>(token); };
constexpr auto kLargest = [payload = std::array<std::uint64_t, 5>{}] { static_cast<void>(payload); };
constexpr auto kTooLarge = [payload = std::array<std::uint64_t, 6>{}] { static_cast<void>(payload); };
static_assert(std::is_convertible_v<decltype(kSmall), SmallCallback>);
static_assert(std::is_convertible_v<decltype(kLargest), SmallCallback>);
static_assert(!std::is_constructible_v<SmallCallback, decltype(kTooLarge)>);

// A plain copy capture of a const object is a const member, so moving the
// closure copies the vector, which may throw; an init-capture is not const.
auto copy_captured(const std::vector<int>& values) {
  return [values] { static_cast<void>(values); };
}
auto init_captured(const std::vector<int>& values) {
  return [values = values] { static_cast<void>(values); };
}
using CopyCaptured = decltype(copy_captured({}));
using InitCaptured = decltype(init_captured({}));
static_assert(!std::is_nothrow_move_constructible_v<CopyCaptured>);
static_assert(!std::is_constructible_v<SmallCallback, CopyCaptured>);
static_assert(std::is_convertible_v<InitCaptured, SmallCallback>);

TEST(SchedulerPoolTest, CancelledEventDoesNotAdvanceClock) {
  Scheduler sched;
  const EventId id = sched.schedule_at(5_s, [] {});
  sched.schedule_at(10_s, [] {});
  sched.cancel(id);
  EXPECT_TRUE(sched.step());  // skips the cancelled 5s event, runs the 10s one
  EXPECT_EQ(sched.now(), 10_s);
  EXPECT_EQ(sched.executed_events(), 1u);
}

}  // namespace
}  // namespace tsim::sim
