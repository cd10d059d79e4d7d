#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"

namespace tsim::sim {
namespace {

using namespace tsim::sim::time_literals;

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3_s, [&] { order.push_back(3); });
  sched.schedule_at(1_s, [&] { order.push_back(1); });
  sched.schedule_at(2_s, [&] { order.push_back(2); });
  sched.run_until(10_s);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, FifoTieBreakAtSameTimestamp) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(1_s, [&order, i] { order.push_back(i); });
  }
  sched.run_until(1_s);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, ClockAdvancesToEventTime) {
  Scheduler sched;
  Time seen{};
  sched.schedule_at(5_s, [&] { seen = sched.now(); });
  sched.run_until(10_s);
  EXPECT_EQ(seen, 5_s);
  EXPECT_EQ(sched.now(), 10_s);  // run_until advances to the boundary
}

TEST(SchedulerTest, RunUntilStopsBeforeLaterEvents) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(5_s, [&] { ++fired; });
  sched.schedule_at(15_s, [&] { ++fired; });
  sched.run_until(10_s);
  EXPECT_EQ(fired, 1);
  sched.run_until(20_s);
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, EventAtExactBoundaryRuns) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(10_s, [&] { fired = true; });
  sched.run_until(10_s);
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  Time fired_at{};
  sched.schedule_at(2_s, [&] {
    sched.schedule_after(3_s, [&] { fired_at = sched.now(); });
  });
  sched.run_until(10_s);
  EXPECT_EQ(fired_at, 5_s);
}

TEST(SchedulerTest, SchedulingInThePastThrows) {
  Scheduler sched;
  sched.schedule_at(5_s, [] {});
  sched.run_until(5_s);
  EXPECT_THROW(sched.schedule_at(1_s, [] {}), std::invalid_argument);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.schedule_at(1_s, [&] { fired = true; });
  sched.cancel(id);
  sched.run_until(10_s);
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, CancelUnknownIdIsNoOp) {
  Scheduler sched;
  sched.cancel(EventId{12345});
  bool fired = false;
  sched.schedule_at(1_s, [&] { fired = true; });
  sched.run_until(2_s);
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 100) sched.schedule_after(1_s, chain);
  };
  sched.schedule_at(Time::zero(), chain);
  sched.run_until(1000_s);
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sched.executed_events(), 100u);
}

TEST(SchedulerTest, StepRunsExactlyOneEvent) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1_s, [&] { ++fired; });
  sched.schedule_at(2_s, [&] { ++fired; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sched.step());
}

TEST(SchedulerTest, EmptyQueueAnchorsAtNow) {
  // The queue files each entry relative to the last minimum it took. An
  // empty queue must take that reference from now(), not from the first
  // entry it is given, or an earlier entry scheduled next sorts behind it.
  Scheduler sched;
  std::vector<Time> fired;
  const auto at = [&](Time when) {
    sched.schedule_at(when, [&] { fired.push_back(sched.now()); });
  };
  at(10_ms);
  at(1_ms);
  sched.run_until(5_ms);
  at(6_ms);
  sched.run_until(20_ms);
  EXPECT_EQ(fired, (std::vector<Time>{1_ms, 6_ms, 10_ms}));

  // Empty again, with the clock past the last event.
  fired.clear();
  sched.run_until(30_ms);
  at(40_ms);
  at(35_ms);
  sched.run_until(50_ms);
  EXPECT_EQ(fired, (std::vector<Time>{35_ms, 40_ms}));
}

TEST(SchedulerTest, CancelledOnlyDrainThenEarlierEvent) {
  // step() pops the cancelled 10 ms entry and finds nothing to run, so the
  // clock stays at 0 while the queue has already looked at 10 ms. Events
  // scheduled before 10 ms must still fire at their own times, in order.
  Scheduler sched;
  sched.cancel(sched.schedule_at(10_ms, [] {}));
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.now(), Time::zero());
  std::vector<Time> fired;
  sched.schedule_at(9_ms, [&] { fired.push_back(sched.now()); });
  sched.schedule_at(5_ms, [&] { fired.push_back(sched.now()); });
  EXPECT_EQ(sched.next_event_time(), 5_ms);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, (std::vector<Time>{5_ms}));
  sched.run_until(20_ms);
  EXPECT_EQ(fired, (std::vector<Time>{5_ms, 9_ms}));
}

TEST(SimulationTest, RngStreamsAreStablePerLabel) {
  Simulation a{123};
  Simulation b{123};
  Rng ra = a.rng_stream("x");
  Rng rb = b.rng_stream("x");
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
  Rng rc = a.rng_stream("y");
  Rng rd = a.rng_stream("x");
  EXPECT_NE(rc.next_u64(), rd.next_u64());
}

TEST(SimulationTest, AtAfterAndCancelWork) {
  Simulation simulation{1};
  int fired = 0;
  simulation.at(2_s, [&] { ++fired; });
  const EventId id = simulation.after(4_s, [&] { ++fired; });
  simulation.cancel(id);
  simulation.run_until(10_s);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulation.now(), 10_s);
}

}  // namespace
}  // namespace tsim::sim
