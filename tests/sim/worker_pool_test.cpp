// WorkerPool tests, built into the shard tier so the CI ThreadSanitizer gate
// runs them: the claim cursor, the spin-then-wait handshake, the barrier, the
// error path that stops and joins the threads, the respawn after it, and a
// pool with more threads than CPUs.

#include "sim/worker_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace tsim::sim {
namespace {

/// Runs `tasks` tasks and returns how often each index ran; fails the test
/// if a task saw a worker index outside the pool.
std::vector<int> run_counts(WorkerPool& pool, std::size_t tasks) {
  std::vector<std::atomic<int>> counts(tasks);
  std::atomic<bool> bad_worker{false};
  pool.run(tasks, [&](std::size_t task, std::size_t worker) {
    counts[task].fetch_add(1, std::memory_order_relaxed);
    if (worker >= pool.workers()) bad_worker.store(true, std::memory_order_relaxed);
  });
  EXPECT_FALSE(bad_worker.load());
  std::vector<int> out;
  out.reserve(tasks);
  for (const std::atomic<int>& count : counts) out.push_back(count.load());
  return out;
}

class WorkerPoolSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerPoolSizes, EveryTaskRunsExactlyOncePerRun) {
  WorkerPool pool{GetParam()};
  EXPECT_EQ(pool.workers(), GetParam());
  for (const std::size_t tasks : {0u, 1u, 2u, 3u, 7u, 64u, 1000u}) {
    EXPECT_EQ(run_counts(pool, tasks), std::vector<int>(tasks, 1)) << tasks << " tasks";
  }
}

TEST_P(WorkerPoolSizes, ThrowingTaskPropagatesAfterTheBarrierAndPoolIsReusable) {
  WorkerPool pool{GetParam()};
  for (int round = 0; round < 3; ++round) {
    constexpr std::size_t kTasks = 40;
    std::vector<std::atomic<int>> counts(kTasks);
    EXPECT_THROW(pool.run(kTasks,
                          [&](std::size_t task, std::size_t) {
                            counts[task].fetch_add(1, std::memory_order_relaxed);
                            if (task % 9 == 4) throw std::runtime_error{"task failed"};
                          }),
                 std::runtime_error);
    // The barrier held: every task ran once, including those after the
    // throwing ones, before run() rethrew.
    for (std::size_t task = 0; task < kTasks; ++task) {
      EXPECT_EQ(counts[task].load(), 1) << "task " << task << " round " << round;
    }
    // The pool stopped its threads; the next run spawns them again.
    EXPECT_EQ(run_counts(pool, 17), std::vector<int>(17, 1));
  }
}

TEST_P(WorkerPoolSizes, RepeatedRunsSumExactly) {
  WorkerPool pool{GetParam()};
  std::vector<std::uint64_t> slots(256, 0);
  for (int run = 0; run < 2000; ++run) {
    // Disjoint writes per task, as FluidEngine's walks do: no atomics needed.
    const std::size_t tasks = 1 + static_cast<std::size_t>(run % 9);
    pool.run(tasks, [&slots, run](std::size_t task, std::size_t) {
      slots[task] += static_cast<std::uint64_t>(run);
    });
  }
  std::vector<std::uint64_t> expected(256, 0);
  for (int run = 0; run < 2000; ++run) {
    for (std::size_t task = 0; task < 1 + static_cast<std::size_t>(run % 9); ++task) {
      expected[task] += static_cast<std::uint64_t>(run);
    }
  }
  EXPECT_EQ(slots, expected);
}

TEST_P(WorkerPoolSizes, RunsAfterTheWorkersParked) {
  WorkerPool pool{GetParam()};
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(run_counts(pool, 12), std::vector<int>(12, 1));
    // Long enough for every worker to finish spinning and block in
    // atomic::wait, so the next run must wake them through notify_all.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST_P(WorkerPoolSizes, DestroyedPoolsRestartCleanly) {
  for (int cycle = 0; cycle < 20; ++cycle) {
    WorkerPool pool{GetParam()};
    EXPECT_EQ(run_counts(pool, 5), std::vector<int>(5, 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerPoolSizes, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& pool_size) {
                           return std::to_string(pool_size.param);
                         });

TEST(WorkerPoolTest, OneWorkerAndSingleTasksRunOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  WorkerPool serial{1};
  std::vector<std::thread::id> ids(6);
  serial.run(ids.size(), [&ids](std::size_t task, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ids[task] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ids) EXPECT_EQ(id, caller);

  WorkerPool parallel{3};
  std::thread::id single;
  parallel.run(1, [&single](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    single = std::this_thread::get_id();
  });
  EXPECT_EQ(single, caller);
}

TEST(WorkerPoolTest, AutoSizeCountsAtLeastTheCallingThread) {
  WorkerPool pool;
  EXPECT_GE(pool.workers(), 1u);
  EXPECT_EQ(run_counts(pool, 33), std::vector<int>(33, 1));
}

#if defined(__linux__)
/// A mask holding only the first CPU of `allowed`.
cpu_set_t first_cpu_of(const cpu_set_t& allowed) {
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  return one;
}

TEST(WorkerPoolTest, AutoSizeFollowsTheAffinityMask) {
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  EXPECT_EQ(WorkerPool::available_cpus(), static_cast<std::size_t>(CPU_COUNT(&allowed)));

  // Restricted to one CPU, an auto-sized pool runs on the calling thread
  // alone, however many CPUs the machine has.
  const cpu_set_t one = first_cpu_of(allowed);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const std::size_t restricted = WorkerPool::available_cpus();
  const std::size_t workers = WorkerPool{}.workers();
  ASSERT_EQ(sched_setaffinity(0, sizeof allowed, &allowed), 0);
  EXPECT_EQ(restricted, 1u);
  EXPECT_EQ(workers, 1u);
}

/// About 100 us of dependent integer work that the compiler cannot fold.
std::uint64_t busy_work(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (int i = 0; i < (1 << 15); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

TEST(WorkerPoolTest, MoreThreadsThanCpusKeepPaceWithOneWorker) {
  // On one CPU a forced 4-worker pool does the same work as a 1-worker pool,
  // so it must not take much longer: a waiting thread that held the CPU for
  // long would stall the thread it waits for.
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  const cpu_set_t one = first_cpu_of(allowed);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  constexpr std::size_t kTasks = 8;
  std::vector<std::uint64_t> sinks(kTasks, 0);
  std::vector<double> serial_us;
  std::vector<double> forced_us;
  {
    // The forced pool's first run spawns its workers, which inherit the
    // one-CPU mask.
    WorkerPool serial{1};
    WorkerPool forced{4};
    const auto timed_run = [&sinks](WorkerPool& pool, int run) {
      const auto start = std::chrono::steady_clock::now();
      pool.run(kTasks, [&sinks, run](std::size_t task, std::size_t) {
        sinks[task] += busy_work(static_cast<std::uint64_t>(run) * kTasks + task);
      });
      return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
    };
    for (int run = 0; run < 200; ++run) {
      serial_us.push_back(timed_run(serial, run));
      forced_us.push_back(timed_run(forced, run));
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof allowed, &allowed), 0);
  const double serial = median(serial_us);
  const double forced = median(forced_us);
  EXPECT_LE(forced, 3.0 * serial) << "1 worker: " << std::lround(serial) << " us, 4 workers: "
                                  << std::lround(forced) << " us (medians of 200 runs on one CPU)";
}
#endif

}  // namespace
}  // namespace tsim::sim
