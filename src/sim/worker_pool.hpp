#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "core/hotpath.hpp"
#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"

namespace tsim::sim {

/// A fixed set of worker threads that runs batches of independent tasks:
/// ShardExecutor's shard windows and FluidEngine's tree-walk chunks.
///
/// run(n, fn) calls fn(task, worker) once for every task in [0, n) and returns
/// when all of them have finished. Workers claim task indices from a shared
/// cursor, so which worker runs which task varies from run to run; callers get
/// deterministic results only when tasks write disjoint state. The calling
/// thread claims tasks too, as worker 0, so `worker` is always below
/// workers() and can index per-worker scratch.
///
/// Lifecycle: the threads are spawned by the first run with more than one
/// task, never by the constructor, so a pool that only ever sees single-task
/// runs (or has one worker) costs no threads. A waiting thread, a worker
/// between runs or the caller at the barrier, spins briefly and then blocks
/// in std::atomic::wait on the word it waits for; the publisher and the last
/// worker out call notify, which costs no syscall when nobody blocks. If a
/// task throws, the remaining tasks still run; after the barrier the pool
/// stops and joins its threads, then rethrows the first exception. The next
/// multi-task run spawns them again.
///
/// Threading model (docs/sharding.md): the batch (task function, context,
/// count) is written by the calling thread while every worker is idle and
/// published by the increment of `generation_`; workers read it only after
/// they observed that increment. The first task error is guarded by
/// `mutex_` and annotated TS_GUARDED_BY.
class WorkerPool {
 public:
  /// `workers` counts the calling thread: 0 picks available_cpus(), 1 runs
  /// every task on the calling thread.
  explicit WorkerPool(std::size_t workers = 0);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// CPUs this process may run on: the size of its affinity mask, or the
  /// hardware concurrency where that cannot be read. A cgroup CPU quota is
  /// not seen. At least 1.
  [[nodiscard]] static std::size_t available_cpus();

  /// Runs fn(task, worker) for every task in [0, tasks) and returns once all
  /// have finished. `fn` is called concurrently, so it must be safe to call
  /// from several threads at once. Not reentrant: a task must not call run()
  /// on the same pool.
  template <typename Fn>
  void run(std::size_t tasks, const Fn& fn) {
    run_tasks(
        tasks,
        [](const void* context, std::size_t task, std::size_t worker) {
          (*static_cast<const Fn*>(context))(task, worker);
        },
        &fn);
  }

 private:
  using TaskFn = void (*)(const void* context, std::size_t task, std::size_t worker);

  void run_tasks(std::size_t tasks, TaskFn fn, const void* context) TS_EXCLUDES(mutex_);
  void spawn();
  /// Stops and joins the threads (a batch with no task function is the stop
  /// request). Idempotent.
  void stop();
  void worker_loop(std::size_t worker, std::uint32_t seen) TS_EXCLUDES(mutex_);
  /// Claims and runs tasks until the cursor passes the batch.
  HOT_PATH void run_claimed(std::size_t worker) TS_EXCLUDES(mutex_);

  std::size_t workers_;

  /// --- the published batch (see the class comment) ------------------------
  TaskFn task_fn_{nullptr};
  const void* task_context_{nullptr};
  std::size_t task_count_{0};
  std::atomic<std::size_t> next_task_{0};  ///< claim cursor
  /// The two words threads wait on: workers on `generation_`, the caller on
  /// `busy_workers_` (spawned workers that have not finished the current
  /// batch). 32 bits, because libstdc++ waits on a 4-byte atomic's own
  /// address with a futex and on wider ones through a shared proxy table.
  /// A generation cannot wrap back to the one a worker waits past: the
  /// barrier makes every worker see every generation.
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> busy_workers_{0};

  core::Mutex mutex_;
  std::exception_ptr first_error_ TS_GUARDED_BY(mutex_);

  /// Spawned and joined by the calling thread only; declared after
  /// everything the workers use.
  std::vector<std::thread> threads_;
};

}  // namespace tsim::sim
