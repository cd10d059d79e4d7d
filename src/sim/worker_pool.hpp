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
/// runs (or has one worker) costs no threads. Between runs a worker spins for
/// a bounded number of iterations, then parks on a condition variable; the
/// publisher only broadcasts when a worker is parked, so back-to-back runs
/// never pay a futex wake. If a task throws, the remaining tasks still run;
/// after the barrier the pool stops and joins its threads, then rethrows the
/// first exception. The next multi-task run spawns them again.
///
/// Threading model (docs/sharding.md): the batch (task function, context,
/// count) is written by the calling thread while every worker is idle and
/// published by the release increment of `generation_`; workers read it only
/// after an acquire load observed that increment. Everything the parking
/// handshake shares is guarded by `mutex_` and annotated TS_GUARDED_BY.
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
  /// Publishes the batch in task_fn_/task_context_/task_count_ to every
  /// spawned worker and wakes the parked ones.
  void publish() TS_EXCLUDES(mutex_);
  void spawn();
  /// Stops and joins the threads (a batch with no task function is the stop
  /// request). Idempotent.
  void stop() TS_EXCLUDES(mutex_);
  void worker_loop(std::size_t worker, std::uint64_t seen) TS_EXCLUDES(mutex_);
  /// Spins, then parks, until `generation_` moves past `seen`; returns it.
  std::uint64_t await_batch(std::uint64_t seen) TS_EXCLUDES(mutex_);
  /// Claims and runs tasks until the cursor passes the batch.
  HOT_PATH void run_claimed(std::size_t worker) TS_EXCLUDES(mutex_);

  std::size_t workers_;

  /// --- the published batch (see the class comment) ------------------------
  TaskFn task_fn_{nullptr};
  const void* task_context_{nullptr};
  std::size_t task_count_{0};
  std::atomic<std::size_t> next_task_{0};  ///< claim cursor
  std::atomic<std::uint64_t> generation_{0};
  /// Spawned workers that have not finished the current batch.
  std::atomic<std::size_t> busy_workers_{0};

  /// --- the parking handshake, all guarded by mutex_ -----------------------
  core::Mutex mutex_;
  core::ConditionVariable work_ready_;
  core::ConditionVariable batch_done_;
  std::size_t parked_workers_ TS_GUARDED_BY(mutex_){0};
  bool caller_parked_ TS_GUARDED_BY(mutex_){false};
  std::exception_ptr first_error_ TS_GUARDED_BY(mutex_);

  /// Spawned and joined by the calling thread only; declared after
  /// everything the workers use.
  std::vector<std::thread> threads_;
};

}  // namespace tsim::sim
