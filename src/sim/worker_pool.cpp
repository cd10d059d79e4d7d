#include "sim/worker_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace tsim::sim {

namespace {

/// Iterations a waiting thread spins before it parks. A count, not a clock:
/// simulator code never reads host time. At about 20 ns per pause on current
/// x86 cores this is over a millisecond: far longer than the serial gap
/// between two back-to-back runs (one group walk to the next), so a fluid
/// step wakes parked workers at most once, and an idle pool still parks
/// quickly.
constexpr int kSpinIterations = 1 << 16;

void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

std::size_t WorkerPool::available_cpus() {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0 && CPU_COUNT(&allowed) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&allowed));
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

WorkerPool::WorkerPool(std::size_t workers)
    : workers_{workers != 0 ? workers : available_cpus()} {}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::run_tasks(std::size_t tasks, TaskFn fn, const void* context) {
  if (tasks == 0) return;
  task_fn_ = fn;
  task_context_ = context;
  task_count_ = tasks;
  next_task_.store(0, std::memory_order_relaxed);
  const bool parallel = workers_ > 1 && tasks > 1;
  if (parallel) {
    if (threads_.empty()) spawn();
    busy_workers_.store(threads_.size(), std::memory_order_relaxed);
    publish();
  }
  run_claimed(0);
  if (parallel) {
    // Barrier: spin first, park only if the workers are still busy.
    for (int i = 0; i < kSpinIterations && busy_workers_.load(std::memory_order_acquire) != 0;
         ++i) {
      spin_pause();
    }
    if (busy_workers_.load(std::memory_order_acquire) != 0) {
      core::UniqueLock lock{mutex_};
      caller_parked_ = true;
      while (busy_workers_.load(std::memory_order_acquire) != 0) batch_done_.wait(lock);
      caller_parked_ = false;
    }
  }
  std::exception_ptr error;
  {
    core::LockGuard lock{mutex_};
    error = std::exchange(first_error_, nullptr);
  }
  if (error) {
    stop();
    std::rethrow_exception(error);
  }
}

void WorkerPool::publish() {
  // The bump happens under the mutex a parking worker re-checks it under,
  // so a worker is either seen parked here or sees the new generation.
  bool wake = false;
  {
    core::LockGuard lock{mutex_};
    generation_.fetch_add(1, std::memory_order_release);
    wake = parked_workers_ != 0;
  }
  if (wake) work_ready_.notify_all();
}

void WorkerPool::spawn() {
  const std::uint64_t seen = generation_.load(std::memory_order_relaxed);
  threads_.reserve(workers_ - 1);
  for (std::size_t worker = 1; worker < workers_; ++worker) {
    threads_.emplace_back([this, worker, seen] { worker_loop(worker, seen); });
  }
}

void WorkerPool::stop() {
  if (threads_.empty()) return;
  task_fn_ = nullptr;
  publish();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

void WorkerPool::worker_loop(std::size_t worker, std::uint64_t seen) {
  for (;;) {
    seen = await_batch(seen);
    if (task_fn_ == nullptr) return;
    run_claimed(worker);
    // The last worker out takes the mutex after its decrement, so a caller
    // that parked on a non-zero count before it is seen and woken, and one
    // that parks after it reads zero and never waits.
    if (busy_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      bool wake = false;
      {
        core::LockGuard lock{mutex_};
        wake = caller_parked_;
      }
      if (wake) batch_done_.notify_one();
    }
  }
}

std::uint64_t WorkerPool::await_batch(std::uint64_t seen) {
  for (int i = 0; i < kSpinIterations; ++i) {
    const std::uint64_t generation = generation_.load(std::memory_order_acquire);
    if (generation != seen) return generation;
    spin_pause();
  }
  core::UniqueLock lock{mutex_};
  ++parked_workers_;
  while (generation_.load(std::memory_order_acquire) == seen) work_ready_.wait(lock);
  --parked_workers_;
  return generation_.load(std::memory_order_acquire);
}

void WorkerPool::run_claimed(std::size_t worker) {
  for (;;) {
    const std::size_t task = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (task >= task_count_) return;
    try {
      task_fn_(task_context_, task, worker);
    } catch (...) {
      // HOTPATH_ALLOW(lock: task-error capture; runs only when a task throws)
      core::LockGuard lock{mutex_};
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

}  // namespace tsim::sim
