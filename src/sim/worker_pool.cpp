#include "sim/worker_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace tsim::sim {

namespace {

/// Iterations a waiting thread spins before it blocks. A count, not a clock:
/// simulator code never reads host time. At about 22 ns per pause on current
/// x86 cores this is about 22 microseconds: longer than most serial gaps
/// between two runs of a fluid step (one group walk to the next), so the
/// workers stay awake through a step, and short enough that a spinner on an
/// oversubscribed CPU holds it from the thread it waits for only briefly.
constexpr int kSpinIterations = 1 << 10;

void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Returns the first value of `word` other than `old`: spins, then blocks in
/// atomic::wait until a notify follows the change. The loads keep the
/// default seq_cst order: libstdc++'s notify skips the futex wake when its
/// waiter count reads 0, and only seq_cst on both sides rules out a wakeup
/// lost between the change and that check.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word, std::uint32_t old) {
  for (int i = 0; i < kSpinIterations; ++i) {
    const std::uint32_t value = word.load();
    if (value != old) return value;
    spin_pause();
  }
  word.wait(old);
  return word.load();
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
    busy_workers_.store(static_cast<std::uint32_t>(threads_.size()), std::memory_order_relaxed);
    generation_.fetch_add(1);
    generation_.notify_all();
  }
  run_claimed(0);
  if (parallel) {
    for (std::uint32_t busy = busy_workers_.load(); busy != 0;) {
      busy = await_change(busy_workers_, busy);
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

void WorkerPool::spawn() {
  const std::uint32_t seen = generation_.load(std::memory_order_relaxed);
  threads_.reserve(workers_ - 1);
  for (std::size_t worker = 1; worker < workers_; ++worker) {
    threads_.emplace_back([this, worker, seen] { worker_loop(worker, seen); });
  }
}

void WorkerPool::stop() {
  if (threads_.empty()) return;
  task_fn_ = nullptr;
  generation_.fetch_add(1);
  generation_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

void WorkerPool::worker_loop(std::size_t worker, std::uint32_t seen) {
  for (;;) {
    seen = await_change(generation_, seen);
    if (task_fn_ == nullptr) return;
    run_claimed(worker);
    if (busy_workers_.fetch_sub(1) == 1) busy_workers_.notify_one();
  }
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
