// Capability-attributed wrappers over <mutex> so Clang's thread-safety
// analysis (-Wthread-safety, see core/thread_annotations.hpp) can track which
// lock protects which member. Zero overhead: every method forwards to the
// underlying std type and is inlined away; non-Clang builds see plain
// std::mutex behaviour with the attributes compiled out.
//
// Rules of use (docs/static-analysis.md, "Thread-safety annotations"):
//  * never hold a bare std::mutex member in simulator code — use core::Mutex
//    so the capability has a name the analysis can attach TS_GUARDED_BY to;
//  * lock with core::LockGuard.
#pragma once

#include <mutex>

#include "core/thread_annotations.hpp"

namespace tsim::core {

/// std::mutex carrying the Clang `capability` attribute.
class TS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TS_ACQUIRE() { mutex_.lock(); }
  void unlock() TS_RELEASE() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

/// std::lock_guard-shaped scoped lock over core::Mutex.
class TS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) TS_ACQUIRE(mutex) : mutex_{mutex} { mutex_.lock(); }
  ~LockGuard() TS_RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace tsim::core
