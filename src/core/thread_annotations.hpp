// Clang thread-safety analysis attributes, compiled away on other toolchains.
//
// The simulator's concurrency contract is narrow by design — a Simulation is
// single-threaded, and the only cross-thread surfaces are sim::WorkerPool
// (which runs ShardExecutor's shard windows and FluidEngine's split walks)
// and the handoff channels ShardExecutor drains (docs/sharding.md). These
// macros let Clang's `-Wthread-safety` analysis prove, at compile time, that
// every access to that shared state holds the right lock; CI builds with
// `-Werror=thread-safety-analysis` so a violation is a build break, not a
// TSan report three jobs later.
//
// Use core::Mutex / core::LockGuard (core/mutex.hpp)
// instead of annotating raw std::mutex members — the wrapper carries the
// capability attributes once, so call sites stay plain C++.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define TS_ATTRIBUTE(x) __attribute__((x))
#else
#define TS_ATTRIBUTE(x)  // no-op off Clang
#endif

/// Marks a class as a lockable capability ("mutex" names the capability kind
/// in diagnostics).
#define TS_CAPABILITY(x) TS_ATTRIBUTE(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (std::lock_guard-shaped types).
#define TS_SCOPED_CAPABILITY TS_ATTRIBUTE(scoped_lockable)

/// Declares that a member is protected by the given capability: reads require
/// the capability shared, writes require it exclusively.
#define TS_GUARDED_BY(x) TS_ATTRIBUTE(guarded_by(x))

/// Like TS_GUARDED_BY for the data *pointed to* by a pointer member.
#define TS_PT_GUARDED_BY(x) TS_ATTRIBUTE(pt_guarded_by(x))

/// The function may only be called while holding the capability exclusively.
#define TS_REQUIRES(...) TS_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// The function may only be called while holding the capability shared.
#define TS_REQUIRES_SHARED(...) TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define TS_ACQUIRE(...) TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// The function releases the capability (which must be held on entry).
#define TS_RELEASE(...) TS_ATTRIBUTE(release_capability(__VA_ARGS__))

/// The function may only be called while *not* holding the capability
/// (deadlock guard for self-locking public entry points).
#define TS_EXCLUDES(...) TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the named capability.
#define TS_RETURN_CAPABILITY(x) TS_ATTRIBUTE(lock_returned(x))

/// Escape hatch: the function's locking discipline is intentionally outside
/// what the analysis can model. Every use must carry a justification comment.
#define TS_NO_THREAD_SAFETY_ANALYSIS TS_ATTRIBUTE(no_thread_safety_analysis)
