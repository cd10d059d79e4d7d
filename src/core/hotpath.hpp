// Hot-path purity annotations, consumed by tools/hotpath/toposense_hotpath.
//
// The event datapath (event-queue pop, LinkHot enqueue/tx-complete, CSR
// fan-out credit, fluid relaxation passes, shard worker inner loop) must stay
// allocation-, lock-, syscall-, and throw-free: benchmarks observed that
// property, these annotations make it a statically checked contract.
//
//  * HOT_PATH marks a function as a datapath ROOT: the analyzer walks every
//    call reachable from it and flags heap allocation, growing container
//    calls, mutex/CV acquisition, I/O and logging, `throw`, and wall-clock or
//    ambient-random sources (docs/static-analysis.md, "Hot-path purity
//    analyzer").
//  * HOT_PATH_EXEMPT("reason") marks an audited cold branch — a function
//    reachable from a root whose body is deliberately outside the contract
//    (epoch-amortized rebuilds, first-use interning, fault-window
//    diagnostics). The reason string is mandatory; the analyzer rejects an
//    empty one. Exempt functions terminate the reachability walk, so keep
//    them leaves of the hot region.
//  * Line-level grants use `// HOTPATH_ALLOW(rule: reason)` comments for
//    operations that are inside the contract's spirit but trip a rule
//    textually (push_back into capacity reserved at setup, the one
//    shard-claim lock per window). See docs/static-analysis.md for the
//    catalogue of rule names.
//
// On Clang the macros expand to [[clang::annotate]] so AST tooling sees them;
// elsewhere they compile away. toposense_hotpath itself matches the macro
// tokens, so the contract is enforced on every toolchain.
#pragma once

#if defined(__clang__)
#define HOT_PATH [[clang::annotate("toposense::hot_path")]]
#define HOT_PATH_EXEMPT(reason) [[clang::annotate("toposense::hot_path_exempt:" reason)]]
#else
#define HOT_PATH
#define HOT_PATH_EXEMPT(reason)
#endif
