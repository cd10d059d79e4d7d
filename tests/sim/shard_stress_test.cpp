// ShardExecutor stress tests, built to run under ThreadSanitizer (the CI
// shard gate compiles this tier with TOPOSENSE_SANITIZE=thread). The tests
// hammer the paths where the barrier thread and the worker pool share state:
// the claim cursor, the generation handshake, repeated run_until segments
// against a persistent pool, and the error paths that must stop and join the
// pool exactly once before propagating.

#include "sim/shard_executor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"

namespace tsim::sim {
namespace {

using namespace tsim::sim::time_literals;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

/// A mesh of shards that each tick locally and forward values to the next
/// shard, driven in short run_until segments so the pool parks and resumes
/// many times per test. Keeping the shard count well above the thread count
/// contends the claim cursor: every window, each worker races to claim the
/// next un-run shard.
struct Mesh {
  explicit Mesh(std::size_t shard_count, std::size_t threads)
      : executor{ShardExecutor::Config{threads}} {
    for (std::size_t i = 0; i < shard_count; ++i) {
      sims.push_back(std::make_unique<Simulation>(900 + i));
      rngs.push_back(std::make_unique<Rng>(900 + i));
      fingerprints.push_back(kFnvOffset);
    }
    for (std::size_t i = 0; i < shard_count; ++i) executor.add_shard(*sims[i]);
    for (std::size_t i = 0; i < shard_count; ++i) {
      channels.push_back(&executor.connect(i, (i + 1) % shard_count, 8_ms));
    }
    for (std::size_t i = 0; i < shard_count; ++i) schedule_tick(i, Time::zero());
  }

  void schedule_tick(std::size_t shard, Time when) {
    Simulation& sim = *sims[shard];
    sim.at(when, [this, shard, &sim] {
      std::uint64_t& print = fingerprints[shard];
      print = mix(print, shard);
      print = mix(print, static_cast<std::uint64_t>(sim.now().as_nanoseconds()));
      const std::uint64_t value = rngs[shard]->next_u64();
      std::uint64_t& peer = fingerprints[(shard + 1) % sims.size()];
      channels[shard]->post(sim.now() + 8_ms,
                            [&peer, value] { peer = mix(peer, value); });
      if (sim.now() + 3_ms <= kStop) schedule_tick(shard, sim.now() + 3_ms);
    });
  }

  std::uint64_t combined() const {
    std::uint64_t hash = kFnvOffset;
    for (std::uint64_t print : fingerprints) hash = mix(hash, print);
    return hash;
  }

  static constexpr Time kStop = Time::milliseconds(240);

  std::vector<std::unique_ptr<Simulation>> sims;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::uint64_t> fingerprints;
  std::vector<ShardExecutor::Channel*> channels;
  ShardExecutor executor;
};

/// Drives the mesh in `segments` separate run_until calls so the worker pool
/// parks on the condition variable and is re-armed repeatedly — the claim
/// cursor, generation counter, and running-worker count all cycle each time.
std::uint64_t run_segmented(std::size_t shards, std::size_t threads, int segments) {
  Mesh mesh{shards, threads};
  const std::int64_t stop_ns = Mesh::kStop.as_nanoseconds();
  for (int i = 1; i <= segments; ++i) {
    mesh.executor.run_until(Time::nanoseconds(stop_ns * i / segments));
  }
  return mesh.combined();
}

TEST(ShardStressTest, SegmentedRunsMatchAcrossThreadCountsAndSegmentation) {
  const std::uint64_t serial = run_segmented(9, 1, 1);
  EXPECT_EQ(run_segmented(9, 1, 6), serial);
  EXPECT_EQ(run_segmented(9, 2, 6), serial);
  EXPECT_EQ(run_segmented(9, 4, 6), serial);
  EXPECT_EQ(run_segmented(9, 4, 1), serial);
}

TEST(ShardStressTest, RepeatedStartStopCyclesAreClean) {
  // Each Mesh constructs, runs segmented windows, and destructs (joining the
  // pool). Under TSan this loops the spawn/park/join lifecycle looking for
  // races in the handshake; the fingerprint check keeps it honest.
  const std::uint64_t expected = run_segmented(6, 3, 4);
  for (int cycle = 0; cycle < 8; ++cycle) {
    EXPECT_EQ(run_segmented(6, 3, 4), expected);
  }
}

TEST(ShardStressTest, LookaheadViolationLeavesExecutorDestructible) {
  // The throw happens at the barrier, after the pool ran the window. The
  // run_until scope guard must stop and join the workers exactly once, so
  // destruction after the catch neither hangs nor double-joins.
  auto violate = [] {
    Simulation a{1};
    Simulation b{2};
    ShardExecutor executor{ShardExecutor::Config{2}};
    executor.add_shard(a);
    executor.add_shard(b);
    ShardExecutor::Channel& channel = executor.connect(0, 1, 50_ms);
    a.at(1_ms, [&] { channel.post(a.now() + 1_ms, [] {}); });
    EXPECT_THROW(executor.run_until(1_s), std::logic_error);
  };
  for (int i = 0; i < 4; ++i) violate();
}

TEST(ShardStressTest, ExecutorRestartsAfterWorkerException) {
  Simulation a{1};
  Simulation b{2};
  ShardExecutor executor{ShardExecutor::Config{2}};
  executor.add_shard(a);
  executor.add_shard(b);
  executor.connect(0, 1, 20_ms);

  bool armed = true;
  a.at(5_ms, [&] {
    if (armed) throw std::runtime_error{"injected shard failure"};
  });
  int b_events = 0;
  b.at(5_ms, [&] { ++b_events; });

  EXPECT_THROW(executor.run_until(1_s), std::runtime_error);

  // The pool was stopped and joined after the barrier; a fresh run_until
  // must respawn it and make progress. One counter per shard: the two events
  // run concurrently on different threads.
  armed = false;
  int a_late_events = 0;
  int b_late_events = 0;
  a.at(2_s, [&] { ++a_late_events; });
  b.at(2_s, [&] { ++b_late_events; });
  executor.run_until(3_s);
  EXPECT_EQ(a_late_events, 1);
  EXPECT_EQ(b_late_events, 1);
}

}  // namespace
}  // namespace tsim::sim
