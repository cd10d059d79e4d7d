#include "core/optimal_allocator.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/tree_index.hpp"
#include "sim/random.hpp"

namespace tsim::core {
namespace {

SessionNodeInput node(net::NodeId id, net::NodeId parent, bool receiver = false) {
  SessionNodeInput n;
  n.node = id;
  n.parent = parent;
  n.is_receiver = receiver;
  return n;
}

int level_of(const std::vector<Prescription>& alloc, net::NodeId rcv) {
  for (const auto& p : alloc) {
    if (p.receiver == rcv) return p.subscription;
  }
  return -1;
}

/// Paper Topology A as a single allocation problem: two sets behind 256 Kbps
/// and 1 Mbps bottlenecks.
struct TopologyAProblem {
  std::vector<SessionInput> sessions;
  std::unordered_map<LinkKey, units::BitsPerSec> capacities;

  TopologyAProblem() {
    SessionInput in;
    in.session = 0;
    in.source = 0;
    in.nodes = {node(0, net::kInvalidNode), node(1, 0),      node(2, 1),
                node(3, 1),                 node(10, 2, true), node(11, 2, true),
                node(20, 3, true),          node(21, 3, true)};
    sessions.push_back(in);
    capacities[{0, 1}] = units::BitsPerSec{10e6};
    capacities[{1, 2}] = units::BitsPerSec{256e3};
    capacities[{1, 3}] = units::BitsPerSec{1e6};
    capacities[{2, 10}] = units::BitsPerSec{10e6};
    capacities[{2, 11}] = units::BitsPerSec{10e6};
    capacities[{3, 20}] = units::BitsPerSec{10e6};
    capacities[{3, 21}] = units::BitsPerSec{10e6};
  }
};

TEST(OptimalAllocatorTest, TopologyAMatchesClosedForm) {
  TopologyAProblem problem;
  const OptimalAllocator allocator{traffic::LayerSpec{}, problem.capacities};
  const auto alloc = allocator.allocate(problem.sessions);
  EXPECT_EQ(level_of(alloc, 10), 3);  // 224 Kbps <= 256 Kbps
  EXPECT_EQ(level_of(alloc, 11), 3);
  EXPECT_EQ(level_of(alloc, 20), 5);  // 992 Kbps <= 1 Mbps
  EXPECT_EQ(level_of(alloc, 21), 5);
}

TEST(OptimalAllocatorTest, TopologyBMatchesClosedForm) {
  // 4 single-receiver sessions over one shared 2 Mbps link.
  std::vector<SessionInput> sessions;
  std::unordered_map<LinkKey, units::BitsPerSec> caps;
  caps[{1, 2}] = units::BitsPerSec{2e6};
  for (net::SessionId k = 0; k < 4; ++k) {
    SessionInput in;
    in.session = k;
    in.source = 1;
    in.nodes = {node(1, net::kInvalidNode), node(2, 1),
                node(static_cast<net::NodeId>(100 + k), 2, true)};
    sessions.push_back(in);
    caps[{2, static_cast<net::NodeId>(100 + k)}] = units::BitsPerSec{10e6};
  }
  const OptimalAllocator allocator{traffic::LayerSpec{}, caps};
  const auto alloc = allocator.allocate(sessions);
  for (net::SessionId k = 0; k < 4; ++k) {
    EXPECT_EQ(level_of(alloc, static_cast<net::NodeId>(100 + k)), 4) << k;
  }
}

TEST(OptimalAllocatorTest, SharedLayersAreFreeForSiblings) {
  // Multicast economics: two receivers under the same bottleneck cost the
  // link once, not twice. A 256 Kbps link supports 3 layers for BOTH.
  std::vector<SessionInput> sessions;
  SessionInput in;
  in.session = 0;
  in.source = 0;
  in.nodes = {node(0, net::kInvalidNode), node(1, 0), node(10, 1, true), node(11, 1, true)};
  sessions.push_back(in);
  std::unordered_map<LinkKey, units::BitsPerSec> caps;
  caps[{0, 1}] = units::BitsPerSec{256e3};
  caps[{1, 10}] = units::BitsPerSec{10e6};
  caps[{1, 11}] = units::BitsPerSec{10e6};
  const OptimalAllocator allocator{traffic::LayerSpec{}, caps};
  const auto alloc = allocator.allocate(sessions);
  EXPECT_EQ(level_of(alloc, 10), 3);
  EXPECT_EQ(level_of(alloc, 11), 3);
}

TEST(OptimalAllocatorTest, StarvedReceiverStaysAtZero) {
  std::vector<SessionInput> sessions;
  SessionInput in;
  in.session = 0;
  in.source = 0;
  in.nodes = {node(0, net::kInvalidNode), node(10, 0, true)};
  sessions.push_back(in);
  std::unordered_map<LinkKey, units::BitsPerSec> caps;
  caps[{0, 10}] = units::BitsPerSec{10e3};  // below even the 32 Kbps base layer
  const OptimalAllocator allocator{traffic::LayerSpec{}, caps};
  const auto alloc = allocator.allocate(sessions);
  EXPECT_EQ(level_of(alloc, 10), 0);
}

TEST(OptimalAllocatorTest, UnlistedLinksAreUnconstrained) {
  std::vector<SessionInput> sessions;
  SessionInput in;
  in.session = 0;
  in.source = 0;
  in.nodes = {node(0, net::kInvalidNode), node(10, 0, true)};
  sessions.push_back(in);
  const OptimalAllocator allocator{traffic::LayerSpec{}, {}};
  const auto alloc = allocator.allocate(sessions);
  EXPECT_EQ(level_of(alloc, 10), 6);
}

TEST(OptimalAllocatorTest, LinkUsageCountsSubtreeMaximum) {
  TopologyAProblem problem;
  const OptimalAllocator allocator{traffic::LayerSpec{}, problem.capacities};
  // Levels in discovery order: receivers 10, 11, 20, 21.
  const std::vector<int> levels{2, 3, 1, 5};
  const traffic::LayerSpec spec;
  EXPECT_DOUBLE_EQ(allocator.link_usage(problem.sessions, levels, LinkKey{1, 2}).bps(),
                   spec.cumulative_rate(3).bps());
  EXPECT_DOUBLE_EQ(allocator.link_usage(problem.sessions, levels, LinkKey{1, 3}).bps(),
                   spec.cumulative_rate(5).bps());
  EXPECT_DOUBLE_EQ(allocator.link_usage(problem.sessions, levels, LinkKey{0, 1}).bps(),
                   spec.cumulative_rate(5).bps());
  EXPECT_DOUBLE_EQ(allocator.link_usage(problem.sessions, levels, LinkKey{2, 10}).bps(),
                   spec.cumulative_rate(2).bps());
}

// Properties over random trees: the greedy result is feasible, and maximal
// in the sense that no single receiver can be raised one more layer.
class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorProperty, FeasibleAndPerReceiverMaximal) {
  sim::Rng rng{GetParam()};
  std::vector<SessionInput> sessions;
  std::unordered_map<LinkKey, units::BitsPerSec> caps;
  SessionInput in;
  in.session = 0;
  in.source = 0;
  in.nodes.push_back(node(0, net::kInvalidNode));
  std::vector<net::NodeId> attach{0};
  for (int i = 1; i <= 12; ++i) {
    const auto parent = attach[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(attach.size()) - 1))];
    const auto id = static_cast<net::NodeId>(i);
    const bool receiver = i > 4;
    in.nodes.push_back(node(id, parent, receiver));
    caps[{parent, id}] = units::BitsPerSec{rng.uniform(64e3, 3e6)};
    if (!receiver) attach.push_back(id);
  }
  sessions.push_back(in);

  const OptimalAllocator allocator{traffic::LayerSpec{}, caps};
  const auto alloc = allocator.allocate(sessions);

  std::vector<int> levels;
  for (const auto& n : in.nodes) {
    if (n.is_receiver) levels.push_back(level_of(alloc, n.node));
  }
  ASSERT_TRUE(allocator.feasible(sessions, levels));
  for (std::size_t r = 0; r < levels.size(); ++r) {
    if (levels[r] >= 6) continue;
    std::vector<int> raised = levels;
    ++raised[r];
    EXPECT_FALSE(allocator.feasible(sessions, raised)) << "receiver slot " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

/// The allocator's raise loop before the level sweep, kept as the reference:
/// scan every receiver for the lowest unblocked one (ties by discovery
/// order), try one layer up against the tracked links on its root path, and
/// block it on the first overflow. O(R^2 L); returns levels in discovery
/// order.
std::vector<int> argmin_reference(const traffic::LayerSpec& layers,
                                  const std::unordered_map<LinkKey, units::BitsPerSec>& capacities,
                                  const std::vector<SessionInput>& sessions) {
  struct ReceiverRef {
    std::size_t session_index;
    std::size_t node_index;
  };
  std::vector<ReceiverRef> refs;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    for (std::size_t n = 0; n < sessions[s].nodes.size(); ++n) {
      if (sessions[s].nodes[n].is_receiver) refs.push_back(ReceiverRef{s, n});
    }
  }
  std::vector<int> levels(refs.size(), 0);
  std::vector<bool> blocked(refs.size(), false);

  struct TrackedLink {
    double capacity;
    double usage{0.0};
    std::vector<int> session_max;
  };
  std::vector<TrackedLink> links;
  std::unordered_map<LinkKey, std::size_t> link_index;
  std::vector<TreeIndex> trees;
  trees.reserve(sessions.size());
  for (const SessionInput& session : sessions) trees.emplace_back(session);

  std::vector<std::vector<std::size_t>> paths(refs.size());
  for (std::size_t r = 0; r < refs.size(); ++r) {
    const std::size_t si = refs[r].session_index;
    const TreeIndex& tree = trees[si];
    for (int i = tree.index_of(sessions[si].nodes[refs[r].node_index].node); i >= 0;) {
      const int p = tree.parent(static_cast<std::size_t>(i));
      if (p < 0) break;
      const LinkKey key{tree.node(static_cast<std::size_t>(p)).node,
                        tree.node(static_cast<std::size_t>(i)).node};
      if (const auto cap = capacities.find(key); cap != capacities.end()) {
        const auto [it, inserted] = link_index.try_emplace(key, links.size());
        if (inserted) {
          links.push_back(
              TrackedLink{cap->second.bps(), 0.0, std::vector<int>(sessions.size(), 0)});
        }
        paths[r].push_back(it->second);
      }
      i = p;
    }
  }

  while (true) {
    int best = -1;
    for (std::size_t r = 0; r < refs.size(); ++r) {
      if (blocked[r] || levels[r] >= layers.num_layers) continue;
      if (best < 0 || levels[r] < levels[static_cast<std::size_t>(best)]) {
        best = static_cast<int>(r);
      }
    }
    if (best < 0) break;
    const auto r = static_cast<std::size_t>(best);
    const std::size_t si = refs[r].session_index;
    const int next = levels[r] + 1;
    bool ok = true;
    for (const std::size_t li : paths[r]) {
      const TrackedLink& link = links[li];
      if (next <= link.session_max[si]) continue;
      const double usage = link.usage - layers.cumulative_rate(link.session_max[si]).bps() +
                           layers.cumulative_rate(next).bps();
      if (usage > link.capacity) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      blocked[r] = true;
      continue;
    }
    levels[r] = next;
    for (const std::size_t li : paths[r]) {
      TrackedLink& link = links[li];
      if (next <= link.session_max[si]) continue;
      link.usage += layers.cumulative_rate(next).bps() -
                    layers.cumulative_rate(link.session_max[si]).bps();
      link.session_max[si] = next;
    }
  }
  return levels;
}

// Random multi-session problems over one shared physical tree: sessions
// rooted at the tree root or at an inner node, overlapping receiver sets,
// some links unconstrained, varied layer counts and growth factors. The
// level sweep must reproduce the argmin loop's allocation exactly.
class AllocatorSweepEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorSweepEquivalence, MatchesArgminReferenceExactly) {
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    const int node_count = static_cast<int>(rng.uniform_int(2, 60));
    std::vector<net::NodeId> parent_of(static_cast<std::size_t>(node_count), net::kInvalidNode);
    std::unordered_map<LinkKey, units::BitsPerSec> caps;
    for (int i = 1; i < node_count; ++i) {
      const auto parent = static_cast<net::NodeId>(rng.uniform_int(0, i - 1));
      parent_of[static_cast<std::size_t>(i)] = parent;
      if (rng.bernoulli(0.85)) {
        caps[{parent, static_cast<net::NodeId>(i)}] = units::BitsPerSec{rng.uniform(16e3, 4e6)};
      }
    }
    auto descends_from = [&](net::NodeId node, net::NodeId root) {
      for (net::NodeId at = node; at != net::kInvalidNode; at = parent_of[at]) {
        if (at == root) return true;
      }
      return false;
    };

    std::vector<SessionInput> sessions;
    const int session_count = static_cast<int>(rng.uniform_int(1, 6));
    for (int k = 0; k < session_count; ++k) {
      const auto source = static_cast<net::NodeId>(
          rng.bernoulli(0.5) ? 0 : rng.uniform_int(0, node_count - 1));
      std::map<net::NodeId, bool> members;  // node -> is_receiver, ordered by id
      members[source] = false;
      for (net::NodeId n = 0; n < static_cast<net::NodeId>(node_count); ++n) {
        if (n == source || !descends_from(n, source) || !rng.bernoulli(0.4)) continue;
        for (net::NodeId at = n; at != source; at = parent_of[at]) members.try_emplace(at, false);
        members[n] = true;
      }
      SessionInput in;
      in.session = static_cast<net::SessionId>(k);
      in.source = source;
      for (const auto& [n, receiver] : members) {
        in.nodes.push_back(node(n, n == source ? net::kInvalidNode : parent_of[n], receiver));
      }
      sessions.push_back(in);
    }

    traffic::LayerSpec layers;
    layers.num_layers = static_cast<int>(rng.uniform_int(1, 8));
    layers.layer_growth = rng.bernoulli(0.5) ? 2.0 : 1.5;
    const OptimalAllocator allocator{layers, caps};
    const auto alloc = allocator.allocate(sessions);
    const std::vector<int> expected = argmin_reference(layers, caps, sessions);
    ASSERT_EQ(alloc.size(), expected.size());
    std::size_t r = 0;
    for (const SessionInput& in : sessions) {
      for (const SessionNodeInput& n : in.nodes) {
        if (!n.is_receiver) continue;
        EXPECT_EQ(alloc[r].session, in.session);
        EXPECT_EQ(alloc[r].receiver, n.node);
        EXPECT_EQ(alloc[r].subscription, expected[r])
            << "round " << round << " receiver slot " << r;
        ++r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorSweepEquivalence,
                         ::testing::Values(1u, 7u, 42u, 1234u, 98765u));

}  // namespace
}  // namespace tsim::core
