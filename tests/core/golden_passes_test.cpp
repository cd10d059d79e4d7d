// Golden tests pinning the dense (link-id indexed) pass implementations to a
// straightforward map-based reference, written the way the seed implemented
// them. The refactor is required to be a pure data-layout change: every
// derived quantity must match the reference bit-for-bit (EXPECT_EQ on
// doubles, not EXPECT_NEAR), and repeated runs must be byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/passes.hpp"
#include "core/toposense.hpp"
#include "sim/random.hpp"

namespace tsim::core {
namespace {

using namespace tsim::sim::time_literals;

constexpr double kInf = std::numeric_limits<double>::infinity();

SessionNodeInput node(net::NodeId id, net::NodeId parent) {
  SessionNodeInput n;
  n.node = id;
  n.parent = parent;
  return n;
}

SessionNodeInput receiver(net::NodeId id, net::NodeId parent, double loss, std::uint64_t bytes,
                          int sub) {
  SessionNodeInput n = node(id, parent);
  n.is_receiver = true;
  n.loss_rate = tsim::units::LossFraction{loss};
  n.bytes_received = tsim::units::Bytes{bytes};
  n.subscription = sub;
  return n;
}

Params params() {
  Params p;
  p.p_threshold = 0.02;
  p.estimate_shared_links_only = false;
  return p;
}

/// Three sessions over overlapping trees: a shared backbone link (1,2), two
/// shared mid links, and private access links — enough aliasing to make an
/// indexing bug visible.
std::vector<SessionInput> fixture_sessions() {
  std::vector<SessionInput> sessions(3);
  sessions[0].session = 0;
  sessions[0].source = 1;
  sessions[0].nodes = {node(1, net::kInvalidNode), node(2, 1),     node(3, 2),
                       receiver(100, 3, 0.05, 40'000, 3),          receiver(101, 3, 0.06, 35'000, 2),
                       node(4, 2),                                 receiver(102, 4, 0.0, 90'000, 5)};
  sessions[1].session = 1;
  sessions[1].source = 1;
  sessions[1].nodes = {node(1, net::kInvalidNode), node(2, 1), node(3, 2),
                       receiver(110, 3, 0.04, 30'000, 2), receiver(111, 2, 0.0, 80'000, 4)};
  sessions[2].session = 2;
  sessions[2].source = 1;
  sessions[2].nodes = {node(1, net::kInvalidNode), node(2, 1),
                       receiver(120, 2, 0.09, 20'000, 1)};
  return sessions;
}

CapacityEstimator fixture_estimator(const Params& p) {
  CapacityEstimator est{p};
  est.update({LinkObservation{{1, 2}, {{0, 0.05, 60'000}, {1, 0.04, 50'000}, {2, 0.09, 20'000}}},
              LinkObservation{{2, 3}, {{0, 0.05, 40'000}, {1, 0.04, 30'000}}},
              LinkObservation{{3, 100}, {{0, 0.05, 40'000}}}},
             1_s);
  return est;
}

/// Seed-style reference for compute_bottlenecks: capacities looked up per
/// LinkKey in a map, no interned ids.
void reference_bottlenecks(LabeledTree& lt, const CapacityEstimator& capacities) {
  const TreeIndex& tree = lt.tree;
  const auto& order = tree.bfs_order();
  for (const auto idx : order) {
    const std::size_t i = static_cast<std::size_t>(idx);
    const int p = tree.parent(i);
    if (p < 0) {
      lt.bottleneck_bps[i] = kInf;
      continue;
    }
    const double cap = capacities.capacity_bps(
        LinkKey{tree.node(static_cast<std::size_t>(p)).node, tree.node(i).node});
    lt.bottleneck_bps[i] = std::min(lt.bottleneck_bps[static_cast<std::size_t>(p)], cap);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t i = static_cast<std::size_t>(*it);
    if (tree.is_leaf(i)) {
      lt.max_handle_bps[i] = lt.bottleneck_bps[i];
      continue;
    }
    double best = tree.node(i).is_receiver ? lt.bottleneck_bps[i] : 0.0;
    for (const auto c : tree.children(i)) {
      best = std::max(best, lt.max_handle_bps[static_cast<std::size_t>(c)]);
    }
    lt.max_handle_bps[i] = best;
  }
}

/// Seed-style reference for compute_fair_shares: per-link state lives in
/// unordered_maps keyed by LinkKey. Accumulation still walks sessions in
/// order and nodes in BFS order, so the float operations are the same
/// sequence as the dense core — any divergence is a real behaviour change.
void reference_fair_shares(std::vector<LabeledTree>& trees, const CapacityEstimator& capacities,
                           const Params& p) {
  const auto uplink = [](const LabeledTree& lt, std::size_t i) {
    const int par = lt.tree.parent(i);
    return LinkKey{lt.tree.node(static_cast<std::size_t>(par)).node, lt.tree.node(i).node};
  };

  std::unordered_map<LinkKey, int> crossing;
  for (const LabeledTree& lt : trees) {
    for (const auto idx : lt.tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      if (lt.tree.parent(i) >= 0) ++crossing[uplink(lt, i)];
    }
  }

  const double base = p.layers.base_rate.bps();
  std::vector<std::vector<double>> x(trees.size());
  for (std::size_t s = 0; s < trees.size(); ++s) {
    const LabeledTree& lt = trees[s];
    const TreeIndex& tree = lt.tree;
    std::vector<double> headroom(tree.size(), kInf);
    for (const auto idx : tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      const int par = tree.parent(i);
      if (par < 0) continue;
      const LinkKey key = uplink(lt, i);
      const double cap = capacities.capacity_bps(key);
      double avail = kInf;
      if (cap != kInf) {
        avail = cap - base * static_cast<double>(crossing[key] - 1);
        avail = std::max(avail, base);
      }
      headroom[i] = std::min(headroom[static_cast<std::size_t>(par)], avail);
    }
    x[s].assign(tree.size(), 0.0);
    const auto& order = tree.bfs_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::size_t i = static_cast<std::size_t>(*it);
      double xi = 0.0;
      if (tree.node(i).is_receiver) {
        xi = headroom[i] == kInf
                 ? static_cast<double>(p.layers.num_layers)
                 : static_cast<double>(p.layers.max_layers_for_bandwidth(
                           tsim::units::BitsPerSec{headroom[i]}));
      }
      for (const auto c : tree.children(i)) {
        xi = std::max(xi, x[s][static_cast<std::size_t>(c)]);
      }
      x[s][i] = std::max(xi, 1.0);
    }
  }

  std::unordered_map<LinkKey, double> x_sum;
  for (std::size_t s = 0; s < trees.size(); ++s) {
    const LabeledTree& lt = trees[s];
    for (const auto idx : lt.tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      if (lt.tree.parent(i) >= 0) x_sum[uplink(lt, i)] += x[s][i];
    }
  }

  for (std::size_t s = 0; s < trees.size(); ++s) {
    LabeledTree& lt = trees[s];
    const TreeIndex& tree = lt.tree;
    for (const auto idx : tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      const int par = tree.parent(i);
      if (par < 0) {
        lt.share_bps[i] = kInf;
        continue;
      }
      const LinkKey key = uplink(lt, i);
      const double cap = capacities.capacity_bps(key);
      double share = kInf;
      if (cap != kInf) {
        share = crossing[key] > 1 ? x[s][i] * cap / x_sum[key] : cap;
        share = std::max(share, base);
      }
      lt.share_bps[i] = std::min(lt.share_bps[static_cast<std::size_t>(par)], share);
    }
  }
}

std::vector<LabeledTree> build_labeled(const std::vector<SessionInput>& sessions,
                                       const Params& p) {
  std::vector<LabeledTree> trees;
  for (const SessionInput& s : sessions) {
    trees.emplace_back(TreeIndex{s});
    label_congestion(trees.back(), p);
  }
  return trees;
}

/// Interns every tree's uplinks in `links` (as TopoSense does per topology
/// epoch) and returns the trees' addresses in session order.
std::vector<LabeledTree*> assign_ids(std::vector<LabeledTree>& trees, LinkInterner& links) {
  std::vector<LabeledTree*> ptrs;
  for (LabeledTree& lt : trees) {
    assign_link_ids(lt, links);
    ptrs.push_back(&lt);
  }
  return ptrs;
}

TEST(GoldenPassesTest, BottlenecksMatchReferenceExactly) {
  const Params p = params();
  CapacityEstimator est = fixture_estimator(p);
  std::vector<LabeledTree> dense = build_labeled(fixture_sessions(), p);
  std::vector<LabeledTree> ref = build_labeled(fixture_sessions(), p);
  assign_ids(dense, est.links());
  std::vector<double> cap_by_id;
  est.snapshot_capacities(cap_by_id);
  for (std::size_t s = 0; s < dense.size(); ++s) {
    compute_bottlenecks(dense[s], cap_by_id);
    reference_bottlenecks(ref[s], est);
    ASSERT_EQ(dense[s].tree.size(), ref[s].tree.size());
    for (std::size_t i = 0; i < dense[s].tree.size(); ++i) {
      EXPECT_EQ(dense[s].bottleneck_bps[i], ref[s].bottleneck_bps[i]) << "s=" << s << " i=" << i;
      EXPECT_EQ(dense[s].max_handle_bps[i], ref[s].max_handle_bps[i]) << "s=" << s << " i=" << i;
    }
  }
}

TEST(GoldenPassesTest, FairSharesMatchReferenceExactly) {
  const Params p = params();
  CapacityEstimator est = fixture_estimator(p);
  std::vector<LabeledTree> dense = build_labeled(fixture_sessions(), p);
  std::vector<LabeledTree> ref = build_labeled(fixture_sessions(), p);
  const std::vector<LabeledTree*> ptrs = assign_ids(dense, est.links());
  std::vector<double> cap_by_id;
  est.snapshot_capacities(cap_by_id);
  for (LabeledTree* lt : ptrs) compute_bottlenecks(*lt, cap_by_id);
  for (auto& lt : ref) reference_bottlenecks(lt, est);
  PassWorkspace ws;
  compute_fair_shares(ptrs, cap_by_id, p, ws);
  reference_fair_shares(ref, est, p);
  for (std::size_t s = 0; s < dense.size(); ++s) {
    for (std::size_t i = 0; i < dense[s].tree.size(); ++i) {
      // Exact equality: the dense core must perform the identical float
      // operation sequence, not an approximation of it.
      EXPECT_EQ(dense[s].share_bps[i], ref[s].share_bps[i]) << "s=" << s << " i=" << i;
    }
  }
}

TEST(GoldenPassesTest, ObservationOrderIsFirstEncounterAndRepeatable) {
  const Params p = params();
  std::vector<LabeledTree> trees = build_labeled(fixture_sessions(), p);
  LinkInterner links;
  const std::vector<LabeledTree*> ptrs = assign_ids(trees, links);
  // A fresh interner over the same sessions assigns the same ids.
  std::vector<LabeledTree> again = build_labeled(fixture_sessions(), p);
  LinkInterner again_links;
  assign_ids(again, again_links);
  ASSERT_EQ(links.size(), again_links.size());
  for (std::size_t s = 0; s < trees.size(); ++s) {
    EXPECT_EQ(trees[s].link_id, again[s].link_id) << s;
  }
  // First-encounter order over session 0's BFS: backbone first, then the
  // session-0 subtree edges in BFS order.
  ASSERT_GE(links.size(), 3u);
  EXPECT_EQ(links.key(0), (LinkKey{1, 2}));
  EXPECT_EQ(links.key(1), (LinkKey{2, 3}));
  EXPECT_EQ(links.key(2), (LinkKey{2, 4}));
  // The shared backbone carries all three sessions, (2,3) sessions 0 and 1.
  LinkAggregates aggregates;
  collect_link_aggregates(ptrs, p, links.size(), aggregates);
  EXPECT_EQ(aggregates.row(0).sessions, 3u);
  EXPECT_EQ(aggregates.row(1).sessions, 2u);
  EXPECT_EQ(aggregates.row(2).sessions, 1u);
}

TEST(GoldenPassesTest, TwoAlgorithmRunsAreIdentical) {
  // The determinism regression the refactor must uphold: two fresh TopoSense
  // instances fed the same input sequence produce identical outputs — no
  // hash-order, pointer-order or reuse-dependent behaviour anywhere.
  const auto run = [] {
    Params p;
    TopoSense algo{p, sim::Rng{7}};
    std::vector<AlgorithmOutput> outs;
    sim::Rng loss_rng{99};
    AlgorithmInput input;
    input.window = 1_s;
    input.sessions = fixture_sessions();
    for (int k = 0; k < 50; ++k) {
      for (SessionInput& s : input.sessions) {
        for (SessionNodeInput& n : s.nodes) {
          if (!n.is_receiver) continue;
          n.loss_rate = tsim::units::LossFraction{
              loss_rng.bernoulli(0.3) ? loss_rng.uniform(0.03, 0.2) : 0.0};
          n.bytes_received = tsim::units::Bytes{loss_rng.uniform_int(10'000, 100'000)};
        }
      }
      outs.push_back(algo.run_interval(input, sim::Time::seconds(1 + k)));
    }
    return outs;
  };

  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].prescriptions.size(), b[k].prescriptions.size()) << k;
    for (std::size_t i = 0; i < a[k].prescriptions.size(); ++i) {
      EXPECT_EQ(a[k].prescriptions[i].receiver, b[k].prescriptions[i].receiver);
      EXPECT_EQ(a[k].prescriptions[i].session, b[k].prescriptions[i].session);
      EXPECT_EQ(a[k].prescriptions[i].subscription, b[k].prescriptions[i].subscription);
    }
    ASSERT_EQ(a[k].diagnostics.size(), b[k].diagnostics.size()) << k;
  }
}

}  // namespace
}  // namespace tsim::core
