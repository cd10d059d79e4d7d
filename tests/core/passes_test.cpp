#include "core/passes.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tsim::core {
namespace {

using namespace tsim::sim::time_literals;

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

/// Fig 1-style tree: 1 -> 2 -> {3, 4}; 1 -> 5 -> {6}.
SessionInput paper_tree(double loss3, double loss4, double loss6) {
  SessionInput in;
  in.session = 0;
  in.source = 1;
  in.nodes = {node(1, net::kInvalidNode),
              node(2, 1),
              receiver(3, 2, loss3, 10'000, 2),
              receiver(4, 2, loss4, 20'000, 3),
              node(5, 1),
              receiver(6, 5, loss6, 60'000, 5)};
  return in;
}

Params params() {
  Params p;
  p.p_threshold = 0.02;
  // The pass tests feed hand-built estimates for arbitrary links.
  p.estimate_shared_links_only = false;
  return p;
}

/// Interns every tree's uplinks in `links` and returns the trees' addresses
/// in session order.
std::vector<LabeledTree*> assign_ids(std::vector<LabeledTree>& trees, LinkInterner& links) {
  std::vector<LabeledTree*> ptrs;
  for (LabeledTree& lt : trees) {
    assign_link_ids(lt, links);
    ptrs.push_back(&lt);
  }
  return ptrs;
}

/// Stages 3-4 over `trees` the way TopoSense::run_interval runs them: uplinks
/// interned in the estimator's table, one per-id capacity snapshot, one
/// PassWorkspace.
void run_link_passes(std::vector<LabeledTree>& trees, CapacityEstimator& est, const Params& p) {
  const std::vector<LabeledTree*> ptrs = assign_ids(trees, est.links());
  std::vector<double> cap_by_id;
  est.snapshot_capacities(cap_by_id);
  for (LabeledTree* lt : ptrs) compute_bottlenecks(*lt, cap_by_id);
  PassWorkspace ws;
  compute_fair_shares(ptrs, cap_by_id, p, ws);
}

TEST(CongestionTest, InternalLossIsMinOfChildren) {
  LabeledTree lt{TreeIndex{paper_tree(0.10, 0.04, 0.0)}};
  label_congestion(lt, params());
  const auto i2 = static_cast<std::size_t>(lt.tree.index_of(2));
  EXPECT_DOUBLE_EQ(lt.loss[i2], 0.04);
  const auto i1 = static_cast<std::size_t>(lt.tree.index_of(1));
  EXPECT_DOUBLE_EQ(lt.loss[i1], 0.0);  // min over node2 (0.04) and node5 (0.0)
}

TEST(CongestionTest, AllChildrenSimilarLossCongestsParent) {
  LabeledTree lt{TreeIndex{paper_tree(0.10, 0.11, 0.0)}};
  label_congestion(lt, params());
  EXPECT_TRUE(lt.congested[static_cast<std::size_t>(lt.tree.index_of(2))]);
  EXPECT_FALSE(lt.congested[static_cast<std::size_t>(lt.tree.index_of(5))]);
  EXPECT_FALSE(lt.congested[static_cast<std::size_t>(lt.tree.index_of(1))]);
}

TEST(CongestionTest, DissimilarLossesDoNotCongestParent) {
  // Both above threshold, but far apart: deviation not negligible.
  LabeledTree lt{TreeIndex{paper_tree(0.30, 0.04, 0.0)}};
  label_congestion(lt, params());
  EXPECT_FALSE(lt.congested[static_cast<std::size_t>(lt.tree.index_of(2))]);
  // The receivers themselves are congested.
  EXPECT_TRUE(lt.congested[static_cast<std::size_t>(lt.tree.index_of(3))]);
  EXPECT_TRUE(lt.congested[static_cast<std::size_t>(lt.tree.index_of(4))]);
}

TEST(CongestionTest, OneCleanChildBlocksParentCongestion) {
  LabeledTree lt{TreeIndex{paper_tree(0.10, 0.0, 0.0)}};
  label_congestion(lt, params());
  EXPECT_FALSE(lt.congested[static_cast<std::size_t>(lt.tree.index_of(2))]);
}

TEST(CongestionTest, SubtreeMaxBytesPropagates) {
  LabeledTree lt{TreeIndex{paper_tree(0.0, 0.0, 0.0)}};
  label_congestion(lt, params());
  EXPECT_EQ(lt.max_subtree_bytes[static_cast<std::size_t>(lt.tree.index_of(2))], 20'000u);
  EXPECT_EQ(lt.max_subtree_bytes[static_cast<std::size_t>(lt.tree.index_of(5))], 60'000u);
  EXPECT_EQ(lt.max_subtree_bytes[static_cast<std::size_t>(lt.tree.index_of(1))], 60'000u);
}

TEST(CongestionTest, ParentCongestionPropagatesDown) {
  // Both subtrees fully congested with similar loss everywhere -> root of
  // congestion close to the top; children inherit the flag.
  SessionInput in;
  in.session = 0;
  in.source = 1;
  in.nodes = {node(1, net::kInvalidNode), node(2, 1), receiver(3, 2, 0.10, 1000, 2),
              receiver(4, 2, 0.105, 1000, 2)};
  LabeledTree lt{TreeIndex{in}};
  label_congestion(lt, params());
  // node2 congested (children similar); node1's only child congested with
  // loss 0.10 -> node1 congested too; flag floods down.
  for (std::size_t i = 0; i < lt.tree.size(); ++i) {
    EXPECT_TRUE(lt.congested[i]) << i;
  }
}

TEST(LinkObservationTest, CollectsPerLinkPerSession) {
  std::vector<LabeledTree> trees;
  trees.emplace_back(TreeIndex{paper_tree(0.05, 0.06, 0.0)});
  label_congestion(trees.back(), params());

  SessionInput other;
  other.session = 1;
  other.source = 1;
  other.nodes = {node(1, net::kInvalidNode), node(2, 1), receiver(7, 2, 0.08, 5'000, 1)};
  trees.emplace_back(TreeIndex{other});
  label_congestion(trees.back(), params());

  LinkInterner links;
  const std::vector<LabeledTree*> ptrs = assign_ids(trees, links);
  LinkAggregates aggregates;
  collect_link_aggregates(ptrs, params(), links.size(), aggregates);
  // Edges: 1->2 (shared), 2->3, 2->4, 1->5, 5->6, 2->7 = 6 distinct links.
  ASSERT_EQ(links.size(), 6u);
  EXPECT_EQ(aggregates.row(links.find(LinkKey{1, 2})).sessions, 2u);
  EXPECT_EQ(aggregates.row(links.find(LinkKey{2, 7})).sessions, 1u);
}

TEST(BottleneckTest, TopDownMinAndBottomUpMax) {
  Params p = params();
  CapacityEstimator est{p};
  // Estimate only on link 1->2: 500 Kbps.
  est.update({LinkObservation{{1, 2}, {{0, 0.05, 62'500}}}}, 1_s);

  std::vector<LabeledTree> trees;
  trees.emplace_back(TreeIndex{paper_tree(0.05, 0.05, 0.0)});
  label_congestion(trees.back(), p);
  run_link_passes(trees, est, p);

  const LabeledTree& lt = trees.front();
  const auto i3 = static_cast<std::size_t>(lt.tree.index_of(3));
  const auto i6 = static_cast<std::size_t>(lt.tree.index_of(6));
  const auto i1 = static_cast<std::size_t>(lt.tree.index_of(1));
  EXPECT_NEAR(lt.bottleneck_bps[i3], 500e3, 1.0);
  EXPECT_TRUE(std::isinf(lt.bottleneck_bps[i6]));  // other branch unconstrained
  // Bottom-up max at the root: the best receiver is unconstrained.
  EXPECT_TRUE(std::isinf(lt.max_handle_bps[i1]));
  const auto i2 = static_cast<std::size_t>(lt.tree.index_of(2));
  EXPECT_NEAR(lt.max_handle_bps[i2], 500e3, 1.0);
}

TEST(FairShareTest, PaperExampleTwoSessions) {
  // Two single-receiver sessions share link (1,2) with capacity 2 Mbps.
  // Session 0's receiver is otherwise unconstrained; so is session 1's.
  // x_0 = x_1 -> equal shares of 1 Mbps each.
  Params p = params();
  p.layers.num_layers = 6;
  CapacityEstimator est{p};
  est.update({LinkObservation{{1, 2}, {{0, 0.05, 125'000}, {1, 0.05, 125'000}}}}, 1_s);
  ASSERT_NEAR(est.capacity_bps(LinkKey{1, 2}), 2e6, 1.0);

  std::vector<LabeledTree> trees;
  for (net::SessionId s = 0; s < 2; ++s) {
    SessionInput in;
    in.session = s;
    in.source = 1;
    in.nodes = {node(1, net::kInvalidNode), node(2, 1),
                receiver(100 + s, 2, 0.05, 125'000, 4)};
    trees.emplace_back(TreeIndex{in});
    label_congestion(trees.back(), p);
  }
  run_link_passes(trees, est, p);

  for (const auto& lt : trees) {
    const auto leaf = static_cast<std::size_t>(lt.tree.size() - 1);
    EXPECT_NEAR(lt.share_bps[leaf], 1e6, 1e3);
  }
}

TEST(FairShareTest, AsymmetricDownstreamBottlenecks) {
  // Shared link 2 Mbps; session 0 additionally bottlenecked at 250 Kbps
  // downstream (x_0 = 3 layers), session 1 unconstrained (x_1 = 6).
  // Shares: 3/9 and 6/9 of 2 Mbps.
  Params p = params();
  CapacityEstimator est{p};
  est.update({LinkObservation{{1, 2}, {{0, 0.05, 125'000}, {1, 0.05, 125'000}}},
              LinkObservation{{2, 10}, {{0, 0.05, 31'250}}}},
             1_s);
  ASSERT_NEAR(est.capacity_bps(LinkKey{2, 10}), 250e3, 1.0);

  std::vector<LabeledTree> trees;
  {
    SessionInput in;
    in.session = 0;
    in.source = 1;
    in.nodes = {node(1, net::kInvalidNode), node(2, 1), node(10, 2),
                receiver(100, 10, 0.05, 31'250, 3)};
    trees.emplace_back(TreeIndex{in});
  }
  {
    SessionInput in;
    in.session = 1;
    in.source = 1;
    in.nodes = {node(1, net::kInvalidNode), node(2, 1), receiver(101, 2, 0.05, 125'000, 4)};
    trees.emplace_back(TreeIndex{in});
  }
  for (auto& lt : trees) label_congestion(lt, p);
  run_link_passes(trees, est, p);

  // x_0: headroom on shared link = 2M - 1*32k; on (2,10) = 250k -> 3 layers.
  // x_1: 6 layers (headroom 2M - 32k >= 2016k... actually 1.968M < 2016k -> 5).
  const auto leaf0 = static_cast<std::size_t>(trees[0].tree.index_of(100));
  const auto leaf1 = static_cast<std::size_t>(trees[1].tree.index_of(101));
  const double x0 = 3.0;
  const double x1 = 5.0;
  EXPECT_NEAR(trees[0].share_bps[leaf0],
              std::min(x0 * 2e6 / (x0 + x1), 250e3), 1e3);
  EXPECT_NEAR(trees[1].share_bps[leaf1], x1 * 2e6 / (x0 + x1), 1e3);
}

TEST(FairShareTest, NeverBelowBaseLayer) {
  // Tiny shared capacity: every session still gets >= one base layer.
  Params p = params();
  CapacityEstimator est{p};
  est.update({LinkObservation{{1, 2}, {{0, 0.2, 2'000}, {1, 0.2, 2'000}}}}, 1_s);
  std::vector<LabeledTree> trees;
  for (net::SessionId s = 0; s < 2; ++s) {
    SessionInput in;
    in.session = s;
    in.source = 1;
    in.nodes = {node(1, net::kInvalidNode), node(2, 1), receiver(100 + s, 2, 0.2, 2'000, 1)};
    trees.emplace_back(TreeIndex{in});
    label_congestion(trees.back(), p);
  }
  run_link_passes(trees, est, p);
  for (const auto& lt : trees) {
    const auto leaf = static_cast<std::size_t>(lt.tree.size() - 1);
    EXPECT_GE(lt.share_bps[leaf], p.layers.base_rate.bps() - 1e-9);
  }
}

TEST(FairShareTest, UnsharedInfiniteLinksStayInfinite) {
  Params p = params();
  CapacityEstimator est{p};
  std::vector<LabeledTree> trees;
  trees.emplace_back(TreeIndex{paper_tree(0.0, 0.0, 0.0)});
  label_congestion(trees.back(), p);
  run_link_passes(trees, est, p);
  for (std::size_t i = 0; i < trees[0].tree.size(); ++i) {
    EXPECT_TRUE(std::isinf(trees[0].share_bps[i]));
  }
}

}  // namespace
}  // namespace tsim::core
