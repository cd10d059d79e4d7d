#include "core/passes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tsim::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fraction of children whose loss must sit close to the mean child loss for
/// an internal node to be labelled congested (the paper's eta_similar).
constexpr double kEtaSimilar = 0.6;

/// Band around the mean child loss that counts as "close": the max of this
/// absolute band and kSimilarRel times the mean. The relative term keeps
/// heavily congested siblings (e.g. 20% vs 38% loss) classified as sharing
/// one bottleneck — at high loss rates, absolute spread is large.
constexpr double kSimilarBand = 0.02;
constexpr double kSimilarRel = 0.5;
}  // namespace

LabeledTree::LabeledTree(TreeIndex t)
    : tree{std::move(t)},
      loss(tree.size(), 0.0),
      congested(tree.size(), false),
      max_subtree_bytes(tree.size(), 0),
      bottleneck_bps(tree.size(), kInf),
      max_handle_bps(tree.size(), kInf),
      share_bps(tree.size(), kInf),
      link_id(tree.size(), kNoLinkId) {}

void label_congestion(LabeledTree& lt, const Params& params) {
  const TreeIndex& tree = lt.tree;
  const auto& order = tree.bfs_order();

  // Bottom-up: loss = own (receivers) or min over children; subtree max bytes.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t i = static_cast<std::size_t>(*it);
    const SessionNodeInput& n = tree.node(i);
    if (tree.is_leaf(i)) {
      lt.loss[i] = n.is_receiver ? n.loss_rate.value() : 0.0;
      lt.max_subtree_bytes[i] = n.is_receiver ? n.bytes_received.count() : 0;
      lt.congested[i] = n.is_receiver && n.loss_rate.value() > params.p_threshold;
      continue;
    }
    double min_loss = kInf;
    double sum_loss = 0.0;
    std::uint64_t max_bytes = n.is_receiver ? n.bytes_received.count() : 0;
    std::size_t child_count = 0;
    std::size_t above_threshold = 0;
    for (const auto c : tree.children(i)) {
      const std::size_t ci = static_cast<std::size_t>(c);
      min_loss = std::min(min_loss, lt.loss[ci]);
      sum_loss += lt.loss[ci];
      max_bytes = std::max(max_bytes, lt.max_subtree_bytes[ci]);
      ++child_count;
      if (lt.loss[ci] > params.p_threshold) ++above_threshold;
    }
    // A receiver can be co-located with an internal node; fold its own loss
    // in as one more "child" observation.
    if (n.is_receiver) {
      min_loss = std::min(min_loss, n.loss_rate.value());
      sum_loss += n.loss_rate.value();
      ++child_count;
      if (n.loss_rate.value() > params.p_threshold) ++above_threshold;
    }
    lt.loss[i] = min_loss;
    lt.max_subtree_bytes[i] = max_bytes;

    // Congested iff all children lose above the threshold AND enough of them
    // sit close to the mean (negligible deviation across the subtree).
    bool self_congested = false;
    if (child_count > 0 && above_threshold == child_count) {
      const double mean = sum_loss / static_cast<double>(child_count);
      const double band = std::max(kSimilarBand, kSimilarRel * mean);
      std::size_t similar =
          n.is_receiver && std::abs(n.loss_rate.value() - mean) <= band ? 1 : 0;
      for (const auto c : tree.children(i)) {
        if (std::abs(lt.loss[static_cast<std::size_t>(c)] - mean) <= band) {
          ++similar;
        }
      }
      self_congested =
          static_cast<double>(similar) >= kEtaSimilar * static_cast<double>(child_count);
    }
    lt.congested[i] = self_congested;
  }

  // Top-down: a node is also congested when its parent is.
  for (const auto idx : order) {
    const std::size_t i = static_cast<std::size_t>(idx);
    const int p = lt.tree.parent(i);
    if (p >= 0 && lt.congested[static_cast<std::size_t>(p)]) lt.congested[i] = true;
  }
}

void assign_link_ids(LabeledTree& lt, LinkInterner& links) {
  const TreeIndex& tree = lt.tree;
  lt.link_id.assign(tree.size(), kNoLinkId);
  for (const auto idx : tree.bfs_order()) {
    const std::size_t i = static_cast<std::size_t>(idx);
    const int p = tree.parent(i);
    if (p < 0) continue;
    lt.link_id[i] =
        links.intern(LinkKey{tree.node(static_cast<std::size_t>(p)).node, tree.node(i).node});
  }
}

void collect_link_aggregates(const std::vector<LabeledTree*>& trees, const Params& params,
                             std::size_t link_count, LinkAggregates& out) {
  out.reset(link_count);
  for (const LabeledTree* lt : trees) {
    const TreeIndex& tree = lt->tree;
    for (const auto idx : tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      const std::uint32_t id = lt->link_id[i];
      if (id == kNoLinkId) continue;
      LinkAggregate& a = out.row(id);
      ++a.sessions;
      a.all_above_threshold = a.all_above_threshold && lt->loss[i] > params.p_threshold;
      a.weighted_loss += lt->loss[i] * static_cast<double>(lt->max_subtree_bytes[i]);
      a.total_bytes += static_cast<double>(lt->max_subtree_bytes[i]);
    }
  }
}

void compute_bottlenecks(LabeledTree& lt, const std::vector<double>& cap_by_id) {
  const TreeIndex& tree = lt.tree;
  const auto& order = tree.bfs_order();

  // Top-down min of estimated link capacities along the path from the source.
  for (const auto idx : order) {
    const std::size_t i = static_cast<std::size_t>(idx);
    const int p = tree.parent(i);
    if (p < 0) {
      lt.bottleneck_bps[i] = kInf;
      continue;
    }
    const std::uint32_t id = lt.link_id[i];
    const double cap = id < cap_by_id.size() ? cap_by_id[id] : kInf;
    lt.bottleneck_bps[i] = std::min(lt.bottleneck_bps[static_cast<std::size_t>(p)], cap);
  }

  // Bottom-up: the max bandwidth a node can handle is the max bottleneck of
  // its children (a receiver node handles its own bottleneck).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t i = static_cast<std::size_t>(it[0]);
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

void compute_fair_shares(const std::vector<LabeledTree*>& trees,
                         const std::vector<double>& cap_by_id, const Params& params,
                         PassWorkspace& ws) {
  const std::size_t link_count = cap_by_id.size();

  // How many sessions cross each link (for the all-others-at-base headroom).
  ws.crossing.assign(link_count, 0);
  for (const LabeledTree* lt : trees) {
    for (const std::uint32_t id : lt->link_id) {
      if (id != kNoLinkId) ++ws.crossing[id];
    }
  }

  const double base = params.layers.base_rate.bps();

  // Per session: top-down headroom if all other sessions sat at base layer,
  // then x at each leaf, then bottom-up max -> x_i per node (and so per link,
  // via the link's child endpoint).
  if (ws.x.size() < trees.size()) ws.x.resize(trees.size());
  for (std::size_t s = 0; s < trees.size(); ++s) {
    const LabeledTree& lt = *trees[s];
    const TreeIndex& tree = lt.tree;
    ws.headroom.assign(tree.size(), kInf);
    for (const auto idx : tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      const int p = tree.parent(i);
      if (p < 0) continue;
      const std::uint32_t id = lt.link_id[i];
      const double cap = id < link_count ? cap_by_id[id] : kInf;
      double avail = kInf;
      if (cap != kInf) {
        avail = cap - base * static_cast<double>(ws.crossing[id] - 1);
        avail = std::max(avail, base);  // never below one base layer
      }
      ws.headroom[i] = std::min(ws.headroom[static_cast<std::size_t>(p)], avail);
    }
    ws.x[s].assign(tree.size(), 0.0);
    const auto& order = tree.bfs_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::size_t i = static_cast<std::size_t>(*it);
      double xi = 0.0;
      if (tree.node(i).is_receiver) {
        xi = ws.headroom[i] == kInf
                 ? static_cast<double>(params.layers.num_layers)
                 : static_cast<double>(
                       params.layers.max_layers_for_bandwidth(units::BitsPerSec{ws.headroom[i]}));
      }
      for (const auto c : tree.children(i)) {
        xi = std::max(xi, ws.x[s][static_cast<std::size_t>(c)]);
      }
      ws.x[s][i] = std::max(xi, 1.0);
    }
  }

  // Sum of x over sessions per link.
  ws.x_sum.assign(link_count, 0.0);
  for (std::size_t s = 0; s < trees.size(); ++s) {
    const LabeledTree& lt = *trees[s];
    for (const auto idx : lt.tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      const std::uint32_t id = lt.link_id[i];
      if (id != kNoLinkId) ws.x_sum[id] += ws.x[s][i];
    }
  }

  // Per node: min over the path of the per-link share.
  for (std::size_t s = 0; s < trees.size(); ++s) {
    LabeledTree& lt = *trees[s];
    const TreeIndex& tree = lt.tree;
    for (const auto idx : tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      const int p = tree.parent(i);
      if (p < 0) {
        lt.share_bps[i] = kInf;
        continue;
      }
      const std::uint32_t id = lt.link_id[i];
      const double cap = id < link_count ? cap_by_id[id] : kInf;
      double share = kInf;
      if (cap != kInf) {
        if (ws.crossing[id] > 1) {
          share = ws.x[s][i] * cap / ws.x_sum[id];
        } else {
          share = cap;
        }
        share = std::max(share, base);  // every session keeps its base layer
      }
      lt.share_bps[i] = std::min(lt.share_bps[static_cast<std::size_t>(p)], share);
    }
  }
}

}  // namespace tsim::core
