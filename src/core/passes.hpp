#pragma once

#include <vector>

#include "core/capacity_estimator.hpp"
#include "core/link_interner.hpp"
#include "core/params.hpp"
#include "core/tree_index.hpp"
#include "core/types.hpp"

namespace tsim::core {

/// Per-session scratch computed by the algorithm's passes. Vectors are
/// indexed like the TreeIndex. Instances are reused across intervals (the
/// passes overwrite every slot), so steady-state intervals allocate nothing.
struct LabeledTree {
  TreeIndex tree;
  std::vector<double> loss;                    ///< min-of-children for internals
  std::vector<bool> congested;
  std::vector<std::uint64_t> max_subtree_bytes;  ///< max over receivers below
  std::vector<double> bottleneck_bps;          ///< top-down min link capacity
  std::vector<double> max_handle_bps;          ///< bottom-up max of bottlenecks
  std::vector<double> share_bps;               ///< fair-share bandwidth cap per node
  /// Interned id of the uplink (parent -> node) per node; kNoLinkId for the
  /// root. Valid after assign_link_ids; stable for the topology's lifetime.
  std::vector<std::uint32_t> link_id;

  explicit LabeledTree(TreeIndex t);
};

/// Reusable flat scratch for the per-interval link passes. Owned by the
/// caller (TopoSense keeps one for its whole lifetime) so the per-interval
/// cost is a handful of O(links)/O(nodes) fills instead of hash-map rebuilds.
struct PassWorkspace {
  LinkAggregates aggregates;
  std::vector<double> cap_by_id;          ///< capacity snapshot per link id
  std::vector<std::int32_t> crossing;     ///< sessions crossing each link
  std::vector<double> x_sum;              ///< Σ x over sessions per link
  std::vector<double> headroom;           ///< per-node scratch (one session at a time)
  std::vector<std::vector<double>> x;     ///< per-session per-node max-layer weight
};

/// Stage 1 (§III "Computing Congestion States"): derives internal-node loss
/// (minimum over children), labels nodes CONGESTED/NOT-CONGESTED (including
/// the top-down parent-congested propagation), and records the max bytes
/// received by any receiver in each subtree.
void label_congestion(LabeledTree& lt, const Params& params);

/// Interns every tree edge and records the dense uplink id per node. Called
/// once per topology epoch (tree build), not per interval.
void assign_link_ids(LabeledTree& lt, LinkInterner& links);

/// Reduces all sessions' per-link observations for the capacity estimator
/// straight into a flat aggregate table indexed by link id (requires
/// assign_link_ids + label_congestion first). `link_count` is the interner's
/// current size.
void collect_link_aggregates(const std::vector<LabeledTree*>& trees, const Params& params,
                             std::size_t link_count, LinkAggregates& out);

/// Stage 3 ("Finding Bottleneck Bandwidths"): propagates the minimum
/// estimated link capacity top-down, then the max child bottleneck bottom-up.
/// Capacities come from a per-link-id snapshot
/// (CapacityEstimator::snapshot_capacities) via lt.link_id.
void compute_bottlenecks(LabeledTree& lt, const std::vector<double>& cap_by_id);

/// Stage 4 ("Bandwidth Sharing"): computes, per node, the session's fair
/// bandwidth share along its path. On every shared finite link, session i
/// gets x_i*B/Σx_j where x_i is the max layers it could use were every other
/// session at its base layer. Single-session finite links cap at B; a session
/// never falls below one base layer. Per-link tables live in `ws`,
/// capacities come from `cap_by_id`, link identity via lt.link_id.
void compute_fair_shares(const std::vector<LabeledTree*>& trees,
                         const std::vector<double>& cap_by_id, const Params& params,
                         PassWorkspace& ws);

}  // namespace tsim::core
