#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hotpath.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace tsim::net {

/// A directed edge view used by the routing computation.
struct EdgeView {
  NodeId from;
  NodeId to;
  LinkId link;
  double cost;  ///< routing metric; we use propagation latency in seconds
};

/// Next-hop routing with per-source rows computed lazily by Dijkstra.
///
/// The seed computed the full all-pairs table eagerly, which is O(V²) memory
/// and O(V·E·logV) build time — at the scale tier's ~10k receivers that is
/// gigabytes of tables rebuilt on every topology change, even though only a
/// handful of nodes ever originate unicast traffic (sources, receivers that
/// report, the controller). Now build() just snapshots the adjacency (CSR
/// layout) and each source's row is computed on first lookup and cached, so
/// memory scales with the nodes that actually send. Rows are invalidated
/// wholesale by the next build().
///
/// Determinism: a row's content depends only on the adjacency snapshot (the
/// per-source Dijkstra relaxation order matches the seed's), never on lookup
/// order. Lookups are logically const; the row cache is a mutable memo.
/// Single-threaded by design, like the Scheduler.
class RoutingTable {
 public:
  /// Snapshots the adjacency for `node_count` nodes and drops all cached
  /// rows. Unreachable pairs get kInvalidLink / +inf cost.
  void build(std::uint32_t node_count, const std::vector<EdgeView>& edges);

  /// Next-hop link id on the path `from` -> `to` (kInvalidLink if none).
  /// Destinations registered with add_sink resolve through their shared
  /// destination-rooted row instead of materializing a per-source row.
  [[nodiscard]] LinkId next_hop(NodeId from, NodeId to) const {
    if (to < sink_registered_.size() && sink_registered_[to]) {
      return sink_row(to).toward[from];
    }
    return row(from).next_hop[to];
  }

  /// Declares `dst` a unicast sink: a node many sources send to (the
  /// controller of a 100k-receiver star, say). next_hop lookups toward a sink
  /// are answered from ONE destination-rooted row (reverse Dijkstra over the
  /// reversed adjacency) instead of one per-source row per sender — per-source
  /// rows are O(V) each, so 100k report senders would otherwise materialize
  /// O(V²) of table. Registration survives build(); the row itself is
  /// recomputed lazily after each build. path()/path_cost are unaffected
  /// (they keep using per-source rows).
  void add_sink(NodeId dst);

  /// Total path cost (sum of edge costs) from -> to; +inf if unreachable.
  [[nodiscard]] double path_cost(NodeId from, NodeId to) const {
    return row(from).cost[to];
  }

  /// Successor of `from` on its shortest path to `to`; kInvalidNode when
  /// `to` is unreachable or is `from`. Following it hop by hop (each hop's
  /// own row) visits exactly path(from, to), without building the vector.
  [[nodiscard]] NodeId next_node(NodeId from, NodeId to) const {
    return row(from).next_node[to];
  }

  /// Ordered node sequence from -> to, inclusive; empty if unreachable.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const;

  [[nodiscard]] std::uint32_t node_count() const { return node_count_; }

  /// Number of per-source rows materialized since the last build() — exposed
  /// so tests and the scale bench can pin the lazy behaviour.
  [[nodiscard]] std::size_t computed_rows() const { return computed_rows_; }

  /// Number of destination-rooted sink rows materialized since the last
  /// build().
  [[nodiscard]] std::size_t computed_sink_rows() const { return computed_sink_rows_; }

 private:
  /// One source's shortest-path tree, flattened for O(1) lookups.
  struct Row {
    std::vector<LinkId> next_hop;
    std::vector<NodeId> next_node;  ///< successor node along the path
    std::vector<double> cost;
  };

  /// One sink's destination-rooted tree: toward[u] is u's first forward link
  /// on its shortest path to the sink (kInvalidLink if unreachable).
  struct SinkRow {
    std::vector<LinkId> toward;
  };

  /// The cached row for `from`, running Dijkstra to materialize it if needed.
  HOT_PATH_EXEMPT(
      "lazy row materialization: the first lookup from a source runs Dijkstra once and "
      "caches the row; the hot path takes the pointer-hit return on line one")
  [[nodiscard]] const Row& row(NodeId from) const;

  /// The cached destination-rooted row for sink `dst`, running reverse
  /// Dijkstra (over the lazily built reversed adjacency) if needed.
  HOT_PATH_EXEMPT(
      "lazy sink-row materialization: first lookup toward a sink runs one reverse "
      "Dijkstra and caches the shared row; later lookups hit the cached pointer")
  [[nodiscard]] const SinkRow& sink_row(NodeId dst) const;

  std::uint32_t node_count_{0};
  /// Adjacency in CSR form: edges of node u are
  /// adj_edges_[adj_offset_[u] .. adj_offset_[u + 1]), in add_link order.
  std::vector<std::uint32_t> adj_offset_;
  std::vector<EdgeView> adj_edges_;
  /// Reversed adjacency (edges grouped by e.to, add_link order within a
  /// group), built lazily on the first sink-row computation after a build().
  mutable std::vector<std::uint32_t> radj_offset_;
  mutable std::vector<EdgeView> radj_edges_;
  mutable bool radj_built_{false};
  /// Lazily materialized rows (memo — see class comment).
  mutable std::vector<std::unique_ptr<Row>> rows_;
  mutable std::size_t computed_rows_{0};
  /// Sink registrations (persist across build) and their memoized rows
  /// (cleared by build, like rows_).
  std::vector<bool> sink_registered_;
  mutable std::vector<std::unique_ptr<SinkRow>> sink_rows_;
  mutable std::size_t computed_sink_rows_{0};
};

}  // namespace tsim::net
