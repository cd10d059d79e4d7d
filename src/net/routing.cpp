#include "net/routing.hpp"

#include <limits>
#include <queue>

namespace tsim::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void RoutingTable::build(std::uint32_t node_count, const std::vector<EdgeView>& edges) {
  node_count_ = node_count;
  const std::size_t n = node_count;

  // CSR adjacency via counting sort, stable in input (add_link) order so the
  // relaxation order — and therefore equal-cost tie-breaking — matches the
  // seed's per-source adjacency lists exactly.
  adj_offset_.assign(n + 1, 0);
  for (const EdgeView& e : edges) ++adj_offset_[e.from + 1];
  for (std::size_t i = 1; i <= n; ++i) adj_offset_[i] += adj_offset_[i - 1];
  adj_edges_.resize(edges.size());
  std::vector<std::uint32_t> cursor(adj_offset_.begin(), adj_offset_.end() - 1);
  for (const EdgeView& e : edges) adj_edges_[cursor[e.from]++] = e;

  rows_.clear();
  rows_.resize(n);
  computed_rows_ = 0;

  radj_offset_.clear();
  radj_edges_.clear();
  radj_built_ = false;
  if (sink_registered_.size() < n) sink_registered_.resize(n, false);
  sink_rows_.clear();
  sink_rows_.resize(sink_registered_.size());
  computed_sink_rows_ = 0;
}

void RoutingTable::add_sink(NodeId dst) {
  if (dst >= sink_registered_.size()) sink_registered_.resize(dst + 1, false);
  if (dst >= sink_rows_.size()) sink_rows_.resize(dst + 1);
  sink_registered_[dst] = true;
}

const RoutingTable::SinkRow& RoutingTable::sink_row(NodeId dst) const {
  std::unique_ptr<SinkRow>& slot = sink_rows_[dst];
  if (slot != nullptr) return *slot;

  const std::size_t n = node_count_;
  if (!radj_built_) {
    // Reversed CSR via the same stable counting sort as build(), grouped by
    // e.to — deterministic relaxation order in add_link order per group.
    radj_offset_.assign(n + 1, 0);
    for (const EdgeView& e : adj_edges_) ++radj_offset_[e.to + 1];
    for (std::size_t i = 1; i <= n; ++i) radj_offset_[i] += radj_offset_[i - 1];
    radj_edges_.resize(adj_edges_.size());
    std::vector<std::uint32_t> cursor(radj_offset_.begin(), radj_offset_.end() - 1);
    for (const EdgeView& e : adj_edges_) radj_edges_[cursor[e.to]++] = e;
    radj_built_ = true;
  }

  auto fresh = std::make_unique<SinkRow>();
  fresh->toward.assign(n, kInvalidLink);
  std::vector<double> dist(n, kInf);
  dist[dst] = 0.0;

  struct QItem {
    double dist;
    NodeId node;
    bool operator>(const QItem& o) const { return dist > o.dist; }
  };
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  pq.push({0.0, dst});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (std::uint32_t i = radj_offset_[u]; i < radj_offset_[u + 1]; ++i) {
      // Forward edge e.from -> e.to with e.to == u: relaxing it means e.from
      // reaches the sink through u, so e.from's next hop IS this edge.
      const EdgeView& e = radj_edges_[i];
      const double nd = d + e.cost;
      if (nd < dist[e.from]) {
        dist[e.from] = nd;
        fresh->toward[e.from] = e.link;
        pq.push({nd, e.from});
      }
    }
  }

  ++computed_sink_rows_;
  slot = std::move(fresh);
  return *slot;
}

const RoutingTable::Row& RoutingTable::row(NodeId from) const {
  std::unique_ptr<Row>& slot = rows_[from];
  if (slot != nullptr) return *slot;

  const std::size_t n = node_count_;
  auto fresh = std::make_unique<Row>();
  fresh->next_hop.assign(n, kInvalidLink);
  fresh->next_node.assign(n, kInvalidNode);
  fresh->cost.assign(n, kInf);
  std::vector<LinkId>& first_link = fresh->next_hop;
  std::vector<NodeId>& first_node = fresh->next_node;
  std::vector<double>& dist = fresh->cost;
  dist[from] = 0.0;

  struct QItem {
    double dist;
    NodeId node;
    bool operator>(const QItem& o) const { return dist > o.dist; }
  };
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  pq.push({0.0, from});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (std::uint32_t i = adj_offset_[u]; i < adj_offset_[u + 1]; ++i) {
      const EdgeView& e = adj_edges_[i];
      const double nd = d + e.cost;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        if (u == from) {
          first_link[e.to] = e.link;
          first_node[e.to] = e.to;
        } else {
          first_link[e.to] = first_link[u];
          first_node[e.to] = first_node[u];
        }
        pq.push({nd, e.to});
      }
    }
  }

  ++computed_rows_;
  slot = std::move(fresh);
  return *slot;
}

std::vector<NodeId> RoutingTable::path(NodeId from, NodeId to) const {
  std::vector<NodeId> result;
  if (from == to) return {from};
  if (path_cost(from, to) == kInf) return result;
  result.push_back(from);
  NodeId cur = from;
  while (cur != to) {
    // Each hop's successor toward `to` comes from that hop's own row: rows
    // store the first hop of from->dst, not the predecessor tree.
    cur = next_node(cur, to);
    if (cur == kInvalidNode) return {};
    result.push_back(cur);
  }
  return result;
}

}  // namespace tsim::net
