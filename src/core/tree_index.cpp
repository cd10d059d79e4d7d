#include "core/tree_index.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace tsim::core {

TreeIndex::TreeIndex(const SessionInput& input) : session_{input.session} {
  // Map original positions, find the root, then BFS to keep only the
  // connected component below the source and to fix a deterministic order.
  std::unordered_map<net::NodeId, std::size_t> pos;
  pos.reserve(input.nodes.size());
  for (std::size_t i = 0; i < input.nodes.size(); ++i) {
    if (!pos.emplace(input.nodes[i].node, i).second) {
      throw std::invalid_argument("TreeIndex: duplicate node id in session input");
    }
  }
  const auto root_it = pos.find(input.source);
  if (root_it == pos.end()) {
    throw std::invalid_argument("TreeIndex: source node missing from session input");
  }

  // children-by-original-position
  std::unordered_map<net::NodeId, std::vector<std::size_t>> kids;
  for (std::size_t i = 0; i < input.nodes.size(); ++i) {
    const SessionNodeInput& n = input.nodes[i];
    if (n.node == input.source) continue;
    kids[n.parent].push_back(i);
  }
  // Each value vector is sorted independently; map iteration order is moot.
  for (auto& [id, v] : kids) {  // NOLINT(determinism) per-key sort, order-free
    std::sort(v.begin(), v.end(), [&](std::size_t a, std::size_t b) {
      return input.nodes[a].node < input.nodes[b].node;
    });
  }

  std::deque<std::size_t> queue{root_it->second};
  std::vector<std::size_t> order;
  while (!queue.empty()) {
    const std::size_t i = queue.front();
    queue.pop_front();
    if (order.size() > input.nodes.size()) {
      throw std::invalid_argument("TreeIndex: cycle in session input");
    }
    order.push_back(i);
    const auto it = kids.find(input.nodes[i].node);
    if (it != kids.end()) {
      for (const std::size_t c : it->second) queue.push_back(c);
    }
  }

  nodes_.reserve(order.size());
  parents_.reserve(order.size());
  children_.resize(order.size());
  bfs_.reserve(order.size());
  input_map_.assign(input.nodes.size(), -1);
  std::unordered_map<net::NodeId, std::int32_t> new_index;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const SessionNodeInput& n = input.nodes[order[rank]];
    nodes_.push_back(n);
    new_index[n.node] = static_cast<std::int32_t>(rank);
    bfs_.push_back(static_cast<std::int32_t>(rank));
    input_map_[order[rank]] = static_cast<std::int32_t>(rank);
  }
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const SessionNodeInput& n = nodes_[rank];
    if (n.node == input.source) {
      parents_.push_back(-1);
      continue;
    }
    const auto pit = new_index.find(n.parent);
    if (pit == new_index.end()) {
      throw std::invalid_argument("TreeIndex: node parent not in tree");
    }
    parents_.push_back(pit->second);
    children_[pit->second].push_back(static_cast<std::int32_t>(rank));
  }
  by_id_ = std::move(new_index);
}

int TreeIndex::index_of(net::NodeId node) const {
  const auto it = by_id_.find(node);
  return it == by_id_.end() ? -1 : it->second;
}

std::uint64_t TreeIndex::structure_signature(const SessionInput& input) {
  // FNV-1a over the structural fields, in input order.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(input.session);
  mix(input.source);
  mix(input.nodes.size());
  for (const SessionNodeInput& n : input.nodes) {
    mix(n.node);
    mix(n.parent);
    mix(n.is_receiver ? 1 : 0);
  }
  return h;
}

void TreeIndex::refresh_measurements(const SessionInput& input) {
  for (std::size_t k = 0; k < input.nodes.size(); ++k) {
    const std::int32_t idx = input_map_[k];
    if (idx < 0) continue;  // node was unreachable from the source
    SessionNodeInput& n = nodes_[static_cast<std::size_t>(idx)];
    const SessionNodeInput& src = input.nodes[k];
    n.loss_rate = src.loss_rate;
    n.bytes_received = src.bytes_received;
    n.subscription = src.subscription;
  }
}

}  // namespace tsim::core
