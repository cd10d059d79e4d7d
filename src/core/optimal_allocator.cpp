#include "core/optimal_allocator.hpp"

#include <algorithm>
#include <limits>

#include "core/tree_index.hpp"

namespace tsim::core {

OptimalAllocator::OptimalAllocator(traffic::LayerSpec layers,
                                   std::unordered_map<LinkKey, units::BitsPerSec> capacities)
    : layers_{layers}, capacities_{std::move(capacities)} {}

std::vector<OptimalAllocator::ReceiverRef> OptimalAllocator::receivers_of(
    const std::vector<SessionInput>& sessions) const {
  std::vector<ReceiverRef> refs;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    for (std::size_t n = 0; n < sessions[s].nodes.size(); ++n) {
      if (sessions[s].nodes[n].is_receiver) refs.push_back(ReceiverRef{s, n});
    }
  }
  return refs;
}

units::BitsPerSec OptimalAllocator::link_usage(const std::vector<SessionInput>& sessions,
                                               const std::vector<int>& levels,
                                               LinkKey link) const {
  // A session's traffic on a tree link is the cumulative rate of the highest
  // level subscribed by any receiver below the link's child endpoint.
  const auto refs = receivers_of(sessions);
  units::BitsPerSec usage = units::BitsPerSec::zero();
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const TreeIndex tree{sessions[s]};
    const int child = tree.index_of(link.to);
    const int parent = tree.index_of(link.from);
    if (child < 0 || parent < 0 || tree.parent(static_cast<std::size_t>(child)) != parent) {
      continue;  // link not on this session's tree
    }
    int max_level = 0;
    for (std::size_t r = 0; r < refs.size(); ++r) {
      if (refs[r].session_index != s) continue;
      // Is this receiver inside the subtree under `child`?
      int i = tree.index_of(sessions[s].nodes[refs[r].node_index].node);
      bool below = false;
      while (i >= 0) {
        if (i == child) {
          below = true;
          break;
        }
        i = tree.parent(static_cast<std::size_t>(i));
      }
      if (below) max_level = std::max(max_level, levels[r]);
    }
    usage += layers_.cumulative_rate(max_level);
  }
  return usage;
}

bool OptimalAllocator::feasible(const std::vector<SessionInput>& sessions,
                                const std::vector<int>& levels) const {
  // Order-free conjunction: the result is "every link fits", independent of
  // which infeasible link is met first.
  for (const auto& [link, capacity] : capacities_) {  // NOLINT(determinism) order-free
    if (link_usage(sessions, levels, link) > capacity) return false;
  }
  return true;
}

std::vector<Prescription> OptimalAllocator::allocate(
    const std::vector<SessionInput>& sessions) const {
  const auto refs = receivers_of(sessions);
  std::vector<int> levels(refs.size(), 0);
  std::vector<bool> blocked(refs.size(), false);

  // Raising one receiver only changes usage on the links of its own root
  // path, and only where the new level exceeds the session's current subtree
  // maximum below that link — so each greedy step needs those few links, not
  // the full feasible() rescan (which walks every receiver for every link and
  // made building a ~1000-receiver tiered scenario take minutes). The usage
  // deltas are differences of exact integer-valued layer rates, so the
  // incremental accounting blocks each receiver at exactly the same step the
  // full rescan would.
  struct TrackedLink {
    double capacity;
    double usage{0.0};
    std::vector<int> session_max;  ///< parallel to `sessions`
  };
  std::vector<TrackedLink> links;
  std::unordered_map<LinkKey, std::size_t> link_index;
  // cumulative[l] is layers_.cumulative_rate(l).bps(): the same doubles,
  // summed once instead of per receiver and level.
  std::vector<double> cumulative(static_cast<std::size_t>(layers_.num_layers) + 1);
  for (int l = 0; l <= layers_.num_layers; ++l) {
    cumulative[static_cast<std::size_t>(l)] = layers_.cumulative_rate(l).bps();
  }
  const auto rate = [&cumulative](int level) {
    return cumulative[static_cast<std::size_t>(level)];
  };
  std::vector<TreeIndex> trees;
  trees.reserve(sessions.size());
  for (const SessionInput& session : sessions) trees.emplace_back(session);

  // Per-receiver path: tracked (capacity-constrained) tree links from the
  // receiver up to its session root, discovered in deterministic ref order.
  std::vector<std::vector<std::size_t>> paths(refs.size());
  for (std::size_t r = 0; r < refs.size(); ++r) {
    const std::size_t si = refs[r].session_index;
    const TreeIndex& tree = trees[si];
    for (int i = tree.index_of(sessions[si].nodes[refs[r].node_index].node); i >= 0;) {
      const int p = tree.parent(static_cast<std::size_t>(i));
      if (p < 0) break;
      const LinkKey key{tree.node(static_cast<std::size_t>(p)).node,
                        tree.node(static_cast<std::size_t>(i)).node};
      if (const auto cap = capacities_.find(key); cap != capacities_.end()) {
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

  // Greedy lexicographic max-min: repeatedly raise the lowest unblocked
  // receiver (ties by discovery order); stop when all are blocked or maxed.
  // Every receiver starts at 0 and a blocked one stays blocked, so that order
  // is a level sweep: at level L every unblocked receiver sits at L, and each
  // is raised to L + 1 or blocked, in receiver order, before any moves on.
  for (int level = 0; level < layers_.num_layers; ++level) {
    const int next = level + 1;
    for (std::size_t r = 0; r < refs.size(); ++r) {
      if (blocked[r]) continue;
      const std::size_t si = refs[r].session_index;
      bool ok = true;
      for (const std::size_t li : paths[r]) {
        const TrackedLink& link = links[li];
        if (next <= link.session_max[si]) continue;  // this link's max is elsewhere
        const double usage = link.usage - rate(link.session_max[si]) + rate(next);
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
        link.usage += rate(next) - rate(link.session_max[si]);
        link.session_max[si] = next;
      }
    }
  }

  std::vector<Prescription> result;
  result.reserve(refs.size());
  for (std::size_t r = 0; r < refs.size(); ++r) {
    const SessionInput& session = sessions[refs[r].session_index];
    result.push_back(Prescription{session.nodes[refs[r].node_index].node, session.session,
                                  levels[r]});
  }
  return result;
}

}  // namespace tsim::core
