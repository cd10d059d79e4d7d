#include "mcast/multicast_router.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tsim::mcast {

namespace {
/// Sorts `edges` by (parent, child) and drops duplicates: the sequence a
/// std::set of the same pairs would iterate, built in one contiguous buffer.
void sort_unique(std::vector<std::pair<net::NodeId, net::NodeId>>& edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}
}  // namespace

MulticastRouter::MulticastRouter(sim::Simulation& simulation, net::Network& network,
                                 Config config)
    : simulation_{simulation}, network_{network}, config_{config} {
  network_.set_multicast_forwarder(this);
}

MulticastRouter::MulticastRouter(sim::Simulation& simulation, net::Network& network)
    : MulticastRouter{simulation, network, Config{}} {}

void MulticastRouter::set_session_source(net::SessionId session, net::NodeId source) {
  session_sources_[session] = source;
}

net::NodeId MulticastRouter::session_source(net::SessionId session) const {
  const auto it = session_sources_.find(session);
  return it == session_sources_.end() ? net::kInvalidNode : it->second;
}

MulticastRouter::GroupState& MulticastRouter::group_state(net::GroupAddr group) {
  const auto [it, inserted] = groups_.try_emplace(group);
  if (inserted) {
    const std::uint32_t gid = network_.intern_group(group);
    if (gid >= groups_by_stats_id_.size()) groups_by_stats_id_.resize(gid + 1, nullptr);
    groups_by_stats_id_[gid] = &it->second;
  }
  return it->second;
}

void MulticastRouter::join(net::NodeId member, net::GroupAddr group) {
  if (session_sources_.find(group.session) == session_sources_.end()) {
    throw std::logic_error("MulticastRouter::join: session source not set");
  }
  GroupState& state = group_state(group);
  MemberState& ms = state.members[member];
  if (ms.local_active || ms.join_pending) return;

  if (config_.join_latency == sim::Time::zero()) {
    ms.local_active = true;
    ms.forward_until = sim::Time::max();
    state.tree_dirty = true;
    return;
  }
  ms.join_pending = true;
  simulation_.after(config_.join_latency, [this, member, group]() {
    GroupState& s = group_state(group);
    MemberState& m = s.members[member];
    if (!m.join_pending) return;  // leave raced the graft
    m.join_pending = false;
    m.local_active = true;
    m.forward_until = sim::Time::max();
    s.tree_dirty = true;
  });
}

void MulticastRouter::leave(net::NodeId member, net::GroupAddr group) {
  const auto git = groups_.find(group);
  if (git == groups_.end()) return;
  GroupState& state = git->second;
  const auto mit = state.members.find(member);
  if (mit == state.members.end()) return;
  MemberState& ms = mit->second;
  if (!ms.local_active && !ms.join_pending) return;

  if (ms.join_pending && !ms.local_active) {
    // The graft is still in flight: the branch never carried traffic, so there
    // is nothing for the IGMP timeout to prune. Cancel the pending join
    // without touching forward_until — setting it here would graft a fresh
    // branch at the next rebuild and forward onto it for the whole
    // leave-latency window. Any forward_until from an *earlier* real leave
    // stays as it is: that window was earned by a completed graft.
    ms.join_pending = false;
    return;
  }

  ms.join_pending = false;
  ms.local_active = false;  // the host stops listening immediately
  ms.forward_until = simulation_.now() + config_.leave_latency;
  state.tree_dirty = true;  // local-delivery flag must clear now

  // When the IGMP timeout expires the branch is pruned; rebuild then.
  simulation_.after(config_.leave_latency, [this, group]() {
    const auto it = groups_.find(group);
    if (it != groups_.end()) it->second.tree_dirty = true;
  });
}

bool MulticastRouter::is_member(net::NodeId member, net::GroupAddr group) const {
  const auto git = groups_.find(group);
  if (git == groups_.end()) return false;
  const auto mit = git->second.members.find(member);
  return mit != git->second.members.end() && mit->second.local_active;
}

std::vector<net::NodeId> MulticastRouter::members(net::GroupAddr group) const {
  std::vector<net::NodeId> result;
  const auto git = groups_.find(group);
  if (git == groups_.end()) return result;
  for (const auto& [node, ms] : git->second.members) {  // NOLINT-determinism(sorted below)
    if (ms.local_active) result.push_back(node);
  }
  std::sort(result.begin(), result.end());
  return result;
}

void MulticastRouter::rebuild_tree(net::GroupAddr group, GroupState& state) {
  GroupTree tree;
  tree.source = session_source(group.session);
  const sim::Time now = simulation_.now();

  const net::RoutingTable& routes = network_.routes();
  tree.fan.assign(network_.node_count(), {});

  // Per-member work is independent and its edges are sorted and deduplicated
  // below, so the hash iteration order never reaches the finished tree. The
  // CSR deliver flags land in distinct NodeId slots, so order never shows
  // there either.
  for (const auto& [member, ms] : state.members) {  // NOLINT-determinism(order-free)
    const bool carries_traffic = ms.local_active || ms.forward_until > now;
    if (!carries_traffic) continue;
    if (ms.local_active) tree.fan[member].deliver_locally = 1;
    if (member == tree.source) continue;
    const std::vector<net::NodeId> path = routes.path(tree.source, member);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      tree.edges.emplace_back(path[i], path[i + 1]);
    }
  }
  sort_unique(tree.edges);

  // The edges are sorted by (parent, child), so each parent's links form one
  // contiguous run: exactly the CSR span route() replicates from.
  tree.fan_links.reserve(tree.edges.size());
  for (const auto& [parent, child] : tree.edges) {
    const net::LinkId link = routes.next_hop(parent, child);
    GroupTree::FanSlot& slot = tree.fan[parent];
    if (slot.count == 0) slot.offset = static_cast<std::uint32_t>(tree.fan_links.size());
    if (slot.count == std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("MulticastRouter: per-node fan-out exceeds FanSlot range");
    }
    ++slot.count;
    tree.fan_links.push_back(link);
  }

  tree.built_topology_version = network_.topology_version();
  state.tree = std::move(tree);
  state.tree_dirty = false;
  if (audit_hook_) audit_hook_(group, state.tree);
}

const GroupTree* MulticastRouter::tree(net::GroupAddr group) const {
  auto* self = const_cast<MulticastRouter*>(this);
  const auto git = self->groups_.find(group);
  if (git == self->groups_.end()) return nullptr;
  if (git->second.tree_dirty) self->rebuild_tree(group, git->second);
  return &git->second.tree;
}

const GroupTree* MulticastRouter::tree_if_clean(net::GroupAddr group) const {
  const auto git = groups_.find(group);
  if (git == groups_.end() || git->second.tree_dirty) return nullptr;
  return &git->second.tree;
}

std::vector<net::GroupAddr> MulticastRouter::active_groups() const {
  std::vector<net::GroupAddr> result;
  result.reserve(groups_.size());
  // Sorted afterwards, so the unordered iteration order never leaks out.
  for (const auto& [group, state] : groups_) {  // NOLINT-determinism(sorted below)
    result.push_back(group);
  }
  std::sort(result.begin(), result.end());
  return result;
}

void MulticastRouter::corrupt_tree_edge_for_test(net::GroupAddr group) {
  GroupState& state = group_state(group);
  if (state.tree_dirty) rebuild_tree(group, state);
  GroupTree& tree = state.tree;
  if (tree.edges.empty()) {
    tree.edges.emplace_back(tree.source, tree.source);
  } else {
    // Reversing an edge gives the child a second parent and closes a cycle.
    tree.edges.emplace_back(tree.edges.front().second, tree.edges.front().first);
  }
}

std::vector<std::pair<net::NodeId, net::NodeId>> MulticastRouter::session_tree_edges(
    net::SessionId session, net::LayerId max_layer) const {
  std::vector<std::pair<net::NodeId, net::NodeId>> edges;
  for (net::LayerId layer = 1; layer <= max_layer; ++layer) {
    const GroupTree* t = tree(net::GroupAddr{session, layer});
    if (t == nullptr) continue;
    // Both runs are sorted and unique, so a merge keeps the union in the
    // order sort_unique of the concatenation would give.
    const auto middle = static_cast<std::ptrdiff_t>(edges.size());
    edges.insert(edges.end(), t->edges.begin(), t->edges.end());
    std::inplace_merge(edges.begin(), edges.begin() + middle, edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return edges;
}

void MulticastRouter::on_topology_change() {
  // Flag-setting only; every group gets the same write, order is irrelevant.
  for (auto& [group, state] : groups_) state.tree_dirty = true;  // NOLINT-determinism(order-free)
}

void MulticastRouter::route(net::NodeId node, const net::Packet& packet,
                            std::vector<net::LinkId>& out_links, bool& deliver_locally) {
  // Fast path: the dense id send_multicast stamped indexes straight into the
  // group table. A stamped packet whose slot is missing or null belongs to a
  // group no one ever joined (group_state is what fills the slot), so the
  // verdict is final without touching the hash table. The hash lookup only
  // remains for packets injected without a stamp (e.g. tests driving route()
  // directly).
  GroupState* state = nullptr;
  if (packet.group_stats_id != net::kInvalidGroupStatsId) {
    if (packet.group_stats_id >= groups_by_stats_id_.size()) return;
    state = groups_by_stats_id_[packet.group_stats_id];
    if (state == nullptr) return;
  } else {
    const auto git = groups_.find(packet.group);
    if (git == groups_.end()) return;
    state = &git->second;
  }
  if (state->tree_dirty) rebuild_tree(packet.group, *state);
  const GroupTree& tree = state->tree;
  if (node >= tree.fan.size()) return;
  const GroupTree::FanSlot slot = tree.fan[node];
  const net::LinkId* span = tree.fan_links.data() + slot.offset;
  // HOTPATH_ALLOW(container-growth: appends into the forwarder's reused scratch vector; its capacity stabilizes at the max per-hop fan-out after warmup)
  out_links.insert(out_links.end(), span, span + slot.count);
  deliver_locally = slot.deliver_locally != 0;
}

}  // namespace tsim::mcast
