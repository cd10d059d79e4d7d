#include "mcast/multicast_router.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tsim::mcast {

namespace {
void require_node(const net::Network& network, net::NodeId node, const char* what) {
  if (node >= network.node_count()) {
    throw std::out_of_range(std::string{what} + ": unknown node " + std::to_string(node));
  }
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
  require_node(network_, source, "MulticastRouter::set_session_source");
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
  require_node(network_, member, "MulticastRouter::join");
  GroupState& state = group_state(group);
  if (member >= state.members.size()) state.members.resize(network_.node_count());
  MemberState& ms = state.members[member];
  if (ms.local_active) return;
  ms.local_active = true;
  ms.forward_until = sim::Time::max();
  state.tree_dirty = true;
}

void MulticastRouter::leave(net::NodeId member, net::GroupAddr group) {
  const auto git = groups_.find(group);
  if (git == groups_.end()) return;
  GroupState& state = git->second;
  if (member >= state.members.size()) return;
  MemberState& ms = state.members[member];
  if (!ms.local_active) return;

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
  const std::vector<MemberState>& members = git->second.members;
  return member < members.size() && members[member].local_active;
}

std::vector<net::NodeId> MulticastRouter::members(net::GroupAddr group) const {
  std::vector<net::NodeId> result;
  const auto git = groups_.find(group);
  if (git == groups_.end()) return result;
  const std::vector<MemberState>& members = git->second.members;
  for (net::NodeId node = 0; node < members.size(); ++node) {
    if (members[node].local_active) result.push_back(node);
  }
  return result;
}

void MulticastRouter::rebuild_tree(net::GroupAddr group, GroupState& state) {
  GroupTree& tree = state.tree;
  tree.source = session_source(group.session);
  const sim::Time now = simulation_.now();
  const net::RoutingTable& routes = network_.routes();
  const std::uint32_t node_count = network_.node_count();
  tree.fan.assign(node_count, {});
  if (first_parent_.size() < node_count) first_parent_.resize(node_count, net::kInvalidNode);
  second_parents_.clear();

  // Each member carrying traffic grafts its route, walked hop by hop as
  // RoutingTable::path() would and kept only when it reaches the member. A
  // child's first parent is recorded and counted on that parent's fan slot.
  // Routes toward different members may enter one child from two parents
  // (equal-cost meshes do); that rarer edge goes to second_parents_.
  for (net::NodeId member = 0; member < state.members.size(); ++member) {
    const MemberState& ms = state.members[member];
    const bool carries_traffic = ms.local_active || ms.forward_until > now;
    if (!carries_traffic) continue;
    if (ms.local_active) tree.fan[member].deliver_locally = 1;
    if (member == tree.source) continue;
    hops_.clear();
    for (net::NodeId at = tree.source; at != member && at != net::kInvalidNode;) {
      at = routes.next_node(at, member);
      hops_.push_back(at);
    }
    if (hops_.back() != member) continue;  // unreachable: no edges at all
    net::NodeId parent = tree.source;
    for (const net::NodeId child : hops_) {
      net::NodeId& first = first_parent_[child];
      if (first == net::kInvalidNode) {
        first = parent;
        ++tree.fan[parent].count;
      } else if (first != parent) {
        second_parents_.emplace_back(child, parent);
      }
      parent = child;
    }
  }
  std::sort(second_parents_.begin(), second_parents_.end());
  second_parents_.erase(std::unique(second_parents_.begin(), second_parents_.end()),
                        second_parents_.end());
  for (const auto& [child, parent] : second_parents_) ++tree.fan[parent].count;

  // Counting pass by parent: each parent's span follows those of the lower
  // parents, and placing children in id order fills every span in child
  // order, so `edges` comes out sorted by (parent, child) without a sort.
  std::uint32_t offset = 0;
  for (GroupTree::FanSlot& slot : tree.fan) {
    if (slot.count == 0) continue;
    slot.offset = offset;
    offset += slot.count;
    slot.count = 0;
  }
  tree.edges.resize(offset);
  const auto place = [&tree](net::NodeId parent, net::NodeId child) {
    GroupTree::FanSlot& slot = tree.fan[parent];
    tree.edges[slot.offset + slot.count++] = {parent, child};
  };
  auto second = second_parents_.cbegin();
  for (net::NodeId child = 0; child < node_count; ++child) {
    net::NodeId& first = first_parent_[child];
    if (first == net::kInvalidNode) continue;
    place(first, child);
    first = net::kInvalidNode;
    for (; second != second_parents_.cend() && second->first == child; ++second) {
      place(second->second, child);
    }
  }

  // Slot i of the pool is the link of edges[i], so each parent's span lists
  // its out-links in edge order: exactly the CSR span route() replicates from.
  tree.fan_links.resize(tree.edges.size());
  for (std::size_t i = 0; i < tree.edges.size(); ++i) {
    tree.fan_links[i] = routes.next_hop(tree.edges[i].first, tree.edges[i].second);
  }

  tree.built_topology_version = network_.topology_version();
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
  for (const auto& [group, state] : groups_) {  // NOLINT(determinism) sorted below
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
    // Both runs are sorted and unique, so merging them and dropping adjacent
    // duplicates gives the sorted union.
    const auto middle = static_cast<std::ptrdiff_t>(edges.size());
    edges.insert(edges.end(), t->edges.begin(), t->edges.end());
    std::inplace_merge(edges.begin(), edges.begin() + middle, edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return edges;
}

void MulticastRouter::on_topology_change() {
  // Flag-setting only; every group gets the same write, order is irrelevant.
  for (auto& [group, state] : groups_) state.tree_dirty = true;  // NOLINT(determinism) order-free
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
