#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/hotpath.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace tsim::mcast {

/// Forwarding state of one multicast group: a source-rooted shortest-path
/// tree over the unicast routing, as PIM-SSM would build.
struct GroupTree {
  net::NodeId source{net::kInvalidNode};

  /// One fan-out slot per node: a (offset, count) span into `fan_links` plus
  /// the local-delivery flag. `count` is 32-bit: the scale star hangs every
  /// receiver off one hub, so a single node's fan-out reaches the full
  /// receiver population (100k exceeds uint16).
  struct FanSlot {
    std::uint32_t offset{0};
    std::uint32_t count{0};
    std::uint8_t deliver_locally{0};
  };
  static_assert(sizeof(FanSlot) == 12, "FanSlot must stay within 12 bytes");

  /// The forwarding state, CSR-style: `fan` is NodeId-indexed, `fan_links` is
  /// the shared pool all spans point into. Slot i of the pool is the link of
  /// `edges[i]`, so each parent's span lists its out-links in edge order. The
  /// per-hop route() path reads only these two arrays.
  std::vector<FanSlot> fan;
  std::vector<net::LinkId> fan_links;

  /// Tree edges as (parent, child) node pairs — what a topology discovery
  /// tool (mtrace-style) would reconstruct. Sorted, without duplicates.
  std::vector<std::pair<net::NodeId, net::NodeId>> edges;

  /// Network::topology_version() at the instant this tree was (re)built. A
  /// clean tree whose stamp trails the network's current version is stale —
  /// its edges may reference failed links (audited by check::InvariantAuditor).
  std::uint64_t built_topology_version{0};
};

/// IGMP/PIM-flavoured group management and multicast forwarding.
///
/// Grafts are instant: a join delivers from the next packet on. The
/// `leave_latency` models the paper's §V "group-leave latency" concern: after
/// a leave, the tree keeps carrying traffic toward the departed member for
/// this long (IGMP last-member query), so dropping a layer does NOT
/// immediately relieve congestion. Local delivery stops immediately, matching
/// a host that closed its socket.
class MulticastRouter final : public net::MulticastForwarder {
 public:
  struct Config {
    sim::Time leave_latency{sim::Time::seconds(1)};
  };

  MulticastRouter(sim::Simulation& simulation, net::Network& network, Config config);
  /// Default configuration (1 s leave latency).
  MulticastRouter(sim::Simulation& simulation, net::Network& network);

  /// Declares the source node of every group of a session. Must be set
  /// before members join groups of that session. Throws std::out_of_range
  /// for a node the network does not have.
  void set_session_source(net::SessionId session, net::NodeId source);
  [[nodiscard]] net::NodeId session_source(net::SessionId session) const;

  /// Subscribes `member` to `group`; delivery starts at once. Throws
  /// std::out_of_range for a node the network does not have.
  void join(net::NodeId member, net::GroupAddr group);

  /// Unsubscribes `member`. Local delivery stops now; upstream forwarding
  /// persists for leave_latency.
  void leave(net::NodeId member, net::GroupAddr group);

  /// True when `member` currently receives `group` locally.
  [[nodiscard]] bool is_member(net::NodeId member, net::GroupAddr group) const;

  /// Nodes with active local delivery for `group`.
  [[nodiscard]] std::vector<net::NodeId> members(net::GroupAddr group) const;

  /// Current forwarding tree (nullptr when the group has no state).
  [[nodiscard]] const GroupTree* tree(net::GroupAddr group) const;

  /// Like tree(), but never triggers a lazy rebuild: returns nullptr when the
  /// group is unknown OR its tree is dirty. The auditor uses this so periodic
  /// sweeps observe without perturbing rebuild timing (a tree rebuilt early
  /// could prune differently than one rebuilt at its natural first use).
  [[nodiscard]] const GroupTree* tree_if_clean(net::GroupAddr group) const;

  /// Groups with any state (members past or present), in deterministic
  /// GroupAddr order.
  [[nodiscard]] std::vector<net::GroupAddr> active_groups() const;

  /// Invoked after every tree (re)build — prune, re-graft, or topology-driven
  /// reroute — with the freshly built tree. This is the auditor's
  /// well-formedness hook; the callback must not call tree()/route() for the
  /// same group (the rebuild is already complete, reads are fine).
  void set_audit_hook(std::function<void(net::GroupAddr, const GroupTree&)> hook) {
    audit_hook_ = std::move(hook);
  }

  /// Test-only: appends a reversed copy of the first edge (or a self-edge for
  /// an edgeless tree) to a group's built tree, breaking acyclicity /
  /// well-formedness so auditor tests can prove detection. Forces a rebuild
  /// first so there is a tree to corrupt. Never call outside tests.
  void corrupt_tree_edge_for_test(net::GroupAddr group);

  /// Union of the per-layer tree edges of `session` for layers [1..max_layer]
  /// — the "multicast session topology" the paper's controller consumes —
  /// sorted, without duplicates.
  [[nodiscard]] std::vector<std::pair<net::NodeId, net::NodeId>> session_tree_edges(
      net::SessionId session, net::LayerId max_layer) const;

  /// net::MulticastForwarder:
  HOT_PATH void route(net::NodeId node, const net::Packet& packet,
                      std::vector<net::LinkId>& out_links, bool& deliver_locally) override;

  /// Topology changed (link failure/repair): every group tree is marked dirty
  /// and lazily rebuilt over the new unicast routes — members cut off from
  /// the source are pruned, members with a restored path are re-grafted.
  void on_topology_change() override;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct MemberState {
    bool local_active{false};                ///< packets delivered to the host
    sim::Time forward_until{sim::Time::zero()};  ///< tree carries traffic until then
  };
  struct GroupState {
    /// NodeId-indexed, sized to the network on the first join; a node that
    /// never joined keeps the default (no delivery, no forwarding).
    std::vector<MemberState> members;
    GroupTree tree;
    bool tree_dirty{true};
  };

  GroupState& group_state(net::GroupAddr group);
  HOT_PATH_EXEMPT(
      "control plane: a rebuild fires once per membership or topology change and the tree "
      "is cached until re-dirtied; route() serves the cached CSR fan-out per packet")
  void rebuild_tree(net::GroupAddr group, GroupState& state);

  sim::Simulation& simulation_;
  net::Network& network_;
  Config config_;
  std::unordered_map<net::GroupAddr, GroupState> groups_;
  /// groups_ values indexed by the Network's dense group-stats id (stamped
  /// into every multicast packet), so route() skips the GroupAddr hash on the
  /// per-hop path. Pointers are stable: unordered_map never moves its values.
  std::vector<GroupState*> groups_by_stats_id_;
  std::unordered_map<net::SessionId, net::NodeId> session_sources_;
  std::function<void(net::GroupAddr, const GroupTree&)> audit_hook_;

  /// rebuild_tree's scratch, reused across rebuilds. first_parent_ is
  /// NodeId-indexed and all kInvalidNode between rebuilds; second_parents_
  /// holds (child, parent) for a child reached from another parent too;
  /// hops_ is one member's route from the source.
  std::vector<net::NodeId> first_parent_;
  std::vector<std::pair<net::NodeId, net::NodeId>> second_parents_;
  std::vector<net::NodeId> hops_;
};

}  // namespace tsim::mcast
