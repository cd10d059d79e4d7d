#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/hotpath.hpp"
#include "core/units.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"

namespace tsim::net {

/// Strategy interface for multicast forwarding. The mcast subsystem installs
/// an implementation; keeping it an interface lets `net` stay independent of
/// the group-management layer (and lets tests stub multicast trivially).
class MulticastForwarder {
 public:
  virtual ~MulticastForwarder() = default;

  /// Decides replication for `packet` arriving (or originating) at `node`:
  /// fills `out_links` with the links to copy the packet onto and sets
  /// `deliver_locally` when the node hosts a subscribed receiver.
  virtual void route(NodeId node, const Packet& packet, std::vector<LinkId>& out_links,
                     bool& deliver_locally) = 0;

  /// Invoked after the network topology changed (a link failed or was
  /// repaired) and unicast routes were recomputed: distribution trees built
  /// on the old routes must be pruned and re-grafted.
  virtual void on_topology_change() {}
};

/// A named node. Behaviour lives in the Network (forwarding) and in local
/// sinks registered by endpoints (traffic receivers, controller agents).
struct Node {
  NodeId id{kInvalidNode};
  std::string name;
  std::vector<LinkId> out_links;
  std::function<void(const PacketRef&)> local_sink;  ///< invoked on local delivery
};

/// The simulated network: nodes, links, unicast routing and the packet
/// forwarding engine. Multicast replication is delegated to an installed
/// MulticastForwarder.
///
/// The per-packet datapath state is struct-of-arrays: a dense LinkId-indexed
/// LinkHot table (counters + transmitter/queue occupancy + gate flags), a
/// dense read-only LinkParams table, and flat per-(group,link) delivery/drop
/// tables. A 10k-receiver fan-out therefore walks three contiguous arrays
/// instead of 10k heap-scattered Link objects; the Link slow paths (down,
/// fault loss, RED) mutate the same entries, so the tables are the single
/// source of truth.
class Network {
 public:
  explicit Network(sim::Simulation& simulation) : simulation_{simulation} {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// --- Topology construction -------------------------------------------

  NodeId add_node(std::string name = {});

  /// Adds a unidirectional link. Queue limit defaults to the ns drop-tail
  /// default of 50 packets. Throws std::invalid_argument for a bandwidth that
  /// is not positive (NaN included) or a queue limit above 4294967295
  /// (LinkHot holds it in 32 bits).
  LinkId add_link(NodeId from, NodeId to, units::BitsPerSec bandwidth, sim::Time latency,
                  std::size_t queue_limit_packets = 50);

  /// Adds a duplex link (two unidirectional links); returns {a->b, b->a}.
  std::pair<LinkId, LinkId> add_duplex_link(NodeId a, NodeId b, units::BitsPerSec bandwidth,
                                            sim::Time latency,
                                            std::size_t queue_limit_packets = 50);

  /// (Re)computes unicast shortest-path routes. Must be called after the
  /// topology is final and before any traffic is sent. Links that are down
  /// are excluded, so failed links are routed around when an alternate path
  /// exists.
  void compute_routes();

  /// Declares a topology change (links went down or came back up): routes
  /// are recomputed over the surviving links, the topology epoch is bumped,
  /// and the multicast forwarder is told to prune/re-graft its trees.
  void on_topology_changed();

  /// Monotonic counter bumped by on_topology_changed(); lets caches keyed on
  /// the physical topology (controller tree caches, snapshots) detect change.
  [[nodiscard]] std::uint64_t topology_version() const { return topology_version_; }

  /// --- Sending -----------------------------------------------------------

  /// Sends a unicast packet from `packet.src` toward `packet.dst` through the
  /// network (hop-by-hop over the same queues data traffic uses, so control
  /// traffic competes for bandwidth and can be lost — as in the paper).
  void send_unicast(Packet packet);

  /// Originates a multicast packet at `packet.src`; replication follows the
  /// installed forwarder.
  void send_multicast(Packet packet);

  /// Internal: invoked by links when a packet finishes traversing them.
  HOT_PATH void on_packet_arrival(NodeId node, const PacketRef& packet);

  /// --- Datapath (internal: Link and Network cooperate through these) ------

  /// Offers `packet` to link `id`. The healthy cases — idle link starts
  /// transmitting; busy link queues or tail-drops — complete against the hot
  /// table alone; any other flag state detours to Link::enqueue_slow.
  HOT_PATH void enqueue(LinkId id, const PacketRef& packet) {
    LinkHot& hot = link_hot_[id];
    const std::uint32_t size = packet->size_bytes;
    ++hot.enqueued_packets;
    hot.enqueued_bytes += size;
    if (hot.flags == LinkHot::kUp) {  // idle and healthy: straight to the wire
      start_transmission(id, packet);
      return;
    }
    if (hot.flags == (LinkHot::kUp | LinkHot::kTransmitting)) {  // busy, healthy
      if (hot.queue_len < hot.queue_limit) {
        ++hot.queue_len;
        links_[id]->push_queue(packet);
      } else {
        ++hot.dropped_packets;
        hot.dropped_bytes += size;
        if (packet->multicast) {
          ++group_dropped_cell(stamped_group_id(*packet), id);
        }
      }
      return;
    }
    links_[id]->enqueue_slow(packet);  // down / fault loss / RED
  }

  /// Puts `packet` on link `id`'s transmitter and schedules its completion.
  /// The transmitter must be free; shared by the fast path and Link's slow
  /// enqueue so scheduling is identical on both.
  HOT_PATH void start_transmission(LinkId id, const PacketRef& packet) {
    LinkHot& hot = link_hot_[id];
    hot.flags |= LinkHot::kTransmitting;
    hot.transmitting_bytes = packet->size_bytes;
    const sim::Time tx =
        transmission_time_for(packet->size_bytes, link_params_[id].bandwidth);
    // `packet = packet`, not `packet`: a plain copy capture of a const
    // reference is a const member, which makes the closure copy-only, and
    // SmallCallback stores only nothrow-movable closures.
    simulation_.after(tx, [this, id, packet = packet]() { on_tx_complete(id, packet); });
  }

  [[nodiscard]] LinkHot& link_hot(LinkId id) { return link_hot_[id]; }
  [[nodiscard]] const LinkHot& link_hot(LinkId id) const { return link_hot_[id]; }
  /// Fixed-at-build link parameters from the dense table, so per-step walks
  /// (the fluid engine) never touch the cold Link object.
  [[nodiscard]] const LinkParams& link_params(LinkId id) const { return link_params_[id]; }

  /// Credits one integration step's worth of fluid-model traffic on link
  /// `id` into the same counters the packet datapath maintains: the LinkHot
  /// totals and (for interned groups — pass kInvalidGroupStatsId for
  /// background unicast flows) the per-(group,link) tables. The enqueued
  /// side is bumped by exactly delivered + dropped, so the conservation
  /// invariant (enqueued == delivered + dropped + queued + transmitting)
  /// holds with the fluid backlog living outside these counters.
  HOT_PATH void credit_fluid_link(LinkId id, std::uint32_t gid, units::Bytes delivered_bytes,
                         units::PacketCount delivered_packets, units::Bytes dropped_bytes,
                         units::PacketCount dropped_packets) {
    LinkHot& hot = link_hot_[id];
    hot.enqueued_packets += delivered_packets.count() + dropped_packets.count();
    hot.enqueued_bytes += delivered_bytes.count() + dropped_bytes.count();
    hot.delivered_packets += delivered_packets.count();
    hot.delivered_bytes += delivered_bytes.count();
    hot.dropped_packets += dropped_packets.count();
    hot.dropped_bytes += dropped_bytes.count();
    if (gid != kInvalidGroupStatsId) {
      group_delivered_cell(gid, id) += delivered_bytes.count();
      group_dropped_cell(gid, id) += dropped_packets.count();
    }
  }

  /// Per-(group,link) delivery/drop cells, laid out as one contiguous row per
  /// group so a fan-out over many links stays on one row. Rows exist for
  /// every interned group (intern_group grows them).
  [[nodiscard]] std::uint64_t& group_delivered_cell(std::uint32_t gid, LinkId link) {
    return group_delivered_bytes_[static_cast<std::size_t>(gid) * group_link_stride_ + link];
  }
  [[nodiscard]] std::uint64_t& group_dropped_cell(std::uint32_t gid, LinkId link) {
    return group_dropped_packets_[static_cast<std::size_t>(gid) * group_link_stride_ + link];
  }
  [[nodiscard]] std::uint64_t group_delivered_cell(std::uint32_t gid, LinkId link) const {
    return group_delivered_bytes_[static_cast<std::size_t>(gid) * group_link_stride_ + link];
  }
  [[nodiscard]] std::uint64_t group_dropped_cell(std::uint32_t gid, LinkId link) const {
    return group_dropped_packets_[static_cast<std::size_t>(gid) * group_link_stride_ + link];
  }

  /// --- Wiring ------------------------------------------------------------

  void set_local_sink(NodeId node, std::function<void(const PacketRef&)> sink);
  void set_multicast_forwarder(MulticastForwarder* forwarder) { forwarder_ = forwarder; }

  /// Optional egress filter consulted by send_unicast; returning false drops
  /// the packet before it enters the network. Installed by the fault injector
  /// for targeted control-plane loss (e.g. suggestion-packet drop).
  void set_unicast_filter(std::function<bool(const Packet&)> filter) {
    unicast_filter_ = std::move(filter);
  }

  /// --- Introspection -------------------------------------------------------

  [[nodiscard]] std::uint32_t node_count() const { return static_cast<std::uint32_t>(nodes_.size()); }
  /// Node id by name, or kInvalidNode when no node has that name. A linear
  /// scan, for the few lookups made after a scenario is built (cross-traffic
  /// endpoints, fault links); Scenario::from_description resolves a
  /// description's names through its own index.
  [[nodiscard]] NodeId find_node(std::string_view name) const;
  /// All links between `a` and `b` in either direction (a duplex pair).
  [[nodiscard]] std::vector<LinkId> links_between(NodeId a, NodeId b) const;
  [[nodiscard]] std::uint32_t link_count() const { return static_cast<std::uint32_t>(links_.size()); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] Link& link(LinkId id) { return *links_[id]; }
  [[nodiscard]] const Link& link(LinkId id) const { return *links_[id]; }
  [[nodiscard]] const RoutingTable& routes() const { return routing_; }
  /// Registers `dst` as a unicast sink (see RoutingTable::add_sink): lookups
  /// toward it share one destination-rooted row instead of materializing a
  /// per-source row per sender. Every Scenario registers each domain's
  /// controller, so N reporting receivers cost one row, not N.
  void add_routing_sink(NodeId dst) { routing_.add_sink(dst); }
  [[nodiscard]] sim::Simulation& simulation() { return simulation_; }

  /// Fresh globally-unique packet uid.
  [[nodiscard]] std::uint64_t next_packet_uid() { return next_uid_++; }

  /// --- Group stats interning ----------------------------------------------
  /// Dense ids for multicast groups, in first-encounter order. The
  /// per-(group,link) tables index by these instead of hashing GroupAddr per
  /// packet; send_multicast stamps the id into the packet once per send.

  /// Id for `group`, interning it on first sight. The flat table makes the
  /// hit path (every send_multicast) an array load; the miss path lives in
  /// the .cpp.
  [[nodiscard]] std::uint32_t intern_group(GroupAddr group) {
    const std::uint32_t key = group.key();
    if (key < group_stats_table_.size() &&
        group_stats_table_[key] != kInvalidGroupStatsId) {
      return group_stats_table_[key];
    }
    return intern_group_slow(group);
  }
  /// Id for `group`, or kInvalidGroupStatsId when it was never interned.
  [[nodiscard]] std::uint32_t find_group_id(GroupAddr group) const {
    const std::uint32_t key = group.key();
    return key < group_stats_table_.size() ? group_stats_table_[key]
                                           : kInvalidGroupStatsId;
  }
  [[nodiscard]] std::uint32_t group_stats_count() const {
    return static_cast<std::uint32_t>(group_stats_keys_.size());
  }
  /// The GroupAddr behind a dense id (inverse of intern_group).
  [[nodiscard]] GroupAddr group_stats_key(std::uint32_t id) const {
    return group_stats_keys_[id];
  }

 private:
  HOT_PATH_EXEMPT(
      "first-sight group interning: grows the dense id tables once per new group; every "
      "later send takes the inline array-hit path in intern_group")
  [[nodiscard]] std::uint32_t intern_group_slow(GroupAddr group);

  /// Cold diagnostic for the no-route unicast drop. Out of line so the
  /// formatting + logging it does never sits inline in the arrival path.
  HOT_PATH_EXEMPT(
      "cold diagnostic: fires only for unroutable packets during partition windows; "
      "string formatting and stderr logging are off the per-packet contract")
  void log_no_route(const Node& node) const;

  /// The dense id for a multicast packet: the stamp from send_multicast, or
  /// an on-the-fly intern for packets injected below it (tests).
  [[nodiscard]] std::uint32_t stamped_group_id(const Packet& packet) {
    if (packet.group_stats_id != kInvalidGroupStatsId) return packet.group_stats_id;
    return intern_group(packet.group);
  }

  /// A transmission on link `id` finished: deliver or fail the packet, then
  /// pull the next one from the queue or park the transmitter idle.
  HOT_PATH void on_tx_complete(LinkId id, PacketRef packet);

  /// Widens the per-(group,link) tables when links outgrow the row stride.
  void restride_group_tables();

  sim::Simulation& simulation_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  /// Hot datapath state, one cache line per link (see LinkHot).
  std::vector<LinkHot> link_hot_;
  /// Read-only fast-path parameters, parallel to link_hot_.
  std::vector<LinkParams> link_params_;
  RoutingTable routing_;
  MulticastForwarder* forwarder_{nullptr};
  std::function<bool(const Packet&)> unicast_filter_;
  std::uint64_t next_uid_{1};
  std::uint64_t topology_version_{0};
  bool routes_valid_{false};
  /// GroupAddr::key() -> dense id, kInvalidGroupStatsId for never-seen keys.
  /// key() packs (session, layer) into a small integer, so a grow-on-demand
  /// flat table beats a hash map on the per-send hit path.
  std::vector<std::uint32_t> group_stats_table_;
  std::vector<GroupAddr> group_stats_keys_;
  /// Per-(group,link) ground-truth counters: row-per-group flat tables,
  /// cell [gid * stride + link]. Stride grows geometrically with the link
  /// count (links are normally all added before the first group is interned,
  /// so re-striding is a startup-only event).
  std::vector<std::uint64_t> group_delivered_bytes_;
  std::vector<std::uint64_t> group_dropped_packets_;
  std::size_t group_link_stride_{0};
};

}  // namespace tsim::net
