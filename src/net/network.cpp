#include "net/network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/logging.hpp"

namespace tsim::net {

NodeId Network::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "n" + std::to_string(id);
  nodes_.push_back(Node{id, std::move(name), {}, {}});
  routes_valid_ = false;
  return id;
}

LinkId Network::add_link(NodeId from, NodeId to, units::BitsPerSec bandwidth, sim::Time latency,
                         std::size_t queue_limit_packets) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw std::out_of_range("Network::add_link: unknown node");
  }
  if (!(bandwidth > units::BitsPerSec::zero())) {  // NaN fails too
    throw std::invalid_argument("Network::add_link: bandwidth must be positive");
  }
  if (queue_limit_packets > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Network::add_link: queue limit " +
                                std::to_string(queue_limit_packets) + " exceeds 4294967295");
  }
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(std::make_unique<Link>(simulation_, *this, id, from));
  LinkHot hot;
  hot.queue_limit = static_cast<std::uint32_t>(queue_limit_packets);
  link_hot_.push_back(hot);
  link_params_.push_back(LinkParams{bandwidth, latency, to});
  if (link_count() > group_link_stride_ && group_stats_count() > 0) {
    restride_group_tables();
  }
  nodes_[from].out_links.push_back(id);
  routes_valid_ = false;
  return id;
}

std::pair<LinkId, LinkId> Network::add_duplex_link(NodeId a, NodeId b, units::BitsPerSec bandwidth,
                                                   sim::Time latency,
                                                   std::size_t queue_limit_packets) {
  const LinkId ab = add_link(a, b, bandwidth, latency, queue_limit_packets);
  const LinkId ba = add_link(b, a, bandwidth, latency, queue_limit_packets);
  return {ab, ba};
}

void Network::compute_routes() {
  std::vector<EdgeView> edges;
  edges.reserve(links_.size());
  for (const auto& link : links_) {
    if (!link->is_up()) continue;  // failed links carry no routes
    edges.push_back(EdgeView{link->from(), link->to(), link->id(),
                             link->latency().as_seconds()});
  }
  routing_.build(node_count(), edges);
  routes_valid_ = true;
}

void Network::on_topology_changed() {
  ++topology_version_;
  compute_routes();
  if (forwarder_ != nullptr) forwarder_->on_topology_change();
}

NodeId Network::find_node(std::string_view name) const {
  for (const Node& node : nodes_) {
    if (node.name == name) return node.id;
  }
  return kInvalidNode;
}

std::vector<LinkId> Network::links_between(NodeId a, NodeId b) const {
  std::vector<LinkId> result;
  for (const auto& link : links_) {
    if ((link->from() == a && link->to() == b) || (link->from() == b && link->to() == a)) {
      result.push_back(link->id());
    }
  }
  return result;
}

void Network::send_unicast(Packet packet) {
  if (!routes_valid_) throw std::logic_error("Network: compute_routes() not called");
  if (unicast_filter_ && !unicast_filter_(packet)) return;  // injected fault ate it
  packet.multicast = false;
  if (packet.uid == 0) packet.uid = next_packet_uid();
  packet.sent_at = simulation_.now();
  on_packet_arrival(packet.src, PacketRef::make(std::move(packet)));
}

void Network::send_multicast(Packet packet) {
  if (!routes_valid_) throw std::logic_error("Network: compute_routes() not called");
  packet.multicast = true;
  if (packet.uid == 0) packet.uid = next_packet_uid();
  packet.sent_at = simulation_.now();
  packet.group_stats_id = intern_group(packet.group);
  on_packet_arrival(packet.src, PacketRef::make(std::move(packet)));
}

std::uint32_t Network::intern_group_slow(GroupAddr group) {
  const std::uint32_t key = group.key();
  if (key >= group_stats_table_.size()) {
    group_stats_table_.resize(key + 1, kInvalidGroupStatsId);
  }
  const std::uint32_t id = group_stats_count();
  group_stats_table_[key] = id;
  group_stats_keys_.push_back(group);
  // Open this group's row in the per-(group,link) tables. The stride is fixed
  // on first intern (links are normally all present by then); add_link
  // re-strides if the topology keeps growing afterwards.
  if (group_link_stride_ < link_count()) restride_group_tables();
  if (group_link_stride_ == 0) group_link_stride_ = 1;  // keep rows non-empty
  const std::size_t cells = static_cast<std::size_t>(id + 1) * group_link_stride_;
  group_delivered_bytes_.resize(cells, 0);
  group_dropped_packets_.resize(cells, 0);
  return id;
}

void Network::restride_group_tables() {
  // Geometric growth so a stream of add_link calls after the first intern
  // costs amortized O(cells), not O(cells) per link.
  const std::size_t new_stride = std::max<std::size_t>(link_count(), group_link_stride_ * 2);
  const std::uint32_t groups = group_stats_count();
  std::vector<std::uint64_t> delivered(static_cast<std::size_t>(groups) * new_stride, 0);
  std::vector<std::uint64_t> dropped(delivered.size(), 0);
  for (std::uint32_t gid = 0; gid < groups; ++gid) {
    for (std::size_t l = 0; l < group_link_stride_; ++l) {
      delivered[gid * new_stride + l] = group_delivered_bytes_[gid * group_link_stride_ + l];
      dropped[gid * new_stride + l] = group_dropped_packets_[gid * group_link_stride_ + l];
    }
  }
  group_delivered_bytes_ = std::move(delivered);
  group_dropped_packets_ = std::move(dropped);
  group_link_stride_ = new_stride;
}

void Network::on_tx_complete(LinkId id, PacketRef packet) {
  LinkHot& hot = link_hot_[id];
  if ((hot.flags & LinkHot::kUp) == 0) {
    // The link failed while this packet was on the transmitter: it is lost.
    // (A repair may have raced new arrivals into the queue, so keep the
    // transmitter pipeline alive for them either way.)
    links_[id]->count_drop(*packet, /*fault=*/true);
  } else {
    ++hot.delivered_packets;
    hot.delivered_bytes += packet->size_bytes;
    if (packet->multicast) {
      group_delivered_cell(stamped_group_id(*packet), id) += packet->size_bytes;
    }
    // Propagation is pipelined: the next packet starts transmitting while
    // this one is in flight.
    const LinkParams& params = link_params_[id];
    simulation_.after(params.latency, [this, to = params.to, packet = std::move(packet)]() {
      on_packet_arrival(to, packet);
    });
  }

  if (hot.queue_len == 0) {
    hot.flags &= static_cast<std::uint8_t>(~LinkHot::kTransmitting);
    hot.transmitting_bytes = 0;
    // Only RED's EWMA idle decay ever reads the idle timestamp; skipping the
    // Link touch for plain links keeps the idle transition hot-table-only.
    if ((hot.flags & LinkHot::kRed) != 0) links_[id]->note_idle(simulation_.now());
    return;
  }
  PacketRef next = links_[id]->pop_queue();
  --hot.queue_len;
  // transmitting stays set: the transmitter goes straight to the next packet.
  hot.transmitting_bytes = next->size_bytes;
  const sim::Time tx =
      transmission_time_for(next->size_bytes, link_params_[id].bandwidth);
  simulation_.after(tx, [this, id, next = std::move(next)]() { on_tx_complete(id, next); });
}

void Network::on_packet_arrival(NodeId node_id, const PacketRef& packet) {
  Node& node = nodes_[node_id];

  if (packet->multicast) {
    if (forwarder_ == nullptr) return;  // no multicast routing installed
    thread_local std::vector<LinkId> out_links;
    out_links.clear();
    bool deliver_locally = false;
    forwarder_->route(node_id, *packet, out_links, deliver_locally);
    if (deliver_locally && node.local_sink) node.local_sink(packet);
    for (const LinkId link_id : out_links) enqueue(link_id, packet);
    return;
  }

  // Unicast path.
  if (packet->dst == node_id) {
    if (node.local_sink) node.local_sink(packet);
    return;
  }
  const LinkId hop = routing_.next_hop(node_id, packet->dst);
  if (hop == kInvalidLink) {
    log_no_route(node);
    return;
  }
  enqueue(hop, packet);
}

void Network::log_no_route(const Node& node) const {
  // Info, not warn: with fault injection a partitioned network legitimately
  // has unroutable control traffic for the whole outage window.
  sim::Logger::log(sim::LogLevel::kInfo, simulation_.now(), "net",
                   "dropping unicast packet: no route from " + node.name);
}

void Network::set_local_sink(NodeId node, std::function<void(const PacketRef&)> sink) {
  nodes_[node].local_sink = std::move(sink);
}

}  // namespace tsim::net
