#include "topo/mtrace.hpp"

#include <algorithm>
#include <memory>
#include <set>

namespace tsim::topo {

MtraceDiscovery::MtraceDiscovery(sim::Simulation& simulation, net::Network& network,
                                 mcast::MulticastRouter& mcast,
                                 transport::DemuxRegistry& demuxes, Config config)
    : simulation_{simulation},
      network_{network},
      mcast_{mcast},
      demuxes_{demuxes},
      config_{config} {
  demuxes_.at(config_.tool_node)
      .add_handler(net::PacketKind::kMtraceResponse,
                   [this](const net::PacketRef& p) { handle_response(*p); });
}

void MtraceDiscovery::track_session(net::SessionId session, net::LayerId max_layer) {
  tracked_[session] = max_layer;
}

void MtraceDiscovery::register_receiver(net::SessionId session, net::NodeId receiver) {
  const std::uint64_t key = (static_cast<std::uint64_t>(session) << 32) | receiver;
  if (!registered_keys_.insert(key).second) return;
  receivers_[session].push_back(receiver);

  // Responder: reply with the source->receiver hop path and layer membership.
  // The path comes from the routing state real mtrace would collect hop by
  // hop; membership is the host's own group table.
  demuxes_.at(receiver).add_handler(
      net::PacketKind::kMtraceQuery, [this, receiver](const net::PacketRef& p) {
        const auto* query = dynamic_cast<const MtraceQuery*>(p->control.get());
        if (query == nullptr || query->receiver != receiver) return;

        auto response = std::make_shared<MtraceResponse>();
        response->session = query->session;
        response->receiver = receiver;
        response->round = query->round;
        const net::NodeId source = mcast_.session_source(query->session);
        response->path = network_.routes().path(source, receiver);
        int layers = 0;
        const auto tracked = tracked_.find(query->session);
        const int max_layer = tracked == tracked_.end() ? 0 : tracked->second;
        for (int l = 1; l <= max_layer; ++l) {
          if (mcast_.is_member(receiver,
                               net::GroupAddr{query->session, static_cast<net::LayerId>(l)})) {
            layers = l;
          }
        }
        response->subscribed_layers = layers;

        net::Packet reply;
        reply.kind = net::PacketKind::kMtraceResponse;
        reply.size_bytes = kMtracePacketBytes;
        reply.src = receiver;
        reply.dst = config_.tool_node;
        reply.control = std::move(response);
        network_.send_unicast(reply);
      });
}

void MtraceDiscovery::start() {
  if (started_) return;
  started_ = true;
  run_round();
}

void MtraceDiscovery::run_round() {
  ++round_;
  pending_.clear();
  for (const auto& [session, receivers] : receivers_) {
    if (tracked_.find(session) == tracked_.end()) continue;
    for (const net::NodeId receiver : receivers) {
      auto query = std::make_shared<MtraceQuery>();
      query->session = session;
      query->receiver = receiver;
      query->round = round_;

      net::Packet packet;
      packet.kind = net::PacketKind::kMtraceQuery;
      packet.size_bytes = kMtracePacketBytes;
      packet.src = config_.tool_node;
      packet.dst = receiver;
      packet.control = std::move(query);
      network_.send_unicast(packet);
      ++queries_sent_;
    }
  }
  const std::uint32_t round = round_;
  simulation_.after(config_.assembly_delay, [this, round]() { assemble_round(round); });
  simulation_.after(config_.query_period, [this]() { run_round(); });
}

void MtraceDiscovery::handle_response(const net::Packet& packet) {
  const auto* response = dynamic_cast<const MtraceResponse*>(packet.control.get());
  if (response == nullptr || response->round != round_) return;  // straggler
  ++responses_received_;
  pending_.push_back(*response);
}

void MtraceDiscovery::assemble_round(std::uint32_t round) {
  if (round != round_) return;  // a newer round already started assembling

  std::unordered_map<net::SessionId, std::set<std::pair<net::NodeId, net::NodeId>>>
      edges_by_session;
  std::unordered_map<net::SessionId, std::vector<net::NodeId>> members_by_session;
  for (const MtraceResponse& r : pending_) {
    if (r.subscribed_layers < 1 || r.path.empty()) continue;
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      edges_by_session[r.session].emplace(r.path[i], r.path[i + 1]);
    }
    members_by_session[r.session].push_back(r.receiver);
  }

  for (const auto& [session, max_layer] : tracked_) {
    TopologySnapshot snap;
    snap.session = session;
    snap.source = mcast_.session_source(session);
    const auto eit = edges_by_session.find(session);
    if (eit != edges_by_session.end()) {
      snap.edges.assign(eit->second.begin(), eit->second.end());
    }
    const auto mit = members_by_session.find(session);
    if (mit != members_by_session.end()) {
      snap.receivers = mit->second;
      std::sort(snap.receivers.begin(), snap.receivers.end());
    }
    snap.captured_at = simulation_.now();
    // Keep the previous view when a whole round yielded nothing (e.g. all
    // responses lost to congestion) — stale beats empty.
    if (!snap.receivers.empty() || latest_.find(session) == latest_.end()) {
      latest_[session] = std::move(snap);
    }
  }
  pending_.clear();
}

const TopologySnapshot* MtraceDiscovery::snapshot(net::SessionId session) const {
  const auto it = latest_.find(session);
  return it == latest_.end() ? nullptr : &it->second;
}

}  // namespace tsim::topo
