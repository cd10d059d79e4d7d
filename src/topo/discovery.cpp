#include "topo/discovery.hpp"

#include <utility>

namespace tsim::topo {

DiscoveryService::DiscoveryService(sim::Simulation& simulation, mcast::MulticastRouter& mcast,
                                   Config config)
    : simulation_{simulation}, mcast_{mcast}, config_{std::move(config)} {}

void DiscoveryService::track_session(net::SessionId session, net::LayerId max_layer) {
  tracked_[session] = max_layer;
}

void DiscoveryService::start() {
  if (started_) return;
  started_ = true;
  sample_all();
}

void DiscoveryService::sample_all() {
  const bool scoped = !config_.domain_nodes.empty();
  for (const auto& [session, max_layer] : tracked_) {
    TopologySnapshot snap;
    snap.session = session;
    snap.source = scoped ? config_.domain_root : mcast_.session_source(session);
    snap.edges = mcast_.session_tree_edges(session, max_layer);
    snap.receivers = mcast_.members(net::GroupAddr{session, 1});
    if (scoped) {
      std::erase_if(snap.edges, [&](const auto& edge) {
        return config_.domain_nodes.count(edge.first) == 0 ||
               config_.domain_nodes.count(edge.second) == 0;
      });
      std::erase_if(snap.receivers, [&](net::NodeId r) {
        return config_.domain_nodes.count(r) == 0;
      });
    }
    snap.captured_at = simulation_.now();

    std::deque<TopologySnapshot>& hist = history_[session];
    hist.push_back(std::move(snap));
    // Every later query's cutoff is at or after this one, so a snapshot
    // followed by one captured by the cutoff is never served again.
    const sim::Time cutoff = simulation_.now() - config_.staleness;
    while (hist.size() > 1 && hist[1].captured_at <= cutoff) hist.pop_front();
  }
  simulation_.after(config_.sample_period, [this]() { sample_all(); });
}

const TopologySnapshot* DiscoveryService::snapshot(net::SessionId session) const {
  const auto it = history_.find(session);
  if (it == history_.end() || it->second.empty()) return nullptr;
  const sim::Time cutoff = simulation_.now() - config_.staleness;
  const TopologySnapshot* best = nullptr;
  for (const TopologySnapshot& snap : it->second) {
    if (snap.captured_at <= cutoff) best = &snap;
  }
  return best;
}

}  // namespace tsim::topo
