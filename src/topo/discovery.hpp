#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mcast/multicast_router.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "topo/provider.hpp"

namespace tsim::topo {

/// Simulated multicast topology discovery tool.
///
/// The paper treats discovery as a black box that yields the session tree in
/// the controller's domain, possibly out of date; the *only* property it
/// studies is staleness (Fig 10). We therefore sample the ground-truth trees
/// periodically and serve, at query time `t`, the newest sample captured at
/// or before `t - staleness`. Queries never go back in time, so each session
/// keeps only that sample and the ones captured after it.
class DiscoveryService final : public TopologyProvider {
 public:
  struct Config {
    sim::Time sample_period{sim::Time::seconds(1)};
    sim::Time staleness{sim::Time::zero()};

    /// Domain scoping (§II / Fig 3): when non-empty, snapshots contain only
    /// tree edges with both endpoints inside the domain, rooted at
    /// `domain_root` (the domain's ingress/border router). A controller
    /// scoped this way manages its subtree independently of other domains.
    std::unordered_set<net::NodeId> domain_nodes{};
    net::NodeId domain_root{net::kInvalidNode};
  };

  DiscoveryService(sim::Simulation& simulation, mcast::MulticastRouter& mcast, Config config);

  /// Registers a session for periodic sampling. `max_layer` bounds the
  /// per-layer tree overlay.
  void track_session(net::SessionId session, net::LayerId max_layer) override;

  /// Begins periodic sampling (first sample immediately).
  void start() override;

  /// Newest snapshot for `session` captured at or before now - staleness;
  /// nullptr when none old enough exists yet.
  [[nodiscard]] const TopologySnapshot* snapshot(net::SessionId session) const override;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void sample_all();

  sim::Simulation& simulation_;
  mcast::MulticastRouter& mcast_;
  Config config_;
  // Ordered: sample_all() iterates tracked_ and its iteration order decides
  // lazy tree-rebuild (and audit-hook) order, which must be deterministic.
  std::map<net::SessionId, net::LayerId> tracked_;
  std::unordered_map<net::SessionId, std::deque<TopologySnapshot>> history_;
  bool started_{false};
};

}  // namespace tsim::topo
