#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "topo/provider.hpp"
#include "transport/demux.hpp"

namespace tsim::topo {

/// mtrace-style query payload: "which path does session S take to you, and
/// which layers do you hold?".
struct MtraceQuery final : net::ControlPayload {
  net::SessionId session{0};
  net::NodeId receiver{net::kInvalidNode};
  std::uint32_t round{0};
};

/// Response payload carrying the hop path from the session source to the
/// receiver and the receiver's per-layer membership — what the routers'
/// mtrace blocks report hop by hop.
struct MtraceResponse final : net::ControlPayload {
  net::SessionId session{0};
  net::NodeId receiver{net::kInvalidNode};
  std::uint32_t round{0};
  std::vector<net::NodeId> path;  ///< source first, receiver last
  int subscribed_layers{0};
};

inline constexpr std::uint32_t kMtracePacketBytes = 96;

/// Packet-based topology discovery: each discovery round unicasts one query
/// per registered receiver; the receiver-side responder answers with the
/// source->receiver hop path (which real mtrace collects from the routers)
/// and its layer membership. The tool assembles the responses of a round into
/// a TopologySnapshot.
///
/// Unlike the oracle DiscoveryService, every query/response here is a real
/// packet sharing queues with data: discovery costs bandwidth (linear in
/// receivers, as §V requires), takes at least one source-receiver RTT, and
/// loses messages under congestion — so snapshots can be incomplete or old,
/// emergently rather than by configuration.
class MtraceDiscovery final : public TopologyProvider {
 public:
  struct Config {
    net::NodeId tool_node{net::kInvalidNode};  ///< where the tool runs
    sim::Time query_period{sim::Time::seconds(2)};
    /// A round's snapshot is published this long after its queries go out,
    /// from whatever responses arrived (stragglers are dropped).
    sim::Time assembly_delay{sim::Time::milliseconds(1500)};
  };

  MtraceDiscovery(sim::Simulation& simulation, net::Network& network,
                  mcast::MulticastRouter& mcast, transport::DemuxRegistry& demuxes,
                  Config config);

  /// Installs the responder on a receiver node (the "mtrace daemon").
  void register_receiver(net::SessionId session, net::NodeId receiver);

  void track_session(net::SessionId session, net::LayerId max_layer) override;
  void start() override;
  [[nodiscard]] const TopologySnapshot* snapshot(net::SessionId session) const override;

  [[nodiscard]] std::uint64_t queries_sent() const { return queries_sent_; }
  [[nodiscard]] std::uint64_t responses_received() const { return responses_received_; }

 private:
  void run_round();
  void assemble_round(std::uint32_t round);
  void handle_response(const net::Packet& packet);

  sim::Simulation& simulation_;
  net::Network& network_;
  mcast::MulticastRouter& mcast_;
  transport::DemuxRegistry& demuxes_;
  Config config_;
  // Ordered: run_round() iterates these and its iteration order decides the
  // order queries enter the network, which must be deterministic.
  std::map<net::SessionId, net::LayerId> tracked_;
  std::map<net::SessionId, std::vector<net::NodeId>> receivers_;
  /// (session<<32|receiver) for every entry of receivers_: the O(1)
  /// duplicate check (lookup-only).
  std::unordered_set<std::uint64_t> registered_keys_;
  std::vector<MtraceResponse> pending_;  ///< responses of the current round
  std::unordered_map<net::SessionId, TopologySnapshot> latest_;
  std::uint32_t round_{0};
  std::uint64_t queries_sent_{0};
  std::uint64_t responses_received_{0};
  bool started_{false};
};

}  // namespace tsim::topo
