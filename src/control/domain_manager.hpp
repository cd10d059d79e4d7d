#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "control/controller_agent.hpp"
#include "control/receiver_agent.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "topo/provider.hpp"
#include "transport/demux.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::control {

/// One routing domain of a partitioned topology. The controller node doubles
/// as the domain's border: it is the root through which the parent domain's
/// tree enters, and the node the parent sees as the whole domain's
/// pseudo-receiver.
struct Domain {
  std::string name;
  net::NodeId controller_node{net::kInvalidNode};
  std::vector<net::NodeId> nodes;  ///< nodes this domain owns (incl. controller_node)
  int parent{-1};                  ///< index of the parent domain, -1 for a root
};

/// The paper's per-domain deployment unit for TopoSense: a topology provider
/// scoped to the domain, the controller agent consuming only this domain's
/// receiver reports, and the per-receiver watchdog agents, which expect a
/// suggestion every `params.interval` of the agent's configuration —
/// constructed and started in exactly the order the single-controller
/// scenario wiring used, so a one-domain run is bit-identical to the
/// pre-domain code (pinned by tests/control/domain_manager_test.cpp).
class TopoSenseDomain final {
 public:
  TopoSenseDomain(sim::Simulation& simulation, net::Network& network,
                  transport::DemuxRegistry& demuxes,
                  std::unique_ptr<topo::TopologyProvider> discovery,
                  ControllerAgent::Config config);

  /// Registers the endpoint with the agent and gives it a watchdog, which
  /// the domain owns.
  ReceiverAgent& register_receiver(transport::ReceiverEndpoint& endpoint);
  /// Starts discovery, then the agent (the first discovery sample runs
  /// synchronously).
  void start();
  /// Starts the watchdogs, in registration order.
  void start_watchdogs();

  [[nodiscard]] ControllerAgent& agent() { return *agent_; }
  [[nodiscard]] topo::TopologyProvider& discovery() { return *discovery_; }

 private:
  sim::Simulation& simulation_;
  std::unique_ptr<topo::TopologyProvider> discovery_;
  std::unique_ptr<ControllerAgent> agent_;
  std::vector<std::unique_ptr<ReceiverAgent>> watchdogs_;
};

/// Runs one TopoSenseDomain per routing domain and the inter-domain control
/// plane between them:
///
///   * receivers are routed to their domain's unit by node ownership;
///   * each child domain periodically compresses its state into a
///     DomainSummary and unicasts it (a real kSummary packet, subject to
///     queueing and loss) to its parent's controller, where it is ingested as
///     a synthetic report from the child's border node;
///   * the parent's prescriptions for border pseudo-receivers come back as
///     kCap summaries that clamp the child's own prescriptions, so a
///     bottleneck above the border still binds receivers the parent has
///     never heard of.
///
/// The manager is the one owner of node -> domain ownership. The summary
/// exchange arms whenever there is more than one domain.
class DomainManager final {
 public:
  /// Child -> parent summary cadence and first exchange. The cap direction
  /// is event-driven (one cap per parent interval that prescribed for the
  /// border), so it needs no timer of its own.
  static constexpr sim::Time kSummaryPeriod = sim::Time::seconds(5);
  static constexpr sim::Time kSummaryStart = sim::Time::seconds(5);

  /// Builds the unit of one domain. Called once per domain, in domain order,
  /// during DomainManager construction.
  using DomainFactory =
      std::function<std::unique_ptr<TopoSenseDomain>(std::size_t index, const Domain&)>;

  /// `domains` needs at least one entry, and its parents must form a forest.
  /// Throws std::invalid_argument when the domain list is empty, a domain
  /// names a node the network does not have, a node is owned by two domains,
  /// a controller node is outside its own domain, a parent index is invalid,
  /// or the parent links contain a cycle.
  DomainManager(sim::Simulation& simulation, net::Network& network,
                transport::DemuxRegistry& demuxes, std::vector<Domain> domains,
                const DomainFactory& factory);

  /// Timers and demux handlers hold `this`.
  DomainManager(const DomainManager&) = delete;
  DomainManager& operator=(const DomainManager&) = delete;

  /// Routes the endpoint to the unit owning its node and returns its
  /// watchdog. Throws std::invalid_argument for nodes no domain owns.
  ReceiverAgent& register_receiver(transport::ReceiverEndpoint& endpoint);

  /// Starts every domain's unit (in domain order), then arms the summary
  /// exchange: borders are registered with parent controllers for every
  /// session the child participates in, and the periodic demand timers are
  /// scheduled. Border registration happens here — not on first summary
  /// arrival — so the algorithm-input ordering never depends on packet
  /// timing.
  void start();
  /// Starts every domain's watchdogs, in domain order. Called once, after
  /// every endpoint has started.
  void start_watchdogs();

  /// Fault hook: a fault that kills "the controller" kills the control plane
  /// of every domain, not one shard of it.
  void set_enabled(bool enabled);

  [[nodiscard]] std::size_t domain_count() const { return entries_.size(); }
  [[nodiscard]] const Domain& domain(std::size_t index) const { return entries_[index].domain; }
  /// The TopoSense unit of domain `index`.
  [[nodiscard]] TopoSenseDomain& scheme(std::size_t index) { return *entries_[index].unit; }
  /// The controller agent of domain `index`; never null.
  [[nodiscard]] ControllerAgent* agent(std::size_t index) {
    return &entries_[index].unit->agent();
  }
  /// Domain owning `node`; -1 when unowned.
  [[nodiscard]] int domain_of(net::NodeId node) const {
    return node < domain_of_node_.size() ? domain_of_node_[node] : -1;
  }
  /// Controller node of the domain owning `node`; kInvalidNode when unowned.
  [[nodiscard]] net::NodeId controller_of(net::NodeId node) const {
    const int index = domain_of(node);
    return index < 0 ? net::kInvalidNode
                     : entries_[static_cast<std::size_t>(index)].domain.controller_node;
  }

  [[nodiscard]] bool summaries_enabled() const { return entries_.size() > 1; }
  [[nodiscard]] std::uint64_t summaries_sent() const { return summaries_sent_; }
  [[nodiscard]] std::uint64_t summaries_received() const { return summaries_received_; }
  [[nodiscard]] std::uint64_t caps_sent() const { return caps_sent_; }
  [[nodiscard]] std::uint64_t caps_received() const { return caps_received_; }

  /// Summary-consistency sweep for the invariant auditor: re-validates the
  /// partition, checks cap ranges against the layer count, counter sanity
  /// (received <= sent: the network may lose summaries, never mint them) and
  /// replays any protocol violations recorded at ingest (non-monotonic
  /// summary windows, summaries for unknown borders). Invokes `report` once
  /// per failure with a human-readable detail.
  void check_consistency(const std::function<void(const std::string&)>& report) const;

 private:
  struct Entry {
    Domain domain;
    std::unique_ptr<TopoSenseDomain> unit;
    std::uint32_t summary_seq{0};
  };

  /// Checks the partition and fills domain_of_node_ on the way.
  void validate_partition();
  void send_summaries(std::size_t index);
  void handle_summary(std::size_t index, const net::Packet& packet);
  void send_cap(std::size_t parent_index, const core::Prescription& prescription);
  void note_violation(std::string detail);

  sim::Simulation& simulation_;
  net::Network& network_;
  std::vector<Entry> entries_;
  /// Owning domain per NodeId, -1 for a node no domain owns.
  std::vector<int> domain_of_node_;
  std::unordered_map<net::NodeId, std::size_t> child_of_border_;
  std::uint64_t summaries_sent_{0};
  std::uint64_t summaries_received_{0};
  std::uint64_t caps_sent_{0};
  std::uint64_t caps_received_{0};
  /// (domain index << 32 | session) -> last ingested demand window_end.
  std::map<std::uint64_t, sim::Time> last_ingested_window_;
  std::vector<std::string> violations_;  ///< bounded; see note_violation
};

}  // namespace tsim::control
