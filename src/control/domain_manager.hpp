#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "control/adaptation_controller.hpp"
#include "control/controller_agent.hpp"
#include "control/receiver_agent.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "topo/provider.hpp"
#include "transport/demux.hpp"

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
class TopoSenseDomain final : public AdaptationController {
 public:
  TopoSenseDomain(sim::Simulation& simulation, net::Network& network,
                  transport::DemuxRegistry& demuxes,
                  std::unique_ptr<topo::TopologyProvider> discovery,
                  ControllerAgent::Config config);

  ReceiverAgent* register_receiver(transport::ReceiverEndpoint& endpoint) override;
  void start() override;
  void start_receiver_policies() override;
  void set_enabled(bool enabled) override { agent_->set_enabled(enabled); }
  [[nodiscard]] bool enabled() const override { return agent_->enabled(); }
  [[nodiscard]] ControllerStats stats() const override { return agent_->stats(); }

  [[nodiscard]] ControllerAgent& agent() { return *agent_; }
  [[nodiscard]] const ControllerAgent& agent() const { return *agent_; }
  [[nodiscard]] topo::TopologyProvider& discovery() { return *discovery_; }
  [[nodiscard]] const std::vector<std::unique_ptr<ReceiverAgent>>& watchdogs() const {
    return watchdogs_;
  }

 private:
  sim::Simulation& simulation_;
  std::unique_ptr<topo::TopologyProvider> discovery_;
  std::unique_ptr<ControllerAgent> agent_;
  std::vector<std::unique_ptr<ReceiverAgent>> watchdogs_;
};

/// Composes one adaptation scheme per routing domain behind the single
/// AdaptationController the scenario wiring talks to, and runs the
/// inter-domain control plane between them:
///
///   * receivers are routed to their domain's scheme by node ownership;
///   * each child domain periodically compresses its state into a
///     DomainSummary and unicasts it (a real kSummary packet, subject to
///     queueing and loss) to its parent's controller, where it is ingested as
///     a synthetic report from the child's border node;
///   * the parent's prescriptions for border pseudo-receivers come back as
///     kCap summaries that clamp the child's own prescriptions, so a
///     bottleneck above the border still binds receivers the parent has
///     never heard of.
///
/// Scheme construction is delegated to a factory, so the manager composes N
/// controllers without branching on a controller kind; the summary exchange
/// arms itself only when every domain's scheme exposes a ControllerAgent
/// (receiver-driven and null schemes run their domains fully independently).
class DomainManager final : public AdaptationController {
 public:
  /// Child -> parent summary cadence and first exchange. The cap direction
  /// is event-driven (one cap per parent interval that prescribed for the
  /// border), so it needs no timer of its own.
  static constexpr sim::Time kSummaryPeriod = sim::Time::seconds(5);
  static constexpr sim::Time kSummaryStart = sim::Time::seconds(5);

  /// Builds the scheme for one domain. Called once per domain, in domain
  /// order, during DomainManager construction.
  using SchemeFactory =
      std::function<std::unique_ptr<AdaptationController>(std::size_t index, const Domain&)>;

  /// `domains` needs at least one entry, and its parents must form a forest.
  /// Throws std::invalid_argument when the domain list is empty, a node is
  /// owned by two domains, a controller node is outside its own domain, a
  /// parent index is invalid, or the parent links contain a cycle.
  DomainManager(sim::Simulation& simulation, net::Network& network,
                transport::DemuxRegistry& demuxes, std::vector<Domain> domains,
                const SchemeFactory& factory);

  /// Routes the endpoint to the scheme owning its node. Throws
  /// std::invalid_argument for nodes no domain owns.
  ReceiverAgent* register_receiver(transport::ReceiverEndpoint& endpoint) override;

  /// Starts every domain's scheme (in domain order), then arms the summary
  /// exchange: borders are registered with parent controllers for every
  /// session the child participates in, and the periodic demand timers are
  /// scheduled. Border registration happens here — not on first summary
  /// arrival — so the algorithm-input ordering never depends on packet
  /// timing.
  void start() override;
  void start_receiver_policies() override;

  /// Forwards to every domain (a fault that kills "the controller" kills the
  /// control plane, not one shard of it; per-domain outages can be injected
  /// through scheme(i).set_enabled).
  void set_enabled(bool enabled) override;
  [[nodiscard]] bool enabled() const override;
  [[nodiscard]] ControllerStats stats() const override;  ///< summed over domains

  [[nodiscard]] std::size_t domain_count() const { return entries_.size(); }
  [[nodiscard]] const Domain& domain(std::size_t index) const { return entries_[index].domain; }
  [[nodiscard]] AdaptationController& scheme(std::size_t index) {
    return *entries_[index].scheme;
  }
  /// The domain's ControllerAgent, or nullptr when its scheme is not
  /// TopoSense-based.
  [[nodiscard]] ControllerAgent* agent(std::size_t index) {
    return entries_[index].agent;
  }
  /// Domain owning `node`; -1 when unowned.
  [[nodiscard]] int domain_of(net::NodeId node) const;

  [[nodiscard]] bool summaries_enabled() const { return summaries_enabled_; }
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
    std::unique_ptr<AdaptationController> scheme;
    ControllerAgent* agent{nullptr};  ///< capability: non-null for TopoSense schemes
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
  std::unordered_map<net::NodeId, int> domain_of_node_;
  std::unordered_map<net::NodeId, std::size_t> child_of_border_;
  bool summaries_enabled_{false};
  std::uint64_t summaries_sent_{0};
  std::uint64_t summaries_received_{0};
  std::uint64_t caps_sent_{0};
  std::uint64_t caps_received_{0};
  /// (domain index << 32 | session) -> last ingested demand window_end.
  std::map<std::uint64_t, sim::Time> last_ingested_window_;
  std::vector<std::string> violations_;  ///< bounded; see note_violation
};

}  // namespace tsim::control
