#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/toposense.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "topo/provider.hpp"
#include "transport/control_messages.hpp"
#include "transport/demux.hpp"

namespace tsim::control {

/// A controller agent's wire and lifecycle counters (see set_enabled for which
/// of them survive an outage).
struct ControllerStats {
  std::uint64_t reports_received{0};
  std::uint64_t suggestions_sent{0};
  std::uint64_t intervals_run{0};
  std::uint64_t outages{0};
};

/// The paper's per-domain controller agent. An application-level entity at
/// one node that (1) receives RTCP-like receiver reports, (2) pulls session
/// tree snapshots from the topology discovery tool, (3) runs TopoSense once
/// per interval, and (4) unicasts subscription suggestions back to the
/// receivers. All of its traffic traverses the simulated network and competes
/// with data, so reports and suggestions can be lost, as in the paper's
/// simulations.
///
/// In a multi-domain deployment (control::DomainManager) each domain runs one
/// agent over its own receivers only. A child domain appears to its parent as
/// a single pseudo-receiver at the domain's border node, fed by periodic
/// DomainSummary exchanges instead of raw reports (register_border_receiver /
/// ingest_border_summary), and the parent's prescription for that border
/// comes back as a subscription cap the child clamps its own prescriptions
/// to (set_session_cap).
///
/// Scenarios run the agent inside a TopoSenseDomain, which adds the topology
/// provider and the per-receiver watchdogs.
class ControllerAgent final {
 public:
  struct Config {
    net::NodeId node{net::kInvalidNode};
    core::Params params{};
    /// Loss/report staleness: the algorithm only consumes reports whose
    /// window ended at or before now - info_staleness (Fig 10 pairs this with
    /// the topology staleness configured on the DiscoveryService).
    sim::Time info_staleness{sim::Time::zero()};
  };

  ControllerAgent(sim::Simulation& simulation, net::Network& network,
                  topo::TopologyProvider& discovery, transport::PacketDemux& demux,
                  Config config);

  ControllerAgent(const ControllerAgent&) = delete;
  ControllerAgent& operator=(const ControllerAgent&) = delete;

  /// Receivers register on session join (§II); registration is a direct call
  /// because the paper treats it as out-of-band setup.
  void register_receiver(net::SessionId session, net::NodeId receiver);

  /// Starts the periodic algorithm runs, the first at 2.5 s.
  void start();

  /// Fault hook: while disabled the controller neither consumes reports nor
  /// computes/sends suggestions (its interval timer keeps ticking so a
  /// restart needs no rescheduling).
  ///
  /// Restart semantics (pinned by tests/fault): disabling models the process
  /// dying, so the in-memory report history dies with it and must be
  /// re-learned after a restart (report_history_size() drops to zero, and the
  /// first post-restart intervals run on whatever fresh reports have arrived
  /// since). The reports_received / suggestions_sent / intervals_run counters
  /// are durable audit records — deliberately *retained* across outages.
  /// Session caps and border registrations (multi-domain state) are
  /// configuration, not learned state, and also survive.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t outages() const { return outages_; }
  [[nodiscard]] ControllerStats stats() const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const core::TopoSense& algorithm() const { return algorithm_; }
  [[nodiscard]] const core::AlgorithmOutput& last_output() const { return last_output_; }
  [[nodiscard]] std::uint64_t reports_received() const { return reports_received_; }
  [[nodiscard]] std::uint64_t suggestions_sent() const { return suggestions_sent_; }
  [[nodiscard]] std::uint64_t intervals_run() const { return epoch_; }

  /// Reports currently held in the learning history (all receivers). A
  /// receiver's history keeps only the reports an interval can still read
  /// (see remember). Zero right after an outage began — see set_enabled.
  [[nodiscard]] std::size_t report_history_size() const;

  /// --- Inter-domain summary support (driven by DomainManager) -------------

  /// Declares `border` a pseudo-receiver of `session`: it participates in the
  /// algorithm like a registered receiver, but its "reports" are synthesized
  /// from child-domain summaries and its prescriptions go to the border hook
  /// instead of onto the wire as suggestions.
  void register_border_receiver(net::SessionId session, net::NodeId border);
  [[nodiscard]] bool is_border(net::SessionId session, net::NodeId node) const;

  /// Aggregates this domain's knowledge of `session` into a child->parent
  /// summary (see transport::DomainSummary for the semantics of each field).
  /// `window_end` bounds which reports are folded in, exactly like an
  /// algorithm interval would.
  [[nodiscard]] transport::DomainSummary build_session_summary(net::SessionId session,
                                                               sim::Time window_end) const;

  /// Folds a child-domain demand summary into the report history as a
  /// synthetic report from the border pseudo-receiver. Does not touch
  /// reports_received, which counts only real wire reports.
  void ingest_border_summary(const transport::DomainSummary& summary);

  /// Upstream ceiling for `session` from the parent domain's prescription for
  /// our border; every outgoing prescription of the session is clamped to it.
  /// cap <= 0 removes the cap.
  void set_session_cap(net::SessionId session, int cap);
  [[nodiscard]] int session_cap(net::SessionId session) const;  ///< 0 = uncapped

  /// Receives every prescription addressed to a border pseudo-receiver (in
  /// place of a wire suggestion). DomainManager turns these into downstream
  /// cap summaries.
  using BorderHook = std::function<void(const core::Prescription&)>;
  void set_border_hook(BorderHook hook) { border_hook_ = std::move(hook); }

  /// Registered receivers by session, in registration order. DomainManager
  /// reads this to know which sessions the domain participates in.
  [[nodiscard]] const std::map<net::SessionId, std::vector<net::NodeId>>& registered() const {
    return registered_;
  }

  /// Invoked after every enabled interval that ran the algorithm, with the
  /// exact input and output of that pass. The invariant auditor hangs its
  /// controller-postcondition checks here; the hook must not mutate agent
  /// state.
  using AuditHook = std::function<void(const core::AlgorithmInput&, const core::AlgorithmOutput&)>;
  void set_audit_hook(AuditHook hook) { audit_hook_ = std::move(hook); }

 private:
  void handle_report(const net::Packet& packet);
  /// Appends `report` to its receiver's history and drops the reports no
  /// later aggregate_reports call can read.
  void remember(const transport::ReceiverReport& report);
  void run_interval();
  void send_suggestion(const core::Prescription& prescription);
  /// The prescription's subscription after the session cap (if any).
  [[nodiscard]] int capped_subscription(const core::Prescription& prescription) const;

  /// Aggregate of the reports of one receiver that fall inside the algorithm
  /// window (respecting staleness).
  struct ReportAggregate {
    bool valid{false};
    units::LossFraction loss_rate{};
    units::Bytes bytes{};
    units::PacketCount received{};
    units::PacketCount lost{};
    int subscription{1};
  };
  [[nodiscard]] ReportAggregate aggregate_reports(net::SessionId session, net::NodeId receiver,
                                                  sim::Time window_end) const;

  sim::Simulation& simulation_;
  net::Network& network_;
  topo::TopologyProvider& discovery_;
  Config config_;
  core::TopoSense algorithm_;
  /// Ordered map: run_interval iterates this to build AlgorithmInput, and the
  /// session order must not depend on hash-table layout (determinism lint).
  std::map<net::SessionId, std::vector<net::NodeId>> registered_;
  /// (session<<32|receiver) for every entry of registered_: the O(1)
  /// duplicate check and run_interval's membership test (lookup-only).
  std::unordered_set<std::uint64_t> registered_keys_;
  /// (session<<32|receiver) -> recent reports, newest at the back.
  std::unordered_map<std::uint64_t, std::deque<transport::ReceiverReport>> reports_;
  core::AlgorithmOutput last_output_;
  std::uint64_t reports_received_{0};
  std::uint64_t suggestions_sent_{0};
  std::uint32_t epoch_{0};
  bool enabled_{true};
  std::uint64_t outages_{0};
  AuditHook audit_hook_;

  /// --- multi-domain state (empty and inert in single-domain runs) ---------
  /// (session<<32|node) border membership; std::map for deterministic sweeps.
  std::map<std::uint64_t, bool> borders_;
  std::map<net::SessionId, int> session_caps_;
  BorderHook border_hook_;
};

}  // namespace tsim::control
