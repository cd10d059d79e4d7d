#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/toposense.hpp"
#include "core/types.hpp"
#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace tsim::check {

/// What the auditor does when an invariant fails.
enum class AuditMode {
  kOff,     ///< no checks run, zero overhead
  kLog,     ///< record (and optionally print) violations, keep running
  kAssert,  ///< throw AuditError on the first violation
};

/// Parses "off" | "log" | "assert"; nullopt on anything else.
[[nodiscard]] std::optional<AuditMode> parse_audit_mode(std::string_view text);
[[nodiscard]] const char* audit_mode_name(AuditMode mode);

struct AuditConfig {
  AuditMode mode{AuditMode::kOff};
  /// Violations kept for the machine-readable report; the total count keeps
  /// incrementing past this bound.
  std::size_t max_recorded{256};
  /// In kLog mode, also print each violation to stderr as it happens.
  bool log_to_stderr{true};
};

/// One invariant failure, with enough context to localize it: which named
/// invariant, when in simulated time, under which topology epoch, and which
/// node/link was involved (kInvalidNode/kInvalidLink when not applicable).
struct Violation {
  std::string invariant;
  sim::Time when{sim::Time::zero()};
  std::uint64_t epoch{0};
  net::NodeId node{net::kInvalidNode};
  net::LinkId link{net::kInvalidLink};
  std::string detail;
};

/// Thrown in kAssert mode. Carries the triggering violation so tests can
/// assert on the invariant id and context.
class AuditError : public std::runtime_error {
 public:
  explicit AuditError(Violation violation);
  [[nodiscard]] const Violation& violation() const { return violation_; }

 private:
  Violation violation_;
};

/// Registry of named invariant checks over live simulation state (ISSUE 3
/// tentpole; the full catalogue is docs/invariants.md). Checks come in two
/// flavours:
///
///  * sweeps — registered by the attach_* calls and run every simulated
///    second once start() is called (or on demand via run_checks_now()):
///    per-link packet/byte conservation, scheduler monotonic-time and
///    slot-pool consistency, multicast-tree well-formedness of clean trees;
///  * event-driven — invoked from instrumentation hooks at the exact moment
///    the audited property must hold: tree rebuild (prune/re-graft),
///    controller pass postconditions, receiver watchdog decisions.
///
/// The auditor only observes: sweeps never trigger lazy tree rebuilds and no
/// check draws randomness or schedules behaviour-relevant events, so enabling
/// auditing cannot change a run's outcome.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditConfig config);

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// --- Wiring ------------------------------------------------------------

  /// Registers the scheduler checks and lets the auditor timestamp
  /// violations with simulation time.
  void attach_simulation(sim::Simulation& simulation);
  /// Registers the per-link conservation checks and provides the topology
  /// epoch for violation records.
  void attach_network(net::Network& network);
  /// Registers the tree sweep and installs the router's post-rebuild audit
  /// hook. Requires attach_network first (trees are validated against the
  /// live topology).
  void attach_multicast(mcast::MulticastRouter& router);
  /// Starts the periodic sweeps (no-op when mode is kOff or no simulation is
  /// attached).
  void start();

  /// Registers a custom named sweep check; `fn` reports through `report()`.
  void register_check(std::string name, std::function<void()> fn);
  /// Runs every registered sweep check once, in registration order.
  void run_checks_now();

  /// --- Event-driven validators --------------------------------------------

  /// Validates one freshly built (or clean) group tree: rooted, acyclic,
  /// single-parent, edges alive in the current topology epoch, no orphan
  /// receivers that the topology could reach.
  void check_group_tree(net::GroupAddr group, const mcast::GroupTree& tree);

  /// Validates the controller pass postconditions against one interval's
  /// input/output: bottleneck bandwidth and fair share monotone along every
  /// root-to-leaf path, fair shares on a shared link bounded by its estimated
  /// capacity (modulo the base-layer floor), subscription levels within layer
  /// bounds and prescriptions consistent with the computed supply.
  void on_algorithm_output(const core::AlgorithmInput& input, const core::AlgorithmOutput& output,
                           const core::TopoSense& algorithm);

  /// One receiver watchdog decision, checked against the sanity rules: never
  /// add-probe at/above the add-loss threshold or while starved, never drop
  /// a layer on a clean, un-starved window.
  struct WatchdogObservation {
    net::NodeId node{net::kInvalidNode};
    bool add{false};
    double loss{0.0};
    bool starved{false};
    double add_loss_threshold{0.0};
    double drop_loss_threshold{0.0};
  };
  void on_unilateral_action(const WatchdogObservation& obs);

  /// --- Reporting ----------------------------------------------------------

  /// Records a violation: counts it, keeps it for the report (up to
  /// max_recorded), prints it in kLog mode, throws AuditError in kAssert
  /// mode. No-op in kOff mode.
  void report(Violation violation);

  [[nodiscard]] const AuditConfig& config() const { return config_; }
  [[nodiscard]] AuditMode mode() const { return config_.mode; }
  [[nodiscard]] bool enabled() const { return config_.mode != AuditMode::kOff; }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::uint64_t violation_count() const { return violation_count_; }
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  /// Machine-readable report: mode, counters and the recorded violations.
  [[nodiscard]] std::string report_json() const;

  /// Timestamp source for callers without an attached simulation (library /
  /// bench use); ignored once attach_simulation was called.
  void set_now(sim::Time now) { manual_now_ = now; }

 private:
  [[nodiscard]] sim::Time now() const;
  [[nodiscard]] std::uint64_t epoch() const;

  void check_links();
  void check_scheduler();
  void check_clean_trees();

  AuditConfig config_;
  sim::Simulation* simulation_{nullptr};
  net::Network* network_{nullptr};
  mcast::MulticastRouter* multicast_{nullptr};
  sim::Time manual_now_{sim::Time::zero()};
  sim::Time last_seen_time_{sim::Time::zero()};
  bool seen_time_{false};
  bool started_{false};
  std::vector<std::pair<std::string, std::function<void()>>> checks_;
  std::vector<Violation> violations_;
  std::uint64_t violation_count_{0};
  std::uint64_t checks_run_{0};

  /// Scratch reused across controller passes so the per-pass check allocates
  /// nothing in steady state (keeps log-mode overhead within the 15% budget).
  struct PassScratch {
    /// Stamp-indexed per-node maps: an entry is valid only when its stamp
    /// matches the current session's (or the pass's, for the link-share
    /// accumulator), so switching sessions/passes is O(1) and the whole check
    /// allocates nothing in steady state. All vectors grow together to
    /// max-node-id + 1 via ensure_node().
    std::vector<std::uint64_t> node_stamp;   ///< node -> row validity
    std::vector<std::uint32_t> node_row;     ///< node -> diagnostics row
    std::vector<std::uint64_t> presc_stamp;  ///< node -> level validity
    std::vector<int> presc_level;            ///< node -> prescribed level
    /// Per-child fair-share accumulator across sessions (a child has one tree
    /// parent per session; the rare child sitting under *different* parents in
    /// different sessions spills into `spill`).
    std::vector<std::uint64_t> child_stamp;
    std::vector<std::uint32_t> child_parent;
    std::vector<double> child_sum;
    std::vector<int> child_sessions;
    std::vector<std::uint32_t> touched_children;  ///< diag order => deterministic
    struct Spill {
      std::uint64_t key;  ///< parent<<32|child
      double sum;
      int sessions;
    };
    std::vector<Spill> spill;
    /// Prescription indices bucketed by diagnostics-session index.
    std::vector<std::vector<std::uint32_t>> presc_by_session;
    std::uint64_t stamp{0};

    void ensure_node(std::uint32_t node);
  };
  PassScratch scratch_;
};

}  // namespace tsim::check
