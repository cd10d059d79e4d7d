#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace tsim::fault {

/// Drives a FaultPlan through the event scheduler against a concrete network:
/// resolves node names to links, schedules every event at its absolute time,
/// and — for link failures/repairs — bumps the network's topology epoch so
/// unicast routes are recomputed and multicast trees pruned/re-grafted.
///
/// Controller faults are delivered through an injected hook (a
/// std::function), so this library depends only on sim + net and any
/// control-plane implementation can participate.
///
/// Determinism: every event time comes from the plan, every random draw
/// (lossy links, suggestion drop) comes from seeded per-purpose RNG streams,
/// so two same-seed runs of the same plan are bit-identical.
class FaultInjector {
 public:
  struct Hooks {
    /// Called with false at a controller-down event, true at controller-up.
    std::function<void(bool enabled)> set_controller_enabled;
  };

  struct Stats {
    std::uint64_t link_down_transitions{0};  ///< includes flap cycles
    std::uint64_t link_up_transitions{0};
    std::uint64_t controller_outages{0};
    std::uint64_t suggestions_dropped{0};
  };

  /// Validates and resolves the plan against `network`. Throws
  /// std::invalid_argument on a malformed plan or an unknown node name, and
  /// std::invalid_argument when a named pair has no link between it.
  FaultInjector(sim::Simulation& simulation, net::Network& network, FaultPlan plan,
                Hooks hooks = {});

  /// Schedules every event (idempotent; call once before running the
  /// simulation past the first event time).
  void start();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct ResolvedLinks {
    std::vector<net::LinkId> links;  ///< both directions of the duplex pair
  };

  [[nodiscard]] ResolvedLinks resolve_link(const std::string& a, const std::string& b) const;
  void set_links_up(const ResolvedLinks& links, bool up);
  void schedule_event(const FaultEvent& event);
  void install_suggestion_filter();

  sim::Simulation& simulation_;
  net::Network& network_;
  FaultPlan plan_;
  Hooks hooks_;
  Stats stats_;
  sim::Rng suggestion_rng_;
  double suggestion_drop_p_{0.0};
  bool started_{false};
  bool filter_installed_{false};
};

}  // namespace tsim::fault
