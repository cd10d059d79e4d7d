#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulation.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::control {

/// Receiver-side policy for TopoSense: obey controller suggestions, and act
/// unilaterally only when suggestion packets stop arriving (the paper's
/// resilience rule for lossy control channels and controller outages).
///
/// The watchdog counts missed controller intervals: after three intervals
/// of silence the receiver stops trusting the controller and falls back to
/// receiver-driven behaviour — dropping a layer when its own loss is high
/// (or when data stops entirely), and cautiously probing one layer up when
/// its loss is clean. Both paths are rate-limited so a short suggestion gap
/// never causes churn. The two loss thresholds the auditor checks against
/// are below; the periods and the emergency rule are in receiver_agent.cpp.
class ReceiverAgent {
 public:
  /// Unilateral rule: drop one layer when own window loss exceeds this.
  static constexpr double kUnilateralDropLoss = 0.15;
  /// Unilateral rule: with suggestions silent, data flowing and window loss
  /// below this, probe one layer up (RLM-style join experiment).
  static constexpr double kUnilateralAddLoss = 0.02;

  /// `controller_interval` is the controller cadence this receiver expects
  /// (the algorithm interval).
  ReceiverAgent(sim::Simulation& simulation, transport::ReceiverEndpoint& endpoint,
                sim::Time controller_interval);

  void start();

  [[nodiscard]] std::uint64_t suggestions_applied() const { return suggestions_applied_; }
  /// Unilateral actions taken while the controller was silent.
  [[nodiscard]] std::uint64_t unilateral_actions() const {
    return unilateral_adds_ + unilateral_drops_;
  }
  [[nodiscard]] std::uint64_t unilateral_adds() const { return unilateral_adds_; }
  [[nodiscard]] std::uint64_t unilateral_drops() const { return unilateral_drops_; }

  /// --- Suggestion-gap metrics (fault/recovery observability) --------------

  /// Longest observed silence between suggestions (includes the still-open
  /// gap as of the latest watchdog check).
  [[nodiscard]] sim::Time max_suggestion_gap() const { return max_gap_; }
  /// Cumulative time spent past the silence horizon, in watchdog-check
  /// granularity — "how long was this receiver flying blind".
  [[nodiscard]] sim::Time suggestion_gap_time() const { return gap_time_; }

  /// One unilateral watchdog decision, as observed at the instant it was
  /// taken. The invariant auditor checks the watchdog sanity rules against
  /// these (e.g. never add-probe while loss is at or above the add
  /// threshold, never drop on a clean un-starved window).
  struct UnilateralAction {
    bool add{false};       ///< true: probed one layer up; false: dropped one
    double loss{0.0};      ///< window loss rate that motivated the action
    bool starved{false};   ///< subscribed but zero packets in the window
    int level_after{0};    ///< subscription level after the action
  };
  using UnilateralHook = std::function<void(const UnilateralAction&)>;
  void set_unilateral_hook(UnilateralHook hook) { unilateral_hook_ = std::move(hook); }

 private:
  void check_silence();
  void note_gap(sim::Time now);

  sim::Simulation& simulation_;
  transport::ReceiverEndpoint& endpoint_;
  /// Suggestion silence after which the receiver acts on its own.
  sim::Time silence_horizon_;
  sim::Time last_suggestion_{sim::Time::zero()};
  sim::Time last_unilateral_add_{sim::Time::zero()};
  std::uint32_t last_epoch_{0};
  std::uint64_t suggestions_applied_{0};
  std::uint64_t unilateral_adds_{0};
  std::uint64_t unilateral_drops_{0};
  sim::Time max_gap_{sim::Time::zero()};
  sim::Time gap_time_{sim::Time::zero()};
  UnilateralHook unilateral_hook_;
};

}  // namespace tsim::control
