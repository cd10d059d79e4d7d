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
/// The watchdog counts missed controller intervals: after
/// `missed_intervals * expected_interval` of silence the receiver stops
/// trusting the controller and falls back to receiver-driven behaviour —
/// dropping a layer when its own loss is high (or when data stops entirely),
/// and cautiously probing one layer up when its loss is clean. Both paths
/// are rate-limited so a short suggestion gap never causes churn.
class ReceiverAgent {
 public:
  struct Config {
    /// The controller cadence this receiver expects (scenario wiring sets it
    /// to the algorithm interval). Zero falls back to the absolute
    /// `unilateral_timeout` below.
    sim::Time expected_interval{sim::Time::zero()};
    /// Missed intervals after which the receiver acts on its own.
    int missed_intervals{3};
    /// Absolute silence horizon used when expected_interval is zero.
    /// Suggestions ride the same queues as data, so during heavy congestion
    /// they are the first thing to die — the receiver must not wait long.
    sim::Time unilateral_timeout{sim::Time::seconds(6)};
    /// Shorter silence horizon used when loss is catastrophic (or data has
    /// stopped entirely): heavy loss is itself evidence that the suggestion
    /// packets are being lost with it.
    sim::Time emergency_timeout{sim::Time::seconds(3)};
    /// How often the silence check runs.
    sim::Time check_period{sim::Time::seconds(2)};
    /// Unilateral rule: drop one layer when own window loss exceeds this.
    double unilateral_drop_loss{0.15};
    /// Loss level considered catastrophic (enables emergency_timeout).
    double emergency_loss{0.35};
    /// Unilateral rule: with suggestions silent, data flowing and window loss
    /// below this, probe one layer up (RLM-style join experiment).
    double unilateral_add_loss{0.02};
    /// Minimum spacing between unilateral adds — a failed probe costs several
    /// seconds of congestion, so probes must be far apart.
    sim::Time add_holdoff{sim::Time::seconds(20)};
    sim::Time start{sim::Time::zero()};
  };

  ReceiverAgent(sim::Simulation& simulation, transport::ReceiverEndpoint& endpoint,
                Config config);

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

  /// Silence horizon in force (derived from expected_interval when set).
  [[nodiscard]] sim::Time silence_horizon() const;

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

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void check_silence();
  void note_gap(sim::Time now);

  sim::Simulation& simulation_;
  transport::ReceiverEndpoint& endpoint_;
  Config config_;
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
