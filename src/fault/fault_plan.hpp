#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace tsim::fault {

/// What a single fault event does. Link faults name their target link by its
/// endpoint node names (faults apply to both directions of a duplex link), so
/// a plan can be authored before — and independently of — the concrete
/// network it will run against; the FaultInjector resolves names to link ids
/// at install time.
enum class FaultKind : std::uint8_t {
  kLinkDown,        ///< hard failure at `at`: queue drained, in-flight packets fail
  kLinkUp,          ///< repair at `at`
  kLinkFlap,        ///< periodic down/up in [at, until) with `period` and `duty`
  kLinkLossy,       ///< Bernoulli(p) drop on every enqueue in [at, until)
  kControllerDown,  ///< controller agent stops computing/sending at `at`
  kControllerUp,    ///< controller restarts (with cleared report state) at `at`
  kSuggestionDrop,  ///< drop suggestion packets with probability p in [at, until)
};

/// One timed event of a fault plan. Which fields are meaningful depends on
/// `kind`; unused fields keep their defaults.
struct FaultEvent {
  FaultKind kind{FaultKind::kLinkDown};
  std::string a;  ///< link endpoint (node name); empty for non-link faults
  std::string b;  ///< other link endpoint
  sim::Time at{sim::Time::zero()};       ///< event time (window start for windowed kinds)
  sim::Time until{sim::Time::max()};     ///< window end (flap, lossy, suggestion drop)
  double probability{0.0};               ///< lossy / suggestion-drop probability
  sim::Time period{sim::Time::zero()};   ///< flap cycle length
  double duty{0.5};                      ///< flap fraction of each cycle spent UP
};

/// A deterministic, schedule-driven fault plan: an ordered list of timed
/// events built fluently (or parsed from a topology file's `fault`
/// directives) and handed to a FaultInjector. The plan itself is pure data —
/// it references nodes by name and knows nothing about the simulator — so it
/// can be validated, printed, and reused across scenarios.
class FaultPlan {
 public:
  /// Hard link failure at `at`; the link stays down until a later link_up.
  FaultPlan& link_down(std::string a, std::string b, sim::Time at);

  /// Repairs a failed link at `at`.
  FaultPlan& link_up(std::string a, std::string b, sim::Time at);

  /// Convenience: failure at `down_at`, repair at `up_at`.
  FaultPlan& link_outage(std::string a, std::string b, sim::Time down_at, sim::Time up_at);

  /// Link flapping in [from, to): each `period` starts with (1-duty)*period
  /// down, then duty*period up; the link is restored to UP at `to`.
  FaultPlan& link_flap(std::string a, std::string b, sim::Time from, sim::Time to,
                       sim::Time period, double duty = 0.5);

  /// Bernoulli packet loss with probability `p` on the link in [from, to).
  FaultPlan& link_lossy(std::string a, std::string b, double p, sim::Time from, sim::Time to);

  /// Controller outage in [from, to): no reports consumed, no suggestions
  /// sent; on restart the controller's report history is gone.
  FaultPlan& controller_outage(sim::Time from, sim::Time to);

  /// Drops controller suggestion packets with probability `p` in [from, to) —
  /// the targeted "suggestions stop arriving" fault of the paper's
  /// resilience argument, without touching data traffic.
  FaultPlan& drop_suggestions(double p, sim::Time from, sim::Time to);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Events in insertion order (as authored / parsed).
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }

  /// Events stably sorted by start time — the order the injector installs.
  [[nodiscard]] std::vector<FaultEvent> sorted_events() const;

  /// The first problem validate() finds: the offending event, as an index
  /// into events(), and a one-line description.
  struct Problem {
    std::size_t event{0};
    std::string message;
  };

  /// Nothing when the plan is well-formed; otherwise its first problem
  /// (probability out of range, inverted window, non-positive flap period,
  /// an up without a preceding down, ...).
  [[nodiscard]] std::optional<Problem> validate() const;

  /// One-line-per-event human-readable rendering (for CLI banners and logs).
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace tsim::fault
