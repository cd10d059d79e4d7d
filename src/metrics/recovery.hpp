#pragma once

#include <optional>

#include "metrics/subscription_metrics.hpp"
#include "sim/time.hpp"

namespace tsim::metrics {

/// Recovery analysis after a fault repair: how long a receiver takes to climb
/// back to within one layer of its optimal subscription and stay there.
struct RecoveryConfig {
  /// The moment the fault was repaired; the search starts here.
  sim::Time repair{sim::Time::zero()};
  /// Target level, usually the receiver's offline optimum.
  int target{0};
  /// End of the observation window (e.g. the run duration).
  sim::Time until{sim::Time::max()};
};

/// Time from `config.repair` until the timeline first reaches target - 1 and
/// holds it for 10 s, which filters the transient overshoot/undershoot right
/// after repair (the hold must start, not finish, inside the window; a spell
/// still open at `until` counts as held). std::nullopt when the receiver
/// never recovers within the window.
[[nodiscard]] std::optional<sim::Time> recovery_time(const SubscriptionTimeline& timeline,
                                                     const RecoveryConfig& config);

}  // namespace tsim::metrics
