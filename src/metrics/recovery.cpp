#include "metrics/recovery.hpp"

#include <algorithm>

namespace tsim::metrics {

namespace {
/// Levels at or above target - kTolerance count as recovered.
constexpr int kTolerance = 1;
/// How long the level must hold continuously to count.
constexpr sim::Time kHold = sim::Time::seconds(10);
}  // namespace

std::optional<sim::Time> recovery_time(const SubscriptionTimeline& timeline,
                                       const RecoveryConfig& config) {
  const int threshold = config.target - kTolerance;
  const auto& points = timeline.points();

  // Walk the step function from the repair instant; a recovery spell starts
  // whenever the level rises to >= threshold and ends at the next point
  // below it (or the window end, which counts as holding forever).
  std::optional<sim::Time> spell_start;
  if (timeline.level_at(config.repair) >= threshold) spell_start = config.repair;

  auto spell_long_enough = [&](sim::Time start, sim::Time end) {
    return end - start >= kHold;
  };

  for (const auto& [when, level] : points) {
    if (when <= config.repair) continue;
    if (when > config.until) break;
    if (level >= threshold) {
      if (!spell_start) spell_start = when;
    } else if (spell_start) {
      if (spell_long_enough(*spell_start, when)) return *spell_start - config.repair;
      spell_start.reset();
    }
  }
  if (spell_start && spell_long_enough(*spell_start, config.until)) {
    return *spell_start - config.repair;
  }
  return std::nullopt;
}

}  // namespace tsim::metrics
