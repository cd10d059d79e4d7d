#include "control/receiver_agent.hpp"

#include <algorithm>

namespace tsim::control {

namespace {
/// Missed controller intervals after which the receiver acts on its own.
constexpr std::int64_t kMissedIntervals = 3;
/// Shorter silence horizon used when loss is catastrophic (or data has
/// stopped entirely): heavy loss is itself evidence that the suggestion
/// packets are being lost with it.
constexpr sim::Time kEmergencyTimeout = sim::Time::seconds(3);
/// How often the silence check runs; the first check is one period in.
constexpr sim::Time kCheckPeriod = sim::Time::seconds(2);
static_assert(kEmergencyTimeout >= kCheckPeriod,
              "the emergency horizon must span at least one silence check");
/// Loss level considered catastrophic (enables kEmergencyTimeout).
constexpr double kEmergencyLoss = 0.35;
/// Minimum spacing between unilateral adds — a failed probe costs several
/// seconds of congestion, so probes must be far apart.
constexpr sim::Time kAddHoldoff = sim::Time::seconds(20);
}  // namespace

ReceiverAgent::ReceiverAgent(sim::Simulation& simulation,
                             transport::ReceiverEndpoint& endpoint, sim::Time controller_interval)
    : simulation_{simulation},
      endpoint_{endpoint},
      silence_horizon_{controller_interval * kMissedIntervals} {
  endpoint_.on_suggestion([this](const transport::Suggestion& suggestion) {
    // Stale-but-reordered suggestions are impossible over our FIFO links, but
    // a lost interval makes epochs skip; accept any epoch >= the last seen.
    if (suggestion.epoch < last_epoch_) return;
    last_epoch_ = suggestion.epoch;
    note_gap(simulation_.now());
    last_suggestion_ = simulation_.now();
    ++suggestions_applied_;
    endpoint_.set_subscription(suggestion.subscription);
  });
}

void ReceiverAgent::start() {
  simulation_.at(kCheckPeriod, [this]() { check_silence(); });
}

void ReceiverAgent::note_gap(sim::Time now) {
  if (now > last_suggestion_) max_gap_ = std::max(max_gap_, now - last_suggestion_);
}

void ReceiverAgent::check_silence() {
  const sim::Time now = simulation_.now();
  if (endpoint_.active()) {
    note_gap(now);
    const auto& window = endpoint_.last_completed_window();
    const double loss = window.loss_rate().value();
    // Total silence on the data plane is invisible to sequence-gap loss
    // detection (no packets, no gaps), so a subscribed-but-starved receiver
    // must be treated like a catastrophic-loss one: the path is likely down.
    const bool starved = endpoint_.subscription() > 0 &&
                         window.received_packets == units::PacketCount::zero() &&
                         window.lost_packets == units::PacketCount::zero();
    const sim::Time emergency = std::min(silence_horizon_, kEmergencyTimeout);
    const sim::Time silence = now - last_suggestion_;
    if (silence > silence_horizon_) gap_time_ = gap_time_ + kCheckPeriod;

    const bool emergency_case = loss > kEmergencyLoss || starved;
    if (silence > (emergency_case ? emergency : silence_horizon_)) {
      // No guidance: protect the network on our own, one layer at a time.
      if ((loss > kUnilateralDropLoss || starved) && endpoint_.subscription() > 1) {
        endpoint_.set_subscription(endpoint_.subscription() - 1);
        ++unilateral_drops_;
        last_suggestion_ = now;  // give the drop time to take effect
        if (unilateral_hook_) {
          unilateral_hook_(UnilateralAction{false, loss, starved, endpoint_.subscription()});
        }
      } else if (!starved && loss < kUnilateralAddLoss &&
                 window.received_packets > units::PacketCount::zero() &&
                 endpoint_.subscription() <
                     static_cast<int>(endpoint_.config().layers.num_layers) &&
                 now - last_unilateral_add_ >= kAddHoldoff) {
        // Data flows cleanly but the controller is mute: probe one layer up
        // (the receiver-driven fallback), spaced by the add holdoff so a
        // failed probe's congestion clears before the next attempt.
        endpoint_.set_subscription(endpoint_.subscription() + 1);
        ++unilateral_adds_;
        last_unilateral_add_ = now;
        if (unilateral_hook_) {
          unilateral_hook_(UnilateralAction{true, loss, starved, endpoint_.subscription()});
        }
      }
    }
  }
  simulation_.after(kCheckPeriod, [this]() { check_silence(); });
}

}  // namespace tsim::control
