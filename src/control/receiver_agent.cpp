#include "control/receiver_agent.hpp"

#include <algorithm>

namespace tsim::control {

ReceiverAgent::ReceiverAgent(sim::Simulation& simulation,
                             transport::ReceiverEndpoint& endpoint, Config config)
    : simulation_{simulation}, endpoint_{endpoint}, config_{config} {
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

sim::Time ReceiverAgent::silence_horizon() const {
  if (config_.expected_interval > sim::Time::zero()) {
    return config_.expected_interval * std::max(config_.missed_intervals, 1);
  }
  return config_.unilateral_timeout;
}

void ReceiverAgent::start() {
  last_suggestion_ = config_.start;
  simulation_.at(config_.start + config_.check_period, [this]() { check_silence(); });
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
    const sim::Time horizon = silence_horizon();
    const sim::Time emergency =
        std::min(horizon, std::max(config_.emergency_timeout, config_.check_period));
    const sim::Time silence = now - last_suggestion_;
    if (silence > horizon) gap_time_ = gap_time_ + config_.check_period;

    const bool emergency_case = loss > config_.emergency_loss || starved;
    if (silence > (emergency_case ? emergency : horizon)) {
      // No guidance: protect the network on our own, one layer at a time.
      if ((loss > config_.unilateral_drop_loss || starved) && endpoint_.subscription() > 1) {
        endpoint_.set_subscription(endpoint_.subscription() - 1);
        ++unilateral_drops_;
        last_suggestion_ = now;  // give the drop time to take effect
        if (unilateral_hook_) {
          unilateral_hook_(UnilateralAction{false, loss, starved, endpoint_.subscription()});
        }
      } else if (!starved && loss < config_.unilateral_add_loss &&
                 window.received_packets > units::PacketCount::zero() &&
                 endpoint_.subscription() <
                     static_cast<int>(endpoint_.config().layers.num_layers) &&
                 now - last_unilateral_add_ >= config_.add_holdoff) {
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
  simulation_.after(config_.check_period, [this]() { check_silence(); });
}

}  // namespace tsim::control
