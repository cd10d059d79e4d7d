#include "baseline/receiver_driven.hpp"

#include <algorithm>
#include <string>

namespace tsim::baseline {

namespace {
constexpr double kDropLoss = 0.05;  ///< drop a layer above this loss
constexpr double kAddLoss = 0.01;   ///< join experiment allowed below this
constexpr int kStableIntervals = 3;  ///< clean intervals required before adding
constexpr sim::Time kJoinTimerMin = sim::Time::seconds(5);    ///< initial per-layer backoff
constexpr sim::Time kJoinTimerMax = sim::Time::seconds(600);  ///< backoff ceiling
constexpr double kBackoffMultiplier = 2.0;  ///< growth after each failed experiment
}  // namespace

ReceiverDrivenController::ReceiverDrivenController(sim::Simulation& simulation, sim::Time period)
    : simulation_{simulation}, period_{period} {}

void ReceiverDrivenController::register_receiver(transport::ReceiverEndpoint& endpoint) {
  Receiver& r = receivers_.emplace_back();
  r.endpoint = &endpoint;
  r.rng = simulation_.rng_stream("rlm/" + std::to_string(endpoint.config().node) + "/" +
                                 std::to_string(endpoint.config().session));
  const auto layers = static_cast<std::size_t>(endpoint.config().layers.num_layers);
  r.join_not_before.assign(layers, sim::Time::zero());
  r.join_timer.assign(layers, kJoinTimerMin);
}

void ReceiverDrivenController::start() {
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    // Random phase so independent receivers do not tick in lockstep.
    const sim::Time phase =
        sim::Time::seconds(receivers_[i].rng.uniform(0.0, period_.as_seconds()));
    simulation_.at(period_ + phase, [this, i]() { tick(i); });
  }
}

void ReceiverDrivenController::tick(std::size_t index) {
  Receiver& r = receivers_[index];
  const sim::Time now = simulation_.now();
  const auto& window = r.endpoint->last_completed_window();
  const double loss = window.loss_rate().value();
  const int sub = r.endpoint->subscription();

  if (loss > kDropLoss) {
    r.clean_intervals = 0;
    if (r.last_added_layer == sub && sub > 1 && now <= r.experiment_deadline) {
      // Failed join experiment: drop back and back the layer's timer off.
      const std::size_t idx = static_cast<std::size_t>(sub - 1);
      r.join_timer[idx] = std::min(
          sim::Time::seconds(r.join_timer[idx].as_seconds() * kBackoffMultiplier),
          kJoinTimerMax);
      r.join_not_before[idx] = now + r.join_timer[idx];
      r.endpoint->set_subscription(sub - 1);
    } else if (sub > 1) {
      // Sustained congestion at the current level.
      r.endpoint->set_subscription(sub - 1);
      const std::size_t idx = static_cast<std::size_t>(sub - 1);
      r.join_not_before[idx] = now + r.join_timer[idx];
    }
    r.last_added_layer = 0;
  } else {
    if (loss <= kAddLoss) {
      ++r.clean_intervals;
    } else {
      r.clean_intervals = 0;
    }
    if (r.last_added_layer == sub && now > r.experiment_deadline) {
      // Experiment survived: the layer is considered safe; relax its timer.
      r.join_timer[static_cast<std::size_t>(sub - 1)] = kJoinTimerMin;
      r.last_added_layer = 0;
    }
    const int next = sub + 1;
    if (r.clean_intervals >= kStableIntervals &&
        next <= r.endpoint->config().layers.num_layers &&
        now >= r.join_not_before[static_cast<std::size_t>(next - 1)]) {
      r.endpoint->set_subscription(next);
      r.last_added_layer = next;
      r.experiment_deadline = now + period_ * 2;
      r.clean_intervals = 0;
    }
  }

  simulation_.after(period_, [this, index]() { tick(index); });
}

}  // namespace tsim::baseline
