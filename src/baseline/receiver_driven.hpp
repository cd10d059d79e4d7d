#pragma once

#include <cstdint>
#include <vector>

#include "control/adaptation_controller.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::baseline {

/// Receiver-driven layered multicast baseline (RLM-family): each receiver
/// adapts purely from its own end-to-end loss, with per-layer join-experiment
/// timers that back off multiplicatively after failed experiments. No
/// controller, no topology information, no cross-receiver coordination — the
/// contrast the paper's introduction motivates (an uninformed receiver can
/// misattribute a shared-bottleneck loss and make the wrong move).
///
/// One instance drives any number of receivers; the per-receiver state
/// (including each receiver's own rng stream, keyed "rlm/<node>/<session>" so
/// runs reproduce the pre-refactor streams exactly) is fully independent —
/// the shared object only exists so the scheme plugs into the
/// control::AdaptationController wiring like every other controller.
class ReceiverDrivenController final : public control::AdaptationController {
 public:
  /// `period` is each receiver's decision cadence.
  ReceiverDrivenController(sim::Simulation& simulation, sim::Time period);

  control::ReceiverAgent* register_receiver(transport::ReceiverEndpoint& endpoint) override;

  /// No control plane: all timers are per-receiver.
  void start() override {}

  /// Schedules each receiver's first decision tick (period + a random phase
  /// from the receiver's own stream, so receivers never tick in lockstep).
  void start_receiver_policies() override;

  /// While disabled, ticks keep their cadence but make no decisions
  /// (adaptation freeze — there is no central process to "die" here).
  void set_enabled(bool enabled) override;
  [[nodiscard]] bool enabled() const override { return enabled_; }

  [[nodiscard]] control::ControllerStats stats() const override;

  [[nodiscard]] std::uint64_t layers_added() const;
  [[nodiscard]] std::uint64_t layers_dropped() const;

 private:
  struct Receiver {
    transport::ReceiverEndpoint* endpoint{nullptr};
    sim::Rng rng{0};  ///< replaced with the receiver's own stream at register
    std::vector<sim::Time> join_not_before;  ///< per layer (1-based index-1)
    std::vector<sim::Time> join_timer;       ///< current backoff per layer
    int clean_intervals{0};
    int last_added_layer{0};                 ///< layer under experiment (0 = none)
    sim::Time experiment_deadline{};
    std::uint64_t adds{0};
    std::uint64_t drops{0};
  };

  void tick(std::size_t index);

  sim::Simulation& simulation_;
  sim::Time period_;
  /// unique_ptr per receiver: tick() callbacks capture the Receiver*, which
  /// must stay stable while registration keeps appending.
  std::vector<std::unique_ptr<Receiver>> receivers_;
  bool enabled_{true};
  std::uint64_t outages_{0};
};

}  // namespace tsim::baseline
