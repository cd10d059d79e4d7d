#pragma once

#include <cstddef>
#include <vector>

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
/// One instance drives every receiver of a run; the per-receiver state
/// (including each receiver's own rng stream, keyed "rlm/<node>/<session>")
/// is fully independent.
class ReceiverDrivenController final {
 public:
  /// `period` is each receiver's decision cadence.
  ReceiverDrivenController(sim::Simulation& simulation, sim::Time period);

  ReceiverDrivenController(const ReceiverDrivenController&) = delete;
  ReceiverDrivenController& operator=(const ReceiverDrivenController&) = delete;

  void register_receiver(transport::ReceiverEndpoint& endpoint);

  /// Schedules each receiver's first decision tick (period + a random phase
  /// from the receiver's own stream, so receivers never tick in lockstep).
  /// Called once, after every endpoint has started.
  void start();

 private:
  struct Receiver {
    transport::ReceiverEndpoint* endpoint{nullptr};
    sim::Rng rng{0};  ///< replaced with the receiver's own stream at register
    std::vector<sim::Time> join_not_before;  ///< per layer (1-based index-1)
    std::vector<sim::Time> join_timer;       ///< current backoff per layer
    int clean_intervals{0};
    int last_added_layer{0};                 ///< layer under experiment (0 = none)
    sim::Time experiment_deadline{};
  };

  /// One decision for receiver `index` (ticks capture the index, so
  /// registration may keep appending).
  void tick(std::size_t index);

  sim::Simulation& simulation_;
  sim::Time period_;
  std::vector<Receiver> receivers_;
};

}  // namespace tsim::baseline
