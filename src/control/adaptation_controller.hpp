#pragma once

#include <cstdint>

#include "transport/receiver_endpoint.hpp"

namespace tsim::control {

class ReceiverAgent;

/// Aggregate counters every adaptation scheme reports. Fields that a scheme
/// has no notion of stay zero (the receiver-driven baseline has no reports;
/// the TopoSense controller does not count per-receiver joins).
struct ControllerStats {
  std::uint64_t reports_received{0};
  std::uint64_t suggestions_sent{0};
  std::uint64_t intervals_run{0};
  std::uint64_t outages{0};
  std::uint64_t layers_added{0};    ///< receiver-local adds (baseline schemes)
  std::uint64_t layers_dropped{0};  ///< receiver-local drops (baseline schemes)
};

/// The adaptation scheme driving a set of receivers, behind one interface so
/// scenario wiring and the per-domain composition in DomainManager never
/// branch on a controller kind. Implementations: TopoSenseDomain (the paper's
/// ControllerAgent + discovery + watchdogs as one domain unit),
/// baseline::ReceiverDrivenController (RLM family) and NullController
/// (receivers stay at their initial subscription).
///
/// Lifecycle contract (the scenario's finalize order, which fingerprint tests
/// pin): construct -> register_receiver() for every endpoint -> start() when
/// control-plane timers should arm (before traffic starts) ->
/// start_receiver_policies() after the endpoints themselves have started.
class AdaptationController {
 public:
  AdaptationController() = default;
  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;
  virtual ~AdaptationController() = default;

  /// Registers a receiver endpoint with the scheme. Returns the per-receiver
  /// watchdog agent when the scheme installs one (TopoSense), nullptr
  /// otherwise — the caller uses it for auditor wiring only; ownership stays
  /// with the scheme.
  virtual ReceiverAgent* register_receiver(transport::ReceiverEndpoint& endpoint) = 0;

  /// Arms the scheme's control-plane timers (controller intervals, topology
  /// discovery). Called once, before sources and endpoints start.
  virtual void start() = 0;

  /// Arms per-receiver policy timers (watchdogs, RLM join-experiment ticks).
  /// Called once, after every endpoint has started.
  virtual void start_receiver_policies() = 0;

  /// Fault hook: a disabled scheme makes no adaptation decisions. Re-enabling
  /// models a process restart.
  virtual void set_enabled(bool enabled) = 0;
  [[nodiscard]] virtual bool enabled() const = 0;

  [[nodiscard]] virtual ControllerStats stats() const = 0;
};

/// The do-nothing scheme: receivers stay at their initial subscription for
/// the whole run (the paper's "no adaptation" reference curves). Keeps the
/// outage counter so fault plans behave uniformly across schemes.
class NullController final : public AdaptationController {
 public:
  ReceiverAgent* register_receiver(transport::ReceiverEndpoint& /*endpoint*/) override {
    return nullptr;
  }
  void start() override {}
  void start_receiver_policies() override {}
  void set_enabled(bool enabled) override {
    if (enabled == enabled_) return;
    enabled_ = enabled;
    if (!enabled_) ++outages_;
  }
  [[nodiscard]] bool enabled() const override { return enabled_; }
  [[nodiscard]] ControllerStats stats() const override {
    ControllerStats s;
    s.outages = outages_;
    return s;
  }

 private:
  bool enabled_{true};
  std::uint64_t outages_{0};
};

}  // namespace tsim::control
