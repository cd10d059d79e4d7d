#pragma once

#include <cstdint>
#include <string_view>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsim::sim {

/// The simulation context shared by every component: the event scheduler and
/// the master random seed. Components hold a `Simulation&` for their whole
/// lifetime; the Simulation outlives everything built on top of it.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : seed_{seed} {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] Time now() const { return scheduler_.now(); }

  EventId at(Time when, Scheduler::Callback cb) {
    return scheduler_.schedule_at(when, std::move(cb));
  }
  EventId after(Time delay, Scheduler::Callback cb) {
    return scheduler_.schedule_after(delay, std::move(cb));
  }
  void cancel(EventId id) { scheduler_.cancel(id); }

  /// Independent random stream for a named component.
  [[nodiscard]] Rng rng_stream(std::string_view label) const {
    return Rng{seed_}.fork(label);
  }

  void run_until(Time until) { scheduler_.run_until(until); }

 private:
  std::uint64_t seed_;
  Scheduler scheduler_;
};

}  // namespace tsim::sim
