#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/topology_file.hpp"

namespace tsim::scenarios {

/// Fluent front door for constructing experiments:
///
///   auto scenario = ScenarioBuilder(config)
///                       .topology_a({.receivers_per_set = 4})
///                       .with_faults(plan)
///                       .with_cross_traffic({"r0", "r1", 500e3})
///                       .build();
///
/// Every tunable lives in the ScenarioConfig handed to the constructor (e.g.
/// `config.audit` turns on invariant auditing); the builder only picks the
/// topology and the extras below.
///
/// Exactly one topology_a / topology_b / tiered / star / topology() call
/// selects the network shape; build() throws
/// std::logic_error if none (or more than one) was chosen. Every one of them
/// fills the builder's single TopologyDescription (the built-in topologies
/// generate theirs from their options, with their result labels and, for A,
/// B and the star, closed-form optima), so every scenario is built by
/// Scenario::from_description.
/// Faults declared in a topology file and faults added via with_faults()
/// compose: file faults are installed first, builder faults after.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(ScenarioConfig config) : config_{std::move(config)} {}
  ScenarioBuilder() = default;

  /// --- topology selection (exactly one) -----------------------------------
  ScenarioBuilder& topology_a(const TopologyAOptions& options = {});
  ScenarioBuilder& topology_b(const TopologyBOptions& options = {});
  /// Link capacities are drawn from the config seed's "tiered-topology"
  /// stream.
  ScenarioBuilder& tiered(const TieredOptions& options = {});
  /// Scale star: one source, one hub, N identical access links (the fluid
  /// engine's 100k-receiver tier; works with any traffic engine).
  ScenarioBuilder& star(const StarOptions& options = {});
  /// A parsed topology file; its `fault` lines install automatically.
  ScenarioBuilder& topology(TopologyDescription description);

  /// --- extras --------------------------------------------------------------
  /// Adds the plan's events on top of whatever the topology declares.
  /// Callable repeatedly; plans are installed in call order.
  ScenarioBuilder& with_faults(const fault::FaultPlan& plan);
  ScenarioBuilder& with_cross_traffic(const CrossTrafficSpec& spec);

  /// Builds, wires and starts the scenario; cross traffic and fault plans are
  /// added to the running scenario, in call order. Throws std::logic_error
  /// when no topology was selected, plus whatever from_description throws
  /// (unknown fault link names, unreachable receivers, ...).
  [[nodiscard]] std::unique_ptr<Scenario> build();

 private:
  /// Records `what` as the selected topology; throws if one already is.
  void select(const char* what);

  ScenarioConfig config_{};
  const char* selected_{nullptr};
  TopologyDescription description_;
  std::vector<fault::FaultPlan> fault_plans_;
  std::vector<CrossTrafficSpec> cross_traffic_;
};

}  // namespace tsim::scenarios
