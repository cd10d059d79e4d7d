#pragma once

#include <memory>
#include <optional>
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
/// Exactly one topology_* / topology() call selects the network shape;
/// build() throws std::logic_error if none (or more than one) was chosen.
/// Faults declared in a topology file and faults added via with_faults()
/// compose: file faults are installed first, builder faults after.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(ScenarioConfig config) : config_{std::move(config)} {}
  ScenarioBuilder() = default;

  /// --- topology selection (exactly one) -----------------------------------
  ScenarioBuilder& topology_a(const TopologyAOptions& options = {});
  ScenarioBuilder& topology_b(const TopologyBOptions& options = {});
  ScenarioBuilder& tiered(const TieredOptions& options = {});
  /// Scale star: one source, one hub, N identical access links (the fluid
  /// engine's 100k-receiver tier; works with any traffic engine).
  ScenarioBuilder& star(const StarOptions& options = {});
  /// A parsed topology file; its `fault` lines install automatically.
  ScenarioBuilder& topology(TopologyDescription description);
  /// Parses `path` as a topology file (throws std::runtime_error on errors).
  ScenarioBuilder& topology_file(const std::string& path);

  /// --- extras --------------------------------------------------------------
  /// Adds the plan's events on top of whatever the topology declares.
  /// Callable repeatedly; plans are installed in call order.
  ScenarioBuilder& with_faults(const fault::FaultPlan& plan);
  ScenarioBuilder& with_cross_traffic(const CrossTrafficSpec& spec);

  /// Builds, wires and starts the scenario. Throws std::logic_error when no
  /// topology was selected, plus whatever the underlying factory throws
  /// (unknown fault link names, unreachable receivers, ...).
  [[nodiscard]] std::unique_ptr<Scenario> build();

 private:
  void select(const char* what);

  ScenarioConfig config_{};
  const char* selected_{nullptr};
  std::optional<TopologyAOptions> topo_a_;
  std::optional<TopologyBOptions> topo_b_;
  std::optional<TieredOptions> tiered_;
  std::optional<StarOptions> star_;
  std::optional<TopologyDescription> description_;
  std::vector<fault::FaultPlan> fault_plans_;
  std::vector<CrossTrafficSpec> cross_traffic_;
};

}  // namespace tsim::scenarios
