#include "scenarios/scenario_builder.hpp"

#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/random.hpp"

namespace tsim::scenarios {

namespace {

using sim::Time;

/// Writes a built-in topology as a description: nodes and links in the order
/// the network numbers them, links at kLinkLatency with the default
/// bandwidth-delay-product queue.
struct Writer {
  const ScenarioConfig& config;
  TopologyDescription d{};

  void link(const std::string& a, const std::string& b, units::BitsPerSec bandwidth) {
    d.links.push_back({.a = a, .b = b, .bandwidth = bandwidth, .latency = kLinkLatency});
  }
  /// Adds node `name` and its link to `parent`.
  void child(const std::string& parent, const std::string& name,
             units::BitsPerSec bandwidth) {
    d.nodes.push_back(name);
    link(parent, name, bandwidth);
  }
  void source(int session, const std::string& node) {
    d.sources.push_back({.session = static_cast<std::uint16_t>(session), .node = node});
  }
  void receiver(const std::string& node, int session, std::string name,
                std::optional<int> optimal, Time start = Time::zero()) {
    d.receivers.push_back({.node = node, .session = static_cast<std::uint16_t>(session),
                           .start = start, .name = std::move(name), .optimal = optimal});
  }
  /// The closed-form optimum behind a bottleneck of `bandwidth`.
  [[nodiscard]] int optimal_for(units::BitsPerSec bandwidth) const {
    return config.params.layers.max_layers_for_bandwidth(bandwidth);
  }
};

TopologyDescription describe(const ScenarioConfig& config, const TopologyAOptions& options) {
  Writer w{config};
  w.d.nodes = {"source", "r0", "r1", "r2"};
  w.link("source", "r0", TopologyAOptions::kBackbone);
  w.link("r0", "r1", TopologyAOptions::kBottleneck1);
  w.link("r0", "r2", TopologyAOptions::kBottleneck2);
  w.source(0, "source");
  const int n = options.receivers_per_set;
  const int leavers = static_cast<int>(std::ceil(options.leave_fraction * n));
  for (int set = 1; set <= 2; ++set) {
    const std::string prefix = "set" + std::to_string(set);
    const int optimal = w.optimal_for(set == 1 ? TopologyAOptions::kBottleneck1
                                               : TopologyAOptions::kBottleneck2);
    for (int i = 0; i < n; ++i) {
      const std::string node = prefix + "_recv" + std::to_string(i);
      w.child(set == 1 ? "r1" : "r2", node, TopologyAOptions::kAccess);
      w.receiver(node, 0, prefix + "/" + std::to_string(i), optimal, options.join_stagger * i);
      if (options.leave_at > Time::zero() && i >= n - leavers) {
        w.d.receivers.back().stop = options.leave_at;
      }
    }
  }
  w.d.controller_node = "source";
  return std::move(w.d);
}

TopologyDescription describe(const ScenarioConfig& config, const TopologyBOptions& options) {
  Writer w{config};
  w.d.nodes = {"ra", "rb"};
  w.link("ra", "rb", TopologyBOptions::kPerSession * options.sessions);
  for (int k = 0; k < options.sessions; ++k) {
    const std::string source = "source" + std::to_string(k);
    w.d.nodes.push_back(source);
    w.link(source, "ra", TopologyBOptions::kAccess);
    w.source(k, source);
  }
  const int optimal = w.optimal_for(TopologyBOptions::kPerSession);
  for (int k = 0; k < options.sessions; ++k) {
    const std::string node = "recv" + std::to_string(k);
    w.child("rb", node, TopologyBOptions::kAccess);
    w.receiver(node, k, "session" + std::to_string(k), optimal, options.session_stagger * k);
  }
  // "The controller agent was stationed at one of the source nodes."
  w.d.controller_node = "source0";
  return std::move(w.d);
}

TopologyDescription describe(const ScenarioConfig& config, const TieredOptions& options) {
  sim::Rng rng = sim::Rng{config.seed}.fork("tiered-topology");
  Writer w{config};
  w.d.nodes = {"source"};
  const auto draw = [&rng](double min_bps, double max_bps) {
    return units::BitsPerSec{rng.uniform(min_bps, max_bps)};
  };
  w.child("source", "national", units::BitsPerSec{options.backbone_bps});
  w.source(0, "source");
  for (int r = 0; r < options.regionals; ++r) {
    const std::string regional = "regional" + std::to_string(r);
    w.child("national", regional, draw(options.regional_min_bps, options.regional_max_bps));
    for (int l = 0; l < options.locals_per_regional; ++l) {
      const std::string local = "local" + std::to_string(r) + "_" + std::to_string(l);
      w.child(regional, local, draw(options.local_min_bps, options.local_max_bps));
      for (int i = 0; i < options.receivers_per_local; ++i) {
        const std::string node =
            "recv" + std::to_string(r) + "_" + std::to_string(l) + "_" + std::to_string(i);
        w.child(local, node, draw(options.access_min_bps, options.access_max_bps));
        w.receiver(node, 0, node, std::nullopt);  // the allocator's optimum
      }
    }
  }
  w.d.controller_node = "source";
  return std::move(w.d);
}

TopologyDescription describe(const ScenarioConfig& config, const StarOptions& options) {
  Writer w{config};
  w.d.nodes = {"source"};
  w.child("source", "hub", StarOptions::kBackbone);
  w.source(0, "source");
  const int optimal = w.optimal_for(StarOptions::kAccess);
  for (int i = 0; i < options.receivers; ++i) {
    const std::string node = "recv" + std::to_string(i);
    w.child("hub", node, StarOptions::kAccess);
    w.receiver(node, 0, "star/" + std::to_string(i), optimal);
  }
  w.d.controller_node = "source";
  return std::move(w.d);
}

}  // namespace

void ScenarioBuilder::select(const char* what) {
  if (selected_ != nullptr) {
    throw std::logic_error(std::string{"ScenarioBuilder: topology already selected ("} +
                           selected_ + "), cannot also select " + what);
  }
  selected_ = what;
}

ScenarioBuilder& ScenarioBuilder::topology_a(const TopologyAOptions& options) {
  select("topology_a");
  description_ = describe(config_, options);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::topology_b(const TopologyBOptions& options) {
  select("topology_b");
  description_ = describe(config_, options);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::tiered(const TieredOptions& options) {
  select("tiered");
  description_ = describe(config_, options);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::star(const StarOptions& options) {
  select("star");
  description_ = describe(config_, options);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::topology(TopologyDescription description) {
  select("topology(description)");
  description_ = std::move(description);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_faults(const fault::FaultPlan& plan) {
  fault_plans_.push_back(plan);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_cross_traffic(const CrossTrafficSpec& spec) {
  cross_traffic_.push_back(spec);
  return *this;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() {
  if (selected_ == nullptr) {
    throw std::logic_error(
        "ScenarioBuilder: no topology selected — call topology_a/topology_b/tiered/star/"
        "topology(...) before build()");
  }
  std::unique_ptr<Scenario> scenario = Scenario::from_description(config_, description_);
  for (const CrossTrafficSpec& spec : cross_traffic_) scenario->add_cross_traffic(spec);
  for (const fault::FaultPlan& plan : fault_plans_) scenario->install_faults(plan);
  return scenario;
}

}  // namespace tsim::scenarios
