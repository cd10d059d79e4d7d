// Quickstart: build the paper's Topology A, run TopoSense for two simulated
// minutes, and print what each receiver subscribed to.
//
// This is the smallest end-to-end use of the public API:
//   ScenarioConfig -> ScenarioBuilder::topology_a -> build -> run -> results().
#include <cstdio>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"

int main() {
  using namespace tsim;
  using sim::Time;

  scenarios::ScenarioConfig config;
  config.seed = 1;
  config.traffic.model = traffic::TrafficModel::kCbr;
  config.duration = Time::seconds(120);

  scenarios::TopologyAOptions topology;
  topology.receivers_per_set = 2;

  std::printf("TopoSense quickstart: Topology A, CBR, %d receivers per set\n",
              topology.receivers_per_set);
  std::printf("bottlenecks: %.0f Kbps (optimal 3 layers), %.0f Kbps (optimal 5 layers)\n\n",
              scenarios::TopologyAOptions::kBottleneck1.bps() / 1e3,
              scenarios::TopologyAOptions::kBottleneck2.bps() / 1e3);

  auto scenario = scenarios::ScenarioBuilder(config).topology_a(topology).build();
  scenario->run();

  std::printf("%-10s %8s %8s %8s %14s %12s\n", "receiver", "optimal", "final", "changes",
              "dev[60,120]s", "loss");
  for (const auto& r : scenario->results()) {
    std::printf("%-10s %8d %8d %8d %14.3f %11.2f%%\n", r.name.c_str(), r.optimal,
                r.final_subscription,
                r.timeline.change_count(Time::zero(), config.duration),
                r.timeline.relative_deviation(r.optimal, Time::seconds(60), config.duration),
                100.0 * r.loss_overall);
  }

  std::printf("\ncontroller: %llu reports in, %llu suggestions out, %llu intervals\n",
              static_cast<unsigned long long>(scenario->controller()->reports_received()),
              static_cast<unsigned long long>(scenario->controller()->suggestions_sent()),
              static_cast<unsigned long long>(scenario->controller()->intervals_run()));
  return 0;
}
