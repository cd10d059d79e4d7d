// Heterogeneous receivers (the paper's §I motivation): one session, two
// receiver populations behind very different bottlenecks — a 56K-modem-class
// set and a broadband set — plus a middle tier. Shows that TopoSense gives
// each subtree its own optimum instead of degrading everyone to the weakest
// receiver.
//
// This example builds a custom topology directly against the substrate API
// (Network/MulticastRouter/...) rather than through ScenarioBuilder,
// demonstrating the lower-level public surface.
#include <cstdio>
#include <memory>
#include <vector>

#include "control/controller_agent.hpp"
#include "control/receiver_agent.hpp"
#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "topo/discovery.hpp"
#include "traffic/layered_source.hpp"
#include "transport/demux.hpp"
#include "transport/receiver_endpoint.hpp"

int main() {
  using namespace tsim;
  using sim::Time;

  sim::Simulation simulation{2024};
  net::Network network{simulation};
  mcast::MulticastRouter mcast{simulation, network, {Time::zero(), Time::seconds(1)}};
  transport::DemuxRegistry demuxes{network};

  // Tiers: source -> national -> regional x3 -> receivers.
  const auto source = network.add_node("source");
  const auto national = network.add_node("national");
  network.add_duplex_link(source, national, tsim::units::BitsPerSec{45e6}, Time::milliseconds(50), 50);

  struct Tier {
    const char* name;
    double bps;
    int receivers;
  };
  const std::vector<Tier> tiers = {
      {"modem", 64e3, 2},       // ~1 layer
      {"dsl", 640e3, 3},        // ~4 layers
      {"broadband", 2.5e6, 2},  // all 6 layers
  };

  mcast.set_session_source(0, source);
  traffic::LayeredSource::Config scfg;
  scfg.session = 0;
  scfg.node = source;
  scfg.model = traffic::TrafficModel::kVbr;
  scfg.peak_to_mean = 3.0;
  traffic::LayeredSource video{simulation, network, scfg};

  topo::DiscoveryService discovery{simulation, mcast, {Time::seconds(1), Time::zero(), 64}};
  control::ControllerAgent::Config ccfg;
  ccfg.node = source;
  control::ControllerAgent controller{simulation, network, discovery, demuxes.at(source), ccfg};

  std::vector<std::unique_ptr<transport::ReceiverEndpoint>> endpoints;
  std::vector<std::unique_ptr<control::ReceiverAgent>> agents;
  std::vector<std::string> names;
  std::vector<int> optima;

  for (const Tier& tier : tiers) {
    const auto hub = network.add_node(std::string{tier.name} + "_hub");
    network.add_duplex_link(national, hub, tsim::units::BitsPerSec{tier.bps}, Time::milliseconds(100), 30);
    for (int i = 0; i < tier.receivers; ++i) {
      const auto rcv = network.add_node(std::string{tier.name} + std::to_string(i));
      network.add_duplex_link(hub, rcv, tsim::units::BitsPerSec{10e6}, Time::milliseconds(20), 30);

      transport::ReceiverEndpoint::Config ecfg;
      ecfg.node = rcv;
      ecfg.session = 0;
      ecfg.controller = source;
      ecfg.report_period = ccfg.params.interval;
      endpoints.push_back(std::make_unique<transport::ReceiverEndpoint>(
          simulation, network, mcast, demuxes.at(rcv), ecfg));
      agents.push_back(std::make_unique<control::ReceiverAgent>(
          simulation, *endpoints.back(), control::ReceiverAgent::Config{}));
      controller.register_receiver(0, rcv);
      names.push_back(std::string{tier.name} + std::to_string(i));
      optima.push_back(ccfg.params.layers.max_layers_for_bandwidth(tsim::units::BitsPerSec{tier.bps}));
    }
  }

  network.compute_routes();
  discovery.start();
  controller.start();
  video.start();
  for (auto& e : endpoints) e->start();
  for (auto& a : agents) a->start();

  std::printf("heterogeneous receivers: 3 tiers behind one session\n\n");
  std::printf("%-12s %8s %8s %10s\n", "receiver", "optimal", "final", "loss");
  simulation.run_until(Time::seconds(240));

  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    std::printf("%-12s %8d %8d %9.2f%%\n", names[i].c_str(), optima[i],
                endpoints[i]->subscription(), 100.0 * endpoints[i]->lifetime_loss_rate().value());
  }
  std::printf(
      "\nNote how each tier settles near its own bottleneck's optimum —\n"
      "the modem tier does not drag the broadband tier down.\n");
  return 0;
}
