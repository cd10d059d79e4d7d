#include "scenarios/scenario.hpp"

#include "core/optimal_allocator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace tsim::scenarios {

using sim::Time;

namespace {

/// Queue provisioning: the link's bandwidth-delay product in packets (the
/// standard drop-tail rule), with a floor of 30 packets for slow links.
std::size_t queue_limit_for(const ScenarioConfig& config, double bandwidth_bps) {
  constexpr std::size_t kFloorPackets = 30;
  const double bdp_bytes = bandwidth_bps * config.link_latency.as_seconds() / 8.0;
  const auto bdp_packets =
      static_cast<std::size_t>(bdp_bytes / config.params.layers.packet_size_bytes);
  return std::max(kFloorPackets, bdp_packets);
}

/// The offline optima keyed by (session << 32 | receiver), so wiring R
/// receivers is O(R) rather than a scan of all R prescriptions per receiver.
/// The first prescription for a pair wins, as a front-to-back scan found it.
class OptimaIndex {
 public:
  explicit OptimaIndex(const std::vector<core::Prescription>& optima) {
    by_receiver_.reserve(optima.size());
    for (const core::Prescription& p : optima) {
      by_receiver_.try_emplace(key(p.session, p.receiver), p.subscription);
    }
  }
  /// The receiver's optimum; 0 for one the allocator never saw.
  [[nodiscard]] int of(net::SessionId session, net::NodeId node) const {
    const auto it = by_receiver_.find(key(session, node));
    return it == by_receiver_.end() ? 0 : it->second;
  }

 private:
  static std::uint64_t key(net::SessionId session, net::NodeId node) {
    return (static_cast<std::uint64_t>(session) << 32) | node;
  }
  std::unordered_map<std::uint64_t, int> by_receiver_;
};

}  // namespace

Scenario::Scenario(const ScenarioConfig& config)
    : config_{config},
      simulation_{std::make_unique<sim::Simulation>(config.seed)},
      network_{std::make_unique<net::Network>(*simulation_)},
      mcast_{std::make_unique<mcast::MulticastRouter>(*simulation_, *network_, config.mcast)},
      demuxes_{std::make_unique<transport::DemuxRegistry>(*network_)} {}

void Scenario::add_session_source(net::SessionId session, net::NodeId node) {
  mcast_->set_session_source(session, node);
  traffic::LayeredSource::Config cfg;
  cfg.session = session;
  cfg.node = node;
  cfg.layers = config_.params.layers;
  cfg.model = config_.traffic.model;
  cfg.peak_to_mean = config_.traffic.peak_to_mean;
  if (config_.traffic.engine == TrafficEngine::kFluid) {
    fluid_sources_.push_back(std::make_unique<traffic::FluidSource>(*simulation_, cfg));
    return;
  }
  if (config_.traffic.engine == TrafficEngine::kBurst) {
    cfg.train_packets = config_.traffic.burst_train;
  }
  sources_.push_back(std::make_unique<traffic::LayeredSource>(*simulation_, *network_, cfg));
}

void Scenario::add_receiver(net::NodeId node, net::SessionId session, int optimal,
                            std::string name, sim::Time start, sim::Time stop) {
  // The endpoint is constructed in finalize(): its report destination is the
  // controller of whichever domain ends up owning `node`, and the partition
  // is only resolved once the topology is complete.
  pending_receivers_.push_back(PendingReceiver{node, session, start, stop});
  results_.push_back(ReceiverResult{node, session, std::move(name), optimal, 0,
                                    metrics::SubscriptionTimeline{Time::zero(), 0}, 0.0});
}

std::vector<control::Domain> Scenario::resolve_domains() const {
  if (!declared_domains_.empty()) return declared_domains_;

  control::Domain root;
  root.name = "core";
  root.controller_node = controller_node_;
  root.parent = -1;

  const int want = config_.domains.auto_partition;
  if (want <= 1) {
    for (net::NodeId n = 0; n < network_->node_count(); ++n) root.nodes.push_back(n);
    return {std::move(root)};
  }

  // Automatic partitioner: group every node by the first hop of its route
  // from the controller. The want-1 largest depth-1 subtrees become child
  // domains rooted at their gateway (the border the parent's tree enters
  // through); everything else — including unreachable nodes — stays in the
  // root domain.
  root.nodes.push_back(controller_node_);
  std::map<net::NodeId, std::vector<net::NodeId>> by_gateway;
  for (net::NodeId n = 0; n < network_->node_count(); ++n) {
    if (n == controller_node_) continue;
    const auto path = network_->routes().path(controller_node_, n);
    if (path.size() < 2) {
      root.nodes.push_back(n);
      continue;
    }
    by_gateway[path[1]].push_back(n);
  }
  std::vector<std::pair<net::NodeId, std::size_t>> sized;
  sized.reserve(by_gateway.size());
  for (const auto& [gateway, members] : by_gateway) sized.emplace_back(gateway, members.size());
  std::sort(sized.begin(), sized.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  const std::size_t children =
      std::min<std::size_t>(static_cast<std::size_t>(want - 1), sized.size());

  std::vector<control::Domain> domains;
  domains.push_back(std::move(root));
  for (std::size_t c = 0; c < children; ++c) {
    control::Domain child;
    child.name = "auto" + std::to_string(c);
    child.controller_node = sized[c].first;
    child.nodes = by_gateway.at(sized[c].first);
    child.parent = 0;
    domains.push_back(std::move(child));
  }
  for (std::size_t c = children; c < sized.size(); ++c) {
    const auto& members = by_gateway.at(sized[c].first);
    domains.front().nodes.insert(domains.front().nodes.end(), members.begin(), members.end());
  }
  return domains;
}

std::unique_ptr<control::AdaptationController> Scenario::make_scheme(
    std::size_t index, const control::Domain& domain,
    const std::vector<control::Domain>& all) {
  switch (config_.control.kind) {
    case ControllerKind::kTopoSense: {
      control::TopoSenseDomain::Config tcfg;
      tcfg.agent.node = domain.controller_node;
      tcfg.agent.params = config_.params;
      tcfg.agent.info_staleness = config_.control.info_staleness;
      // Offset the controller's period from the receivers' report period so a
      // run always has fresh reports to read.
      tcfg.agent.start = Time::milliseconds(2500);
      // Wire the watchdog to the controller cadence it actually faces.
      tcfg.watchdog.expected_interval = config_.params.interval;

      std::unique_ptr<topo::TopologyProvider> discovery;
      if (config_.control.discovery == DiscoveryMode::kOracle) {
        topo::DiscoveryService::Config dcfg;
        dcfg.sample_period = Time::seconds(1);
        dcfg.staleness = config_.control.info_staleness;
        if (all.size() > 1) {
          // Scope the oracle to this domain plus its children's borders (the
          // pseudo-receivers the parent prescribes for). Single-domain runs
          // stay unscoped — the pre-domain configuration, byte for byte.
          for (const net::NodeId n : domain.nodes) dcfg.domain_nodes.insert(n);
          for (const auto& child : all) {
            if (child.parent == static_cast<int>(index)) {
              dcfg.domain_nodes.insert(child.controller_node);
            }
          }
          dcfg.domain_root = domain.controller_node;
        }
        discovery = std::make_unique<topo::DiscoveryService>(*simulation_, *mcast_, dcfg);
      } else {
        topo::MtraceDiscovery::Config dcfg;
        dcfg.tool_node = domain.controller_node;
        dcfg.query_period = config_.params.interval;
        auto mtrace = std::make_unique<topo::MtraceDiscovery>(*simulation_, *network_, *mcast_,
                                                              *demuxes_, dcfg);
        // mtrace scoping is per-receiver registration: this domain's own
        // receivers plus each child's border for the sessions the child has
        // receivers in.
        const std::unordered_set<net::NodeId> members{domain.nodes.begin(), domain.nodes.end()};
        for (const ReceiverResult& r : results_) {
          if (members.count(r.node) != 0) mtrace->register_receiver(r.session, r.node);
        }
        for (const auto& child : all) {
          if (child.parent != static_cast<int>(index)) continue;
          const std::unordered_set<net::NodeId> child_members{child.nodes.begin(),
                                                              child.nodes.end()};
          std::set<net::SessionId> child_sessions;
          for (const ReceiverResult& r : results_) {
            if (child_members.count(r.node) != 0) child_sessions.insert(r.session);
          }
          for (const net::SessionId session : child_sessions) {
            mtrace->register_receiver(session, child.controller_node);
          }
        }
        discovery = std::move(mtrace);
      }
      return std::make_unique<control::TopoSenseDomain>(*simulation_, *network_, *demuxes_,
                                                        std::move(discovery), tcfg);
    }
    case ControllerKind::kReceiverDriven: {
      baseline::ReceiverDrivenController::Config rd;
      rd.period = config_.params.interval;
      return std::make_unique<baseline::ReceiverDrivenController>(*simulation_, rd);
    }
    case ControllerKind::kNone:
      return std::make_unique<control::NullController>();
  }
  throw std::logic_error("unknown controller kind");
}

void Scenario::finalize() {
  network_->compute_routes();
  if (config_.queues.red) {
    for (net::LinkId id = 0; id < network_->link_count(); ++id) {
      network_->link(id).enable_red({});
    }
  }

  const std::vector<control::Domain> domains = resolve_domains();
  const bool toposense = config_.control.kind == ControllerKind::kTopoSense;

  // Each receiver reports to the controller of the domain owning its node.
  std::unordered_map<net::NodeId, net::NodeId> controller_of;
  for (const control::Domain& d : domains) {
    for (const net::NodeId n : d.nodes) controller_of.emplace(n, d.controller_node);
  }

  for (std::size_t i = 0; i < pending_receivers_.size(); ++i) {
    const PendingReceiver& pending = pending_receivers_[i];
    transport::ReceiverEndpoint::Config cfg;
    cfg.node = pending.node;
    cfg.session = pending.session;
    cfg.layers = config_.params.layers;
    cfg.controller = toposense ? controller_of.at(pending.node) : net::kInvalidNode;
    cfg.report_period = config_.control.report_period == Time::zero()
                            ? config_.params.interval
                            : config_.control.report_period;
    cfg.initial_subscription = config_.control.initial_subscription;
    cfg.start = pending.start;
    cfg.stop = pending.stop;
    endpoints_.push_back(std::make_unique<transport::ReceiverEndpoint>(
        *simulation_, *network_, *mcast_, demuxes_->at(pending.node), cfg));
    endpoints_.back()->on_subscription_change([this, i](Time when, int /*old*/, int now_level) {
      results_[i].timeline.record(when, now_level);
    });
  }

  control::DomainManager::Config mcfg;
  mcfg.domains = domains;
  mcfg.summary_period = config_.domains.summary_period;
  mcfg.summary_start = config_.domains.summary_start;
  domain_manager_ = std::make_unique<control::DomainManager>(
      *simulation_, *network_, *demuxes_, std::move(mcfg),
      [this, &domains](std::size_t index, const control::Domain& domain) {
        return make_scheme(index, domain, domains);
      });
  for (const auto& endpoint : endpoints_) {
    control::ReceiverAgent* watchdog = domain_manager_->register_receiver(*endpoint);
    if (watchdog != nullptr) receiver_agents_.push_back(watchdog);
  }
  domain_manager_->start();

  if (config_.audit.mode != check::AuditMode::kOff) {
    auditor_ = std::make_unique<check::InvariantAuditor>(config_.audit);
    auditor_->attach_simulation(*simulation_);
    auditor_->attach_network(*network_);
    auditor_->attach_multicast(*mcast_);
    for (std::size_t d = 0; d < domain_manager_->domain_count(); ++d) {
      control::ControllerAgent* agent = domain_manager_->agent(d);
      if (agent == nullptr) continue;
      agent->set_audit_hook(
          [this, agent](const core::AlgorithmInput& input, const core::AlgorithmOutput& output) {
            auditor_->on_algorithm_output(input, output, agent->algorithm());
          });
    }
    if (domain_manager_->domain_count() > 1) {
      auditor_->register_check("control.domains", [this]() {
        domain_manager_->check_consistency([this](const std::string& detail) {
          check::Violation violation;
          violation.invariant = "control.domains";
          violation.when = simulation_->now();
          violation.detail = detail;
          auditor_->report(violation);
        });
      });
    }
    // receiver_agents_ is built one per receiver, in add_receiver order, so
    // it is index-parallel with results_.
    for (std::size_t i = 0; i < receiver_agents_.size() && i < results_.size(); ++i) {
      control::ReceiverAgent& agent = *receiver_agents_[i];
      const net::NodeId node = results_[i].node;
      agent.set_unilateral_hook(
          [this, node, &agent](const control::ReceiverAgent::UnilateralAction& action) {
            check::InvariantAuditor::WatchdogObservation obs;
            obs.node = node;
            obs.add = action.add;
            obs.loss = action.loss;
            obs.starved = action.starved;
            obs.add_loss_threshold = agent.config().unilateral_add_loss;
            obs.drop_loss_threshold = agent.config().unilateral_drop_loss;
            auditor_->on_unilateral_action(obs);
          });
    }
    auditor_->start();
  }

  if (config_.traffic.engine == TrafficEngine::kFluid) {
    traffic::FluidEngine::Config ecfg;
    ecfg.step = config_.traffic.fluid_step;
    ecfg.packet_size_bytes =
        static_cast<std::uint32_t>(config_.params.layers.packet_size_bytes);
    fluid_engine_ = std::make_unique<traffic::FluidEngine>(*simulation_, *network_, *mcast_,
                                                           worker_pool_, ecfg);
    for (const auto& source : fluid_sources_) fluid_engine_->add_source(source.get());
    for (const auto& endpoint : endpoints_) {
      fluid_engine_->register_sink(endpoint->config().node, endpoint.get());
    }
  }

  for (const auto& source : sources_) source->start();
  if (fluid_engine_) {
    // Cross-traffic competes for fluid capacity as a constant-rate background
    // flow instead of a packet train (the packet flow objects stay unstarted).
    for (const auto& flow : cross_flows_) {
      const traffic::CbrFlow::Config& c = flow->config();
      fluid_engine_->add_background_flow(c.src, c.dst, units::BitsPerSec{c.rate_bps}, c.start,
                                         c.stop);
    }
    fluid_engine_->start();
  } else {
    for (const auto& flow : cross_flows_) flow->start();
  }
  for (const auto& endpoint : endpoints_) endpoint->start();
  domain_manager_->start_receiver_policies();
  started_ = true;
}

control::ControllerAgent* Scenario::controller() {
  return domain_manager_ ? domain_manager_->agent(0) : nullptr;
}

topo::TopologyProvider* Scenario::discovery() {
  if (!domain_manager_) return nullptr;
  auto* domain = dynamic_cast<control::TopoSenseDomain*>(&domain_manager_->scheme(0));
  return domain != nullptr ? &domain->discovery() : nullptr;
}

void Scenario::run_until(Time until) {
  simulation_->run_until(until);
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    results_[i].final_subscription = endpoints_[i]->subscription();
    results_[i].loss_overall = endpoints_[i]->lifetime_loss_rate().value();
  }
}

void Scenario::run() { run_until(config_.duration); }

fault::FaultInjector& Scenario::install_faults(const fault::FaultPlan& plan) {
  fault::FaultInjector::Hooks hooks;
  if (controller() != nullptr) {
    // A controller fault takes down the whole control plane (every domain);
    // per-domain outages go through domains()->scheme(i).set_enabled.
    hooks.set_controller_enabled = [this](bool enabled) {
      domain_manager_->set_enabled(enabled);
    };
  }
  fault_injectors_.push_back(
      std::make_unique<fault::FaultInjector>(*simulation_, *network_, plan, hooks));
  fault_injectors_.back()->start();
  return *fault_injectors_.back();
}

void Scenario::add_cross_traffic(const CrossTrafficSpec& spec) {
  const net::NodeId src = network_->find_node(spec.src);
  const net::NodeId dst = network_->find_node(spec.dst);
  if (src == net::kInvalidNode || dst == net::kInvalidNode) {
    throw std::invalid_argument("cross-traffic endpoint '" +
                                (src == net::kInvalidNode ? spec.src : spec.dst) +
                                "' is not a node of this topology");
  }
  traffic::CbrFlow::Config xcfg;
  xcfg.src = src;
  xcfg.dst = dst;
  xcfg.rate_bps = spec.rate_bps;
  xcfg.start = spec.start;
  xcfg.stop = spec.stop;
  cross_flows_.push_back(std::make_unique<traffic::CbrFlow>(*simulation_, *network_, xcfg));
  if (!started_) return;
  if (fluid_engine_) {
    fluid_engine_->add_background_flow(src, dst, units::BitsPerSec{spec.rate_bps}, spec.start,
                                       spec.stop);
  } else {
    cross_flows_.back()->start();
  }
}

std::unique_ptr<Scenario> Scenario::build_topology_a(const ScenarioConfig& config,
                                                     const TopologyAOptions& options) {
  std::unique_ptr<Scenario> s{new Scenario{config}};
  net::Network& netw = *s->network_;

  const net::NodeId source = netw.add_node("source");
  const net::NodeId r0 = netw.add_node("r0");
  const net::NodeId r1 = netw.add_node("r1");
  const net::NodeId r2 = netw.add_node("r2");
  netw.add_duplex_link(source, r0, units::BitsPerSec{options.backbone_bps}, config.link_latency,
                       queue_limit_for(config, options.backbone_bps));
  netw.add_duplex_link(r0, r1, units::BitsPerSec{options.bottleneck1_bps}, config.link_latency,
                       queue_limit_for(config, options.bottleneck1_bps));
  netw.add_duplex_link(r0, r2, units::BitsPerSec{options.bottleneck2_bps}, config.link_latency,
                       queue_limit_for(config, options.bottleneck2_bps));

  s->controller_node_ = source;
  s->add_session_source(0, source);

  const int optimal1 =
      config.params.layers.max_layers_for_bandwidth(units::BitsPerSec{options.bottleneck1_bps});
  const int optimal2 =
      config.params.layers.max_layers_for_bandwidth(units::BitsPerSec{options.bottleneck2_bps});

  const int leavers = static_cast<int>(
      std::ceil(options.leave_fraction * options.receivers_per_set));
  const auto window_for = [&](int i) {
    const Time start = options.join_stagger * i;
    const bool leaves = options.leave_at > Time::zero() &&
                        i >= options.receivers_per_set - leavers;
    return std::pair{start, leaves ? options.leave_at : Time::max()};
  };

  for (int i = 0; i < options.receivers_per_set; ++i) {
    const net::NodeId rcv = netw.add_node("set1_recv" + std::to_string(i));
    netw.add_duplex_link(r1, rcv, units::BitsPerSec{options.access_bps}, config.link_latency,
                         queue_limit_for(config, options.access_bps));
    const auto [start, stop] = window_for(i);
    s->add_receiver(rcv, 0, optimal1, "set1/" + std::to_string(i), start, stop);
  }
  for (int i = 0; i < options.receivers_per_set; ++i) {
    const net::NodeId rcv = netw.add_node("set2_recv" + std::to_string(i));
    netw.add_duplex_link(r2, rcv, units::BitsPerSec{options.access_bps}, config.link_latency,
                         queue_limit_for(config, options.access_bps));
    const auto [start, stop] = window_for(i);
    s->add_receiver(rcv, 0, optimal2, "set2/" + std::to_string(i), start, stop);
  }

  if (options.cross_traffic_bps > 0.0) {
    traffic::CbrFlow::Config xcfg;
    xcfg.src = r0;
    xcfg.dst = r1;
    xcfg.rate_bps = options.cross_traffic_bps;
    xcfg.start = options.cross_start;
    xcfg.stop = options.cross_stop;
    s->cross_flows_.push_back(
        std::make_unique<traffic::CbrFlow>(*s->simulation_, netw, xcfg));
  }

  s->finalize();
  return s;
}

std::unique_ptr<Scenario> Scenario::build_topology_b(const ScenarioConfig& config,
                                                     const TopologyBOptions& options) {
  std::unique_ptr<Scenario> s{new Scenario{config}};
  net::Network& netw = *s->network_;

  const net::NodeId ra = netw.add_node("ra");
  const net::NodeId rb = netw.add_node("rb");
  const double shared_bps = options.per_session_bps * options.sessions;
  netw.add_duplex_link(ra, rb, units::BitsPerSec{shared_bps}, config.link_latency,
                       queue_limit_for(config, shared_bps));

  const int optimal = config.params.layers.max_layers_for_bandwidth(units::BitsPerSec{options.per_session_bps});

  std::vector<net::NodeId> source_nodes;
  for (int k = 0; k < options.sessions; ++k) {
    const net::NodeId src = netw.add_node("source" + std::to_string(k));
    netw.add_duplex_link(src, ra, units::BitsPerSec{options.access_bps}, config.link_latency,
                         queue_limit_for(config, options.access_bps));
    source_nodes.push_back(src);
    s->add_session_source(static_cast<net::SessionId>(k), src);
  }
  // "The controller agent was stationed at one of the source nodes."
  s->controller_node_ = source_nodes.front();

  for (int k = 0; k < options.sessions; ++k) {
    const net::NodeId rcv = netw.add_node("recv" + std::to_string(k));
    netw.add_duplex_link(rb, rcv, units::BitsPerSec{options.access_bps}, config.link_latency,
                         queue_limit_for(config, options.access_bps));
    s->add_receiver(rcv, static_cast<net::SessionId>(k), optimal,
                    "session" + std::to_string(k), options.session_stagger * k);
  }

  if (options.cross_traffic_bps > 0.0) {
    traffic::CbrFlow::Config xcfg;
    xcfg.src = ra;
    xcfg.dst = rb;
    xcfg.rate_bps = options.cross_traffic_bps;
    xcfg.start = options.cross_start;
    xcfg.stop = options.cross_stop;
    s->cross_flows_.push_back(
        std::make_unique<traffic::CbrFlow>(*s->simulation_, netw, xcfg));
  }

  s->finalize();
  return s;
}


std::unique_ptr<Scenario> Scenario::build_tiered(const ScenarioConfig& config,
                                                 const TieredOptions& options) {
  std::unique_ptr<Scenario> s{new Scenario{config}};
  net::Network& netw = *s->network_;
  sim::Rng rng = s->simulation_->rng_stream("tiered-topology");

  // Physical tree, remembering each link's true capacity for the offline
  // optimal computation (TopoSense never sees these numbers).
  std::unordered_map<core::LinkKey, units::BitsPerSec> capacities;
  const net::NodeId source = netw.add_node("source");
  const net::NodeId national = netw.add_node("national");
  netw.add_duplex_link(source, national, units::BitsPerSec{options.backbone_bps}, config.link_latency,
                       queue_limit_for(config, options.backbone_bps));
  capacities[core::LinkKey{source, national}] = units::BitsPerSec{options.backbone_bps};

  struct PendingTierReceiver {
    net::NodeId node;
    net::NodeId parent;
  };
  std::vector<PendingTierReceiver> receivers;
  std::vector<core::SessionNodeInput> tree_nodes;
  {
    core::SessionNodeInput n;
    n.node = source;
    n.parent = net::kInvalidNode;
    tree_nodes.push_back(n);
    n.node = national;
    n.parent = source;
    tree_nodes.push_back(n);
  }

  auto add_tier_node = [&](const std::string& name, net::NodeId parent, double bps) {
    const net::NodeId id = netw.add_node(name);
    netw.add_duplex_link(parent, id, units::BitsPerSec{bps}, config.link_latency,
                         queue_limit_for(config, bps));
    capacities[core::LinkKey{parent, id}] = units::BitsPerSec{bps};
    core::SessionNodeInput n;
    n.node = id;
    n.parent = parent;
    tree_nodes.push_back(n);
    return id;
  };

  for (int r = 0; r < options.regionals; ++r) {
    const net::NodeId regional =
        add_tier_node("regional" + std::to_string(r), national,
                      rng.uniform(options.regional_min_bps, options.regional_max_bps));
    for (int l = 0; l < options.locals_per_regional; ++l) {
      const net::NodeId local = add_tier_node(
          "local" + std::to_string(r) + "_" + std::to_string(l), regional,
          rng.uniform(options.local_min_bps, options.local_max_bps));
      for (int i = 0; i < options.receivers_per_local; ++i) {
        const net::NodeId rcv = add_tier_node(
            "recv" + std::to_string(r) + "_" + std::to_string(l) + "_" + std::to_string(i),
            local, rng.uniform(options.access_min_bps, options.access_max_bps));
        tree_nodes.back().is_receiver = true;
        receivers.push_back(PendingTierReceiver{rcv, local});
      }
    }
  }

  s->controller_node_ = source;
  s->add_session_source(0, source);

  // Offline reference: greedy lexicographic max-min on the true capacities.
  core::SessionInput session;
  session.session = 0;
  session.source = source;
  session.nodes = tree_nodes;
  const core::OptimalAllocator allocator{config.params.layers, capacities};
  const OptimaIndex optima{allocator.allocate({session})};

  for (const PendingTierReceiver& r : receivers) {
    s->add_receiver(r.node, 0, optima.of(0, r.node), netw.node(r.node).name);
  }

  s->finalize();
  return s;
}


std::unique_ptr<Scenario> Scenario::build_star(const ScenarioConfig& config,
                                               const StarOptions& options) {
  std::unique_ptr<Scenario> s{new Scenario{config}};
  net::Network& netw = *s->network_;

  const net::NodeId source = netw.add_node("source");
  const net::NodeId hub = netw.add_node("hub");
  netw.add_duplex_link(source, hub, units::BitsPerSec{options.backbone_bps}, config.link_latency,
                       queue_limit_for(config, options.backbone_bps));

  s->controller_node_ = source;
  s->add_session_source(0, source);
  // N receivers all report to the controller: answer their unicast routes
  // from one destination-rooted row (see StarOptions).
  netw.add_routing_sink(source);

  const int optimal =
      config.params.layers.max_layers_for_bandwidth(units::BitsPerSec{options.access_bps});
  for (int i = 0; i < options.receivers; ++i) {
    const net::NodeId rcv = netw.add_node("recv" + std::to_string(i));
    netw.add_duplex_link(hub, rcv, units::BitsPerSec{options.access_bps}, config.link_latency,
                         queue_limit_for(config, options.access_bps));
    s->add_receiver(rcv, 0, optimal, "star/" + std::to_string(i));
  }

  s->finalize();
  return s;
}

std::unique_ptr<Scenario> Scenario::from_description(const ScenarioConfig& config,
                                                     const TopologyDescription& description) {
  std::unique_ptr<Scenario> s{new Scenario{config}};
  net::Network& netw = *s->network_;

  // A `traffic` directive overrides the config's engine selection.
  switch (description.engine) {
    case TrafficEngineSpec::kDefault:
      break;
    case TrafficEngineSpec::kPacket:
      s->config_.traffic.engine = TrafficEngine::kPacket;
      break;
    case TrafficEngineSpec::kFluid:
      s->config_.traffic.engine = TrafficEngine::kFluid;
      break;
    case TrafficEngineSpec::kBurst:
      s->config_.traffic.engine = TrafficEngine::kBurst;
      break;
  }
  if (description.fluid_step_s) {
    s->config_.traffic.fluid_step = sim::Time::seconds(*description.fluid_step_s);
  }
  if (description.burst_train) s->config_.traffic.burst_train = *description.burst_train;

  std::unordered_map<std::string, net::NodeId> by_name;
  for (const std::string& name : description.nodes) {
    by_name[name] = netw.add_node(name);
  }

  std::unordered_map<core::LinkKey, units::BitsPerSec> capacities;
  for (const auto& link : description.links) {
    const net::NodeId a = by_name.at(link.a);
    const net::NodeId b = by_name.at(link.b);
    const std::size_t queue =
        link.queue_packets.value_or(queue_limit_for(config, link.bandwidth.bps()));
    const auto [ab, ba] = netw.add_duplex_link(a, b, link.bandwidth, link.latency, queue);
    if (link.red || config.queues.red) {
      netw.link(ab).enable_red({});
      netw.link(ba).enable_red({});
    }
    capacities[core::LinkKey{a, b}] = link.bandwidth;
    capacities[core::LinkKey{b, a}] = link.bandwidth;
  }
  netw.compute_routes();

  s->controller_node_ = by_name.at(description.controller_node);

  // Declared routing domains: each `domain` line is a child of the implicit
  // root domain around the controller node; the root owns every node no
  // domain claimed (iterated in declaration order — determinism).
  if (!description.domains.empty()) {
    std::unordered_set<net::NodeId> owned;
    std::vector<control::Domain> child_domains;
    for (const auto& spec : description.domains) {
      control::Domain child;
      child.name = spec.name;
      child.parent = 0;
      for (const std::string& name : spec.nodes) {
        const net::NodeId id = by_name.at(name);
        child.nodes.push_back(id);
        owned.insert(id);
      }
      child.controller_node = child.nodes.front();
      child_domains.push_back(std::move(child));
    }
    control::Domain root;
    root.name = "core";
    root.controller_node = s->controller_node_;
    root.parent = -1;
    for (const std::string& name : description.nodes) {
      const net::NodeId id = by_name.at(name);
      if (owned.count(id) == 0) root.nodes.push_back(id);
    }
    s->declared_domains_.push_back(std::move(root));
    for (auto& child : child_domains) s->declared_domains_.push_back(std::move(child));
  }

  for (const auto& src : description.sources) {
    s->add_session_source(src.session, by_name.at(src.node));
  }

  // Offline optima from the declared (true) capacities: build each session's
  // tree as the union of routed source->receiver paths.
  std::vector<core::SessionInput> session_inputs;
  for (const auto& src : description.sources) {
    core::SessionInput in;
    in.session = src.session;
    in.source = by_name.at(src.node);
    // Ordered map: iteration below fixes the allocator's node (and thus
    // tie-breaking) order, which must not depend on hash layout.
    std::map<net::NodeId, net::NodeId> parent_of;
    parent_of[in.source] = net::kInvalidNode;
    std::set<net::NodeId> receiver_nodes;
    for (const auto& rcv : description.receivers) {
      if (rcv.session != src.session) continue;
      const auto path = netw.routes().path(in.source, by_name.at(rcv.node));
      if (path.empty()) {
        throw std::invalid_argument("receiver '" + rcv.node + "' unreachable from source");
      }
      for (std::size_t i = 1; i < path.size(); ++i) parent_of.emplace(path[i], path[i - 1]);
      receiver_nodes.insert(by_name.at(rcv.node));
    }
    for (const auto& [node, parent] : parent_of) {
      core::SessionNodeInput n;
      n.node = node;
      n.parent = parent;
      n.is_receiver = receiver_nodes.count(node) != 0;
      in.nodes.push_back(n);
    }
    session_inputs.push_back(std::move(in));
  }
  const core::OptimalAllocator allocator{config.params.layers, capacities};
  const OptimaIndex optima{allocator.allocate(session_inputs)};

  for (const auto& rcv : description.receivers) {
    const net::NodeId node = by_name.at(rcv.node);
    s->add_receiver(node, rcv.session, optima.of(rcv.session, node),
                    rcv.node + "/s" + std::to_string(rcv.session), rcv.start, rcv.stop);
  }

  s->finalize();
  if (!description.faults.events().empty()) s->install_faults(description.faults);
  return s;
}

}  // namespace tsim::scenarios
