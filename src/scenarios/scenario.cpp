#include "scenarios/scenario.hpp"

#include "core/optimal_allocator.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace tsim::scenarios {

using sim::Time;

namespace {

/// Queue provisioning: the link's bandwidth-delay product at kLinkLatency in
/// packets (the standard drop-tail rule), with a floor of 30 packets for slow
/// links.
std::size_t queue_limit_for(const ScenarioConfig& config, double bandwidth_bps) {
  constexpr std::size_t kFloorPackets = 30;
  const double bdp_bytes = bandwidth_bps * kLinkLatency.as_seconds() / 8.0;
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

/// A description's node names resolved to ids: node i of the description is
/// NodeId i. One flat open-addressing table (linear probing, at most half
/// full) instead of a hash-map node per name, so resolving every link and
/// receiver of a 100k-node description stays linear and cheap.
class NodeIndex {
 public:
  explicit NodeIndex(const std::vector<std::string>& names) : names_{names} {
    std::size_t size = 16;
    while (size < 2 * names.size()) size *= 2;
    slots_.assign(size, net::kInvalidNode);
    for (net::NodeId id = 0; id < names.size(); ++id) {
      std::size_t slot = home(names[id]);
      while (slots_[slot] != net::kInvalidNode) slot = next(slot);
      slots_[slot] = id;
    }
  }

  /// The id of node `name`; throws std::invalid_argument for an unknown name.
  [[nodiscard]] net::NodeId at(const std::string& name) const {
    for (std::size_t slot = home(name); slots_[slot] != net::kInvalidNode; slot = next(slot)) {
      if (names_[slots_[slot]] == name) return slots_[slot];
    }
    throw std::invalid_argument("unknown node '" + name + "'");
  }

 private:
  [[nodiscard]] std::size_t home(std::string_view name) const {
    return std::hash<std::string_view>{}(name) & (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t slot) const {
    return (slot + 1) & (slots_.size() - 1);
  }

  const std::vector<std::string>& names_;
  std::vector<net::NodeId> slots_;
};

/// The offline allocator's input: each source's session tree is the union of
/// its routed source->receiver paths, the first path through a node fixing
/// its parent. Nodes are listed in node-id order, which fixes the
/// allocator's tie-breaking. Throws std::invalid_argument, naming the
/// receiver's line when it has one, for a receiver its source cannot reach.
std::vector<core::SessionInput> session_trees(const net::Network& netw, const NodeIndex& index,
                                              const TopologyDescription& description) {
  constexpr net::NodeId kOffTree = net::kInvalidNode - 1;
  std::vector<net::NodeId> parent(netw.node_count(), kOffTree);
  std::vector<bool> is_receiver(netw.node_count(), false);
  std::vector<net::NodeId> on_tree;
  std::vector<core::SessionInput> trees;
  for (const auto& src : description.sources) {
    core::SessionInput in;
    in.session = src.session;
    in.source = index.at(src.node);
    parent[in.source] = net::kInvalidNode;
    on_tree.assign(1, in.source);
    for (const auto& rcv : description.receivers) {
      if (rcv.session != src.session) continue;
      const net::NodeId node = index.at(rcv.node);
      const auto path = netw.routes().path(in.source, node);
      if (path.empty()) {
        const std::string where =
            rcv.line > 0 ? "line " + std::to_string(rcv.line) + ": " : std::string{};
        throw std::invalid_argument(where + "receiver '" + rcv.node +
                                    "' unreachable from source");
      }
      for (std::size_t i = 1; i < path.size(); ++i) {
        if (parent[path[i]] != kOffTree) continue;
        parent[path[i]] = path[i - 1];
        on_tree.push_back(path[i]);
      }
      is_receiver[node] = true;
    }
    std::sort(on_tree.begin(), on_tree.end());
    in.nodes.reserve(on_tree.size());
    for (const net::NodeId node : on_tree) {
      core::SessionNodeInput n;
      n.node = node;
      n.parent = parent[node];
      n.is_receiver = is_receiver[node];
      in.nodes.push_back(n);
      parent[node] = kOffTree;  // clean for the next session
      is_receiver[node] = false;
    }
    trees.push_back(std::move(in));
  }
  return trees;
}

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
  sources_.push_back(std::make_unique<traffic::LayeredSource>(*simulation_, *network_, cfg));
}

std::unique_ptr<control::TopoSenseDomain> Scenario::make_domain(
    std::size_t index, const control::Domain& domain, const std::vector<control::Domain>& all) {
  control::ControllerAgent::Config acfg;
  acfg.node = domain.controller_node;
  acfg.params = config_.params;
  acfg.info_staleness = config_.control.info_staleness;

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
    discovery =
        std::make_unique<topo::DiscoveryService>(*simulation_, *mcast_, std::move(dcfg));
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
                                                    std::move(discovery), acfg);
}

void Scenario::finalize(const std::vector<TopologyDescription::ReceiverSpec>& receivers,
                        const std::vector<control::Domain>& domains) {
  if (config_.queues.red) {
    for (net::LinkId id = 0; id < network_->link_count(); ++id) {
      network_->link(id).enable_red();
    }
  }

  // Each receiver reports to the controller of the domain owning its node, so
  // every controller is a routing sink: one destination-rooted row answers
  // the reports of all its receivers, however many there are.
  for (const control::Domain& d : domains) network_->add_routing_sink(d.controller_node);

  switch (config_.control.kind) {
    case ControllerKind::kTopoSense:
      domain_manager_ = std::make_unique<control::DomainManager>(
          *simulation_, *network_, *demuxes_, domains,
          [this, &domains](std::size_t index, const control::Domain& domain) {
            return make_domain(index, domain, domains);
          });
      break;
    case ControllerKind::kReceiverDriven:
      receiver_driven_ = std::make_unique<baseline::ReceiverDrivenController>(
          *simulation_, config_.params.interval);
      break;
    case ControllerKind::kNone:
      break;
  }

  for (std::size_t i = 0; i < results_.size(); ++i) {
    const net::NodeId node = results_[i].node;
    transport::ReceiverEndpoint::Config cfg;
    cfg.node = node;
    cfg.session = results_[i].session;
    cfg.layers = config_.params.layers;
    cfg.controller = domain_manager_ ? domain_manager_->controller_of(node) : net::kInvalidNode;
    cfg.report_period = config_.control.report_period == Time::zero()
                            ? config_.params.interval
                            : config_.control.report_period;
    cfg.initial_subscription = config_.control.initial_subscription;
    cfg.start = receivers[i].start;
    cfg.stop = receivers[i].stop;
    endpoints_.push_back(std::make_unique<transport::ReceiverEndpoint>(
        *simulation_, *network_, *mcast_, demuxes_->at(node), cfg));
    transport::ReceiverEndpoint& endpoint = *endpoints_.back();
    endpoint.on_subscription_change([this, i](Time when, int /*old*/, int now_level) {
      results_[i].timeline.record(when, now_level);
    });
    if (domain_manager_) receiver_agents_.push_back(&domain_manager_->register_receiver(endpoint));
    if (receiver_driven_) receiver_driven_->register_receiver(endpoint);
  }
  if (domain_manager_) domain_manager_->start();

  if (config_.audit.mode != check::AuditMode::kOff) {
    auditor_ = std::make_unique<check::InvariantAuditor>(config_.audit);
    auditor_->attach_simulation(*simulation_);
    auditor_->attach_network(*network_);
    auditor_->attach_multicast(*mcast_);
    const std::size_t domain_count = domain_manager_ ? domain_manager_->domain_count() : 0;
    for (std::size_t d = 0; d < domain_count; ++d) {
      control::ControllerAgent* agent = domain_manager_->agent(d);
      agent->set_audit_hook(
          [this, agent](const core::AlgorithmInput& input, const core::AlgorithmOutput& output) {
            auditor_->on_algorithm_output(input, output, agent->algorithm());
          });
    }
    if (domain_count > 1) {
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
    // receiver_agents_ is built one per receiver, in description order, so
    // it is index-parallel with results_.
    for (std::size_t i = 0; i < receiver_agents_.size() && i < results_.size(); ++i) {
      const net::NodeId node = results_[i].node;
      receiver_agents_[i]->set_unilateral_hook(
          [this, node](const control::ReceiverAgent::UnilateralAction& action) {
            check::InvariantAuditor::WatchdogObservation obs;
            obs.node = node;
            obs.add = action.add;
            obs.loss = action.loss;
            obs.starved = action.starved;
            obs.add_loss_threshold = control::ReceiverAgent::kUnilateralAddLoss;
            obs.drop_loss_threshold = control::ReceiverAgent::kUnilateralDropLoss;
            auditor_->on_unilateral_action(obs);
          });
    }
    auditor_->start();
  }

  if (config_.traffic.engine == TrafficEngine::kFluid) {
    traffic::FluidEngine::Config ecfg;
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
  if (fluid_engine_) fluid_engine_->start();
  for (const auto& endpoint : endpoints_) endpoint->start();
  if (domain_manager_) domain_manager_->start_watchdogs();
  if (receiver_driven_) receiver_driven_->start();
}

control::ControllerAgent* Scenario::controller() {
  return domain_manager_ ? domain_manager_->agent(0) : nullptr;
}

topo::TopologyProvider* Scenario::discovery() {
  return domain_manager_ ? &domain_manager_->scheme(0).discovery() : nullptr;
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
    // per-domain outages go through domains()->agent(i)->set_enabled.
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
  if (fluid_engine_) {
    // Under the fluid engine the flow competes for capacity as a constant-rate
    // background flow instead of a packet train.
    fluid_engine_->add_background_flow(src, dst, units::BitsPerSec{spec.rate_bps}, spec.start,
                                       spec.stop);
    return;
  }
  traffic::CbrFlow::Config xcfg;
  xcfg.src = src;
  xcfg.dst = dst;
  xcfg.rate_bps = spec.rate_bps;
  xcfg.start = spec.start;
  xcfg.stop = spec.stop;
  cross_flows_.push_back(std::make_unique<traffic::CbrFlow>(*simulation_, *network_, xcfg));
  cross_flows_.back()->start();
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
  }

  for (const std::string& name : description.nodes) netw.add_node(name);
  const NodeIndex index{description.nodes};

  // The declared (true) capacities feed the offline allocator, which only
  // runs when some receiver has no known optimum.
  const bool allocate =
      std::any_of(description.receivers.begin(), description.receivers.end(),
                  [](const TopologyDescription::ReceiverSpec& r) { return !r.optimal; });
  std::unordered_map<core::LinkKey, units::BitsPerSec> capacities;
  for (const auto& link : description.links) {
    const net::NodeId a = index.at(link.a);
    const net::NodeId b = index.at(link.b);
    const std::size_t queue =
        link.queue_packets.value_or(queue_limit_for(config, link.bandwidth.bps()));
    const auto [ab, ba] = netw.add_duplex_link(a, b, link.bandwidth, link.latency, queue);
    if (link.red) {  // config.queues.red is finalize()'s
      netw.link(ab).enable_red();
      netw.link(ba).enable_red();
    }
    if (allocate) {
      capacities[core::LinkKey{a, b}] = link.bandwidth;
      capacities[core::LinkKey{b, a}] = link.bandwidth;
    }
  }
  netw.compute_routes();

  // Routing domains: the root domain around the controller node, plus one
  // child per `domain` line. The root owns every node no domain claimed, in
  // node order (determinism); without `domain` lines that is every node.
  std::vector<control::Domain> domains(1);
  domains.front().name = "core";
  domains.front().controller_node = index.at(description.controller_node);
  domains.front().parent = -1;
  std::vector<bool> owned(netw.node_count(), false);
  for (const auto& spec : description.domains) {
    control::Domain child;
    child.name = spec.name;
    child.parent = 0;
    for (const std::string& name : spec.nodes) {
      const net::NodeId id = index.at(name);
      child.nodes.push_back(id);
      owned[id] = true;
    }
    child.controller_node = child.nodes.front();
    domains.push_back(std::move(child));
  }
  for (net::NodeId id = 0; id < netw.node_count(); ++id) {
    if (!owned[id]) domains.front().nodes.push_back(id);
  }

  for (const auto& src : description.sources) {
    s->add_session_source(src.session, index.at(src.node));
  }

  std::optional<OptimaIndex> optima;
  if (allocate) {
    const core::OptimalAllocator allocator{config.params.layers, std::move(capacities)};
    optima.emplace(allocator.allocate(session_trees(netw, index, description)));
  }
  // Each receiver's endpoint is constructed in finalize(): it reports to the
  // controller of whichever domain owns its node.
  s->results_.reserve(description.receivers.size());
  for (const auto& rcv : description.receivers) {
    const net::NodeId node = index.at(rcv.node);
    s->results_.push_back(ReceiverResult{
        node, rcv.session,
        rcv.name.empty() ? rcv.node + "/s" + std::to_string(rcv.session) : rcv.name,
        rcv.optimal ? *rcv.optimal : optima->of(rcv.session, node), 0,
        metrics::SubscriptionTimeline{Time::zero(), 0}, 0.0});
  }

  s->finalize(description.receivers, domains);
  if (!description.faults.events().empty()) s->install_faults(description.faults);
  return s;
}

}  // namespace tsim::scenarios
