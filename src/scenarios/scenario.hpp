#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baseline/receiver_driven.hpp"
#include "check/invariant_auditor.hpp"
#include "control/adaptation_controller.hpp"
#include "control/controller_agent.hpp"
#include "control/domain_manager.hpp"
#include "control/receiver_agent.hpp"
#include "core/params.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "mcast/multicast_router.hpp"
#include "metrics/subscription_metrics.hpp"
#include "net/network.hpp"
#include "scenarios/topology_file.hpp"
#include "sim/simulation.hpp"
#include "sim/worker_pool.hpp"
#include "topo/discovery.hpp"
#include "topo/mtrace.hpp"
#include "traffic/cross_traffic.hpp"
#include "traffic/fluid_engine.hpp"
#include "traffic/fluid_source.hpp"
#include "traffic/layered_source.hpp"
#include "transport/demux.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::scenarios {

/// How the controller obtains topology: the oracle sampler with configurable
/// staleness (the paper's evaluation model), or packet-based mtrace queries
/// whose cost/latency/loss are emergent.
enum class DiscoveryMode {
  kOracle,
  kMtrace,
};

/// Which traffic engine carries session data. Control traffic (reports,
/// suggestions, discovery) is always packet-level.
enum class TrafficEngine {
  kPacket,  ///< one scheduler event per packet (LayeredSource, the default)
  kFluid,   ///< rate trajectories integrated per step (traffic::FluidEngine)
};

/// Which adaptation scheme drives the receivers. The scenario wiring itself
/// is kind-agnostic: each kind maps to a control::AdaptationController
/// implementation behind the per-domain scheme factory.
enum class ControllerKind {
  kTopoSense,       ///< the paper's domain controller
  kReceiverDriven,  ///< RLM-style baseline, no topology information
  kNone,            ///< receivers stay at their initial subscription
};

/// Latency of every link of the built-in topologies (paper §IV), and the
/// delay whose bandwidth-delay product sizes a default queue.
inline constexpr sim::Time kLinkLatency = sim::Time::milliseconds(200);

/// Configuration shared by every experiment (paper §IV defaults), grouped
/// into sub-structs by subsystem (traffic, queues, control).
struct ScenarioConfig {
  struct Traffic {
    ::tsim::traffic::TrafficModel model{::tsim::traffic::TrafficModel::kCbr};
    double peak_to_mean{3.0};
    TrafficEngine engine{TrafficEngine::kPacket};
    /// Fluid integration step; must divide one second (see FluidEngine).
    sim::Time fluid_step{sim::Time::milliseconds(100)};
  };
  /// Every queue holds its link's bandwidth-delay product at kLinkLatency,
  /// at least 30 packets (a topology file's `queue` option overrides per
  /// link).
  struct Queues {
    /// Use RED instead of drop-tail on every link (§V burst-loss ablation).
    bool red{false};
  };
  struct Control {
    ControllerKind kind{ControllerKind::kTopoSense};
    DiscoveryMode discovery{DiscoveryMode::kOracle};
    sim::Time info_staleness{sim::Time::zero()};  ///< topology + report staleness
    /// Receiver reporting cadence; zero means "same as the algorithm
    /// interval" (the paper's setup). Faster reporting gives the controller
    /// sub-interval loss visibility at the cost of more control traffic.
    sim::Time report_period{sim::Time::zero()};
    /// Layers each receiver joins at start (clamped to [0, num_layers]).
    /// The paper's receivers start at 1; scale studies start higher so the
    /// data plane dominates from t=0.
    int initial_subscription{1};
  };
  std::uint64_t seed{1};
  core::Params params{};
  sim::Time duration{sim::Time::seconds(1200)};
  Traffic traffic{};
  Queues queues{};
  Control control{};
  mcast::MulticastRouter::Config mcast{};
  /// Invariant auditing (off by default; also the --audit flag on
  /// toposense_sim / bench_runner).
  check::AuditConfig audit{};
};

/// Topology A (Fig 5): one session, two receiver sets behind different
/// bottlenecks — the heterogeneity scenario.
///
///   source -- backbone -- r0 --(bottleneck1)-- r1 -- N receivers (set 1)
///                           \--(bottleneck2)-- r2 -- N receivers (set 2)
struct TopologyAOptions {
  static constexpr units::BitsPerSec kBackbone{10e6};
  static constexpr units::BitsPerSec kBottleneck1{256e3};  ///< optimal 3 layers (cum. 224 Kbps)
  static constexpr units::BitsPerSec kBottleneck2{1e6};    ///< optimal 5 layers (cum. 992 Kbps)
  static constexpr units::BitsPerSec kAccess{10e6};

  int receivers_per_set{2};

  /// Receiver churn: receiver i of each set joins at i * join_stagger, and
  /// the last ceil(leave_fraction * N) receivers of each set leave at
  /// leave_at (when non-zero).
  sim::Time join_stagger{sim::Time::zero()};
  double leave_fraction{0.0};
  sim::Time leave_at{sim::Time::zero()};
};

/// Topology B (Fig 5): n independent single-receiver sessions sharing one
/// link sized so each session can ideally take 4 layers — the inter-session
/// fairness scenario.
///
///   source_k -- access -- ra ==(shared, n*per_session)== rb -- receiver_k
struct TopologyBOptions {
  static constexpr units::BitsPerSec kPerSession{500e3};  ///< shared link = sessions * this
  static constexpr units::BitsPerSec kAccess{10e6};

  int sessions{4};

  /// Session k starts at k * session_stagger (the paper starts all sessions
  /// together; staggering is the late-joiner fairness ablation).
  sim::Time session_stagger{sim::Time::zero()};
};

/// Tiered Internet topology (Fig 2): a source at a national ISP, a random
/// hierarchy of regional and local ISPs with decreasing (randomized) link
/// capacities, and receivers at institutional leaves. Per-receiver optimal
/// subscriptions are computed by the offline OptimalAllocator from the true
/// capacities (which TopoSense itself never sees).
struct TieredOptions {
  int regionals{3};
  int locals_per_regional{2};
  int receivers_per_local{2};
  double backbone_bps{45e6};
  double regional_min_bps{1e6};
  double regional_max_bps{4e6};
  double local_min_bps{256e3};
  double local_max_bps{2e6};
  double access_min_bps{128e3};
  double access_max_bps{1.5e6};
};

/// Star scale topology: one source behind a fat backbone, N receivers on
/// identical access links off a single hub. The shape the fluid engine is
/// built for — one shared bottleneck class, very high receiver count. Reports
/// from all N receivers converge on the controller (at the source), which,
/// like every domain controller, is a routing sink: one destination-rooted
/// row answers every receiver->controller route instead of N source-rooted
/// tables (16 bytes * N per row would be ~160 GB at N = 100k).
struct StarOptions {
  static constexpr units::BitsPerSec kBackbone{1e9};
  static constexpr units::BitsPerSec kAccess{1.2e6};  ///< optimal 5 layers (cum. 992 Kbps)

  int receivers{1000};
};

/// A unicast CBR cross-flow between two named nodes, active in
/// [start, stop). Named endpoints make specs portable across the built-in
/// topologies and topology files.
struct CrossTrafficSpec {
  std::string src;
  std::string dst;
  double rate_bps{0.0};
  sim::Time start{sim::Time::zero()};
  sim::Time stop{sim::Time::max()};
};

/// One receiver's results after a run.
struct ReceiverResult {
  net::NodeId node{net::kInvalidNode};
  net::SessionId session{0};
  std::string name;
  int optimal{0};
  int final_subscription{0};
  metrics::SubscriptionTimeline timeline{sim::Time::zero(), 0};
  double loss_overall{0.0};  ///< lifetime loss fraction
};

/// A fully wired simulation: network, multicast, sources, receivers, agents,
/// controller and metrics. Construction order is fixed by from_description;
/// everything lives exactly as long as the Scenario.
///
/// The adaptation control plane is always a control::DomainManager — a
/// single-domain manager over the whole topology by default, or one scheme
/// per routing domain when the topology declares `domain` lines.
class Scenario {
 public:
  /// Builds a scenario from a topology description (see topology_file.hpp):
  /// a parsed file, or one ScenarioBuilder generated for a built-in topology.
  /// Node i of the description is NodeId i and links keep their order. A
  /// receiver's optimum is its `optimal` when set, else the offline
  /// allocator's on the declared capacities; `fault` lines are installed
  /// automatically. Throws std::invalid_argument on unknown node names and
  /// unreachable receivers (naming the receiver's line).
  static std::unique_ptr<Scenario> from_description(const ScenarioConfig& config,
                                                    const TopologyDescription& description);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs the simulation to config.duration.
  void run();

  /// Runs to an intermediate time (callable repeatedly, monotonic).
  void run_until(sim::Time until);

  /// Installs a fault plan: validates it, resolves every named link against
  /// the built network (throws std::invalid_argument on unknown names) and
  /// schedules the events. Callable repeatedly; each call adds an injector.
  /// Controller outage events require ControllerKind::kTopoSense.
  fault::FaultInjector& install_faults(const fault::FaultPlan& plan);

  /// Adds and starts a unicast CBR cross-flow between two named nodes (a
  /// constant-rate background flow under the fluid engine).
  void add_cross_traffic(const CrossTrafficSpec& spec);

  [[nodiscard]] const std::vector<ReceiverResult>& results() const { return results_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& simulation() { return *simulation_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] mcast::MulticastRouter& multicast() { return *mcast_; }
  /// The control plane behind the kind-agnostic interface (never null after
  /// construction; a NullController manager when the kind is kNone).
  [[nodiscard]] control::AdaptationController* adaptation() { return domain_manager_.get(); }
  /// The domain manager itself: domain layout, per-domain schemes and the
  /// inter-domain summary counters.
  [[nodiscard]] control::DomainManager* domains() { return domain_manager_.get(); }
  /// The root domain's ControllerAgent, or nullptr when the adaptation
  /// scheme is not TopoSense. Single-domain scenarios (the default) have
  /// exactly one agent, so this is "the" controller of the classic API.
  [[nodiscard]] control::ControllerAgent* controller();
  /// The invariant auditor, or nullptr when auditing is off.
  [[nodiscard]] check::InvariantAuditor* auditor() { return auditor_.get(); }
  /// The root domain's topology provider (oracle or mtrace), or nullptr when
  /// the scheme runs without discovery.
  [[nodiscard]] topo::TopologyProvider* discovery();
  /// Per-node packet demux registry — attach extra endpoints (e.g. TCP
  /// flows) to nodes without clobbering the scenario's own handlers.
  [[nodiscard]] transport::DemuxRegistry& demuxes() { return *demuxes_; }
  [[nodiscard]] const std::vector<std::unique_ptr<transport::ReceiverEndpoint>>& endpoints()
      const {
    return endpoints_;
  }
  /// The packet sources, one per session (empty under the fluid engine).
  [[nodiscard]] const std::vector<std::unique_ptr<traffic::LayeredSource>>& sources() const {
    return sources_;
  }
  /// The fluid datapath, or nullptr unless config.traffic.engine is kFluid.
  [[nodiscard]] traffic::FluidEngine* fluid_engine() { return fluid_engine_.get(); }
  [[nodiscard]] const std::vector<std::unique_ptr<fault::FaultInjector>>& fault_injectors()
      const {
    return fault_injectors_;
  }
  /// Per-receiver watchdog agents, index-parallel with results()/endpoints()
  /// (TopoSense only; empty for other kinds). The agents are owned by their
  /// domain's scheme.
  [[nodiscard]] const std::vector<control::ReceiverAgent*>& receiver_agents() const {
    return receiver_agents_;
  }

  /// Index into results()/endpoints() of receiver `r` (they are parallel).
  [[nodiscard]] const ReceiverResult& result(std::size_t i) const { return results_[i]; }

 private:
  explicit Scenario(const ScenarioConfig& config);

  /// Makes `node` the source of `session`: registers it with the multicast
  /// router and creates its traffic source on whichever engine the config
  /// selects (packet or fluid). finalize() starts it.
  void add_session_source(net::SessionId session, net::NodeId node);

  /// Builds the per-domain adaptation scheme for the configured kind.
  [[nodiscard]] std::unique_ptr<control::AdaptationController> make_scheme(
      std::size_t index, const control::Domain& domain,
      const std::vector<control::Domain>& all);
  /// Builds the endpoints of results() (active in their `receivers` spec's
  /// window), wires the controllers of `domains` (the root first) and
  /// discovery, registers every domain's controller as a routing sink and
  /// starts everything. Routes are computed already.
  void finalize(const std::vector<TopologyDescription::ReceiverSpec>& receivers,
                const std::vector<control::Domain>& domains);

  ScenarioConfig config_;
  std::unique_ptr<sim::Simulation> simulation_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<mcast::MulticastRouter> mcast_;
  std::unique_ptr<transport::DemuxRegistry> demuxes_;
  std::vector<std::unique_ptr<traffic::LayeredSource>> sources_;
  std::vector<std::unique_ptr<traffic::FluidSource>> fluid_sources_;
  /// Runs the fluid engine's split tree walks, one worker per CPU the
  /// process may run on. It spawns no threads until a walk is wide enough to
  /// split, so packet-engine and small fluid scenarios never start any.
  sim::WorkerPool worker_pool_;
  /// Built in finalize() when traffic.engine is kFluid. Holds non-owning
  /// pointers to fluid_sources_ and endpoints_ (as FluidSinks); safe because
  /// no events run during destruction.
  std::unique_ptr<traffic::FluidEngine> fluid_engine_;
  std::vector<std::unique_ptr<traffic::CbrFlow>> cross_flows_;
  std::vector<std::unique_ptr<fault::FaultInjector>> fault_injectors_;
  std::vector<std::unique_ptr<transport::ReceiverEndpoint>> endpoints_;
  std::vector<control::ReceiverAgent*> receiver_agents_;  ///< owned by domain schemes
  /// Declared after endpoints_: the schemes' watchdog agents reference the
  /// endpoints, so the manager (and with it the watchdogs) is torn down
  /// first.
  std::unique_ptr<control::DomainManager> domain_manager_;
  /// Declared after everything it observes: the auditor is destroyed first,
  /// and the hooks it installed are never invoked after teardown begins (no
  /// events run during destruction).
  std::unique_ptr<check::InvariantAuditor> auditor_;
  std::vector<ReceiverResult> results_;
};

}  // namespace tsim::scenarios
