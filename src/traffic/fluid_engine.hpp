#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/hotpath.hpp"
#include "core/units.hpp"
#include "mcast/multicast_router.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "sim/worker_pool.hpp"
#include "traffic/fluid_sink.hpp"
#include "traffic/fluid_source.hpp"

namespace tsim::traffic {

/// The fluid datapath: integrates every FluidSource's rate trajectory over
/// the current multicast trees once per step instead of scheduling one event
/// per packet. Each step (one scheduler event for the whole network):
///
///  1. Pass A walks each group tree accumulating the aggregate offered rate
///     per link, attenuating by each upstream link's loss fraction from the
///     PREVIOUS step (the relaxation that makes one pass sufficient — loss
///     reacts one step late, documented in docs/performance.md).
///  2. Each touched link advances its analytic drop-tail queue
///     (net::fluid_queue_step) to get this step's loss fraction.
///  3. Pass B re-walks with this step's loss, crediting integerized
///     per-(group,link) delivered/dropped deltas into the Network's dense
///     tables + LinkHot counters (Network::credit_fluid_link), and delivering
///     per-member byte/packet/loss credits to registered FluidSinks.
///
/// Control traffic (reports, suggestions, discovery) stays packet-level on
/// the same links; the fluid backlog lives outside the real queues, so
/// control packets see empty queues (no data-induced queueing delay — a
/// documented divergence). Steps integrate the TRAILING window: the event at
/// t = k*step integrates [(k-1)*step, k*step) against membership as of its
/// end, so joins at t=0 are live in the very first step.
///
/// Parallel walks: a group's walk descends serially from the source, and
/// every node whose CSR span holds at least kSplitLinks links has the span cut
/// into tasks of kTaskLinks links, each walking its links and their whole
/// subtrees on a sim::WorkerPool worker. Groups stay sequential (one pool run
/// per group per pass), so each link's offered rate still sums in (source,
/// layer) order, and a tree holds each link and member once, so no two tasks
/// share a link, cell, member credit or sink. The queue step and the loss
/// roll are per-link and run as chunks of the touched list. Any partition
/// therefore performs the same floating-point operations on the same state:
/// results are bit-identical at every pool size. Trees with no such span
/// (and background flows) stay on the calling thread.
///
/// Determinism: sources are walked in add order, layers in order, background
/// flows in add order. All timing derives from sim::Time.
class FluidEngine {
 public:
  /// Integration step. Divides one second exactly, so a step never spans
  /// two of the VBR trajectory's one-second intervals.
  static constexpr sim::Time kStep = sim::Time::milliseconds(100);
  static_assert(sim::Time::seconds(1).as_nanoseconds() % kStep.as_nanoseconds() == 0,
                "the fluid step must divide one second");

  struct Config {
    /// Packet size used to convert link queue limits (packets) to bits and
    /// to account background-flow packets; per-group packet math uses each
    /// source's own LayerSpec packet size.
    std::uint32_t packet_size_bytes{1000};
  };

  /// A span of at least this many links is split into tasks...
  static constexpr std::uint32_t kSplitLinks = 2048;
  /// ...of this many links each (the last one may be shorter).
  static constexpr std::uint32_t kTaskLinks = 1024;

  /// `pool` runs the split walks; it is borrowed and must outlive the engine.
  FluidEngine(sim::Simulation& simulation, net::Network& network,
              mcast::MulticastRouter& mcast, sim::WorkerPool& pool, Config config);

  /// Registers a source; not owned. All sources must be added before start().
  void add_source(FluidSource* source);

  /// Registers a per-node delivery sink (a ReceiverEndpoint). Multiple sinks
  /// per node are allowed (each filters by session). Sinks are called from
  /// pool threads (see FluidSink).
  void register_sink(net::NodeId node, FluidSink* sink);

  /// Unicast background (cross-traffic) flow at a constant rate: resolved to
  /// its directed link path on first step and credited into LinkHot counters
  /// only (no group cells) — it competes for fluid capacity like CbrFlow
  /// competes for queue slots.
  void add_background_flow(net::NodeId src, net::NodeId dst, units::BitsPerSec rate,
                           sim::Time start, sim::Time stop);

  /// Schedules the first integration step one step-width from now.
  void start();

  [[nodiscard]] std::uint64_t steps_executed() const { return steps_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// Per-link integration state, dense by LinkId (parallel to LinkHot).
  struct LinkState {
    net::FluidQueue queue;
    double loss_prev{0.0};     ///< loss fraction of the previous step
    double loss_now{0.0};      ///< loss fraction of the current step
    double offered{0.0};       ///< aggregate offered rate (bps), pass A
    std::uint64_t last_step{0};  ///< last step with offered traffic
    bool touched{false};
  };

  /// Exact accumulators for one (group, link) cell. A step credits the
  /// change in their floors (see floor_delta in the .cpp), so integerization
  /// error never accumulates beyond one packet/byte regardless of step count.
  struct Cell {
    double delivered_acc{0.0};  ///< cumulative delivered volume, in bytes
    double dropped_acc{0.0};    ///< cumulative dropped volume, in packets
  };

  /// Exact accumulators for one (group, member) pair, credited like Cell.
  struct MemberCredit {
    double byte_acc{0.0};
    double recv_acc{0.0};
    double lost_acc{0.0};
  };

  struct BackgroundFlow {
    net::NodeId src{net::kInvalidNode};
    net::NodeId dst{net::kInvalidNode};
    units::BitsPerSec rate{};
    sim::Time start{sim::Time::zero()};
    sim::Time stop{sim::Time::max()};
    bool resolved{false};
    std::vector<net::LinkId> path_links;
    std::vector<Cell> cells;  ///< parallel to path_links
  };

  /// One group's pass-B walk: what every task of the walk credits against.
  struct CreditWalk {
    const mcast::GroupTree* tree{nullptr};
    net::GroupAddr group{};
    std::uint32_t gid{0};
    double source_rate{0.0};
    double packet_size{0.0};
    Cell* cells{nullptr};  ///< cells_[gid]
  };

  /// Links [begin, end) of one CSR span, all fed at `inflow`.
  struct WalkTask {
    std::uint32_t begin{0};
    std::uint32_t end{0};
    double inflow{0.0};
  };

  /// Per-worker walk scratch, on its own cache lines.
  struct alignas(64) WorkerScratch {
    std::vector<std::pair<net::NodeId, double>> stack;
    std::vector<net::LinkId> touched;
  };

  void step();
  HOT_PATH_EXEMPT(
      "per-step capacity warm-up: resizes the link table and credit rows and reserves the "
      "walk scratch only when the topology or group count grew; a size check thereafter")
  void ensure_capacity();
  /// Marks a link as carrying fluid this step; on the first touch after an
  /// idle gap, drains the backlog for the gap at line rate and zeroes the
  /// stale loss fraction.
  void touch(net::LinkId link, WorkerScratch& scratch);
  /// Source rate over the trailing step window [t0, t1), scaled by the
  /// overlap with the source's [start, stop).
  [[nodiscard]] double effective_rate(FluidSource& source, net::LayerId layer,
                                      sim::Time t0, sim::Time t1);
  /// Pass A / pass B for one group: the serial descent on the calling
  /// thread, then one pool run over the tasks it cut.
  void offer_group(const mcast::GroupTree& tree, double rate);
  void credit_group(const CreditWalk& walk);
  /// Pops `scratch.stack` until it is empty, walking each node's span; with
  /// `split`, spans of kSplitLinks or more become tasks_ instead.
  HOT_PATH void walk_offered(const mcast::GroupTree& tree, WorkerScratch& scratch, bool split);
  HOT_PATH void walk_credit(const CreditWalk& walk, WorkerScratch& scratch, bool split);
  void offer_span(const mcast::GroupTree& tree, std::uint32_t begin, std::uint32_t end,
                  double inflow, WorkerScratch& scratch);
  void credit_span(const CreditWalk& walk, std::uint32_t begin, std::uint32_t end,
                   double inflow, WorkerScratch& scratch);
  void split_span(const mcast::GroupTree::FanSlot& slot, double inflow);
  /// Runs fn(link) for every touched link, in chunks on the pool when there
  /// are kSplitLinks or more.
  template <typename Fn>
  void for_each_touched(const Fn& fn);
  void credit_cell(Cell& cell, std::uint32_t gid, net::LinkId link, double inflow,
                   double delivered, double packet_size);
  void credit_member(const CreditWalk& walk, net::NodeId node, double rate);
  HOT_PATH_EXEMPT(
      "lazy one-shot path resolution per background flow, after routes first converge; "
      "steps after that reuse flow.path_links")
  void resolve_background(BackgroundFlow& flow);

  sim::Simulation& simulation_;
  net::Network& network_;
  mcast::MulticastRouter& mcast_;
  sim::WorkerPool& pool_;
  Config config_;
  std::vector<FluidSource*> sources_;
  std::vector<std::vector<FluidSink*>> sinks_by_node_;
  std::vector<BackgroundFlow> background_;
  std::vector<LinkState> link_state_;
  /// Every worker's touched links, concatenated after pass A.
  std::vector<net::LinkId> touched_;
  /// Credit state, one dense row per group-stats id: cells_[gid] by LinkId
  /// (the layout of Network::group_delivered_cell), members_[gid] by NodeId.
  /// LinkId, not fan slot, keys the cells so their cumulative accumulators
  /// survive tree rebuilds. ensure_capacity() is the only place rows grow.
  std::vector<std::vector<Cell>> cells_;
  std::vector<std::vector<MemberCredit>> members_;
  /// One per pool worker; [0] belongs to the calling thread.
  std::vector<WorkerScratch> scratch_;
  /// The current walk's tasks, cut by the serial descent.
  std::vector<WalkTask> tasks_;
  std::uint64_t steps_{0};
};

}  // namespace tsim::traffic
