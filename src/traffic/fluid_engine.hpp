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
/// Determinism: sources are walked in add order, layers in order, tree links
/// in CSR order, background flows in add order. All timing derives from
/// sim::Time.
class FluidEngine {
 public:
  struct Config {
    /// Integration step. Must divide one second exactly, so a step never
    /// spans two of the VBR trajectory's one-second intervals.
    sim::Time step{sim::Time::milliseconds(100)};
    /// Packet size used to convert link queue limits (packets) to bits and
    /// to account background-flow packets; per-group packet math uses each
    /// source's own LayerSpec packet size.
    std::uint32_t packet_size_bytes{1000};
  };

  FluidEngine(sim::Simulation& simulation, net::Network& network,
              mcast::MulticastRouter& mcast, Config config);

  /// Registers a source; not owned. All sources must be added before start().
  void add_source(FluidSource* source);

  /// Registers a per-node delivery sink (a ReceiverEndpoint). Multiple sinks
  /// per node are allowed (each filters by session).
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

  /// Exact-accumulator + credited-integer pair for one (group, link) cell.
  /// Credits are floor(exact) - credited, so integerization error never
  /// accumulates beyond one packet/byte regardless of step count.
  struct Cell {
    double delivered_acc{0.0};  ///< cumulative delivered volume, in bytes
    double dropped_acc{0.0};    ///< cumulative dropped volume, in packets
    std::uint64_t delivered_bytes_credited{0};
    std::uint64_t delivered_packets_credited{0};
    std::uint64_t dropped_bytes_credited{0};
    std::uint64_t dropped_packets_credited{0};
  };

  struct MemberCredit {
    double byte_acc{0.0};
    double recv_acc{0.0};
    double lost_acc{0.0};
    std::uint64_t bytes_credited{0};
    std::uint64_t recv_credited{0};
    std::uint64_t lost_credited{0};
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

  void step();
  HOT_PATH_EXEMPT(
      "per-step capacity warm-up: resizes the link table and credit rows and reserves the "
      "walk scratch only when the topology or group count grew; a size check thereafter")
  void ensure_capacity();
  /// Marks a link as carrying fluid this step; on the first touch after an
  /// idle gap, drains the backlog for the gap at line rate and zeroes the
  /// stale loss fraction.
  void touch(net::LinkId link);
  /// Source rate over the trailing step window [t0, t1), scaled by the
  /// overlap with the source's [start, stop).
  [[nodiscard]] double effective_rate(FluidSource& source, net::LayerId layer,
                                      sim::Time t0, sim::Time t1);
  HOT_PATH void walk_offered(const mcast::GroupTree& tree, double rate);
  HOT_PATH void walk_credit(const mcast::GroupTree& tree, net::GroupAddr group,
                            std::uint32_t gid, double rate, double source_packet_size);
  void credit_cell(Cell& cell, std::uint32_t gid, net::LinkId link, double inflow,
                   double delivered, double packet_size);
  void credit_member(net::GroupAddr group, std::uint32_t gid, net::NodeId node, double rate,
                     double source_rate, double packet_size);
  HOT_PATH_EXEMPT(
      "lazy one-shot path resolution per background flow, after routes first converge; "
      "steps after that reuse flow.path_links")
  void resolve_background(BackgroundFlow& flow);

  sim::Simulation& simulation_;
  net::Network& network_;
  mcast::MulticastRouter& mcast_;
  Config config_;
  std::vector<FluidSource*> sources_;
  std::vector<std::vector<FluidSink*>> sinks_by_node_;
  std::vector<BackgroundFlow> background_;
  std::vector<LinkState> link_state_;
  std::vector<net::LinkId> touched_;
  /// Credit state, one dense row per group-stats id: cells_[gid] by LinkId
  /// (the layout of Network::group_delivered_cell), members_[gid] by NodeId.
  /// LinkId, not fan slot, keys the cells so their cumulative accumulators
  /// survive tree rebuilds. ensure_capacity() is the only place rows grow.
  std::vector<std::vector<Cell>> cells_;
  std::vector<std::vector<MemberCredit>> members_;
  std::vector<std::pair<net::NodeId, double>> stack_;  ///< walk scratch
  std::uint64_t steps_{0};
};

}  // namespace tsim::traffic
