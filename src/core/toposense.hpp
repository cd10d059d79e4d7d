#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/capacity_estimator.hpp"
#include "core/decision_table.hpp"
#include "core/params.hpp"
#include "core/passes.hpp"
#include "core/types.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace tsim::core {

/// The TopoSense algorithm (paper §III), as a pure library: feed it one
/// AlgorithmInput per interval and it returns subscription prescriptions.
/// All cross-interval state (congestion histories, byte histories, link
/// capacity estimates, per-layer backoff timers) lives inside.
///
/// The class has no knowledge of the simulator; the controller agent adapts
/// simulator state into AlgorithmInput. This keeps the algorithm unit-testable
/// against hand-built trees.
class TopoSense {
 public:
  TopoSense(Params params, sim::Rng rng);

  /// Runs one interval of the algorithm at time `now`.
  AlgorithmOutput run_interval(const AlgorithmInput& input, sim::Time now);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const CapacityEstimator& capacities() const { return capacities_; }

  /// True when (session, node) may not re-add `layer` yet.
  [[nodiscard]] bool backing_off(net::SessionId session, net::NodeId node, int layer,
                                 sim::Time now) const;

 private:
  struct NodeMemory {
    CongestionHistory hist{0};
    units::Bytes bytes_prev{};  ///< bytes in T0–T1 (older completed interval)
    units::Bytes bytes_cur{};   ///< bytes in T1–T2 (latest completed interval)
    int last_demand{1};
    /// Demand held when the current congestion episode started; backoffs are
    /// pinned to this layer (the probe that caused the episode), so the
    /// cascade of halvings inside one episode cannot lock out the lower,
    /// known-good layers for a whole backoff period.
    int episode_top{0};
    /// Highest level this node recently sustained without congestion.
    /// Layers at or below it are proven safe: they are never backed off, and
    /// re-adding them bypasses backoff — a session knocked down by *another*
    /// session's failed probe climbs straight back. Decays slowly so a real
    /// capacity drop is eventually accepted.
    int stable_level{0};
    int clean_run{0};   ///< consecutive non-congested intervals at last_level
    int last_level{0};  ///< level observed in the previous interval
    int stable_age{0};  ///< intervals since stable_level was (re)confirmed
    std::uint64_t last_seen_interval{0};
  };

  static std::uint64_t memory_key(net::SessionId session, net::NodeId node) {
    return (static_cast<std::uint64_t>(session) << 32) | node;
  }

  [[nodiscard]] BwEquality classify_equality(units::Bytes prev, units::Bytes cur) const;
  [[nodiscard]] int layers_for_bw(units::BitsPerSec bw) const;
  void set_backoff(net::SessionId session, net::NodeId node, int layer, sim::Time now);
  /// set_backoff guarded by the node's proven-stable level.
  void maybe_backoff(net::SessionId session, net::NodeId node, int layer, int stable_level,
                     sim::Time now);
  [[nodiscard]] bool backoff_on_path(const TreeIndex& tree, std::size_t node_index, int layer,
                                     sim::Time now) const;

  /// Bottom-up demand computation over a labeled tree (Table I). `slots`
  /// maps node index -> this node's cross-interval memory (see CachedTree).
  void compute_demands(LabeledTree& lt, const std::vector<NodeMemory*>& slots,
                       std::vector<int>& demand, sim::Time now, double window_s);

  /// Top-down supply allocation under fair share + bottleneck caps.
  void allocate_supply(const LabeledTree& lt, const std::vector<int>& demand,
                       std::vector<int>& supply) const;

  /// One session's labeled tree, cached across intervals. The TreeIndex (and
  /// the interned link ids) are rebuilt only when the session's structure
  /// signature changes — a topology epoch — so steady-state intervals touch
  /// no hash tables and allocate nothing on the pass hot path.
  struct CachedTree {
    std::uint64_t signature{0};
    std::uint64_t last_seen_interval{0};
    LabeledTree lt;
    /// memory_ entry per node index, resolved once per structure rebuild so
    /// the per-interval demand pass never hashes (session, node). Pointers
    /// into memory_ are stable (unordered_map never moves values); the expiry
    /// sweep cannot dangle them because a tree and its node memories share
    /// last-seen stamps and expire on the same sweep.
    std::vector<NodeMemory*> mem_slots;
  };

  /// Re-resolves `ct.mem_slots` against memory_ (interning missing nodes).
  void bind_memory_slots(CachedTree& ct);

  Params params_;
  sim::Rng rng_;
  CapacityEstimator capacities_;
  PassWorkspace ws_;
  std::unordered_map<net::SessionId, CachedTree> tree_cache_;
  std::vector<LabeledTree*> active_trees_;    ///< this interval's trees, input order
  std::vector<CachedTree*> active_cached_;  ///< same trees, with memory slots
  std::unordered_map<std::uint64_t, NodeMemory> memory_;
  /// (session,node) -> layer -> no-resubscribe-before time.
  std::unordered_map<std::uint64_t, std::unordered_map<int, sim::Time>> backoff_;
  std::uint64_t interval_count_{0};
};

}  // namespace tsim::core
