#include "core/toposense.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tsim::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// "loss rate is high" in Table I (leaf drop on history 001/Lesser).
constexpr double kHighLoss = 0.08;
/// "loss is very high" in Table I (leaf halving on 3,7/Greater).
constexpr double kVeryHighLoss = 0.20;
/// Relative tolerance for the Table-I "BW Equality" comparison of bytes
/// received in the two preceding intervals.
constexpr double kBwEqualTolerance = 0.15;
}  // namespace

TopoSense::TopoSense(Params params, sim::Rng rng)
    : params_{params}, rng_{rng}, capacities_{params_} {}

BwEquality TopoSense::classify_equality(units::Bytes prev, units::Bytes cur) const {
  const double a = static_cast<double>(prev.count());
  const double b = static_cast<double>(cur.count());
  const double scale = std::max({a, b, 1.0});
  if (std::abs(a - b) <= kBwEqualTolerance * scale) return BwEquality::kEqual;
  return a < b ? BwEquality::kLesser : BwEquality::kGreater;
}

int TopoSense::layers_for_bw(units::BitsPerSec bw) const {
  if (bw.bps() == kInf) return params_.layers.num_layers;
  return params_.layers.max_layers_for_bandwidth(bw);
}

void TopoSense::set_backoff(net::SessionId session, net::NodeId node, int layer, sim::Time now) {
  const double lo = params_.backoff_min.as_seconds();
  const double hi = params_.backoff_max.as_seconds();
  const sim::Time until = now + sim::Time::seconds(rng_.uniform(lo, std::max(lo, hi)));
  backoff_[memory_key(session, node)][layer] = until;
}

void TopoSense::maybe_backoff(net::SessionId session, net::NodeId node, int layer,
                              int stable_level, sim::Time now) {
  // A layer this node recently held cleanly is not the culprit — usually
  // another session's probe congested the shared link. Backing it off would
  // strand the victim below its proven level.
  if (layer <= stable_level) return;
  set_backoff(session, node, layer, now);
}

bool TopoSense::backing_off(net::SessionId session, net::NodeId node, int layer,
                            sim::Time now) const {
  const auto it = backoff_.find(memory_key(session, node));
  if (it == backoff_.end()) return false;
  const auto lit = it->second.find(layer);
  return lit != it->second.end() && lit->second > now;
}

bool TopoSense::backoff_on_path(const TreeIndex& tree, std::size_t node_index, int layer,
                                sim::Time now) const {
  if (backoff_.empty()) return false;  // common case: nothing is backed off
  // A backoff set at any ancestor covers the whole subtree: that is how the
  // controller coordinates receivers behind the same bottleneck.
  int i = static_cast<int>(node_index);
  while (i >= 0) {
    if (backing_off(tree.session(), tree.node(static_cast<std::size_t>(i)).node, layer, now)) {
      return true;
    }
    i = tree.parent(static_cast<std::size_t>(i));
  }
  return false;
}

void TopoSense::bind_memory_slots(CachedTree& ct) {
  const TreeIndex& tree = ct.lt.tree;
  ct.mem_slots.resize(tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    ct.mem_slots[i] = &memory_[memory_key(tree.session(), tree.node(i).node)];
  }
}

void TopoSense::compute_demands(LabeledTree& lt, const std::vector<NodeMemory*>& slots,
                                std::vector<int>& demand, sim::Time now, double window_s) {
  const TreeIndex& tree = lt.tree;
  demand.assign(tree.size(), 0);
  const auto& order = tree.bfs_order();
  const int max_layers = params_.layers.num_layers;

  // Per-node current-window bytes (leaf: reported; internal: max of children),
  // needed before the memory shift so compute bottom-up alongside demand.
  std::vector<units::Bytes> bytes_now(tree.size(), units::Bytes::zero());
  // Actual subscribed level per node (leaf: reported subscription; internal:
  // max over children) — distinct from demand, which may include adds the
  // receivers have not applied yet.
  std::vector<int> sub_level(tree.size(), 0);

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t i = static_cast<std::size_t>(*it);
    const SessionNodeInput& n = tree.node(i);
    const int p = tree.parent(i);
    const bool parent_congested = p >= 0 && lt.congested[static_cast<std::size_t>(p)];

    units::Bytes b_now = n.is_receiver ? n.bytes_received : units::Bytes::zero();
    int agg = 0;
    int sub_agg = n.is_receiver ? std::max(n.subscription, 1) : 0;
    for (const auto c : tree.children(i)) {
      const std::size_t ci = static_cast<std::size_t>(c);
      b_now = std::max(b_now, bytes_now[ci]);
      agg = std::max(agg, demand[ci]);
      sub_agg = std::max(sub_agg, sub_level[ci]);
    }
    bytes_now[i] = b_now;
    sub_level[i] = std::max(sub_agg, 1);

    NodeMemory& mem = *slots[i];
    mem.last_seen_interval = interval_count_;
    const units::Bytes b_prev = mem.bytes_cur;  // T0–T1 window
    const BwEquality eq = classify_equality(b_prev, b_now);
    const CongestionHistory hist = push_history(mem.hist, lt.congested[i]);
    mem.hist = hist;
    mem.bytes_prev = mem.bytes_cur;
    mem.bytes_cur = b_now;

    // Track the congestion episode's starting demand: entering congestion
    // (bit pattern ..01) snapshots it; two consecutive clean intervals end
    // the episode (a single clean-looking window mid-episode — a lucky
    // burst-free second — must not forget which probe caused the trouble).
    const int level_now = sub_level[i];
    if ((hist & 0b11) == 0b01) {
      mem.episode_top = std::max(mem.episode_top, level_now);
    } else if ((hist & 0b11) == 0) {
      mem.episode_top = 0;
    }
    const int backoff_layer_floor = mem.episode_top;

    // Stable-level bookkeeping: three clean intervals *at one level* prove
    // it sustainable; without reconfirmation the proof slowly expires, so a
    // real capacity drop is eventually accepted. The run restarts whenever
    // the level changes — a freshly probed layer is unproven even if the
    // loss signal has not arrived yet.
    if (lt.congested[i] || level_now != mem.last_level) {
      mem.clean_run = 0;
    } else {
      ++mem.clean_run;
    }
    mem.last_level = level_now;
    if (mem.clean_run >= 3 && level_now >= mem.stable_level) {
      mem.stable_level = level_now;  // confirmed at (or above) the old proof
      mem.stable_age = 0;
    } else if (++mem.stable_age >= 10 && mem.stable_level > 0) {
      --mem.stable_level;  // unconfirmed proofs expire one layer at a time
      mem.stable_age = 0;
    }
    const int stable_level = mem.stable_level;

    const units::BitsPerSec prev_supply{b_prev.bits() / window_s};
    const units::BitsPerSec cur_supply{b_now.bits() / window_s};

    int d = 0;
    if (tree.is_leaf(i)) {
      const int sub = std::max(n.subscription, 1);
      if (parent_congested) {
        // Children of a congested node defer to that node (paper §III).
        d = sub;
      } else {
        const LeafDecision decision = leaf_decision(hist, eq);
        d = sub;
        switch (decision.action) {
          case LeafAction::kAddLayer: {
            const int next = std::min(sub + 1, max_layers);
            // The randomized backoff guards blind probes. When the fair-share
            // pass *knows* (from an estimated shared-link capacity) that
            // `next` fits this session's share, the add is not a blind probe
            // — e.g. a session knocked below its fair point by another
            // session's failed experiment may climb straight back.
            const int share_cap =
                lt.share_bps[i] == kInf ? 0 : layers_for_bw(units::BitsPerSec{lt.share_bps[i]});
            const bool proven_safe = next <= share_cap || next <= stable_level;
            const bool blocked = !proven_safe && backoff_on_path(tree, i, next, now);
            if (next > sub && !blocked) d = next;
            break;
          }
          case LeafAction::kDropIfHighLoss:
            if (lt.loss[i] > kHighLoss && sub > 1) {
              d = sub - 1;
              maybe_backoff(tree.session(), n.node, std::max(sub, backoff_layer_floor),
                            stable_level, now);
            }
            break;
          case LeafAction::kMaintain:
            break;
          case LeafAction::kReduceToPrevSupply:
            d = std::min(sub, std::max(1, layers_for_bw(prev_supply)));
            break;
          case LeafAction::kHalvePrevSupply:
            d = std::min(sub, std::max(1, layers_for_bw(prev_supply / 2.0)));
            if (d < sub) {
              maybe_backoff(tree.session(), n.node, std::max(sub, backoff_layer_floor),
                            stable_level, now);
            }
            break;
          case LeafAction::kHalveIfVeryHighLoss:
            if (lt.loss[i] > kVeryHighLoss) {
              d = std::min(sub, std::max(1, layers_for_bw(prev_supply / 2.0)));
            }
            break;
        }
      }
    } else {
      // Internal node: demand aggregates (maxes, for cumulative layers) the
      // children's demands, then Table I decides whether to accept or curb.
      if (parent_congested) {
        d = agg;  // defer upward; the congested ancestor acts
      } else {
        switch (internal_decision(hist, eq)) {
          case InternalAction::kAcceptChildren:
            d = agg;
            break;
          case InternalAction::kMaintain:
            d = std::min(agg, std::max(mem.last_demand, 1));
            break;
          case InternalAction::kHalveCurrentSupply: {
            const int cap = std::max(1, layers_for_bw(cur_supply / 2.0));
            d = std::min(agg, cap);
            if (d < agg) {
              maybe_backoff(tree.session(), n.node, std::max(agg, backoff_layer_floor),
                            stable_level, now);
            }
            break;
          }
          case InternalAction::kHalvePrevSupply: {
            const int cap = std::max(1, layers_for_bw(prev_supply / 2.0));
            d = std::min(agg, cap);
            if (d < agg) {
              maybe_backoff(tree.session(), n.node, std::max(agg, backoff_layer_floor),
                            stable_level, now);
            }
            break;
          }
        }
      }
      if (tree.node(i).is_receiver) d = std::max(d, 1);
    }

    // Every node on a session tree carries at least the base layer.
    d = std::clamp(d, 1, max_layers);
    demand[i] = d;
    mem.last_demand = d;
  }
}

void TopoSense::allocate_supply(const LabeledTree& lt, const std::vector<int>& demand,
                                std::vector<int>& supply) const {
  const TreeIndex& tree = lt.tree;
  supply.assign(tree.size(), 0);
  for (const auto idx : tree.bfs_order()) {
    const std::size_t i = static_cast<std::size_t>(idx);
    const int p = tree.parent(i);
    if (p < 0) {
      supply[i] = std::min(demand[i], params_.layers.num_layers);
      continue;
    }
    const std::size_t pi = static_cast<std::size_t>(p);
    // The subtree may not subscribe past its fair share on shared links nor
    // past the best bottleneck of any receiver below (§III).
    int cap = params_.layers.num_layers;
    cap = std::min(cap, layers_for_bw(units::BitsPerSec{lt.share_bps[i]}));
    cap = std::min(cap, layers_for_bw(units::BitsPerSec{lt.max_handle_bps[i]}));
    supply[i] = std::max(1, std::min({demand[i], supply[pi], cap}));
  }
}

AlgorithmOutput TopoSense::run_interval(const AlgorithmInput& input, sim::Time now) {
  ++interval_count_;
  AlgorithmOutput output;

  // Build and label all session trees first — capacity estimation and fair
  // sharing need the cross-session view. Trees are cached per session and
  // rebuilt only when the structure signature changes (receiver churn, route
  // change); otherwise only the measurements are refreshed in place.
  active_trees_.clear();
  active_cached_.clear();
  for (const SessionInput& session : input.sessions) {
    if (session.nodes.empty()) continue;
    const std::uint64_t signature = TreeIndex::structure_signature(session);
    auto it = tree_cache_.find(session.session);
    if (it == tree_cache_.end() || it->second.signature != signature) {
      CachedTree fresh{signature, interval_count_, LabeledTree{TreeIndex{session}}, {}};
      if (it == tree_cache_.end()) {
        it = tree_cache_.emplace(session.session, std::move(fresh)).first;
      } else {
        it->second = std::move(fresh);
      }
      assign_link_ids(it->second.lt, capacities_.links());
      bind_memory_slots(it->second);
    } else {
      it->second.lt.tree.refresh_measurements(session);
      it->second.last_seen_interval = interval_count_;
    }
    label_congestion(it->second.lt, params_);
    active_trees_.push_back(&it->second.lt);
    active_cached_.push_back(&it->second);
  }

  collect_link_aggregates(active_trees_, params_, capacities_.links().size(), ws_.aggregates);
  capacities_.update_aggregated(ws_.aggregates, input.window);
  capacities_.snapshot_capacities(ws_.cap_by_id);

  for (LabeledTree* lt : active_trees_) compute_bottlenecks(*lt, ws_.cap_by_id);
  compute_fair_shares(active_trees_, ws_.cap_by_id, params_, ws_);

  const double window_s = std::max(input.window.as_seconds(), 1e-9);
  std::vector<int> demand;
  std::vector<int> supply;
  for (CachedTree* ct : active_cached_) {
    LabeledTree& lt = ct->lt;
    compute_demands(lt, ct->mem_slots, demand, now, window_s);
    allocate_supply(lt, demand, supply);

    SessionDiagnostics diag;
    diag.session = lt.tree.session();
    for (const auto idx : lt.tree.bfs_order()) {
      const std::size_t i = static_cast<std::size_t>(idx);
      const SessionNodeInput& n = lt.tree.node(i);
      if (n.is_receiver) {
        output.prescriptions.push_back(
            Prescription{n.node, lt.tree.session(), std::max(1, supply[i])});
      }
      const int pi = lt.tree.parent(i);
      NodeDiagnostics nd;
      nd.node = n.node;
      nd.parent = pi < 0 ? net::kInvalidNode : lt.tree.node(static_cast<std::size_t>(pi)).node;
      nd.is_receiver = n.is_receiver;
      nd.congested = lt.congested[i];
      nd.loss_rate = units::LossFraction{lt.loss[i]};
      nd.bottleneck = units::BitsPerSec{lt.bottleneck_bps[i]};
      nd.share = units::BitsPerSec{lt.share_bps[i]};
      nd.demand = demand[i];
      nd.supply = supply[i];
      diag.nodes.push_back(nd);
    }
    output.diagnostics.push_back(std::move(diag));
  }

  // Expire stale backoffs and memories so long runs do not accrete state for
  // receivers that left.
  for (auto it = backoff_.begin(); it != backoff_.end();) {
    auto& layers = it->second;
    for (auto lit = layers.begin(); lit != layers.end();) {
      lit = lit->second <= now ? layers.erase(lit) : std::next(lit);
    }
    it = layers.empty() ? backoff_.erase(it) : std::next(it);
  }
  if ((interval_count_ & 0x3F) == 0) {
    for (auto it = memory_.begin(); it != memory_.end();) {
      it = it->second.last_seen_interval + 64 < interval_count_ ? memory_.erase(it)
                                                                : std::next(it);
    }
    for (auto it = tree_cache_.begin(); it != tree_cache_.end();) {
      it = it->second.last_seen_interval + 64 < interval_count_ ? tree_cache_.erase(it)
                                                                : std::next(it);
    }
  }

  return output;
}

}  // namespace tsim::core
