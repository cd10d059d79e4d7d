#include "check/invariant_auditor.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace tsim::check {

namespace {

/// Relative slack for floating-point monotonicity comparisons.
constexpr double kRelTol = 1e-9;

/// Period of the sweeping checks, in simulated time.
constexpr sim::Time kSweepCadence = sim::Time::seconds(1);

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string describe(const Violation& v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "[%s] t=%.6fs epoch=%" PRIu64, v.invariant.c_str(),
                v.when.as_seconds(), v.epoch);
  std::string out{buf};
  if (v.node != net::kInvalidNode) out += " node=" + std::to_string(v.node);
  if (v.link != net::kInvalidLink) out += " link=" + std::to_string(v.link);
  if (!v.detail.empty()) out += " — " + v.detail;
  return out;
}

std::string group_tag(net::GroupAddr group) {
  return "session " + std::to_string(group.session) + " layer " +
         std::to_string(static_cast<int>(group.layer));
}

}  // namespace

std::optional<AuditMode> parse_audit_mode(std::string_view text) {
  if (text == "off") return AuditMode::kOff;
  if (text == "log") return AuditMode::kLog;
  if (text == "assert") return AuditMode::kAssert;
  return std::nullopt;
}

const char* audit_mode_name(AuditMode mode) {
  switch (mode) {
    case AuditMode::kOff: return "off";
    case AuditMode::kLog: return "log";
    case AuditMode::kAssert: return "assert";
  }
  return "?";
}

AuditError::AuditError(Violation violation)
    : std::runtime_error{"audit violation: " + describe(violation)},
      violation_{std::move(violation)} {}

InvariantAuditor::InvariantAuditor(AuditConfig config) : config_{config} {}

sim::Time InvariantAuditor::now() const {
  return simulation_ != nullptr ? simulation_->now() : manual_now_;
}

std::uint64_t InvariantAuditor::epoch() const {
  return network_ != nullptr ? network_->topology_version() : 0;
}

void InvariantAuditor::report(Violation violation) {
  if (!enabled()) return;
  ++violation_count_;
  if (config_.mode == AuditMode::kLog && config_.log_to_stderr) {
    std::fprintf(stderr, "audit: %s\n", describe(violation).c_str());
  }
  if (config_.mode == AuditMode::kAssert) {
    if (violations_.size() < config_.max_recorded) violations_.push_back(violation);
    throw AuditError{std::move(violation)};
  }
  if (violations_.size() < config_.max_recorded) violations_.push_back(std::move(violation));
}

void InvariantAuditor::register_check(std::string name, std::function<void()> fn) {
  checks_.emplace_back(std::move(name), std::move(fn));
}

void InvariantAuditor::run_checks_now() {
  if (!enabled()) return;
  for (const auto& [name, fn] : checks_) {
    ++checks_run_;
    fn();
  }
}

void InvariantAuditor::attach_simulation(sim::Simulation& simulation) {
  simulation_ = &simulation;
  register_check("sim.scheduler", [this]() { check_scheduler(); });
}

void InvariantAuditor::attach_network(net::Network& network) {
  network_ = &network;
  register_check("link.conservation", [this]() { check_links(); });
}

void InvariantAuditor::attach_multicast(mcast::MulticastRouter& router) {
  multicast_ = &router;
  register_check("mcast.trees", [this]() { check_clean_trees(); });
  router.set_audit_hook([this](net::GroupAddr group, const mcast::GroupTree& tree) {
    check_group_tree(group, tree);
  });
}

void InvariantAuditor::start() {
  if (!enabled() || simulation_ == nullptr || started_) return;
  started_ = true;
  // SmallCallback cannot capture itself, so reschedule through a member hop.
  struct Tick {
    InvariantAuditor* auditor;
    void operator()() const {
      auditor->run_checks_now();
      auditor->simulation_->after(kSweepCadence, Tick{auditor});
    }
  };
  simulation_->after(kSweepCadence, Tick{this});
}

/// Invariant: everything a link was ever offered is accounted for —
///   enqueued == delivered + dropped + queued + transmitting
/// at packet and byte granularity (tx == rx + dropped + queued + in_flight).
void InvariantAuditor::check_links() {
  for (net::LinkId id = 0; id < network_->link_count(); ++id) {
    const net::Link& link = network_->link(id);
    const net::LinkStats s = link.stats();

    const std::uint64_t in_transmitter = link.transmitting() ? 1 : 0;
    const std::uint64_t packets_out =
        s.delivered_packets + s.dropped_packets + link.queue_length() + in_transmitter;
    if (s.enqueued_packets != packets_out) {
      report(Violation{"link.packet_conservation", now(), epoch(), link.from(), id,
                       "enqueued " + std::to_string(s.enqueued_packets) + " != delivered " +
                           std::to_string(s.delivered_packets) + " + dropped " +
                           std::to_string(s.dropped_packets) + " + queued " +
                           std::to_string(link.queue_length()) + " + transmitting " +
                           std::to_string(in_transmitter)});
    }

    const units::Bytes bytes_out =
        s.delivered_bytes + s.dropped_bytes + link.queued_bytes() + link.transmitting_bytes();
    if (s.enqueued_bytes != bytes_out) {
      report(Violation{"link.byte_conservation", now(), epoch(), link.from(), id,
                       "enqueued " + std::to_string(s.enqueued_bytes.count()) + "B != delivered " +
                           std::to_string(s.delivered_bytes.count()) + "B + dropped " +
                           std::to_string(s.dropped_bytes.count()) + "B + queued " +
                           std::to_string(link.queued_bytes().count()) + "B + in-flight " +
                           std::to_string(link.transmitting_bytes().count()) + "B"});
    }
  }
}

/// Invariants: simulated time never runs backwards, no pending event sits in
/// the past, and the cancellation slot pool is consistent (every slot either
/// free or owned by exactly one queue entry).
void InvariantAuditor::check_scheduler() {
  const sim::Scheduler& sched = simulation_->scheduler();
  const sim::Time t = sched.now();
  if (seen_time_ && t < last_seen_time_) {
    report(Violation{"sim.time_monotonic", t, epoch(), net::kInvalidNode, net::kInvalidLink,
                     "clock moved backwards: " + std::to_string(last_seen_time_.as_seconds()) +
                         "s -> " + std::to_string(t.as_seconds()) + "s"});
  }
  seen_time_ = true;
  last_seen_time_ = t;

  if (sched.next_event_time() < t) {
    report(Violation{"sim.event_in_past", t, epoch(), net::kInvalidNode, net::kInvalidLink,
                     "pending event at " + std::to_string(sched.next_event_time().as_seconds()) +
                         "s is before now=" + std::to_string(t.as_seconds()) + "s"});
  }

  if (sched.slot_pool_size() != sched.free_slot_count() + sched.queued_entries()) {
    report(Violation{"sim.slot_pool", t, epoch(), net::kInvalidNode, net::kInvalidLink,
                     "pool " + std::to_string(sched.slot_pool_size()) + " != free " +
                         std::to_string(sched.free_slot_count()) + " + queued " +
                         std::to_string(sched.queued_entries())});
  }
  if (sched.cancelled_pending() > sched.queued_entries()) {
    report(Violation{"sim.slot_pool", t, epoch(), net::kInvalidNode, net::kInvalidLink,
                     "cancelled_pending " + std::to_string(sched.cancelled_pending()) +
                         " exceeds queued " + std::to_string(sched.queued_entries())});
  }
}

void InvariantAuditor::check_clean_trees() {
  for (const net::GroupAddr group : multicast_->active_groups()) {
    // Dirty trees are deliberately skipped: validating them would force a
    // rebuild earlier than its natural first use and perturb prune timing.
    const mcast::GroupTree* tree = multicast_->tree_if_clean(group);
    if (tree != nullptr) check_group_tree(group, *tree);
  }
}

/// Invariants: the tree is rooted at the session source, acyclic, every child
/// has one parent, the CSR fan-out agrees with the edge list, every edge's
/// forwarding link is up in the current topology epoch, and every
/// locally-delivering member the topology can reach is on the tree.
void InvariantAuditor::check_group_tree(net::GroupAddr group, const mcast::GroupTree& tree) {
  if (!enabled()) return;
  const std::string tag = group_tag(group);

  if (tree.source == net::kInvalidNode) {
    report(Violation{"mcast.tree_root", now(), epoch(), net::kInvalidNode, net::kInvalidLink,
                     tag + ": tree has no source"});
    return;
  }

  if (network_ != nullptr && tree.built_topology_version != network_->topology_version()) {
    report(Violation{"mcast.tree_stale_epoch", now(), epoch(), tree.source, net::kInvalidLink,
                     tag + ": tree built under epoch " +
                         std::to_string(tree.built_topology_version) + ", network is at " +
                         std::to_string(network_->topology_version())});
  }

  std::unordered_map<net::NodeId, net::NodeId> seen_parent;
  std::unordered_map<net::NodeId, std::vector<net::NodeId>> children;
  for (const auto& [parent, child] : tree.edges) {
    if (child == tree.source) {
      report(Violation{"mcast.tree_root", now(), epoch(), tree.source, net::kInvalidLink,
                       tag + ": source has incoming edge from node " + std::to_string(parent)});
      continue;
    }
    const auto [it, inserted] = seen_parent.emplace(child, parent);
    if (!inserted) {
      report(Violation{"mcast.tree_multi_parent", now(), epoch(), child, net::kInvalidLink,
                       tag + ": node has parents " + std::to_string(it->second) + " and " +
                           std::to_string(parent)});
      continue;
    }
    children[parent].push_back(child);
  }

  // Walk down from the source; an edge whose parent is never reached belongs
  // to a cycle or a component detached from the root.
  std::unordered_set<net::NodeId> reached{tree.source};
  std::vector<net::NodeId> frontier{tree.source};
  while (!frontier.empty()) {
    const net::NodeId node = frontier.back();
    frontier.pop_back();
    const auto it = children.find(node);
    if (it == children.end()) continue;
    for (const net::NodeId child : it->second) {
      if (reached.insert(child).second) frontier.push_back(child);
    }
  }
  for (const auto& [parent, child] : tree.edges) {
    if (child == tree.source) continue;  // already reported as a root violation
    if (reached.count(child) == 0) {
      report(Violation{"mcast.tree_cycle", now(), epoch(), child, net::kInvalidLink,
                       tag + ": edge " + std::to_string(parent) + "->" + std::to_string(child) +
                           " unreachable from source (cycle or detached subtree)"});
    }
  }

  // CSR coherence: route() replicates from the fan spans, while discovery
  // hands the controller `edges`; both must describe one tree. Pool slot
  // offset + k of parent p carries p's k-th edge, so every edge must find its
  // link in its parent's span, in edge order, leading to the edge's child.
  // That link is the one packets ride, so the dead-edge check reads it too.
  std::vector<std::uint32_t> placed(tree.fan.size(), 0);
  for (const auto& [parent, child] : tree.edges) {
    net::LinkId link = net::kInvalidLink;
    if (parent < tree.fan.size()) {
      const mcast::GroupTree::FanSlot& slot = tree.fan[parent];
      const std::uint32_t k = placed[parent]++;
      const std::size_t at = static_cast<std::size_t>(slot.offset) + k;
      if (k < slot.count && at < tree.fan_links.size()) link = tree.fan_links[at];
    }
    const bool leads_to_child =
        link != net::kInvalidLink &&
        (network_ == nullptr ||
         (link < network_->link_count() && network_->link(link).from() == parent &&
          network_->link_params(link).to == child));
    if (!leads_to_child) {
      report(Violation{"mcast.tree_csr", now(), epoch(), parent, link,
                       tag + ": edge " + std::to_string(parent) + "->" + std::to_string(child) +
                           " has no link to the child in the parent's fan span"});
    } else if (network_ != nullptr && !network_->link(link).is_up()) {
      report(Violation{"mcast.tree_dead_edge", now(), epoch(), parent, link,
                       tag + ": edge " + std::to_string(parent) + "->" + std::to_string(child) +
                           " rides a link that is down"});
    }
  }
  std::uint64_t span_links = 0;
  for (const mcast::GroupTree::FanSlot& slot : tree.fan) span_links += slot.count;
  if (tree.fan_links.size() != tree.edges.size() || span_links != tree.edges.size()) {
    report(Violation{"mcast.tree_csr", now(), epoch(), tree.source, net::kInvalidLink,
                     tag + ": fan spans cover " + std::to_string(span_links) +
                         " links and the pool holds " + std::to_string(tree.fan_links.size()) +
                         " for " + std::to_string(tree.edges.size()) + " edges"});
  }

  if (network_ != nullptr) {
    // Orphans: a member still marked for local delivery that the tree does
    // not reach, even though the topology has a path for it. Members with no
    // physical path are excused — the router keeps them for re-grafting once
    // the partition heals, which is correct behaviour, not a stale tree.
    const net::RoutingTable& routes = network_->routes();
    for (net::NodeId node = 0; node < tree.fan.size(); ++node) {
      if (tree.fan[node].deliver_locally == 0) continue;
      if (node == tree.source || reached.count(node) != 0) continue;
      if (routes.path(tree.source, node).empty()) continue;
      report(Violation{"mcast.tree_orphan_receiver", now(), epoch(), node, net::kInvalidLink,
                       tag + ": subscribed receiver is reachable from source " +
                           std::to_string(tree.source) + " but not on the tree"});
    }
  }
}

/// Invariants over one controller pass (paper §III postconditions): bottleneck
/// bandwidth and fair share are monotone non-increasing from root to leaf,
/// supply respects layer bounds / demand / the parent's supply, prescriptions
/// match the computed supply, and per-link fair shares stay within the
/// estimated capacity plus the base-layer floor the allocator guarantees
/// every session.
void InvariantAuditor::on_algorithm_output(const core::AlgorithmInput& input,
                                           const core::AlgorithmOutput& output,
                                           const core::TopoSense& algorithm) {
  if (!enabled()) return;
  (void)input;
  const double base_rate = algorithm.params().layers.base_rate.bps();
  const int num_layers = algorithm.params().layers.num_layers;
  const sim::Time t = now();
  const std::uint64_t ep = epoch();

  // All pass-local lookup structures live in scratch_, are stamp-invalidated
  // rather than cleared, and are reused between passes; in steady state this
  // function performs no heap allocation and no sorting or hashing, which is
  // what keeps log-mode audit overhead inside the 15% benchmark budget.
  const std::uint64_t pass_stamp = ++scratch_.stamp;
  scratch_.touched_children.clear();
  scratch_.spill.clear();

  for (const core::Prescription& p : output.prescriptions) {
    if (p.subscription < 1 || p.subscription > num_layers) {
      report(Violation{"control.layer_bounds", t, ep, p.receiver, net::kInvalidLink,
                       "session " + std::to_string(p.session) + ": prescription " +
                           std::to_string(p.subscription) + " outside [1, " +
                           std::to_string(num_layers) + "]"});
    }
  }

  // Bucket prescriptions by diagnostics session (sessions are few, the linear
  // scan is cheap). A prescription for a session with no diagnostics is
  // ignored, matching the pre-auditor behaviour of downstream consumers.
  auto& buckets = scratch_.presc_by_session;
  if (buckets.size() < output.diagnostics.size()) buckets.resize(output.diagnostics.size());
  for (std::size_t d = 0; d < output.diagnostics.size(); ++d) buckets[d].clear();
  for (std::size_t i = 0; i < output.prescriptions.size(); ++i) {
    const core::Prescription& p = output.prescriptions[i];
    for (std::size_t d = 0; d < output.diagnostics.size(); ++d) {
      if (output.diagnostics[d].session == p.session) {
        buckets[d].push_back(static_cast<std::uint32_t>(i));
        break;
      }
    }
  }

  for (std::size_t d = 0; d < output.diagnostics.size(); ++d) {
    const core::SessionDiagnostics& diag = output.diagnostics[d];
    // Stamp-indexed node -> row map: bumping the stamp invalidates the
    // previous session's entries without touching the arrays.
    const std::uint64_t stamp = ++scratch_.stamp;
    for (std::size_t row = 0; row < diag.nodes.size(); ++row) {
      const net::NodeId node = diag.nodes[row].node;
      scratch_.ensure_node(node);
      scratch_.node_stamp[node] = stamp;
      scratch_.node_row[node] = static_cast<std::uint32_t>(row);
    }
    for (const std::uint32_t idx : buckets[d]) {
      const core::Prescription& p = output.prescriptions[idx];
      scratch_.ensure_node(p.receiver);
      scratch_.presc_stamp[p.receiver] = stamp;
      scratch_.presc_level[p.receiver] = p.subscription;
    }

    const std::string tag = "session " + std::to_string(diag.session);
    for (const core::NodeDiagnostics& nd : diag.nodes) {
      if (nd.supply < 0 || nd.supply > num_layers || nd.supply > std::max(nd.demand, 1)) {
        report(Violation{"control.layer_bounds", t, ep, nd.node, net::kInvalidLink,
                         tag + ": supply " + std::to_string(nd.supply) + " outside [0, " +
                             std::to_string(num_layers) + "] or above demand " +
                             std::to_string(nd.demand)});
      }
      if (nd.is_receiver) {
        const bool has = scratch_.presc_stamp[nd.node] == stamp;
        const int expected = std::max(1, nd.supply);
        if (!has || scratch_.presc_level[nd.node] != expected) {
          report(Violation{"control.prescription_mismatch", t, ep, nd.node, net::kInvalidLink,
                           tag + ": expected prescription " + std::to_string(expected) +
                               ", got " +
                               (!has ? "none" : std::to_string(scratch_.presc_level[nd.node]))});
        }
      }
      if (nd.parent == net::kInvalidNode) continue;

      if (std::isfinite(nd.share.bps())) {
        if (scratch_.child_stamp[nd.node] != pass_stamp) {
          scratch_.child_stamp[nd.node] = pass_stamp;
          scratch_.child_parent[nd.node] = nd.parent;
          scratch_.child_sum[nd.node] = nd.share.bps();
          scratch_.child_sessions[nd.node] = 1;
          scratch_.touched_children.push_back(nd.node);
        } else if (scratch_.child_parent[nd.node] == nd.parent) {
          scratch_.child_sum[nd.node] += nd.share.bps();
          scratch_.child_sessions[nd.node] += 1;
        } else {
          // Same child under a different parent in another session's tree:
          // rare, so a linear scan of the spill list is fine.
          const std::uint64_t key =
              (static_cast<std::uint64_t>(nd.parent) << 32) | nd.node;
          bool found = false;
          for (PassScratch::Spill& s : scratch_.spill) {
            if (s.key == key) {
              s.sum += nd.share.bps();
              s.sessions += 1;
              found = true;
              break;
            }
          }
          if (!found) scratch_.spill.push_back({key, nd.share.bps(), 1});
        }
      }

      if (nd.parent >= scratch_.node_stamp.size() || scratch_.node_stamp[nd.parent] != stamp) {
        report(Violation{"control.diag_parent_missing", t, ep, nd.node, net::kInvalidLink,
                         tag + ": parent " + std::to_string(nd.parent) +
                             " absent from diagnostics"});
        continue;
      }
      const core::NodeDiagnostics& pd = diag.nodes[scratch_.node_row[nd.parent]];
      if (nd.bottleneck > pd.bottleneck * (1.0 + kRelTol)) {
        report(Violation{"control.bottleneck_monotone", t, ep, nd.node, net::kInvalidLink,
                         tag + ": bottleneck " + std::to_string(nd.bottleneck.bps()) +
                             " bps exceeds parent " + std::to_string(nd.parent) + "'s " +
                             std::to_string(pd.bottleneck.bps()) + " bps"});
      }
      if (nd.share > pd.share * (1.0 + kRelTol)) {
        report(Violation{"control.share_monotone", t, ep, nd.node, net::kInvalidLink,
                         tag + ": fair share " + std::to_string(nd.share.bps()) +
                             " bps exceeds parent " + std::to_string(nd.parent) + "'s " +
                             std::to_string(pd.share.bps()) + " bps"});
      }
      if (nd.supply > std::max(pd.supply, 1)) {
        report(Violation{"control.layer_bounds", t, ep, nd.node, net::kInvalidLink,
                         tag + ": supply " + std::to_string(nd.supply) + " exceeds parent " +
                             std::to_string(nd.parent) + "'s supply " +
                             std::to_string(pd.supply)});
      }
    }
  }

  // A session's per-node share is the minimum link share along its path, so
  // summing the child-node shares of one link never exceeds the link's total
  // allocation: proportional split of the estimated capacity, plus at most
  // one base-layer floor per crossing session (the allocator guarantees every
  // session its base layer even on an over-subscribed link).
  const auto check_link_load = [&](net::NodeId parent, net::NodeId child, double sum,
                                   int sessions) {
    const double cap = algorithm.capacities().capacity_bps(core::LinkKey{parent, child});
    if (!std::isfinite(cap)) return;
    const double allowed = (cap + static_cast<double>(sessions) * base_rate) * (1.0 + 1e-6);
    if (sum > allowed) {
      report(Violation{"control.fair_share_capacity", t, ep, parent, net::kInvalidLink,
                       "link " + std::to_string(parent) + "->" + std::to_string(child) +
                           ": shares of " + std::to_string(sessions) + " session(s) sum to " +
                           std::to_string(sum) + " bps > capacity " + std::to_string(cap) +
                           " bps + base floors"});
    }
  };
  // touched_children follows diagnostics order and spill follows insertion
  // order, so the report sequence is deterministic.
  for (const std::uint32_t child : scratch_.touched_children) {
    check_link_load(scratch_.child_parent[child], child, scratch_.child_sum[child],
                    scratch_.child_sessions[child]);
  }
  for (const PassScratch::Spill& s : scratch_.spill) {
    check_link_load(static_cast<net::NodeId>(s.key >> 32),
                    static_cast<net::NodeId>(s.key & 0xffffffffu), s.sum, s.sessions);
  }
}

void InvariantAuditor::PassScratch::ensure_node(std::uint32_t node) {
  if (node < node_stamp.size()) return;
  const std::size_t n = node + 1;
  node_stamp.resize(n, 0);
  node_row.resize(n, 0);
  presc_stamp.resize(n, 0);
  presc_level.resize(n, 0);
  child_stamp.resize(n, 0);
  child_parent.resize(n, 0);
  child_sum.resize(n, 0.0);
  child_sessions.resize(n, 0);
}

/// Invariants: the watchdog never probes a layer up while its own window loss
/// is at/above the add threshold or while starved, and never sheds a layer on
/// a clean, un-starved window (§V resilience rules).
void InvariantAuditor::on_unilateral_action(const WatchdogObservation& obs) {
  if (!enabled()) return;
  if (obs.add && (obs.starved || obs.loss >= obs.add_loss_threshold)) {
    report(Violation{"control.watchdog_add_under_loss", now(), epoch(), obs.node,
                     net::kInvalidLink,
                     "add-probe with loss " + std::to_string(obs.loss) + " (threshold " +
                         std::to_string(obs.add_loss_threshold) +
                         (obs.starved ? ", starved)" : ")")});
  }
  if (!obs.add && !obs.starved && obs.loss <= obs.drop_loss_threshold) {
    report(Violation{"control.watchdog_drop_clean", now(), epoch(), obs.node, net::kInvalidLink,
                     "layer drop with clean loss " + std::to_string(obs.loss) + " (threshold " +
                         std::to_string(obs.drop_loss_threshold) + ", not starved)"});
  }
}

std::string InvariantAuditor::report_json() const {
  std::string out = "{\"audit\":{\"mode\":\"";
  out += audit_mode_name(config_.mode);
  out += "\",\"checks_run\":" + std::to_string(checks_run_);
  out += ",\"violations_total\":" + std::to_string(violation_count_);
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    const Violation& v = violations_[i];
    if (i != 0) out += ',';
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9f", v.when.as_seconds());
    out += "{\"invariant\":\"" + json_escape(v.invariant) + "\"";
    out += ",\"t_s\":" + std::string{buf};
    out += ",\"epoch\":" + std::to_string(v.epoch);
    out += ",\"node\":" +
           (v.node == net::kInvalidNode ? std::string{"-1"} : std::to_string(v.node));
    out += ",\"link\":" +
           (v.link == net::kInvalidLink ? std::string{"-1"} : std::to_string(v.link));
    out += ",\"detail\":\"" + json_escape(v.detail) + "\"}";
  }
  out += "]}}";
  return out;
}

}  // namespace tsim::check
