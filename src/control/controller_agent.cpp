#include "control/controller_agent.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>

namespace tsim::control {

namespace {
/// The first algorithm run. Offset from the receivers' report period, so a run
/// always has fresh reports to read.
constexpr sim::Time kStart = sim::Time::milliseconds(2500);

std::uint64_t key_of(net::SessionId session, net::NodeId receiver) {
  return (static_cast<std::uint64_t>(session) << 32) | receiver;
}
}  // namespace

ControllerAgent::ControllerAgent(sim::Simulation& simulation, net::Network& network,
                                 topo::TopologyProvider& discovery,
                                 transport::PacketDemux& demux, Config config)
    : simulation_{simulation},
      network_{network},
      discovery_{discovery},
      config_{config},
      algorithm_{config.params, simulation.rng_stream("controller")} {
  demux.add_handler(net::PacketKind::kReport,
                    [this](const net::PacketRef& p) { handle_report(*p); });
}

void ControllerAgent::register_receiver(net::SessionId session, net::NodeId receiver) {
  if (registered_keys_.insert(key_of(session, receiver)).second) {
    registered_[session].push_back(receiver);
  }
  discovery_.track_session(session, static_cast<net::LayerId>(config_.params.layers.num_layers));
}

void ControllerAgent::start() {
  simulation_.at(kStart, [this]() { run_interval(); });
}

void ControllerAgent::set_enabled(bool enabled) {
  if (enabled == enabled_) return;
  enabled_ = enabled;
  if (!enabled_) {
    ++outages_;
    // The process died: its in-memory report history dies with it. The wire
    // counters survive by design (see the header contract) — they are the
    // durable audit record, not learned state.
    reports_.clear();
  }
}

ControllerStats ControllerAgent::stats() const {
  ControllerStats s;
  s.reports_received = reports_received_;
  s.suggestions_sent = suggestions_sent_;
  s.intervals_run = epoch_;
  s.outages = outages_;
  return s;
}

std::size_t ControllerAgent::report_history_size() const {
  std::size_t n = 0;
  // Order-insensitive sum over all histories.  NOLINT(determinism)
  for (const auto& [key, history] : reports_) n += history.size();
  return n;
}

void ControllerAgent::register_border_receiver(net::SessionId session, net::NodeId border) {
  borders_[key_of(session, border)] = true;
  register_receiver(session, border);
}

bool ControllerAgent::is_border(net::SessionId session, net::NodeId node) const {
  return borders_.count(key_of(session, node)) != 0;
}

transport::DomainSummary ControllerAgent::build_session_summary(net::SessionId session,
                                                                sim::Time window_end) const {
  transport::DomainSummary summary;
  summary.direction = transport::DomainSummary::Direction::kDemand;
  summary.session = session;
  summary.window_end = window_end;
  summary.window_start = window_end - config_.params.interval;

  const auto it = registered_.find(session);
  if (it == registered_.end()) return summary;
  bool have_shared = false;
  for (const net::NodeId receiver : it->second) {
    // Borders of *our* children already stand in for whole subtrees; folding
    // them into our own upstream summary would double-count and hide which
    // loss is locally fixable, so only direct receivers aggregate.
    if (is_border(session, receiver)) continue;
    const ReportAggregate agg = aggregate_reports(session, receiver, window_end);
    if (!agg.valid) continue;
    ++summary.receiver_count;
    summary.subscription = std::max(summary.subscription, agg.subscription);
    if (agg.bytes > summary.bytes_received) summary.bytes_received = agg.bytes;
    // Minimum loss across receivers: the component every receiver shares,
    // i.e. the part this domain cannot fix below its border.
    if (!have_shared || agg.loss_rate.value() < summary.shared_loss.value()) {
      have_shared = true;
      summary.shared_loss = agg.loss_rate;
      summary.received_packets = agg.received;
      summary.lost_packets = agg.lost;
    }
  }
  return summary;
}

void ControllerAgent::ingest_border_summary(const transport::DomainSummary& summary) {
  if (!enabled_) return;  // a dead controller reads nothing off the wire
  transport::ReceiverReport report;
  report.receiver = summary.border;
  report.session = summary.session;
  report.subscription = summary.subscription;
  report.loss_rate = summary.shared_loss;
  report.bytes_received = summary.bytes_received;
  report.received_packets = summary.received_packets;
  report.lost_packets = summary.lost_packets;
  report.window_start = summary.window_start;
  report.window_end = summary.window_end;
  report.report_seq = summary.summary_seq;
  remember(report);
}

void ControllerAgent::set_session_cap(net::SessionId session, int cap) {
  if (cap <= 0) {
    session_caps_.erase(session);
  } else {
    session_caps_[session] = cap;
  }
}

int ControllerAgent::session_cap(net::SessionId session) const {
  const auto it = session_caps_.find(session);
  return it == session_caps_.end() ? 0 : it->second;
}

int ControllerAgent::capped_subscription(const core::Prescription& prescription) const {
  const int cap = session_cap(prescription.session);
  return cap > 0 ? std::min(cap, prescription.subscription) : prescription.subscription;
}

void ControllerAgent::handle_report(const net::Packet& packet) {
  if (!enabled_) return;  // a dead controller reads nothing off the wire
  const auto* report = dynamic_cast<const transport::ReceiverReport*>(packet.control.get());
  if (report == nullptr) return;
  ++reports_received_;
  remember(*report);
}

void ControllerAgent::remember(const transport::ReceiverReport& report) {
  auto& history = reports_[key_of(report.session, report.receiver)];
  history.push_back(report);
  // Later reads ask for windows ending by now - info_staleness (run_interval)
  // or by now (DomainManager's summaries), and aggregate_reports looks back
  // at most three intervals from there. A report whose window ended at or
  // before the bound below is never read again. Only a prefix goes, so the
  // newest-first walk still stops at the first report it cannot read.
  const sim::Time oldest_readable =
      simulation_.now() - config_.info_staleness - config_.params.interval * 3;
  while (!history.empty() && history.front().window_end <= oldest_readable) {
    history.pop_front();
  }
}

ControllerAgent::ReportAggregate ControllerAgent::aggregate_reports(
    net::SessionId session, net::NodeId receiver, sim::Time window_end) const {
  ReportAggregate agg;
  const auto it = reports_.find(key_of(session, receiver));
  if (it == reports_.end()) return agg;

  // Fold in the newest reports that ended by `window_end` (staleness already
  // folded in by the caller) until they cover one algorithm interval.
  // Receivers may report more often than the algorithm runs (several small
  // windows per interval) or a report may have been lost to congestion (the
  // previous one stands in) — reports ride the data path and arrive a few
  // hundred ms late, so exact alignment can never be assumed.
  const sim::Time oldest_usable = window_end - config_.params.interval * 3;
  units::Bytes bytes{};
  units::PacketCount received{};
  units::PacketCount lost{};
  sim::Time span_end{};
  sim::Time span_start{};
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    const transport::ReceiverReport& r = *rit;
    if (r.window_end > window_end) continue;
    if (r.window_end <= oldest_usable) break;
    if (!agg.valid) {
      agg.valid = true;
      agg.subscription = r.subscription;  // newest report wins
      span_end = r.window_end;
    }
    bytes += r.bytes_received;
    received += r.received_packets;
    lost += r.lost_packets;
    span_start = r.window_start;
    if (span_end - span_start >= config_.params.interval) break;
  }
  if (agg.valid) {
    // Normalize the covered span to one interval so the algorithm's
    // bandwidth arithmetic (bytes * 8 / interval) stays correct when the
    // reporting cadence differs from the algorithm cadence.
    const double span_s = std::max((span_end - span_start).as_seconds(), 1e-9);
    const double scale = config_.params.interval.as_seconds() / span_s;
    agg.bytes = units::Bytes{
        static_cast<std::uint64_t>(static_cast<double>(bytes.count()) * scale)};
    agg.loss_rate = units::LossFraction::from_counts(lost, received + lost);
    agg.received = received;
    agg.lost = lost;
  }
  return agg;
}

void ControllerAgent::run_interval() {
  if (!enabled_) {
    // Keep the interval clock ticking through the outage so the epoch
    // counter stays monotonic and the restart resumes on the same cadence.
    ++epoch_;
    simulation_.after(config_.params.interval, [this]() { run_interval(); });
    return;
  }
  ++epoch_;
  const sim::Time now = simulation_.now();
  const sim::Time report_cutoff = now - config_.info_staleness;

  core::AlgorithmInput input;
  input.window = config_.params.interval;

  for (const auto& [session, receivers] : registered_) {
    const topo::TopologySnapshot* snap = discovery_.snapshot(session);
    if (snap == nullptr || snap->source == net::kInvalidNode) continue;

    core::SessionInput session_input;
    session_input.session = session;
    session_input.source = snap->source;

    // Collect tree nodes from the snapshot's edges (plus the source). Ordered
    // map: the iteration below fixes the node order of the algorithm input,
    // which must not depend on hash-table layout (determinism lint).
    std::map<net::NodeId, net::NodeId> parent_of;
    parent_of[snap->source] = net::kInvalidNode;
    for (const auto& [parent, child] : snap->edges) parent_of.emplace(child, parent);
    // Edges may mention parents the snapshot didn't root (stale artifacts);
    // TreeIndex drops anything unreachable from the source.
    for (const auto& [parent, child] : snap->edges) parent_of.emplace(parent, net::kInvalidNode);

    const std::unordered_set<net::NodeId> snapshot_receivers{snap->receivers.begin(),
                                                             snap->receivers.end()};

    for (const auto& [node, parent] : parent_of) {
      core::SessionNodeInput n;
      n.node = node;
      n.parent = parent;
      // Border pseudo-receivers are routers, never group members, so they are
      // admitted by registration alone; real receivers need both.
      if ((snapshot_receivers.count(node) != 0 || is_border(session, node)) &&
          registered_keys_.count(key_of(session, node)) != 0) {
        const ReportAggregate agg = aggregate_reports(session, node, report_cutoff);
        n.is_receiver = true;
        n.loss_rate = agg.loss_rate;
        n.bytes_received = agg.bytes;
        n.subscription = std::max(agg.subscription, 1);
      }
      session_input.nodes.push_back(n);
    }
    if (session_input.nodes.size() > 1) input.sessions.push_back(std::move(session_input));
  }

  if (!input.sessions.empty()) {
    last_output_ = algorithm_.run_interval(input, now);
    if (audit_hook_) audit_hook_(input, last_output_);
    for (const core::Prescription& p : last_output_.prescriptions) {
      if (border_hook_ && is_border(p.session, p.receiver)) {
        // A border's prescription is the cap we grant the child domain; it
        // goes to the DomainManager hook instead of onto the wire.
        core::Prescription capped = p;
        capped.subscription = capped_subscription(p);
        border_hook_(capped);
      } else {
        send_suggestion(p);
      }
    }
  }

  simulation_.after(config_.params.interval, [this]() { run_interval(); });
}

void ControllerAgent::send_suggestion(const core::Prescription& prescription) {
  auto suggestion = std::make_shared<transport::Suggestion>();
  suggestion->receiver = prescription.receiver;
  suggestion->session = prescription.session;
  suggestion->subscription = capped_subscription(prescription);
  suggestion->epoch = epoch_;

  net::Packet packet;
  packet.kind = net::PacketKind::kSuggestion;
  packet.size_bytes = transport::kSuggestionPacketBytes;
  packet.src = config_.node;
  packet.dst = prescription.receiver;
  packet.control = std::move(suggestion);
  network_.send_unicast(packet);
  ++suggestions_sent_;
}

}  // namespace tsim::control
