#include "control/domain_manager.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "transport/control_messages.hpp"

namespace tsim::control {

using sim::Time;

/// --- TopoSenseDomain --------------------------------------------------------

TopoSenseDomain::TopoSenseDomain(sim::Simulation& simulation, net::Network& network,
                                 transport::DemuxRegistry& demuxes,
                                 std::unique_ptr<topo::TopologyProvider> discovery,
                                 ControllerAgent::Config config)
    : simulation_{simulation}, discovery_{std::move(discovery)} {
  agent_ = std::make_unique<ControllerAgent>(simulation, network, *discovery_,
                                             demuxes.at(config.node), config);
}

ReceiverAgent* TopoSenseDomain::register_receiver(transport::ReceiverEndpoint& endpoint) {
  agent_->register_receiver(endpoint.config().session, endpoint.config().node);
  watchdogs_.push_back(std::make_unique<ReceiverAgent>(simulation_, endpoint,
                                                       agent_->config().params.interval));
  return watchdogs_.back().get();
}

void TopoSenseDomain::start() {
  // Discovery first, then the controller — the order the single-controller
  // scenario wiring used (the first discovery sample runs synchronously).
  discovery_->start();
  agent_->start();
}

void TopoSenseDomain::start_receiver_policies() {
  for (const auto& watchdog : watchdogs_) watchdog->start();
}

/// --- DomainManager ----------------------------------------------------------

namespace {
std::uint64_t window_key(std::size_t domain_index, net::SessionId session) {
  return (static_cast<std::uint64_t>(domain_index) << 32) | session;
}
}  // namespace

DomainManager::DomainManager(sim::Simulation& simulation, net::Network& network,
                             transport::DemuxRegistry& demuxes,
                             std::vector<Domain> domains, const SchemeFactory& factory)
    : simulation_{simulation}, network_{network} {
  entries_.reserve(domains.size());
  for (Domain& domain : domains) {
    Entry entry;
    entry.domain = std::move(domain);
    entries_.push_back(std::move(entry));
  }
  validate_partition();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    entry.scheme = factory(i, entry.domain);
    if (entry.scheme == nullptr) {
      throw std::invalid_argument("domain scheme factory returned null for domain '" +
                                  entry.domain.name + "'");
    }
    if (auto* unit = dynamic_cast<TopoSenseDomain*>(entry.scheme.get())) {
      entry.agent = &unit->agent();
    }
  }

  // The inter-domain exchange needs a ControllerAgent on both ends of every
  // parent link; schemes without one (baseline, null) run their domains
  // independently.
  summaries_enabled_ = entries_.size() > 1 &&
                       std::all_of(entries_.begin(), entries_.end(),
                                   [](const Entry& e) { return e.agent != nullptr; });
  if (summaries_enabled_) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].domain.parent >= 0) {
        child_of_border_.emplace(entries_[i].domain.controller_node, i);
      }
      demuxes.at(entries_[i].domain.controller_node)
          .add_handler(net::PacketKind::kSummary,
                       [this, i](const net::PacketRef& p) { handle_summary(i, *p); });
    }
  }
}

void DomainManager::validate_partition() {
  if (entries_.empty()) throw std::invalid_argument("DomainManager needs at least one domain");
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Domain& d = entries_[i].domain;
    if (d.controller_node == net::kInvalidNode) {
      throw std::invalid_argument("domain '" + d.name + "' has no controller node");
    }
    if (std::find(d.nodes.begin(), d.nodes.end(), d.controller_node) == d.nodes.end()) {
      throw std::invalid_argument("domain '" + d.name +
                                  "' does not own its own controller node");
    }
    for (const net::NodeId node : d.nodes) {
      const auto [it, inserted] = domain_of_node_.emplace(node, static_cast<int>(i));
      if (!inserted) {
        throw std::invalid_argument("node " + std::to_string(node) + " is owned by domains '" +
                                    entries_[static_cast<std::size_t>(it->second)].domain.name +
                                    "' and '" + d.name + "'");
      }
    }
    if (d.parent >= 0) {
      if (static_cast<std::size_t>(d.parent) >= entries_.size() ||
          static_cast<std::size_t>(d.parent) == i) {
        throw std::invalid_argument("domain '" + d.name + "' has an invalid parent index");
      }
    }
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    // Walk the parent chain; more steps than domains means a cycle.
    int at = static_cast<int>(i);
    for (std::size_t steps = 0; steps <= entries_.size(); ++steps) {
      const int parent = entries_[static_cast<std::size_t>(at)].domain.parent;
      if (parent < 0) break;
      if (steps == entries_.size()) {
        throw std::invalid_argument("domain parent links contain a cycle");
      }
      at = parent;
    }
  }
}

ReceiverAgent* DomainManager::register_receiver(transport::ReceiverEndpoint& endpoint) {
  const int index = domain_of(endpoint.config().node);
  if (index < 0) {
    throw std::invalid_argument("receiver node " + std::to_string(endpoint.config().node) +
                                " is not owned by any domain");
  }
  return entries_[static_cast<std::size_t>(index)].scheme->register_receiver(endpoint);
}

int DomainManager::domain_of(net::NodeId node) const {
  const auto it = domain_of_node_.find(node);
  return it == domain_of_node_.end() ? -1 : it->second;
}

void DomainManager::start() {
  for (const auto& entry : entries_) entry.scheme->start();
  if (!summaries_enabled_) return;

  // Register every child's border with its parent now, for every session the
  // child participates in: registration order must come from the domain
  // structure, not from which summary packet happens to arrive first.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& child = entries_[i];
    if (child.domain.parent < 0) continue;
    Entry& parent = entries_[static_cast<std::size_t>(child.domain.parent)];
    for (const auto& [session, receivers] : child.agent->registered()) {
      parent.agent->register_border_receiver(session, child.domain.controller_node);
    }
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    const bool has_borders =
        std::any_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
          return e.domain.parent == static_cast<int>(i);
        });
    if (has_borders) {
      entry.agent->set_border_hook(
          [this, i](const core::Prescription& p) { send_cap(i, p); });
    }
    if (entry.domain.parent >= 0) {
      simulation_.at(kSummaryStart, [this, i]() { send_summaries(i); });
    }
  }
}

void DomainManager::start_receiver_policies() {
  for (const auto& entry : entries_) entry.scheme->start_receiver_policies();
}

void DomainManager::set_enabled(bool enabled) {
  for (const auto& entry : entries_) entry.scheme->set_enabled(enabled);
}

bool DomainManager::enabled() const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return e.scheme->enabled(); });
}

ControllerStats DomainManager::stats() const {
  ControllerStats total;
  for (const auto& entry : entries_) {
    const ControllerStats s = entry.scheme->stats();
    total.reports_received += s.reports_received;
    total.suggestions_sent += s.suggestions_sent;
    total.intervals_run += s.intervals_run;
    total.outages += s.outages;
    total.layers_added += s.layers_added;
    total.layers_dropped += s.layers_dropped;
  }
  return total;
}

void DomainManager::send_summaries(std::size_t index) {
  Entry& child = entries_[index];
  const Entry& parent = entries_[static_cast<std::size_t>(child.domain.parent)];
  if (child.agent->enabled()) {
    const Time now = simulation_.now();
    for (const auto& [session, receivers] : child.agent->registered()) {
      transport::DomainSummary summary = child.agent->build_session_summary(session, now);
      if (summary.receiver_count == 0) continue;  // nothing learned yet
      auto payload = std::make_shared<transport::DomainSummary>(summary);
      payload->direction = transport::DomainSummary::Direction::kDemand;
      payload->domain = static_cast<std::uint32_t>(index);
      payload->border = child.domain.controller_node;
      payload->summary_seq = ++child.summary_seq;

      net::Packet packet;
      packet.kind = net::PacketKind::kSummary;
      packet.size_bytes = transport::kSummaryPacketBytes;
      packet.src = child.domain.controller_node;
      packet.dst = parent.domain.controller_node;
      packet.control = std::move(payload);
      network_.send_unicast(packet);
      ++summaries_sent_;
    }
  }
  simulation_.after(kSummaryPeriod, [this, index]() { send_summaries(index); });
}

void DomainManager::handle_summary(std::size_t index, const net::Packet& packet) {
  const auto* summary = dynamic_cast<const transport::DomainSummary*>(packet.control.get());
  if (summary == nullptr) return;
  Entry& entry = entries_[index];
  if (entry.agent == nullptr) return;
  switch (summary->direction) {
    case transport::DomainSummary::Direction::kDemand: {
      if (child_of_border_.count(summary->border) == 0) {
        note_violation("demand summary for unknown border node " +
                       std::to_string(summary->border));
        return;
      }
      const std::uint64_t key = window_key(static_cast<std::size_t>(summary->domain),
                                           summary->session);
      const auto it = last_ingested_window_.find(key);
      if (it != last_ingested_window_.end() && summary->window_end < it->second) {
        note_violation("summary windows moved backwards for domain " +
                       std::to_string(summary->domain) + " session " +
                       std::to_string(summary->session));
      } else {
        last_ingested_window_[key] = summary->window_end;
      }
      entry.agent->ingest_border_summary(*summary);
      ++summaries_received_;
      break;
    }
    case transport::DomainSummary::Direction::kCap: {
      entry.agent->set_session_cap(summary->session, summary->subscription);
      ++caps_received_;
      break;
    }
  }
}

void DomainManager::send_cap(std::size_t parent_index, const core::Prescription& prescription) {
  const auto it = child_of_border_.find(prescription.receiver);
  if (it == child_of_border_.end()) return;
  const Entry& parent = entries_[parent_index];
  const Entry& child = entries_[it->second];

  auto payload = std::make_shared<transport::DomainSummary>();
  payload->direction = transport::DomainSummary::Direction::kCap;
  payload->domain = static_cast<std::uint32_t>(parent_index);
  payload->session = prescription.session;
  payload->border = prescription.receiver;
  payload->subscription = prescription.subscription;

  net::Packet packet;
  packet.kind = net::PacketKind::kSummary;
  packet.size_bytes = transport::kSummaryPacketBytes;
  packet.src = parent.domain.controller_node;
  packet.dst = child.domain.controller_node;
  packet.control = std::move(payload);
  network_.send_unicast(packet);
  ++caps_sent_;
}

void DomainManager::note_violation(std::string detail) {
  constexpr std::size_t kMaxRecorded = 64;
  if (violations_.size() < kMaxRecorded) violations_.push_back(std::move(detail));
}

void DomainManager::check_consistency(
    const std::function<void(const std::string&)>& report) const {
  // Ownership: the node->domain map must agree with the domain node lists
  // (they are built together, so a mismatch means memory corruption or a
  // partition edited after construction).
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    for (const net::NodeId node : entries_[i].domain.nodes) {
      if (domain_of(node) != static_cast<int>(i)) {
        report("node " + std::to_string(node) + " ownership diverged from domain '" +
               entries_[i].domain.name + "'");
      }
    }
  }
  for (const auto& entry : entries_) {
    if (entry.agent == nullptr) continue;
    const int layers = entry.agent->config().params.layers.num_layers;
    for (const auto& [session, receivers] : entry.agent->registered()) {
      const int cap = entry.agent->session_cap(session);
      if (cap != 0 && (cap < 1 || cap > layers)) {
        report("domain '" + entry.domain.name + "' session " + std::to_string(session) +
               " cap " + std::to_string(cap) + " outside [1, " + std::to_string(layers) + "]");
      }
    }
  }
  if (summaries_received_ > summaries_sent_) {
    report("more summaries received (" + std::to_string(summaries_received_) +
           ") than sent (" + std::to_string(summaries_sent_) + ")");
  }
  if (caps_received_ > caps_sent_) {
    report("more caps received (" + std::to_string(caps_received_) + ") than sent (" +
           std::to_string(caps_sent_) + ")");
  }
  for (const std::string& violation : violations_) report(violation);
}

}  // namespace tsim::control
