#include "fault/fault_injector.hpp"

#include <stdexcept>
#include <utility>

#include "sim/logging.hpp"

namespace tsim::fault {

FaultInjector::FaultInjector(sim::Simulation& simulation, net::Network& network,
                             FaultPlan plan, Hooks hooks)
    : simulation_{simulation},
      network_{network},
      plan_{std::move(plan)},
      hooks_{std::move(hooks)},
      suggestion_rng_{simulation.rng_stream("fault/suggestion-drop")} {
  if (const auto problem = plan_.validate()) {
    throw std::invalid_argument("FaultPlan: fault event " + std::to_string(problem->event) +
                                ": " + problem->message);
  }
  // Resolve every link reference eagerly so a typo fails at construction, not
  // halfway through a long run.
  for (const FaultEvent& e : plan_.events()) {
    if (!e.a.empty()) (void)resolve_link(e.a, e.b);
    if ((e.kind == FaultKind::kControllerDown || e.kind == FaultKind::kControllerUp) &&
        !hooks_.set_controller_enabled) {
      throw std::invalid_argument(
          "FaultPlan: controller fault scheduled but no controller hook installed");
    }
  }
}

FaultInjector::ResolvedLinks FaultInjector::resolve_link(const std::string& a,
                                                         const std::string& b) const {
  const net::NodeId na = network_.find_node(a);
  const net::NodeId nb = network_.find_node(b);
  if (na == net::kInvalidNode) throw std::invalid_argument("FaultPlan: unknown node '" + a + "'");
  if (nb == net::kInvalidNode) throw std::invalid_argument("FaultPlan: unknown node '" + b + "'");
  ResolvedLinks resolved;
  resolved.links = network_.links_between(na, nb);
  if (resolved.links.empty()) {
    throw std::invalid_argument("FaultPlan: no link between '" + a + "' and '" + b + "'");
  }
  return resolved;
}

void FaultInjector::set_links_up(const ResolvedLinks& links, bool up) {
  bool changed = false;
  for (const net::LinkId id : links.links) {
    net::Link& link = network_.link(id);
    if (link.is_up() != up) {
      link.set_up(up);
      changed = true;
    }
  }
  if (!changed) return;
  network_.on_topology_changed();
  if (up) {
    ++stats_.link_up_transitions;
  } else {
    ++stats_.link_down_transitions;
  }
  sim::Logger::log(sim::LogLevel::kInfo, simulation_.now(), "fault",
                   up ? "link repaired, routes recomputed" : "link failed, routes recomputed");
}

void FaultInjector::install_suggestion_filter() {
  if (filter_installed_) return;
  filter_installed_ = true;
  network_.set_unicast_filter([this](const net::Packet& packet) {
    if (packet.kind != net::PacketKind::kSuggestion) return true;
    if (suggestion_drop_p_ <= 0.0) return true;
    if (!suggestion_rng_.bernoulli(suggestion_drop_p_)) return true;
    ++stats_.suggestions_dropped;
    return false;
  });
}

void FaultInjector::schedule_event(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kLinkDown: {
      const ResolvedLinks links = resolve_link(event.a, event.b);
      simulation_.at(event.at, [this, links]() { set_links_up(links, false); });
      break;
    }
    case FaultKind::kLinkUp: {
      const ResolvedLinks links = resolve_link(event.a, event.b);
      simulation_.at(event.at, [this, links]() { set_links_up(links, true); });
      break;
    }
    case FaultKind::kLinkFlap: {
      // Precompute the whole transition timetable: each cycle is
      // (1-duty)*period down, then duty*period up; the link is left UP at
      // the window end regardless of where the last cycle was cut off.
      const ResolvedLinks links = resolve_link(event.a, event.b);
      const sim::Time down_span =
          sim::Time::seconds(event.period.as_seconds() * (1.0 - event.duty));
      for (sim::Time cycle = event.at; cycle < event.until; cycle = cycle + event.period) {
        simulation_.at(cycle, [this, links]() { set_links_up(links, false); });
        const sim::Time up_at = cycle + down_span;
        if (up_at < event.until) {
          simulation_.at(up_at, [this, links]() { set_links_up(links, true); });
        }
      }
      simulation_.at(event.until, [this, links]() { set_links_up(links, true); });
      break;
    }
    case FaultKind::kLinkLossy: {
      const ResolvedLinks links = resolve_link(event.a, event.b);
      const double p = event.probability;
      simulation_.at(event.at, [this, links, p]() {
        for (const net::LinkId id : links.links) network_.link(id).set_fault_loss(p);
      });
      simulation_.at(event.until, [this, links]() {
        for (const net::LinkId id : links.links) network_.link(id).set_fault_loss(0.0);
      });
      break;
    }
    case FaultKind::kControllerDown:
      simulation_.at(event.at, [this]() {
        ++stats_.controller_outages;
        hooks_.set_controller_enabled(false);
        sim::Logger::log(sim::LogLevel::kInfo, simulation_.now(), "fault", "controller down");
      });
      break;
    case FaultKind::kControllerUp:
      simulation_.at(event.at, [this]() {
        hooks_.set_controller_enabled(true);
        sim::Logger::log(sim::LogLevel::kInfo, simulation_.now(), "fault", "controller up");
      });
      break;
    case FaultKind::kSuggestionDrop: {
      install_suggestion_filter();
      const double p = event.probability;
      simulation_.at(event.at, [this, p]() { suggestion_drop_p_ = p; });
      simulation_.at(event.until, [this]() { suggestion_drop_p_ = 0.0; });
      break;
    }
  }
}

void FaultInjector::start() {
  if (started_) return;
  started_ = true;
  for (const FaultEvent& event : plan_.sorted_events()) schedule_event(event);
}

}  // namespace tsim::fault
