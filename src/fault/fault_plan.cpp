#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace tsim::fault {

FaultPlan& FaultPlan::link_down(std::string a, std::string b, sim::Time at) {
  FaultEvent e;
  e.kind = FaultKind::kLinkDown;
  e.a = std::move(a);
  e.b = std::move(b);
  e.at = at;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::link_up(std::string a, std::string b, sim::Time at) {
  FaultEvent e;
  e.kind = FaultKind::kLinkUp;
  e.a = std::move(a);
  e.b = std::move(b);
  e.at = at;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::link_outage(std::string a, std::string b, sim::Time down_at,
                                  sim::Time up_at) {
  link_down(a, b, down_at);
  return link_up(std::move(a), std::move(b), up_at);
}

FaultPlan& FaultPlan::link_flap(std::string a, std::string b, sim::Time from, sim::Time to,
                                sim::Time period, double duty) {
  FaultEvent e;
  e.kind = FaultKind::kLinkFlap;
  e.a = std::move(a);
  e.b = std::move(b);
  e.at = from;
  e.until = to;
  e.period = period;
  e.duty = duty;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::link_lossy(std::string a, std::string b, double p, sim::Time from,
                                 sim::Time to) {
  FaultEvent e;
  e.kind = FaultKind::kLinkLossy;
  e.a = std::move(a);
  e.b = std::move(b);
  e.at = from;
  e.until = to;
  e.probability = p;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::controller_outage(sim::Time from, sim::Time to) {
  FaultEvent down;
  down.kind = FaultKind::kControllerDown;
  down.at = from;
  events_.push_back(std::move(down));
  FaultEvent up;
  up.kind = FaultKind::kControllerUp;
  up.at = to;
  events_.push_back(std::move(up));
  return *this;
}

FaultPlan& FaultPlan::drop_suggestions(double p, sim::Time from, sim::Time to) {
  FaultEvent e;
  e.kind = FaultKind::kSuggestionDrop;
  e.at = from;
  e.until = to;
  e.probability = p;
  events_.push_back(std::move(e));
  return *this;
}

std::vector<FaultEvent> FaultPlan::sorted_events() const {
  std::vector<FaultEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
  return sorted;
}

std::optional<FaultPlan::Problem> FaultPlan::validate() const {
  const auto is_link_fault = [](FaultKind k) {
    return k == FaultKind::kLinkDown || k == FaultKind::kLinkUp ||
           k == FaultKind::kLinkFlap || k == FaultKind::kLinkLossy;
  };
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (e.at < sim::Time::zero()) return Problem{i, "negative time"};
    if (is_link_fault(e.kind) && (e.a.empty() || e.b.empty())) {
      return Problem{i, "link fault needs two endpoint names"};
    }
    switch (e.kind) {
      case FaultKind::kLinkFlap:
        if (e.period <= sim::Time::zero()) return Problem{i, "flap period must be positive"};
        if (e.duty < 0.0 || e.duty > 1.0) return Problem{i, "flap duty must be in [0, 1]"};
        if (e.until <= e.at) return Problem{i, "flap window must end after it starts"};
        break;
      case FaultKind::kLinkLossy:
      case FaultKind::kSuggestionDrop:
        if (e.probability < 0.0 || e.probability > 1.0) {
          return Problem{i, "probability must be in [0, 1]"};
        }
        if (e.until <= e.at) return Problem{i, "loss window must end after it starts"};
        break;
      default:
        break;
    }
  }

  // Down/up pairing per link (both directions share one physical link): a
  // second down while already down means two outage schedules overlap, and an
  // up with no preceding down repairs nothing — both are authoring mistakes.
  // Each link's schedule holds the indices of its down and up events.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>> updown;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (e.kind != FaultKind::kLinkDown && e.kind != FaultKind::kLinkUp) continue;
    auto key = e.a < e.b ? std::make_pair(e.a, e.b) : std::make_pair(e.b, e.a);
    updown[std::move(key)].push_back(i);
  }
  for (auto& [link, schedule] : updown) {
    std::stable_sort(schedule.begin(), schedule.end(), [this](std::size_t x, std::size_t y) {
      return events_[x].at < events_[y].at;
    });
    bool down = false;
    for (const std::size_t i : schedule) {
      const bool is_down = events_[i].kind == FaultKind::kLinkDown;
      char when[32];
      std::snprintf(when, sizeof when, "%.1f", events_[i].at.as_seconds());
      if (is_down && down) {
        return Problem{i, "link " + link.first + "-" + link.second + ": down at t=" + when +
                              "s while already down (overlapping down/up schedules)"};
      }
      if (!is_down && !down) {
        return Problem{i, "link " + link.first + "-" + link.second + ": up at t=" + when +
                              "s without a preceding down"};
      }
      down = is_down;
    }
  }
  return std::nullopt;
}

std::string FaultPlan::summary() const {
  std::string out;
  char buf[160];
  for (const FaultEvent& e : sorted_events()) {
    switch (e.kind) {
      case FaultKind::kLinkDown:
        std::snprintf(buf, sizeof(buf), "t=%.1fs link %s-%s down", e.at.as_seconds(),
                      e.a.c_str(), e.b.c_str());
        break;
      case FaultKind::kLinkUp:
        std::snprintf(buf, sizeof(buf), "t=%.1fs link %s-%s up", e.at.as_seconds(),
                      e.a.c_str(), e.b.c_str());
        break;
      case FaultKind::kLinkFlap:
        std::snprintf(buf, sizeof(buf), "t=[%.1fs,%.1fs) link %s-%s flap period=%.1fs duty=%.2f",
                      e.at.as_seconds(), e.until.as_seconds(), e.a.c_str(), e.b.c_str(),
                      e.period.as_seconds(), e.duty);
        break;
      case FaultKind::kLinkLossy:
        std::snprintf(buf, sizeof(buf), "t=[%.1fs,%.1fs) link %s-%s lossy p=%.3f",
                      e.at.as_seconds(), e.until.as_seconds(), e.a.c_str(), e.b.c_str(),
                      e.probability);
        break;
      case FaultKind::kControllerDown:
        std::snprintf(buf, sizeof(buf), "t=%.1fs controller down", e.at.as_seconds());
        break;
      case FaultKind::kControllerUp:
        std::snprintf(buf, sizeof(buf), "t=%.1fs controller up", e.at.as_seconds());
        break;
      case FaultKind::kSuggestionDrop:
        std::snprintf(buf, sizeof(buf), "t=[%.1fs,%.1fs) drop suggestions p=%.3f",
                      e.at.as_seconds(), e.until.as_seconds(), e.probability);
        break;
    }
    out += buf;
    out += '\n';
  }
  return out;
}

}  // namespace tsim::fault
