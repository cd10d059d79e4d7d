// toposense_sim — command-line simulator driver: run TopoSense over any
// topology described in the line-based topology language (see
// src/scenarios/topology_file.hpp for the grammar).
//
// Usage:
//   toposense_sim                     # runs a built-in sample topology
//   toposense_sim my_topology.txt    # runs a topology file (examples/*.topo)
//   toposense_sim file.txt 600 vbr3  # duration [s] and traffic model
//                                      (cbr | vbr3 | vbr6)
//   toposense_sim --audit[=MODE] ... # invariant auditing: off | log | assert
//                                      (bare --audit means log). Violations
//                                      are printed as a JSON report and make
//                                      the exit code non-zero.
//
// Exit: 0 ok, 1 a file it cannot read (a directory, say) or a topology that
// does not parse or build, 2 bad command line, 3 audit violations. The
// duration is seconds in (0, 9.2e9], the topology language's time limit.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/topology_file.hpp"

namespace {

constexpr const char* kSampleTopology = R"(# Built-in sample: one session, two domains with different bottlenecks,
# and a second session competing on the tighter branch.
node src0
node src1
node core
node west
node east
node w0
node w1
node e0

link src0 core 45Mbps 50ms
link src1 core 45Mbps 50ms
link core west 640kbps 100ms
link core east 2Mbps 100ms
link west w0 10Mbps 20ms
link west w1 10Mbps 20ms
link east e0 10Mbps 20ms

source 0 src0
source 1 src1

receiver w0 0
receiver w1 1 start 60
receiver e0 0

controller src0
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace tsim;
  using sim::Time;

  check::AuditConfig audit;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--audit") {
      audit.mode = check::AuditMode::kLog;
    } else if (arg.rfind("--audit=", 0) == 0) {
      const std::string value{arg.substr(std::strlen("--audit="))};
      const auto mode = check::parse_audit_mode(value);
      if (!mode) {
        std::fprintf(stderr, "error: bad --audit mode '%s' (off | log | assert)\n",
                     value.c_str());
        return 2;
      }
      audit.mode = *mode;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }

  if (positional.size() > 3) {
    std::fprintf(stderr,
                 "error: too many arguments (usage: toposense_sim [--audit[=MODE]] "
                 "[topology-file [seconds [cbr|vbr3|vbr6]]])\n");
    return 2;
  }

  scenarios::ScenarioConfig config;
  config.seed = 1;
  config.audit = audit;
  config.duration = Time::seconds(300);
  if (positional.size() > 1) {
    char* end = nullptr;
    const double seconds = std::strtod(positional[1], &end);
    if (end == positional[1] || *end != '\0' || !std::isfinite(seconds) || seconds <= 0.0 ||
        seconds > scenarios::kMaxSeconds) {
      std::fprintf(stderr, "error: bad duration '%s' (seconds in (0, 9.2e9])\n", positional[1]);
      return 2;
    }
    config.duration = Time::seconds(seconds);
  }
  if (positional.size() > 2) {
    const std::string_view model{positional[2]};
    if (model == "vbr3" || model == "vbr6") {
      config.traffic.model = traffic::TrafficModel::kVbr;
      config.traffic.peak_to_mean = model == "vbr3" ? 3.0 : 6.0;
    } else if (model != "cbr") {
      std::fprintf(stderr, "error: unknown traffic model '%s' (cbr | vbr3 | vbr6)\n",
                   positional[2]);
      return 2;
    }
  }

  std::string text = kSampleTopology;
  std::string source_name = "<built-in sample>";
  if (!positional.empty()) {
    std::ifstream file{positional[0]};
    file.peek();  // a directory opens like a file, and its first read sets badbit
    if (!file.is_open() || file.bad()) {
      std::fprintf(stderr, "error: cannot read '%s'\n", positional[0]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
    source_name = positional[0];
  }

  const auto parsed = scenarios::parse_topology(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", source_name.c_str(), parsed.error.c_str());
    return 1;
  }

  std::printf("toposense_sim: %s, %.9g s, %s\n\n", source_name.c_str(),
              config.duration.as_seconds(),
              config.traffic.model == traffic::TrafficModel::kCbr
                  ? "CBR"
                  : (config.traffic.peak_to_mean > 4 ? "VBR(P=6)" : "VBR(P=3)"));

  if (!parsed.description->faults.empty()) {
    std::printf("fault plan (%zu events):\n%s\n", parsed.description->faults.size(),
                parsed.description->faults.summary().c_str());
  }

  std::unique_ptr<scenarios::Scenario> scenario;
  try {
    scenario = scenarios::Scenario::from_description(config, *parsed.description);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", source_name.c_str(), e.what());
    return 1;
  }
  try {
    scenario->run();
  } catch (const check::AuditError& e) {
    std::fprintf(stderr, "audit failure: %s\n", e.what());
    if (scenario->auditor() != nullptr) {
      std::printf("%s\n", scenario->auditor()->report_json().c_str());
    }
    return 3;
  }

  const Time tail_from = Time::seconds(config.duration.as_seconds() / 2.0);
  std::printf("%-14s %8s %12s %10s %14s %10s\n", "receiver", "optimal", "mean level",
              "changes", "dev (tail)", "loss");
  for (const auto& r : scenario->results()) {
    double mean = 0.0;
    for (int level = 0; level <= config.params.layers.num_layers; ++level) {
      mean += level * r.timeline.time_at_level_fraction(level, tail_from, config.duration);
    }
    std::printf("%-14s %8d %12.2f %10d %14.3f %9.2f%%\n", r.name.c_str(), r.optimal, mean,
                r.timeline.change_count(sim::Time::zero(), config.duration),
                r.optimal > 0
                    ? r.timeline.relative_deviation(r.optimal, tail_from, config.duration)
                    : 0.0,
                100.0 * r.loss_overall);
  }
  control::DomainManager* domains = scenario->domains();
  if (domains != nullptr && domains->domain_count() > 1) {
    // Partitioned run: every domain has its own controller, and the
    // root typically hears summaries rather than raw receiver reports.
    for (std::size_t d = 0; d < domains->domain_count(); ++d) {
      const control::ControllerAgent* agent = domains->agent(d);
      if (agent == nullptr) continue;
      std::printf("%scontroller[%s]: %llu reports in, %llu suggestions out\n",
                  d == 0 ? "\n" : "", domains->domain(d).name.c_str(),
                  static_cast<unsigned long long>(agent->reports_received()),
                  static_cast<unsigned long long>(agent->suggestions_sent()));
    }
    std::printf("domains: %llu summaries sent, %llu received; "
                "%llu caps sent, %llu received\n",
                static_cast<unsigned long long>(domains->summaries_sent()),
                static_cast<unsigned long long>(domains->summaries_received()),
                static_cast<unsigned long long>(domains->caps_sent()),
                static_cast<unsigned long long>(domains->caps_received()));
  } else {
    std::printf("\ncontroller: %llu reports in, %llu suggestions out\n",
                static_cast<unsigned long long>(scenario->controller()->reports_received()),
                static_cast<unsigned long long>(scenario->controller()->suggestions_sent()));
  }

  if (!scenario->fault_injectors().empty()) {
    std::uint64_t downs = 0;
    std::uint64_t ups = 0;
    std::uint64_t outages = 0;
    std::uint64_t sugg_dropped = 0;
    for (const auto& injector : scenario->fault_injectors()) {
      downs += injector->stats().link_down_transitions;
      ups += injector->stats().link_up_transitions;
      outages += injector->stats().controller_outages;
      sugg_dropped += injector->stats().suggestions_dropped;
    }
    std::printf(
        "faults: %llu link-down / %llu link-up transitions, %llu controller outages, "
        "%llu suggestions dropped\n",
        static_cast<unsigned long long>(downs), static_cast<unsigned long long>(ups),
        static_cast<unsigned long long>(outages), static_cast<unsigned long long>(sugg_dropped));
    std::printf("%-14s %16s %18s %20s\n", "receiver", "unilateral", "max sugg gap[s]",
                "blind time[s]");
    const auto& agents = scenario->receiver_agents();
    for (std::size_t i = 0; i < agents.size() && i < scenario->results().size(); ++i) {
      std::printf("%-14s %10llu+%llu- %18.1f %20.1f\n", scenario->results()[i].name.c_str(),
                  static_cast<unsigned long long>(agents[i]->unilateral_adds()),
                  static_cast<unsigned long long>(agents[i]->unilateral_drops()),
                  agents[i]->max_suggestion_gap().as_seconds(),
                  agents[i]->suggestion_gap_time().as_seconds());
    }
  }

  if (const check::InvariantAuditor* auditor = scenario->auditor(); auditor != nullptr) {
    std::printf("\naudit: mode=%s, %llu checks run, %llu violation(s)\n%s\n",
                check::audit_mode_name(auditor->mode()),
                static_cast<unsigned long long>(auditor->checks_run()),
                static_cast<unsigned long long>(auditor->violation_count()),
                auditor->report_json().c_str());
    if (auditor->violation_count() > 0) return 3;
  }
  return 0;
}
