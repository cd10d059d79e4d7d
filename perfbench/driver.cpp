// Benchmark driver: builds one named workload from a seed, runs it, and
// prints one JSON object on stdout. `run.py` starts it once per repetition and
// turns the raw numbers into the benchmark's metrics (see README.md).
//
// Usage: perfbench_driver --workload NAME --seed N --mode MODE [--spans FILE]
//   --mode run    build the scenario, time repeated rebuilds, and run the last
//                 one with no instrumentation
//   --mode trace  build and run one event at a time, attributing each event
//                 to a layer by the public counter it moved, and write the
//                 layer spans to FILE
//   --mode shard  run the 10k-receiver star fan-out split in 2 shards at 1
//                 and at 2 threads (the sim::ShardExecutor probe)
//
// Everything here calls the library's public API only; no file under src/ is
// instrumented.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/domain_manager.hpp"
#include "core/toposense.hpp"
#include "metrics/fairness.hpp"
#include "net/shard_link.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"
#include "sim/random.hpp"
#include "sim/shard_executor.hpp"
#include "sim/simulation.hpp"
#include "topo/discovery.hpp"
#include "traffic/layered_source.hpp"

namespace {

using namespace tsim;
using sim::Time;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// A "Vm...:  <n> kB" field of /proc/self/status, in MB; 0 when unreadable.
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Resident memory now, and the peak since the process started. Growth is
/// measured peak-minus-start: the resident size after the run depends on
/// whether the allocator handed freed buffers back to the kernel, which flips
/// between runs that allocate almost the same.
double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

/// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  Time duration;  ///< simulated time of one repetition
  Time warmup;    ///< protocol metrics cover [warmup, duration]
};

const Workload kWorkloads[] = {
    {"star_fluid_30k", Time::seconds(std::int64_t{8}), Time::seconds(std::int64_t{4})},
    {"tiered_domains_1k", Time::seconds(std::int64_t{30}), Time::seconds(std::int64_t{10})},
    {"topo_b_16", Time::seconds(std::int64_t{600}), Time::seconds(std::int64_t{60})},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The paper's tiered Internet (8 regionals x 5 locals x 25 receivers) with
/// the capacity ranges of scenarios::TieredOptions and one routing domain per
/// regional ISP below the controller's root domain. The capacities are one
/// fixed draw, so that the protocol metrics compare runs against the same
/// optima (drawn per seed, their spread across seeds was six times larger);
/// the seed drives every random stream of the run.
scenarios::TopologyDescription tiered_domains() {
  const scenarios::TieredOptions ranges;
  sim::Rng rng = sim::Rng{1}.fork("perfbench-tiered");
  scenarios::TopologyDescription d;
  const auto link = [&d](const std::string& a, const std::string& b, double bps) {
    scenarios::TopologyDescription::LinkSpec spec;
    spec.a = a;
    spec.b = b;
    spec.bandwidth = units::BitsPerSec{bps};
    spec.latency = Time::milliseconds(200);
    d.links.push_back(spec);
  };
  d.nodes = {"source", "national"};
  link("source", "national", ranges.backbone_bps);
  for (int r = 0; r < 8; ++r) {
    const std::string regional = "regional" + std::to_string(r);
    scenarios::TopologyDescription::DomainSpec domain;
    domain.name = "region" + std::to_string(r);
    domain.nodes.push_back(regional);
    d.nodes.push_back(regional);
    link("national", regional, rng.uniform(ranges.regional_min_bps, ranges.regional_max_bps));
    for (int l = 0; l < 5; ++l) {
      const std::string local = "local" + std::to_string(r) + "_" + std::to_string(l);
      d.nodes.push_back(local);
      domain.nodes.push_back(local);
      link(regional, local, rng.uniform(ranges.local_min_bps, ranges.local_max_bps));
      for (int i = 0; i < 25; ++i) {
        const std::string rcv =
            "recv" + std::to_string(r) + "_" + std::to_string(l) + "_" + std::to_string(i);
        d.nodes.push_back(rcv);
        domain.nodes.push_back(rcv);
        link(local, rcv, rng.uniform(ranges.access_min_bps, ranges.access_max_bps));
        scenarios::TopologyDescription::ReceiverSpec receiver;
        receiver.node = rcv;
        d.receivers.push_back(receiver);
      }
    }
    d.domains.push_back(std::move(domain));
  }
  scenarios::TopologyDescription::SourceSpec source;
  source.node = "source";
  d.sources.push_back(source);
  d.controller_node = "source";
  d.engine = scenarios::TrafficEngineSpec::kPacket;
  return d;
}

/// The inputs of one workload, generated from `seed`; build() is the only
/// part the benchmark times as set-up.
scenarios::ScenarioBuilder builder_for(const Workload& w, std::uint64_t seed) {
  scenarios::ScenarioConfig config;
  config.seed = seed;
  config.duration = w.duration;
  const std::string name = w.name;
  if (name == "star_fluid_30k") {
    config.traffic.engine = scenarios::TrafficEngine::kFluid;
    config.control.initial_subscription = 5;
    scenarios::StarOptions star;
    star.receivers = 30000;
    scenarios::ScenarioBuilder builder{config};
    builder.star(star);
    return builder;
  }
  if (name == "tiered_domains_1k") {
    scenarios::ScenarioBuilder builder{config};
    builder.topology(tiered_domains());
    return builder;
  }
  scenarios::TopologyBOptions topology;
  topology.sessions = 16;
  scenarios::ScenarioBuilder builder{config};
  builder.topology_b(topology);
  return builder;
}

/// --- JSON output -------------------------------------------------------------

class Json {
 public:
  void key(const char* k) {
    sep();
    std::printf("\"%s\": ", k);
  }
  void num(const char* k, double v) {
    key(k);
    std::printf("%.17g", v);
  }
  void integer(const char* k, std::uint64_t v) {
    key(k);
    std::printf("%llu", static_cast<unsigned long long>(v));
  }
  void str(const char* k, const std::string& v) {
    key(k);
    std::printf("\"%s\"", v.c_str());
  }
  void boolean(const char* k, bool v) {
    key(k);
    std::printf("%s", v ? "true" : "false");
  }
  template <typename T>
  void array(const char* k, const std::vector<T>& values) {
    key(k);
    std::printf("[");
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::printf(i == 0 ? "%.10g" : ",%.10g", static_cast<double>(values[i]));
    }
    std::printf("]");
  }
  void open() { std::printf("{"); }
  void close() { std::printf("}\n"); }

 private:
  void sep() {
    if (!first_) std::printf(", ");
    first_ = false;
  }
  bool first_{true};
};

/// --- observables shared by every mode ----------------------------------------

/// FNV-1a over every receiver's subscription timeline and delivery totals:
/// the observable behaviour of a run. Equal code and seed must give equal
/// fingerprints, traced or not.
std::uint64_t fingerprint(scenarios::Scenario& s) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& r : s.results()) {
    mix(r.node);
    mix(static_cast<std::uint64_t>(r.final_subscription));
    for (const auto& [t, level] : r.timeline.points()) {
      mix(static_cast<std::uint64_t>(t.as_nanoseconds()));
      mix(static_cast<std::uint64_t>(level));
    }
  }
  for (const auto& endpoint : s.endpoints()) {
    mix(endpoint->total_packets().count());
    mix(endpoint->total_lost_packets().count());
    mix(endpoint->total_bytes().count());
  }
  return h;
}

/// Time-mean subscription level over [from, to].
double mean_level(const metrics::SubscriptionTimeline& timeline, Time from, Time to) {
  const auto& points = timeline.points();
  double weighted = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Time seg_start = std::max(points[i].first, from);
    const Time seg_end = std::min(i + 1 < points.size() ? points[i + 1].first : to, to);
    if (seg_end <= seg_start) continue;
    weighted += points[i].second * (seg_end - seg_start).as_seconds();
  }
  return weighted / (to - from).as_seconds();
}

/// Per-receiver protocol observables after warm-up: the paper's relative
/// deviation from the optimum and the time-mean subscription / optimum.
void write_protocol(Json& json, scenarios::Scenario& s, const Workload& w) {
  std::vector<double> deviation;
  std::vector<double> ratio;
  std::uint64_t changes = 0;
  std::uint64_t no_optimum = 0;
  for (const auto& r : s.results()) {
    if (r.optimal <= 0) {
      ++no_optimum;
      continue;
    }
    deviation.push_back(r.timeline.relative_deviation(r.optimal, w.warmup, w.duration));
    ratio.push_back(mean_level(r.timeline, w.warmup, w.duration) / r.optimal);
    changes += static_cast<std::uint64_t>(r.timeline.change_count(w.warmup, w.duration));
  }
  json.integer("receivers", s.results().size());
  json.integer("receivers_without_optimum", no_optimum);
  json.num("window_s", (w.duration - w.warmup).as_seconds());
  json.integer("sub_changes_after_warmup", changes);
  json.num("jain_library", metrics::jain_index(ratio));
  json.array("rel_deviation", deviation);
  json.array("sub_ratio", ratio);
}

void write_common(Json& json, scenarios::Scenario& s, const Workload& w, std::uint64_t seed,
                  const char* mode) {
  json.str("workload", w.name);
  json.integer("seed", seed);
  json.str("mode", mode);
  json.num("sim_s", w.duration.as_seconds());
  json.integer("events", s.simulation().scheduler().executed_events());
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx", static_cast<unsigned long long>(fingerprint(s)));
  json.str("fingerprint", fp);
  json.integer("routing_rows", s.network().routes().computed_rows());
}

/// --- mode: run -----------------------------------------------------------------

/// Set-up is timed on rebuilds only. A process's first build also pays for
/// faulting in its heap, which moves with the machine more than with the code
/// (0.33-0.43 s on the star, whose rebuilds take 0.26-0.30 s), so it is not
/// timed. The scenario that runs is the last rebuild.
constexpr std::size_t kMinRebuilds = 3;
constexpr std::size_t kMaxRebuilds = 5000;
constexpr double kRebuildBudgetS = 0.3;

int run_plain(const Workload& w, std::uint64_t seed) {
  const double rss_start = rss_mb();
  std::unique_ptr<scenarios::Scenario> s = builder_for(w, seed).build();
  std::vector<double> setup_s;
  const std::int64_t rebuilds_start = now_ns();
  while (setup_s.size() < kMinRebuilds ||
         (static_cast<double>(now_ns() - rebuilds_start) * 1e-9 < kRebuildBudgetS &&
          setup_s.size() < kMaxRebuilds)) {
    scenarios::ScenarioBuilder builder = builder_for(w, seed);
    s.reset();
    const std::int64_t t0 = now_ns();
    s = builder.build();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const std::int64_t t1 = now_ns();
  s->run_until(w.duration);
  const std::int64_t t2 = now_ns();
  const double rss_end = peak_rss_mb();

  Json json;
  json.open();
  write_common(json, *s, w, seed, "run");
  json.array("setup_s", setup_s);
  json.num("run_wall_s", static_cast<double>(t2 - t1) * 1e-9);
  json.num("rss_mb", rss_end - rss_start);
  write_protocol(json, *s, w);
  json.close();
  return 0;
}

/// --- mode: trace ---------------------------------------------------------------

/// Spans kept in memory and written out when the run ends. Parent -1 marks
/// the root.
struct Span {
  const char* name;
  std::int64_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanLog {
 public:
  std::int64_t open(const char* name, std::int64_t parent, std::int64_t start) {
    spans_.push_back(Span{name, parent, start, start});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id, std::int64_t end) { spans_[static_cast<std::size_t>(id)].end_ns = end; }
  std::int64_t add(const char* name, std::int64_t parent, std::int64_t start, std::int64_t end) {
    spans_.push_back(Span{name, parent, start, end});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%s\t%lld\t%lld\n", i, static_cast<long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// Durations of a stream too long to keep whole: every `stride`-th value,
/// halving the kept set (and doubling the stride) when it fills. Deterministic
/// in the order of the stream, bounded in memory.
class Decimator {
 public:
  void add(std::uint32_t v) {
    if (count_++ % stride_ != 0) return;
    kept_.push_back(v);
    if (kept_.size() < kCap) return;
    std::size_t out = 0;
    for (std::size_t i = 0; i < kept_.size(); i += 2) kept_[out++] = kept_[i];
    kept_.resize(out);
    stride_ *= 2;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& kept() const { return kept_; }

 private:
  static constexpr std::size_t kCap = 50000;
  std::vector<std::uint32_t> kept_;
  std::uint64_t count_{0};
  std::uint64_t stride_{1};
};

/// One controller interval as the audit hook saw it.
struct Capture {
  std::size_t agent;
  core::AlgorithmInput input;
  std::vector<core::Prescription> prescriptions;
  Time sim_now;
  std::int64_t hook_ns;
  std::int64_t hook_exit_ns;
};

bool same_prescriptions(const std::vector<core::Prescription>& a,
                        const std::vector<core::Prescription>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].receiver != b[i].receiver || a[i].session != b[i].session ||
        a[i].subscription != b[i].subscription) {
      return false;
    }
  }
  return true;
}

/// Per-domain handles on the counters that attribute an event.
struct DomainProbe {
  control::ControllerAgent* agent;
  std::uint64_t intervals;
  std::uint64_t reports;
  const topo::TopologyProvider* discovery;
  net::SessionId session;
  Time captured_at;
  std::unique_ptr<core::TopoSense> replay;  ///< fresh algorithm fed the captured inputs
};

Time snapshot_time(const DomainProbe& d) {
  if (d.discovery == nullptr) return Time::zero();
  const topo::TopologySnapshot* snap = d.discovery->snapshot(d.session);
  return snap == nullptr ? Time::zero() : snap->captured_at;
}

int run_traced(const Workload& w, std::uint64_t seed, const std::string& spans_path) {
  SpanLog log;
  const double rss_start = rss_mb();
  const std::int64_t root = log.open("bench", -1, now_ns());
  scenarios::ScenarioBuilder builder = builder_for(w, seed);
  const std::int64_t build_span = log.open("scenarios.build", root, now_ns());
  std::unique_ptr<scenarios::Scenario> s = builder.build();
  log.close(build_span, now_ns());
  const double rss_built = peak_rss_mb();

  // Hooks: multicast tree rebuilds and every controller interval's input and
  // output. The hooks only copy; the algorithm is replayed between events.
  std::uint64_t tree_rebuilds = 0;
  s->multicast().set_audit_hook(
      [&tree_rebuilds](net::GroupAddr, const mcast::GroupTree&) { ++tree_rebuilds; });
  std::vector<Capture> captures;
  std::vector<DomainProbe> domains;
  control::DomainManager& manager = *s->domains();
  for (std::size_t i = 0; i < manager.domain_count(); ++i) {
    control::ControllerAgent* agent = manager.agent(i);
    if (agent == nullptr) continue;
    DomainProbe probe{agent, 0, 0, nullptr, 0, Time::zero(), nullptr};
    auto* domain = dynamic_cast<control::TopoSenseDomain*>(&manager.scheme(i));
    if (domain != nullptr && !agent->registered().empty()) {
      probe.discovery = &domain->discovery();
      probe.session = agent->registered().begin()->first;
    }
    probe.replay = std::make_unique<core::TopoSense>(agent->config().params,
                                                     s->simulation().rng_stream("controller"));
    const std::size_t index = domains.size();
    agent->set_audit_hook([&captures, &s, index](const core::AlgorithmInput& input,
                                                 const core::AlgorithmOutput& output) {
      const std::int64_t hook = now_ns();
      captures.push_back(
          Capture{index, input, output.prescriptions, s->simulation().now(), hook, 0});
      captures.back().hook_exit_ns = now_ns();
    });
    domains.push_back(std::move(probe));
  }
  for (DomainProbe& d : domains) d.captured_at = snapshot_time(d);
  Time sample_period = Time::seconds(std::int64_t{1});
  if (!domains.empty()) {
    if (const auto* oracle = dynamic_cast<const topo::DiscoveryService*>(domains[0].discovery)) {
      sample_period = oracle->config().sample_period;
    }
  }

  traffic::FluidEngine* fluid = s->fluid_engine();
  std::uint64_t fluid_steps = 0;
  sim::Scheduler& sched = s->simulation().scheduler();
  Decimator sim_event_ns;
  std::size_t pending_peak = sched.pending_events();
  std::vector<double> interval_assembly_ns;
  std::vector<double> interval_send_ns;
  std::vector<double> interval_ns;
  std::vector<double> core_ns;
  std::vector<double> core_nodes;
  bool replay_matches = true;
  std::uint64_t report_events = 0;
  std::uint64_t sample_events = 0;

  const std::int64_t run_start = now_ns();
  const std::int64_t run_span = log.open("sim.run", root, run_start);
  std::int64_t t_prev = run_start;
  while (sched.next_event_time() <= w.duration) {
    // step() skips cancelled entries and could run a live event past the end;
    // with cancellations pending, run the head timestamp as one unit instead.
    if (sched.cancelled_pending() == 0) {
      sched.step();
    } else {
      sched.run_until(sched.next_event_time());
    }
    const std::int64_t t = now_ns();
    pending_peak = std::max(pending_peak, sched.pending_events());

    bool interval = false;
    bool reported = false;
    for (DomainProbe& d : domains) {
      const std::uint64_t iv = d.agent->intervals_run();
      const std::uint64_t rr = d.agent->reports_received();
      interval = interval || iv != d.intervals;
      reported = reported || rr != d.reports;
      d.intervals = iv;
      d.reports = rr;
    }
    const std::uint64_t steps = fluid != nullptr ? fluid->steps_executed() : 0;
    const bool stepped = steps != fluid_steps;
    fluid_steps = steps;
    bool sampled = false;
    if (!interval && !stepped && !reported &&
        sched.now().as_nanoseconds() % sample_period.as_nanoseconds() == 0) {
      for (DomainProbe& d : domains) {
        const Time at = snapshot_time(d);
        sampled = sampled || at != d.captured_at;
        d.captured_at = at;
      }
    }

    if (interval) {
      const std::int64_t span = log.add("control.interval", run_span, t_prev, t);
      for (const Capture& c : captures) log.add("trace.hook", span, c.hook_ns, c.hook_exit_ns);
      // Replay each captured input through the domain's fresh algorithm: its
      // wall time is the core layer's cost, placed just before the hook
      // (where the live pass ran), and its output must equal the live one.
      const std::int64_t replay_start = now_ns();
      std::int64_t core_total = 0;
      for (const Capture& c : captures) {
        DomainProbe& d = domains[c.agent];
        const std::int64_t r0 = now_ns();
        const core::AlgorithmOutput out = d.replay->run_interval(c.input, c.sim_now);
        const std::int64_t r1 = now_ns();
        replay_matches = replay_matches && same_prescriptions(out.prescriptions, c.prescriptions);
        const std::int64_t core = r1 - r0;
        core_total += core;
        log.add("core.run_interval", span, std::max(t_prev, c.hook_ns - core), c.hook_ns);
        std::size_t nodes = 0;
        for (const core::SessionInput& session : c.input.sessions) nodes += session.nodes.size();
        core_ns.push_back(static_cast<double>(core));
        core_nodes.push_back(static_cast<double>(nodes));
      }
      if (!captures.empty()) {
        interval_assembly_ns.push_back(
            static_cast<double>(captures.front().hook_ns - t_prev - core_total));
        interval_send_ns.push_back(static_cast<double>(t - captures.back().hook_exit_ns));
      }
      interval_ns.push_back(static_cast<double>(t - t_prev));
      captures.clear();
      log.add("trace.replay", run_span, replay_start, now_ns());
      t_prev = now_ns();
      continue;
    }
    if (stepped) {
      log.add("traffic.fluid_step", run_span, t_prev, t);
    } else if (reported) {
      log.add("control.report", run_span, t_prev, t);
      ++report_events;
    } else if (sampled) {
      log.add("topo.sample", run_span, t_prev, t);
      ++sample_events;
    } else {
      sim_event_ns.add(static_cast<std::uint32_t>(std::min<std::int64_t>(t - t_prev, UINT32_MAX)));
    }
    t_prev = t;
  }
  const std::int64_t run_end = now_ns();
  log.close(run_span, run_end);
  s->run_until(w.duration);  // no events left in range: refreshes the results
  const double rss_end = peak_rss_mb();
  log.close(root, now_ns());

  // Layer counters read through the public API after the run.
  net::Network& net = s->network();
  std::uint64_t link_enqueued = 0;
  std::uint64_t link_dropped = 0;
  for (net::LinkId id = 0; id < net.link_count(); ++id) {
    link_enqueued += net.link_hot(id).enqueued_packets;
    link_dropped += net.link_hot(id).dropped_packets;
  }
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t reports_due = 0;
  const Time grace = Time::seconds(std::int64_t{1});
  for (const auto& endpoint : s->endpoints()) {
    delivered += endpoint->total_packets().count();
    lost += endpoint->total_lost_packets().count();
    const auto& cfg = endpoint->config();
    if (cfg.controller == net::kInvalidNode) continue;
    const Time last = std::min(cfg.stop, w.duration - grace);
    if (last > cfg.start) {
      reports_due += static_cast<std::uint64_t>((last - cfg.start).as_nanoseconds() /
                                                cfg.report_period.as_nanoseconds());
    }
  }
  std::uint64_t intervals = 0;
  std::uint64_t reports = 0;
  std::uint64_t suggestions = 0;
  for (const DomainProbe& d : domains) {
    intervals += d.agent->intervals_run();
    reports += d.agent->reports_received();
    suggestions += d.agent->suggestions_sent();
  }
  std::uint64_t changes = 0;
  for (const auto& r : s->results()) {
    changes += static_cast<std::uint64_t>(r.timeline.change_count(Time::nanoseconds(1), w.duration));
  }

  const bool spans_ok = log.write(spans_path);
  Json json;
  json.open();
  write_common(json, *s, w, seed, "trace");
  json.num("run_wall_s", static_cast<double>(run_end - run_start) * 1e-9);
  json.num("rss_mb", rss_end - rss_start);
  json.num("build_rss_mb", rss_built - rss_start);
  json.boolean("spans_written", spans_ok);
  json.boolean("replay_matches", replay_matches);
  json.integer("pending_peak", pending_peak);
  json.array("sim_event_ns_sample", sim_event_ns.kept());
  json.integer("link_pkts", link_enqueued);
  json.integer("link_drops", link_dropped);
  json.integer("tree_rebuilds", tree_rebuilds);
  json.integer("groups", s->multicast().active_groups().size());
  json.integer("fluid_steps", fluid_steps);
  json.integer("delivered_pkts", delivered);
  json.integer("lost_pkts", lost);
  json.integer("reports_due", reports_due);
  json.integer("reports", reports);
  json.integer("report_events", report_events);
  json.integer("sample_events", sample_events);
  json.integer("intervals", intervals);
  json.integer("suggestions", suggestions);
  json.integer("sub_changes", changes);
  json.integer("summaries", manager.summaries_received());
  json.integer("caps", manager.caps_received());
  json.array("interval_ns", interval_ns);
  json.array("interval_assembly_ns", interval_assembly_ns);
  json.array("interval_send_ns", interval_send_ns);
  json.array("core_ns", core_ns);
  json.array("core_nodes", core_nodes);
  write_protocol(json, *s, w);
  json.close();
  return spans_ok ? 0 : 1;
}

/// --- mode: shard ---------------------------------------------------------------

struct ShardRun {
  std::uint64_t fingerprint;
  std::uint64_t events;
  std::uint64_t windows;
  std::uint64_t messages;
  double wall_s;
};

/// One source VBR-multicasting to `receivers` access links, block-split over
/// `shards` Simulations under a ShardExecutor; remote shards are fed through
/// net::ShardLink with a 5 ms channel latency, which is also the lookahead.
ShardRun run_star_sharded(int receivers, Time duration, std::uint64_t seed, std::size_t shards,
                          std::size_t threads) {
  struct Star final : net::MulticastForwarder {
    net::NodeId origin{net::kInvalidNode};
    const std::vector<net::LinkId>* links{nullptr};
    sim::Simulation* sim{nullptr};
    const std::vector<std::unique_ptr<net::ShardLink>>* handoffs{nullptr};  ///< shard 0 only
    void route(net::NodeId node, const net::Packet& packet, std::vector<net::LinkId>& out,
               bool& local) override {
      if (node != origin) {
        local = true;
        return;
      }
      out.insert(out.end(), links->begin(), links->end());
      if (handoffs != nullptr) {
        for (const auto& link : *handoffs) link->send(packet, sim->now());
      }
    }
  };
  struct Shard {
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<net::Network> net;
    std::vector<net::LinkId> links;
    net::NodeId hub{net::kInvalidNode};
    Star forwarder;
  };

  std::vector<std::uint64_t> packets(static_cast<std::size_t>(receivers), 0);
  std::vector<std::unique_ptr<Shard>> nets;
  std::size_t offset = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    const std::size_t count = static_cast<std::size_t>(receivers) / shards +
                              (k < static_cast<std::size_t>(receivers) % shards ? 1 : 0);
    auto shard = std::make_unique<Shard>();
    shard->sim = std::make_unique<sim::Simulation>(seed + 1000 * k);
    shard->net = std::make_unique<net::Network>(*shard->sim);
    shard->hub = shard->net->add_node(k == 0 ? "src" : "entry");
    for (std::size_t i = 0; i < count; ++i) {
      const net::NodeId rcv = shard->net->add_node();
      shard->links.push_back(shard->net->add_link(shard->hub, rcv, units::BitsPerSec{10e6},
                                                  Time::milliseconds(5), 64));
    }
    shard->net->compute_routes();
    shard->forwarder.origin = shard->hub;
    shard->forwarder.links = &shard->links;
    shard->forwarder.sim = shard->sim.get();
    shard->net->set_multicast_forwarder(&shard->forwarder);
    // Each shard's sinks write only their own slice of `packets`.
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t idx = offset + i;
      shard->net->set_local_sink(static_cast<net::NodeId>(shard->hub + 1 + i),
                                 [&packets, idx](const net::PacketRef&) { ++packets[idx]; });
    }
    offset += count;
    nets.push_back(std::move(shard));
  }

  sim::ShardExecutor executor{sim::ShardExecutor::Config{threads}};
  for (const auto& shard : nets) executor.add_shard(*shard->sim);
  std::vector<std::unique_ptr<net::ShardLink>> handoffs;
  for (std::size_t k = 1; k < shards; ++k) {
    handoffs.push_back(std::make_unique<net::ShardLink>(
        executor.connect(0, k, Time::milliseconds(5)), *nets[k]->net, nets[k]->hub));
  }
  nets[0]->forwarder.handoffs = &handoffs;

  traffic::LayeredSource::Config cfg;
  cfg.session = 0;
  cfg.node = nets[0]->hub;
  cfg.model = traffic::TrafficModel::kVbr;
  traffic::LayeredSource source{*nets[0]->sim, *nets[0]->net, cfg};
  source.start();

  const std::int64_t t0 = now_ns();
  executor.run_until(duration);
  const std::int64_t t1 = now_ns();

  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    h ^= packets[i] + i;
    h *= 1099511628211ull;
  }
  return ShardRun{h, executor.executed_events(), executor.windows_run(),
                  executor.messages_delivered(), static_cast<double>(t1 - t0) * 1e-9};
}

int run_shard(std::uint64_t seed) {
  const Time duration = Time::seconds(std::int64_t{1});
  std::vector<double> wall_1;
  std::vector<double> wall_2;
  ShardRun serial{};
  ShardRun parallel{};
  bool identical = true;
  for (int rep = 0; rep < 3; ++rep) {
    serial = run_star_sharded(10000, duration, seed, 2, 1);
    parallel = run_star_sharded(10000, duration, seed, 2, 2);
    identical = identical && serial.fingerprint == parallel.fingerprint &&
                serial.events == parallel.events;
    wall_1.push_back(serial.wall_s);
    wall_2.push_back(parallel.wall_s);
  }
  Json json;
  json.open();
  json.str("mode", "shard");
  json.integer("seed", seed);
  json.boolean("identical", identical);
  json.integer("events", parallel.events);
  json.integer("windows", parallel.windows);
  json.integer("messages", parallel.messages);
  json.array("wall_1_thread_s", wall_1);
  json.array("wall_2_threads_s", wall_2);
  json.close();
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode;
  std::string spans;
  std::uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--spans") {
      spans = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (mode == "shard") return run_shard(seed);
  const Workload* w = find_workload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  try {
    if (mode == "run") return run_plain(*w, seed);
    if (mode == "trace" && !spans.empty()) return run_traced(*w, seed, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", w->name, e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: %s --workload NAME --seed N --mode run|trace|shard\n",
               argv[0]);
  return 2;
}
