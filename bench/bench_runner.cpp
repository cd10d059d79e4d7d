// Machine-readable performance harness: runs the control-interval kernel and
// one end-to-end scenario with fixed seeds and writes BENCH_kernel.json /
// BENCH_e2e.json so successive PRs accumulate a comparable perf trajectory
// (see docs/benchmarking.md for the schema and how to compare runs).
//
// Usage: bench_runner [--out DIR] [--fault] [--audit] [--scale] [--e2e] [--quick]
//                     [--shard-smoke]
//   --out DIR   directory for the JSON files (default: current directory)
//   --fault     run the fault-injection scenarios instead and write
//               BENCH_fault.json (outage recovery + determinism check)
//   --audit     additionally run each kernel case with log-mode invariant
//               auditing and record the throughput overhead in
//               BENCH_kernel.json (budget: <= 15%, see docs/invariants.md).
//               Baseline and audited walls are medians of 3 repetitions so
//               the overhead percentage is not scheduler-jitter noise.
//   --scale     run the scale tier instead and write BENCH_scale.json:
//               a 10k-receiver star fan-out, a ~1k-receiver tiered
//               closed-loop scenario, and a multi-seed sweep running
//               independent simulations on a thread pool (one Scheduler per
//               sim; per-seed fingerprints must be stable across reruns)
//   --e2e       run only the end-to-end case and write BENCH_e2e.json
//               (fast feedback for datapath work and the CI perf smoke)
//   --quick     shrink all workloads for a smoke pass (same as
//               TOPOSENSE_BENCH_QUICK=1)
//   --shard-smoke  run only a reduced star_sharded_4 determinism check and
//               exit nonzero on divergence (the TSan CI shard gate)

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/toposense.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/recovery.hpp"
#include "scenarios/scenario.hpp"
#include "net/network.hpp"
#include "net/shard_link.hpp"
#include "scenarios/scenario_builder.hpp"
#include "sim/random.hpp"
#include "sim/shard_executor.hpp"
#include "sim/simulation.hpp"
#include "sim/worker_pool.hpp"
#include "traffic/layered_source.hpp"

namespace {

using namespace tsim;
using sim::Time;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // Linux reports KiB
}

bool g_quick_flag = false;  // set by --quick

bool quick() {
  const char* env = std::getenv("TOPOSENSE_BENCH_QUICK");
  return g_quick_flag || (env != nullptr && std::strcmp(env, "1") == 0);
}

/// Median wall-clock of three repetitions of `run` (which returns wall_s).
/// Single timed runs of the kernel cases swing by +/-10% on a busy machine —
/// enough to report a negative audit overhead — and the median of 3 is the
/// cheapest estimator that ignores one bad outlier completely.
template <typename Fn>
double median_of_3(Fn&& run) {
  double w0 = run();
  double w1 = run();
  double w2 = run();
  if (w0 > w1) std::swap(w0, w1);
  if (w1 > w2) std::swap(w1, w2);
  return std::max(w0, std::min(w1, w2));
}

/// Two-level fat tree: one source, 16 routers, `receivers` spread below.
core::SessionInput fat_tree(int receivers) {
  core::SessionInput s;
  s.session = 0;
  s.source = 1;
  core::SessionNodeInput root;
  root.node = 1;
  root.parent = net::kInvalidNode;
  s.nodes.push_back(root);
  for (int r = 0; r < 16; ++r) {
    core::SessionNodeInput router;
    router.node = static_cast<net::NodeId>(10 + r);
    router.parent = 1;
    s.nodes.push_back(router);
  }
  for (int i = 0; i < receivers; ++i) {
    core::SessionNodeInput rcv;
    rcv.node = static_cast<net::NodeId>(1000 + i);
    rcv.parent = static_cast<net::NodeId>(10 + (i % 16));
    rcv.is_receiver = true;
    rcv.bytes_received = tsim::units::Bytes{28'000};
    rcv.subscription = 3;
    s.nodes.push_back(rcv);
  }
  return s;
}

struct KernelCase {
  int receivers;
  int intervals;
  double wall_s;
  double intervals_per_sec;
  double nodes_per_sec;
  /// --audit: the same case re-run with log-mode auditing of every pass.
  std::optional<double> audit_wall_s;
  std::optional<double> audit_overhead_pct;
  std::uint64_t audit_violations{0};
};

/// Drives TopoSense::run_interval with deterministically varying loss reports
/// (seeded, not time-based) so congestion histories, capacity estimation and
/// fair-share arbitration all stay exercised — a pure steady-state input
/// would measure only the cache-hit path. With `auditor` set, every pass is
/// additionally fed through the controller-postcondition checks — the
/// per-interval audit cost the --audit overhead number quantifies.
KernelCase run_kernel_case(int receivers, int intervals,
                           check::InvariantAuditor* auditor = nullptr) {
  core::Params params;
  core::TopoSense algo{params, sim::Rng{1}};
  core::AlgorithmInput input;
  input.window = Time::seconds(std::int64_t{1});
  input.sessions.push_back(fat_tree(receivers));

  sim::Rng loss_rng{42};
  Time now = Time::seconds(std::int64_t{1});
  const auto start = Clock::now();
  for (int k = 0; k < intervals; ++k) {
    for (core::SessionNodeInput& n : input.sessions[0].nodes) {
      if (!n.is_receiver) continue;
      // ~1/7 of receivers congested each interval, drifting deterministically.
      n.loss_rate = tsim::units::LossFraction{
          loss_rng.bernoulli(1.0 / 7.0) ? loss_rng.uniform(0.03, 0.15) : 0.0};
    }
    const core::AlgorithmOutput out = algo.run_interval(input, now);
    if (out.prescriptions.empty()) std::abort();  // keep the optimizer honest
    if (auditor != nullptr) {
      auditor->set_now(now);
      auditor->on_algorithm_output(input, out, algo);
    }
    now += Time::seconds(std::int64_t{1});
  }
  const double wall = seconds_since(start);
  const double nodes = static_cast<double>(input.sessions[0].nodes.size());
  return KernelCase{receivers,       intervals,
                    wall,            intervals / wall,
                    intervals * nodes / wall, std::nullopt,
                    std::nullopt,    0};
}

struct E2eCase {
  const char* name;
  int sessions;
  double sim_seconds;
  double wall_s;
  std::uint64_t events;
  double events_per_sec;
  std::uint64_t fingerprint;
};

/// FNV-1a over every receiver's subscription timeline + loss — the same
/// observable state the determinism tests fingerprint. Equal seeds must give
/// equal fingerprints across runs, platforms and (absent intentional
/// behaviour changes) PRs.
std::uint64_t fingerprint(const scenarios::Scenario& s) {
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
  return h;
}

E2eCase run_e2e_case(int sessions, Time duration) {
  scenarios::ScenarioConfig config;
  config.seed = 1;
  config.duration = duration;
  scenarios::TopologyBOptions topology;
  topology.sessions = sessions;
  auto scenario = scenarios::ScenarioBuilder(config).topology_b(topology).build();
  const auto start = Clock::now();
  scenario->run();
  const double wall = seconds_since(start);
  const std::uint64_t events = scenario->simulation().scheduler().executed_events();
  return E2eCase{"topology_b", sessions, duration.as_seconds(), wall,
                 events, static_cast<double>(events) / wall, fingerprint(*scenario)};
}

/// --- fault benches ---------------------------------------------------------

struct FaultReceiverRow {
  std::string name;
  int optimal{0};
  int final_subscription{0};
  std::uint64_t unilateral_adds{0};
  std::uint64_t unilateral_drops{0};
  double max_suggestion_gap_s{0.0};
  std::optional<double> recovery_s;  ///< time from repair to (optimal-1)+ held
  bool recovered_within_1{false};
};

struct FaultCase {
  std::string name;
  std::string fault;  ///< human-readable description of the injected fault
  double sim_seconds{0.0};
  double wall_s{0.0};
  std::uint64_t fingerprint{0};
  std::uint64_t fingerprint_second{0};  ///< fingerprint of the same-seed re-run
  bool deterministic{false};  ///< second same-seed run matched the fingerprint
  std::vector<FaultReceiverRow> receivers;
};

/// Builds + runs the topology-A link-failure scenario once. The interesting
/// receivers sit behind bottleneck 1, which is hard-down in [down, up).
std::unique_ptr<scenarios::Scenario> run_link_failure(Time duration, Time down, Time up) {
  scenarios::ScenarioConfig config;
  config.seed = 42;
  config.duration = duration;
  fault::FaultPlan plan;
  plan.link_outage("r0", "r1", down, up);
  auto scenario = scenarios::ScenarioBuilder(config)
                      .topology_a(scenarios::TopologyAOptions{})
                      .with_faults(plan)
                      .build();
  scenario->run();
  return scenario;
}

std::unique_ptr<scenarios::Scenario> run_controller_outage(Time duration, Time down, Time up) {
  scenarios::ScenarioConfig config;
  config.seed = 43;
  config.duration = duration;
  fault::FaultPlan plan;
  plan.controller_outage(down, up);
  // Cross traffic arrives mid-outage so the receivers must back off without
  // any controller help — the paper's unilateral-decision rule under stress.
  const Time cross_start = down + Time::seconds(5);
  auto scenario = scenarios::ScenarioBuilder(config)
                      .topology_a(scenarios::TopologyAOptions{})
                      .with_faults(plan)
                      .with_cross_traffic({"r0", "r2", 700e3, cross_start, up})
                      .build();
  scenario->run();
  return scenario;
}

FaultCase summarize_fault_case(
    const std::string& name, const std::string& fault_desc, Time duration, Time repair,
    const std::function<std::unique_ptr<scenarios::Scenario>()>& run_once) {
  const auto start = Clock::now();
  auto first = run_once();
  const double wall = seconds_since(start);
  auto second = run_once();  // same seed: must reproduce bit-identically

  FaultCase c;
  c.name = name;
  c.fault = fault_desc;
  c.sim_seconds = duration.as_seconds();
  c.wall_s = wall;
  c.fingerprint = fingerprint(*first);
  c.fingerprint_second = fingerprint(*second);
  c.deterministic = c.fingerprint == c.fingerprint_second;

  const auto& agents = first->receiver_agents();
  for (std::size_t i = 0; i < first->results().size(); ++i) {
    const auto& r = first->results()[i];
    FaultReceiverRow row;
    row.name = r.name;
    row.optimal = r.optimal;
    row.final_subscription = r.final_subscription;
    row.unilateral_adds = agents[i]->unilateral_adds();
    row.unilateral_drops = agents[i]->unilateral_drops();
    row.max_suggestion_gap_s = agents[i]->max_suggestion_gap().as_seconds();
    metrics::RecoveryConfig rcfg;
    rcfg.repair = repair;
    rcfg.target = r.optimal;
    rcfg.until = duration;
    if (const auto rec = metrics::recovery_time(r.timeline, rcfg)) {
      row.recovery_s = rec->as_seconds();
    }
    row.recovered_within_1 = r.final_subscription >= r.optimal - 1;
    c.receivers.push_back(std::move(row));
  }
  return c;
}

void write_fault_json(const std::string& path, const std::vector<FaultCase>& cases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"fault\",\n  \"quick\": %s,\n  \"cases\": [\n",
               quick() ? "true" : "false");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FaultCase& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"fault\": \"%s\", \"sim_seconds\": %.1f,\n"
                 "     \"wall_s\": %.6f, \"fingerprint\": \"%016llx\", "
                 "\"fingerprint_second\": \"%016llx\", \"deterministic\": %s,\n"
                 "     \"receivers\": [\n",
                 c.name.c_str(), c.fault.c_str(), c.sim_seconds, c.wall_s,
                 static_cast<unsigned long long>(c.fingerprint),
                 static_cast<unsigned long long>(c.fingerprint_second),
                 c.deterministic ? "true" : "false");
    for (std::size_t j = 0; j < c.receivers.size(); ++j) {
      const FaultReceiverRow& r = c.receivers[j];
      std::fprintf(f,
                   "      {\"name\": \"%s\", \"optimal\": %d, \"final\": %d, "
                   "\"unilateral_adds\": %llu, \"unilateral_drops\": %llu, "
                   "\"max_suggestion_gap_s\": %.1f, \"recovery_s\": ",
                   r.name.c_str(), r.optimal, r.final_subscription,
                   static_cast<unsigned long long>(r.unilateral_adds),
                   static_cast<unsigned long long>(r.unilateral_drops),
                   r.max_suggestion_gap_s);
      if (r.recovery_s) {
        std::fprintf(f, "%.1f", *r.recovery_s);
      } else {
        std::fprintf(f, "null");
      }
      std::fprintf(f, ", \"recovered_within_1\": %s}%s\n",
                   r.recovered_within_1 ? "true" : "false",
                   j + 1 < c.receivers.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"peak_rss_bytes\": %llu\n}\n",
               static_cast<unsigned long long>(peak_rss_bytes()));
  std::fclose(f);
}

int run_fault_benches(const std::string& out_dir) {
  const bool q = quick();
  const Time duration = Time::seconds(std::int64_t{q ? 240 : 360});
  const Time down = Time::seconds(std::int64_t{q ? 60 : 120});
  const Time up = down + Time::seconds(std::int64_t{60});

  std::vector<FaultCase> cases;
  cases.push_back(summarize_fault_case(
      "link_failure_topo_a", "link r0-r1 hard down, 60 s", duration, up,
      [&]() { return run_link_failure(duration, down, up); }));
  cases.push_back(summarize_fault_case(
      "controller_outage_topo_a", "controller down 60 s + 700 kbps cross traffic", duration,
      up, [&]() { return run_controller_outage(duration, down, up); }));

  write_fault_json(out_dir + "/BENCH_fault.json", cases);
  bool ok = true;
  for (const FaultCase& c : cases) {
    std::printf("fault   %-26s wall=%.3fs deterministic=%s fingerprint=%016llx\n",
                c.name.c_str(), c.wall_s, c.deterministic ? "yes" : "NO",
                static_cast<unsigned long long>(c.fingerprint));
    if (!c.deterministic) {
      std::fprintf(stderr,
                   "FINGERPRINT MISMATCH %s: first=%016llx second=%016llx (same seed)\n",
                   c.name.c_str(), static_cast<unsigned long long>(c.fingerprint),
                   static_cast<unsigned long long>(c.fingerprint_second));
    }
    for (const FaultReceiverRow& r : c.receivers) {
      std::printf("        %-10s optimal=%d final=%d unilateral=%llu+/%llu- gap=%.1fs "
                  "recovery=%s\n",
                  r.name.c_str(), r.optimal, r.final_subscription,
                  static_cast<unsigned long long>(r.unilateral_adds),
                  static_cast<unsigned long long>(r.unilateral_drops), r.max_suggestion_gap_s,
                  r.recovery_s ? (std::to_string(*r.recovery_s).substr(0, 5) + "s").c_str()
                               : "never");
      ok = ok && r.recovered_within_1;
    }
    ok = ok && c.deterministic;
  }
  std::printf("wrote %s/BENCH_fault.json\n", out_dir.c_str());
  if (!ok) {
    std::fprintf(stderr, "FAULT BENCH FAILURE: non-deterministic run or missed recovery\n");
    return 1;
  }
  return 0;
}

void write_kernel_json(const std::string& path, const std::vector<KernelCase>& cases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"kernel\",\n  \"seed\": 1,\n  \"quick\": %s,\n",
               quick() ? "true" : "false");
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const KernelCase& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"toposense_interval_%d\", \"receivers\": %d, "
                 "\"intervals\": %d, \"wall_s\": %.6f, \"intervals_per_sec\": %.1f, "
                 "\"nodes_per_sec\": %.1f",
                 c.receivers, c.receivers, c.intervals, c.wall_s, c.intervals_per_sec,
                 c.nodes_per_sec);
    if (c.audit_wall_s && c.audit_overhead_pct) {
      std::fprintf(f,
                   ", \"audit_mode\": \"log\", \"audit_wall_s\": %.6f, "
                   "\"audit_overhead_pct\": %.2f, \"audit_violations\": %llu",
                   *c.audit_wall_s, *c.audit_overhead_pct,
                   static_cast<unsigned long long>(c.audit_violations));
    }
    std::fprintf(f, "}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"peak_rss_bytes\": %llu\n}\n",
               static_cast<unsigned long long>(peak_rss_bytes()));
  std::fclose(f);
}

void write_e2e_json(const std::string& path, const E2eCase& c) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"e2e\",\n  \"seed\": 1,\n  \"quick\": %s,\n",
               quick() ? "true" : "false");
  std::fprintf(f,
               "  \"scenario\": \"%s\",\n  \"sessions\": %d,\n  \"sim_seconds\": %.1f,\n"
               "  \"wall_s\": %.6f,\n  \"events\": %llu,\n  \"events_per_sec\": %.1f,\n"
               "  \"fingerprint\": \"%016llx\",\n  \"peak_rss_bytes\": %llu\n}\n",
               c.name, c.sessions, c.sim_seconds, c.wall_s,
               static_cast<unsigned long long>(c.events), c.events_per_sec,
               static_cast<unsigned long long>(c.fingerprint),
               static_cast<unsigned long long>(peak_rss_bytes()));
  std::fclose(f);
}

/// --- scale benches ----------------------------------------------------------
/// The scale tier answers a different question from the kernel/e2e benches:
/// not "how fast is one control interval / one mid-size scenario" but "does
/// the simulator stay usable at paper-superseding population sizes". Three
/// probes:
///   * star_fanout    — datapath-only: one source multicasting to 10k access
///                      links. No unicast, no controller — pure scheduler +
///                      link + fan-out throughput, and a check that the lazy
///                      routing table materializes zero per-source rows.
///   * tiered_1k      — the full closed loop (controller, reports, joins) on
///                      a tiered topology with ~1000 receivers.
///   * seed sweep     — N independent topology_b simulations on a
///                      sim::WorkerPool, one Scheduler per simulation, each
///                      seed run twice: per-seed fingerprints must match
///                      across the two passes even with threads interleaving
///                      freely.

struct ScaleCase {
  std::string name;
  std::string kind;  ///< "datapath" or "closed_loop"
  int receivers;
  double sim_seconds;
  double wall_s;
  std::uint64_t events;
  double events_per_sec;
  std::uint64_t fingerprint;
  std::uint64_t fingerprint_second;
  bool deterministic;
  std::size_t routing_rows;  ///< per-source routing rows materialized
  /// Process high-water RSS sampled right after the case ran. getrusage
  /// reports a lifetime maximum, so this is cumulative across cases (a case
  /// can only raise it) — compare against the previous case's value to
  /// attribute growth.
  std::uint64_t peak_rss{0};
  /// star_fluid only: the packet-engine comparator run on the same topology,
  /// normalized per simulated second, and the resulting event-reduction
  /// factor (the tentpole number; bench_runner fails below 20x).
  std::optional<double> packet_events_per_sim_s;
  std::optional<double> fluid_events_per_sim_s;
  std::optional<double> event_reduction;
};

struct StarRun {
  std::uint64_t fingerprint;
  std::uint64_t events;
  std::size_t routing_rows;
  double wall_s;
};

/// One source VBR-multicasting all layers onto `receivers` access links — the
/// forwarder replicates every packet to every link, so this is the maximal
/// fan-out the datapath can be asked for. The fingerprint folds every
/// receiver's delivered byte/packet counters, which covers the source's RNG
/// draws, the queueing order and any drops.
StarRun run_star_once(int receivers, Time duration, std::uint64_t seed) {
  sim::Simulation simulation{seed};
  net::Network network{simulation};
  const net::NodeId src = network.add_node("src");
  std::vector<net::LinkId> links;
  links.reserve(static_cast<std::size_t>(receivers));
  for (int i = 0; i < receivers; ++i) {
    const net::NodeId rcv = network.add_node();
    links.push_back(network.add_link(src, rcv, tsim::units::BitsPerSec{10e6}, Time::milliseconds(5), 64));
  }
  network.compute_routes();

  struct Star final : net::MulticastForwarder {
    net::NodeId origin{net::kInvalidNode};
    const std::vector<net::LinkId>* links{nullptr};
    void route(net::NodeId node, const net::Packet&, std::vector<net::LinkId>& out,
               bool& local) override {
      if (node == origin) {
        out.insert(out.end(), links->begin(), links->end());
      } else {
        local = true;
      }
    }
  } forwarder;
  forwarder.origin = src;
  forwarder.links = &links;
  network.set_multicast_forwarder(&forwarder);

  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(receivers), 0);
  std::vector<std::uint64_t> packets(static_cast<std::size_t>(receivers), 0);
  for (int i = 0; i < receivers; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    // Receiver node ids are src+1 .. src+receivers in creation order.
    network.set_local_sink(static_cast<net::NodeId>(src + 1 + i),
                           [&bytes, &packets, idx](const net::PacketRef& p) {
                             bytes[idx] += p->size_bytes;
                             ++packets[idx];
                           });
  }

  traffic::LayeredSource::Config cfg;
  cfg.session = 0;
  cfg.node = src;
  cfg.model = traffic::TrafficModel::kVbr;  // exercises the source RNG path
  traffic::LayeredSource source{simulation, network, cfg};
  source.start();

  const auto start = Clock::now();
  simulation.run_until(duration);
  const double wall = seconds_since(start);

  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    mix(i);
    mix(bytes[i]);
    mix(packets[i]);
  }
  return StarRun{h, simulation.scheduler().executed_events(),
                 network.routes().computed_rows(), wall};
}

ScaleCase run_star_case(int receivers, Time duration) {
  const StarRun first = run_star_once(receivers, duration, 1);
  const StarRun second = run_star_once(receivers, duration, 1);
  ScaleCase c;
  c.name = "star_fanout";
  c.kind = "datapath";
  c.receivers = receivers;
  c.sim_seconds = duration.as_seconds();
  // The two runs are identical, so the faster one is the host's throughput;
  // one descheduled run then cannot set the gated number alone.
  c.wall_s = std::min(first.wall_s, second.wall_s);
  c.events = first.events;
  c.events_per_sec = static_cast<double>(first.events) / c.wall_s;
  c.fingerprint = first.fingerprint;
  c.fingerprint_second = second.fingerprint;
  c.deterministic =
      first.fingerprint == second.fingerprint && first.events == second.events;
  c.routing_rows = first.routing_rows;
  c.peak_rss = peak_rss_bytes();
  return c;
}

/// The same star split across `shards` Simulations under a ShardExecutor.
/// Shard 0 owns the source plus its slice of the receivers; every other shard
/// owns an entry node and a slice, fed through a net::ShardLink whose 5 ms
/// channel latency doubles as the conservative lookahead. With shards == 1 the
/// build degenerates to run_star_once exactly — same nodes, same links, same
/// construction order, plain run_until path — so the 1-shard fingerprint must
/// equal star_fanout's (asserted in run_scale_benches and pinned by the perf
/// baseline). Multi-shard fingerprints differ (remote receivers sit behind the
/// handoff hop) but must be identical for every thread count.
StarRun run_star_sharded_once(int receivers, Time duration, std::uint64_t seed,
                              std::size_t shards, std::size_t threads) {
  struct Star final : net::MulticastForwarder {
    net::NodeId origin{net::kInvalidNode};
    const std::vector<net::LinkId>* links{nullptr};
    sim::Simulation* sim{nullptr};
    /// Non-null only on shard 0: replicate to the remote shards too.
    const std::vector<std::unique_ptr<net::ShardLink>>* handoffs{nullptr};
    void route(net::NodeId node, const net::Packet& packet, std::vector<net::LinkId>& out,
               bool& local) override {
      if (node == origin) {
        out.insert(out.end(), links->begin(), links->end());
        if (handoffs != nullptr) {
          for (const auto& link : *handoffs) link->send(packet, sim->now());
        }
      } else {
        local = true;
      }
    }
  };
  struct Shard {
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<net::Network> net;
    std::vector<net::LinkId> links;
    net::NodeId hub{net::kInvalidNode};  ///< src on shard 0, entry elsewhere
    Star forwarder;
  };

  // Block partition: shard k owns global receivers [offset, offset + count).
  std::vector<std::size_t> counts(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    counts[k] = static_cast<std::size_t>(receivers) / shards +
                (k < static_cast<std::size_t>(receivers) % shards ? 1 : 0);
  }

  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(receivers), 0);
  std::vector<std::uint64_t> packets(static_cast<std::size_t>(receivers), 0);

  std::vector<std::unique_ptr<Shard>> nets;
  std::size_t offset = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    auto shard = std::make_unique<Shard>();
    // Remote seeds never draw (receivers are passive) but must be distinct so
    // any future RNG use doesn't silently correlate across shards.
    shard->sim = std::make_unique<sim::Simulation>(seed + 1000 * k);
    shard->net = std::make_unique<net::Network>(*shard->sim);
    shard->hub = shard->net->add_node(k == 0 ? "src" : "entry");
    shard->links.reserve(counts[k]);
    for (std::size_t i = 0; i < counts[k]; ++i) {
      const net::NodeId rcv = shard->net->add_node();
      shard->links.push_back(shard->net->add_link(shard->hub, rcv,
                                                  tsim::units::BitsPerSec{10e6},
                                                  Time::milliseconds(5), 64));
    }
    shard->net->compute_routes();
    shard->forwarder.origin = shard->hub;
    shard->forwarder.links = &shard->links;
    shard->forwarder.sim = shard->sim.get();
    shard->net->set_multicast_forwarder(&shard->forwarder);
    // Disjoint slices of the shared counters: shard k's sinks write only
    // [offset, offset + count), so parallel windows never touch a slot twice.
    for (std::size_t i = 0; i < counts[k]; ++i) {
      const std::size_t idx = offset + i;
      shard->net->set_local_sink(static_cast<net::NodeId>(shard->hub + 1 + i),
                                 [&bytes, &packets, idx](const net::PacketRef& p) {
                                   bytes[idx] += p->size_bytes;
                                   ++packets[idx];
                                 });
    }
    offset += counts[k];
    nets.push_back(std::move(shard));
  }

  sim::ShardExecutor executor{sim::ShardExecutor::Config{threads}};
  for (const auto& shard : nets) executor.add_shard(*shard->sim);
  std::vector<std::unique_ptr<net::ShardLink>> handoffs;
  for (std::size_t k = 1; k < shards; ++k) {
    sim::ShardExecutor::Channel& channel = executor.connect(0, k, Time::milliseconds(5));
    handoffs.push_back(
        std::make_unique<net::ShardLink>(channel, *nets[k]->net, nets[k]->hub));
  }
  nets[0]->forwarder.handoffs = &handoffs;

  traffic::LayeredSource::Config cfg;
  cfg.session = 0;
  cfg.node = nets[0]->hub;
  cfg.model = traffic::TrafficModel::kVbr;
  traffic::LayeredSource source{*nets[0]->sim, *nets[0]->net, cfg};
  source.start();

  const auto start = Clock::now();
  executor.run_until(duration);
  const double wall = seconds_since(start);

  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    mix(i);
    mix(bytes[i]);
    mix(packets[i]);
  }
  std::size_t rows = 0;
  for (const auto& shard : nets) rows += shard->net->routes().computed_rows();
  return StarRun{h, executor.executed_events(), rows, wall};
}

/// Determinism here means thread-count independence: the timed pass runs the
/// auto thread count (min(shards, hardware) — what a deployment would use),
/// the check pass forces one thread per shard so the pool and barrier merge
/// are exercised even on a single-core host, and the two must agree
/// bit-for-bit (the merge fixes handoff order). With one shard both passes
/// run on one thread, so the faster of the two is timed.
ScaleCase run_star_sharded_case(int receivers, Time duration, std::size_t shards) {
  const StarRun parallel = run_star_sharded_once(receivers, duration, 1, shards, 0);
  const StarRun serial = run_star_sharded_once(receivers, duration, 1, shards, shards);
  ScaleCase c;
  c.name = "star_sharded_" + std::to_string(shards);
  c.kind = "datapath";
  c.receivers = receivers;
  c.sim_seconds = duration.as_seconds();
  c.wall_s = shards == 1 ? std::min(parallel.wall_s, serial.wall_s) : parallel.wall_s;
  c.events = parallel.events;
  c.events_per_sec = static_cast<double>(parallel.events) / c.wall_s;
  c.fingerprint = parallel.fingerprint;
  c.fingerprint_second = serial.fingerprint;
  c.deterministic =
      parallel.fingerprint == serial.fingerprint && parallel.events == serial.events;
  c.routing_rows = parallel.routing_rows;
  c.peak_rss = peak_rss_bytes();
  return c;
}

/// --- star_fluid: the fluid-engine scale tier --------------------------------

/// Full closed loop (discovery, reports, suggestions stay packet-level) on the
/// star topology with the selected traffic engine. Receivers start at
/// subscription 5 (the access links' optimum) so the data plane carries its
/// steady-state load from t=0 for both engines.
std::unique_ptr<scenarios::Scenario> run_star_closed_loop(int receivers, Time duration,
                                                          scenarios::TrafficEngine engine) {
  scenarios::ScenarioConfig config;
  config.seed = 11;
  config.duration = duration;
  config.traffic.engine = engine;
  config.control.initial_subscription = 5;
  scenarios::StarOptions star;
  star.receivers = receivers;
  auto scenario = scenarios::ScenarioBuilder(config).star(star).build();
  scenario->run();
  return scenario;
}

/// The subscription-timeline fingerprint is weak on the star (all receivers
/// share one bottleneck class, so most timelines are identical); fold in every
/// receiver's delivered/lost totals, which cover the fluid integerization and
/// the report/suggestion packet paths.
std::uint64_t star_fluid_fingerprint(scenarios::Scenario& s) {
  std::uint64_t h = fingerprint(s);
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& endpoint : s.endpoints()) {
    mix(endpoint->total_packets().count());
    mix(endpoint->total_lost_packets().count());
    mix(endpoint->total_bytes().count());
  }
  return h;
}

/// The tentpole probe: the fluid engine must carry the 100k-receiver closed
/// loop with >= 20x fewer scheduler events per simulated second than the
/// packet engine on the identical topology. The fluid run executes twice
/// (same-seed determinism); the packet comparator runs once over a shorter
/// horizon — its per-sim-second event rate is steady state, so one second is
/// enough to normalize against.
ScaleCase run_star_fluid_case(int receivers, Time fluid_duration, Time packet_duration) {
  const auto start = Clock::now();
  auto first =
      run_star_closed_loop(receivers, fluid_duration, scenarios::TrafficEngine::kFluid);
  const double wall = seconds_since(start);
  auto second =
      run_star_closed_loop(receivers, fluid_duration, scenarios::TrafficEngine::kFluid);
  auto packet =
      run_star_closed_loop(receivers, packet_duration, scenarios::TrafficEngine::kPacket);

  ScaleCase c;
  c.name = "star_fluid_" + std::to_string(receivers / 1000) + "k";
  c.kind = "closed_loop";
  c.receivers = receivers;
  c.sim_seconds = fluid_duration.as_seconds();
  c.wall_s = wall;
  c.events = first->simulation().scheduler().executed_events();
  c.events_per_sec = static_cast<double>(c.events) / wall;
  c.fingerprint = star_fluid_fingerprint(*first);
  c.fingerprint_second = star_fluid_fingerprint(*second);
  c.deterministic = c.fingerprint == c.fingerprint_second &&
                    c.events == second->simulation().scheduler().executed_events();
  c.routing_rows = first->network().routes().computed_rows();
  const auto packet_events = packet->simulation().scheduler().executed_events();
  c.fluid_events_per_sim_s = static_cast<double>(c.events) / fluid_duration.as_seconds();
  c.packet_events_per_sim_s =
      static_cast<double>(packet_events) / packet_duration.as_seconds();
  c.event_reduction = *c.packet_events_per_sim_s / *c.fluid_events_per_sim_s;
  c.peak_rss = peak_rss_bytes();
  return c;
}

ScaleCase run_tiered_case(const scenarios::TieredOptions& topo, Time duration) {
  const auto run_once = [&]() {
    scenarios::ScenarioConfig config;
    config.seed = 7;
    config.duration = duration;
    auto scenario = scenarios::ScenarioBuilder(config).tiered(topo).build();
    scenario->run();
    return scenario;
  };
  auto start = Clock::now();
  auto first = run_once();
  const double first_wall = seconds_since(start);
  start = Clock::now();
  auto second = run_once();
  // Both runs are identical: time the faster, as run_star_case does.
  const double wall = std::min(first_wall, seconds_since(start));

  ScaleCase c;
  c.name = "tiered_closed_loop";
  c.kind = "closed_loop";
  c.receivers = topo.regionals * topo.locals_per_regional * topo.receivers_per_local;
  c.sim_seconds = duration.as_seconds();
  c.wall_s = wall;
  c.events = first->simulation().scheduler().executed_events();
  c.events_per_sec = static_cast<double>(c.events) / wall;
  c.fingerprint = fingerprint(*first);
  c.fingerprint_second = fingerprint(*second);
  c.deterministic = c.fingerprint == c.fingerprint_second;
  c.routing_rows = first->network().routes().computed_rows();
  c.peak_rss = peak_rss_bytes();
  return c;
}

struct SweepResult {
  std::uint64_t seed;
  std::uint64_t events;
  std::uint64_t fingerprint;
  std::uint64_t fingerprint_second;
  bool deterministic;
};

struct SweepSummary {
  int sessions;
  double sim_seconds;
  unsigned threads;
  double wall_s;
  std::uint64_t total_events;  ///< across both passes of every seed
  double aggregate_events_per_sec;
  std::vector<SweepResult> results;
  bool deterministic;
};

/// Runs `seeds` independent topology_b simulations on a sim::WorkerPool of
/// min(available CPUs, seeds) workers, one task per seed, each seed run
/// twice. Determinism must hold per seed regardless of how the OS interleaves
/// the workers — each simulation owns its Scheduler, Network and RNG streams,
/// so the only shared state is the result slots written by distinct tasks.
SweepSummary run_seed_sweep(int sessions, Time duration, std::uint64_t seeds) {
  SweepSummary s;
  s.sessions = sessions;
  s.sim_seconds = duration.as_seconds();
  sim::WorkerPool pool{std::min<std::size_t>(sim::WorkerPool::available_cpus(), seeds)};
  s.threads = static_cast<unsigned>(pool.workers());
  s.results.resize(seeds);

  const auto run_seed = [&](std::uint64_t seed) {
    scenarios::ScenarioConfig config;
    config.seed = seed;
    config.duration = duration;
    scenarios::TopologyBOptions topology;
    topology.sessions = sessions;
    auto scenario = scenarios::ScenarioBuilder(config).topology_b(topology).build();
    scenario->run();
    return std::pair{fingerprint(*scenario),
                     scenario->simulation().scheduler().executed_events()};
  };

  const auto start = Clock::now();
  pool.run(seeds, [&](std::size_t i, std::size_t) {
    const std::uint64_t seed = i + 1;
    const auto [fp1, events] = run_seed(seed);
    const auto [fp2, events2] = run_seed(seed);
    s.results[i] =
        SweepResult{seed, events + events2, fp1, fp2, fp1 == fp2 && events == events2};
  });
  s.wall_s = seconds_since(start);

  s.total_events = 0;
  s.deterministic = true;
  for (const SweepResult& r : s.results) {
    s.total_events += r.events;
    s.deterministic = s.deterministic && r.deterministic;
  }
  s.aggregate_events_per_sec = static_cast<double>(s.total_events) / s.wall_s;
  return s;
}

void write_scale_json(const std::string& path, const std::vector<ScaleCase>& cases,
                      const SweepSummary& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  // Host metadata lets the perf gate tell "this build got slower" apart from
  // "this runner has fewer cores": check_perf_baseline.py keeps determinism
  // and fingerprint gates but skips the throughput floor on 1-core hosts.
  std::fprintf(f,
               "{\n  \"bench\": \"scale\",\n  \"quick\": %s,\n"
               "  \"host\": {\"hardware_concurrency\": %u, \"sweep_threads\": %u},\n"
               "  \"cases\": [\n",
               quick() ? "true" : "false", std::thread::hardware_concurrency(),
               sweep.threads);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ScaleCase& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"kind\": \"%s\", \"receivers\": %d, "
                 "\"sim_seconds\": %.1f,\n"
                 "     \"wall_s\": %.6f, \"events\": %llu, \"events_per_sec\": %.1f,\n"
                 "     \"fingerprint\": \"%016llx\", \"fingerprint_second\": \"%016llx\", "
                 "\"deterministic\": %s, \"routing_rows\": %zu, \"peak_rss_bytes\": %llu",
                 c.name.c_str(), c.kind.c_str(), c.receivers, c.sim_seconds, c.wall_s,
                 static_cast<unsigned long long>(c.events), c.events_per_sec,
                 static_cast<unsigned long long>(c.fingerprint),
                 static_cast<unsigned long long>(c.fingerprint_second),
                 c.deterministic ? "true" : "false", c.routing_rows,
                 static_cast<unsigned long long>(c.peak_rss));
    if (c.event_reduction) {
      std::fprintf(f,
                   ",\n     \"fluid_events_per_sim_s\": %.1f, "
                   "\"packet_events_per_sim_s\": %.1f, \"event_reduction\": %.1f",
                   *c.fluid_events_per_sim_s, *c.packet_events_per_sim_s,
                   *c.event_reduction);
    }
    std::fprintf(f, "}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"sweep\": {\n    \"scenario\": \"topology_b\", \"sessions\": %d, "
               "\"sim_seconds\": %.1f, \"seeds\": %zu, \"threads\": %u,\n"
               "    \"wall_s\": %.6f, \"total_events\": %llu, "
               "\"aggregate_events_per_sec\": %.1f, \"deterministic\": %s,\n"
               "    \"results\": [\n",
               sweep.sessions, sweep.sim_seconds, sweep.results.size(), sweep.threads,
               sweep.wall_s, static_cast<unsigned long long>(sweep.total_events),
               sweep.aggregate_events_per_sec, sweep.deterministic ? "true" : "false");
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const SweepResult& r = sweep.results[i];
    std::fprintf(f,
                 "      {\"seed\": %llu, \"events\": %llu, \"fingerprint\": \"%016llx\", "
                 "\"fingerprint_second\": \"%016llx\", \"deterministic\": %s}%s\n",
                 static_cast<unsigned long long>(r.seed),
                 static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.fingerprint),
                 static_cast<unsigned long long>(r.fingerprint_second),
                 r.deterministic ? "true" : "false",
                 i + 1 < sweep.results.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n  \"peak_rss_bytes\": %llu\n}\n",
               static_cast<unsigned long long>(peak_rss_bytes()));
  std::fclose(f);
}

/// Reduced star_sharded_4 run for the TSan CI gate: small enough that a
/// sanitized build finishes in seconds, but it still spins up the worker
/// pool, crosses every shard boundary, and re-checks the run with one thread
/// per shard. Exit status is the verdict — nonzero on any divergence.
int run_shard_smoke() {
  const ScaleCase c = run_star_sharded_case(500, Time::milliseconds(500), 4);
  std::printf("shard-smoke %-18s receivers=%-6d sim=%.1fs wall=%.3fs  "
              "fingerprint=%016llx deterministic=%s\n",
              c.name.c_str(), c.receivers, c.sim_seconds, c.wall_s,
              static_cast<unsigned long long>(c.fingerprint),
              c.deterministic ? "yes" : "NO");
  if (!c.deterministic) {
    std::fprintf(stderr,
                 "SHARD SMOKE FAILURE: fingerprint %016llx != %016llx across thread "
                 "counts — sharded execution is nondeterministic\n",
                 static_cast<unsigned long long>(c.fingerprint),
                 static_cast<unsigned long long>(c.fingerprint_second));
    return 1;
  }
  return 0;
}

int run_scale_benches(const std::string& out_dir) {
  const bool q = quick();

  // Every case whose events/s the perf gate floors times runs of at least
  // about 50 ms on a 4-core host, quick tier included: runs of 5-15 ms fell
  // below half their recorded rate from host jitter alone. Each reports the
  // faster of its two identical runs, so one descheduled run cannot fail the
  // gate. The quick star's 2 s carry 590k events (its first second only
  // 104k).
  const int star_receivers = q ? 2000 : 10000;
  const Time star_duration = Time::seconds(std::int64_t{q ? 2 : 5});
  std::vector<ScaleCase> cases;
  cases.push_back(run_star_case(star_receivers, star_duration));
  const std::uint64_t star_fp = cases.back().fingerprint;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    cases.push_back(run_star_sharded_case(star_receivers, star_duration, shards));
  }
  // The 1-shard sharded build must reduce to the unsharded star exactly —
  // same nodes, same order, plain run_until path, same fingerprint.
  const bool sharded_identity = cases[1].fingerprint == star_fp;

  scenarios::TieredOptions tiered;
  if (q) {
    tiered.regionals = 4;
    tiered.locals_per_regional = 3;
    tiered.receivers_per_local = 5;  // 60 receivers
  } else {
    tiered.regionals = 8;
    tiered.locals_per_regional = 5;
    tiered.receivers_per_local = 25;  // 1000 receivers
  }
  cases.push_back(run_tiered_case(tiered, Time::seconds(std::int64_t{30})));

  // The fluid closed loop: 100k receivers in the full tier (the tentpole
  // population), 10k in quick. The packet comparator covers one simulated
  // second — enough to normalize its steady-state event rate.
  const int fluid_receivers = q ? 10000 : 100000;
  cases.push_back(run_star_fluid_case(fluid_receivers, Time::seconds(std::int64_t{5}),
                                      Time::seconds(std::int64_t{1})));
  const double event_reduction = cases.back().event_reduction.value_or(0.0);

  const SweepSummary sweep =
      run_seed_sweep(4, Time::seconds(std::int64_t{q ? 30 : 120}), q ? 4 : 8);

  write_scale_json(out_dir + "/BENCH_scale.json", cases, sweep);

  bool ok = true;
  for (const ScaleCase& c : cases) {
    std::printf("scale   %-20s receivers=%-6d sim=%.0fs wall=%.3fs  %.2fM events/s  "
                "routing_rows=%zu deterministic=%s",
                c.name.c_str(), c.receivers, c.sim_seconds, c.wall_s,
                c.events_per_sec / 1e6, c.routing_rows, c.deterministic ? "yes" : "NO");
    if (c.event_reduction) std::printf("  event_reduction=%.1fx", *c.event_reduction);
    std::printf("\n");
    ok = ok && c.deterministic;
  }
  std::printf("scale   seed_sweep           seeds=%zu threads=%u wall=%.3fs  "
              "%.2fM events/s aggregate  deterministic=%s\n",
              sweep.results.size(), sweep.threads, sweep.wall_s,
              sweep.aggregate_events_per_sec / 1e6, sweep.deterministic ? "yes" : "NO");
  ok = ok && sweep.deterministic;
  std::printf("wrote %s/BENCH_scale.json\n", out_dir.c_str());
  if (!sharded_identity) {
    std::fprintf(stderr,
                 "SCALE BENCH FAILURE: star_sharded_1 fingerprint %016llx != star_fanout "
                 "%016llx — the 1-shard path no longer reduces to the plain star\n",
                 static_cast<unsigned long long>(cases[1].fingerprint),
                 static_cast<unsigned long long>(star_fp));
    return 1;
  }
  if (event_reduction < 20.0) {
    std::fprintf(stderr,
                 "SCALE BENCH FAILURE: fluid engine reduced scheduler events only %.1fx "
                 "vs the packet engine (acceptance floor: 20x)\n",
                 event_reduction);
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "SCALE BENCH FAILURE: fingerprint mismatch on a same-seed re-run\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  bool fault_mode = false;
  bool audit_mode = false;
  bool scale_mode = false;
  bool e2e_mode = false;
  bool shard_smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--fault") == 0) {
      fault_mode = true;
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      audit_mode = true;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale_mode = true;
    } else if (std::strcmp(argv[i], "--e2e") == 0) {
      e2e_mode = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick_flag = true;
    } else if (std::strcmp(argv[i], "--shard-smoke") == 0) {
      shard_smoke_mode = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out DIR] [--fault] [--audit] [--scale] [--e2e] "
                   "[--quick] [--shard-smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  if (shard_smoke_mode) return run_shard_smoke();
  if (fault_mode) return run_fault_benches(out_dir);
  if (scale_mode) return run_scale_benches(out_dir);

  const bool q = quick();

  if (e2e_mode) {
    const E2eCase e2e = run_e2e_case(4, Time::seconds(std::int64_t{q ? 60 : 600}));
    write_e2e_json(out_dir + "/BENCH_e2e.json", e2e);
    std::printf(
        "e2e     %s sessions=%d sim=%.0fs wall=%.3fs  %.2fM events/s  fingerprint=%016llx\n",
        e2e.name, e2e.sessions, e2e.sim_seconds, e2e.wall_s, e2e.events_per_sec / 1e6,
        static_cast<unsigned long long>(e2e.fingerprint));
    std::printf("wrote %s/BENCH_e2e.json\n", out_dir.c_str());
    return 0;
  }

  // Kernel case walls are medians of 3 runs — the headline numbers and the
  // audit-overhead baseline below must not wobble with scheduler jitter.
  const auto kernel_case_median = [](int receivers, int intervals) {
    const double wall =
        median_of_3([&]() { return run_kernel_case(receivers, intervals).wall_s; });
    const double nodes = receivers + 17.0;  // fat_tree: root + 16 routers + receivers
    return KernelCase{receivers,
                      intervals,
                      wall,
                      intervals / wall,
                      intervals * nodes / wall,
                      std::nullopt,
                      std::nullopt,
                      0};
  };
  std::vector<KernelCase> kernel;
  kernel.push_back(kernel_case_median(256, q ? 200 : 2000));
  kernel.push_back(kernel_case_median(4096, q ? 50 : 500));
  if (audit_mode) {
    // Re-run each case with log-mode auditing of every controller pass; the
    // delta is the audit overhead the acceptance budget caps at 15%. Both
    // sides of the ratio are medians of 3 — a single timed run swings enough
    // on a busy machine to report a (meaningless) negative overhead.
    for (KernelCase& c : kernel) {
      check::AuditConfig acfg;
      acfg.mode = check::AuditMode::kLog;
      acfg.log_to_stderr = false;  // keep bench output machine-parsable
      std::uint64_t violations = 0;
      const double audit_wall = median_of_3([&]() {
        check::InvariantAuditor auditor{acfg};
        const double wall = run_kernel_case(c.receivers, c.intervals, &auditor).wall_s;
        violations = auditor.violation_count();  // identical input every rep
        return wall;
      });
      c.audit_wall_s = audit_wall;
      c.audit_overhead_pct = (audit_wall / c.wall_s - 1.0) * 100.0;
      c.audit_violations = violations;
    }
  }
  write_kernel_json(out_dir + "/BENCH_kernel.json", kernel);
  bool audit_budget_ok = true;
  for (const KernelCase& c : kernel) {
    std::printf("kernel  receivers=%-5d intervals=%-5d wall=%.3fs  %.0f intervals/s  %.2fM nodes/s\n",
                c.receivers, c.intervals, c.wall_s, c.intervals_per_sec, c.nodes_per_sec / 1e6);
    if (c.audit_overhead_pct) {
      std::printf("        audit(log) wall=%.3fs overhead=%+.1f%% violations=%llu\n",
                  *c.audit_wall_s, *c.audit_overhead_pct,
                  static_cast<unsigned long long>(c.audit_violations));
      if (*c.audit_overhead_pct > 15.0) audit_budget_ok = false;
      if (c.audit_violations != 0) audit_budget_ok = false;
    }
  }
  if (!audit_budget_ok) {
    std::fprintf(stderr,
                 "AUDIT BENCH FAILURE: overhead above 15%% budget or violations found\n");
  }

  const E2eCase e2e = run_e2e_case(4, Time::seconds(std::int64_t{q ? 60 : 600}));
  write_e2e_json(out_dir + "/BENCH_e2e.json", e2e);
  std::printf("e2e     %s sessions=%d sim=%.0fs wall=%.3fs  %.2fM events/s  fingerprint=%016llx\n",
              e2e.name, e2e.sessions, e2e.sim_seconds, e2e.wall_s, e2e.events_per_sec / 1e6,
              static_cast<unsigned long long>(e2e.fingerprint));
  std::printf("wrote %s/BENCH_kernel.json and %s/BENCH_e2e.json\n", out_dir.c_str(),
              out_dir.c_str());
  return audit_budget_ok ? 0 : 1;
}
