#!/usr/bin/env python3
"""The TopoSense benchmark: one command per workload, end-to-end metrics
checked for correctness, and a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

On first use it builds perfbench/ (the driver plus the simulator's sources)
into .bench_build/perfbench. It then repeats the workload, one driver process
per repetition, until S seconds have passed (at least three times), and
prints each metric by name with its unit, then one JSON object as the last
line of stdout:

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
`attempted` counts driver processes and `failed` those that crashed or failed
an output check; the exit code is non-zero when the build or any check fails.
README.md explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
sys.path.insert(0, str(HERE))
import summary  # noqa: E402

WORKLOADS = ("star_fluid_30k", "tiered_domains_1k", "topo_b_16")
# The shard probe rides on the workload that sharding whole scenarios per
# domain would convert (README.md, "Why no star_sharded_2").
SHARD_WORKLOAD = "tiered_domains_1k"
MIN_REPS = 3  # untraced repetitions per run; traced runs make at least one pair
DRIVER_TIMEOUT_S = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; a no-op when it is up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return DRIVER.exists()


def driver(workload, seed, mode, *extra):
    """Runs one driver process; its JSON result, or None when it failed."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{mode}: timed out after {DRIVER_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{mode}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{mode}: unreadable output")
        return None


class Checks:
    """Counts driver processes and the ones that crashed or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                log(f"check failed ({what}): {problem}")


def rep_problems(workload, rep, reference):
    """Output checks on one run or trace repetition."""
    if rep is None:
        return ["driver process failed"]
    problems = []
    if reference is not None and (rep["fingerprint"], rep["events"]) != (
            reference["fingerprint"], reference["events"]):
        problems.append(f"fingerprint {rep['fingerprint']} / {rep['events']} events differ from "
                        f"{reference['fingerprint']} / {reference['events']} of the same seed")
    if workload == "star_fluid_30k" and rep["routing_rows"] != 2:
        problems.append(f"{rep['routing_rows']} routing rows materialized, expected 2")
    if rep["receivers_without_optimum"] != 0:
        problems.append(f"{rep['receivers_without_optimum']} receivers have no optimum")
    if not all(math.isfinite(d) and d >= 0.0 for d in rep["rel_deviation"]):
        problems.append("relative deviation outside [0, inf)")
    jain = summary.jain_index(rep["sub_ratio"])
    if not 0.0 < jain <= 1.0 + 1e-12 or abs(jain - rep["jain_library"]) > 1e-8:
        problems.append(f"Jain index {jain} disagrees with metrics::jain_index "
                        f"{rep['jain_library']}")
    if not rep["run_wall_s"] > 0.0:
        problems.append("non-positive run wall time")
    if rep["mode"] == "trace":
        if not rep["replay_matches"]:
            problems.append("replayed core prescriptions differ from the live last_output()")
        if not rep["spans_written"]:
            problems.append("span file not written")
    return problems


def repeat(deadline, minimum, body):
    """Calls ``body`` until the deadline has passed and it ran ``minimum``
    times, or until it returns False: the run has failed already."""
    count = 0
    while count < minimum or time.monotonic() < deadline:
        count += 1
        if not body(count):
            return


def end_to_end(workload, seed, seconds):
    checks = Checks()
    deadline = time.monotonic() + seconds
    reps = []

    def one(count):
        rep = driver(workload, seed, "run")
        problems = rep_problems(workload, rep, reps[0] if reps else None)
        checks.record(problems, f"run {count}")
        if rep is not None:
            reps.append(rep)
        return not problems

    repeat(deadline, MIN_REPS, one)
    metrics = {}
    if reps:
        first = reps[0]
        metrics = {
            "sim_s_per_wall_s": (summary.median([r["sim_s"] / r["run_wall_s"] for r in reps]),
                                 "s/s"),
            "setup_s": (summary.median([t for r in reps for t in r["setup_s"]]), "s"),
            "rel_deviation": (summary.mean_relative_deviation(first["rel_deviation"]),
                              "fraction"),
            "sub_changes_per_rcv_min": (summary.changes_per_receiver_minute(
                first["sub_changes_after_warmup"], len(first["sub_ratio"]), first["window_s"]),
                                        "1/min"),
            "jain_fairness": (summary.jain_index(first["sub_ratio"]), "index"),
        }
    return checks, metrics


def layer_metrics(rep, spans, plain):
    """Per-layer metrics of one traced repetition, its spans and the untraced
    repetition paired with it."""
    run = next(s for s in spans if s.name == "sim.run")
    run_ns = run.end - run.start
    own = summary.layer_self_times(spans)

    def share(layer):
        return summary.ratio(own.get(layer, 0), run_ns)

    fluid_ms = [d / 1e6 for d in summary.durations(spans, "traffic.fluid_step")]
    interval_ms = [d / 1e6 for d in rep["interval_ns"]]
    core_ms = [d / 1e6 for d in rep["core_ns"]]
    report_us = [d / 1e3 for d in summary.durations(spans, "control.report")]
    sample_ms = [d / 1e6 for d in summary.durations(spans, "topo.sample")]
    return {
        "scenarios.build_rss_mb": (rep["build_rss_mb"], "MB"),
        "scenarios.run_rss_mb": (plain["rss_mb"], "MB"),
        "sim.events": (rep["events"], "count"),
        "sim.events_per_s": (summary.ratio(rep["events"], plain["run_wall_s"]), "1/s"),
        "sim.event_ns_p50": (summary.percentile(rep["sim_event_ns_sample"], 50), "ns"),
        "sim.event_ns_p99": (summary.percentile(rep["sim_event_ns_sample"], 99), "ns"),
        "sim.event_samples": (len(rep["sim_event_ns_sample"]), "count"),
        "sim.pending_peak": (rep["pending_peak"], "count"),
        "sim.self_share": (share("sim"), "fraction"),
        "net.link_pkts": (rep["link_pkts"], "count"),
        "net.drops": (rep["link_drops"], "count"),
        "net.drop_ratio": (summary.ratio(rep["link_drops"], rep["link_pkts"]), "fraction"),
        "net.routing_rows": (rep["routing_rows"], "count"),
        "mcast.tree_rebuilds": (rep["tree_rebuilds"], "count"),
        "mcast.groups": (rep["groups"], "count"),
        "traffic.fluid_steps": (rep["fluid_steps"], "count"),
        "traffic.fluid_step_ms_p50": (summary.percentile(fluid_ms, 50), "ms"),
        "traffic.fluid_step_ms_p99": (summary.percentile(fluid_ms, 99), "ms"),
        "traffic.fluid_share": (share("traffic"), "fraction"),
        "transport.delivered_pkts": (rep["delivered_pkts"], "count"),
        "transport.lost_pkts": (rep["lost_pkts"], "count"),
        "transport.reports_received": (rep["reports"], "count"),
        "transport.reports_due": (rep["reports_due"], "count"),
        "transport.report_yield": (summary.ratio(rep["reports"], rep["reports_due"]), "ratio"),
        "topo.samples": (rep["sample_events"], "count"),
        "topo.sample_ms_p50": (summary.percentile(sample_ms, 50), "ms"),
        "topo.self_share": (share("topo"), "fraction"),
        "control.intervals": (rep["intervals"], "count"),
        "control.interval_ms_p50": (summary.percentile(interval_ms, 50), "ms"),
        "control.interval_ms_max": (max(interval_ms, default=0.0), "ms"),
        "control.assembly_ms_p50": (
            summary.percentile([d / 1e6 for d in rep["interval_assembly_ns"]], 50), "ms"),
        "control.send_ms_p50": (
            summary.percentile([d / 1e6 for d in rep["interval_send_ns"]], 50), "ms"),
        "control.interval_share": (
            summary.ratio(sum(rep["interval_ns"]), run_ns), "fraction"),
        "control.report_events": (rep["report_events"], "count"),
        "control.report_event_us_p50": (summary.percentile(report_us, 50), "us"),
        "control.reports": (rep["reports"], "count"),
        "control.suggestions": (rep["suggestions"], "count"),
        "control.sub_changes": (rep["sub_changes"], "count"),
        "control.useful_suggestion_ratio": (
            summary.ratio(rep["sub_changes"], rep["suggestions"]), "ratio"),
        "control.summaries": (rep["summaries"], "count"),
        "control.caps": (rep["caps"], "count"),
        "control.self_share": (share("control"), "fraction"),
        "core.run_interval_ms_p50": (summary.percentile(core_ms, 50), "ms"),
        "core.run_interval_ms_max": (max(core_ms, default=0.0), "ms"),
        "core.nodes_per_interval": (summary.median(rep["core_nodes"]), "count"),
        "core.self_share": (share("core"), "fraction"),
        "trace.self_share": (share("trace"), "fraction"),
    }


def per_layer(workload, seed, seconds):
    checks = Checks()
    deadline = time.monotonic() + seconds
    spans_path = BUILD / f"spans-{workload}-{seed}.tsv"
    untraced_walls = []
    traced_walls = []
    layer_reps = []
    reference = []

    def pair(count):
        plain = driver(workload, seed, "run")
        problems = rep_problems(workload, plain, reference[0] if reference else None)
        checks.record(problems, f"run {count}")
        if problems:
            return False
        reference.append(plain)
        untraced_walls.append(plain["run_wall_s"])
        traced = driver(workload, seed, "trace", "--spans", str(spans_path))
        problems = rep_problems(workload, traced, reference[0])
        checks.record(problems, f"trace {count}")
        if problems:
            return False
        traced_walls.append(traced["run_wall_s"])
        layer_reps.append(
            layer_metrics(traced, summary.read_spans(spans_path), plain))
        return True

    repeat(deadline, 1, pair)
    if not layer_reps:
        return checks, {}
    metrics = {name: (summary.median([rep[name][0] for rep in layer_reps]), unit)
               for name, (_, unit) in layer_reps[0].items()}
    metrics["trace.overhead"] = (
        summary.ratio(summary.median(traced_walls), summary.median(untraced_walls)), "ratio")

    windows = messages = parallel_ratio = 0.0
    if workload == SHARD_WORKLOAD:
        shard = driver(workload, seed, "shard")
        checks.record([] if shard and shard["identical"] else
                      ["sharded star differs between 1 and 2 threads"], "shard")
        if shard:
            windows, messages = shard["windows"], shard["messages"]
            parallel_ratio = summary.ratio(summary.median(shard["wall_1_thread_s"]),
                                           summary.median(shard["wall_2_threads_s"]))
    metrics["sim.shard_windows"] = (windows, "count")
    metrics["sim.shard_msgs"] = (messages, "count")
    metrics["sim.shard_parallel_ratio"] = (parallel_ratio, "ratio")
    return checks, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    measure = per_layer if args.trace else end_to_end
    checks, metrics = measure(args.workload, args.seed, args.seconds)
    correct = checks.failed == 0 and bool(metrics)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
