#!/usr/bin/env python3
"""Compare a fresh bench JSON against its committed baseline.

Usage: check_perf_baseline.py CANDIDATE BASELINE [THRESHOLD]

Handles both bench shapes:
  * BENCH_e2e.json — one top-level case (events_per_sec + fingerprint).
  * BENCH_scale.json / BENCH_fault.json — a "cases" array (star_fanout,
    tiered_closed_loop, link_failure_topo_a, ...) plus an optional seed
    "sweep"; every case named in the baseline is gated and must also report
    deterministic=true.

Fails (exit 1) when any gated case has:
  * events_per_sec below baseline/THRESHOLD (default 2.0 — generous on
    purpose: CI runners are noisy and differ from the machine that recorded
    the baseline, so this gates algorithmic regressions, not percent-level
    drift), or
  * a different fingerprint. Fingerprints are machine-independent, so they
    are compared exactly; an intentional behaviour change must re-record the
    baseline (see docs/benchmarking.md), or
  * deterministic=false (scale cases run twice; the two fingerprints must
    agree).

A baseline case without "events_per_sec" (the fault cases, which time no
event loop) is gated on its fingerprint and determinism only.

A baseline case may set "gate": "determinism" to be gated on determinism
alone: no fingerprint pin and no throughput floor, only deterministic=true.
The multi-shard star cases (star_sharded_2/4) use this. Their fingerprints
hash a partitioned topology whose shape is a bench implementation detail, so
re-partitioning is not a behaviour change. How the host schedules the
pool's threads sets their events/s, so a floor on it flakes from host to
host. Every run must still be bit-identical across
thread counts, and the 1-shard case stays exactly pinned (it must reduce to
star_fanout, which bench_runner itself asserts).

Both files must agree on "quick" mode — quick and full workloads are never
comparable.

When the candidate's "host" metadata reports hardware_concurrency == 1 the
throughput floors are skipped entirely (a 1-core runner cannot meaningfully
reproduce a parallel baseline); fingerprint and determinism gates still apply
because they are machine-independent.
"""

import json
import sys


def gate_case(label, candidate, baseline, threshold, failures, skip_throughput=False):
    """Gates one case dict (fingerprint, throughput, determinism)."""
    cand_fp = candidate.get("fingerprint")
    base_fp = baseline.get("fingerprint")
    if candidate.get("deterministic") is False:
        failures.append(f"{label}: run is not deterministic (re-run fingerprint differs)")
    if baseline.get("gate", "exact") == "determinism":
        cand_eps = float(candidate["events_per_sec"])
        print(
            f"perf gate [{label}]: {cand_eps / 1e6:.2f}M events/s "
            f"(determinism gate only), fingerprint {cand_fp}"
        )
        return
    if cand_fp != base_fp:
        failures.append(
            f"{label}: fingerprint changed: {cand_fp} vs baseline {base_fp} — "
            "behaviour changed; if intentional, re-record the baseline"
        )
    if "events_per_sec" not in baseline:
        print(f"perf gate [{label}]: no throughput recorded (fingerprint gate), "
              f"fingerprint {cand_fp}")
        return
    cand_eps = float(candidate["events_per_sec"])
    base_eps = float(baseline["events_per_sec"])
    floor = base_eps / threshold
    if skip_throughput:
        print(
            f"perf gate [{label}]: {cand_eps / 1e6:.2f}M events/s "
            f"(floor skipped: 1-core host), fingerprint {cand_fp}"
        )
        return
    if cand_eps < floor:
        failures.append(
            f"{label}: throughput regression: {cand_eps:.0f} events/s is below "
            f"{floor:.0f} (baseline {base_eps:.0f} / threshold {threshold:g})"
        )
    print(
        f"perf gate [{label}]: {cand_eps / 1e6:.2f}M events/s "
        f"(baseline {base_eps / 1e6:.2f}M, floor {floor / 1e6:.2f}M), "
        f"fingerprint {cand_fp}"
    )


def report_informational(label, candidate):
    """Prints the ungated per-case metrics (peak RSS, fluid event reduction).

    These are recorded for the perf trajectory, not gated: RSS depends on the
    allocator and host, and the event-reduction factor is already enforced by
    bench_runner itself (hard 20x floor on the star_fluid case).
    """
    extras = []
    if "peak_rss_bytes" in candidate:
        extras.append(f"peak_rss={int(candidate['peak_rss_bytes']) / 1e6:.0f}MB")
    if "event_reduction" in candidate:
        extras.append(f"event_reduction={candidate['event_reduction']:.1f}x")
    if extras:
        print(f"perf info [{label}]: {' '.join(extras)}")


def main() -> int:
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        candidate = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)
    threshold = float(sys.argv[3]) if len(sys.argv) == 4 else 2.0

    failures = []
    if candidate.get("quick") != baseline.get("quick"):
        failures.append(
            f"mode mismatch: candidate quick={candidate.get('quick')} "
            f"vs baseline quick={baseline.get('quick')}"
        )

    # The scale bench records the runner's core count; on a 1-core host the
    # throughput floor compares apples to oranges (the baseline was recorded
    # with real parallelism), so only the determinism and fingerprint gates
    # apply there — those are machine-independent.
    host = candidate.get("host") or {}
    one_core = host.get("hardware_concurrency") == 1
    if one_core:
        print("perf gate: candidate host reports hardware_concurrency=1 — "
              "skipping throughput floors, keeping fingerprint/determinism gates")

    if "cases" in baseline:
        # Scale tier: gate every case the baseline pins, by name.
        cand_cases = {c.get("name"): c for c in candidate.get("cases", [])}
        for base_case in baseline["cases"]:
            name = base_case.get("name")
            cand_case = cand_cases.get(name)
            if cand_case is None:
                failures.append(f"{name}: case missing from candidate")
                continue
            gate_case(name, cand_case, base_case, threshold, failures,
                      skip_throughput=one_core)
            report_informational(name, cand_case)
        base_sweep = baseline.get("sweep")
        cand_sweep = candidate.get("sweep")
        if base_sweep is not None:
            if cand_sweep is None:
                failures.append("sweep: missing from candidate")
            else:
                if cand_sweep.get("deterministic") is False:
                    failures.append("sweep: run is not deterministic")
                base_fps = {r["seed"]: r["fingerprint"] for r in base_sweep.get("results", [])}
                cand_fps = {r["seed"]: r["fingerprint"] for r in cand_sweep.get("results", [])}
                for seed, fp in base_fps.items():
                    if cand_fps.get(seed) != fp:
                        failures.append(
                            f"sweep seed {seed}: fingerprint changed: "
                            f"{cand_fps.get(seed)} vs baseline {fp}"
                        )
                print(
                    f"perf gate [sweep]: {len(base_fps)} seed fingerprints compared, "
                    f"deterministic={cand_sweep.get('deterministic')}"
                )
    else:
        gate_case("e2e", candidate, baseline, threshold, failures)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
