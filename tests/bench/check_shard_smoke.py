#!/usr/bin/env python3
"""Bounds `bench_runner --shard-smoke` on a one-CPU affinity mask.

    check_shard_smoke.py <bench_runner>

The smoke runs a 4-shard star on a pool sized to the CPUs the process may
use, then again with one thread per shard as a determinism cross-check. On a
one-CPU mask that second run puts four threads on one CPU, so a pool whose
waiting threads keep the CPU from the thread they wait for stalls there.

Runs the smoke unmasked and with the child pinned to one CPU, alternating.
Every run must exit 0 and print deterministic=yes, and the slowest pinned
run may take at most BOUND times the median unmasked run's wall time.
"""

import os
import statistics
import subprocess
import sys
import time

PAIRS = 5
BOUND = 20.0


def timed_run(bench_runner, cpu):
    """Runs the smoke once, pinned to `cpu` unless it is None; returns its wall time."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    start = time.perf_counter()
    run = subprocess.run([bench_runner, "--shard-smoke"], capture_output=True, text=True,
                         preexec_fn=pin)
    wall = time.perf_counter() - start
    where = "unmasked" if cpu is None else f"on CPU {cpu}"
    if run.returncode != 0 or "deterministic=yes" not in run.stdout:
        sys.exit(f"shard smoke {where} failed (exit {run.returncode}):\n"
                 f"{run.stdout}{run.stderr}")
    return wall


def main():
    bench_runner = sys.argv[1]
    cpu = min(os.sched_getaffinity(0))
    unmasked, pinned = [], []
    for _ in range(PAIRS):
        unmasked.append(timed_run(bench_runner, None))
        pinned.append(timed_run(bench_runner, cpu))
    median = statistics.median(unmasked)
    slowest = max(pinned)
    print(f"unmasked wall: median {median * 1e3:.1f} ms of "
          f"{', '.join(f'{w * 1e3:.1f}' for w in unmasked)}")
    print(f"on CPU {cpu}: slowest {slowest * 1e3:.1f} ms of "
          f"{', '.join(f'{w * 1e3:.1f}' for w in pinned)}")
    if slowest > BOUND * median:
        print(f"FAIL: slowest one-CPU run is {slowest / median:.1f}x the unmasked median "
              f"(bound {BOUND:.0f}x)")
        return 1
    print(f"ok: {slowest / median:.1f}x (bound {BOUND:.0f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
