#!/usr/bin/env python3
"""Pins the quick e2e, fault and scale fingerprints of bench_runner.

    check_bench_fingerprints.py <bench_runner> <check_perf_baseline.py> <baselines dir>

Runs `bench_runner --quick --e2e`, `bench_runner --fault --quick` and
`bench_runner --scale --quick` into a temporary directory and checks each
output against its committed baseline with threshold inf: fingerprints and
determinism are compared exactly, and no throughput floor applies (those stay
in CI, on the hosts they were set for).
"""

import os
import subprocess
import sys
import tempfile

RUNS = (
    (["--quick", "--e2e"], "BENCH_e2e.json", "e2e_quick_baseline.json"),
    (["--fault", "--quick"], "BENCH_fault.json", "fault_quick_baseline.json"),
    (["--scale", "--quick"], "BENCH_scale.json", "scale_quick_baseline.json"),
)


def main():
    bench_runner, checker, baselines = sys.argv[1:4]
    failed = False
    with tempfile.TemporaryDirectory() as out:
        for flags, output, baseline in RUNS:
            subprocess.run([bench_runner, *flags, "--out", out], check=True,
                           stdout=subprocess.DEVNULL)
            gate = subprocess.run([sys.executable, "-B", checker, os.path.join(out, output),
                                   os.path.join(baselines, baseline), "inf"])
            failed |= gate.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
