#!/usr/bin/env python3
"""Smoke test for tsprof: profile a short binary and check the report.

    smoke_test.py <libtsprof.so> <binary> [args...]

Runs the binary with the profiler preloaded and passes when the profile
holds at least 100 samples and at least one of them resolves to a tsim::
function.
"""

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import report  # noqa: E402

MIN_SAMPLES = 100


def main():
    library, command = sys.argv[1], sys.argv[2:]
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "prof.txt")
        env = dict(os.environ, LD_PRELOAD=os.path.abspath(library), TSPROF_OUT=out)
        subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True)
        total, per_function = report.profile(out)
    simulator = [name for name in per_function if name.startswith("tsim::")]
    print(f"{total} samples, {len(per_function)} functions, {len(simulator)} in tsim::")
    for name, count in per_function.most_common(5):
        print(f"  {count:6d}  {name}")
    if total < MIN_SAMPLES:
        print(f"FAIL: expected at least {MIN_SAMPLES} samples")
        return 1
    if not simulator:
        print("FAIL: no sample resolved to a tsim:: function")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
