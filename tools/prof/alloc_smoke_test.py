#!/usr/bin/env python3
"""Smoke test for tsalloc: sample a short run's allocations and check the report.

    alloc_smoke_test.py <libtsalloc.so> <binary> [args...]

Runs the binary with the sampler preloaded, in a scratch directory where it
writes tsalloc.out, and passes when the run made allocations, some were
sampled, and a sampled stack resolves to a tsim:: function.
"""

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import report  # noqa: E402


def main():
    library, command = os.path.abspath(sys.argv[1]), sys.argv[2:]
    command[0] = os.path.abspath(command[0])
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, LD_PRELOAD=library)
        subprocess.run(command, env=env, cwd=scratch, stdout=subprocess.DEVNULL, check=True)
        header, per_stack, per_function = report.alloc_profile(os.path.join(scratch, "tsalloc.out"))
    allocations = int(header.get("allocations", "0"))
    sampled = int(header.get("sampled", "0"))
    simulator = [name for name in per_function if name.startswith("tsim::")]
    print(f"{allocations} allocations, {sampled} sampled in {len(per_stack)} stacks, "
          f"{len(simulator)} tsim:: functions on them")
    for name, count in per_function.most_common(5):
        print(f"  {count:6d}  {name}")
    if allocations == 0 or sampled == 0:
        print("FAIL: expected sampled allocations")
        return 1
    if not simulator:
        print("FAIL: no sampled stack resolved to a tsim:: function")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
