#!/usr/bin/env python3
"""Cross-file link test for toposense_hotpath.

Runs the analyzer on the fixture's files in two halves and then together,
and asserts the heap allocation in b.cpp is reported as reachable from the
HOT_PATH root whose annotation sits on a declaration in shared.hpp and whose
definition sits in a.cpp. Each file is summarized on its own, so the finding
can only exist if annotation merging and call-edge resolution work across
file summaries; either half alone reports nothing.

Usage: check_cross_tu.py <toposense_hotpath> <fixture_dir>
"""

import os
import subprocess
import sys


def run(args):
    return subprocess.run(args, capture_output=True, text=True, check=False)


def main():
    tool, fixture = sys.argv[1], sys.argv[2]
    src = os.path.join(fixture, "src")
    a = [os.path.join(src, "a.cpp"), os.path.join(src, "shared.hpp")]
    b = [os.path.join(src, "b.cpp")]

    # Each half alone must be clean: a.cpp has the root but no violation,
    # b.cpp has the violation but no root.
    for half in (a, b):
        proc = run([tool] + half)
        if proc.returncode != 0:
            print(f"{' '.join(map(os.path.basename, half))} alone should be clean:")
            print(proc.stdout, proc.stderr)
            return 1

    # Together, the link step joins the halves into one finding.
    proc = run([tool] + a + b)
    if proc.returncode != 1:
        print("expected exit 1 from the linked files, got", proc.returncode)
        print(proc.stdout, proc.stderr)
        return 1
    wanted = "[hotpath/heap-alloc]"
    chain = "fx::Root::run -> fx::Worker::spin"
    if wanted not in proc.stdout or chain not in proc.stdout:
        print("missing cross-file finding or chain in output:")
        print(proc.stdout)
        return 1
    if "1 new finding(s)" not in proc.stdout:
        print("expected exactly one finding:")
        print(proc.stdout)
        return 1
    print("cross-file link OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
