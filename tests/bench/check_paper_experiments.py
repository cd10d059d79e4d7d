#!/usr/bin/env python3
"""Pins the output of paper_experiments.

    check_paper_experiments.py <paper_experiments> <golden>

Runs every experiment in quick mode (TOPOSENSE_BENCH_QUICK=1) and compares
stdout with the golden file, printing a unified diff on a mismatch. Then
checks the command line: named experiments print in the order given, and an
unknown name lists the valid ones on stderr and exits 2.
"""

import difflib
import os
import re
import subprocess
import sys

# Every experiment's output opens with a banner: a rule, "<figure> — <what>",
# the duration line and a second rule.
BANNER = re.compile(r"^={62}\n(?=.* — .*\nduration: )", re.MULTILINE)


def run(command):
    env = dict(os.environ, TOPOSENSE_BENCH_QUICK="1")
    return subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def differs(expected, actual, label):
    if expected == actual:
        return False
    sys.stdout.writelines(difflib.unified_diff(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True),
        "golden", label))
    return True


def main():
    binary, golden_path = sys.argv[1], sys.argv[2]
    with open(golden_path, encoding="utf-8") as f:
        golden = f.read()
    failed = False

    full = run([binary])
    if full.returncode != 0:
        print(f"FAIL: paper_experiments exited {full.returncode}\n{full.stderr}")
        return 1
    failed |= differs(golden, full.stdout, "paper_experiments")

    unknown = run([binary, "no_such_experiment"])
    names = [line.strip() for line in unknown.stderr.splitlines()[1:]]
    if unknown.returncode != 2:
        print(f"FAIL: an unknown name exited {unknown.returncode}, expected 2")
        failed = True

    starts = [m.start() for m in BANNER.finditer(golden)]
    sections = [golden[a:b] for a, b in zip(starts, starts[1:] + [len(golden)])]
    if len(names) != len(sections):
        print(f"FAIL: stderr lists {len(names)} experiments, the golden file "
              f"has {len(sections)}")
        return 1
    picked = run([binary, names[-1], names[0]])
    failed |= differs(sections[-1] + sections[0], picked.stdout,
                      f"paper_experiments {names[-1]} {names[0]}")

    if failed:
        print("FAIL: paper_experiments output differs from " + golden_path)
        return 1
    print(f"ok: {len(sections)} experiments match {golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
