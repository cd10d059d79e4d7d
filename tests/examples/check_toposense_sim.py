#!/usr/bin/env python3
"""Checks how toposense_sim handles its command line and unbuildable files.

    check_toposense_sim.py <toposense_sim>

Runs the binary on bad positional arguments (a duration that is not a
number of seconds in (0, 9.2e9], an unknown traffic model, a fourth
argument), on a directory in place of a file and on a topology with a
receiver its source cannot reach. Each must exit with its documented code
and name the problem on stderr. A fractional duration must run for exactly
that long, and a valid 5 s run must still exit 0.
"""

import os
import subprocess
import sys
import tempfile

VALID = """node src
node r
link src r 1Mbps 10ms
source 0 src
receiver r 0
controller src
"""

# `island` has no link, so the source cannot reach the receiver on line 5.
UNREACHABLE = """node src
node island
node r
link src r 1Mbps 10ms
receiver island 0
source 0 src
controller src
"""

TIMEOUT_S = 60


def run(command):
    try:
        return subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def main():
    binary = sys.argv[1]
    failed = False

    def check(args, code, needle, stream="stderr"):
        nonlocal failed
        proc = run([binary] + args)
        label = " ".join(os.path.basename(a) for a in args)
        if proc is None:
            print(f"FAIL: toposense_sim {label}: still running after {TIMEOUT_S} s")
            failed = True
            return
        text = proc.stderr if stream == "stderr" else proc.stdout
        if proc.returncode != code or needle not in text:
            print(f"FAIL: toposense_sim {label}: exit {proc.returncode} (expected {code}), "
                  f"{stream} lacks {needle!r}\n{proc.stdout}{proc.stderr}")
            failed = True

    with tempfile.TemporaryDirectory() as tmp:
        valid = os.path.join(tmp, "valid.txt")
        unreachable = os.path.join(tmp, "unreachable.txt")
        with open(valid, "w", encoding="utf-8") as f:
            f.write(VALID)
        with open(unreachable, "w", encoding="utf-8") as f:
            f.write(UNREACHABLE)

        for duration in ("abc", "0", "-5", "99999999999", "inf", "nan", "5s"):
            check([valid, duration], 2, f"bad duration '{duration}'")
        check([valid, "5", "vbr4"], 2, "unknown traffic model 'vbr4'")
        check([valid, "5", "cbr", "extra"], 2, "too many arguments")
        check([tmp, "5"], 1, f"error: cannot read '{tmp}'")
        check([unreachable, "5"], 1,
              f"error: {unreachable}: line 5: receiver 'island' unreachable from source")

        check([valid, "3.5"], 0, "toposense_sim: " + valid + ", 3.5 s, CBR", "stdout")
        for model, banner in (("cbr", "CBR"), ("vbr3", "VBR(P=3)"), ("vbr6", "VBR(P=6)")):
            check([valid, "5", model], 0, f", 5 s, {banner}", "stdout")

    if failed:
        return 1
    print("ok: toposense_sim refuses bad arguments and unbuildable topologies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
