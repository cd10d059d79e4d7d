#!/usr/bin/env python3
"""Flat profile from a tsprof sample file.

    TSPROF_OUT=prof.txt LD_PRELOAD=build/tools/prof/libtsprof.so ./build/examples/toposense_sim
    python3 tools/prof/report.py prof.txt [--top N]

tsprof.cpp writes one line per distinct sampled address. Addresses inside the
main executable arrive as offsets from its load base; this script names them
with one batched `addr2line -f -C` call, then sums the samples per function
and prints the top N with their share of all samples.
"""

import argparse
import collections
import subprocess
import sys


def parse(path):
    """Returns (exe, total samples, [(count, kind, rest)])."""
    exe, total, rows = None, 0, []
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(" ")
            if head == "exe":
                exe = rest
            elif head == "samples":
                total = int(rest)
            elif head.isdigit():
                kind, _, what = rest.partition(" ")
                rows.append((int(head), kind, what))
    return exe, total, rows


def symbolize(exe, offsets):
    """Function name for each hex offset in the main executable."""
    if not offsets:
        return {}
    proc = subprocess.run(
        ["addr2line", "-f", "-C", "-e", exe, *offsets],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    # addr2line prints two lines per address: the function, then file:line.
    return {offset: lines[2 * i] for i, offset in enumerate(offsets)}


def profile(path):
    """Returns (total samples, Counter of samples per function)."""
    exe, total, rows = parse(path)
    names = symbolize(exe, sorted({what for _, kind, what in rows if kind == "exe"}))
    per_function = collections.Counter()
    for count, kind, what in rows:
        if kind == "exe":
            per_function[names[what]] += count
        else:
            module, _, symbol = what.partition(" ")
            per_function[f"{symbol} [{module.rsplit('/', 1)[-1]}]"] += count
    return total, per_function


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile", help="file written by libtsprof.so (TSPROF_OUT)")
    parser.add_argument("--top", type=int, default=30, help="functions to print")
    args = parser.parse_args()
    total, per_function = profile(args.profile)
    print(f"{total} samples")
    for name, count in per_function.most_common(args.top):
        print(f"{100.0 * count / max(total, 1):6.2f} % {count:8d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
