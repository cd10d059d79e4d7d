#!/usr/bin/env python3
"""Reports from the tools/prof samplers: a flat time profile from tsprof, or
allocation counts by call stack from tsalloc.

    TSPROF_OUT=prof.txt LD_PRELOAD=build/tools/prof/libtsprof.so ./build/examples/toposense_sim
    python3 tools/prof/report.py prof.txt [--top N]

    LD_PRELOAD=build/tools/prof/libtsalloc.so ./build/examples/toposense_sim
    python3 tools/prof/report.py tsalloc.out [--top N]

tsprof.cpp writes one line per distinct sampled address. Addresses inside the
main executable arrive as offsets from its load base; this script names them
with one batched `addr2line -f -C` call, then sums the samples per function
and prints the top N with their share of all samples.

tsalloc.cpp writes the exact allocation totals and, per sampled call stack,
the sampled calls and bytes. This script names each main-executable frame
with its inlined callers (`addr2line -i`), then prints the functions that
appear on the most sampled stacks, with the calls that estimates (samples
times the period), and the top call sites, each named by its two innermost
tsim:: frames.
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


def parse_alloc(path):
    """Returns (header dict, [(count, bytes, [(kind, what)])]) of a tsalloc file."""
    header, stacks = {}, []
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(" ")
            if head == "stack":
                count, size = rest.split()
                stacks.append((int(count), int(size), []))
            elif stacks:  # the header ends at the first stack; frames follow it
                stacks[-1][2].append((head, rest))
            else:
                header[head] = rest
    return header, stacks


def symbolize_inlined(exe, offsets):
    """Function names for each hex offset, innermost inlined frame first."""
    if not offsets:
        return {}
    proc = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe, *offsets],
        capture_output=True,
        text=True,
        check=True,
    )
    # -a starts each address's group with the address; then a function line
    # and a file:line line per frame of the inlined chain.
    groups = []
    for line in proc.stdout.splitlines():
        if line.startswith("0x"):
            groups.append([])
        elif groups:
            groups[-1].append(line)
    return {offset: group[0::2] for offset, group in zip(offsets, groups)}


def alloc_profile(path):
    """Returns (header, Counter of samples per stack, Counter per function).

    A stack is a tuple of function names, innermost first. A function counts
    once per sampled call it is on the stack of, so the per-function numbers
    are inclusive.
    """
    header, stacks = parse_alloc(path)
    exe = header.get("exe", "")
    offsets = sorted({what for _, _, frames in stacks for kind, what in frames if kind == "exe"})
    names = symbolize_inlined(exe, offsets)
    per_stack, per_function = collections.Counter(), collections.Counter()
    for count, _, frames in stacks:
        resolved = []
        for kind, what in frames:
            if kind == "exe":
                resolved.extend(names[what])
            else:
                module, _, symbol = what.partition(" ")
                resolved.append(f"{symbol} [{module.rsplit('/', 1)[-1]}]")
        per_stack[tuple(resolved)] += count
        for name in set(resolved):
            per_function[name] += count
    return header, per_stack, per_function


# Frames that name an allocation site: the allocating function and its caller.
SITE_DEPTH = 2


def short_name(function):
    """A function name without its parameter list."""
    head, paren, _ = function.partition("(")
    return head + "()" if paren and head.endswith("::operator") else head


def report_alloc(path, top):
    header, per_stack, per_function = alloc_profile(path)
    period = int(header.get("period", "1"))
    sampled = max(int(header.get("sampled", "0")), 1)
    print(f"{header.get('allocations', '?')} allocations, {header.get('bytes', '?')} bytes; "
          f"1 in {period} sampled: {sampled} samples in {len(per_stack)} stacks "
          f"({header.get('dropped', '0')} dropped)")
    print("tsim:: functions by sampled calls on their stack (est. = samples x period):")
    simulator = collections.Counter(
        {name: count for name, count in per_function.items() if name.startswith("tsim::")})
    for name, count in simulator.most_common(top):
        print(f"{100.0 * count / sampled:6.2f} % {count * period:10d} est.  {name}")
    print(f"top stacks by their innermost {SITE_DEPTH} tsim:: frames:")
    per_site = collections.Counter()
    for stack, count in per_stack.items():
        site = [short_name(f) for f in stack if f.startswith("tsim::")][:SITE_DEPTH]
        per_site[" < ".join(site) or "(no tsim:: frame)"] += count
    for site, count in per_site.most_common(top):
        print(f"{100.0 * count / sampled:6.2f} % {count * period:10d} est.  {site}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile", help="file written by libtsprof.so or libtsalloc.so")
    parser.add_argument("--top", type=int, default=30, help="functions (and stacks) to print")
    args = parser.parse_args()
    with open(args.profile, encoding="utf-8", errors="replace") as handle:
        if handle.readline().startswith("# tsalloc"):
            report_alloc(args.profile, args.top)
            return 0
    total, per_function = profile(args.profile)
    print(f"{total} samples")
    for name, count in per_function.most_common(args.top):
        print(f"{100.0 * count / max(total, 1):6.2f} % {count:8d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
