"""Summary math of the benchmark, kept apart from run.py so that
test_summary.py can check it without building anything.

A tail percentile is only as good as the samples it rests on, so run.py
reports every percentile next to its sample count. Self time is a span's
duration minus the part of it that its children cover.
"""

import math
import statistics
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "id parent name start end")


def percentile(values, q):
    """Nearest-rank ``q``-th percentile of ``values`` (0 < q <= 100); 0.0
    for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def jain_index(values):
    """Jain's fairness index (sum x)^2 / (n * sum x^2); 1.0 when all are equal."""
    squares = sum(v * v for v in values)
    if not values or squares == 0.0:
        return 1.0
    total = sum(values)
    return total * total / (len(values) * squares)


def mean_relative_deviation(deviations):
    """The paper's per-receiver relative deviation, averaged over receivers."""
    return statistics.fmean(deviations) if deviations else 0.0


def changes_per_receiver_minute(changes, receivers, window_s):
    """Subscription changes per receiver per simulated minute."""
    if receivers == 0 or window_s <= 0:
        return 0.0
    return changes / receivers / (window_s / 60.0)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def read_spans(path):
    """Spans from the driver's tab-separated span file."""
    spans = []
    with open(path, encoding="utf-8") as f:
        next(f)  # header
        for line in f:
            sid, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append(Span(int(sid), int(parent), name, int(start), int(end)))
    return spans


def self_times(spans):
    """Self time of each span by id: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for start, end in sorted(children[s.id]):
            start = max(start, cursor)
            end = min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result[s.id] = (s.end - s.start) - covered
    return result


def layer_of(name):
    """A span's layer is the part of its name before the first dot."""
    return name.split(".", 1)[0]


def layer_self_times(spans):
    """Self time summed per layer."""
    own = self_times(spans)
    layers = defaultdict(int)
    for s in spans:
        layers[layer_of(s.name)] += own[s.id]
    return dict(layers)


def durations(spans, name):
    """Durations of every span called ``name``."""
    return [s.end - s.start for s in spans if s.name == name]
