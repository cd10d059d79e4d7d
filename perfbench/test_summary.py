"""Tests of the benchmark's summary math. Run: python3 perfbench/test_summary.py"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summary  # noqa: E402
from summary import Span  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(summary.percentile(values, 50), 50)
        self.assertEqual(summary.percentile(values, 99), 99)
        self.assertEqual(summary.percentile(values, 100), 100)

    def test_sample_count_sets_the_rank(self):
        # Below 100 samples p99 is the maximum; with 1000 it is not.
        self.assertEqual(summary.percentile(list(range(1, 21)), 99), 20)
        self.assertEqual(summary.percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(summary.percentile([7.0], 50), 7.0)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(summary.percentile([5, 1, 3], 50), 3)

    def test_empty_sample(self):
        self.assertEqual(summary.percentile([], 50), 0.0)


class JainTest(unittest.TestCase):
    def test_equal_shares_are_perfectly_fair(self):
        self.assertEqual(summary.jain_index([0.8, 0.8, 0.8]), 1.0)

    def test_one_party_takes_everything(self):
        self.assertAlmostEqual(summary.jain_index([1.0, 0.0, 0.0, 0.0]), 0.25)

    def test_matches_the_formula(self):
        self.assertAlmostEqual(summary.jain_index([1.0, 2.0, 3.0]), 36.0 / 42.0)

    def test_degenerate_inputs(self):
        self.assertEqual(summary.jain_index([]), 1.0)
        self.assertEqual(summary.jain_index([0.0, 0.0]), 1.0)


class ProtocolAggregationTest(unittest.TestCase):
    def test_relative_deviation_is_the_receiver_mean(self):
        self.assertAlmostEqual(summary.mean_relative_deviation([0.1, 0.3, 0.2]), 0.2)
        self.assertEqual(summary.mean_relative_deviation([]), 0.0)

    def test_changes_per_receiver_minute(self):
        self.assertAlmostEqual(summary.changes_per_receiver_minute(120, 10, 60.0), 12.0)
        self.assertAlmostEqual(summary.changes_per_receiver_minute(120, 10, 30.0), 24.0)
        self.assertEqual(summary.changes_per_receiver_minute(5, 0, 60.0), 0.0)

    def test_ratio_with_empty_base(self):
        self.assertEqual(summary.ratio(3, 0), 0.0)
        self.assertEqual(summary.ratio(3, 4), 0.75)


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        Span(0, -1, "sim.run", 0, 100),
        Span(1, 0, "control.interval", 10, 40),
        Span(2, 1, "core.run_interval", 20, 30),
        Span(3, 0, "control.report", 35, 60),  # overlaps its sibling: counted once
        Span(4, 0, "traffic.fluid_step", 90, 120),  # runs past its parent: clipped
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = summary.self_times(self.SPANS)
        self.assertEqual(own[0], 100 - 50 - 10)
        self.assertEqual(own[1], 30 - 10)
        self.assertEqual(own[2], 10)
        self.assertEqual(own[3], 25)
        self.assertEqual(own[4], 30)

    def test_layer_totals(self):
        layers = summary.layer_self_times(self.SPANS)
        self.assertEqual(layers, {"sim": 40, "control": 45, "core": 10, "traffic": 30})

    def test_span_file_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("id\tparent\tname\tstart_ns\tend_ns\n")
                for s in self.SPANS:
                    f.write(f"{s.id}\t{s.parent}\t{s.name}\t{s.start}\t{s.end}\n")
            self.assertEqual(summary.read_spans(path), self.SPANS)
        self.assertEqual(summary.durations(self.SPANS, "control.report"), [25])


if __name__ == "__main__":
    unittest.main()
