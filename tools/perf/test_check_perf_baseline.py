#!/usr/bin/env python3
"""Tests of check_perf_baseline.py's gates (stdlib unittest).

    python3 -B tools/perf/test_check_perf_baseline.py

Each test writes a candidate and a baseline bench JSON to a temporary
directory, runs the checker on them as CI does, and asserts its exit code
and the failure it names.
"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CHECKER = Path(__file__).resolve().parent / "check_perf_baseline.py"


def case(name, fingerprint="aaaa000000000001", events_per_sec=10e6, **extra):
    return {"name": name, "events_per_sec": events_per_sec, "fingerprint": fingerprint,
            "deterministic": True, **extra}


def scale(cases, quick=True, cores=4):
    return {"bench": "scale", "quick": quick, "host": {"hardware_concurrency": cores},
            "cases": cases}


class CheckPerfBaselineTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.baseline = scale([
            case("star_fanout"),
            case("star_sharded_2", fingerprint="bbbb000000000002", events_per_sec=14e6,
                 gate="determinism"),
        ])

    def check(self, candidate, baseline=None):
        """Runs the checker; returns (exit code, stdout + stderr)."""
        paths = []
        for label, doc in (("candidate", candidate), ("baseline", baseline or self.baseline)):
            path = Path(self.tmp.name) / f"{label}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        proc = subprocess.run([sys.executable, "-B", str(CHECKER), *paths],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def candidate(self):
        return copy.deepcopy(self.baseline)

    def test_identical_run_passes(self):
        code, out = self.check(self.candidate())
        self.assertEqual(code, 0, out)

    def test_exact_fingerprint_mismatch_fails(self):
        cand = self.candidate()
        cand["cases"][0]["fingerprint"] = "ffff000000000000"
        code, out = self.check(cand)
        self.assertEqual(code, 1, out)
        self.assertIn("star_fanout: fingerprint changed", out)

    def test_determinism_gate_ignores_fingerprint_and_throughput(self):
        # A re-partitioned, slow multi-shard run: neither pinned nor floored.
        cand = self.candidate()
        cand["cases"][1]["fingerprint"] = "ffff000000000000"
        cand["cases"][1]["events_per_sec"] = 1.0
        code, out = self.check(cand)
        self.assertEqual(code, 0, out)
        self.assertIn("star_sharded_2", out)
        self.assertIn("determinism gate only", out)

    def test_throughput_floor_applies_to_exact_cases(self):
        cand = self.candidate()
        cand["cases"][0]["events_per_sec"] = 1.0
        code, out = self.check(cand)
        self.assertEqual(code, 1, out)
        self.assertIn("star_fanout: throughput regression", out)

    def test_nondeterministic_run_fails_under_either_gate(self):
        for index, name in enumerate(("star_fanout", "star_sharded_2")):
            with self.subTest(case=name):
                cand = self.candidate()
                cand["cases"][index]["deterministic"] = False
                code, out = self.check(cand)
                self.assertEqual(code, 1, out)
                self.assertIn(f"{name}: run is not deterministic", out)

    def test_one_core_host_skips_floors_but_keeps_fingerprints(self):
        cand = self.candidate()
        cand["host"]["hardware_concurrency"] = 1
        cand["cases"][0]["events_per_sec"] = 1.0
        code, out = self.check(cand)
        self.assertEqual(code, 0, out)
        self.assertIn("floor skipped: 1-core host", out)

        cand["cases"][0]["fingerprint"] = "ffff000000000000"
        code, out = self.check(cand)
        self.assertEqual(code, 1, out)
        self.assertIn("star_fanout: fingerprint changed", out)

    def test_quick_full_mismatch_fails(self):
        cand = self.candidate()
        cand["quick"] = False
        code, out = self.check(cand)
        self.assertEqual(code, 1, out)
        self.assertIn("mode mismatch", out)

    def test_case_without_throughput_is_gated_on_fingerprint_only(self):
        # A fault case records no events/s: its fingerprint and determinism
        # are still pinned, and nothing asks for a throughput.
        fault = {"name": "link_failure_topo_a", "fingerprint": "cccc000000000003",
                 "deterministic": True}
        baseline = {"bench": "fault", "quick": True, "cases": [fault]}
        code, out = self.check(copy.deepcopy(baseline), baseline)
        self.assertEqual(code, 0, out)
        self.assertIn("no throughput recorded", out)

        cand = copy.deepcopy(baseline)
        cand["cases"][0]["fingerprint"] = "ffff000000000000"
        code, out = self.check(cand, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("link_failure_topo_a: fingerprint changed", out)

        cand = copy.deepcopy(baseline)
        cand["cases"][0]["deterministic"] = False
        code, out = self.check(cand, baseline)
        self.assertEqual(code, 1, out)
        self.assertIn("link_failure_topo_a: run is not deterministic", out)

    def test_missing_case_fails(self):
        cand = self.candidate()
        del cand["cases"][1]
        code, out = self.check(cand)
        self.assertEqual(code, 1, out)
        self.assertIn("star_sharded_2: case missing from candidate", out)


if __name__ == "__main__":
    unittest.main()
