#!/usr/bin/env python3
"""Self-tests of the benchmark itself, kept out of the repository's pytest run.

    python3 benchmarks/selftest.py

They assert no timing, so machine noise cannot fail them.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
import unittest

import run

import checks
import spans

sys.path.insert(0, str(run.SRC))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("toy.inner", lambda: time.sleep(0.01))

        def outer_body():
            time.sleep(0.02)
            inner()
            inner()

        outer = tracer.wrap("toy.outer", outer_body)
        outer()
        stats = tracer.stats()
        outer_calls, outer_self, outer_total = stats["toy.outer"]
        inner_calls, inner_self, inner_total = stats["toy.inner"]
        self.assertEqual((outer_calls, inner_calls), (1, 2))
        self.assertEqual(inner_self, inner_total)
        self.assertAlmostEqual(outer_self + inner_total, outer_total, places=12)
        self.assertGreaterEqual(outer_self, 0.02)
        self.assertGreaterEqual(inner_total, 0.02)
        # rows are written at span end: inner, inner, outer; both inners name outer as parent
        rows = [tuple(tracer.spans[k:k + 6]) for k in range(0, len(tracer.spans), 6)]
        outer_id = rows[2][1]
        self.assertEqual([r[3] for r in rows], [outer_id, outer_id, -1])

    def test_install_wraps_every_namespace_and_restores(self):
        from liesphere import indefinite, polygon, quadric, report

        originals = (report.random_lie_transform, report.lie_curvature,
                     polygon.lie_curvature, report._SUITES["dji_kernels"])
        self.assertIs(originals[0], indefinite.random_lie_transform)
        with spans.Tracer().installed():
            self.assertIsNot(report.random_lie_transform, originals[0])
            self.assertIs(report.random_lie_transform, indefinite.random_lie_transform)
            self.assertIs(polygon.lie_curvature, quadric.lie_curvature)
            self.assertIsNot(polygon.lie_curvature, originals[2])
            self.assertIsNot(report._SUITES["dji_kernels"], originals[3])
        self.assertEqual((report.random_lie_transform, report.lie_curvature,
                          polygon.lie_curvature, report._SUITES["dji_kernels"]), originals)

    def test_missing_name_fails_loudly(self):
        from liesphere import quadric

        saved, before = spans.TRACED["quadric"], quadric.lie_curvature
        spans.TRACED["quadric"] = saved + ("no_such_function",)
        try:
            with self.assertRaises(LookupError):
                with spans.Tracer().installed():
                    pass
        finally:
            spans.TRACED["quadric"] = saved
        self.assertIs(quadric.lie_curvature, before)


class Checker(unittest.TestCase):
    def test_flipped_status_is_flagged(self):
        from liesphere import cli

        with open(run.HERE / "refs.json", encoding="utf-8") as handle:
            reference = json.load(handle)["verify"]["dji_kernels"]
        run.OUT.mkdir(exist_ok=True)
        path = str(run.OUT / "selftest-report.json")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--suite", "dji_kernels", "--seed", "3", "--out", path])
        self.assertEqual(checks.check_verify(reference, code, buf.getvalue(), path, 3), [])
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["cases"][4]["status"] = "fail"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        problems = checks.check_verify(reference, code, buf.getvalue(), path, 3)
        self.assertIn("verdict digest differs from the reference", problems)
        self.assertTrue(checks.check_verify(reference, 1, buf.getvalue(), path, 3))

    def test_missing_or_wrong_survivor_is_flagged(self):
        reference = [0.1, 0.2, 0.3]
        good = [(0.3, True), (0.1, True), (0.2 + 5e-7, True)]
        self.assertEqual(checks.check_survivors(reference, good), [])
        self.assertTrue(checks.check_survivors(reference, good[:2]))
        self.assertTrue(checks.check_survivors(reference, [(0.1, True), (0.2, False),
                                                           (0.3, True)]))
        self.assertTrue(checks.check_survivors(reference, [(0.1, True), (0.2 + 2e-6, True),
                                                           (0.3, True)]))
        self.assertTrue(checks.check_survivors([], [(0.1, True)]))

    def test_search_stdout_is_parsed(self):
        text = ("2 survivor(s) at residual <= 1e-06\n"
                "  [0] theta1=0.52359878 residual=1.00e-12 parallel=True\n"
                "      odd gaps: ['1.047198']\n"
                "  [1] theta1=0.61000000 residual=3.00e-11 parallel=False\n")
        self.assertEqual(checks.parse_search_stdout(text),
                         (2, [(0.52359878, True), (0.61, False)]))
        self.assertTrue(checks.check_search([0.52359878, 0.61], 0, text))


class Metrics(unittest.TestCase):
    def setUp(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            self.spec = json.load(handle)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_declared_metrics_match_the_code(self):
        self.assertEqual(self.declared("end_to_end"), run.END_TO_END_UNITS)
        self.assertEqual(self.declared("per_layer"), run.PER_LAYER_UNITS)

    def test_every_metric_prints_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                                   "--workload", "checks", "--seed", "5",
                                   "--seconds", "0", "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=170, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(units, self.declared(key))
            for name, unit in units.items():
                self.assertTrue(any(line.startswith(name + " ") and f" {unit}" in line
                                    for line in lines[:-1]), name)


if __name__ == "__main__":
    unittest.main()
