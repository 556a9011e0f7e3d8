#!/usr/bin/env python3
"""Tests of the avsec benchmark itself.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), runs its C++ self-test
(avsec_perfbench_selftest: seeded inputs repeat, percentiles need ten
samples beyond them, failed_frac divides by attempts, metric names are well
formed), and checks BENCHMARK.json against the metrics and workloads the
benchmark declares.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SELFTEST = os.path.join(run.BUILD, "avsec_perfbench_selftest")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(["avsec_perfbench", "avsec_perfbench_selftest"])
        cls.bench = run.load_benchmark()
        out = subprocess.run([SELFTEST, "--print-metrics"], check=True,
                             capture_output=True, text=True).stdout
        cls.workloads = []
        cls.declared = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, *unit = line.split()
            if kind == "workload":
                cls.workloads.append(name)
            else:
                cls.declared[kind].append((name, unit[0]))

    def test_selftest_passes(self):
        done = subprocess.run([SELFTEST], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_benchmark_json_names_the_declared_metrics(self):
        for kind in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"]) for m in self.bench[kind]]
            self.assertEqual(listed, self.declared[kind], kind)

    def test_benchmark_json_names_the_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         self.workloads)

    def test_names_and_units_are_well_formed_and_unique(self):
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in self.bench[k]]
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for kind in ("end_to_end", "per_layer"):
            for m in self.bench[kind]:
                self.assertRegex(m["unit"], UNIT_RE)
                self.assertIn(m["better"], ("lower", "higher"))

    def test_end_to_end_bounds(self):
        bounds = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"]["unit"], "s")
        self.assertEqual(bounds["setup_s"]["better"], "lower")
        for m in bounds.values():
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
            self.assertLessEqual(m["bound"], bounds["setup_s"]["bound"])

    def test_result_line_check_rejects_undeclared_metrics(self):
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"nope": {"value": 1.0, "unit": "s"}}})
        with self.assertRaises(SystemExit):
            run.check_result(line, self.bench, trace=False)


if __name__ == "__main__":
    unittest.main()
