"""Self-tests of the benchmark: generator determinism, the cost helpers,
the correctness gate, trace accounting and the output contract.

    python3 -m unittest discover -s bench -t bench     # or: pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from workloads import (WORKLOADS, columns, delay, digest, make_ops,  # noqa: E402
                       period_bound)

anum = worker.import_anum()


def bench_run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class GeneratorTest(unittest.TestCase):
    def test_digest_depends_on_seed_only(self):
        for workload in WORKLOADS:
            first = digest(make_ops(workload, 7))
            self.assertEqual(first, digest(make_ops(workload, 7)), workload)
            self.assertNotEqual(first, digest(make_ops(workload, 8)), workload)

    def test_cost_helpers_match_the_library(self):
        for p, d, r in [(5, 4, 2), (5, 4, 61), (7, 6, 4), (13, 12, 7), (13, 1, 24),
                        (17, 4, 13), (23, 11, 22)]:
            params = anum.TowerParams(p, d, r)
            model = anum.closed_model(params)
            self.assertEqual(period_bound(p, d, r), model.claimed_period)
            self.assertEqual(delay(p, d, r), model.delay)
            for n in range(1, 5):
                self.assertEqual(columns(p, d, r, n),
                                 anum.last_column(params, n) - anum.t_n(params, n))

    def test_formula_ops_are_distinct_cold_builds(self):
        ops = make_ops("formula", 1)
        self.assertEqual(len({tuple(op[1:4]) for op in ops}), len(ops))
        self.assertTrue(all(64 <= op[5] <= 400 and op[2] >= 3 for op in ops))


class GateTest(unittest.TestCase):
    def ops(self):
        query = make_ops("query", 3)
        picks = [next(op for op in query if op[0] == "both" and op[5] < 30000),
                 next(op for op in query if op[0] == "closed"),
                 next(op for op in make_ops("formula", 3) if op[5] < 80),
                 make_ops("sweep", 3)[0]]
        return [[i, *op] for i, op in enumerate(picks)]

    def test_tampered_expected_value_fails_the_op(self):
        ops = self.ops()
        clean = worker.run(anum, ops)["records"]
        self.assertEqual([rec[4] for rec in clean], ["ok"] * len(ops))
        for index, op in enumerate(ops):
            records = worker.run(anum, ops, tamper={index})["records"]
            self.assertEqual(records[index][4], "wrong", op)
            _, info = run.end_to_end("query", records, [1], [(1, 1)])
            self.assertGreater(info["error_rate"], 0)


class RunTest(unittest.TestCase):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

    def result(self, workload, trace):
        proc = bench_run("--workload", workload, "--seed", "1",
                         "--seconds", "0.5", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        details, result = map(json.loads, proc.stdout.splitlines()[-2:])
        self.assertTrue(result["correct"])
        self.assertEqual(details["op_digest"], digest(make_ops(workload, 1)))
        return result["metrics"]

    def test_smoke_run_emits_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = self.result("query", trace)
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want)

    def test_trace_accounts_for_all_op_time(self):
        for workload in ("query", "formula"):
            metrics = self.result(workload, 1)
            layers = sum(v["value"] for k, v in metrics.items()
                         if k.startswith("layer."))
            self.assertAlmostEqual(
                layers + metrics["trace.uncovered_s"]["value"],
                metrics["trace.op_wall_s"]["value"], delta=1e-6)
            if workload == "formula":
                self.assertEqual(metrics["lattice.columns"]["value"], 0)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench_run("--workload", "query", "--seed", "1",
                             "--seconds", "1", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
