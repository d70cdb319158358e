"""The anum benchmark.

    python3 bench/run.py --workload query --seed 1 --seconds 30 --trace 0

Runs one workload (query, formula or sweep; see bench/README.md) as a
closed loop with one client, and prints two JSON lines on stdout: the run's
details (seed, op-list digest, environment, every op with its cost
parameter and time), then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with times at the reference host speed of calibrate.py; with --trace 1
they are the per-layer metrics of a traced run.

The op list is a pure function of (workload, seed).  Ops run in fresh
worker processes, so caches start cold; set-up is timed in separate fresh
interpreters.  Every op is checked after the timed loop, and an op fails
when it raises, exits non-zero, or fails its check.  Exits non-zero,
without a result, when the checkout has no anum sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_NS, at_reference
from workloads import (KNOWN_DEFECT_PROBES, PERCENTILE_LADDER, TAIL_PERCENTILE,
                       WORKLOADS, digest, make_ops)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up probes before and after the measurement: the host's speed drifts
# over seconds, so probes at two times give a steadier median.
SETUP_PROBES = 5
DEADLINE_S = 170


class Clock:
    """Wall-clock deadline shared by every child process of one run."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def child(script, stdin_text, clock):
    """Run a bench script in a fresh interpreter and return its stdout;
    subprocess.run kills and reaps it if the deadline passes."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, script)],
                          input=stdin_text, capture_output=True, text=True,
                          cwd=ROOT, timeout=clock.left())
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    return proc.stdout


def setup_probes(ops, clock, count):
    """(set-up ns, kernel ns) of fresh interpreters; set-up is import anum
    plus the TowerParams of the op list."""
    triples = sorted({(p, d, r) for _, p, d, r, _, _ in ops})
    text = " ".join(f"{p} {d} {r}" for p, d, r in triples)
    return [tuple(map(int, child("setup_probe.py", text, clock).split()))
            for _ in range(count)]


def batches_for(workload, ops):
    """Sweep runs pass by pass (each a fresh process, like a real sweep);
    the other workloads run their op list in one process."""
    indexed = [[i, *op] for i, op in enumerate(ops)]
    if workload != "sweep":
        return [indexed]
    passes: dict[int, list] = {}
    for op in indexed:
        passes.setdefault(op[5], []).append(op)
    return [passes[k] for k in sorted(passes)]


def measure(batches, budget_s, trace, clock, probes=()):
    """Run batches in fresh workers until the summed op time reaches
    budget_s (None: run every batch whole).  A single batch stops at op
    granularity; multi-batch runs only stop between batches.  The first
    worker also runs the probes, after its measurement."""
    results, spent = [], 0.0
    for batch in batches:
        request = {"ops": batch, "trace": trace,
                   "budget_s": (budget_s if budget_s is not None
                                and len(batches) == 1 else None),
                   "probes": [] if results else list(probes)}
        result = json.loads(child("worker.py", json.dumps(request), clock))
        results.append(result)
        spent += sum(rec[3] for rec in result["records"]) / 1e9
        if budget_s is not None and spent >= budget_s:
            break
    return results


def tail(values, workload):
    """The workload's tail percentile, or the highest ladder step below it
    with at least ten samples beyond it (nearest-rank)."""
    data = sorted(values)
    n = len(data)
    target = TAIL_PERCENTILE[workload]
    for pct in [target] + [q for q in PERCENTILE_LADDER if q < target]:
        k = math.ceil(pct / 100 * n)
        if n - k >= 10:
            return pct, data[k - 1]
    return 50.0, statistics.median(data)


def scaled_ns(records):
    """Op times at the calibration kernel's reference speed."""
    return [at_reference(rec[3], rec[5]) for rec in records]


def _times(workload, ok, ns, setup_ns):
    pct, tail_ns = tail(ns, workload)
    return pct, {"ops_per_s": ok / (sum(ns) / 1e9),
                 "op_p50_ms": statistics.median(ns) / 1e6,
                 "op_tail_ms": tail_ns / 1e6,
                 "setup_s": statistics.median(setup_ns) / 1e9}


def end_to_end(workload, records, rss_kb, setup):
    """End-to-end metrics; times are at reference speed (see calibrate.py),
    and the raw ones go to the details."""
    ok = sum(rec[4] == "ok" for rec in records)
    pct, times = _times(workload, ok, scaled_ns(records),
                        [at_reference(s, c) for s, c in setup])
    _, raw = _times(workload, ok, [rec[3] for rec in records],
                    [s for s, _ in setup])
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in times.items()}
    metrics["peak_rss_mb"] = (max(rss_kb) / 1024, "MB")
    n = len(records)
    info = {"error_rate": (n - ok) / n,
            "tail_percentile": pct, "samples": n,
            "samples_beyond_tail": n - math.ceil(pct / 100 * n),
            "raw_times": raw,
            "host_slowdown": statistics.median(rec[5] for rec in records)
            / REFERENCE_NS,
            "setup_samples_ns": setup}
    return metrics, info


def _merge_traces(results):
    stats, layer_ns, counts, by_kind = {}, {}, {}, {}
    for res in results:
        tr = res["trace"]
        for name, row in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0])
            for j in range(3):
                acc[j] += row[j]
        for name, value in tr["layer_ns"].items():
            layer_ns[name] = layer_ns.get(name, 0) + value
        for name, value in tr["counts"].items():
            if name == "closed_form.max_L":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        for kind, row in tr["by_kind"].items():
            acc = by_kind.setdefault(kind, {})
            for name, value in row.items():
                acc[name] = acc.get(name, 0) + value
    mu = statistics.median(res["trace"]["mu_ns_per_call"] for res in results)
    gap = sum(res["trace"]["gap_ns"] for res in results)
    return stats, layer_ns, counts, by_kind, mu, gap


def per_layer(untraced, traced):
    stats, layer_ns, counts, by_kind, mu, gap = _merge_traces(traced)

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def self_s(name):
        return stats.get(name, [0, 0, 0])[2] / 1e9

    def per_call(name, scale):
        n, total, _ = stats.get(name, [0, 0, 0])
        return total / n / scale if n else 0.0

    def hit_ratio(name):
        n = calls(name)
        return (n - counts.get(f"{name}.misses", 0)) / n if n else 0.0

    def rate(results):
        recs = [rec for res in results for rec in res["records"]]
        return sum(r[4] == "ok" for r in recs) / sum(scaled_ns(recs))

    columns = counts.get("lattice.columns", 0)
    m = {
        "lattice.columns": (columns, "count"),
        "lattice.ns_per_column": (
            counts.get("lattice.brute_ns", 0) / columns if columns else 0.0, "ns"),
        "lattice.brute.self_s": (self_s("lattice.a_number_bruteforce"), "s"),
        "delta.mu.ns_per_call": (mu, "ns"),
        "closed_form.closed_model.calls": (calls("closed_form.closed_model"), "count"),
        "closed_form.closed_model.builds": (
            counts.get("closed_form.closed_model.misses", 0), "count"),
        "closed_form.closed_model.hit_ratio": (
            hit_ratio("closed_form.closed_model"), "ratio"),
        "closed_form.closed_model.build_s": (
            counts.get("closed_form.closed_model.build_ns", 0) / 1e9, "s"),
        "closed_form.max_L": (counts.get("closed_form.max_L", 0), "count"),
        "closed_form.nu_value.calls": (calls("closed_form.nu_value"), "count"),
        "closed_form.nu_value.self_s": (self_s("closed_form.nu_value"), "s"),
        "closed_form.delta_sum_closed.self_s": (
            self_s("closed_form.delta_sum_closed"), "s"),
        "closed_form.A_fn.self_s": (self_s("closed_form.A_fn"), "s"),
        "closed_form.F_fn.calls": (calls("closed_form.F_fn"), "count"),
        "closed_form.delta_sum_linear_coeff.hit_ratio": (
            hit_ratio("closed_form.delta_sum_linear_coeff"), "ratio"),
        "closed_form.evaluate.calls": (calls("closed_form.evaluate"), "count"),
        "closed_form.evaluate.us_per_call": (
            per_call("closed_form.evaluate", 1e3), "us"),
        "periodic_sum.prefix_sum.calls": (calls("periodic_sum.prefix_sum"), "count"),
        "periodic_sum.prefix_sum.self_s": (self_s("periodic_sum.prefix_sum"), "s"),
        "periodic_sum.prefix_sum.us_per_call": (
            per_call("periodic_sum.prefix_sum", 1e3), "us"),
        "exact_arith.frac_part_pn.calls": (calls("exact_arith.frac_part_pn"), "count"),
        "exact_arith.frac_part_pn.self_s": (self_s("exact_arith.frac_part_pn"), "s"),
        "exact_arith.floor_pn_mod.calls": (calls("exact_arith.floor_pn_mod"), "count"),
        "exact_arith.floor_pn_mod.self_s": (self_s("exact_arith.floor_pn_mod"), "s"),
        "exact_arith.multiplicative_order.self_s": (
            self_s("exact_arith.multiplicative_order"), "s"),
        "exact_arith.p_adic_decompose.calls": (
            calls("exact_arith.p_adic_decompose"), "count"),
        "analysis.minimal_period.calls": (calls("analysis.minimal_period"), "count"),
        "analysis.minimal_period.self_s": (self_s("analysis.minimal_period"), "s"),
        "analysis.check_pairing.self_s": (self_s("analysis.check_pairing"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.stdout_bytes": (counts.get("cli.stdout_bytes", 0), "bytes"),
        "trace.overhead_ratio": (rate(traced) / rate(untraced), "ratio"),
    }
    for layer, value in layer_ns.items():
        m[f"layer.{layer}.self_s"] = (value / 1e9, "s")
    m["trace.uncovered_s"] = (counts.get("trace.uncovered_ns", 0) / 1e9, "s")
    m["trace.op_wall_s"] = (counts.get("trace.op_wall_ns", 0) / 1e9, "s")
    shares = {kind: {name.removesuffix("_ns"): value / row["wall_ns"]
                     for name, value in row.items() if name not in ("ops", "wall_ns")}
              | {"ops": row["ops"]} for kind, row in by_kind.items()}
    return m, {"accounting_gap_ns": gap, "self_share_by_kind": shares}


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run(workload, seed, seconds, trace):
    """Returns (details, result) for one benchmark run."""
    clock = Clock(DEADLINE_S)
    ops = make_ops(workload, seed)
    batches = batches_for(workload, ops)
    if trace:
        untraced = measure(batches, seconds / 2, False, clock)
        executed = {rec[0] for res in untraced for rec in res["records"]}
        replay = [[op for op in batch if op[0] in executed] for batch in batches]
        results = measure([b for b in replay if b], None, True, clock)
        metrics, info = per_layer(untraced, results)
        runs = untraced + results
    else:
        setup = setup_probes(ops, clock, SETUP_PROBES)
        results = measure(batches, seconds, False, clock,
                          KNOWN_DEFECT_PROBES.get(workload, ()))
        setup += setup_probes(ops, clock, SETUP_PROBES)
        records = [rec for res in results for rec in res["records"]]
        metrics, info = end_to_end(workload, records,
                                   [res["rss_kb"] for res in results], setup)
        info["known_defects"] = [row for res in results for row in res["probes"]]
        runs = results
    records = [rec for res in runs for rec in res["records"]]
    failed = sum(rec[4] != "ok" for rec in records)
    correct = failed == 0 and info.get("accounting_gap_ns", 0) == 0
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "op_digest": digest(ops), "ops_in_list": len(ops),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(), "worker_processes": len(runs),
        **info,
        "errors": [e for res in runs for e in res["errors"]][:10],
        "ops": [[rec[1], rec[2], rec[3] / 1e6, rec[4], rec[5] / 1e6]
                for res in results for rec in res["records"]],
    }
    result = {
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "anum", "__init__.py")):
        print(f"error: no anum sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        details, result = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
