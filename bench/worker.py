"""One measurement pass of a workload, in a fresh process.

Reads a JSON request on stdin:

    {"ops": [[index, kind, p, d, r, arg, cost], ...],
     "budget_s": seconds or null, "trace": bool,
     "probes": [[kind, p, d, r, arg], ...]}

and runs the ops in order as a closed loop (one client, one thread; each
op starts when the previous one returns).  The calibration kernel runs
between ops, and inside untraced ops from a timer signal whose handler's
time is left out of the op time; each record carries the mean of the
kernel times before, during and after its op (see calibrate.py).  With a budget it stops after
the op that brings the summed op time to the budget, starting the list
over if it runs out; without one it runs every op once.  Peak RSS is read
when the loop ends; only then are the outputs checked, so neither the
checks nor their cache effects are timed.  The probes, if any, run last:
ops of a known defect, run and checked like the others but neither timed
nor counted.  The result is one JSON line on stdout.

`run(..., tamper=...)` adds 1 to the expected value of the listed ops; the
self-test uses it to show that the correctness gate catches a wrong value.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

from calibrate import OpTimer, kernel_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MU_PARAMS = ((5, 4), (7, 6), (11, 10), (13, 12))
MU_RANGE = range(1, 4001)


def import_anum():
    """Import anum from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import anum
    import anum.cli
    if not os.path.abspath(anum.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported anum from {anum.__file__}, not {src}")
    return anum


def argv_for(kind, p, d, r, arg):
    base = ["-p", str(p), "-d", str(d), "-r", str(r)]
    if kind == "formula":
        return ["formula", *base, "--format", "json"]
    return ["compute", *base, "-n", str(arg), "--method", kind]


def execute(anum, timer, kind, p, d, r, arg):
    """Run one op, timed by timer; returns (ns, output, error).  output is
    the captured stdout for CLI ops and the row list for sweep cells."""
    if kind == "cell":
        sweep = anum.analysis.sweep
        timer.start()
        try:
            rows = sweep([(p, d, r)])
        except Exception as exc:  # a raising op is a failed op, not an abort
            return timer.stop(), None, repr(exc)
        return timer.stop(), rows, None
    argv = argv_for(kind, p, d, r, arg)
    out, err = io.StringIO(), io.StringIO()
    main = anum.cli.main
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        timer.start()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            return timer.stop(), None, repr(exc)
        ns = timer.stop()
    if code != 0:
        return ns, None, f"exit {code}: {err.getvalue().strip()}"
    return ns, out.getvalue(), None


def split_sum(anum, p, d, r, n):
    """floor_sum_closed(tau) - floor_sum_closed(gamma)
    - delta_sum_closed(tau) + delta_sum_closed(gamma): the split form."""
    params = anum.TowerParams(p, d, r)
    tau, gamma = params.tau, params.gamma
    return (anum.floor_sum_closed(tau, p, n) - anum.floor_sum_closed(gamma, p, n)
            - anum.delta_sum_closed(tau, params, n)
            + anum.delta_sum_closed(gamma, params, n))


def _field(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return int(line[len(prefix):])
    raise ValueError(f"no {prefix!r} line")


def check(anum, op, output, offset=0):
    """True when the op's output is right; offset perturbs the expectation."""
    kind, p, d, r, arg, cost = op
    if kind == "both":
        lines = output.splitlines()
        return (lines[-1] == "AGREE"
                and _field(output, "brute = ") == _field(output, "closed = ") + offset)
    if kind == "closed":
        return _field(output, "closed = ") == split_sum(anum, p, d, r, arg) + offset
    if kind == "formula":
        data = json.loads(output)
        quad = Fraction(d * r * (p - 1), 2 * (p + 1) * ((p - 1) * r + p + 1))
        if (data["p"], data["d"], data["r"]) != (p, d, r):
            return False
        if Fraction(data["quad"]) != quad + offset:
            return False
        lam, nu = Fraction(data["lambda"]), [Fraction(v) for v in data["nu"]]
        for n in (data["N_r"], data["N_r"] + cost - 1):
            value = quad * p**(2 * n) + lam * n + nu[n % data["period"]]
            if value != split_sum(anum, p, d, r, n):
                return False
        return True
    if kind == "cell":
        (row,) = output
        return ((row.p, row.d, row.r) == (p, d, r) and row.error == ""
                and row.partner_lambda_equal is True
                and row.partner_delay_shift == 1 + offset)
    raise ValueError(f"unknown op kind {kind!r}")


def peak_rss_kb():
    """Peak resident set of this process image, in KiB.  VmHWM starts
    afresh at exec; ru_maxrss would also count the parent's pages that
    the fork copied, so it is only the fallback where /proc is absent."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def mu_ns_per_call(anum):
    """Median over 5 repeats of a timed mu loop over a fixed i-range."""
    params = [anum.TowerParams(p, d, 1) for p, d in MU_PARAMS]
    mu = anum.mu
    samples = []
    for _ in range(5):
        start = time.perf_counter_ns()
        for prm in params:
            for i in MU_RANGE:
                mu(prm, i)
        samples.append((time.perf_counter_ns() - start)
                       / (len(params) * len(MU_RANGE)))
    return statistics.median(samples)


def outcome(anum, op, output, error, offset=0):
    """(status, error) of an executed op: ok, wrong or error."""
    if error is not None:
        return "error", error
    try:
        good = check(anum, op, output, offset)
    except Exception as exc:  # an unreadable output fails its check
        return "wrong", f"check raised {exc!r}"
    return ("ok", None) if good else ("wrong", "output failed its check")


def run_probes(anum, probes):
    """Run and check each [kind, p, d, r, arg]; rows add status and error."""
    rows = []
    for probe in probes:
        _, output, error = execute(anum, OpTimer(False), *probe)
        status, error = outcome(anum, [*probe, 0], output, error)
        rows.append([*probe, status, (error or "")[:200]])
    return rows


def run(anum, ops, budget_s=None, trace=False, tamper=(), probes=()):
    """Run ops (each [index, kind, p, d, r, arg, cost]) and check them.
    Records are [index, kind, cost, ns, status, kernel ns]."""
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    budget_ns = None if budget_s is None else int(budget_s * 1e9)
    timer = OpTimer(sample=not trace)
    done = []
    spent = 0
    cal_before = kernel_ns()
    try:
        for index, *op in (ops if budget_ns is None else itertools.cycle(ops)):
            if tracer:
                tracer.begin_op()
            ns, output, error = execute(anum, timer, *op[:5])
            if tracer:
                size = len(output.encode()) if isinstance(output, str) else 0
                tracer.end_op(op[0], ns, size)
            cal_after = kernel_ns()
            cal_ns = statistics.fmean([cal_before, *timer.samples, cal_after])
            done.append((index, op, ns, cal_ns, output, error))
            cal_before = cal_after
            spent += ns
            if budget_ns is not None and spent >= budget_ns:
                break
    finally:
        if tracer:
            tracer.uninstall()
    rss_kb = peak_rss_kb()

    records, errors = [], []
    for index, op, ns, cal_ns, output, error in done:
        status, error = outcome(anum, op, output, error,
                                1 if index in tamper else 0)
        if error is not None and len(errors) < 10:
            errors.append([index, op[0], error[:200]])
        records.append([index, op[0], op[5], ns, status, cal_ns])
    result = {"records": records, "rss_kb": rss_kb, "errors": errors,
              "probes": run_probes(anum, probes)}
    if tracer:
        result["trace"] = {
            "stats": tracer.stats,
            "layer_ns": tracer.layer_ns,
            "counts": dict(tracer.counts),
            "by_kind": {k: dict(v) for k, v in tracer.by_kind.items()},
            "gap_ns": tracer.accounting_gap_ns(),
            "mu_ns_per_call": mu_ns_per_call(anum),
        }
    return result


def main():
    request = json.loads(sys.stdin.read())
    anum = import_anum()
    result = run(anum, request["ops"], request["budget_s"], request["trace"],
                 probes=request.get("probes", ()))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
