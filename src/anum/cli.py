"""Command-line surface: compute, formula, verify, sweep, delta-table.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
exceeded.  Every error path prints a single line prefixed "error:" to
stderr.  --budget or ANUM_BUDGET (flag wins) sets the brute-force column
budget of compute and verify; the delta0 laws, delta-table rows, sweep
cells, the order search behind L and, in `closed_model` itself, every
closed-form build's 2L window are held to the fixed default.  sweep exits
1 if any cell failed.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from .analysis import SWEEP_COLUMNS, sweep
from .checks import checks
from .closed_form import closed_model, evaluate, model_to_dict
from .delta import TowerParams, delta, delta0, delta_tilde, require_budget
from .errors import BudgetExceededError, InvariantViolationError, PreDelayError
from .exact_arith import divisors, format_rational, is_prime
from .lattice import a_number_bruteforce

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

FORMATS = ("markdown", "csv", "json")


def _print_error(message: str) -> None:
    """The one `error:` line on stderr.  A message past 200 characters,
    which only an echoed input makes, is cut there with its length named."""
    if len(message) > 200:
        message = f"{message[:200]}... ({len(message)} characters)"
    print(f"error: {message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _print_error(message)
        raise SystemExit(EXIT_USAGE)


class UsageError(ValueError):
    pass


def _make_params(p, d, r):
    try:
        return TowerParams(p, d, r)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@contextmanager
def _unlimited_int_digits():
    """Lift the int<->str digit limit that Python 3.11+ sets, for the body
    only."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _budget_int(text: str) -> int:
    """A budget as an int, of any length; a bad one is reported as
    argparse reports a bad type=int value."""
    try:
        with _unlimited_int_digits():
            return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


def _budget(args):
    budget, source = args.budget, "--budget"
    if budget is None:
        raw = os.environ.get("ANUM_BUDGET")
        if raw is None:
            return None
        source = "ANUM_BUDGET"
        try:
            budget = _budget_int(raw)
        except argparse.ArgumentTypeError:
            raise UsageError(f"ANUM_BUDGET must be an integer, got {raw!r}")
    if budget < 0:
        raise UsageError(f"{source} must be >= 0, got {_int_text(budget)}")
    return budget


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _int_text(value: int) -> str:
    """str(value) in full, past the int-to-str digit limit."""
    with _unlimited_int_digits():
        return str(value)


def _json_cell(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


def _md_table(rows) -> str:
    lines = [f"| {' | '.join(rows[0])} |",
             f"|{'|'.join('---' for _ in rows[0])}|"]
    for row in rows[1:]:
        lines.append(f"| {' | '.join(row)} |")
    return "\n".join(lines) + "\n"


def _render(columns, rows, fmt, *, head=None, transpose=False) -> str:
    """One table as text.  JSON is {**head, "columns", "rows"} with raw
    values; markdown puts each column on a line when transpose is set."""
    if fmt == "json":
        payload = dict(head or {})
        payload["columns"] = list(columns)
        payload["rows"] = [[_json_cell(v) for v in row] for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    table = [list(columns)] + [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        sink = io.StringIO()
        csv.writer(sink, lineterminator="\n").writerows(table)
        return sink.getvalue()
    if transpose:
        table = [list(line) for line in zip(*table)]
    return _md_table(table)


@contextmanager
def _output(out: str | None):
    """Yield a write function for stdout or, atomically, for `out`.  A
    directory is refused and the temp file made in out's directory on
    entry, so a bad path fails before any work is done; the temp file is
    renamed over `out` on exit.  Any OSError inside is a write failure:
    sweep keeps cell errors in rows."""
    if out is None:
        yield sys.stdout.write
        return
    if os.path.isdir(out):
        raise UsageError(f"cannot write {out}: Is a directory")
    import tempfile  # here, not at the top: only --out needs it
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)),
                                   prefix=".anum-tmp-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle.write
        os.replace(tmp, out)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def cmd_compute(args) -> int:
    params = _make_params(args.p, args.d, args.r)
    if args.n < 0:
        raise UsageError(f"n must be >= 0, got {args.n}")
    budget = _budget(args)
    # built first, so a refused build costs no brute force
    model = None if args.method == "brute" else closed_model(params)
    lines = [f"p={params.p} d={params.d} r={params.r} n={args.n}"]
    brute = closed = None
    if args.method in ("brute", "both"):
        brute = a_number_bruteforce(params, args.n, budget).total
        lines.append(f"brute = {_int_text(brute)}")
    if model is not None:
        if args.n < model.delay:
            if args.method == "closed":
                raise PreDelayError(
                    f"closed form is not valid for n={args.n} < N_r = "
                    f"{model.delay}; use --method brute")
            lines.append(f"closed = n/a (n < N_r = {model.delay})")
        else:
            closed = evaluate(model, args.n)
            lines.append(f"closed = {_int_text(closed)}")
    status = EXIT_OK
    if args.method == "both" and closed is not None:
        if brute == closed:
            lines.append("AGREE")
        else:
            lines.append("DISAGREE")
            status = EXIT_VERIFY
    print("\n".join(lines))
    return status


def cmd_formula(args) -> int:
    params = _make_params(args.p, args.d, args.r)
    data = model_to_dict(closed_model(params))
    period, nu = data["period"], data["nu"]
    if args.format == "json":
        text = json.dumps(data, indent=2) + "\n"
    elif args.format == "csv":
        columns = ["p", "d", "r", "quad", "lambda", "N_r", "period"]
        row = [data[k] for k in columns] + nu
        text = _render(columns + [f"nu{j}" for j in range(period)], [row], "csv")
    else:
        text = (f"p={params.p} d={params.d} r={params.r}: "
                f"value = {data['quad']} * {params.p}^(2n) + {data['lambda']} * n"
                f" + nu(n)  for n >= {data['N_r']}\n\n"
                + _render([f"n mod {period}", "nu(n)"], enumerate(nu),
                          "markdown", transpose=True))
    sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _make_params(args.p, args.d, args.r)
    if args.n_max < 1:
        raise UsageError(f"--n-max must be >= 1, got {args.n_max}")
    budget = _budget(args)
    for name, check in checks(params, args.n_max, budget):
        if not check():
            print(f"FAIL {name}")
            return EXIT_VERIFY
        print(f"ok {name}")
    print("PASS")
    return EXIT_OK


def _int_list(text, flag, noun, check):
    """The comma-separated integers in text, deduplicated and sorted.  Blank
    pieces are skipped; check(value) raises UsageError on a bad entry."""
    out = set()
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            with _unlimited_int_digits():
                value = int(piece)
        except ValueError:
            raise UsageError(f"{flag} entries must be integers, got {piece!r}")
        check(value)
        out.add(value)
    if not out:
        raise UsageError(f"{flag} must name at least one {noun}")
    return sorted(out)


def _check_prime(p):
    try:
        with _unlimited_int_digits():  # the message may echo p
            odd_prime = p != 2 and is_prime(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not odd_prime:
        raise UsageError(f"--p-list entries must be odd primes, got {p}")


def _d_values(mode, p):
    if mode == "all-divisors":
        return divisors(p - 1)
    if mode.startswith("list:"):
        def check(d):
            if d < 1 or (p - 1) % d != 0:
                raise UsageError(f"d must divide p-1: got d={_int_text(d)}, p={p}")
        return _int_list(mode[len("list:"):], "--d-mode list", "d", check)
    raise UsageError(f"--d-mode must be all-divisors or list:D1,D2,..., got {mode!r}")


def cmd_sweep(args) -> int:
    if args.r_max < 0:
        raise UsageError(f"--r-max must be >= 0, got {args.r_max}")
    primes = _int_list(args.p_list, "--p-list", "prime", _check_prime)
    pairs = [(p, d) for p in primes for d in _d_values(args.d_mode, p)]
    require_budget(len(pairs) * args.r_max, None, "the sweep grid", "cells")
    grid = [(p, d, r) for p, d in pairs for r in range(1, args.r_max + 1)]
    with _output(args.out) as write:
        rows = sweep(grid)
        write(_render(SWEEP_COLUMNS, rows, args.format))
    failed = [row.error for row in rows if row.error]
    if failed:
        _print_error(f"{len(failed)} of {len(rows)} sweep cells failed; "
                     f"first: {failed[0]}")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_delta_table(args) -> int:
    params = _make_params(args.p, args.d, 1)  # r does not enter the indicators
    if args.i_max < 1:
        raise UsageError(f"--i-max must be >= 1, got {args.i_max}")
    require_budget(args.i_max)
    rows = [(i, delta(params, i), delta0(params, i), delta_tilde(params, i))
            for i in range(1, args.i_max + 1)]
    text = _render(("i", "delta", "delta0", "delta_tilde"), rows, args.format,
                   head={"p": params.p, "d": params.d}, transpose=True)
    sys.stdout.write(text)
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged,
    and building it costs about 1.3 ms, more than a small `compute`."""
    parser = _Parser(prog="anum",
                     description="Exact region counts for covering towers: "
                                 "brute force, split forms, and closed "
                                 "quasi-polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)
    pd = argparse.ArgumentParser(add_help=False)
    pd.add_argument("-p", type=int, required=True)
    pd.add_argument("-d", type=int, required=True)
    pdr = argparse.ArgumentParser(add_help=False, parents=[pd])
    pdr.add_argument("-r", type=int, required=True)

    compute = sub.add_parser("compute", parents=[pdr],
                             help="one value, by either or both methods")
    compute.add_argument("-n", type=int, required=True)
    compute.add_argument("--method", choices=("brute", "closed", "both"),
                         default="both")
    compute.add_argument("--budget", type=_budget_int, default=None)
    compute.set_defaults(func=cmd_compute)

    formula = sub.add_parser("formula", parents=[pdr], help="render the closed form")
    formula.add_argument("--format", choices=FORMATS, default="markdown")
    formula.set_defaults(func=cmd_formula)

    verify = sub.add_parser("verify", parents=[pdr],
                            help="run the identity suite for one parameter set")
    verify.add_argument("--n-max", type=int, default=3)
    verify.add_argument("--budget", type=_budget_int, default=None)
    verify.set_defaults(func=cmd_verify)

    swp = sub.add_parser("sweep", help="period/delay dataset over a grid")
    swp.add_argument("--p-list", required=True)
    swp.add_argument("--d-mode", default="all-divisors")
    swp.add_argument("--r-max", type=int, required=True)
    swp.add_argument("--format", choices=FORMATS, default="csv")
    swp.add_argument("--out", default=None)
    swp.set_defaults(func=cmd_sweep)

    table = sub.add_parser("delta-table", parents=[pd], help="tabulate the indicators")
    table.add_argument("--i-max", type=int, default=19)
    table.add_argument("--format", choices=FORMATS, default="markdown")
    table.set_defaults(func=cmd_delta_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _print_error(str(exc))
        return EXIT_BUDGET
    except InvariantViolationError as exc:
        _print_error(str(exc))
        return EXIT_VERIFY
    except (UsageError, PreDelayError) as exc:
        _print_error(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
