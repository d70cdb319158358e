"""CLI surface: formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import pytest

import anum.analysis
import anum.cli
import anum.exact_arith
from anum import (
    InvariantViolationError,
    TowerParams,
    a_number_bruteforce,
    closed_model,
    evaluate,
)
from anum.cli import main

DELTA_TABLE_P5_D4 = {
    "delta": [1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
    "delta0": [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
    "delta_tilde": [1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_both_agree(capsys):
    code, out, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                         "-n", "2", "--method", "both")
    assert code == 0
    assert "brute = 120" in out
    assert "closed = 120" in out
    assert "AGREE" in out
    assert err == ""


def test_compute_single_methods(capsys):
    code, out, _ = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "1",
                       "-n", "1", "--method", "brute")
    assert code == 0 and "brute = 4" in out and "closed" not in out
    code, out, _ = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "1",
                       "-n", "1", "--method", "closed")
    assert code == 0 and "closed = 4" in out


def test_compute_usage_error_for_bad_d(capsys):
    code, out, err = run(capsys, "compute", "-p", "5", "-d", "3", "-r", "1", "-n", "1")
    assert code == 2
    assert err.startswith("error:")
    assert "divide p-1" in err
    assert out == ""


def test_compute_closed_below_delay(capsys):
    code, _, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "61",
                       "-n", "2", "--method", "closed")
    assert code == 2
    assert err.startswith("error:")
    assert "n=2" in err and "3" in err


def test_compute_accepts_n_zero(capsys):
    for p, d, r in ((5, 4, 2), (7, 6, 4), (13, 12, 7), (13, 6, 5)):
        params = TowerParams(p, d, r)
        assert closed_model(params).delay == 0
        code, out, err = run(capsys, "compute", "-p", str(p), "-d", str(d),
                             "-r", str(r), "-n", "0", "--method", "both")
        brute = a_number_bruteforce(params, 0).total
        assert code == 0 and err == ""
        assert f"brute = {brute}" in out
        assert f"closed = {brute}" in out
        assert out.splitlines()[-1] == "AGREE"


def test_compute_n_zero_below_delay_and_negative_n(capsys):
    code, out, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "61",
                         "-n", "0", "--method", "closed")
    assert code == 2 and out == ""
    assert err.startswith("error: closed form is not valid for n=0")
    code, out, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                         "-n", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "n must be >= 0" in err


def test_compute_prints_values_past_the_int_str_limit(capsys):
    # the value has about 4456 digits, past the int-to-str limit (4300 by
    # default) of Python 3.11+, which used to surface as a usage error
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "compute", "-p", "13", "-d", "12", "-r", "20",
                         "-n", "2000", "--method", "closed")
    assert code == 0 and err == ""
    value = evaluate(closed_model(TowerParams(13, 12, 20)), 2000)
    line = out.splitlines()[1]
    if limit:
        assert sys.get_int_max_str_digits() == limit  # restored
        sys.set_int_max_str_digits(0)
    try:
        assert line == f"closed = {value}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(params):
        raise ValueError("internal failure")

    monkeypatch.setattr(anum.cli, "closed_model", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["formula", "-p", "5", "-d", "4", "-r", "2"])


def test_compute_both_below_delay_keeps_brute(capsys):
    code, out, _ = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "61", "-n", "2")
    assert code == 0
    assert "brute = 196" in out
    assert "closed = n/a" in out
    assert "AGREE" not in out


def test_formula_markdown(capsys):
    code, out, _ = run(capsys, "formula", "-p", "5", "-d", "4", "-r", "2")
    assert code == 0
    assert "4/21" in out and "1/3" in out
    assert "| n mod 3 | 0 | 1 | 2 |" in out
    assert "| nu(n) | -4/21 | -2/21 | 2/7 |" in out


def test_formula_period_one(capsys):
    code, out, _ = run(capsys, "formula", "-p", "5", "-d", "4", "-r", "6")
    assert code == 0
    assert "-2/3" in out


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "-p", "5", "-d", "4", "-r", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"p": 5, "d": 4, "r": 2, "quad": "4/21", "lambda": "1/3",
                    "N_r": 0, "period": 3, "nu": ["-4/21", "-2/21", "2/7"]}


def test_formula_csv(capsys):
    code, out, _ = run(capsys, "formula", "-p", "3", "-d", "2", "-r", "5",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    head = dict(zip(rows[0], rows[1]))
    assert head["lambda"] == "0"
    assert out.endswith("\n") and "\r" not in out


def test_delta_table_markdown_matches_pinned(capsys):
    code, out, _ = run(capsys, "delta-table", "-p", "5", "-d", "4", "--i-max", "19")
    assert code == 0
    lines = out.splitlines()
    by_name = {line.split("|")[1].strip(): line for line in lines if "|" in line}
    for name, values in DELTA_TABLE_P5_D4.items():
        cells = [c.strip() for c in by_name[name].split("|")[2:-1]]
        assert cells == [str(v) for v in values], name


def test_delta_table_csv(capsys):
    code, out, _ = run(capsys, "delta-table", "-p", "5", "-d", "4",
                       "--i-max", "19", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "delta", "delta0", "delta_tilde"]
    assert len(rows) == 20
    for idx, row in enumerate(rows[1:], start=1):
        assert row == [str(idx),
                       str(DELTA_TABLE_P5_D4["delta"][idx - 1]),
                       str(DELTA_TABLE_P5_D4["delta0"][idx - 1]),
                       str(DELTA_TABLE_P5_D4["delta_tilde"][idx - 1])]


def test_delta_table_d1_all_zero(capsys):
    code, out, _ = run(capsys, "delta-table", "-p", "7", "-d", "1",
                       "--i-max", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[1] == "0" for row in rows[1:])


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "-p", "5", "-d", "4", "-r", "2",
                       "--n-max", "3")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_r1_includes_formula_check(capsys):
    code, out, _ = run(capsys, "verify", "-p", "3", "-d", "2", "-r", "1",
                       "--n-max", "3")
    assert code == 0
    assert "r=1 closed formula" in out
    assert out.splitlines()[-1] == "PASS"


def test_verify_stops_at_the_first_failing_law(capsys, monkeypatch):
    failing = "delta is invariant under multiplying i by p"
    laws = anum.cli.checks

    def planted(params, n_max, budget):
        for name, check in laws(params, n_max, budget):
            yield name, (lambda: False) if name == failing else check

    monkeypatch.setattr(anum.cli, "checks", planted)
    code, out, _ = run(capsys, "verify", "-p", "5", "-d", "4", "-r", "2")
    assert code == 1
    # the third law fails; nothing after it runs and PASS is not printed
    assert out.splitlines() == [
        "ok delta digit test matches the lexicographic definition",
        "ok mu equals floor+delta and ceil-1+delta_tilde",
        f"FAIL {failing}",
    ]


def test_verify_budget_exit(capsys):
    code, _, err = run(capsys, "verify", "-p", "5", "-d", "4", "-r", "2",
                       "--n-max", "4", "--budget", "1")
    assert code == 3
    assert err.startswith("error:")
    assert "budget" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ANUM_BUDGET", "1")
    code, _, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2", "-n", "3")
    assert code == 3
    # the flag wins over the environment
    code, out, _ = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                       "-n", "3", "--budget", "100000")
    assert code == 0 and "AGREE" in out


def test_negative_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                         "-n", "0", "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --budget must be >= 0, got -1\n"
    # budget 0 stays valid: n = 0 enumerates no column
    code, out, _ = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                       "-n", "0", "--budget", "0")
    assert code == 0 and "AGREE" in out


def test_negative_budget_from_the_environment_is_a_usage_error(capsys,
                                                                monkeypatch):
    monkeypatch.setenv("ANUM_BUDGET", "-2")
    code, out, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                         "-n", "0")
    assert (code, out) == (2, "")
    assert err == "error: ANUM_BUDGET must be >= 0, got -2\n"


NINES = "9" * 5000  # past the 4300-digit int <-> str limit


def test_budget_accepts_integers_past_the_int_str_limit(capsys, monkeypatch):
    code, out, _ = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                       "-n", "3", "--budget", NINES)
    assert code == 0 and "AGREE" in out
    monkeypatch.setenv("ANUM_BUDGET", NINES)
    code, out, _ = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                       "-n", "3")
    assert code == 0 and "AGREE" in out
    # a count past even that budget names both as powers of ten
    code, out, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                         "-n", "9000", "--method", "brute")
    assert (code, out) == (3, "")
    assert err == ("error: enumeration needs more than 10^6289 columns, "
                   "budget is more than 10^4999\n")


@pytest.mark.parametrize("argv, env", [
    (("compute", "-p", "5", "-d", "4", "-r", "2", "-n", "3"), "x" + NINES),
    (("compute", "-p", "5", "-d", "4", "-r", "2", "-n", "3", "--budget",
      "x" + NINES), None),
    (("compute", "-p", "5", "-d", "4", "-r", "2", "-n", "3", "--budget",
      "-" + NINES), None),
    (("verify", "-p", "5", "-d", "4", "-r", "2", "--budget", "x" + NINES),
     None),
    (("sweep", "--p-list", "5," + NINES, "--r-max", "1"), None),
    # -n keeps the limit: no count that long could fit a budget
    (("compute", "-p", "5", "-d", "4", "-r", "2", "-n", NINES), None),
])
def test_rejected_long_values_are_echoed_cut_short(capsys, monkeypatch, argv,
                                                   env):
    if env is not None:
        monkeypatch.setenv("ANUM_BUDGET", env)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert len(captured.err) < 300
    assert captured.err.rstrip().endswith(" characters)")


def test_budget_refuses_a_huge_n_at_once(capsys):
    # n = 3e7 formed p^n for seconds before the budget check
    code, out, err = run(capsys, "compute", "-p", "5", "-d", "4", "-r", "2",
                         "-n", "30000000", "--method", "brute")
    assert (code, out) == (3, "")
    assert err == ("error: enumeration needs more than 10^20968403 columns, "
                   "budget is 10000000\n")


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_in_a_process():
    # build_parser is cached, and set_defaults(func=...) bound the cmd_*
    # functions when it first ran; a usage error, then compute, then
    # formula in one process print what a fresh process prints
    sequence = (
        ("compute", "-p", "5", "-d", "4", "-r", "2", "-n", "3",
         "--method", "nope"),
        ("compute", "-p", "5", "-d", "4", "-r", "2", "-n", "8"),
        ("formula", "-p", "13", "-d", "6", "-r", "5", "--format", "json"),
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(anum.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    in_process = [_run_in_process(argv) for argv in sequence]
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    for argv, got in zip(sequence, in_process):
        fresh = subprocess.run([sys.executable, "-m", "anum.cli", *argv],
                               env=env, capture_output=True, text=True,
                               check=False)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert anum.cli.build_parser() is anum.cli.build_parser()


def test_sweep_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "sweep", "--p-list", "5", "--r-max", "1",
                         "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ")
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()



def test_sweep_unwritable_out_fails_before_the_first_cell(capsys, tmp_path,
                                                          monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before --out was checked")
    monkeypatch.setattr(anum.cli, "sweep", no_sweep)
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run(capsys, "sweep", "--p-list", "5,7,13", "--r-max",
                             "8", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write ")
        assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_leaves_no_temp_file_when_a_cell_raises(tmp_path, monkeypatch):
    def failing_sweep(*args, **kwargs):
        raise RuntimeError("planted")
    monkeypatch.setattr(anum.cli, "sweep", failing_sweep)
    with pytest.raises(RuntimeError):
        main(["sweep", "--p-list", "5", "--r-max", "1",
              "--out", str(tmp_path / "x.csv")])
    assert list(tmp_path.iterdir()) == []

def test_sweep_csv_to_file(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "--p-list", "5", "--d-mode", "list:2",
                       "--r-max", "4", "--format", "csv", "--out", str(out_file))
    assert code == 0
    assert out == ""
    text = out_file.read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0:3] == ["p", "d", "r"]
    assert len(rows) == 5
    assert [row[2] for row in rows[1:]] == ["1", "2", "3", "4"]
    l_col = rows[0].index("L")
    assert [row[l_col] for row in rows[1:]] == ["1", "3", "3", "5"]


def test_sweep_cell_failure_exits_1_after_writing_rows(capsys, monkeypatch):
    measure = anum.analysis.minimal_period

    def failing(params, *args, **kwargs):
        if params.r == 2:
            raise InvariantViolationError("tampered cell")
        return measure(params, *args, **kwargs)

    monkeypatch.setattr(anum.analysis, "minimal_period", failing)
    code, out, err = run(capsys, "sweep", "--p-list", "5", "--d-mode",
                         "list:2", "--r-max", "3", "--format", "csv")
    assert code == 1
    assert err == ("error: 1 of 3 sweep cells failed; first: "
                   "InvariantViolationError: tampered cell\n")
    rows = list(csv.reader(io.StringIO(out)))
    error_col = rows[0].index("error")
    assert [row[error_col] for row in rows[1:]] == [
        "", "InvariantViolationError: tampered cell", ""]


def test_sweep_empty_range_gives_header_only(capsys):
    code, out, _ = run(capsys, "sweep", "--p-list", "5", "--d-mode", "list:2",
                       "--r-max", "0", "--format", "csv")
    assert code == 0
    assert out.count("\n") == 1
    assert out.startswith("p,d,r,")


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--p-list", "3", "--d-mode",
                       "all-divisors", "--r-max", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["columns"][0:3] == ["p", "d", "r"]
    assert len(data["rows"]) == 4
    lam = data["columns"].index("lambda")
    assert all(row[lam] == "0" for row in data["rows"])


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "sweep", "--p-list", "9", "--r-max", "2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "sweep", "--p-list", "5", "--d-mode", "list:3",
                       "--r-max", "2")
    assert code == 2 and "divide p-1" in err


def test_p_past_the_primality_range_is_a_usage_error(capsys):
    big = str(anum.exact_arith.PRIME_LIMIT)
    for argv in (("compute", "-p", big, "-d", "1", "-r", "1", "-n", "1"),
                 ("sweep", "--p-list", big, "--d-mode", "list:1", "--r-max", "1")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "only decided below" in err, argv


def test_large_prime_brute_force_is_prompt(capsys):
    # one column, and a primality test that does not grow with sqrt(p)
    code, out, _ = run(capsys, "compute", "-p", "10000000000000061", "-d", "2",
                       "-r", "1", "-n", "1", "--method", "brute")
    assert code == 0 and "brute = 5000000000000030" in out


@pytest.mark.parametrize("flags, line", [
    (("--p-list", "5,x"), "error: --p-list entries must be integers, got 'x'"),
    (("--p-list", ","), "error: --p-list must name at least one prime"),
    (("--p-list", "5", "--d-mode", "list:x"),
     "error: --d-mode list entries must be integers, got 'x'"),
    (("--p-list", "5", "--d-mode", "list:"),
     "error: --d-mode list must name at least one d"),
])
def test_sweep_list_parse_errors(capsys, flags, line):
    code, out, err = run(capsys, "sweep", *flags, "--r-max", "1")
    assert (code, out, err) == (2, "", line + "\n")


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "sweep", "--p-list", "5", "--d-mode",
                           "list:2", "--r-max", "3", "--format", "csv")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "formula", "-p", "13", "-d", "6", "-r", "5",
                        "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "-p", "5"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    # the period window knob is gone, and sweep enumerates nothing to budget
    for flag in ("--window-periods", "--budget"):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--p-list", "5", "--r-max", "1", flag, "3"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
