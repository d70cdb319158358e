"""Acceptance suite.

Every criterion is exact (rational arithmetic, no tolerances).  Each test
prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  The grid is p in {3, 5, 7, 13}, every d | p-1, and
r in {1..12} union {p+1, 2p+1}.
"""

import csv
import io
from contextlib import contextmanager
from fractions import Fraction

from anum import (
    TowerParams,
    a_number_bruteforce,
    check_pairing,
    closed_model,
    delta0,
    delta_sum_closed,
    evaluate,
    floor_sum_closed,
    last_column,
    minimal_nu_period,
    minimal_period,
    sum_decomposition,
    sweep,
)
from anum.checks import checks
from anum.cli import main as cli_main
from helpers import digit_average, full_grid, pd_grid, special_r_eq_p_plus_1

N4_COLUMN_CAP = 50_000  # include n=4 wherever the column count stays modest


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    print(f"criterion {number:2d} PASS  {description}")


def test_criterion_01_three_way_agreement():
    with criterion(1, "brute force, split forms, and closed form agree on the grid"):
        for params in full_grid():
            model = closed_model(params)
            ns = [1, 2, 3]
            if last_column(params, 4) <= N4_COLUMN_CAP:
                ns.append(4)
            for n in ns:
                brute = a_number_bruteforce(params, n)
                decomp = sum_decomposition(params, n)
                assert brute.total == decomp.total, (params, n)
                if n >= model.delay:
                    assert evaluate(model, n) == brute.total, (params, n)


def test_criterion_11_split_forms_match_closed_form_to_n50():
    with criterion(11, "split forms equal the closed form from N_r to n=50 "
                       "on the grid"):
        for params in full_grid():
            model = closed_model(params)
            for n in range(model.delay, 51):
                assert sum_decomposition(params, n).total == evaluate(model, n), (
                    params, n)


def test_criterion_02_closed_model_p5_d4_r2():
    with criterion(2, "p=5 d=4 r=2 model: quad 4/21, lambda 1/3, period 3, "
                      "nu (-4/21, -2/21, 2/7)"):
        model = closed_model(TowerParams(5, 4, 2))
        assert model.quad_coeff == Fraction(4, 21)
        assert model.lam == Fraction(1, 3)
        assert minimal_nu_period(model) == 3
        assert model.nu_table[:minimal_nu_period(model)] == (
            Fraction(-4, 21), Fraction(-2, 21), Fraction(2, 7))
        assert minimal_period(TowerParams(5, 4, 2)).minimal_period == 3


def test_criterion_03_r61_delay():
    with criterion(3, "p=5 d=4 r=61: (122/375)5^{2n} + 2/3 from n=3, "
                      "pre-delay values differ"):
        params = TowerParams(5, 4, 61)
        model = closed_model(params)
        assert model.quad_coeff == Fraction(122, 375)
        assert model.lam == 0
        assert model.delay == 3
        assert set(model.nu_table) == {Fraction(2, 3)}
        for n in (3, 4):
            expected = Fraction(122, 375) * 5**(2 * n) + Fraction(2, 3)
            assert evaluate(model, n) == expected
            assert a_number_bruteforce(params, n).total == expected
        for n in (1, 2):
            naive = Fraction(122, 375) * 5**(2 * n) + Fraction(2, 3)
            assert a_number_bruteforce(params, n).total != naive


def test_criterion_04_first_power_formula():
    with criterion(4, "r=1 equals d(p-1)/(4(p+1))(p^{2n-1}+1) minus the odd-d "
                      "correction on the grid"):
        for p, d in pd_grid():
            laws = dict(checks(TowerParams(p, d, 1), 3, None))
            assert laws["r=1 closed formula matches brute force"](), (p, d)


def test_criterion_05_delta_table_command(capsys):
    with criterion(5, "delta-table 5 4 over i=1..19 matches the pinned rows"):
        code = cli_main(["delta-table", "-p", "5", "-d", "4", "--i-max", "19",
                         "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["i", "delta", "delta0", "delta_tilde"]
        got_delta = [int(r[1]) for r in rows[1:]]
        got_delta0 = [int(r[2]) for r in rows[1:]]
        got_tilde = [int(r[3]) for r in rows[1:]]
        assert got_delta == [1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0]
        assert got_delta0 == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0]
        assert got_tilde == [1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0]


def test_criterion_06_floor_sum_bracket_residues():
    with criterion(6, "p=5 d=4 r=2 floor-sum bracket: 4/21*5^{2n} + 2/21*5^n "
                      "+ pinned 6-periodic residue"):
        residues = (Fraction(-2, 7), Fraction(-5, 21), Fraction(-3, 7),
                    Fraction(-2, 21), Fraction(-2, 7), Fraction(1, 3))
        tau, gamma = Fraction(3, 2), Fraction(7, 2)
        for n in range(0, 12):
            bracket = floor_sum_closed(tau, 5, n) - floor_sum_closed(gamma, 5, n)
            assert bracket == (Fraction(4, 21) * 5**(2 * n)
                               + Fraction(2, 21) * 5**n + residues[n % 6]), n


def test_criterion_07_delta_sum_residues():
    with criterion(7, "p=5 d=4 r=2 delta sums: (1/6)5^n -/+ 1/6 and "
                      "(1/14)5^n + n/3 + pinned residue"):
        params = TowerParams(5, 4, 2)
        residues = (Fraction(-1, 14), Fraction(13, 42), Fraction(23, 42),
                    Fraction(1, 14), Fraction(1, 42), Fraction(5, 42))
        for n in range(0, 12):
            tau_sum = delta_sum_closed(params.tau, params, n)
            sign = Fraction(1, 6) if n % 2 else Fraction(-1, 6)
            assert tau_sum == Fraction(1, 6) * 5**n + sign, n
            gamma_sum = delta_sum_closed(params.gamma, params, n)
            assert gamma_sum == (Fraction(1, 14) * 5**n + Fraction(1, 3) * n
                                 + residues[n % 6]), n


def test_criterion_08_sweep_table_p5_d2():
    with criterion(8, "sweep p=5 d=2 r=1..16 reproduces the pinned period rows"):
        rows = sweep([(5, 2, r) for r in range(1, 17)])
        assert all(row.error == "" for row in rows)
        assert [row.minimal_period for row in rows] == [
            1, 3, 3, 5, 2, 1, 8, 9, 3, 11, 1, 9, 7, 3, 10, 3]
        assert [row.gamma_period for row in rows] == [
            1, 6, 6, 5, 4, 2, 16, 9, 6, 22, 1, 18, 14, 3, 10, 6]


def test_criterion_09_structural_laws():
    with criterion(9, "indicator laws, averages, cancellation, period bounds, "
                      "integrality, and pairing hold on the grid"):
        for p, d in pd_grid():
            params = TowerParams(p, d, 1)
            td = params.tau_den
            block = td * p
            for name, check in checks(params, 0, None):
                assert check(), (p, d, name)
            assert digit_average(1 / params.tau, p) == Fraction(p - 1, 2)
            total = (sum(delta0(params, i) for i in range(1, d))
                     + sum(delta0(params, i) for i in range(1, block - d + 1)))
            assert total == Fraction((p - 1) * (td - 1), 2)
        exact_violations, bound_violations = [], []
        for params in full_grid():
            report = minimal_period(params)
            assert report.lcm_bound % report.minimal_period == 0
            assert report.minimal_period in (report.lcm_bound,
                                             report.lcm_bound // 2)
            assert report.minimal_delay <= report.formula_delay
            # a(n) is an integer and nu(N + L) = nu(N), so
            # a(N + L) - a(N) = lambda*L + quad*p^(2N)*(p^(2L) - 1) is an
            # integer; lambda*L alone need not be (it is 1/2 at (7, 6, 4))
            quad = closed_model(params).quad_coeff
            period, start = report.minimal_period, report.minimal_delay
            exact = (report.lambda_times_period + quad * params.p**(2 * start)
                     * (params.p**(2 * period) - 1))
            if exact.denominator != 1:
                exact_violations.append(
                    (params.p, params.d, params.r, str(report.lambda_value),
                     period, start, str(exact)))
            # at L = lcm_bound B the quadratic step is itself an integer
            # (p^B = 1 modulo gamma_num and p+1, and p^B + 1 is even), so
            # lambda*B is one
            at_bound = report.lambda_value * report.lcm_bound
            if at_bound.denominator != 1:
                bound_violations.append(
                    (params.p, params.d, params.r, str(report.lambda_value),
                     report.lcm_bound, str(at_bound)))
            pairing = check_pairing(params)
            assert pairing.lambda1 == pairing.lambda0
            assert pairing.delay1 == pairing.delay0 + 1
        # fail with the complete list of offending cells
        assert not exact_violations, (
            "lambda*L + quad*p^(2N)*(p^(2L) - 1) is not an integer at "
            f"(p, d, r, lambda, L, N, value): {exact_violations}")
        assert not bound_violations, (
            "lambda times the lcm bound is not an integer at "
            f"(p, d, r, lambda, lcm_bound, lambda*lcm_bound): {bound_violations}")


def test_criterion_10_special_cases():
    with criterion(10, "d in {1,2} gives lambda=0; r=p+1 gives the constant "
                       "model; p=3 d=2 small-r periods match"):
        for p, d in pd_grid():
            if d in (1, 2):
                for r in (1, 2, 5, 9):
                    assert closed_model(TowerParams(p, d, r)).lam == 0, (p, d, r)
            params = TowerParams(p, d, p + 1)
            model = closed_model(params)
            shortcut = special_r_eq_p_plus_1(params)
            assert model.lam == 0
            assert minimal_nu_period(model) == 1
            assert model.nu_table[model.delay % model.claimed_period] == \
                Fraction(p - 1, 2) * (1 / params.tau - 1)
            for n in range(1, 4):
                assert evaluate(model, n) == evaluate(shortcut, n)
        for r in (1, 2, 7):
            assert minimal_period(TowerParams(3, 2, r)).minimal_period == 1
        for r in (3, 6):
            assert minimal_period(TowerParams(3, 2, r)).minimal_period == 2
