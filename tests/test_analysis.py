"""Period/delay measurement, pairing relations, and the sweep."""

import re
import time
from fractions import Fraction

import pytest

import anum.analysis
import anum.closed_form
import anum.exact_arith
from anum import (
    InvariantViolationError,
    PairingRecord,
    PeriodReport,
    TowerParams,
    check_pairing,
    closed_model,
    minimal_period,
    sweep,
)


def test_minimal_period_p5_d4_r2():
    report = minimal_period(TowerParams(5, 4, 2))
    assert report.lcm_bound == 6
    assert report.minimal_period == 3
    assert report.half_case
    assert report.minimal_delay == 0
    assert report.nu_values == (Fraction(-4, 21), Fraction(-2, 21), Fraction(2, 7))
    assert report.lambda_times_period == 1
    assert report.lambda_integral
    assert report.pairing_partner == 16


def test_minimal_period_table_rows():
    report = minimal_period(TowerParams(5, 2, 2))
    assert report.minimal_period == 3
    assert report.gamma_period == 6

    report = minimal_period(TowerParams(5, 2, 4))
    assert report.minimal_period == 5
    assert report.gamma_period == 5
    assert report.lcm_bound == 10
    assert report.half_case


def test_minimal_period_delay_case():
    report = minimal_period(TowerParams(5, 4, 61))
    assert report.formula_delay == 3
    # below n=3 the residuals genuinely differ, so no earlier delay works
    assert report.minimal_delay == 3
    assert report.minimal_period == 1
    assert report.lcm_bound == 2


def test_minimal_delay_never_exceeds_formula_delay():
    for p, d, r in ((5, 4, 2), (5, 4, 6), (7, 3, 8), (13, 2, 14), (3, 2, 7)):
        report = minimal_period(TowerParams(p, d, r))
        assert report.minimal_delay <= report.formula_delay


def test_check_lambda_integrality():
    report = minimal_period(TowerParams(5, 4, 2))
    assert report.lambda_times_period == 1 and report.lambda_integral
    report = minimal_period(TowerParams(5, 2, 9))
    assert report.lambda_times_period == 0 and report.lambda_integral
    report = minimal_period(TowerParams(5, 4, 61))
    assert report.lambda_times_period == 0 and report.lambda_integral


def test_lambda_integrality_counterexample_p7_d6_r4():
    # measured reality at p=7, d=6, r=4: lambda = 1/2 with a constant
    # residue (period 1), so lambda times the minimal period is 1/2.
    # Confirmed from brute-force data alone: a(1) = 14, a(2) = 676 force
    # lambda = 1/2 once the residue is required to be periodic.
    from anum import a_number_bruteforce, closed_model
    params = TowerParams(7, 6, 4)
    model = closed_model(params)
    assert model.lam == Fraction(1, 2)
    assert a_number_bruteforce(params, 0).total == 0
    assert a_number_bruteforce(params, 1).total == 14
    assert a_number_bruteforce(params, 2).total == 676
    # residue is 2-periodic from n=0, so a(2) - a(0) pins lambda exactly
    fitted = (Fraction(676 - 0) - model.quad_coeff * (7**4 - 1)) / 2
    assert fitted == Fraction(1, 2) == model.lam
    # brute force alone, with no nu table: the residue of a(n) after
    # 9/32*49^n + n/2 is -9/32 for every n <= 6, so the period-1 residue
    # does not rest on the closed model past the delay
    for n in range(7):
        residue = (a_number_bruteforce(params, n).total
                   - Fraction(9, 32) * 49**n - Fraction(n, 2))
        assert residue == Fraction(-9, 32), n
    report = minimal_period(params)
    assert report.minimal_period == 1
    assert report.nu_values == (Fraction(-9, 32),)
    assert report.lambda_times_period == Fraction(1, 2)
    assert not report.lambda_integral
    # the lcm bound variant does hold here
    assert (report.lambda_value * report.lcm_bound).denominator == 1


def test_check_pairing():
    record = check_pairing(TowerParams(5, 4, 1))
    assert record.r1 == 11
    assert record.lambda1 == record.lambda0
    assert record.delay1 == record.delay0 + 1

    # gamma scales by exactly p under the pairing
    left = TowerParams(5, 4, 10)
    right = TowerParams(5, 4, 56)
    assert right.gamma == 5 * left.gamma
    assert check_pairing(left).r1 == 56

    record = check_pairing(TowerParams(3, 2, 2))
    assert record.r1 == 10


def test_self_checks_raise(monkeypatch):
    params = TowerParams(5, 4, 2)
    report = minimal_period(params)
    # _replace skips __new__, so the tamper goes through the constructor
    with pytest.raises(InvariantViolationError, match="does not divide"):
        PeriodReport(**{**report._asdict(), "minimal_period": 4})
    half = Fraction(1, 2)
    with pytest.raises(InvariantViolationError, match="linear coefficients"):
        PairingRecord(r0=2, r1=16, lambda0=0, lambda1=half, delay0=0, delay1=1)
    with pytest.raises(InvariantViolationError, match="offset by one"):
        PairingRecord(r0=2, r1=16, lambda0=half, lambda1=half, delay0=0, delay1=2)
    # a nu table off by one at delay+1 disagrees with brute force there
    model = closed_model(params)
    nu = list(model.nu)
    nu[model.delay + 1] += model.den
    tampered = model._replace(nu=tuple(nu))
    monkeypatch.setattr(anum.analysis, "closed_model", lambda _: tampered)
    with pytest.raises(InvariantViolationError, match="n=1 disagrees"):
        minimal_period(params)


def test_sweep_singleton_matches_report():
    report = minimal_period(TowerParams(5, 4, 2))
    [row] = sweep([(5, 4, 2)])
    assert row.minimal_period == report.minimal_period
    assert row.lcm_bound == report.lcm_bound
    assert row.lam == report.lambda_value
    assert row.quad == closed_model(TowerParams(5, 4, 2)).quad_coeff
    assert row.partner_r == 16
    assert row.partner_period == minimal_period(TowerParams(5, 4, 16)).minimal_period
    assert row.partner_period_equal == (row.partner_period == row.minimal_period)
    assert row.error == ""


def test_sweep_ordering_and_determinism():
    grid = [(5, 2, 3), (3, 2, 1), (5, 2, 1), (3, 1, 2)]
    rows = sweep(grid)
    assert [(row.p, row.d, row.r) for row in rows] == [
        (3, 1, 2), (3, 2, 1), (5, 2, 1), (5, 2, 3)]
    again = sweep(list(reversed(grid)))
    assert rows == again


def test_sweep_records_cell_failures_in_row():
    rows = sweep([(5, 4, 1), (5, 3, 1)])
    assert [(row.p, row.d, row.r) for row in rows] == [(5, 3, 1), (5, 4, 1)]
    assert "d must divide p-1" in rows[0].error
    assert rows[0].minimal_period is None
    assert rows[1].error == ""
    assert rows[1].minimal_period is not None


def test_sweep_refuses_an_entry_that_is_not_three_integers(monkeypatch):
    # r = 2.5 would otherwise run as r = 2, and d = True as d = 1; the
    # refusal comes before any cell runs
    def no_cell(params):
        raise AssertionError("a cell ran before the entries were checked")

    monkeypatch.setattr(anum.analysis, "minimal_period", no_cell)
    for bad in ((5, 4, 2.5), (5, True, 2), (5.0, 4, 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            sweep([(5, 4, 2), bad])


def test_sweep_large_p_cell_needs_no_enumeration():
    # the residuals up to delay + 1 come from the split forms; brute force
    # would need 1.0e8 columns at n = 4 for the partner r = 20605 (delay 3),
    # past the default budget
    [row] = sweep([(101, 100, 203)])
    assert row.error == ""
    assert row.formula_delay == 2


def test_sweep_small_d_has_no_linear_term():
    rows = sweep([(3, d, r) for d in (1, 2) for r in range(1, 9)])
    assert len(rows) == 16
    assert all(row.lam == 0 for row in rows)


def test_sweep_refuses_a_build_past_the_budget_before_starting_it():
    # the cell's own 2L (L = 10000102) is about 2*10^7 entries, past the
    # default budget, so `closed_model` refuses it before building anything
    start = time.perf_counter()
    [row] = sweep([(5, 4, 5000050)])
    assert time.perf_counter() - start < 1
    assert (row.p, row.d, row.r) == (5, 4, 5000050)
    assert re.search(r"the closed-form build needs \d+ entries", row.error)
    assert row.minimal_period is None


def clear_build_caches():
    """Empty every cache a model build reads or fills."""
    for cached in (anum.exact_arith._order, anum.delta0_average,
                   anum.closed_form.closed_model, anum.closed_form._residues,
                   anum.closed_form.delta_sum_linear_coeff):
        cached.cache_clear()


def test_a_cold_sweep_cell_takes_the_order_behind_L_once(monkeypatch):
    # gamma's numerator at (5, 4, 11062998222163) is the prime
    # 22125996444329 (L = 58); the gate, both slopes, the L_gamma_inv
    # column and the partner, which has the same numerator, share one
    # order search, and tau's numerator 3 takes the other; the numerator is
    # never factored
    clear_build_caches()
    factored = []
    factor = anum.exact_arith._factor
    monkeypatch.setattr(anum.exact_arith, "_factor",
                        lambda n: factored.append(n) or factor(n))
    [row] = sweep([(5, 4, 11062998222163)])
    assert row.error == ""
    assert (row.gamma_period, row.lcm_bound) == (29, 58)
    assert anum.exact_arith._order.cache_info().misses == 2
    assert 22125996444329 not in factored


def test_a_cold_sweep_builds_the_delta0_and_tau_tables_once(monkeypatch):
    # 20 cells and their partners at (13, 12) check delta0's average once
    # and share one tau table: L_tau = 2 there, so one tau table is one
    # digit walk of 4 entries, each one evaluation of A
    cells = [(13, 12, r) for r in range(1, 21)]
    alone = []
    for cell in cells:
        clear_build_caches()
        alone += sweep([cell])
    clear_build_caches()
    tau, tau_walks, tau_values = TowerParams(13, 12, 1).tau, [], []
    walk, a_value = anum.closed_form._digit_walk, anum.closed_form._a_value

    def counted_walk(x, params, count):
        if x == tau:
            tau_walks.append(count)
        return walk(x, params, count)

    def counted_a(x, fp, m):
        if x == tau:
            tau_values.append((fp, m))
        return a_value(x, fp, m)

    monkeypatch.setattr(anum.closed_form, "_digit_walk", counted_walk)
    monkeypatch.setattr(anum.closed_form, "_a_value", counted_a)
    rows = sweep(cells)
    assert anum.delta0_average.cache_info().misses == 1
    assert tau_walks == [4]
    assert len(tau_values) == 4
    assert rows == alone
    assert all(row.error == "" for row in rows)


def test_sweep_records_a_pairing_that_changes_the_period():
    # the partner of r = 4 is r = 36; the period goes from 1 to 2 with
    # lambda = 1/2 on both sides
    [row] = sweep([(7, 6, 4)])
    assert row.error == ""
    assert row.partner_r == 36
    assert (row.minimal_period, row.partner_period) == (1, 2)
    assert row.partner_period_equal is False
    assert row.lam == Fraction(1, 2) and row.partner_lambda_equal
    assert row.partner_delay_shift == 1
