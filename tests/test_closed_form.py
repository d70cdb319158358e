"""Closed forms against term-by-term summation and pinned residue tables."""

import importlib
from fractions import Fraction

import pytest

import anum.closed_form
from anum import (
    A_fn,
    F_fn,
    InvariantViolationError,
    PreDelayError,
    TowerParams,
    a_number_bruteforce,
    closed_model,
    delta0,
    delta0_average,
    delta_sum_closed,
    delta_sum_linear_coeff,
    delta_sum_residue,
    evaluate,
    floor_sum_closed,
    frac_part_pn,
    lambda_r,
    minimal_nu_period,
    model_to_dict,
    sum_decomposition,
)
from anum.checks import checks
from helpers import (
    digit_average,
    floor_inv_pn,
    full_grid,
    longdiv_delay_period,
    naive_delta_sum,
    naive_floor_sum,
    pd_grid,
    special_d12,
    special_r_eq_p_plus_1,
)

P5D4R2 = TowerParams(5, 4, 2)

# residues of the floor-sum bracket for p=5, d=4, r=2, indexed by n mod 6
FLOOR_BRACKET_RESIDUES = (
    Fraction(-2, 7), Fraction(-5, 21), Fraction(-3, 7),
    Fraction(-2, 21), Fraction(-2, 7), Fraction(1, 3),
)
# residues of the gamma-side delta sum for p=5, d=4, r=2, indexed by n mod 6
DELTA_SUM_RESIDUES = (
    Fraction(-1, 14), Fraction(13, 42), Fraction(23, 42),
    Fraction(1, 14), Fraction(1, 42), Fraction(5, 42),
)


def test_floor_sum_closed_small_example():
    # sum over i=1..3 of (5 - floor(3i/2)) = 4 + 2 + 1
    assert floor_sum_closed(Fraction(3, 2), 5, 1) == 7
    assert naive_floor_sum(Fraction(3, 2), 5, 1) == 7


def test_floor_sum_closed_matches_naive_on_grid():
    for p, d in pd_grid():
        for r in (1, 2, 5):
            params = TowerParams(p, d, r)
            for x in (params.tau, params.gamma):
                for n in range(0, 4):
                    assert (floor_sum_closed(x, p, n)
                            == naive_floor_sum(x, p, n)), (p, d, r, x, n)


def test_floor_sum_closed_rejects_negative_valuation():
    with pytest.raises(ValueError):
        floor_sum_closed(Fraction(2, 5), 5, 1)


def test_floor_bracket_residues_pinned():
    quad = Fraction(4, 21)
    linear = Fraction(2, 21)
    for n in range(0, 12):
        bracket = (floor_sum_closed(Fraction(3, 2), 5, n)
                   - floor_sum_closed(Fraction(7, 2), 5, n))
        expected = quad * 5**(2 * n) + linear * 5**n + FLOOR_BRACKET_RESIDUES[n % 6]
        assert bracket == expected, n


def test_A_fn_integral_x():
    # x integral with p^n/x integral leaves no residue at all
    assert A_fn(Fraction(1, 5), 5, 2) == 0
    # x integral otherwise: A = x*(1 - {p^n/x})*{p^n/x}/2 with {3/2} = 1/2
    assert A_fn(Fraction(1, 2), 3, 1) == Fraction(2) * Fraction(1, 2) * Fraction(1, 2) / 2


def test_A_fn_constant_for_small_d():
    for p in (3, 5, 7, 13):
        for d in (1, 2):
            params = TowerParams(p, d, 1)
            tau_inv = 1 / params.tau
            first = A_fn(tau_inv, p, 0)
            for n in range(1, 7):
                assert A_fn(tau_inv, p, n) == first
            fp = Fraction(d, p + 1)
            assert first == params.tau * (1 - fp) * fp / 2


def test_A_fn_periodicity():
    for p, d in pd_grid():
        for r in (2, 7):
            params = TowerParams(p, d, r)
            for x in (params.tau, params.gamma):
                delay, length = longdiv_delay_period(1 / x, p)
                for n in range(delay, delay + 2 * length):
                    assert A_fn(1 / x, p, n) == A_fn(1 / x, p, n + length)


def test_F_fn_examples():
    params = P5D4R2
    tau_inv = Fraction(2, 3)
    # floor(tau_inv * 5) mod 10 = 3 = d - 1
    total = sum(delta0(params, i) for i in range(1, 4))
    assert F_fn(tau_inv, params, 1) == total - 3 * delta0_average(params)
    assert F_fn(tau_inv, params, 0) == 0
    avg = (F_fn(tau_inv, params, 1) + F_fn(tau_inv, params, 2)) / 2
    assert avg == Fraction(1, 10)
    assert avg == (1 - Fraction(1, 5)) * (1 - Fraction(1, 2)) / 4


def test_delta_sum_closed_matches_naive_on_grid():
    for p, d in pd_grid():
        for r in (1, 2, 5):
            params = TowerParams(p, d, r)
            for x in (params.tau, params.gamma):
                for n in range(0, 4):
                    closed = delta_sum_closed(x, params, n)
                    naive = naive_delta_sum(params, floor_inv_pn(x, p, n))
                    assert closed == naive, (p, d, r, x, n)


def test_delta_sum_closed_requires_matching_denominator():
    with pytest.raises(ValueError):
        delta_sum_closed(Fraction(5, 3), P5D4R2, 1)
    with pytest.raises(ValueError):
        delta_sum_closed(Fraction(1, 2), P5D4R2, 1)
    with pytest.raises(ValueError):  # a factor p in the denominator
        delta_sum_closed(Fraction(11, 10), P5D4R2, 1)


def test_delta_sum_closed_vanishes_for_small_d():
    params = TowerParams(7, 2, 3)
    for n in range(0, 5):
        assert delta_sum_closed(params.tau, params, n) == 0
        assert delta_sum_closed(params.gamma, params, n) == 0


def test_delta_sum_pinned_residues():
    params = P5D4R2
    for n in range(0, 12):
        tau_sum = delta_sum_closed(params.tau, params, n)
        sign = Fraction(1, 6) if n % 2 else Fraction(-1, 6)
        assert tau_sum == Fraction(1, 6) * 5**n + sign, n
        gamma_sum = delta_sum_closed(params.gamma, params, n)
        expected = (Fraction(1, 14) * 5**n + Fraction(1, 3) * n
                    + DELTA_SUM_RESIDUES[n % 6])
        assert gamma_sum == expected, n
        assert delta_sum_residue(params.gamma, params, n) == DELTA_SUM_RESIDUES[n % 6]


def test_closed_sums_certified_by_split_form_oracle():
    # the O(n) split forms enumerate nothing and never read A, B or F, so
    # they certify both closed sums, p^n lead included, over two periods
    # past the delay (L reaches 126 here)
    for p, d, r in ((5, 4, 61), (7, 6, 4), (13, 4, 7), (13, 12, 20), (19, 18, 25)):
        params = TowerParams(p, d, r)
        model = closed_model(params)
        tau, gamma = params.tau, params.gamma
        for n in range(model.delay + 2 * model.claimed_period):
            closed = (floor_sum_closed(tau, p, n) - floor_sum_closed(gamma, p, n),
                      delta_sum_closed(tau, params, n)
                      - delta_sum_closed(gamma, params, n))
            assert sum_decomposition(params, n).floor_sum_form == closed, (
                p, d, r, n)


def test_tau_side_linear_coefficient_vanishes():
    for p, d in pd_grid():
        laws = dict(checks(TowerParams(p, d, 1), 0, None))
        assert laws["tau-side linear coefficient vanishes"](), (p, d)


def test_linear_coeff_matches_paper_form():
    # the paper's two-sequence form, averaged directly over one digit
    # period of 1/x past its delay; the tau side's vanishes
    for params in full_grid():
        p, shrink = params.p, 1 - Fraction(1, params.tau_den)
        for x in (params.tau, params.gamma):
            delay, period = longdiv_delay_period(1 / x, p)
            window = range(delay + 1, delay + 1 + period)
            f_avg = sum(F_fn(1 / x, params, e) for e in window) / period
            frac_avg = sum(frac_part_pn(1 / x, p, e) for e in window) / period
            paper = f_avg - (p - 1) * frac_avg / (2 * p) * shrink
            assert delta_sum_linear_coeff(x, params) == paper, (params, x)
        assert delta_sum_linear_coeff(params.tau, params) == 0, params


def test_tau_inverse_digit_average():
    for p, d in pd_grid():
        params = TowerParams(p, d, 1)
        assert digit_average(1 / params.tau, p) == Fraction(p - 1, 2)


def test_reflected_indicator_block_sum():
    for p, d in pd_grid():
        params = TowerParams(p, d, 1)
        td = params.tau_den
        total = (sum(delta0(params, i) for i in range(1, d))
                 + sum(delta0(params, i) for i in range(1, td * p - d + 1)))
        assert total == Fraction((p - 1) * (td - 1), 2)


def test_lambda_examples():
    assert lambda_r(P5D4R2) == Fraction(1, 3)
    assert lambda_r(TowerParams(5, 4, 61)) == 0
    for p, d in pd_grid():
        assert lambda_r(TowerParams(p, d, p + 1)) == 0


def test_closed_model_pinned():
    model = closed_model(P5D4R2)
    assert model.quad_coeff == Fraction(4, 21)
    assert model.lam == Fraction(1, 3)
    assert model.delay == 0
    assert model.claimed_period == 6
    assert minimal_nu_period(model) == 3
    assert model.nu_table[:minimal_nu_period(model)] == (
        Fraction(-4, 21), Fraction(-2, 21), Fraction(2, 7))


def test_closed_model_delay_case():
    model = closed_model(TowerParams(5, 4, 61))
    assert model.quad_coeff == Fraction(122, 375)
    assert model.lam == 0
    assert model.delay == 3
    assert set(model.nu_table) == {Fraction(2, 3)}
    assert evaluate(model, 3) == Fraction(122, 375) * 5**6 + Fraction(2, 3)
    with pytest.raises(PreDelayError):
        evaluate(model, 2)


def test_closed_model_p3_quadratic_coefficient():
    for r in range(1, 9):
        model = closed_model(TowerParams(3, 2, r))
        assert model.quad_coeff == Fraction(r, 4 * (r + 2))
        model = closed_model(TowerParams(3, 1, r))
        assert model.quad_coeff == Fraction(r, 8 * (r + 2))


def test_evaluate_matches_bruteforce_sample():
    for params in (P5D4R2, TowerParams(7, 3, 1), TowerParams(13, 6, 4),
                   TowerParams(5, 4, 61), TowerParams(3, 2, 5)):
        model = closed_model(params)
        for n in range(max(1, model.delay), 4):
            assert evaluate(model, n) == a_number_bruteforce(params, n).total


def test_evaluate_is_integral_over_two_periods():
    for params in (P5D4R2, TowerParams(5, 2, 7), TowerParams(7, 6, 3)):
        model = closed_model(params)
        for n in range(model.delay, model.delay + 2 * model.claimed_period):
            assert isinstance(evaluate(model, n), int)


def test_special_d12():
    for p, d in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 2), (13, 1)):
        for r in (1, 3, 8):
            params = TowerParams(p, d, r)
            for n in range(1, 4):
                value = special_d12(params, n)
                assert value == a_number_bruteforce(params, n).total, (p, d, r, n)
    with pytest.raises(ValueError):
        special_d12(P5D4R2, 1)


def test_special_r_eq_p_plus_1():
    for p, d in pd_grid():
        params = TowerParams(p, d, p + 1)
        shortcut = special_r_eq_p_plus_1(params)
        assert shortcut.lam == 0
        assert shortcut.claimed_period == 1
        assert shortcut.nu_table[0] == Fraction(p - 1, 2) * (1 / params.tau - 1)
        general = closed_model(params)
        for n in range(1, 5):
            assert evaluate(shortcut, n) == evaluate(general, n)
    # p=5, d=4, r=6: constant part is -2/3
    assert special_r_eq_p_plus_1(TowerParams(5, 4, 6)).nu_table[0] == Fraction(-2, 3)
    with pytest.raises(ValueError):
        special_r_eq_p_plus_1(P5D4R2)


def test_model_serialization_schema():
    data = model_to_dict(closed_model(P5D4R2))
    assert data == {
        "p": 5, "d": 4, "r": 2,
        "quad": "4/21", "lambda": "1/3", "N_r": 0,
        "period": 3, "nu": ["-4/21", "-2/21", "2/7"],
    }
    model = closed_model(P5D4R2)
    assert model.claimed_period == 6
    assert model.nu_table == (Fraction(-4, 21), Fraction(-2, 21), Fraction(2, 7)) * 2


def test_quadratic_coefficient_wiring_check():
    # the two renderings agree on the whole grid (would raise otherwise)
    for params in full_grid():
        model = closed_model(params)
        p, d, r = params.p, params.d, params.r
        assert model.quad_coeff == Fraction(
            d * r * (p - 1), 2 * (p + 1) * ((p - 1) * r + p + 1))


def test_every_cache_is_bounded():
    cached = {}
    for layer in ("exact_arith", "periodic_sum", "delta", "lattice",
                  "closed_form", "analysis", "cli"):
        module = importlib.import_module(f"anum.{layer}")
        cached.update((f"{layer}.{name}", obj) for name, obj in vars(module).items()
                      if hasattr(obj, "cache_info"))
    assert "closed_form.closed_model" in cached
    for name, cache in cached.items():
        assert cache.cache_info().maxsize is not None, name


def test_closed_model_rebuilds_equal_after_eviction():
    first = TowerParams(3, 2, 1)
    model = closed_model(first)
    size = closed_model.cache_info().maxsize
    for r in range(2, size + 3):
        closed_model(TowerParams(3, 2, r))
    assert closed_model.cache_info().currsize <= size
    misses = closed_model.cache_info().misses
    rebuilt = closed_model(first)
    assert closed_model.cache_info().misses == misses + 1
    assert rebuilt == model and rebuilt is not model


class SwappedSlope(TowerParams):
    """Wires (p-1)/d where the slope (p+1)/d belongs."""

    @property
    def tau(self):
        return Fraction(self.p - 1, self.d)


class MiscountedDelta0(TowerParams):
    """delta0 prefix sums that count one extra indicator at the end."""

    @property
    def delta0_prefix(self):
        sums = TowerParams(self.p, self.d, self.r).delta0_prefix
        return sums[:-1] + (sums[-1] + 1,)


def test_closed_model_self_checks_raise(monkeypatch):
    build = closed_model.__wrapped__  # bypass the cache: always a fresh build
    with pytest.raises(InvariantViolationError, match="quadratic"):
        build(SwappedSlope(5, 4, 2))
    with pytest.raises(InvariantViolationError, match="delta0 average"):
        delta0_average(MiscountedDelta0(7, 6, 1))
    model = build(P5D4R2)
    period = model.claimed_period
    nu_value = anum.closed_form.nu_value
    tampers = (
        ("periodic", lambda n, v: v + Fraction(1, 7) * (n == period + 1)),
        ("non-integral", lambda n, v: v + Fraction(1, 2)),
        ("negative value -", lambda n, v: v - 10**9),
    )
    for message, change in tampers:
        monkeypatch.setattr(anum.closed_form, "nu_value",
                            lambda params, n: change(n, nu_value(params, n)))
        with pytest.raises(InvariantViolationError, match=message):
            build(P5D4R2)
    monkeypatch.undo()
    assert build(P5D4R2) == model


@pytest.fixture
def fresh_tau_residues():
    """Empty the tau-pair cache around a test that builds fresh models."""
    anum.closed_form._tau_residues.cache_clear()
    yield anum.closed_form._tau_residues
    anum.closed_form._tau_residues.cache_clear()


def test_tau_residue_pair_matches_direct_evaluation(fresh_tau_residues):
    for params in full_grid():
        tau, p = params.tau, params.p
        pair = fresh_tau_residues(params)
        for n in range(51):
            direct = A_fn(1 / tau, p, n) - delta_sum_residue(tau, params, n)
            assert pair[n % 2] == direct, (params, n)


def test_planted_tau_residue_fault_raises(monkeypatch, fresh_tau_residues):
    build = closed_model.__wrapped__
    tau_inv = 1 / P5D4R2.tau
    faults = (
        ("non-integral", lambda n: n % 2 == 1),  # R shifted at every odd n
        ("not 2-periodic", lambda n: n == 3),  # R shifted at n = 3 alone
    )
    for message, planted in faults:
        monkeypatch.setattr(
            anum.closed_form, "A_fn",
            lambda x_inv, p, n: A_fn(x_inv, p, n)
            + Fraction(1, 2) * (x_inv == tau_inv and planted(n)))
        fresh_tau_residues.cache_clear()
        with pytest.raises(InvariantViolationError, match=message):
            build(P5D4R2)


def test_build_reads_tau_residues_at_most_four_times(monkeypatch, fresh_tau_residues):
    params = TowerParams(31, 30, 100)
    calls = {"A tau": 0, "A gamma": 0, "B tau": 0, "B gamma": 0}

    def counted_A(x_inv, p, n):
        calls["A tau" if x_inv == 1 / params.tau else "A gamma"] += 1
        return A_fn(x_inv, p, n)

    def counted_B(x, prm, n):
        calls["B tau" if x == params.tau else "B gamma"] += 1
        return delta_sum_residue(x, prm, n)

    monkeypatch.setattr(anum.closed_form, "A_fn", counted_A)
    monkeypatch.setattr(anum.closed_form, "delta_sum_residue", counted_B)
    model = closed_model.__wrapped__(params)
    assert model.claimed_period == 378
    assert calls["A tau"] <= 4 and calls["B tau"] <= 4, calls
    assert calls["A gamma"] == calls["B gamma"] == 2 * 378, calls
