"""Closed forms against term-by-term summation and pinned residue tables."""

import importlib
import math
import time
from fractions import Fraction

import pytest

import anum.closed_form
from anum import (
    A_fn,
    BudgetExceededError,
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
    run_python,
    special_d12,
    special_r_eq_p_plus_1,
)

P5D4R2 = TowerParams(5, 4, 2)

# residues of the floor-sum bracket for p=5, d=4, r=2, indexed by n mod 6
FLOOR_BRACKET_RESIDUES = (
    Fraction(-2, 7), Fraction(-5, 21), Fraction(-3, 7),
    Fraction(-2, 21), Fraction(-2, 7), Fraction(1, 3),
)
# residues of the gamma-side delta sum for p=5, d=4, r=2, indexed by n mod 6:
# delta_sum_closed less (1/14) 5^n and n/3
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


def test_A_fn_matches_its_written_out_sum():
    # the centred sum inside A, one floor sum, against the direct sum of
    # fractional parts, over one digit period of 1/x past its delay
    extra = [TowerParams(*cell) for cell in ((61, 60, 7), (101, 100, 3))]
    for params in full_grid() + extra:
        p = params.p
        for x in (params.tau, params.gamma):
            den, x_inv = x.denominator, 1 / x
            centre = Fraction(den - 1, 2 * den)
            delay, length = longdiv_delay_period(x_inv, p)
            for n in range(delay + length + 1):
                scaled = x_inv * p**n
                fp = scaled - math.floor(scaled)
                centred = sum((x * k - math.floor(x * k) - centre
                               for k in range(1, math.floor(scaled) % den + 1)),
                              Fraction(0))
                assert A_fn(x_inv, p, n) == (
                    (x * (1 - fp) - 2 * centre) * fp / 2 + centred), (params, x, n)


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


def test_split_sums_read_no_residue_code(monkeypatch):
    # floor_sum_closed and delta_sum_closed are the split forms, the oracle
    # the bench checks builds against: they must not reach A, F, g or the
    # p^n digit helpers that the residue tables read
    def unreachable(*args):
        raise AssertionError(f"a split sum reached the residue code: {args}")

    exact_arith = importlib.import_module("anum.exact_arith")
    for module, name in ((anum.closed_form, "A_fn"), (anum.closed_form, "F_fn"),
                         (anum.closed_form, "_residues"),
                         (anum.closed_form, "frac_part_pn"),
                         (anum.closed_form, "floor_pn_mod"),
                         (exact_arith, "frac_part_pn"),
                         (exact_arith, "floor_pn_mod")):
        monkeypatch.setattr(module, name, unreachable)
    for p, d in pd_grid():
        for r in (1, 2, 5):
            params = TowerParams(p, d, r)
            for x in (params.tau, params.gamma):
                for n in range(0, 4):
                    assert (floor_sum_closed(x, p, n)
                            == naive_floor_sum(x, p, n)), (p, d, r, x, n)
                    assert (delta_sum_closed(x, params, n) == naive_delta_sum(
                        params, floor_inv_pn(x, p, n))), (p, d, r, x, n)


def test_closed_sums_certified_by_split_form_oracle():
    # the closed form, read from the residue tables, against the O(n) split
    # forms, which enumerate nothing and never read A, F or the tables, over
    # two periods past the delay (L reaches 126 here, far past brute force)
    for p, d, r in ((5, 4, 61), (7, 6, 4), (13, 4, 7), (13, 12, 20), (19, 18, 25)):
        params = TowerParams(p, d, r)
        model = closed_model(params)
        for n in range(model.delay, model.delay + 2 * model.claimed_period):
            assert evaluate(model, n) == sum_decomposition(params, n).total, (
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
        assert closed_model(params).lam == paper, params  # x is gamma here


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


def reference_value(model, n):
    """quad * p^(2n) + lam * n + nu(n), written out in Fractions."""
    p = model.params.p
    return (model.quad_coeff * p**(2 * n) + model.lam * n
            + model.nu_table[n % model.claimed_period])


def test_evaluate_matches_the_written_out_form():
    for params in full_grid():
        model = closed_model(params)
        for n in range(model.delay, model.delay + 2 * model.claimed_period):
            assert evaluate(model, n) == reference_value(model, n), (params, n)
    model = closed_model(TowerParams(13, 12, 20))
    value = evaluate(model, 2000)
    assert value == reference_value(model, 2000)
    assert 10**4455 < value < 10**4456  # past the 4300-digit str() limit


def test_integrality_refusal_at_large_n_is_an_invariant_violation():
    # the value there is past the 4300-digit int-to-str limit, so the
    # message writes it as its sign and a power of ten
    model = closed_model(TowerParams(13, 12, 20))
    bad = model._replace(
        nu_table=tuple(v + Fraction(1, 2) for v in model.nu_table))
    with pytest.raises(InvariantViolationError, match="non-integral"):
        evaluate(bad, 5)
    with pytest.raises(InvariantViolationError,
                       match=r"value \(more than 10\^\d+\) at n=3000$"):
        evaluate(bad, 3000)
    low = model._replace(
        nu_table=tuple(v - 10**4000 for v in model.nu_table))
    with pytest.raises(InvariantViolationError,
                       match=r"negative value -\(more than 10\^3999\) at n=5$"):
        evaluate(low, 5)


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


def test_closed_model_self_checks_raise(monkeypatch):
    build = closed_model.__wrapped__  # bypass the cache: always a fresh build
    with pytest.raises(InvariantViolationError, match="quadratic"):
        build(SwappedSlope(5, 4, 2))
    # P0 counts one extra indicator at m = 20, the end of the period at
    # (7, 6) less one; the cache is bypassed, as for the build
    module = importlib.import_module("anum.delta")  # anum.delta is the function
    read = module.p0
    monkeypatch.setattr(module, "p0",
                        lambda params, m: read(params, m) + (m == 20))
    with pytest.raises(InvariantViolationError, match="delta0 average"):
        delta0_average.__wrapped__(TowerParams(7, 6, 1))
    monkeypatch.undo()
    model = build(P5D4R2)
    period = model.claimed_period
    read = anum.closed_form._nu  # the reader behind the window and nu_value
    tampers = (
        ("periodic", lambda n, v: v + Fraction(1, 7) * (n == period + 1)),
        ("non-integral", lambda n, v: v + Fraction(1, 2)),
        ("negative value -", lambda n, v: v - 10**9),
    )
    for message, change in tampers:
        monkeypatch.setattr(anum.closed_form, "_nu",
                            lambda tables, n: change(n, read(tables, n)))
        with pytest.raises(InvariantViolationError, match=message):
            build(P5D4R2)
    monkeypatch.undo()
    assert build(P5D4R2) == model


def test_window_check_finds_a_value_that_turns_negative_past_the_delay(
        monkeypatch):
    # nu off by -10^9 at n = 2 mod 6 only: periodic and integral, and the
    # value is non-negative at n = 0 and 1, so only the running bound,
    # kept exact while the value is below max|E|/(p^2 - 1), sees it
    read = anum.closed_form._nu
    monkeypatch.setattr(anum.closed_form, "_nu", lambda tables, n: (
        read(tables, n) - 10**9 * (n % 6 == 2)))
    with pytest.raises(InvariantViolationError, match="negative value -.* at n=2$"):
        closed_model.__wrapped__(P5D4R2)


def test_huge_p_build_is_refused_by_the_bounded_order_search(monkeypatch):
    # gamma_num at r = 100042 is the prime 500215000000003001291, and the
    # order of p modulo it is past the budget: baby-step giant-step refuses
    # it in about 2 * 3163 steps, with no factorisation
    monkeypatch.setattr(importlib.import_module("anum.exact_arith"), "_factor",
                        None)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=(
            r"^the closed-form build needs more than 10\^7 entries, "
            r"budget is 10000000$")):
        closed_model.__wrapped__(TowerParams(10**16 + 61, 2, 100042))
    assert time.perf_counter() - start < 1


BUILD_REFUSAL = "the closed-form build needs 20000204 entries, budget is 10000000"
GATED = {
    "closed_model(cell)": BUILD_REFUSAL,
    "lambda_r(cell)": BUILD_REFUSAL,
    "check_pairing(cell)": BUILD_REFUSAL,
    "nu_value(cell, 0)": BUILD_REFUSAL,
    "delta_sum_linear_coeff(cell.gamma, cell)": (
        "the residue table of slope 10000103/2 needs 20000204 entries, "
        "budget is 10000000"),
}


@pytest.mark.parametrize("call", GATED)
def test_every_library_path_to_a_build_is_gated(call):
    # L = L_gamma = 10000102 at (5, 4, 5000050): each public reader of the
    # residue tables is refused before it evaluates any; a fresh process
    # turns a hang into a timeout instead of stalling the suite
    script = ("import anum\n"
              "cell = anum.TowerParams(5, 4, 5000050)\n"
              "try:\n"
              f"    anum.{call}\n"
              "except anum.BudgetExceededError as exc:\n"
              "    print(exc)\n")
    start = time.perf_counter()
    assert run_python("-c", script, timeout=20) == (0, GATED[call] + "\n", "")
    assert time.perf_counter() - start < 2


@pytest.fixture
def fresh_residues():
    """Empty the residue-table cache around a test that builds fresh models."""
    anum.closed_form._residues.cache_clear()
    yield anum.closed_form._residues
    anum.closed_form._residues.cache_clear()


def split_residue(x, params, n, c):
    """R(n) = A(1/x, n) - B(x, n) from the split forms: the floor sum less
    (1/2)(1/x) p^(2n) + (1/2)((1/x)(1 - 1/den) - 1) p^n, den the
    denominator of x, minus the delta sum less <delta0> p^(n+1)/((p-1) x)
    and c n."""
    p, td = params.p, params.tau_den
    avg = Fraction((p - 1) * (td - 1), 2 * p * td)  # <delta0>, written out
    pn = p**n
    a = (floor_sum_closed(x, p, n) - pn * pn / (2 * x)
         - (1 / x * (1 - Fraction(1, x.denominator)) - 1) * pn / 2)
    b = delta_sum_closed(x, params, n) - avg * pn * p / ((p - 1) * x) - c * n
    return a - b


def test_residue_tables_match_direct_evaluation(fresh_residues):
    # each slope is read alone through the shared reader, against a table
    # that reads 0 at every n; the reference is the split forms less their
    # leads, with c the growth of the delta side over one digit period of
    # 1/x from its delay.  The five extra cells run two periods of nu past
    # the delay, up to L = 126
    read, zero = anum.closed_form._nu, (0, 0, (Fraction(0),))
    extra = [TowerParams(*cell) for cell in ((5, 4, 61), (7, 6, 4), (13, 4, 7),
                                             (13, 12, 20), (19, 18, 25))]
    for params in full_grid() + extra:
        slopes = (params.tau, params.gamma)
        c = {}
        for x in slopes:
            delay, period = longdiv_delay_period(1 / x, params.p)
            c[x] = (split_residue(x, params, delay, 0)
                    - split_residue(x, params, delay + period, 0)) / period
        tau, gamma = (fresh_residues(x, params.p, params.d) for x in slopes)
        assert (tau[0], gamma[0]) == (c[params.tau], c[params.gamma]), params
        delay, period = longdiv_delay_period(1 / params.gamma, params.p)
        for n in range(max(51, delay + 2 * math.lcm(period, 2))):
            r_tau, r_gamma = (split_residue(x, params, n, c[x]) for x in slopes)
            assert read((tau, zero), n) == r_tau, (params, n)
            assert read((zero, gamma), n) == -r_gamma, (params, n)
            assert anum.closed_form.nu_value(params, n) == r_tau - r_gamma
    with pytest.raises(ValueError, match="non-negative"):
        anum.closed_form.nu_value(P5D4R2, -1)


def test_lambda_is_read_from_the_gamma_table():
    for params in full_grid():
        assert closed_model(params).lam == delta_sum_linear_coeff(params.gamma, params)

def plant_half(monkeypatch, x_inv, planted):
    """A_fn off by 1/2 at 1/x = x_inv wherever planted(n) holds."""
    monkeypatch.setattr(
        anum.closed_form, "A_fn",
        lambda y, p, n: A_fn(y, p, n) + Fraction(1, 2) * (y == x_inv and planted(n)))


def test_planted_residue_faults_raise(monkeypatch, fresh_residues):
    build = closed_model.__wrapped__
    p5d4r46 = TowerParams(5, 4, 46)  # gamma: v = 1, L = 9, so n = 10..18 re-checked
    faults = (
        (P5D4R2, P5D4R2.tau, "non-integral", lambda n: n % 2 == 1),
        (P5D4R2, P5D4R2.tau, "not periodic", lambda n: n == 3),
        (p5d4r46, p5d4r46.gamma, "not periodic", lambda n: n == 10),
        (p5d4r46, p5d4r46.gamma, "not periodic", lambda n: n == 18),
    )
    for params, x, message, planted in faults:
        plant_half(monkeypatch, 1 / x, planted)
        fresh_residues.cache_clear()
        with pytest.raises(InvariantViolationError, match=message):
            build(params)


def count_residue_calls(monkeypatch, params):
    """Build params afresh and count A_fn and F_fn calls per slope."""
    calls = {"A tau": 0, "A gamma": 0, "F tau": 0, "F gamma": 0}

    def counted(name, fn):
        def call(x_inv, *args):
            calls[f"{name} {'tau' if x_inv == 1 / params.tau else 'gamma'}"] += 1
            return fn(x_inv, *args)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(anum.closed_form, "A_fn", counted("A", A_fn))
        patch.setattr(anum.closed_form, "F_fn", counted("F", F_fn))
        model = closed_model.__wrapped__(params)
    return model, calls


def test_build_evaluates_each_residue_table_once(monkeypatch, fresh_residues):
    # v + 2 L_gamma evaluations on gamma: (31, 30, 100) has v = 0 and
    # L_gamma = 378; (5, 4, 46) has v = 1 and L_gamma = 9 (claimed period 18).
    # The tau table depends on (p, d) alone: a second r there evaluates none
    for cell, period, gamma_calls, tau_calls in (((31, 30, 100), 378, 756, 4),
                                                 ((31, 30, 7), 110, 110, 0),
                                                 ((5, 4, 46), 18, 19, 4)):
        model, calls = count_residue_calls(monkeypatch, TowerParams(*cell))
        assert model.claimed_period == period
        assert calls["A tau"] == calls["F tau"] == tau_calls, calls
        assert calls["A gamma"] == calls["F gamma"] == gamma_calls, calls


def test_build_reads_each_residue_table_once(monkeypatch, fresh_residues):
    # one lookup per slope; the 2L window is indexed, not read through nu_value
    def unreachable(params, n):
        raise AssertionError(f"nu_value({params}, {n}) was called")

    monkeypatch.setattr(anum.closed_form, "nu_value", unreachable)
    for cell in ((31, 30, 100), (5, 4, 46), (13, 12, 20)):
        fresh_residues.cache_clear()
        closed_model.__wrapped__(TowerParams(*cell))
        assert fresh_residues.cache_info().misses == 2, cell
