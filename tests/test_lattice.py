"""Brute-force counters against hand counts, per-point oracles, and the
triangle identity."""

import importlib
import math
import random
import warnings
from fractions import Fraction

import pytest

import anum.closed_form
import anum.exact_arith
import anum.lattice
from anum import (
    BudgetExceededError,
    TowerParams,
    a_number_bruteforce,
    closed_model,
    count_delta_region,
    delta,
    delta_tilde,
    divisors,
    evaluate,
    is_prime,
    last_column,
    mu,
    multiplicative_order,
    sum_decomposition,
    t_n,
    triangle_lattice_count,
)
from anum.delta import _count_text
from anum.closed_form import _delta_prefix
from anum.exact_arith import _floor_sum
from helpers import (
    count_delta_region_pointwise,
    count_tilde_delta,
    full_grid,
    pd_grid,
    triangle_points_oracle,
)

P5D4R2 = TowerParams(5, 4, 2)
P5D4R1 = TowerParams(5, 4, 1)


def small_grid():
    return [TowerParams(p, d, r) for p, d in pd_grid() for r in (1, 2, 5, p + 1)]


def test_t_n_examples():
    assert t_n(P5D4R2, 2) == 7
    assert t_n(P5D4R1, 1) == 2
    assert t_n(P5D4R2, 1) == 1


def test_t_n_equals_floor_of_inverse_gamma_scaled():
    for params in small_grid():
        for n in range(0, 4):
            g = params.gamma
            assert t_n(params, n) == params.p**n * g.denominator // g.numerator


def test_count_delta_region_examples():
    assert count_delta_region(P5D4R2, 1) == 3
    assert count_delta_region(P5D4R1, 1) == 1
    # empty column range
    assert count_delta_region(TowerParams(3, 1, 1), 1) == 0


def test_brute_force_reads_no_split_form_piece(monkeypatch):
    # brute force is the reference for the split forms, so it takes its
    # floors from its own closed form and calls neither their floor sums
    # nor P0; its module does not even bind them
    pieces = ("_floor_sum", "p0", "_delta_prefix", "sum_decomposition")
    assert [name for name in pieces if hasattr(anum.lattice, name)] == []

    def split_form_piece(*args):
        raise AssertionError("brute force called a split-form piece")

    delta_module = importlib.import_module("anum.delta")
    for module in (anum.exact_arith, delta_module, anum.closed_form):
        for name in pieces:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, split_form_piece)
    with pytest.raises(AssertionError):
        sum_decomposition(P5D4R2, 2)
    assert a_number_bruteforce(P5D4R2, 2).total == 120
    for params in small_grid():
        for n in (1, 2):
            assert (count_delta_region(params, n)
                    == count_delta_region_pointwise(params, n)), (params, n)


def test_per_point_and_per_column_agree():
    for params in small_grid():
        for n in (1, 2):
            assert (count_delta_region(params, n)
                    == count_delta_region_pointwise(params, n)), (params, n)


def test_a_number_examples():
    one = a_number_bruteforce(P5D4R2, 1)
    assert (one.total, one.triangle_term, one.delta_region_count) == (5, 2, 3)
    assert a_number_bruteforce(P5D4R2, 2).total == 120
    assert a_number_bruteforce(P5D4R1, 1).total == 4
    # closed-form cross checks quoted with the examples
    assert Fraction(4, 21) * 25 + Fraction(1, 3) - Fraction(2, 21) == 5
    assert Fraction(4, 21) * 625 + Fraction(2, 3) + Fraction(2, 7) == 120
    assert Fraction(16, 24) * 6 == 4


def test_count_tilde_delta():
    assert count_tilde_delta(P5D4R2, 1) == 5
    assert count_tilde_delta(P5D4R2, 2) == 120
    for params in small_grid():
        for n in (1, 2):
            assert count_tilde_delta(params, n) == a_number_bruteforce(params, n).total
    # t_n = 0 leaves only the delta region
    slim = TowerParams(5, 4, 61)
    assert t_n(slim, 1) == 0
    assert count_tilde_delta(slim, 1) == count_delta_region(slim, 1)


def test_triangle_count_against_point_oracle():
    assert triangle_lattice_count(P5D4R2, 1) == 8
    with pytest.raises(ValueError):
        triangle_lattice_count(P5D4R2, -1)
    for params in small_grid():
        for n in (1, 2):
            assert (triangle_lattice_count(params, n)
                    == triangle_points_oracle(params, n)), (params, n)


def test_column_loops_need_no_clamp():
    # every delta-region column has p^n - mu(i) >= 0, and every triangle
    # column has ceil(tau*x) <= p^n, so neither loop clamps
    for params in full_grid():
        p, d = params.p, params.d
        for n in range(5):
            pn = p**n
            t, last = t_n(params, n), last_column(params, n)
            assert all(pn - mu(params, i) >= 0
                       for i in range(t + 1, last + 1)), (params, n)
            assert all(-(-(p + 1) * x // d) <= pn
                       for x in range(last + 1)), (params, n)


def test_triangle_identity():
    # count = triangle points - top edge + boundary corrections
    for params in small_grid():
        for n in (1, 2, 3):
            points = triangle_lattice_count(params, n)
            last = last_column(params, n)
            corrections = sum(1 - delta_tilde(params, i)
                              for i in range(t_n(params, n) + 1, last + 1))
            assert (a_number_bruteforce(params, n).total
                    == points - last - 1 + corrections), (params, n)


def test_sum_decomposition_examples():
    one = sum_decomposition(P5D4R2, 1)
    assert one.total == 5
    assert one.floor_sum_form is not None
    two = sum_decomposition(P5D4R2, 2)
    assert two.total == 120
    floor_bracket, delta_bracket = two.floor_sum_form
    assert floor_bracket == Fraction(4, 21) * 625 + Fraction(2, 21) * 25 - Fraction(3, 7)
    assert floor_bracket - delta_bracket == 120
    three = sum_decomposition(P5D4R2, 3)
    # the tau-side delta sum at n=3: (1/6)5^3 + 1/6
    tau_sum = sum(delta(P5D4R2, i) for i in range(1, last_column(P5D4R2, 3) + 1))
    assert tau_sum == Fraction(1, 6) * 125 + Fraction(1, 6)
    assert three.total == a_number_bruteforce(P5D4R2, 3).total


def test_sum_decomposition_matches_bruteforce_on_grid():
    # every n <= delay + 1 that minimal_period reads from the split forms:
    # delay <= 2 on the grid, and delay 3 at (5, 4, 61)
    cases = [(params, n) for params in full_grid() for n in range(4)]
    cases += [(TowerParams(5, 4, 61), n) for n in range(5)]
    for params, n in cases:
        decomp = sum_decomposition(params, n)
        brute = a_number_bruteforce(params, n)
        assert decomp.total == brute.total, (params, n)
        assert decomp.t_n == brute.t_n
        assert decomp.triangle_term == brute.triangle_term
        assert decomp.delta_region_count == brute.delta_region_count
        floor_bracket, delta_bracket = decomp.floor_sum_form
        assert floor_bracket - delta_bracket == brute.total, (params, n)
        assert delta_bracket == sum(delta(params, i) for i in range(
            brute.t_n + 1, last_column(params, n) + 1)), (params, n)


def test_floor_sum_against_naive_loop():
    rng = random.Random(6)
    for _ in range(400):
        n, m = rng.randrange(0, 60), rng.randrange(1, 40)
        a, b = rng.randrange(0, 100), rng.randrange(0, 100)
        assert _floor_sum(n, m, a, b) == sum(
            (a * i + b) // m for i in range(n)), (n, m, a, b)


def test_delta_prefix_against_direct_sum():
    for p, d in pd_grid():
        params = TowerParams(p, d, 1)
        running = 0
        for count in range(0, 2001):
            if count:
                running += delta(params, count)
            assert _delta_prefix(params, count) == running, (params, count)


def test_sum_decomposition_at_n_1000_matches_closed_form():
    # O(n) evaluation: no column budget applies, and n = 1000 takes milliseconds
    params = TowerParams(13, 12, 20)
    assert (sum_decomposition(params, 1000).total
            == evaluate(closed_model(params), 1000))


def test_cartier_laws_across_r():
    # a^r(X_n) is the dimension of ker V^r, V the Cartier operator:
    # ker V^r lies in ker V^(r+1), and V maps ker V^(r+2)/ker V^(r+1)
    # injectively into ker V^(r+1)/ker V^r, so the count is monotone and
    # concave in r; 292 sequences over r = 1..79
    for p in filter(is_prime, range(3, 44)):
        for d in divisors(p - 1):
            for n in range(1, 5):
                counts = [sum_decomposition(TowerParams(p, d, r), n).total
                          for r in range(1, 80)]
                steps = [b - a for a, b in zip(counts, counts[1:])]
                assert min(steps) >= 0, (p, d, n)
                assert all(a >= b for a, b in zip(steps, steps[1:])), (p, d, n)


EDGE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
HUGE_P = 10000000000000061


def _r_with_valuation(p, v, rng):
    """A random r >= 1 with v_p(gamma) = v: (p-1)r + p + 1 = 0 mod p^v,
    solved for r mod p^v, and not 0 mod p^(v+1)."""
    base = -(p + 1) * pow(p - 1, -1, p**v) % p**v
    while True:
        r = base + p**v * rng.randrange(0 if base else 1, 4 * p)
        if ((p - 1) * r + p + 1) % p**(v + 1):
            return r


def _edge_cells():
    """40 cells toward the edges: the pairing chain r -> (r+1)p + 1 from
    r = 1 (v_p(gamma) = 1..4) at d = p - 1, (p - 1)/2 and 2, a huge p with
    d = 2, and random draws of d in {1, 2, (p - 1)/2, p - 1} and v_p(gamma)
    in 0..3."""
    rng = random.Random(23)
    cells = {(HUGE_P, 2, 1)}
    for p, d in ((5, 4), (7, 3), (13, 2)):
        r = 1
        for _ in range(4):
            cells.add((p, d, r))
            r = (r + 1) * p + 1
    while len(cells) < 40:
        p = rng.choice(EDGE_PRIMES)
        d = rng.choice((1, 2, (p - 1) // 2, p - 1))
        cells.add((p, d, _r_with_valuation(p, rng.randrange(4), rng)))
    return sorted(cells)


def test_edge_draw_brute_force_matches_split_forms_and_closed_form():
    # every n within a budget of 2 * 10^5 columns: brute force against the
    # split forms, and past the delay against the closed form where the
    # build's period L is at most 250; the huge p counts one column at n = 1,
    # the others reach delta_count's deeper p-adic levels once n is large
    valuations, closed = set(), 0
    for p, d, r in _edge_cells():
        params = TowerParams(p, d, r)
        valuations.add(params.gamma_vp)
        order = multiplicative_order(p, params.gamma_num)
        model = (closed_model(params)
                 if order and math.lcm(order, 2) <= 250 else None)
        n = 0
        while True:
            try:
                brute = a_number_bruteforce(params, n, budget=2 * 10**5)
            except BudgetExceededError:
                break
            assert brute.total == sum_decomposition(params, n).total, (
                params, n)
            if model and n >= model.delay:
                assert brute.total == evaluate(model, n), (params, n)
                closed += 1
            n += 1
        assert n >= 2, params
    assert valuations == {0, 1, 2, 3, 4}
    assert closed >= 100


def test_budget_guard():
    with pytest.raises(BudgetExceededError) as info:
        count_delta_region(P5D4R2, 6, budget=10)
    assert "columns" in str(info.value)
    assert "budget is 10" in str(info.value)
    with pytest.raises(BudgetExceededError):
        triangle_lattice_count(P5D4R2, 6, budget=10)


def test_budget_refuses_a_huge_n_before_forming_p_to_the_n(monkeypatch):
    # t_n and last_column form p^n; n = 10^9 would take hours if either ran
    def forms_p_to_the_n(params, n):
        raise AssertionError("p^n formed before the budget refused n")

    monkeypatch.setattr(anum.lattice, "t_n", forms_p_to_the_n)
    monkeypatch.setattr(anum.lattice, "last_column", forms_p_to_the_n)
    for count in (count_delta_region, a_number_bruteforce,
                  triangle_lattice_count):
        with pytest.raises(BudgetExceededError,
                           match=r"^enumeration needs more than 10\^6989\d{5} "
                                 r"columns, budget is 10000000$"):
            count(P5D4R2, 10**9)


def test_early_refusal_names_the_exact_count_power_of_ten():
    # once the count passes 2^100 (n >= 44 at (5, 4, 2)) the bound alone
    # refuses it; its message matches the one the exact count gives
    def message(columns):
        return (f"enumeration needs {_count_text(columns)} columns, "
                f"budget is 10000000")

    for params in (P5D4R2, TowerParams(13, 12, 5), TowerParams(3, 2, 7)):
        for n in range(40, 400, 7):
            last = last_column(params, n)
            with pytest.raises(BudgetExceededError) as info:
                count_delta_region(params, n)
            assert str(info.value) == message(last - t_n(params, n)), (params, n)
            with pytest.raises(BudgetExceededError) as info:
                triangle_lattice_count(params, n)
            assert str(info.value) == message(last + 1), (params, n)


def test_growth_plausibility():
    # growth in n is expected but not load-bearing: warn, never fail
    stalls = []
    for params in full_grid():
        values = [a_number_bruteforce(params, n).total for n in (1, 2, 3)]
        if not (values[0] < values[1] < values[2]):
            stalls.append((params, values))
    if stalls:
        warnings.warn(f"region count failed to grow strictly at {stalls[:5]}")
