"""Indicator functions: pinned tables and their structural laws."""

from fractions import Fraction

import pytest

from anum import (
    TowerParams,
    delta,
    delta0,
    delta0_average,
    delta_lexicographic,
    delta_tilde,
    mu,
)
from anum.checks import checks
from anum.delta import mu_sum
from helpers import delta0_as_sequence, full_grid, pd_grid

# indicators over i = 1..19 for p=5, d=4
DELTA_P5_D4 = (1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0)
DELTA0_P5_D4 = (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0)
DELTA_TILDE_P5_D4 = (1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0)

P5D4 = TowerParams(5, 4, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        TowerParams(4, 1, 1)  # p not prime
    with pytest.raises(ValueError):
        TowerParams(2, 1, 1)  # p must be odd
    with pytest.raises(ValueError):
        TowerParams(5, 3, 1)  # d does not divide p-1
    with pytest.raises(ValueError):
        TowerParams(5, 4, 0)  # r must be positive


def test_derived_quantities():
    assert P5D4.tau == Fraction(3, 2)
    assert P5D4.gamma == Fraction(7, 2)
    assert (P5D4.tau_den, P5D4.tau_num) == (2, 3)
    assert (P5D4.gamma_vp, P5D4.gamma_num, P5D4.gamma_den) == (0, 7, 2)
    big = TowerParams(5, 4, 61)
    assert big.gamma == Fraction(125, 2)
    assert (big.gamma_vp, big.gamma_num, big.gamma_den) == (3, 1, 2)
    for p, d in pd_grid():
        params = TowerParams(p, d, 3)
        assert params.gamma - params.tau == Fraction(3 * (p - 1), d)
        assert (params.gamma - params.tau).denominator == 1
        assert params.gamma_den == params.tau_den
        assert params.tau_den % params.p != 0
        assert d % params.tau_den == 0


def test_pinned_indicator_table():
    got = tuple(delta(P5D4, i) for i in range(1, 20))
    assert got == DELTA_P5_D4
    got = tuple(delta0(P5D4, i) for i in range(1, 20))
    assert got == DELTA0_P5_D4
    got = tuple(delta_tilde(P5D4, i) for i in range(1, 20))
    assert got == DELTA_TILDE_P5_D4


def test_delta_examples():
    assert delta(P5D4, 5) == delta(P5D4, 1) == 1
    # multiples of tau_den prime to p always give 0
    for p, d in pd_grid():
        params = TowerParams(p, d, 1)
        for k in range(1, 6):
            i = params.tau_den * k
            if i % p:
                assert delta(params, i) == 0
    with pytest.raises(ValueError):
        delta(P5D4, 0)


def test_delta0_delta_tilde_examples():
    assert delta0(P5D4, 5) == 0 and delta(P5D4, 5) == 1
    assert delta_tilde(P5D4, 2) == 1
    assert delta_tilde(P5D4, 3) == delta(P5D4, 3) == 0


def test_mu_examples():
    assert mu(P5D4, 1) == 2
    assert mu(P5D4, 2) == 3
    assert mu(P5D4, 3) == 4


def test_mu_sum_kernel_against_lexicographic_reference():
    # windows across multiples of tau_den, p, p^2 and p^3, single columns
    # and whole windows, from lo = 0, and empty ranges
    for params in full_grid():
        p, d, td = params.p, params.d, params.tau_den
        reference = {}

        def ref(lo, hi):
            for i in range(lo + 1, hi + 1):
                if i not in reference:
                    reference[i] = ((p + 1) * i // d
                                    + delta_lexicographic(params, i))
            return sum(reference[i] for i in range(lo + 1, hi + 1))

        for k in (td, p, td * p, p**2, p**3, td * p**3):
            lo, hi = max(0, k - 2 * td - 1), k + 2 * td + 1
            assert mu_sum(params, lo, hi) == ref(lo, hi), (params, k)
            for i in range(lo + 1, hi + 1):
                assert mu_sum(params, i - 1, i) == ref(i - 1, i), (params, i)
        assert mu_sum(params, 0, 3 * p * td) == ref(0, 3 * p * td), params
        assert mu_sum(params, 0, 0) == mu_sum(params, 9, 9) == 0
        assert mu_sum(params, 9, 4) == 0
        with pytest.raises(ValueError):
            mu_sum(params, -1, 2)


def _assert_law_on_grid(name):
    """Run the `anum.checks` law called `name` on every pd_grid pair."""
    for p, d in pd_grid():
        laws = dict(checks(TowerParams(p, d, 1), 0, None))
        assert laws[name](), (p, d, name)


def test_mu_identities():
    _assert_law_on_grid("mu equals floor+delta and ceil-1+delta_tilde")


def test_digit_test_matches_lexicographic_reference():
    _assert_law_on_grid("delta digit test matches the lexicographic definition")


def test_multiplicative_law():
    _assert_law_on_grid("delta is invariant under multiplying i by p")


def test_shift_law():
    _assert_law_on_grid("delta0 shifts by tau_den*p")


def test_digit_comparison_characterizes_multiples_of_p():
    from anum import digit
    for p, d in pd_grid():
        params = TowerParams(p, d, 1)
        for i in range(1, 201):
            x = params.tau * i
            equal = digit(x, p, -1) == digit(x, p, 0)
            assert equal == (i % p == 0)
            if i % p:
                assert (delta(params, i) == 1) == (digit(x, p, -1) > digit(x, p, 0))


def test_reflection_laws():
    for p, d in pd_grid():
        params = TowerParams(p, d, 1)
        td = params.tau_den
        for j in range(1, d):
            if j % p == 0:
                continue
            if j % td:
                assert delta(params, j) + delta(params, d - j) == 1
            else:
                assert delta(params, j) == 0


def test_delta0_average():
    assert delta0_average(P5D4) == Fraction(1, 5)
    assert delta0_average(TowerParams(7, 1, 1)) == 0
    assert delta0_average(TowerParams(13, 4, 1)) == Fraction(3, 13)


def test_delta0_as_sequence():
    seq = delta0_as_sequence(P5D4)
    assert seq.delay == 0
    assert seq.cycle == tuple(Fraction(v) for v in (1, 0, 0, 0, 0, 0, 1, 0, 0, 0))
    assert seq.average == delta0_average(P5D4)

    flat = delta0_as_sequence(TowerParams(7, 2, 1))
    assert flat.cycle == (Fraction(0),) * 7

    for p, d in pd_grid():
        params = TowerParams(p, d, 1)
        seq = delta0_as_sequence(params)
        assert seq.period == params.tau_den * p
        assert sum(seq.cycle) == Fraction((p - 1) * (params.tau_den - 1), 2)
