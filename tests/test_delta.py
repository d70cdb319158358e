"""Indicator functions: pinned tables and their structural laws."""

from fractions import Fraction
from itertools import accumulate

import pytest

import anum.exact_arith
from anum import (
    TowerParams,
    delta,
    delta0,
    delta0_average,
    delta_lexicographic,
    delta_tilde,
    divisors,
    mu,
)
from anum.checks import checks
from anum.delta import mu_sum, p0
from helpers import delta0_as_sequence, full_grid, mu_sum_columnwise, pd_grid

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


# a power of p inside each 10^5-column window
LONG_WINDOW_CENTRE = {5: 5**8, 13: 13**5}


def test_mu_sum_residue_walk_against_columnwise_loop():
    # short windows next to multiples of p, windows of about 16p columns,
    # windows spanning several powers of p, and 10^5 columns, so that the
    # deeper levels hold no column, a few, or many
    for p in (3, 5, 7, 13, 61):
        for d in divisors(p - 1):
            params = TowerParams(p, d, 1)
            windows = [(k * p + s, k * p + s + width)
                       for k in (1, 2, p, p + 1, p**2, p**3)
                       for s in (-1, 0, 1) for width in range(p)]
            windows += [(k * p + s, k * p + s + width)
                        for k in (1, p**2) for s in (-1, 0, 1)
                        for width in (16 * p - 1, 16 * p, 16 * p + 1)]
            if p < 61:
                windows += [(0, 3 * p**3), (p**2 - 1, p**4 + 3)]
            else:  # those are 6.8e5 and 1.4e7 columns per d: keep the ends
                windows += [(0, 3 * p**2), (p**3 - 3 * p**2, p**3 + 3 * p),
                            (p**4 - 3 * p**2, p**4 + 3)]
            if p in LONG_WINDOW_CENTRE:
                centre = LONG_WINDOW_CENTRE[p]
                windows.append((centre - 5 * 10**4, centre + 5 * 10**4))
            for lo, hi in windows:
                assert (mu_sum(params, lo, hi)
                        == mu_sum_columnwise(params, lo, hi)), (p, d, lo, hi)
    # large d, (p - 1)/2 and p - 1: windows of about 16p columns across p^2
    for p, ds in ((1031, (515, 1030)), (10007, (5003, 10006))):
        for d in ds:
            params = TowerParams(p, d, 1)
            lo = p**2 - 8 * p
            for width in (16 * p - 1, 16 * p, 16 * p + 1, 16 * p + 3):
                assert (mu_sum(params, lo, lo + width)
                        == mu_sum_columnwise(params, lo, lo + width)), (p, d, width)
    # a huge p: windows of up to five columns at 0 and just below p, p^2
    # and p^3, where the deeper levels hold one column or none
    p = 10000000000000061
    for d in (1, 2):
        params = TowerParams(p, d, 1)
        for lo in (0, p - 3, p**2 - 2, p**3 - 1):
            for width in range(6):
                assert (mu_sum(params, lo, lo + width)
                        == mu_sum_columnwise(params, lo, lo + width)), (d, lo, width)
    # windows of p - 1, p and p + 1 columns across p^2: level 1 holds the
    # one column p, and level 2 the column 1
    p = 1000003
    params = TowerParams(p, 2, 1)
    for width in (p - 1, p, p + 1):
        lo = p**2 - width // 2
        assert (mu_sum(params, lo, lo + width)
                == mu_sum_columnwise(params, lo, lo + width)), width


def test_one_comparison_delta_test_matches_the_digit_form():
    # with num mod d*p = d*o + k, k = num mod d and o = floor(num/d) mod p
    # the ones digit, K = k(p-1)/d > o iff k*p > num mod d*p; both sides
    # read num only mod d*p, so every num in [0, d*p) covers every num
    cells = pd_grid() + [(1031, d) for d in (1, 2, 515, 1030)]
    cells += [(10007, d) for d in (2, 5003, 10006)]
    for p, d in cells:
        step, dp = (p - 1) // d, d * p
        nums = range(dp)
        if dp > 2 * 10**6:
            # 5 * 10^7 and 10^8 nums: at fixed k both sides fall as o
            # grows, so o = 0, K - 1, K, K + 1 and p - 1 decide every o
            nums = [d * o + k for k in range(d)
                    for o in {0, k * step - 1, k * step, k * step + 1, p - 1}
                    if 0 <= o < p]
        for num in nums:
            assert ((num % d) * p > num % dp) == (
                num % d * step > num // d % p), (p, d, num)
        # p = 1 (mod d), so on a multiple of p, num mod d*p is p*(num mod d):
        # the test reads 0, and `mu_sum` counts its delta at the next level
        for num in range(0, dp, p):
            assert num % d * p <= num % dp, (p, d, num)


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


def test_delta0_table_is_the_running_sum_of_delta0():
    # P0 against the running sum of delta0, the column test, at every m: over
    # two periods on the small cells, where whole periods are read as their
    # closed total, and over one period of 530965 entries at p = 1031, for
    # an odd tau_den (d = 515) and an even d (d = 1030)
    cells = [(p, d, 2) for p in (3, 5, 7, 13, 61) for d in divisors(p - 1)]
    for p, d, periods in cells + [(1031, 515, 1), (1031, 1030, 1)]:
        params = TowerParams(p, d, 1)
        block = params.tau_den * p
        for m, total in enumerate(accumulate(
                (delta0(params, i) for i in range(1, periods * block + 1)),
                initial=0)):
            assert p0(params, m) == total, (p, d, m)


def test_p0_at_both_ends_of_a_period_for_primes_to_10_4():
    # every d | p - 1: P0 over the first 600 columns by the running sum, and
    # over the last 600 of the period as its closed total less the column
    # test's tail, so the floor sums meet both ends of each period
    for p in (1009, 4999, 7919, 9973):
        for d in divisors(p - 1):
            params = TowerParams(p, d, 1)
            block = params.tau_den * p
            span = min(600, block)
            head = accumulate((delta0(params, i) for i in range(1, span + 1)),
                              initial=0)
            for m, total in enumerate(head):
                assert p0(params, m) == total, (p, d, m)
            total = p0(params, block)
            for m in range(block, block - span, -1):
                assert p0(params, m) == total, (p, d, m)
                total -= delta0(params, m)


def test_p0_reads_no_table_and_no_budget(monkeypatch):
    # a period of delta0 at p = 10^16 + 61 has up to 5 * 10^31 entries; P0
    # runs its floor sums on m mod tau_den * p, builds nothing of that size,
    # and a default budget of 0 refuses nothing
    monkeypatch.setattr(anum.exact_arith, "DEFAULT_COLUMN_BUDGET", 0)
    p = 10**16 + 61
    for d in (2, (p - 1) // 2, p - 1):
        params = TowerParams(p, d, 1)
        td = params.tau_den
        block = td * p
        # delta0(block) = 0, so the floor sums at block - 1 give the total
        assert p0(params, block - 1) == (p - 1) * (td - 1) // 2, d
        for m in (1, 2, td, td + 1, p - 1, p, p + 1, block // 2, block - 1,
                  block + 1, 5 * block + 3, p**3 + 7):
            assert p0(params, m) - p0(params, m - 1) == delta0(params, m), (d, m)
        assert delta0_average(params) == Fraction((p - 1) * (td - 1),
                                                  2 * p * td), d


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
