"""Exact arithmetic: pinned examples plus randomized round trips."""

import math
import random
from fractions import Fraction

import pytest

import anum.exact_arith
from anum import (
    TowerParams,
    digit,
    divisors,
    format_rational,
    is_prime,
    multiplicative_order,
    p_adic_decompose,
)
from anum.exact_arith import PRIME_LIMIT, floor_pn_mod, frac_part_pn
from helpers import digit_average, longdiv_delay_period, p_adic_value


def test_p_adic_decompose_examples():
    form = p_adic_decompose(Fraction(125, 2), 5)
    assert (form.v, form.num, form.den) == (3, 1, 2)
    form = p_adic_decompose(1, 5)
    assert (form.v, form.num, form.den) == (0, 1, 1)
    form = p_adic_decompose(Fraction(3, 2), 5)
    assert (form.v, form.num, form.den) == (0, 3, 2)
    form = p_adic_decompose(Fraction(2, 125), 5)
    assert (form.v, form.num, form.den) == (-3, 2, 1)


def test_p_adic_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        p_adic_decompose(Fraction(-1, 2), 5)
    with pytest.raises(ValueError):
        p_adic_decompose(0, 5)
    with pytest.raises(ValueError):
        p_adic_decompose(Fraction(1, 2), 6)


def test_p_adic_roundtrip_randomized():
    rng = random.Random(2101)
    for _ in range(300):
        p = rng.choice((3, 5, 7, 13))
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        form = p_adic_decompose(x, p)
        assert p_adic_value(form) == x
        assert form.num % p and form.den % p
        assert form.num > 0 and form.den > 0


def test_digit_examples():
    # 2/3 in base 5 is .3131...
    assert digit(Fraction(2, 3), 5, -1) == 3
    assert digit(Fraction(2, 3), 5, -2) == 1
    # 3/2 in base 5 is 1.2222...
    assert digit(Fraction(3, 2), 5, 0) == 1
    assert digit(Fraction(3, 2), 5, -1) == 2
    # positions beyond the leading digit are 0
    assert digit(Fraction(3, 2), 5, 3) == 0


def test_expand_examples():
    # 2/7 in base 5 is .(120324) repeating
    assert longdiv_delay_period(Fraction(2, 7), 5) == (0, 6)
    assert [digit(Fraction(2, 7), 5, -j) for j in range(1, 7)] == [1, 2, 0, 3, 2, 4]
    assert digit_average(Fraction(2, 7), 5) == 2
    assert longdiv_delay_period(Fraction(2, 3), 5) == (0, 2)
    assert digit_average(Fraction(2, 3), 5) == 2
    # m/d has period 1 whenever d | p-1
    for p in (5, 7, 13):
        for d in divisors(p - 1):
            for m in (1, 2, 3, d + 1):
                assert longdiv_delay_period(Fraction(m, d), p)[1] == 1


def test_expand_delay_example():
    # fractional part scaled by p^3: three preperiod digits
    assert longdiv_delay_period(Fraction(2, 7 * 125), 5) == (3, 6)


def test_digit_delay_period_law_randomized():
    # the fractional digits of x repeat from position max(0, -v_p(x)) on,
    # with period ord_p(prime-to-p denominator); magnitudes reach 10^6
    rng = random.Random(2103)
    for _ in range(200):
        p = rng.choice((3, 5, 7, 13))
        num = rng.randint(1, 10**6)
        den = rng.randint(1, 2000)
        if rng.random() < 0.3:
            den *= p ** rng.randint(1, 6)
        if den > 10**6:
            den = rng.randint(1, 10**6)
        x = Fraction(num, den)
        form = p_adic_decompose(x, p)
        delay, period = longdiv_delay_period(x, p)
        assert (delay, period) == (max(0, -form.v),
                                   multiplicative_order(p, form.den)), (x, p)
        if period <= 100:  # digit() at position -j costs a p^j product
            for j in range(delay + 1, delay + period + 1):
                assert digit(x, p, -j) == digit(x, p, -j - period), (x, p, j)


def test_frac_part_pn_examples():
    assert frac_part_pn(Fraction(2, 3), 5, 1) == Fraction(1, 3)
    assert frac_part_pn(7, 5, 3) == 0
    avg = (frac_part_pn(Fraction(2, 3), 5, 0) + frac_part_pn(Fraction(2, 3), 5, 1)) / 2
    assert avg == Fraction(1, 2)
    assert avg == digit_average(Fraction(2, 3), 5) / (5 - 1)


def test_frac_part_pn_periodicity():
    rng = random.Random(2104)
    for _ in range(40):
        p = rng.choice((3, 5, 7, 13))
        x = Fraction(rng.randint(1, 400), rng.randint(1, 60))
        delay, length = longdiv_delay_period(x, p)
        for n in range(delay, delay + 3 * length):
            assert frac_part_pn(x, p, n) == frac_part_pn(x, p, n + length)
        window = [frac_part_pn(x, p, n) for n in range(delay, delay + length)]
        assert sum(window, Fraction(0)) / length == digit_average(x, p) / (p - 1)


def test_floor_pn_mod_examples():
    assert floor_pn_mod(Fraction(2, 3), 5, 2, 3) == 1
    assert floor_pn_mod(14, 5, 0, 8) == 6
    for n in range(0, 13):
        assert (floor_pn_mod(Fraction(2, 7), 5, n, 2)
                == floor_pn_mod(Fraction(2, 7), 5, n + 6, 2))
    with pytest.raises(ValueError):
        floor_pn_mod(Fraction(2, 3), 5, 1, 0)


def test_floor_pn_mod_periodicity_grid():
    rng = random.Random(2105)
    for _ in range(40):
        p = rng.choice((3, 5, 7, 13))
        x = Fraction(rng.randint(1, 400), rng.randint(1, 60))
        form = p_adic_decompose(x, p)
        delay, length = longdiv_delay_period(x, p)
        for n in range(delay, delay + 2 * length):
            assert (floor_pn_mod(x, p, n, form.num)
                    == floor_pn_mod(x, p, n + length, form.num))
        for n in range(delay + 1, delay + 1 + 2 * length):
            assert (floor_pn_mod(x, p, n, p)
                    == floor_pn_mod(x, p, n + length, p))


def test_multiplicative_order():
    assert multiplicative_order(5, 7) == 6
    assert multiplicative_order(5, 1) == 1
    assert multiplicative_order(3, 8) == 2
    with pytest.raises(ValueError):
        multiplicative_order(5, 10)


def naive_order(a, m):
    """Order of a modulo m by stepping through its powers."""
    order, x = 1, a % m
    while x != 1 % m:
        x = x * a % m
        order += 1
    return order


def test_multiplicative_order_matches_naive_loop():
    for m in range(1, 3001):
        for a in (3, 5, 7, 13, 61):
            if math.gcd(a, m) == 1:
                assert multiplicative_order(a, m) == naive_order(a, m), (a, m)
    with pytest.raises(ValueError):
        multiplicative_order(61, 122)
    with pytest.raises(ValueError):
        multiplicative_order(3, 0)


def test_multiplicative_order_refuses_past_its_search(monkeypatch):
    # s = isqrt(min(B, m)) + 1 baby steps and as many giant steps reach
    # every order up to s^2 > B; past s^2 the search refuses with None
    orders = {(a, m): naive_order(a, m) for m in range(1, 3001)
              for a in (3, 5, 7, 13, 61) if math.gcd(a, m) == 1}
    for budget in (1, 2, 50, 63, 64, 99):
        monkeypatch.setattr(anum.exact_arith, "DEFAULT_COLUMN_BUDGET", budget)
        reach = (math.isqrt(budget) + 1) ** 2
        for (a, m), order in orders.items():
            assert multiplicative_order(a, m) == (
                order if order <= reach else None), (budget, a, m)
    # no factorisation: a prime modulus near 5 * 10^20 is refused at once
    monkeypatch.undo()
    monkeypatch.setattr(anum.exact_arith, "_factor", None)
    assert multiplicative_order(10**16 + 61, 500215000000003001291) is None
    assert multiplicative_order(5, 10000103) == 10000102  # 3163^2 > 10^7 + 102


def big_int_frac_part(x, p, n):
    q = x * p**n
    return q - q.numerator // q.denominator


def big_int_floor_mod(x, p, n, m):
    return x.numerator * p**n // x.denominator % m


def test_modular_fast_paths_match_big_int_definitions():
    xs = []
    for p, d, r in ((5, 4, 61), (5, 4, 2), (7, 6, 4), (13, 12, 7), (3, 2, 1)):
        params = TowerParams(p, d, r)
        xs += [(p, params.tau_den, 1 / params.gamma),
               (p, params.tau_den, 1 / params.tau)]
    assert TowerParams(5, 4, 61).gamma_vp > 0
    rng = random.Random(2106)
    for _ in range(20):
        p = rng.choice((3, 5, 7, 13))
        x = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**3) * p**rng.randint(0, 3))
        xs.append((p, rng.randint(1, 12), x))
    for p, tau_den, x in xs:
        for n in range(201):
            assert frac_part_pn(x, p, n) == big_int_frac_part(x, p, n), (x, p, n)
            for m in (p, x.denominator, tau_den, tau_den * p):
                assert (floor_pn_mod(x, p, n, m)
                        == big_int_floor_mod(x, p, n, m)), (x, p, n, m)


def test_is_prime_and_divisors():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_divisors_match_the_naive_loop():
    for n in range(1, 3001):
        assert divisors(n) == [f for f in range(1, n + 1) if n % f == 0], n


def test_divisors_of_a_large_p_minus_1_are_prompt():
    # trial division stops near sqrt(27031410499), not near sqrt(10^16)
    n = 10**16 + 60
    assert n == 2**2 * 5 * 53 * 349 * 27031410499
    got = divisors(n)
    assert len(got) == 3 * 2**4 and got == sorted(set(got))
    assert all(n % f == 0 for f in got) and got[-1] == n
    assert got[:4] == [1, 2, 4, 5] and 27031410499 in got


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first k prime bases, k = 1..12
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n), n
    # Carmichael numbers with every prime factor above 41: the bases pass
    # the Fermat test, so only a square root of 1 other than +-1 shows them
    for n in (43 * 211 * 337, 101 * 151 * 251, 43 * 127 * 1093, 61 * 241 * 421):
        assert not is_prime(n), n
    assert is_prime(10**16 + 61) and is_prime(2**61 - 1)


def test_is_prime_refuses_past_its_exact_range():
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(PRIME_LIMIT)


def test_format_rational():
    assert format_rational(Fraction(-4, 21)) == "-4/21"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(0) == "0"
