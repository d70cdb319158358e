"""Digit machinery: pinned examples plus randomized round trips."""

import math
import random
from fractions import Fraction

import pytest

from anum import (
    TowerParams,
    digit,
    divisors,
    expand,
    floor_pn_mod,
    format_rational,
    frac_part_pn,
    is_prime,
    multiplicative_order,
    p_adic_decompose,
)
from helpers import expansion_value, longdiv_delay_period, p_adic_value


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
    exp = expand(Fraction(2, 7), 5)
    assert exp.period_digits == (1, 2, 0, 3, 2, 4)
    assert exp.period_length == 6
    assert exp.delay == 0
    assert exp.digit_average == 2

    exp = expand(Fraction(2, 3), 5)
    assert exp.period_length == 2
    assert exp.delay == 0
    assert exp.digit_average == 2

    # m/d has period 1 whenever d | p-1
    for p in (5, 7, 13):
        for d in divisors(p - 1):
            for m in (1, 2, 3, d + 1):
                assert expand(Fraction(m, d), p).period_length == 1


def test_expand_delay_example():
    # fractional part scaled by p^3: three preperiod digits
    exp = expand(Fraction(2, 7 * 125), 5)
    assert exp.delay == 3
    assert exp.period_length == 6


def test_expand_matches_digit_positions():
    rng = random.Random(2102)
    for _ in range(60):
        p = rng.choice((3, 5, 7, 13))
        x = Fraction(rng.randint(1, 5000), rng.randint(1, 300))
        exp = expand(x, p)
        for j, dig in enumerate(exp.integer_digits):
            assert dig == digit(x, p, j)
        for j, dig in enumerate(exp.preperiod_digits, start=1):
            assert dig == digit(x, p, -j)
        for j, dig in enumerate(exp.period_digits, start=exp.delay + 1):
            assert dig == digit(x, p, -j)
        # one full extra period
        for j in range(exp.delay + 1, exp.delay + exp.period_length + 1):
            assert digit(x, p, -j) == digit(x, p, -j - exp.period_length)


def test_expand_roundtrip_and_minimality_randomized():
    # magnitudes reach 10^6 on both sides; denominators are built from a
    # modest unit times a power of p so the digit period stays small enough
    # to reconstruct quickly
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
        exp = expand(x, p)
        assert expansion_value(exp) == x
        assert all(0 <= dig < p for dig in
                   exp.integer_digits + exp.preperiod_digits + exp.period_digits)
        delay, period = longdiv_delay_period(x, p)
        assert exp.delay == delay
        assert exp.period_length == period
        form = p_adic_decompose(x, p)
        assert exp.period_length == multiplicative_order(p, form.den)
        assert exp.delay == max(0, -form.v)


def test_frac_part_pn_examples():
    assert frac_part_pn(Fraction(2, 3), 5, 1) == Fraction(1, 3)
    assert frac_part_pn(7, 5, 3) == 0
    avg = (frac_part_pn(Fraction(2, 3), 5, 0) + frac_part_pn(Fraction(2, 3), 5, 1)) / 2
    assert avg == Fraction(1, 2)
    assert avg == expand(Fraction(2, 3), 5).digit_average / (5 - 1)


def test_frac_part_pn_periodicity():
    rng = random.Random(2104)
    for _ in range(40):
        p = rng.choice((3, 5, 7, 13))
        x = Fraction(rng.randint(1, 400), rng.randint(1, 60))
        exp = expand(x, p)
        delay, length = exp.delay, exp.period_length
        for n in range(delay, delay + 3 * length):
            assert frac_part_pn(x, p, n) == frac_part_pn(x, p, n + length)
        window = [frac_part_pn(x, p, n) for n in range(delay, delay + length)]
        assert sum(window, Fraction(0)) / length == exp.digit_average / (p - 1)


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
        exp = expand(x, p)
        form = p_adic_decompose(x, p)
        delay, length = exp.delay, exp.period_length
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


def test_format_rational():
    assert format_rational(Fraction(-4, 21)) == "-4/21"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(0) == "0"
