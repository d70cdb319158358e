"""Exact rationals, p-adic splitting, base-p digits, and digit periods.

All arithmetic here is exact: rationals are `fractions.Fraction` (arbitrary
precision, always stored reduced) and floors, fractional parts, and digits
come from integer division.  No floating point appears anywhere in the
package; the identities downstream distinguish values that differ by
1/(b * p^n), where rounding would be fatal.

Rationals render as "a/b" in lowest terms ("a" when the denominator is 1)
on every CLI, CSV, and JSON surface; see `format_rational`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def format_rational(q: Fraction | int) -> str:
    """Render q as "a/b" in lowest terms, or just "a" when q is integral."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# Miller-Rabin with the primes 2..41 as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_LIMIT; larger n raise
    ValueError rather than get a probable answer."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is only decided below {PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in PRIME_BASES:
        if n % q == 0:
            return n == q
    odd, halvings = n - 1, 0
    while odd % 2 == 0:
        odd, halvings = odd // 2, halvings + 1
    # n passes base a when a^odd = 1 or a^(odd 2^j) = -1 for some j < halvings
    for a in PRIME_BASES:
        x = pow(a, odd, n)
        if x == 1:
            continue
        for _ in range(halvings):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division: {prime: exponent}."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/mZ)^*.  The trivial group (m = 1) gives 1.

    The order divides phi(m): start from phi(m) and divide out each prime
    q of it while a still has order dividing the quotient.  Cost is two
    trial-division factorisations plus O(log^2 m) modular powers.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    if m == 1:
        return 1
    order = 1
    for q, k in _factor(m).items():
        order *= q**(k - 1) * (q - 1)
    for q in _factor(order):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


def frac_part(q: Fraction | int) -> Fraction:
    """{q} = q - floor(q), exactly."""
    q = Fraction(q)
    return q - math.floor(q)


@dataclass(frozen=True)
class PAdicForm:
    """Splitting x = p^v * num/den with num and den coprime positive
    integers, neither divisible by p."""

    p: int
    v: int
    num: int
    den: int


def p_adic_decompose(x: Fraction | int, p: int) -> PAdicForm:
    """Split positive x as p^v * num/den, pulling every factor of p into v."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return PAdicForm(p=p, v=v, num=num, den=den)


def digit(x: Fraction | int, p: int, k: int) -> int:
    """The base-p digit of x at position k: floor(x / p^k) reduced mod p.

    Positions left of the radix point are k >= 0, fractional digits sit at
    k = -1, -2, ...  Positions beyond the leading digit give 0.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    a, b = x.numerator, x.denominator
    if k >= 0:
        return a // (b * p**k) % p
    return a * p**-k // b % p


def frac_part_pn(x: Fraction | int, p: int, n: int) -> Fraction:
    """{x * p^n}.  Periodic in n once n clears the delay of x, with period
    equal to the digit period and average (mean repeating digit)/(p-1).  With
    x = a/b this is (a*p^n mod b)/b, so p^n is only needed modulo b."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    b = x.denominator
    return Fraction(x.numerator * pow(p, n, b) % b, b)


def floor_pn_mod(x: Fraction | int, p: int, n: int, m: int) -> int:
    """floor(x * p^n) mod m, exactly.

    Periodic in n with the digit period of x: from the delay on when m
    divides the prime-to-p numerator of x, and one step later for m = p.
    With x = a/b, a*p^n mod b*m is b*(floor(x*p^n) mod m) + (a*p^n mod b),
    so p^n is only ever needed modulo b*m.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    bm = x.denominator * m
    return x.numerator * pow(p, n, bm) % bm // x.denominator
