"""Tower parameters and the rounding indicators delta, delta0, delta_tilde.

For parameters (p, d, r) with d | p-1, the region counted downstream is
bounded below by the line through the origin with slope tau = (p+1)/d.
The first admissible height over column i is mu(i), which rounds tau*i to
an integer: round down when the integer-digit sequence of tau*i (read from
the ones digit upward) lexicographically exceeds its fractional-digit
sequence, round up otherwise.  delta(i) in {0,1} is the amount added to
floor(tau*i), so mu(i) = floor(tau*i) + delta(i).

Because d | p-1 the fractional digits of tau*i are one repeating digit,
which collapses the comparison to two digits once factors of p are
stripped from i:

    delta(i) = delta(i / p^k)             (strip all factors of p)
    delta(i) = 0 when tau_den | i         (tau*i is then an integer)
    delta(i) = 1 iff the first fractional digit of tau*i exceeds its
               ones digit, otherwise 0

where tau_den = d / gcd(d, 2) is the denominator of tau in lowest terms.
With num = (p+1)*i, the first fractional digit is (num mod d)*p // d and
the ones digit is floor(num/d) mod p; when tau_den | i, num mod d = 0 and
the test gives 0 with no separate check.  `mu_sum` runs the collapsed test
over a column range with p and d hoisted, and `delta`, `mu` and brute force
all read it; `delta_lexicographic` keeps the raw sequence comparison as a
slow reference, and their agreement is itself one of the package's
property tests.

Cost, from traced `query` benchmark runs (seed 7, 2 vCPUs, Python 3.11):
a brute-force column costs 262 ns in `mu_sum` (`lattice.ns_per_column`),
and a scalar `mu` call, which runs that loop for one column, 676 ns
(`delta.mu.ns_per_call`).

delta0 vanishes at multiples of p, delta_tilde equals 1 at multiples of
tau_den; both otherwise agree with delta.  delta0 is periodic with period
tau_den * p from the start, which is what makes the prefix sums downstream
tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InvariantViolationError
from .exact_arith import PAdicForm, digit, is_prime, p_adic_decompose


@dataclass(frozen=True)
class TowerParams:
    """Parameters (p, d, r): odd prime p, ramification invariant d dividing
    p-1, and operator power r >= 1.  Primality of p is checked once here;
    everything downstream trusts it."""

    p: int
    d: int
    r: int

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.d < 1 or (self.p - 1) % self.d != 0:
            raise ValueError(f"d must divide p-1: got d={self.d}, p={self.p}")
        if self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r}")

    @property
    def tau(self) -> Fraction:
        """(p+1)/d: slope of the region's lower boundary line."""
        return Fraction(self.p + 1, self.d)

    @property
    def gamma(self) -> Fraction:
        """((p-1)r + (p+1))/d; p^n/gamma is the x-coordinate of the lower
        vertex of the bounding triangle."""
        return Fraction((self.p - 1) * self.r + self.p + 1, self.d)

    @cached_property
    def tau_den(self) -> int:
        # gcd(p+1, d) = gcd(d, 2) because d | p-1
        return self.d // math.gcd(self.d, 2)

    @cached_property
    def tau_num(self) -> int:
        return (self.p + 1) // math.gcd(self.d, 2)

    @cached_property
    def gamma_form(self) -> PAdicForm:
        form = p_adic_decompose(self.gamma, self.p)
        if form.den != self.tau_den:
            raise InvariantViolationError(
                f"gamma and tau must share their prime-to-p denominator: "
                f"{form.den} vs {self.tau_den}")
        return form

    @property
    def gamma_vp(self) -> int:
        """p-adic valuation of gamma (never negative: the denominator of
        gamma divides d, which is prime to p)."""
        return self.gamma_form.v

    @property
    def gamma_num(self) -> int:
        return self.gamma_form.num

    @property
    def gamma_den(self) -> int:
        return self.gamma_form.den

    @cached_property
    def delta0_prefix(self) -> tuple[int, ...]:
        """Cumulative sums of delta0 over one full period: entry m is
        sum_{i=1..m} delta0(i) for 0 <= m <= tau_den * p."""
        sums = [0]
        for i in range(1, self.tau_den * self.p + 1):
            sums.append(sums[-1] + delta0(self, i))
        return tuple(sums)


def mu_sum(params: TowerParams, lo: int, hi: int) -> int:
    """sum_{lo < i <= hi} mu(i), column by column: the collapsed delta test
    on i with its factors of p stripped, plus floor(tau*i).  Empty when
    hi <= lo."""
    if lo < 0:
        raise ValueError(f"lo must be non-negative, got {lo}")
    p, d = params.p, params.d
    q = p + 1
    total = 0
    for i in range(lo + 1, hi + 1):
        num = q * i
        floor_v = ones = num // d
        if not i % p:
            j = i // p
            while not j % p:
                j //= p
            num = q * j
            ones = num // d
        total += floor_v + (num % d * p // d > ones % p)
    return total


def delta(params: TowerParams, i: int) -> int:
    """Indicator that mu rounds up at i (the collapsed two-digit test)."""
    if i < 1:
        raise ValueError(f"i must be a positive integer, got {i}")
    return mu_sum(params, i - 1, i) - (params.p + 1) * i // params.d


def delta_lexicographic(params: TowerParams, i: int) -> int:
    """Slow reference for delta: compare the integer-digit sequence of
    tau*i against its fractional-digit sequence, scanning just past the
    leading integer digit, by which point a difference is guaranteed."""
    if i < 1:
        raise ValueError(f"i must be a positive integer, got {i}")
    p = params.p
    x = params.tau * i
    n_digits = 0
    ipart = math.floor(x)
    while ipart > 0:
        ipart //= p
        n_digits += 1
    for k in range(max(n_digits, 1) + 1):
        above = digit(x, p, k)
        below = digit(x, p, -1 - k)
        if above > below:
            return 0
        if above < below:
            return 1  # only reachable when tau*i is not an integer
    raise InvariantViolationError(
        f"digit comparison for tau*{i} found no difference")


def delta0(params: TowerParams, i: int) -> int:
    """delta with multiples of p forced to 0."""
    if i < 1:
        raise ValueError(f"i must be a positive integer, got {i}")
    if i % params.p == 0:
        return 0
    return delta(params, i)


def delta_tilde(params: TowerParams, i: int) -> int:
    """delta with multiples of tau_den forced to 1."""
    if i < 1:
        raise ValueError(f"i must be a positive integer, got {i}")
    if i % params.tau_den == 0:
        return 1
    return delta(params, i)


def mu(params: TowerParams, i: int) -> int:
    """floor(tau*i) + delta(i): the first admissible height over column i.

    Equivalently ceil(tau*i) - 1 + delta_tilde(i).
    """
    if i < 1:
        raise ValueError(f"i must be a positive integer, got {i}")
    return mu_sum(params, i - 1, i)


@lru_cache(maxsize=64)
def delta0_average(params: TowerParams) -> Fraction:
    """Average of delta0 over one period: (1 - 1/p)(1 - 1/tau_den)/2.

    Verified against the direct sum over one full period before returning;
    the cache makes that a once-per-parameter-set check.
    """
    p, td = params.p, params.tau_den
    value = Fraction((p - 1) * (td - 1), 2 * p * td)
    block = td * p
    if value * block != params.delta0_prefix[block]:
        raise InvariantViolationError(
            f"delta0 average formula disagrees with the direct sum for "
            f"p={p}, d={params.d}")
    return value
