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
With num = (p+1)*i, the first fractional digit is K = k*(p-1)/d for
k = num mod d, since k*p/d = k*(p-1)/d + k/d with 0 <= k/d < 1, and the
ones digit is o = floor(num/d) mod p; when tau_den | i, k = 0 and the test
gives 0 with no separate check.  As num mod d*p = d*o + k, the test K > o,
that is k*(p-1) > d*o, reads k*p > num mod d*p, with no division.
`mu_sum` strips no factor of p: p = 1 (mod d), so on a multiple of p,
num mod d*p = p*(num mod d) and the test reads 0.  It runs the test at
every p-adic level in column order instead, level k on j = i/p^k for every
j in (lo//p^k, hi//p^k]: the multiples of p that one level reads as 0 are
the columns of the next, since delta(p*j) = delta(j).  At level 0 num runs
through an arithmetic progression, so the floors of tau*i sum to
((p+1)*(sum of i) - sum of k)/d, with the k the test reads.  `delta`, `mu`
and brute force all read `mu_sum`; `delta_lexicographic` keeps the raw
sequence comparison as a slow reference, and their agreement is itself one
of the package's property tests.

Cost, from two traced runs `bench/run.py --workload query --seed 7
--seconds 34 --trace 1` (2 vCPUs, Python 3.11.7): a brute-force column
costs 103-105 ns in `mu_sum` (`lattice.ns_per_column`), and a scalar `mu`
call, one column and the levels above it, 717-768 ns
(`delta.mu.ns_per_call`).

delta0 vanishes at multiples of p, delta_tilde equals 1 at multiples of
tau_den; both otherwise agree with delta.  delta0 is periodic with period
tau_den * p from the start.  Its prefix sum P0 (`p0`) is three floor
sums of O(log p) steps, with no table: with s = (p-1)/d, the first
fractional digit K = ((p+1)i mod d)*s and the ones digit
o = floor((p+1)i/d) mod p differ by less than p, so the collapsed test is
floor((K - o + p - 1)/p), and written out

    delta0(i) = 1 + floor((s*i - 1)/p) - floor(2i/d) + floor((p+1)i/(d*p))

for every i >= 1 (at a multiple of p, K = o and it gives 0).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import BudgetExceededError, InvariantViolationError
from .exact_arith import (PAdicForm, _budget_limit, _floor_sum, digit,
                          is_prime, p_adic_decompose)


def _more_than(bits: int) -> str:
    """A count of at least 2^bits named by a power of ten below it:
    0.30102 < log10(2), so 10^k <= 2^bits."""
    return f"more than 10^{bits * 30102 // 100000}"


def _count_text(count: int) -> str:
    """count in full below 2^100, above that as a power of ten below it, so
    a message stays one short line."""
    bits = count.bit_length() - 1
    return str(count) if bits < 100 else _more_than(bits)


def _budget_error(need, budget, what="enumeration", unit="columns"):
    limit = _count_text(_budget_limit(budget))
    return BudgetExceededError(f"{what} needs {need} {unit}, budget is {limit}")


def require_budget(count: int, budget: int | None = None, what="enumeration",
                   unit="columns") -> None:
    """Refuse count, before any of it is built, past the budget in force.
    Brute force alone is given a budget; other callers keep the default."""
    if count > _budget_limit(budget):
        raise _budget_error(_count_text(count), budget, what, unit)


class TowerParams(namedtuple("TowerParams", "p d r")):
    """Parameters (p, d, r): odd prime p, ramification invariant d dividing
    p-1, and operator power r >= 1.  Primality of p is checked once here;
    everything downstream trusts it.  No __slots__: the cached properties
    live in the instance __dict__."""

    def __new__(cls, p: int, d: int, r: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if d < 1 or (p - 1) % d != 0:
            raise ValueError(f"d must divide p-1: got d={d}, p={p}")
        if r < 1:
            raise ValueError(f"r must be a positive integer, got {r}")
        return super().__new__(cls, p, d, r)

    @cached_property
    def tau(self) -> Fraction:
        """(p+1)/d: slope of the region's lower boundary line."""
        return Fraction(self.p + 1, self.d)

    @cached_property
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


def p0(params: TowerParams, m: int) -> int:
    """P0(m) = sum_{i=1..m} delta0(i).  Whole periods of tau_den * p count
    (p-1)(tau_den-1)/2 each, and the rest is the three floor sums of the
    module docstring, on numbers below tau_den * p whatever m."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    p, d, td = params.p, params.d, params.tau_den
    whole, m = divmod(m, td * p)
    s = (p - 1) // d
    return (whole * ((p - 1) * (td - 1) // 2) + m + _floor_sum(m, p, s, s - 1)
            - _floor_sum(m, d, 2, 2) + _floor_sum(m, d * p, p + 1, p + 1))


def mu_sum(params: TowerParams, lo: int, hi: int) -> int:
    """sum_{lo < i <= hi} mu(i): the collapsed delta test at every p-adic
    level, in column order, plus the floors of tau*i from the progression
    sum of num = (p+1)*i.  Level k tests j = i/p^k for every j in
    (lo//p^k, hi//p^k]; the test reads 0 on a multiple of p, whose delta
    the next level counts.  Empty when hi <= lo."""
    if lo < 0:
        raise ValueError(f"lo must be non-negative, got {lo}")
    if hi <= lo:
        return 0
    p, d = params.p, params.d
    q, dp = p + 1, d * p
    span = q * (hi * (hi + 1) - lo * (lo + 1)) // 2
    rems = ups = 0
    for num in range(q * (lo + 1), q * hi + 1, q):
        rems += (k := num % d)
        ups += k * p > num % dp
    lo, hi = lo // p, hi // p
    while hi > lo:
        for num in range(q * (lo + 1), q * hi + 1, q):
            ups += num % d * p > num % dp
        lo, hi = lo // p, hi // p
    return (span - rems) // d + ups


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
    """Average of delta0 over one period: (1 - 1/p)(1 - 1/tau_den)/2,
    checked once per parameter set against P0's floor sums at tau_den*p - 1
    (delta0 vanishes at tau_den*p): two closed forms that share no code.
    The direct sum of the column test is the `average` law in `checks`."""
    p, td = params.p, params.tau_den
    value = Fraction((p - 1) * (td - 1), 2 * p * td)
    if value * td * p != p0(params, td * p - 1):
        raise InvariantViolationError(
            f"delta0 average formula disagrees with P0 over one period for "
            f"p={p}, d={params.d}")
    return value
