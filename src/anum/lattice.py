"""Brute-force counters for the region and its bounding triangle, and the
split forms of the same count.

The counters are the ground truth that every closed form in the package
is tested against.  Brute force takes the triangle bulk in closed form and
walks only the delta-region columns t_n < i <= floor(p^n/tau), that is
O(d * p^n * (1/(p+1) - 1/((p-1)r + p + 1))) small-integer operations, in
one `delta.mu_sum` call at about 105 ns a column (`lattice.ns_per_column`
from `bench/run.py --workload query --seed 7 --seconds 34 --trace 1`, 2
vCPUs).  All enumeration is guarded by an
explicit column budget so a mistyped n fails fast instead of hanging; a
count that a cheap bound already puts past the budget is refused before
p^n is formed.  The split forms (floor sums minus delta sums) are
evaluated, not enumerated: O(n) big-integer operations, with no budget.
"""

from __future__ import annotations

from collections import namedtuple

from .delta import (TowerParams, _budget_error, _more_than, mu_sum, p0,
                    require_budget)
from .errors import InvariantViolationError
from .exact_arith import _budget_limit, _floor_sum


def _top_bits(x: int, e: int) -> tuple[int, int]:
    cut = max(0, x.bit_length() - 64)
    return x >> cut, e + cut


def _pow_floor(p: int, n: int) -> tuple[int, int]:
    """(m, e) with m * 2^e <= p^n, by square-and-multiply keeping the top
    64 bits of each product: O(log n) small-integer steps.  Each cut loses
    a relative 2^-63 at most, and a cut made in p^(2^k) enters the result
    at most n/2^k times, so m * 2^e >= p^n * (1 - n * 2^-61)."""
    m, e = 1, 0
    base, base_e = p, 0
    while n:
        if n & 1:
            m, e = _top_bits(m * base, e + base_e)
        n >>= 1
        base, base_e = _top_bits(base * base, 2 * base_e)
    return m, e


def _refuse_early(p: int, n: int, budget: int | None, num: int,
                  den: int) -> None:
    """Raise BudgetExceededError, without forming p^n, when p^n*num/den - 1,
    a lower bound on the column count, already exceeds the budget by a
    count too large to print in full (2^100 columns or more).  Otherwise
    return, and the caller counts the columns exactly.

    With m * 2^e <= p^n, the count exceeds (floor(m*num/den) - 1) * 2^e,
    which is at least 2^bits.  That falls short of the count by a relative
    (n + p + 1) * 2^-61 or less, so the message names the same power of
    ten as an exact count would unless the count lies that close above a
    power of two.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    m, e = _pow_floor(p, n)
    mant = m * num // den - 1
    if mant < 1:
        return
    bits = mant.bit_length() - 1 + e
    if bits >= max(100, _budget_limit(budget).bit_length()):
        raise _budget_error(_more_than(bits), budget)


def t_n(params: TowerParams, n: int) -> int:
    """floor(d * p^n / ((r+1)p - (r-1))): the column of the lower vertex.

    Equals floor(p^n / gamma).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return params.d * params.p**n // ((params.r + 1) * params.p - (params.r - 1))


def last_column(params: TowerParams, n: int) -> int:
    """floor(p^n / tau): the last column that can meet the region."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return params.d * params.p**n // (params.p + 1)


def count_delta_region(params: TowerParams, n: int, budget: int | None = None) -> int:
    """#{(i, j) : i > t_n and mu(i) <= j <= p^n - 1}, column by column.

    No column needs a clamp: p+1 does not divide d * p^n (d < p+1 and p
    is prime to p+1), so tau*i < p^n for i <= floor(p^n/tau), hence
    mu(i) <= p^n.  t_n <= last_column because gamma >= tau.
    """
    p, d, r = params.p, params.d, params.r
    # last - t > d*p^n/(p+1) - 1 - d*p^n/g with g = (r+1)p - (r-1),
    # and that is p^n * d*r(p-1) / ((p+1)*g) - 1
    _refuse_early(p, n, budget, d * r * (p - 1),
                  (p + 1) * ((r + 1) * p - (r - 1)))
    t = t_n(params, n)
    last = last_column(params, n)
    require_budget(last - t, budget)
    return (last - t) * p**n - mu_sum(params, t, last)


class ANumberBreakdown(namedtuple(
        "ANumberBreakdown",
        "n t_n triangle_term delta_region_count total floor_sum_form",
        defaults=(None,))):
    """One region count split into its triangle bulk and the boundary part.

    floor_sum_form, when present, holds the two bracketed differences of
    the split form: (floor-sum bracket, delta-sum bracket), whose
    difference is again the total.
    """

    __slots__ = ()


def a_number_bruteforce(params: TowerParams, n: int,
                        budget: int | None = None) -> ANumberBreakdown:
    """The count r(p-1)t_n(t_n+1)/(2d) + #(delta region): the triangle bulk
    in closed form, the delta region column by column."""
    region = count_delta_region(params, n, budget)
    t = t_n(params, n)
    step = params.r * (params.p - 1) // params.d  # integral since d | p-1
    triangle = step * t * (t + 1) // 2
    return ANumberBreakdown(n=n, t_n=t, triangle_term=triangle,
                            delta_region_count=region, total=triangle + region)


def triangle_lattice_count(params: TowerParams, n: int,
                           budget: int | None = None) -> int:
    """Integer points on or inside the closed triangle bounded by y = p^n,
    y = tau*x and y = p^n - (gamma - tau)*x, counted column by column;
    gamma - tau = r(p-1)/d is an integer, so only y = tau*x needs a ceiling.
    Every column is non-empty: tau*x <= p^n for x <= floor(p^n/tau).
    """
    p, d = params.p, params.d
    _refuse_early(p, n, budget, d, p + 1)  # last + 1 > d*p^n/(p+1)
    last = last_column(params, n)
    require_budget(last + 1, budget)
    pn = p**n
    step = params.r * (p - 1) // d
    count = 0
    for x in range(last + 1):
        count += pn + 1 - max(-(-(p + 1) * x // d), pn - step * x)
    return count


def _delta_prefix(params: TowerParams, count: int) -> int:
    """sum_{1 <= i <= count} delta(i) in O(log_p count) reads of P0.

    delta(i*p) = delta(i) and delta0 = delta off the multiples of p, so the
    sum is P0(count) + P0(count // p) + P0(count // p^2) + ...
    """
    p, total = params.p, 0
    while count:
        total += p0(params, count)
        count //= p
    return total


def sum_decomposition(params: TowerParams, n: int) -> ANumberBreakdown:
    """The two split forms of the region count, evaluated with O(n)
    big-integer operations and no enumeration.

    First form: sum of (gamma-tau)*i over i <= t_n, plus the heights
    p^n - floor(tau*i) for t_n < i <= floor(p^n/tau), minus the delta sum
    on that range.  Second form: the difference of two full floor sums
    minus the same delta sum.  The two must agree.
    """
    p, d, r = params.p, params.d, params.r
    pn = p**n
    t = t_n(params, n)
    last = last_column(params, n)
    step = r * (p - 1) // d
    gamma_num = (p - 1) * r + p + 1  # gamma = gamma_num / d

    head = step * t * (t + 1) // 2
    mid = (last - t) * pn - _floor_sum(last - t, d, p + 1, (p + 1) * (t + 1))
    tail = _delta_prefix(params, last) - _delta_prefix(params, t)
    first_form = head + mid - tail

    floor_bracket = ((last * pn - _floor_sum(last, d, p + 1, p + 1))
                     - (t * pn - _floor_sum(t, d, gamma_num, gamma_num)))
    second_form = floor_bracket - tail

    if first_form != second_form:
        raise InvariantViolationError(
            f"the two split forms disagree at n={n}: {first_form} vs {second_form}")
    return ANumberBreakdown(n=n, t_n=t, triangle_term=head,
                            delta_region_count=mid - tail, total=second_form,
                            floor_sum_form=(floor_bracket, tail))
