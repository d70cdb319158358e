"""Brute-force counters for the region and its bounding triangle.

These are the ground truth that every closed form in the package is tested
against.  The counters work per column (cost O(d * p^n / (p+1))
small-integer operations).  All enumeration is guarded by an explicit
column budget so a mistyped n fails fast instead of hanging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .delta import TowerParams, delta, mu
from .errors import BudgetExceededError, InvariantViolationError

DEFAULT_COLUMN_BUDGET = 10**7


def _require_budget(columns: int, budget: int | None) -> None:
    limit = DEFAULT_COLUMN_BUDGET if budget is None else budget
    if columns > limit:
        raise BudgetExceededError(
            f"enumeration needs {columns} columns, budget is {limit}")


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

    Columns where mu(i) > p^n - 1 near the right vertex are empty, hence
    the clamp at zero.
    """
    t = t_n(params, n)
    last = last_column(params, n)
    _require_budget(max(0, last - t), budget)
    pn = params.p**n
    total = 0
    for i in range(t + 1, last + 1):
        total += max(0, pn - mu(params, i))
    return total


def _wide_columns_count(params: TowerParams, n: int) -> int:
    """Points with i <= t_n and p^n - i*r*(p-1)/d <= j <= p^n - 1, counted
    from the definition column by column."""
    t = t_n(params, n)
    step = params.r * (params.p - 1) // params.d  # integral since d | p-1
    pn = params.p**n
    total = 0
    for i in range(1, t + 1):
        low = max(1, pn - i * step)
        total += max(0, pn - 1 - low + 1)
    return total


@dataclass(frozen=True)
class ANumberBreakdown:
    """One region count split into its triangle bulk and the boundary part.

    floor_sum_form, when present, holds the two bracketed differences of
    the split form: (floor-sum bracket, delta-sum bracket), whose
    difference is again the total.
    """

    n: int
    t_n: int
    triangle_term: int
    delta_region_count: int
    total: int
    floor_sum_form: tuple[int, int] | None = None


def a_number_bruteforce(params: TowerParams, n: int,
                        budget: int | None = None) -> ANumberBreakdown:
    """The count r(p-1)t_n(t_n+1)/(2d) + #(delta region), cross-checked
    against the widened-region count before returning."""
    t = t_n(params, n)
    doubled = params.r * (params.p - 1) * t * (t + 1)
    if doubled % (2 * params.d) != 0:
        raise InvariantViolationError("triangle term is not integral")
    triangle = doubled // (2 * params.d)
    wide = _wide_columns_count(params, n)
    if wide != triangle:
        raise InvariantViolationError(
            f"triangle term {triangle} disagrees with the per-column count "
            f"{wide} at n={n}")
    region = count_delta_region(params, n, budget)
    return ANumberBreakdown(n=n, t_n=t, triangle_term=triangle,
                            delta_region_count=region, total=triangle + region)


@dataclass(frozen=True)
class TriangleSpec:
    """Closed triangle with vertices (0, p^n), (p^n/tau, p^n), and
    (p^n/gamma, tau*p^n/gamma), bounded by the lines y = p^n, y = tau*x,
    and y = p^n - (gamma - tau)*x."""

    params: TowerParams
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        pn = Fraction(self.params.p**self.n)
        tau = self.params.tau
        drop = self.params.gamma - tau
        top, right, bottom = self.vertices
        ok = (top[1] == pn and right[1] == pn
              and right[1] == tau * right[0] and bottom[1] == tau * bottom[0]
              and top[1] == pn - drop * top[0]
              and bottom[1] == pn - drop * bottom[0])
        if not ok:
            raise InvariantViolationError("triangle vertices left their edges")

    @property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        pn = self.params.p**self.n
        tau, gamma = self.params.tau, self.params.gamma
        return (
            (Fraction(0), Fraction(pn)),
            (pn / tau, Fraction(pn)),
            (pn / gamma, tau * pn / gamma),
        )


def triangle_lattice_count(spec: TriangleSpec, budget: int | None = None) -> int:
    """Number of integer points on or inside the closed triangle.

    Counted column by column with exact ceilings; points on all three
    edges are included.
    """
    params, n = spec.params, spec.n
    pn = params.p**n
    last = last_column(params, n)
    _require_budget(last + 1, budget)
    tau = params.tau
    drop = params.gamma - tau
    count = 0
    for x in range(last + 1):
        ymin = max(math.ceil(tau * x), math.ceil(pn - drop * x))
        if ymin <= pn:
            count += pn - ymin + 1
    return count


def sum_decomposition(params: TowerParams, n: int,
                      budget: int | None = None) -> ANumberBreakdown:
    """Evaluate the two split forms of the region count by direct summation.

    First form: sum of (gamma-tau)*i over i <= t_n, plus the per-column
    heights p^n - floor(tau*i) for t_n < i <= floor(p^n/tau), minus the
    delta corrections on that range.  Second form: the difference of two
    full floor sums minus the difference of two full delta sums.  The two
    must agree; the test suite additionally pins both against the
    per-column brute force.
    """
    p, d, r = params.p, params.d, params.r
    pn = p**n
    t = t_n(params, n)
    last = last_column(params, n)
    _require_budget(last, budget)
    step = r * (p - 1) // d
    gamma_num = (p - 1) * r + p + 1  # gamma = gamma_num / d

    head = 0
    for i in range(1, t + 1):
        head += step * i
    mid = 0
    tail = 0
    for i in range(t + 1, last + 1):
        mid += pn - (p + 1) * i // d
        tail += delta(params, i)
    first_form = head + mid - tail

    floor_bracket = 0
    delta_bracket = 0
    for i in range(1, last + 1):
        floor_bracket += pn - (p + 1) * i // d
        delta_bracket += delta(params, i)
    for i in range(1, t + 1):
        floor_bracket -= pn - gamma_num * i // d
        delta_bracket -= delta(params, i)
    second_form = floor_bracket - delta_bracket

    if first_form != second_form:
        raise InvariantViolationError(
            f"the two split forms disagree at n={n}: {first_form} vs {second_form}")
    return ANumberBreakdown(n=n, t_n=t, triangle_term=head,
                            delta_region_count=mid - tail, total=second_form,
                            floor_sum_form=(floor_bracket, delta_bracket))
