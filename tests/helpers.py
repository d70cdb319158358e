"""Shared grids and slow oracles for the test suite.

The oracles here never call the code path they check: floor sums and
delta sums are term-by-term loops, column sums of mu run the collapsed
delta test one column at a time, the triangle and the delta region are
counted point by point with exact comparisons, digit periods come from
long-division remainder cycling, digits from `digit` over one period,
rationals are reassembled from their p-adic forms, and the paper's
partial-period correction F reads floor(x_inv p^e) by exact division.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction

import anum
from anum import (
    A_fn,
    ClosedFormModel,
    InvariantViolationError,
    TowerParams,
    count_delta_region,
    delta,
    delta0,
    delta0_average,
    digit,
    divisors,
    last_column,
    mu,
    t_n,
)
from anum.delta import p0
from anum.periodic_sum import EventuallyPeriodicSeq


def run_python(*args, timeout):
    """(exit code, stdout, stderr) of `python *args` with anum's sources on
    the path, in a fresh process, so that a hang fails the test at `timeout`
    seconds instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(anum.__file__)))
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True,
                          check=False, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def pd_grid():
    """Every (p, d) with p in {3, 5, 7, 13} and d | p-1."""
    return [(p, d) for p in (3, 5, 7, 13) for d in divisors(p - 1)]


def full_grid():
    """The acceptance grid: every (p, d) above with
    r in {1..12} union {p+1, 2p+1}."""
    out = []
    for p, d in pd_grid():
        for r in sorted(set(range(1, 13)) | {p + 1, 2 * p + 1}):
            out.append(TowerParams(p, d, r))
    return out


def mu_sum_columnwise(params, lo, hi):
    """sum_{lo < i <= hi} mu(i), one column at a time: strip the factors of
    p from each i, then run the collapsed two-digit delta test on it."""
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


def naive_delta_sum(params, bound):
    return sum(delta(params, i) for i in range(1, bound + 1))


def naive_floor_sum(x, p, n):
    """sum_{i=1}^{floor(p^n/x)} (p^n - floor(x*i)), term by term."""
    x = Fraction(x)
    pn = p**n
    last = pn * x.denominator // x.numerator
    total = 0
    for i in range(1, last + 1):
        total += pn - x.numerator * i // x.denominator
    return total


def floor_inv_pn(x, p, n):
    """floor(p^n / x) for positive rational x."""
    x = Fraction(x)
    return p**n * x.denominator // x.numerator


def triangle_points_oracle(params, n):
    """Count integer points of the closed triangle one by one."""
    p = params.p
    pn = p**n
    tau = params.tau
    drop = params.gamma - tau
    last = pn * params.d // (p + 1)
    count = 0
    for x in range(last + 1):
        for y in range(pn + 1):
            if tau * x <= y <= pn and y >= pn - drop * x:
                count += 1
    return count


def longdiv_delay_period(x, p):
    """(delay, period) of the fractional digit stream of x in base p, found
    by cycling long-division remainders."""
    x = Fraction(x)
    rem = x - math.floor(x)
    a, b = rem.numerator, rem.denominator
    seen = {}
    k = 0
    while a not in seen:
        seen[a] = k
        a = a * p % b
        k += 1
    return seen[a], k - seen[a]


def digit_average(x, p):
    """Mean of the repeating fractional digits of x in base p, read with
    `digit` over one period past the delay."""
    delay, period = longdiv_delay_period(x, p)
    digits = [digit(x, p, -j) for j in range(delay + 1, delay + period + 1)]
    return Fraction(sum(digits), period)


def count_delta_region_pointwise(params, n):
    """Per-point enumeration of the delta region.  Cost O(p^{2n}): tiny n
    only."""
    pn = params.p**n
    count = 0
    for i in range(t_n(params, n) + 1, last_column(params, n) + 1):
        first = mu(params, i)
        for j in range(1, pn):
            if first <= j:
                count += 1
    return count


def count_tilde_delta(params, n):
    """Size of the widened region: the delta region together with the full
    columns below the top edge, p^n - i*r*(p-1)/d <= j <= p^n - 1, for
    i <= t_n."""
    step = params.r * (params.p - 1) // params.d  # integral since d | p-1
    pn = params.p**n
    wide = sum(min(pn - 1, i * step) for i in range(1, t_n(params, n) + 1))
    return wide + count_delta_region(params, n)


def special_d12(params, n):
    """Direct value for d in {1, 2}: every delta vanishes (tau_den = 1), so
    the count is quad*p^{2n} plus the difference of the floor-sum residues,
    and the linear term is zero.  Exact for every n >= 0."""
    if params.d not in (1, 2):
        raise ValueError(f"only valid for d in (1, 2), got d={params.d}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    p = params.p
    quad = (1 / params.tau - 1 / params.gamma) / 2
    return (quad * p**(2 * n)
            + A_fn(1 / params.tau, p, n) - A_fn(1 / params.gamma, p, n))


def special_r_eq_p_plus_1(params):
    """Model for r = p+1, where gamma = p*tau: no linear term, period 1,
    constant nu = (p-1)(1/tau - 1)/2, valid from n = 1."""
    if params.r != params.p + 1:
        raise ValueError(
            f"only valid for r = p+1 = {params.p + 1}, got r={params.r}")
    quad = (1 / params.tau - 1 / params.gamma) / 2
    nu = Fraction(params.p - 1, 2) * (1 / params.tau - 1)
    den = math.lcm(quad.denominator, nu.denominator)
    return ClosedFormModel(params=params, quad_coeff=quad, lam=Fraction(0),
                           delay=1, claimed_period=1, den=den,
                           nu=(int(nu * den),))


def F_fn(x_inv, params, e):
    """The paper's partial-period correction of the delta0 prefix sum at
    exponent e: P0(M) - M <delta0>, M = floor(x_inv p^e) mod tau_den p,
    with floor(x_inv p^e) formed whole (no `floor_pn_mod`)."""
    x_inv = Fraction(x_inv)
    block = params.tau_den * params.p
    m = x_inv.numerator * params.p**e // x_inv.denominator % block
    return p0(params, m) - m * delta0_average(params)


def delta0_as_sequence(params):
    """delta0 as an immediately periodic sequence with period tau_den * p."""
    cycle = tuple(Fraction(delta0(params, i))
                  for i in range(1, params.tau_den * params.p + 1))
    seq = EventuallyPeriodicSeq(head=(), cycle=cycle)
    if seq.average != delta0_average(params):
        raise InvariantViolationError("delta0 cycle average mismatch")
    return seq


def term(seq, i):
    """Term i (1-indexed) of an eventually periodic sequence."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    if i > seq.delay:
        i = seq.delay + 1 + (i - seq.delay - 1) % seq.period
    return seq.sums[i] - seq.sums[i - 1]


def p_adic_value(form):
    """Reassemble the rational a PAdicForm was split from."""
    if form.v >= 0:
        return Fraction(form.num * form.p**form.v, form.den)
    return Fraction(form.num, form.den * form.p**-form.v)
