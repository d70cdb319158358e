"""Closed quasi-polynomial forms for the region count.

Two families of prefix sums drive everything, for x in {tau, gamma}:

    S_floor(x, n) = sum_{i=1}^{floor(p^n/x)} (p^n - floor(x*i))
    S_delta(x, n) = sum_{i=1}^{floor(p^n/x)} delta(i)

S_floor has the exact closed form

    (1/2)(1/x) p^{2n} + (1/2)((1/x)(1 - 1/x_den) - 1) p^n + A(1/x, n)

where x_den is the prime-to-p denominator of x and A is periodic in n once
n clears the delay of 1/x, with period the digit period of 1/x.

Since delta(i p) = delta(i), S_delta(x, n) = sum_{e=0}^{n} P0(floor(p^e/x)),
with P0 the prefix sum of the (tau_den * p)-periodic function delta0.
Splitting P0(M) into <delta0> M plus the centred partial period
P0(M mod tau_den p) - <delta0> (M mod tau_den p) gives

    S_delta(x, n) = <delta0> (p^{n+1} - 1) / ((p-1) x) + sum_{e<=n} g(e),
    g(e) = F(1/x, e) - <delta0> {p^e/x},

with g eventually periodic in e.  Its average is the linear coefficient
c = <g>, and the residue B(1/x, n) = sum_{e<=n} g(e) - <delta0>/((p-1) x)
- c n is the primitive: it forms no p^n.  The sums are checked against
term-by-term sums (`test_delta_sum_closed_matches_naive_on_grid`), against
the O(n) split forms over two periods past the delay
(`test_closed_sums_certified_by_split_form_oracle`) and through the model
up to n = 50 (acceptance criterion 11); B's periodicity is re-checked when
models are assembled.

On the tau side the linear coefficient vanishes identically, so the count

    S_floor(tau, n) - S_floor(gamma, n) - S_delta(tau, n) + S_delta(gamma, n)
    = quad * p^{2n} + lam * n + nu(n)

has quad = (1/tau - 1/gamma)/2, lam carried entirely by the gamma side,
and nu periodic for n >= v_p(gamma) with period dividing
lcm(order of p mod gamma_num, 2).  Below that delay the closed form is
genuinely wrong and `evaluate` refuses; use the brute-force counter there.
The numerator of tau = (p+1)/d divides p+1, so p = -1 modulo it: 1/tau has
delay 0 and digit period dividing 2, and the tau residue
A(1/tau, n) - B(tau, n) takes two values, by n mod 2, from n = 0 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .delta import TowerParams, delta0_average
from .errors import InvariantViolationError, PreDelayError
from .exact_arith import (
    divisors,
    floor_pn_mod,
    format_rational,
    frac_part,
    frac_part_pn,
    multiplicative_order,
    p_adic_decompose,
)
from .periodic_sum import EventuallyPeriodicSeq, prefix_sum


def A_fn(x_inv: Fraction, p: int, n: int) -> Fraction:
    """Periodic residue of the floor sum.  With x = 1/x_inv and den the
    prime-to-p denominator of x:

        (1/2)(-(1 - 1/den) + x(1 - {x_inv p^n})) {x_inv p^n}
        + sum_{k=1}^{floor(x_inv p^n) mod den} ({x k} - (1 - 1/den)/2)

    Periodic in n from the delay of x_inv on, with its digit period.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x_inv = Fraction(x_inv)
    x = 1 / x_inv
    den = x.denominator  # prime to p exactly when v_p(x) >= 0
    if den % p == 0:
        raise ValueError(
            f"1/x_inv must have non-negative p-adic valuation, got {x}")
    fp = frac_part_pn(x_inv, p, n)
    head = (Fraction(-(den - 1), den) + x * (1 - fp)) * fp / 2
    return head + _centred_frac_sums(x)[floor_pn_mod(x_inv, p, n, den)]


@lru_cache(maxsize=16)
def _centred_frac_sums(x: Fraction) -> tuple[Fraction, ...]:
    """Entry M is sum_{k=1}^{M} ({x k} - (1 - 1/den)/2) for 0 <= M < den,
    den the denominator of x: the partial sums A_fn reads."""
    den = x.denominator
    avg = Fraction(den - 1, 2 * den)
    return tuple(accumulate((frac_part(x * k) - avg for k in range(1, den)),
                            initial=Fraction(0)))


def floor_sum_closed(x: Fraction | int, p: int, n: int) -> Fraction:
    """sum_{i=1}^{floor(p^n/x)} (p^n - floor(x*i)) via the closed form.

    Requires v_p(x) >= 0 (true for both tau and gamma).
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"x must have non-negative p-adic valuation, got {x}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x_inv = 1 / x
    pn = p**n
    lead = (x_inv * pn * pn / 2
            + (x_inv * (1 - Fraction(1, x.denominator)) - 1) * pn / 2)
    return lead + A_fn(x_inv, p, n)


def F_fn(x_inv: Fraction, params: TowerParams, e: int) -> Fraction:
    """Partial-period correction of the delta0 prefix sum at exponent e:

        sum_{k=1}^{floor(x_inv p^e) mod (tau_den p)} (delta0(k) - <delta0>)

    Periodic in e one step past the delay of x_inv, with its digit period.
    """
    if e < 0:
        raise ValueError(f"e must be non-negative, got {e}")
    block = params.tau_den * params.p
    m = floor_pn_mod(Fraction(x_inv), params.p, e, block)
    return params.delta0_prefix[m] - m * delta0_average(params)


@lru_cache(maxsize=4)  # a build reads two entries (tau and gamma), then none
def _exponent_seq(x: Fraction, params: TowerParams) -> EventuallyPeriodicSeq:
    """g(e) = F(1/x, e) - <delta0> {p^e/x} as an eventually periodic
    sequence over the exponent e shifted to 1-based indexing.

    Requires x >= 1 with denominator tau_den (both tau and gamma qualify),
    so v_p(x) >= 0; this is the one place the delta side checks x.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x.denominator != params.tau_den:
        raise ValueError(f"denominator of x must equal {params.tau_den}, "
                         f"got {x.denominator}")
    p = params.p
    form = p_adic_decompose(x, p)
    x_inv, avg = 1 / x, delta0_average(params)
    # {p^e/x} repeats from e = v, the mod-p part of floor(p^e/x) one later
    terms = tuple(F_fn(x_inv, params, e) - avg * frac_part_pn(x_inv, p, e)
                  for e in range(form.v + 1 + multiplicative_order(p, form.num)))
    return EventuallyPeriodicSeq(head=terms[:form.v + 1],
                                 cycle=terms[form.v + 1:])


def delta_sum_residue(x: Fraction | int, params: TowerParams, n: int) -> Fraction:
    """B(1/x, n): the delta sum minus its p^n and linear parts, from the
    exponent sequence alone.  Periodic for n >= the delay of 1/x with its
    digit period; O(1) once the sequence for x is built."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x = Fraction(x)
    return (prefix_sum(_exponent_seq(x, params), n + 1)
            - delta0_average(params) / ((params.p - 1) * x)
            - delta_sum_linear_coeff(x, params) * n)


def delta_sum_closed(x: Fraction | int, params: TowerParams, n: int) -> Fraction:
    """sum_{i=1}^{floor(p^n/x)} delta(i) as the geometric term plus the
    prefix sum of g.

    Requires x >= 1 with denominator tau_den (both tau and gamma
    qualify).  Exact for every n >= 0; O(1) after the per-x build of the
    exponent sequence.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x, p = Fraction(x), params.p
    return (delta0_average(params) * (p**(n + 1) - 1) / ((p - 1) * x)
            + prefix_sum(_exponent_seq(x, params), n + 1))


@lru_cache(maxsize=128)
def delta_sum_linear_coeff(x: Fraction, params: TowerParams) -> Fraction:
    """Coefficient of n in the delta-sum closed form for this x: <g>, the
    average of the exponent sequence over one cycle.  Vanishes for
    x = tau.  `test_linear_coeff_matches_paper_form` checks it against the
    paper's <F(1/x)> - (p-1) <{p^e/x}> / (2p) * (1 - 1/tau_den).
    """
    return _exponent_seq(Fraction(x), params).average


def lambda_r(params: TowerParams) -> Fraction:
    """Linear coefficient of the full quasi-polynomial (the gamma side's;
    the tau side's vanishes)."""
    return delta_sum_linear_coeff(params.gamma, params)


@lru_cache(maxsize=4)  # a build reads one entry 2L times
def _tau_residues(params: TowerParams) -> tuple[Fraction, Fraction]:
    """(R(0), R(1)) for the tau residue R(n) = A(1/tau, n) - B(tau, n),
    after checking R(2) = R(0) and R(3) = R(1)."""
    tau = params.tau
    r = [A_fn(1 / tau, params.p, n) - delta_sum_residue(tau, params, n)
         for n in range(4)]
    if r[2:] != r[:2]:
        raise InvariantViolationError(f"tau residue not 2-periodic: {r}")
    return r[0], r[1]


def nu_value(params: TowerParams, n: int) -> Fraction:
    """The periodic constant term at index n >= 0:
    A(1/tau) - A(1/gamma) - B(1/tau) + B(1/gamma).  The tau half depends
    only on n mod 2 (1/tau has delay 0 and digit period dividing 2, since
    p = -1 modulo the numerator of tau), so it is read from a cached pair."""
    gamma = params.gamma
    return (_tau_residues(params)[n % 2] - A_fn(1 / gamma, params.p, n)
            + delta_sum_residue(gamma, params, n))


@dataclass(frozen=True)
class ClosedFormModel:
    """Assembled right side quad*p^{2n} + lam*n + nu_table[n mod claimed_period],
    valid for n >= delay.

    nu_table is indexed by n mod claimed_period; its stability was
    re-checked over a second full period at construction, which turns the
    asymptotic statement into a machine-checked window.
    """

    params: TowerParams
    quad_coeff: Fraction
    lam: Fraction
    delay: int
    claimed_period: int
    nu_table: tuple[Fraction, ...]


@lru_cache(maxsize=64)
def closed_model(params: TowerParams) -> ClosedFormModel:
    """Build and self-check the closed form for one parameter set.

    The quadratic coefficient is rendered two independent ways (from the
    slopes and from the single reduced fraction in p, d, r) to catch
    parameter-wiring mistakes; the nu table is built by evaluation and its
    periodicity, integrality, and non-negativity are verified over two
    full periods past the delay.
    """
    p, d, r = params.p, params.d, params.r
    quad = (1 / params.tau - 1 / params.gamma) / 2
    wired = Fraction(d * r * (p - 1), 2 * (p + 1) * ((p - 1) * r + p + 1))
    if quad != wired:
        raise InvariantViolationError(
            f"quadratic coefficient mismatch: {quad} vs {wired}")
    lam = lambda_r(params)
    delay = params.gamma_vp
    period = math.lcm(multiplicative_order(p, params.gamma_num), 2)
    window = [nu_value(params, n) for n in range(delay, delay + 2 * period)]
    for j in range(period):
        if window[j] != window[j + period]:
            raise InvariantViolationError(
                f"nu residue is not {period}-periodic over the verification "
                f"window (offsets {j} and {j + period} past the delay differ)")
    table = [Fraction(0)] * period
    for offset in range(period):
        table[(delay + offset) % period] = window[offset]
    model = ClosedFormModel(params=params, quad_coeff=quad, lam=lam,
                            delay=delay, claimed_period=period,
                            nu_table=tuple(table))
    for n in range(delay, delay + 2 * period):
        evaluate(model, n)  # raises unless integral and non-negative
    return model


def evaluate(model: ClosedFormModel, n: int) -> int:
    """Value of the closed form at n >= delay.

    Refuses below the delay: the formula genuinely fails there (for
    example p=5, d=4, r=61 at n=1, 2), so callers must fall back to the
    brute-force counter.
    """
    if n < model.delay:
        raise PreDelayError(
            f"closed form is not valid for n={n} < delay {model.delay}; "
            f"use the brute-force counter instead")
    p = model.params.p
    value = (model.quad_coeff * p**(2 * n) + model.lam * n
             + model.nu_table[n % model.claimed_period])
    if value.denominator != 1 or value < 0:
        raise InvariantViolationError(
            f"closed form gave non-integral or negative value {value} at n={n}")
    return int(value)


def minimal_nu_period(model: ClosedFormModel) -> int:
    """Smallest divisor of claimed_period under which nu_table is invariant."""
    table, full = model.nu_table, model.claimed_period
    for cand in divisors(full):
        if all(table[j] == table[(j + cand) % full] for j in range(full)):
            return cand
    return full


def model_to_dict(model: ClosedFormModel) -> dict:
    """JSON-ready rendering: {p, d, r, quad, lambda, N_r, period, nu}, with
    the nu table cut to its minimal period."""
    nu = model.nu_table[:minimal_nu_period(model)]
    return {
        "p": model.params.p,
        "d": model.params.d,
        "r": model.params.r,
        "quad": format_rational(model.quad_coeff),
        "lambda": format_rational(model.lam),
        "N_r": model.delay,
        "period": len(nu),
        "nu": [format_rational(v) for v in nu],
    }
