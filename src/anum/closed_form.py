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

with g eventually periodic in e.  g is formed only in `_residues`, which
takes its average c = <g> as the linear coefficient and B(x, n) =
sum_{e<=n} g(e) - <delta0>/((p-1) x) - c n as the residue, and
`test_residue_tables_match_direct_evaluation` certifies both against
`floor_sum_closed` and `delta_sum_closed`, the split forms of the two sums,
which read none of A, F and g.

On the tau side the linear coefficient vanishes identically, so the count

    S_floor(tau, n) - S_floor(gamma, n) - S_delta(tau, n) + S_delta(gamma, n)
    = quad * p^{2n} + lam * n + nu(n)

has quad = (1/tau - 1/gamma)/2, lam carried entirely by the gamma side,
and nu(n) = R_tau(n) - R_gamma(n), where R_x(n) = A(1/x, n) - B(x, n) is
periodic from n = v_p(x) with the digit period L_x of 1/x.  So nu is
periodic for n >= v_p(gamma) with period dividing lcm(L_gamma, 2).  Below
that delay the closed form is genuinely wrong and `evaluate` refuses; use
the brute-force counter there.  Each slope has one residue table
(`_residues`), keyed by (x, p, d), so every r reads one tau table (v = 0,
L_tau | 2); lam is the gamma table's c.  A build reads the two tables
once and indexes its 2L nu window in them, through the reader `nu_value`
also uses.  The value is checked over the common denominator D of quad, lam
and the nu table, where D * value is an integer expression: directly at
the delay, then by the recurrence D v(n+1) = p^2 D v(n) + E(n) with E(n)
a small integer (`_check_window`); `evaluate` computes D * value directly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate

from .delta import (TowerParams, _budget_error, _count_text, _more_than,
                    delta0_average, p0, require_budget)
from .errors import InvariantViolationError, PreDelayError
from .exact_arith import (
    _budget_limit,
    _floor_sum,
    divisors,
    floor_pn_mod,
    format_rational,
    frac_part_pn,
    multiplicative_order,
    p_adic_decompose,
)
from .lattice import _delta_prefix


def A_fn(x_inv: Fraction, p: int, n: int) -> Fraction:
    """Periodic residue of the floor sum.  With x = 1/x_inv = X/den in
    lowest terms (den is prime to p exactly when v_p(x) >= 0) and
    M = floor(x_inv p^n) mod den:

        (1/2)(-(1 - 1/den) + x(1 - {x_inv p^n})) {x_inv p^n}
        + sum_{k=1}^{M} ({x k} - (1 - 1/den)/2)

    where {x k} = (X k - den floor(X k/den))/den makes the sum one floor
    sum.  Periodic in n from the delay of x_inv on, with its digit period.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x_inv = Fraction(x_inv)
    x = 1 / x_inv
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ValueError(
            f"1/x_inv must have non-negative p-adic valuation, got {x}")
    fp = frac_part_pn(x_inv, p, n)
    head = (Fraction(-(den - 1), den) + x * (1 - fp)) * fp / 2
    m = floor_pn_mod(x_inv, p, n, den)
    return head + Fraction(num * m * (m + 1) - m * (den - 1)
                           - 2 * den * _floor_sum(m, den, num, num), 2 * den)


def floor_sum_closed(x: Fraction | int, p: int, n: int) -> int:
    """sum_{i=1}^{M} (p^n - floor(x*i)), M = floor(p^n/x), as the split
    form M p^n - sum_{i<=M} floor(x*i), one Euclid-like floor sum.
    Requires v_p(x) >= 0 (true for both tau and gamma)."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"x must have non-negative p-adic valuation, got {x}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    pn = p**n
    last = pn * x.denominator // x.numerator
    return last * pn - _floor_sum(last + 1, x.denominator, x.numerator, 0)


def F_fn(x_inv: Fraction, params: TowerParams, e: int) -> Fraction:
    """Partial-period correction of the delta0 prefix sum at exponent e:

        P0(M) - M <delta0>,  M = floor(x_inv p^e) mod (tau_den p),

    with P0 the three floor sums of `delta.p0`.  Periodic in e one step
    past the delay of x_inv, with its digit period.
    """
    if e < 0:
        raise ValueError(f"e must be non-negative, got {e}")
    block = params.tau_den * params.p
    m = floor_pn_mod(Fraction(x_inv), params.p, e, block)
    return p0(params, m) - m * delta0_average(params)


def _delta_slope(x: Fraction | int, params: TowerParams) -> Fraction:
    """x as a Fraction, once checked x >= 1 with denominator tau_den (tau
    and gamma qualify), so v_p(x) >= 0: the delta side's domain."""
    x = Fraction(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x.denominator != params.tau_den:
        raise ValueError(f"denominator of x must equal {params.tau_den}, "
                         f"got {x.denominator}")
    return x


def delta_sum_closed(x: Fraction | int, params: TowerParams, n: int) -> int:
    """sum_{i=1}^{M} delta(i), M = floor(p^n/x), as the split form
    P0(M) + P0(M//p) + P0(M//p^2) + ..., in O(n) steps."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    x = _delta_slope(x, params)
    return _delta_prefix(params, params.p**n * x.denominator // x.numerator)


@lru_cache(maxsize=128)
def delta_sum_linear_coeff(x: Fraction, params: TowerParams) -> Fraction:
    """c = <g>, the coefficient of n in the delta sum for this x, read from
    the slope's residue table; 0 for x = tau.  Checked against the paper's
    <F(1/x)> - (p-1) <{p^e/x}> / (2p) * (1 - 1/tau_den)
    (`test_linear_coeff_matches_paper_form`)."""
    x = _delta_slope(x, params)
    return _residues(x, params.p, params.d)[0]


def lambda_r(params: TowerParams) -> Fraction:
    """Linear coefficient of the full quasi-polynomial (the gamma side's;
    the tau side's vanishes), read off the gated build."""
    return closed_model(params).lam


@lru_cache(maxsize=4)
def _residues(x: Fraction, p: int,
              d: int) -> tuple[Fraction, int, tuple[Fraction, ...]]:
    """(c, v, table) for the slope x of (p, d): c = <g> is the linear
    coefficient of its delta sum, and the table holds R(n) = A(1/x, n) -
    B(x, n) for n < v + L, with v = v_p(x) and L the digit period of 1/x,
    after checking R(n + L) = R(n) over the second period.

    One pass over e < v + 2L forms g(e) = F(1/x, e) - <delta0> {p^e/x},
    reads c off one cycle of it (from e = v + 1) and B as its running sum
    less <delta0>/((p-1) x) and c n.  The key is (x, p, d) and never r: tau
    is a function of (p, d), so every r and every partner reads one tau
    table, while a gamma table is read by its own build and `nu_value`.
    v + 2L entries past the default budget are refused before any entry:
    `delta_sum_linear_coeff` reaches this table without `_require_build`."""
    params = TowerParams(p, d, 1)  # the delta side reads p and d alone
    form = p_adic_decompose(x, p)
    what = f"the residue table of slope {x}"
    v, period = form.v, _digit_period(p, form.num, what)
    require_budget(v + 2 * period, None, what, "entries")
    avg = delta0_average(params)
    x_inv = 1 / x
    g = [F_fn(x_inv, params, e) - avg * frac_part_pn(x_inv, p, e)
         for e in range(v + 2 * period)]
    c = sum(g[v + 1:v + 1 + period]) / period
    base = avg / ((p - 1) * x)
    r = [A_fn(x_inv, p, n) - (total - base - c * n)
         for n, total in enumerate(accumulate(g))]
    if r[v + period:] != r[v:v + period]:
        raise InvariantViolationError(
            f"residue of slope {x} not periodic with period {period} from n={v}")
    return c, v, tuple(r[:v + period])


def _nu(tables, n: int) -> Fraction:
    """R(tau, n) - R(gamma, n), indexed in the two slopes' (c, v, table)
    triples: the one reader of `nu_value` and of the build's window."""
    tau, gamma = (table[n if n < len(table) else v + (n - v) % (len(table) - v)]
                  for _, v, table in tables)
    return tau - gamma


def nu_value(params: TowerParams, n: int) -> Fraction:
    """The periodic constant term at n >= 0: R(tau, n) - R(gamma, n)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return _nu(_require_build(params)[1], n)


def _digit_period(p: int, num: int, what: str) -> int:
    """The order of p modulo num, behind 2 * order entries of `what` or
    more: past 2^(bit length of B), B the budget, when the order is refused."""
    order = multiplicative_order(p, num)
    if order is None:
        raise _budget_error(_more_than(_budget_limit(None).bit_length()),
                            None, what, "entries")
    return order


def _require_build(params: TowerParams):
    """Refuse a build of more than the default budget of 2L window entries
    before any residue table is read; then return (L, (tau, gamma)), with
    the (c, v, table) triple of each slope.  L = lcm(L_gamma, 2) is the
    period the build claims for nu; L_gamma is the order of p modulo
    gamma's numerator, which the slopes and the pairing partner share,
    found by the bounded search of `multiplicative_order` and cached."""
    what = "the closed-form build"
    period = math.lcm(_digit_period(params.p, params.gamma_num, what), 2)
    require_budget(2 * period, None, what, "entries")
    return period, (_residues(params.tau, params.p, params.d),
                    _residues(params.gamma, params.p, params.d))


class ClosedFormModel(namedtuple(
        "ClosedFormModel",
        "params quad_coeff lam delay claimed_period nu_table")):
    """Assembled right side quad*p^{2n} + lam*n + nu_table[n mod claimed_period],
    valid for n >= delay.

    nu_table is indexed by n mod claimed_period; its stability was
    re-checked over a second full period at construction, which turns the
    asymptotic statement into a machine-checked window.  No __slots__: the
    cached _den lives in the instance __dict__.
    """

    @cached_property
    def _den(self) -> int:
        """D: the common denominator of quad, lam and the nu table."""
        return math.lcm(self.quad_coeff.denominator, self.lam.denominator,
                        *(v.denominator for v in self.nu_table))


@lru_cache(maxsize=64)
def closed_model(params: TowerParams) -> ClosedFormModel:
    """Build and self-check the closed form for one parameter set, once
    `_require_build` has admitted it.

    The quadratic coefficient is rendered two independent ways (from the
    slopes and from the single reduced fraction in p, d, r) to catch
    parameter-wiring mistakes.  The nu window over two full periods past
    the delay is indexed in the two slopes' residue tables and must repeat
    its first period; the value is then checked integral and non-negative
    at every n of the window, in integers over the common denominator D.
    lam is read from the gamma table.
    """
    period, tables = _require_build(params)
    p, d, r = params.p, params.d, params.r
    quad = (1 / params.tau - 1 / params.gamma) / 2
    wired = Fraction(d * r * (p - 1), 2 * (p + 1) * ((p - 1) * r + p + 1))
    if quad != wired:
        raise InvariantViolationError(
            f"quadratic coefficient mismatch: {quad} vs {wired}")
    lam = tables[1][0]
    delay = params.gamma_vp
    window = [_nu(tables, n) for n in range(delay, delay + 2 * period)]
    if window[:period] != window[period:]:
        raise InvariantViolationError(
            f"nu residue is not {period}-periodic over the verification window")
    model = ClosedFormModel(
        params=params, quad_coeff=quad, lam=lam, delay=delay,
        claimed_period=period,
        nu_table=tuple(window[(j - delay) % period] for j in range(period)))
    _check_window(model, delay, delay + 2 * period)
    return model


def _value_text(num: int, den: int) -> str:
    """num/den in full below 2^100 in size; above that its sign and a power
    of ten below its size, as a budget message writes a count."""
    size = abs(num) // den
    if size.bit_length() <= 100:
        return str(Fraction(num, den))
    return f"{'-' if num < 0 else ''}({_count_text(size)})"


def _checked_value(model: ClosedFormModel, n: int) -> int:
    """The closed form at n, after checking that it is integral and
    non-negative.  It runs over D times the value, D the common
    denominator, so p^(2n) only multiplies an integer."""
    den = model._den
    quad, lam, nu = (v.numerator * (den // v.denominator) for v in (
        model.quad_coeff, model.lam, model.nu_table[n % model.claimed_period]))
    num = quad * model.params.p ** (2 * n) + lam * n + nu
    if num % den or num < 0:
        raise InvariantViolationError(
            f"closed form gave non-integral or negative value "
            f"{_value_text(num, den)} at n={n}")
    return num // den


def _check_window(model: ClosedFormModel, lo: int, hi: int) -> None:
    """Check the value integral and non-negative at every n in [lo, hi)
    with no p^(2n) past n = lo.  With V = D * value, V(n+1) = p^2 V(n) +
    E(n), E(n) = Lam (n+1) + N(n+1) - p^2 (Lam n + N(n)), Lam = D lam and
    N = D nu small integers.  One direct check at lo, then D | E(n) at each
    step, proves integrality.  V is tracked exactly until (p^2-1) V >=
    max|E|; from there V(n+1) >= V(n), so it can no longer turn negative.
    A step that fails is re-checked directly, which raises with its value."""
    den, step = model._den, model.params.p ** 2
    lam = model.lam.numerator * (den // model.lam.denominator)
    nu = [v.numerator * (den // v.denominator) for v in model.nu_table]
    period = model.claimed_period
    scaled = [lam * n + nu[n % period] for n in range(lo, hi)]
    moves = [b - step * a for a, b in zip(scaled, scaled[1:])]
    ceiling = max(map(abs, moves), default=0)
    value = _checked_value(model, lo) * den
    for n, move in enumerate(moves, lo + 1):
        if value is not None:
            value = step * value + move
            if (step - 1) * value >= ceiling:
                value = None
        if move % den or (value is not None and value < 0):
            _checked_value(model, n)


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
    return _checked_value(model, n)


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
