"""Period and delay measurement, pairing checks, and the sweep.

The closed form guarantees the constant term is periodic with period
dividing lcm(order of p mod gamma_num, 2) once n clears v_p(gamma), but
the minimal period is often smaller and the true delay can be too.  The
minimal period is read off the nu table, whose periodicity closed_model
checked over two bound periods past the delay; the O(n) split forms
supply the residuals a(n) - quad*p^{2n} - lam*n below the delay, where
the closed form is not trusted, and are checked against the table at the
delay and one step past it.  Certifying the period from an independent
oracle is ROADMAP item 2.

The pairing r -> (r+1)p + 1 multiplies gamma by p, so the linear
coefficients agree and the delay grows by exactly one.  The measured
minimal periods need not agree: at p=7, d=6, r=4 (lambda = 1/2) the
period is 1, and at its partner r = 36 it is 2.  The sweep records the
comparison as data (partner_period_equal) and never asserts it.
"""

from __future__ import annotations

from collections import namedtuple

from .closed_form import (closed_model, lambda_r, minimal_nu_period,
                          sum_decomposition)
from .delta import TowerParams, _require_ints
from .errors import InvariantViolationError
from .exact_arith import multiplicative_order


class PeriodReport(namedtuple(
        "PeriodReport",
        "params lcm_bound gamma_period minimal_period half_case formula_delay "
        "minimal_delay lambda_value lambda_times_period lambda_integral "
        "pairing_partner nu_values")):
    """Measured period/delay data for one parameter set.

    This is a measurement record: minimal_period always divides lcm_bound
    by construction, and the heavier structural claims are asserted by the
    test suite rather than here: the measured period L is the bound or
    half of it, and lambda*L + quad*p^(2N)*(p^(2L) - 1) is an integer,
    with N the measured minimal delay, because it equals a(N+L) - a(N).
    lambda*L alone need not be an integer: at p=7, d=6, r=4, lambda = 1/2
    with a constant residue, so lambda_integral is data, not an invariant.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lcm_bound % self.minimal_period != 0:
            raise InvariantViolationError(
                f"measured period {self.minimal_period} does not divide the "
                f"bound {self.lcm_bound}")
        return self


def minimal_period(params: TowerParams) -> PeriodReport:
    """Measure the minimal period and delay of the residual sequence.

    The period is the smallest divisor of the bound under which the nu
    table is invariant; that table's periodicity was checked by
    closed_model over two bound periods, and nothing here certifies it
    independently (ROADMAP item 2).  The split forms give the residuals
    for n = 0 .. delay+1, as integers over the model's D, and must match
    the table at delay and delay+1.  The delay is then walked down while
    the residual one period later, read from the split forms below the
    formula delay and from the table at and past it, still agrees.  A
    build past the default budget is refused by `closed_model` before it
    starts, as `formula` refuses it.
    """
    model = closed_model(params)
    bound, start, den, nu = (model.claimed_period, model.delay, model.den,
                             model.nu)
    p, lam = params.p, model.lam
    quad = int(model.quad_coeff * den)
    split = [sum_decomposition(params, n).total * den - quad * p**(2 * n)
             - int(lam * den) * n for n in range(start + 2)]
    for n in (start, start + 1):
        if split[n] != nu[n % bound]:
            raise InvariantViolationError(
                f"split-form residual at n={n} disagrees with the nu table")

    def residual(n: int) -> int:
        return split[n] if n < start else nu[n % bound]

    period = minimal_nu_period(model)
    delay = start
    while delay > 0 and residual(delay - 1) == residual(delay - 1 + period):
        delay -= 1

    lam_times = lam * period
    return PeriodReport(
        params=params,
        lcm_bound=bound,
        gamma_period=multiplicative_order(p, params.gamma_num),
        minimal_period=period,
        half_case=(2 * period == bound),
        formula_delay=start,
        minimal_delay=delay,
        lambda_value=lam,
        lambda_times_period=lam_times,
        lambda_integral=(lam_times.denominator == 1),
        pairing_partner=(params.r + 1) * p + 1,
        nu_values=model.nu_table[:period],
    )


class PairingRecord(namedtuple("PairingRecord",
                               "r0 r1 lambda0 lambda1 delay0 delay1")):
    """Comparison of r0 against its partner r1 = (r0+1)p + 1.

    The linear-coefficient and delay relations are theorems and are
    asserted on construction.  The measured minimal periods need not be
    equal (1 at p=7, d=6, r0=4 against 2 at r1=36), so the sweep records
    their comparison as data (partner_period_equal).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lambda1 != self.lambda0:
            raise InvariantViolationError(
                f"paired linear coefficients differ: {self.lambda0} vs "
                f"{self.lambda1} for r0={self.r0}, r1={self.r1}")
        if self.delay1 != self.delay0 + 1:
            raise InvariantViolationError(
                f"paired delays are not offset by one: {self.delay0} -> "
                f"{self.delay1} for r0={self.r0}, r1={self.r1}")
        return self


def check_pairing(params: TowerParams) -> PairingRecord:
    """Compare params against its pairing partner."""
    r1 = (params.r + 1) * params.p + 1
    other = TowerParams(params.p, params.d, r1)
    return PairingRecord(
        r0=params.r,
        r1=r1,
        lambda0=lambda_r(params),
        lambda1=lambda_r(other),
        delay0=params.gamma_vp,
        delay1=other.gamma_vp,
    )


# the sweep's column names, where they differ from SweepRow's field names
_RENAMED = {"lam": "lambda", "formula_delay": "N_r",
            "gamma_period": "L_gamma_inv", "minimal_period": "L",
            "lambda_times_period": "lambda_times_L",
            "partner_period": "partner_L"}


class SweepRow(namedtuple(
        "SweepRow",
        "p d r quad lam formula_delay minimal_delay lcm_bound gamma_period "
        "minimal_period half_case lambda_times_period lambda_integral "
        "partner_r partner_lambda_equal partner_delay_shift partner_period "
        "partner_period_equal error",
        defaults=(None,) * 15 + ("",))):
    """One sweep cell; the fields, in order, are the sweep's columns, named
    as in SWEEP_COLUMNS.  All data fields are None when `error` is set."""

    __slots__ = ()


SWEEP_COLUMNS = tuple(_RENAMED.get(name, name) for name in SweepRow._fields)


def sweep(entries) -> list[SweepRow]:
    """One row per (p, d, r), in lexicographic order.

    Cell failures are recorded in the row's error column and the sweep
    continues; the row order never depends on failures.  An entry that is
    not three integers is refused with ValueError before any cell runs.
    """
    keys = sorted({_require_ints(p, d, r) for p, d, r in entries})
    rows = []
    for p, d, r in keys:
        try:
            params = TowerParams(p, d, r)
            report = minimal_period(params)
            pairing = check_pairing(params)
            partner = minimal_period(TowerParams(p, d, pairing.r1))
            rows.append(SweepRow(
                p=p, d=d, r=r,
                quad=closed_model(params).quad_coeff,
                lam=report.lambda_value,
                formula_delay=report.formula_delay,
                minimal_delay=report.minimal_delay,
                lcm_bound=report.lcm_bound,
                gamma_period=report.gamma_period,
                minimal_period=report.minimal_period,
                half_case=report.half_case,
                lambda_times_period=report.lambda_times_period,
                lambda_integral=report.lambda_integral,
                partner_r=pairing.r1,
                partner_lambda_equal=pairing.lambda1 == pairing.lambda0,
                partner_delay_shift=pairing.delay1 - pairing.delay0,
                partner_period=partner.minimal_period,
                partner_period_equal=(partner.minimal_period
                                      == report.minimal_period),
            ))
        except Exception as exc:  # cell failures are data, not aborts
            rows.append(SweepRow(p=p, d=d, r=r,
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows
