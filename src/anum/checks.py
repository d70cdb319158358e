"""One registry of the laws and cross-checks for one parameter set.

`checks(params, n_max, budget)` yields (name, callable) pairs; a callable
returning False fails.  `anum verify` runs every pair and the acceptance
suite asserts them on its grid, so each law is written here only.

Each law compares a function with a reference that does not call it:
delta with the raw digit comparison `delta_lexicographic`, mu with floor
arithmetic plus `delta_lexicographic`, `delta0_average` with the direct
sum of delta0 over one period, and the closed form with brute force.

The split forms share only P0, the floor-sum prefix of delta0
(`delta.p0`), with the closed form; the shift, reflection and average
laws check delta0 itself by the column test over one period, and the
tests check P0 against its running sum.  `floor_sum_closed` and
`delta_sum_closed` are these split forms one sum at a time, so the bench's
`split_sum` oracle shares only P0 with the build it checks.
"""

from __future__ import annotations

from fractions import Fraction

from .closed_form import closed_model, delta_sum_linear_coeff, evaluate
from .delta import (
    TowerParams,
    delta,
    delta0,
    delta0_average,
    delta_lexicographic,
    delta_tilde,
    mu,
    require_budget,
)
from .lattice import (
    a_number_bruteforce,
    last_column,
    sum_decomposition,
    triangle_lattice_count,
)


def checks(params: TowerParams, n_max: int, budget: int | None):
    """Yield the indicator laws, then an agreement check for each n in
    1..n_max, then, for r = 1, the first-power formula on 1..n_max."""
    p, d = params.p, params.d
    td = params.tau_den
    block = td * p

    def digit_vs_lex():
        return all(delta(params, i) == delta_lexicographic(params, i)
                   for i in range(1, 501))

    def mu_identities():
        for i in range(1, 501):
            scaled = (p + 1) * i
            floor_v = scaled // d
            ceil_v = -(-scaled // d)
            if mu(params, i) != floor_v + delta_lexicographic(params, i):
                return False
            if mu(params, i) != ceil_v - 1 + delta_tilde(params, i):
                return False
        return True

    def multiplicative():
        return all(delta(params, i) == delta(params, i * p**e)
                   for i in range(1, 201) for e in (1, 2, 3))

    def shift():
        require_budget(6 * block, None, "the delta0 law check")
        return all(delta0(params, i) == delta0(params, i + block)
                   for i in range(1, 5 * block + 1))

    def reflection():
        for i in range(1, block):
            a, b = delta0(params, i), delta0(params, block - i)
            if i % td and i % p:
                if a + b != 1:
                    return False
            elif a or b:
                return False
        return True

    def average():
        total = sum(delta0(params, i) for i in range(1, block + 1))
        return Fraction(total, block) == delta0_average(params)

    def tau_side_linear():
        return delta_sum_linear_coeff(params.tau, params) == 0

    yield "delta digit test matches the lexicographic definition", digit_vs_lex
    yield "mu equals floor+delta and ceil-1+delta_tilde", mu_identities
    yield "delta is invariant under multiplying i by p", multiplicative
    yield "delta0 shifts by tau_den*p", shift
    yield "delta0 reflects within one period", reflection
    yield "delta0 average matches its closed form", average
    yield "tau-side linear coefficient vanishes", tau_side_linear

    def agreement(n):
        def check():
            brute = a_number_bruteforce(params, n, budget)
            decomp = sum_decomposition(params, n)
            if brute.total != decomp.total:
                return False
            model = closed_model(params)
            if n >= model.delay and evaluate(model, n) != brute.total:
                return False
            points = triangle_lattice_count(params, n, budget)
            boundary = sum(1 - delta_tilde(params, i)
                           for i in range(brute.t_n + 1,
                                          last_column(params, n) + 1))
            return brute.total == points - last_column(params, n) - 1 + boundary
        return check

    for n in range(1, n_max + 1):
        yield (f"n={n}: brute force, split forms, closed form, and triangle "
               f"count agree"), agreement(n)

    if params.r == 1:
        def first_power():
            for n in range(1, n_max + 1):
                expected = Fraction(d * (p - 1), 4 * (p + 1)) * (p**(2 * n - 1) + 1)
                if d % 2 == 1:
                    expected -= Fraction(p - 1, 4 * d)
                if a_number_bruteforce(params, n, budget).total != expected:
                    return False
            return True
        yield "r=1 closed formula matches brute force", first_power
