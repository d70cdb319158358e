"""Exact region counts for p-power covering towers with d | p-1.

Three independent routes to the same integers: per-column brute force
(`a_number_bruteforce`), the two split forms evaluated in O(n) big-integer
operations (`sum_decomposition`), and a closed quasi-polynomial
(`closed_model` / `evaluate`), plus empirical period and delay measurement
(`minimal_period`, `sweep`).  All arithmetic is exact rational.
"""

from .analysis import (
    PairingRecord,
    PeriodReport,
    SweepRow,
    check_pairing,
    minimal_period,
    sweep,
)
from .closed_form import (
    ClosedFormModel,
    closed_model,
    delta_sum_closed,
    delta_sum_linear_coeff,
    evaluate,
    floor_sum_closed,
    lambda_r,
    minimal_nu_period,
    model_to_dict,
    nu_value,
    sum_decomposition,
)
from .delta import (
    TowerParams,
    delta,
    delta0,
    delta0_average,
    delta_lexicographic,
    delta_tilde,
    mu,
)
from .errors import BudgetExceededError, InvariantViolationError, PreDelayError
from .exact_arith import (
    DEFAULT_COLUMN_BUDGET,
    PAdicForm,
    digit,
    divisors,
    format_rational,
    is_prime,
    multiplicative_order,
    p_adic_decompose,
)
from .lattice import (
    ANumberBreakdown,
    a_number_bruteforce,
    count_delta_region,
    last_column,
    t_n,
    triangle_lattice_count,
)

__version__ = "0.1.0"

__all__ = [
    "ANumberBreakdown",
    "BudgetExceededError",
    "ClosedFormModel",
    "DEFAULT_COLUMN_BUDGET",
    "InvariantViolationError",
    "PAdicForm",
    "PairingRecord",
    "PeriodReport",
    "PreDelayError",
    "SweepRow",
    "TowerParams",
    "a_number_bruteforce",
    "check_pairing",
    "closed_model",
    "count_delta_region",
    "delta",
    "delta0",
    "delta0_average",
    "delta_lexicographic",
    "delta_sum_closed",
    "delta_sum_linear_coeff",
    "delta_tilde",
    "digit",
    "divisors",
    "evaluate",
    "floor_sum_closed",
    "format_rational",
    "is_prime",
    "lambda_r",
    "last_column",
    "minimal_nu_period",
    "minimal_period",
    "model_to_dict",
    "mu",
    "multiplicative_order",
    "nu_value",
    "p_adic_decompose",
    "sum_decomposition",
    "sweep",
    "t_n",
    "triangle_lattice_count",
]
