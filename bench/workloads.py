"""Seeded op lists for the three benchmark workloads.

Standard library only and independent of `anum`: the op list is a pure
function of (workload, seed), so the parent process can build it, digest
it and hand it to worker processes before any package code is imported.

An op is a JSON-ready list ``[kind, p, d, r, arg, cost]``:

- ``both``    compute --method both at n=arg; cost = brute-force columns
- ``closed``  compute --method closed at n=arg; cost = n
- ``formula`` formula --format json; arg unused (0); cost = period bound L
- ``cell``    one sweep cell; arg = pass index; cost = period bound L

Ops are stratified by predicted cost so that a time-boxed run has nearly
the same cost mix whatever the seed, without fixing the inputs themselves.
`query` and `formula` draw one op per log-width stratum per round and
visit the strata in bit-reversed order, so every prefix of the list is
spread over the whole cost range.  A `sweep` pass draws one cell from each
group of four grid cells with neighbouring L.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("query", "formula", "sweep")

# Highest percentile with at least ten samples beyond it at this
# benchmark's baseline sample counts (300 to 500 query ops, 30 to 50
# formula ops and 325 to 390 sweep cells in a 34 s run).  Fixed per
# workload so that a faster or slower program is compared at the same
# percentile; a run with too few samples falls back down PERCENTILE_LADDER
# and says so.
TAIL_PERCENTILE = {"query": 95.0, "formula": 50.0, "sweep": 95.0}
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

QUERY_PRIMES = (5, 7, 11, 13)
QUERY_R_MAX = 30
QUERY_L_MAX = 30          # params whose model builds in tens of ms
QUERY_R_PER_PD = 2        # distinct r per (p, d)
QUERY_COLUMNS = (10**4, 3 * 10**5)
QUERY_N_MAX = 2500
# Python's default limit on int-to-str conversion.  `compute --method
# closed` prints its value with str(), so a value with more digits exits 2
# (ROADMAP item 4).  The benchmark keeps to workloads where no op fails, so
# closed ops stay below it; run.py probes the defect itself outside the
# timed loop (KNOWN_DEFECT_PROBES).
CLI_MAX_DIGITS = 4300
QUERY_BOTH_STRATA = 16
QUERY_CLOSED_STRATA = 8
QUERY_ROUNDS = 120

# Requests that fail today because of a known defect, per workload.  They
# are run once per untraced run, after the measurement and outside the op
# counts, and their outcome goes to the details line, so the defect stays
# in view until it is fixed.
KNOWN_DEFECT_PROBES = {
    # a closed value of 4,473 digits: exit 2 (ROADMAP item 4)
    "query": (("closed", 13, 12, 20, 2000),),
}

FORMULA_P_RANGE = (17, 61)
FORMULA_D_MIN = 3
FORMULA_R_MAX = 200
FORMULA_L = (64, 400)
FORMULA_STRATA = 64

SWEEP_PRIMES = (5, 7, 13)
SWEEP_R_MAX = 20
SWEEP_GROUP = 4           # a pass holds a quarter of the 260-cell grid
SWEEP_PASSES = 400


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _order(a: int, m: int) -> int:
    """Multiplicative order of a mod m (gcd(a, m) = 1), via the totient."""
    if m == 1:
        return 1
    phi = m
    for q in _factor(m):
        phi = phi // q * (q - 1)
    order = phi
    for q in _factor(phi):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


def gamma_parts(p: int, d: int, r: int) -> tuple[int, int]:
    """(v_p(gamma), prime-to-p numerator of gamma), gamma = ((p-1)r+p+1)/d."""
    g = (p - 1) * r + p + 1
    num = g // math.gcd(g, d)
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    return v, num


def period_bound(p: int, d: int, r: int) -> int:
    """L = lcm(order of p mod gamma_num, 2): the nu period the model checks."""
    return math.lcm(_order(p, gamma_parts(p, d, r)[1]), 2)


def delay(p: int, d: int, r: int) -> int:
    """N_r = v_p(gamma): the closed form is valid from here on."""
    return gamma_parts(p, d, r)[0]


def columns(p: int, d: int, r: int, n: int) -> int:
    """Columns the brute-force counter enumerates at n: last_column - t_n."""
    pn = p**n
    return max(0, d * pn // (p + 1) - d * pn // ((r + 1) * p - (r - 1)))


def _brute_work(p: int, d: int, r: int, n: int) -> float:
    """Predicted brute-force cost: the delta-region loop over the columns
    plus the cheaper triangle cross-check loop over i <= t_n."""
    t = d * p**n // ((r + 1) * p - (r - 1))
    return columns(p, d, r, n) + t / 2


def _build_work(p: int, d: int, r: int, L: int) -> int:
    """Predicted model-build cost: 2L nu values, each walking a partial
    cycle of the gamma digit period (L or L/2)."""
    return L * _order(p, gamma_parts(p, d, r)[1])


def _bit_reversed(count: int) -> list[int]:
    """0..count-1 so that every prefix spreads evenly over the range."""
    bits = max(1, (count - 1).bit_length())
    return sorted(range(count),
                  key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def _strata(items, cost, count):
    """Non-empty log-width strata of items by predicted cost, low to high."""
    lo = math.log(min(cost(item) for item in items))
    span = math.log(max(cost(item) for item in items)) - lo or 1.0
    buckets: list[list] = [[] for _ in range(count)]
    for item in items:
        k = int((math.log(cost(item)) - lo) / span * count)
        buckets[min(k, count - 1)].append(item)
    return [b for b in buckets if b]


def query_params() -> list[tuple[int, int, int]]:
    """The fixed parameter sets of `query`: for every p and d | p-1,
    QUERY_R_PER_PD values of r spread evenly over the r <= 30 whose model
    has L <= QUERY_L_MAX.
    Fixed rather than seeded, so that the cost strata are the same for
    every seed."""
    params = []
    for p in QUERY_PRIMES:
        for d in divisors(p - 1):
            cheap = [r for r in range(1, QUERY_R_MAX + 1)
                     if period_bound(p, d, r) <= QUERY_L_MAX]
            step = max(1, len(cheap) // QUERY_R_PER_PD)
            params += [(p, d, r) for r in cheap[::step][:QUERY_R_PER_PD]]
    return params


def closed_n_max(p: int) -> int:
    """Largest n <= QUERY_N_MAX at which every closed value prints: the
    value is below p^(2n) (its quad is below 1/2), so p^(2n) <= 10^4299
    keeps it within CLI_MAX_DIGITS digits."""
    return min(QUERY_N_MAX, int((CLI_MAX_DIGITS - 1) / (2 * math.log10(p))))


def _query_ops(rng: random.Random) -> list[list]:
    params = query_params()
    both = []
    for p, d, r in params:
        n = max(1, delay(p, d, r))
        while columns(p, d, r, n) <= QUERY_COLUMNS[1]:
            cols = columns(p, d, r, n)
            if cols >= QUERY_COLUMNS[0]:
                both.append(("both", p, d, r, n, cols))
            n += 1
    both_strata = _strata(both, lambda op: _brute_work(*op[1:5]),
                          QUERY_BOTH_STRATA)
    both_order = [both_strata[i] for i in _bit_reversed(len(both_strata))]
    width = QUERY_N_MAX / QUERY_CLOSED_STRATA
    closed_order = _bit_reversed(QUERY_CLOSED_STRATA)
    ops = []
    for _ in range(QUERY_ROUNDS):
        picks = [list(rng.choice(stratum)) for stratum in both_order]
        for j, k in enumerate(closed_order):
            lo = int(k * width) + 1
            p, d, r = rng.choice([prm for prm in params
                                  if closed_n_max(prm[0]) >= lo])
            lo = max(lo, delay(p, d, r), 1)
            n = rng.randint(lo, min(int((k + 1) * width), closed_n_max(p)))
            # two brute-force requests, then one closed request
            picks.insert(3 * j + 2, ["closed", p, d, r, n, n])
        ops += picks
    return ops


def formula_population() -> list[tuple[int, int, int, int]]:
    """Every (p, d, r, L) with p prime in 17..61, d | p-1, d >= 3,
    r <= 200 and L in [64, 400]: about 4,400 cold model builds."""
    cells = []
    for p in range(FORMULA_P_RANGE[0], FORMULA_P_RANGE[1] + 1):
        if not is_prime(p):
            continue
        for d in divisors(p - 1):
            if d < FORMULA_D_MIN:
                continue
            for r in range(1, FORMULA_R_MAX + 1):
                L = period_bound(p, d, r)
                if FORMULA_L[0] <= L <= FORMULA_L[1]:
                    cells.append((p, d, r, L))
    return cells


def _formula_ops(rng: random.Random) -> list[list]:
    strata = _strata(formula_population(), lambda c: _build_work(*c),
                     FORMULA_STRATA)
    for stratum in strata:
        rng.shuffle(stratum)
    order = [strata[i] for i in _bit_reversed(len(strata))]
    ops = []
    while any(order):
        for stratum in order:
            if stratum:
                p, d, r, L = stratum.pop()
                ops.append(["formula", p, d, r, 0, L])
    return ops


def _sweep_ops(rng: random.Random) -> list[list]:
    grid = sorted((period_bound(p, d, r), p, d, r)
                  for p in SWEEP_PRIMES for d in divisors(p - 1)
                  for r in range(1, SWEEP_R_MAX + 1))
    # groups of SWEEP_GROUP cells with neighbouring L: every pass draws one
    # cell per group, so all passes have the same cost profile
    groups = [grid[i:i + SWEEP_GROUP] for i in range(0, len(grid), SWEEP_GROUP)]
    ops = []
    for k in range(SWEEP_PASSES):
        cells = sorted((p, d, r, L) for L, p, d, r in map(rng.choice, groups))
        ops += [["cell", p, d, r, k, L] for p, d, r, L in cells]
    return ops


def make_ops(workload: str, seed: int) -> list[list]:
    """The op list of a workload: a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"query": _query_ops, "formula": _formula_ops,
            "sweep": _sweep_ops}[workload](rng)


def digest(ops: list[list]) -> str:
    """sha256 of the canonical JSON op list."""
    text = json.dumps(ops, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
