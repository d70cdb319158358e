"""Layer spans around the public functions of `anum`, for traced runs only.

`Tracer.install` wraps each function named in SPANS and rebinds the
wrapper, in memory only, under that name in every `anum` module that
refers to the original: its defining module (for calls inside it) and the
modules that import it.  Nothing on disk changes; `uninstall` restores the
originals.

Each span records its duration and the part of it that child spans cover;
self time is the difference.  A layer's self time is the sum over its
spans, and the traced op wall time splits exactly, in integer
nanoseconds, into the layer self times plus the time no span covers
(`uncovered_ns`).  Spans are aggregated in memory as they close.

`delta` and `mu` run about once per brute-force column at about 1 us a
call, so wrapping them would distort the lattice numbers; the worker times
`mu` in a separate loop instead.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = ("exact_arith", "periodic_sum", "delta", "lattice", "closed_form",
          "analysis", "cli")

SPANS = {
    "exact_arith": ("frac_part_pn", "floor_pn_mod", "multiplicative_order",
                    "p_adic_decompose"),
    "periodic_sum": ("prefix_sum",),
    "delta": ("delta0_average",),
    "lattice": ("a_number_bruteforce", "t_n", "last_column"),
    "closed_form": ("closed_model", "evaluate", "nu_value", "delta_sum_closed",
                    "A_fn", "F_fn", "delta_sum_linear_coeff"),
    "analysis": ("sweep", "minimal_period", "check_pairing"),
    "cli": ("main",),
}

CACHED = ("closed_model", "delta_sum_linear_coeff")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats: dict[str, list[int]] = {}   # name -> [calls, total_ns, self_ns]
        self.layer_ns = dict.fromkeys(LAYERS, 0)
        self.counts = Counter()
        self.by_kind: dict[str, Counter] = {}
        self._stack: list[list[int]] = []       # child ns of each open span
        self._root_ns = 0
        self._op_layers = dict(self.layer_ns)
        self._last_column = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"anum.{layer}") for layer in LAYERS]
        for layer, names in SPANS.items():
            home = importlib.import_module(f"anum.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stats = self.stats.setdefault(key, [0, 0, 0])
        layer_ns = self.layer_ns
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        cached = name in CACHED

        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses if cached else 0
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                layer_ns[layer] += own
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer._root_ns += dur
            if cached and fn.cache_info().misses > misses:
                tracer.counts[f"{key}.misses"] += 1
                tracer.counts[f"{key}.build_ns"] += dur
                if name == "closed_model":
                    tracer.counts["closed_form.max_L"] = max(
                        tracer.counts["closed_form.max_L"], result.claimed_period)
            elif name == "last_column":
                tracer._last_column = result
            elif name == "a_number_bruteforce":
                tracer.counts["lattice.columns"] += max(
                    0, tracer._last_column - result.t_n)
                tracer.counts["lattice.brute_ns"] += dur
            return result

        return span

    # -- per-op accounting ------------------------------------------------

    def begin_op(self) -> None:
        self._root_ns = 0
        self._op_layers = dict(self.layer_ns)
        self.enabled = True

    def end_op(self, kind: str, wall_ns: int, stdout_bytes: int) -> None:
        self.enabled = False
        uncovered = wall_ns - self._root_ns
        self.counts["trace.op_wall_ns"] += wall_ns
        self.counts["trace.uncovered_ns"] += uncovered
        self.counts["cli.stdout_bytes"] += stdout_bytes
        row = self.by_kind.setdefault(kind, Counter())
        row["ops"] += 1
        row["wall_ns"] += wall_ns
        row["uncovered_ns"] += uncovered
        for layer in LAYERS:
            row[layer] += self.layer_ns[layer] - self._op_layers[layer]

    def accounting_gap_ns(self) -> int:
        """Op wall time minus (layer self times + uncovered): 0 when every
        nanosecond of every traced op is attributed exactly once."""
        return (self.counts["trace.op_wall_ns"]
                - sum(self.layer_ns.values()) - self.counts["trace.uncovered_ns"])
