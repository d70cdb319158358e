"""The bench reaches into `anum` by name: the traced run wraps the functions
that `bench/tracer.py` lists in SPANS and CACHED, and `bench/worker.py`
runs and checks its ops through a few public names.  A rename in the
package would otherwise fail only the bench, so these tests pin both."""

import importlib
import importlib.util
import re
from pathlib import Path

import anum

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKER_NAMES = {"TowerParams", "floor_sum_closed", "delta_sum_closed", "mu",
                "analysis.sweep", "cli.main"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_in_their_layers():
    tracer = load_tracer()
    assert set(tracer.SPANS) <= set(tracer.LAYERS)
    spanned = {}
    for layer, names in tracer.SPANS.items():
        module = importlib.import_module(f"anum.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"anum.{layer}.{name}"
            spanned[name] = getattr(module, name)
    for name in tracer.CACHED:
        assert name in spanned, f"CACHED name {name} is not in SPANS"
        assert hasattr(spanned[name], "cache_info"), f"{name} has no cache_info"


def test_worker_names_exist():
    source = (BENCH / "worker.py").read_text()
    used = set(re.findall(r"\banum\.(\w+(?:\.\w+)*)", source)) - {"__file__", "cli"}
    assert used == WORKER_NAMES
    for name in WORKER_NAMES:
        module, _, attr = name.rpartition(".")
        home = importlib.import_module(f"anum.{module}") if module else anum
        assert callable(getattr(home, attr, None)), f"anum.{name}"
