"""The traced bench run wraps functions of `anum` by name (`bench/tracer.py`
lists them in SPANS and CACHED).  A rename in the package would otherwise
fail only the traced run, so this test reads those lists here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
