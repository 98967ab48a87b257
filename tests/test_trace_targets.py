"""Every function the benchmark tracer wraps still exists in weakmeas.

perfbench/tracing.py names its targets as strings; a renamed function only
prints "not found" there and its per-layer metric silently reads 0.  The
file is executed from its source text, so nothing is written beside it.
"""
import importlib
import types
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
tracing = types.ModuleType("perfbench_tracing")
exec(compile(TRACING_PATH.read_text(encoding="utf-8"), str(TRACING_PATH), "exec"),
     tracing.__dict__)

TARGETS = [
    (mod_name, name)
    for mod_name, names in tracing.LAYERS.values()
    for name in (names if names is not None else [None])
] + [tracing.CDF_PROBE]


@pytest.mark.parametrize("mod_name, name", TARGETS, ids=lambda v: str(v))
def test_trace_target_resolves(mod_name, name):
    module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    if name is None:
        assert tracing._public_functions(module), f"{mod_name} has no public function"
    else:
        assert callable(getattr(module, name, None)), f"{mod_name}.{name} not found"
