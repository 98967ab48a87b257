"""Outside-in layer tracing for the weakmeas benchmark.

The traced run replaces module attributes of the `weakmeas` package with
timing wrappers around public functions.  A function is replaced in every
`weakmeas` module that binds it, so a caller that looks it up through its
own module (`cli` reaching `estimator.sample_records`) and one that
imported the name (`scenario` holding `gaussian_pointer`) both see the
wrapper.  `qmath` is left alone: its functions are called too often, and
are too short, for their time to show above the wrapper's own cost.

Spans live in memory as [name, start, end, parent index, op id] and are
written out once, when the run ends.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "weakmeas"
# layer name -> (module, function names); weakvalues takes every public function
LAYERS = {
    "vonneumann.evolve_exact": ("vonneumann", ["evolve_exact"]),
    "vonneumann.initial_state": ("vonneumann", ["initial_state"]),
    "vonneumann.density": ("vonneumann", ["device_density", "device_momentum_density"]),
    "vonneumann.moments": ("vonneumann", ["mean_pointer", "position_correlation"]),
    "estimator.coupled_state": ("estimator", ["coupled_state"]),
    "estimator.exact_moments": ("estimator", ["exact_moments"]),
    "estimator.sample_records": ("estimator", ["sample_records"]),
    "estimator.sample_ideal": ("estimator", ["sample_ideal"]),
    "estimator.summarize": ("estimator", ["summarize"]),
    "estimator.dump_records": ("estimator", ["dump_records"]),
    "scenario.load_scenario": ("scenario", ["load_scenario"]),
    "scenario.validate": ("scenario", ["validate"]),
    "pointer.gaussian_pointer": ("pointer", ["gaussian_pointer"]),
    "weakvalues": ("weakvalues", None),
    "cli.main": ("cli", ["main"]),
    "cli.canonical_dumps": ("cli", ["canonical_dumps"]),
    "cli.sweep_csv": ("cli", ["sweep_csv"]),
}

# counted, never timed: the cell CDF is part of the sampler's self time
CDF_PROBE = ("estimator", "_cell_cdf")


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Collects spans and per-op counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = defaultdict(Counter)  # op id -> counter name -> value
        self._undo = []

    # -- recording -------------------------------------------------------

    def count(self, key, amount=1):
        self.counts[self.op][key] += amount

    def _observe(self, layer, args, result):
        if layer == "vonneumann.evolve_exact":
            self.count("vonneumann.evolve_exact.bytes",
                       args[0].amplitudes.nbytes + result.amplitudes.nbytes)
        if layer in ("vonneumann.evolve_exact", "vonneumann.initial_state"):
            self.counts[self.op]["vonneumann.state_bytes_max"] = max(
                self.counts[self.op]["vonneumann.state_bytes_max"], result.amplitudes.nbytes
            )
        elif layer in ("estimator.sample_records", "estimator.sample_ideal"):
            self.count(layer + ".records", len(result))
            self.count(layer + ".selected", int(result.selected.sum()))
        elif layer == "estimator.dump_records":
            self.count(layer + ".rows", len(args[0]))

    def _timed(self, layer, fn):
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.count(layer + ".calls")
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._observe(layer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cdf_counter(self, fn):
        def wrapper(weights):
            self.count("estimator.cdf_cells", weights.size)
            return fn(weights)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, fn, wrapper):
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def install(self):
        """Wrap every traced function; names a release no longer has are reported."""
        for layer, (mod_name, names) in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            for name in names if names is not None else _public_functions(module):
                fn = getattr(module, name, None)
                if fn is None:
                    print(f"trace: {mod_name}.{name} not found; {layer} reads 0",
                          file=sys.stderr)
                    continue
                self._replace_everywhere(fn, self._timed(layer, fn))
        mod_name, name = CDF_PROBE
        fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], name, None)
        if fn is None:
            print(f"trace: {mod_name}.{name} not found; estimator.cdf_cells reads 0",
                  file=sys.stderr)
        else:
            self._replace_everywhere(fn, self._cdf_counter(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    # -- reduction -------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def inclusive_ms(self, layer):
        return 1e3 * sum(end - start for name, start, end, _, _ in self.spans if name == layer)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
