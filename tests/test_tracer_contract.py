"""The benchmark tracer still reads true counts from a streamed CLI run.

perfbench/tracing.py wraps the samplers, summarize and dump_records by
name.  It reads len() and selected.sum() from what a sampler returns and
len() from the records handed to dump_records, so a run that is reduced
chunk by chunk must still answer both with its real totals.  The tracer is
executed from its source text, so nothing is written beside it.
"""
import importlib
import inspect
import json
import types
from pathlib import Path

from weakmeas import cli, scenario

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
tracing = types.ModuleType("perfbench_tracing")
exec(compile(TRACING_PATH.read_text(encoding="utf-8"), str(TRACING_PATH), "exec"),
     tracing.__dict__)

RUNS = [
    # (preset, mode, layer, samples, dump): 70,000 records span two chunks
    ("qubit-theta30", "sample-pointer", "estimator.sample_records", 70000, False),
    ("imaginary-sigma-x", "sample-ideal", "estimator.sample_ideal", 70000, True),
]


def test_traced_runs_count_truthfully(tmp_path):
    tracer = tracing.Tracer()
    docs = []
    tracer.install()
    try:
        for op, (name, mode, _, samples, dump) in enumerate(RUNS):
            raw = scenario.to_dict(scenario.preset(name))
            raw["run"].update(mode=mode, samples=samples)
            config, out = tmp_path / f"sc{op}.json", tmp_path / f"out{op}.json"
            config.write_text(json.dumps(raw))
            argv = ["run", "--config", str(config), "--out", str(out)]
            if dump:
                argv += ["--dump-records", str(tmp_path / f"rec{op}.csv")]
            tracer.op = op
            assert cli.main(argv) == 0
            docs.append(json.loads(out.read_text()))
    finally:
        tracer.uninstall()
    for op, ((_, _, layer, samples, dump), doc) in enumerate(zip(RUNS, docs)):
        counts = tracer.counts[op]
        assert doc["n_total"] == samples
        assert counts[layer + ".records"] == doc["n_total"]
        assert counts[layer + ".selected"] == doc["n_selected"]
        assert counts["estimator.dump_records.rows"] == (samples if dump else 0)
        spans = {span[0] for span in tracer.spans if span[4] == op}
        assert {layer, "estimator.summarize"} <= spans
        assert ("estimator.dump_records" in spans) == dump


def test_cdf_probe_takes_weights_alone():
    # the probe calls wrapper(weights), so _cell_cdf keeps one parameter
    mod_name, name = tracing.CDF_PROBE
    fn = getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod_name}"), name)
    assert list(inspect.signature(fn).parameters) == ["weights"]
