"""weakmeas benchmark: one client, closed loop, in-process CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each op is one `weakmeas.cli.main(argv)`
call on a scenario file generated from the workload seed; the next op
starts when the previous one has returned and its output has been checked.
Every op draws its own scenario seed and coupling, so no two ops share a
coupled state and no in-process cache can beat what a fresh CLI process
pays.

Workloads (one preset and one readout each, so the latency median has one
mode):
  mc-pointer   `run`, sample-pointer, qubit-theta30, position readout,
               1e6 records, --threads 1: couplings plus inverse-CDF sampling
  sweep-exact  `sweep`, exact-moments, imaginary-sigma-x, momentum readout,
               4 values per op, alternating gA_tA and sigma_F: couplings,
               densities and moments, no sampling
  ideal-dump   `run --dump-records`, sample-ideal, imaginary-sigma-x,
               1e5 records: the 1-axis sampler and the CSV record dump

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
ops with ops traced through tracing.py and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

# numpy is imported inside functions only: setup_s times the import of
# weakmeas.cli, and numpy's import is part of what a CLI process pays

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / "perfbench" / "_work"

WORKLOADS = ("mc-pointer", "sweep-exact", "ideal-dump")
BASE_FILES = {
    "mc-pointer": "qubit_theta30.json",
    "sweep-exact": "imaginary_sigma_x.json",
    "ideal-dump": "imaginary_sigma_x.json",
}
MC_RECORDS = 1_000_000
DUMP_RECORDS = 100_000
SWEEP_POINTS = 4
GA_RANGE = (0.04, 0.06)        # per-op coupling, deep inside the weak regime
SWEEP_GA_RANGE = (0.03, 0.07)
SWEEP_SIGMA_F_RANGE = (0.03, 0.08)  # selector stays 6 sigma inside its grid
# a-priori finite-coupling allowance on |estimate - weak value|: the exact
# grid moments deviate by 1.50 gA_tA^2 (theta-30, position) and 0.50 gA_tA^2
# (sigma-x, momentum) with sigma_A = 1, the second-order term of the readout
FINITE_COUPLING_COEFF = 2.0
MC_SIGMAS = 5.0
MEAN_RTOL = 1e-12
SWEEP_HEADER = "param,value,estimate,std_error,re_formula,im_formula,abs_error"
DUMP_HEADER = "index,value_A,value_F,selected"

MIN_OPS = 20          # the tail percentile needs ten ops beyond it
SETUP_REPEATS = 5     # fresh processes timed for setup_s, spread over the run
TRACE_COUNT_OPS = 8   # traced ops whose counts are reported, fixed so counts repeat
STREAM_WARMUP, STREAM_TIMED, STREAM_TRACED = 0, 1, 2
# one BLAS thread, set before numpy loads: ops run with --threads 1, and a
# second BLAS thread ties the op's time to other tenants' load on the second
# core (on a 2-core host, sweep-exact's run-to-run spread fell from 0.13 to
# 0.05 with one thread)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The checkout cannot run the benchmark."""


def load_weakmeas():
    src = ROOT / "src"
    if not (src / "weakmeas" / "cli.py").is_file():
        raise BenchError(f"no weakmeas sources under {src}")
    sys.path.insert(0, str(src))
    import weakmeas.cli

    if Path(weakmeas.cli.__file__).resolve().parent != (src / "weakmeas").resolve():
        raise BenchError(f"imported weakmeas from {weakmeas.cli.__file__}, not {src}")
    return weakmeas.cli


def load_base(workload):
    path = ROOT / "scenarios" / BASE_FILES[workload]
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise BenchError(f"cannot read scenario file {path}: {exc}") from None


# -- op generation and output checks ----------------------------------------

def _complex(entry):
    return complex(*entry) if isinstance(entry, list) else complex(entry)


def weak_value(doc):
    """<F|A|I> / <F|I> from the scenario document, independent of weakmeas."""
    import numpy as np

    a = np.array([[_complex(z) for z in row] for row in doc["A_matrix"]])
    i = np.array([_complex(z) for z in doc["I_vector"]])
    f = np.array([_complex(z) for z in doc["F_vector"]])
    return complex(np.vdot(f, a @ i) / np.vdot(f, i))


class Op:
    """One CLI call: its scenario file, argv and output check."""

    def __init__(self, workload, base, seed, stream, index, work):
        import numpy as np

        rng = np.random.default_rng([seed, stream, index])
        self.workload = workload
        self.ga = float(rng.uniform(*GA_RANGE))
        self.doc = json.loads(json.dumps(base))
        self.doc["gA_tA"] = self.ga
        run = self.doc["run"]
        run["seed"] = int(rng.integers(0, 2**32))
        self.config = work / "op.json"
        self.out = work / ("out.csv" if workload == "sweep-exact" else "out.json")
        self.dump = work / "records.csv"
        if workload == "mc-pointer":
            run.update(mode="sample-pointer", readout="position", samples=MC_RECORDS)
            self.argv = ["run", "--config", str(self.config), "--threads", "1",
                         "--out", str(self.out)]
        elif workload == "sweep-exact":
            run.update(mode="exact-moments", readout="momentum")
            if index % 2 == 0:
                self.param, lo_hi = "gA_tA", SWEEP_GA_RANGE
            else:
                self.param, lo_hi = "sigma_F", SWEEP_SIGMA_F_RANGE
            self.values = [float(v) for v in rng.uniform(*lo_hi, SWEEP_POINTS)]
            self.argv = ["sweep", "--config", str(self.config), "--param", self.param,
                         "--values", ",".join(repr(v) for v in self.values),
                         "--out", str(self.out)]
        else:
            run.update(mode="sample-ideal", readout="momentum", samples=DUMP_RECORDS)
            self.argv = ["run", "--config", str(self.config), "--out", str(self.out),
                         "--dump-records", str(self.dump)]

    def prepare(self):
        for path in (self.out, self.dump):
            if path.exists():
                path.unlink()
        with open(self.config, "w", encoding="utf-8") as handle:
            json.dump(self.doc, handle)

    def out_bytes(self):
        return sum(p.stat().st_size for p in (self.out, self.dump) if p.exists())

    def check(self):
        """None when the outputs are right, else the reason they are not."""
        if self.workload == "mc-pointer":
            return self._check_mc()
        if self.workload == "sweep-exact":
            return self._check_sweep()
        return self._check_dump()

    def _allowance(self, ga):
        return FINITE_COUPLING_COEFF * ga * ga / self.doc["pointer_A"]["sigma"] ** 2

    def _check_mc(self):
        with open(self.out, encoding="utf-8") as handle:
            out = json.load(handle)
        target = weak_value(self.doc).real
        miss = abs(out["estimate"] - target)
        limit = MC_SIGMAS * out["std_error"] + self._allowance(self.ga)
        if out["n_total"] != MC_RECORDS:
            return f"n_total {out['n_total']} != {MC_RECORDS}"
        if not miss <= limit:
            return f"|estimate - Re A_w| = {miss} exceeds {limit}"
        return None

    def _check_sweep(self):
        with open(self.out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines or lines[0] != SWEEP_HEADER:
            return f"sweep header {lines[:1]!r}"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(self.values):
            return f"{len(rows)} sweep rows for {len(self.values)} values"
        target = weak_value(self.doc).imag
        for value, row in zip(self.values, rows):
            if len(row) != 7 or row[0] != self.param or float(row[1]) != value:
                return f"sweep row {row!r} out of order for {self.param}={value!r}"
            ga = value if self.param == "gA_tA" else self.ga
            limit = self._allowance(ga)
            estimate, abs_error = float(row[2]), float(row[6])
            if not (abs_error <= limit and abs(estimate - target) <= limit):
                return f"{self.param}={value}: abs_error {abs_error} exceeds {limit}"
        return None

    def _check_dump(self):
        """Streams the dump row by row, keeping only the selected value_A.

        The check runs in the workload process, so whatever it holds at
        once counts in peak_rss_mb; streaming keeps that to the selected
        column, 8 bytes a row, beside the library's own arrays.
        """
        import numpy as np

        with open(self.out, encoding="utf-8") as handle:
            out = json.load(handle)
        rows, value_a = 0, array("d")
        with open(self.dump, encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            if header != DUMP_HEADER:
                return f"dump header {header!r}"
            for line in handle:
                fields = line.rstrip("\n").split(",")
                if len(fields) != 4:
                    return f"dump row {rows} has {len(fields)} fields"
                if fields[0] != str(rows):
                    return "dump index column is not 0..n-1"
                if fields[3] == "1":
                    value_a.append(float(fields[1]))
                elif fields[3] != "0":
                    return "dump selected column is not 0/1"
                rows += 1
        if rows != DUMP_RECORDS:
            return f"dump holds {rows} rows, expected {DUMP_RECORDS}"
        n_selected = len(value_a)
        if n_selected != out["n_selected"] or out["n_total"] != DUMP_RECORDS:
            return f"dump n_selected {n_selected} != document {out['n_selected']}"
        value_a = np.frombuffer(value_a, dtype=float)
        mean = float(np.mean(value_a))
        if abs(mean - out["mean_selected_A"]) > MEAN_RTOL * max(1.0, abs(mean)):
            return f"dump mean_selected_A {mean!r} != document {out['mean_selected_A']!r}"
        return None


def run_op(cli, op):
    """Prepare (untimed), call the CLI (timed), check (untimed)."""
    op.prepare()
    gc.collect()
    start = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except Exception:
        traceback.print_exc()
        code = None
    latency = time.perf_counter() - start
    if code != 0:
        problem = f"exit code {code}"
    else:
        try:
            problem = op.check()
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable output: {exc!r}"
    if problem:
        print(f"op failed ({op.workload}): {problem}", file=sys.stderr)
    return latency, problem is None


# -- setup ------------------------------------------------------------------

def setup(workload, seed, work):
    """Import, load the scenario file, one untimed warm-up op; returns seconds.

    A failed warm-up is reported on stderr and left to the timed ops to count.
    """
    start = time.perf_counter()
    cli = load_weakmeas()
    base = load_base(workload)
    run_op(cli, Op(workload, base, seed, STREAM_WARMUP, 0, work))
    return time.perf_counter() - start, cli, base


def setup_probe(workload, seed, k):
    """Setup time of one fresh process, as each CLI process pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only", str(k)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"setup probe exited {proc.returncode}")
    return float(proc.stdout.split()[-1])


# -- metrics ----------------------------------------------------------------

def tail(latencies):
    """Highest percentile with at least ten ops beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, work):
    samples = [setup_probe(workload, seed, 0)]
    _, cli, base = setup(workload, seed, work)
    latencies, ok = [], []
    while sum(latencies) < seconds or len(latencies) < MIN_OPS:
        # later probes sit between ops, so setup_s sees the host the ops see
        if len(samples) < SETUP_REPEATS and sum(latencies) >= len(samples) * seconds / SETUP_REPEATS:
            samples.append(setup_probe(workload, seed, len(samples)))
        latency, good = run_op(cli, Op(workload, base, seed, STREAM_TIMED, len(latencies), work))
        latencies.append(latency)
        ok.append(good)
    tail_s, tail_pct = tail(latencies)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = len(ok), ok.count(False)
    print(json.dumps({"workload": workload, "seed": seed, "ops": attempted,
                      "op_s_tail_percentile": tail_pct, "error_rate": failed / attempted,
                      "setup_samples_s": samples}))
    metrics = {
        "setup_s": metric(statistics.median(samples), "s"),
        "ops_per_s": metric(ok.count(True) / sum(latencies), "1/s"),
        "op_s_p50": metric(statistics.median(latencies), "s"),
        "op_s_tail": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return attempted, failed, metrics


def traced(workload, seed, seconds, work):
    from tracing import Tracer

    _, cli, base = setup(workload, seed, work)
    tracer = Tracer()
    plain, lat, failed, out_bytes = [], [], 0, {}
    # untraced and traced ops alternate, so host drift cancels in the overhead
    while sum(plain) + sum(lat) < seconds or len(lat) < TRACE_COUNT_OPS:
        latency, good = run_op(cli, Op(workload, base, seed, STREAM_TIMED, len(plain), work))
        plain.append(latency)
        failed += not good
        op = Op(workload, base, seed, STREAM_TRACED, len(lat), work)
        tracer.op = len(lat)
        tracer.install()
        try:
            latency, good = run_op(cli, op)
        finally:
            tracer.uninstall()
        out_bytes[tracer.op] = op.out_bytes()
        lat.append(latency)
        failed += not good
    tracer.write(work / f"spans-{workload}-{seed}.jsonl")

    n = len(lat)
    layer_ms = {}
    for (name, *_), self_s in zip(tracer.spans, tracer.self_times()):
        layer_ms[name] = layer_ms.get(name, 0.0) + 1e3 * self_s

    def ms(layer):
        return metric(layer_ms.get(layer, 0.0) / n, "ms")

    counts = {}
    for op_id in range(TRACE_COUNT_OPS):
        for key, value in tracer.counts[op_id].items():
            counts[key] = max(counts.get(key, 0), value) if key.endswith("_max") \
                else counts.get(key, 0) + value

    def per_op(key, unit):
        return metric(counts.get(key, 0) / TRACE_COUNT_OPS, unit)

    def total(key):
        return sum(c[key] for c in tracer.counts.values())

    rows_all = total("estimator.dump_records.rows")
    records = counts.get("estimator.sample_records.records", 0) \
        + counts.get("estimator.sample_ideal.records", 0)
    selected = counts.get("estimator.sample_records.selected", 0) \
        + counts.get("estimator.sample_ideal.selected", 0)
    metrics = {
        "vonneumann.evolve_exact.ms": ms("vonneumann.evolve_exact"),
        "vonneumann.evolve_exact.calls": per_op("vonneumann.evolve_exact.calls", "count"),
        "vonneumann.evolve_exact.bytes": per_op("vonneumann.evolve_exact.bytes", "bytes"),
        "vonneumann.state_bytes_max": metric(counts.get("vonneumann.state_bytes_max", 0), "bytes"),
        "vonneumann.initial_state.ms": ms("vonneumann.initial_state"),
        "vonneumann.density.ms": ms("vonneumann.density"),
        "vonneumann.moments.ms": ms("vonneumann.moments"),
        "estimator.coupled_state.self_ms": ms("estimator.coupled_state"),
        "estimator.exact_moments.self_ms": ms("estimator.exact_moments"),
        "estimator.sample_records.self_ms": ms("estimator.sample_records"),
        "estimator.sample_ideal.self_ms": ms("estimator.sample_ideal"),
        "estimator.summarize.ms": ms("estimator.summarize"),
        "estimator.dump_records.ms": ms("estimator.dump_records"),
        "estimator.dump_records.us_per_row": metric(
            1e3 * layer_ms.get("estimator.dump_records", 0.0) / rows_all if rows_all else 0.0, "us"),
        "estimator.records": metric(records / TRACE_COUNT_OPS, "count"),
        "estimator.selected_ratio": metric(selected / records if records else 0.0, "ratio"),
        "estimator.cdf_cells": per_op("estimator.cdf_cells", "count"),
        "scenario.load_scenario.self_ms": ms("scenario.load_scenario"),
        "scenario.validate.ms": ms("scenario.validate"),
        "scenario.validate.calls": per_op("scenario.validate.calls", "count"),
        "pointer.gaussian_pointer.ms": ms("pointer.gaussian_pointer"),
        "pointer.gaussian_pointer.calls": per_op("pointer.gaussian_pointer.calls", "count"),
        "weakvalues.ms": ms("weakvalues"),
        "weakvalues.calls": per_op("weakvalues.calls", "count"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.canonical_dumps.ms": ms("cli.canonical_dumps"),
        "cli.sweep_csv.self_ms": ms("cli.sweep_csv"),
        "cli.out_bytes": metric(
            sum(out_bytes[k] for k in range(TRACE_COUNT_OPS)) / TRACE_COUNT_OPS, "bytes"),
        "trace.overhead_pct": metric(
            100.0 * ((len(plain) / sum(plain)) / (n / sum(lat)) - 1.0), "%"),
        # time inside the layers under cli.main, so code left unwrapped in cli
        # (or a wrapper that stops matching) lowers it; cli.main's self time
        # is the root span's remainder and does not count as covered
        "trace.coverage": metric(
            sum(v for k, v in layer_ms.items() if k != "cli.main") / (1e3 * sum(lat)), "ratio"),
    }

    def inclusive(layer, work_key, scale):
        done = total(f"{layer}.{work_key}")
        return scale * tracer.inclusive_ms(layer) / done if done else None

    print(json.dumps({"workload": workload, "seed": seed, "ops_untraced": len(plain),
                      "ops_traced": n, "inclusive_ms": {
                          "coupled_state_per_call": inclusive("estimator.coupled_state", "calls", 1),
                          "exact_moments_per_call": inclusive("estimator.exact_moments", "calls", 1),
                          "sample_records_per_1e6": inclusive("estimator.sample_records",
                                                              "records", 1e6),
                          "dump_records_per_1e5_rows": inclusive("estimator.dump_records",
                                                                 "rows", 1e5)}}))
    return len(plain) + len(lat), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, metavar="K",
                        help="time one setup in this process and print its seconds")
    args = parser.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

    work = WORK / f"{args.workload}-{args.seed}"
    if args.setup_only is not None:
        work = work / f"setup-{args.setup_only}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        if args.setup_only is not None:
            seconds, _, _ = setup(args.workload, args.seed, work)
            print(repr(seconds))
            return 0
        run = traced if args.trace else end_to_end
        attempted, failed, metrics = run(args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
