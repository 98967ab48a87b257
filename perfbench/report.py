"""Run the weakmeas benchmark over workloads and seeds and summarise it.

    python3 perfbench/report.py [--seeds 1,2,3] [--trace]
                                [--write perfbench/BASELINE.json]

Run from the root of a checkout.  For every workload of BENCHMARK.json it
runs `perfbench/run.py` once per seed for `run_seconds`, prints every
end-to-end metric by name and unit with its median, quartiles and spread
(the distance between the quartiles as a share of the median) against the
bound in BENCHMARK.json, and the error rate over all ops.  --trace adds one
traced run per workload at the first seed.  --write stores the
measurements and a machine fingerprint in the given file, keeping the keys
it does not measure.

Exits 1 when an op failed or a spread other than setup_s's is wider than
its bound.  setup_s is bounded on its median, not its spread, as the
benchmark format bounds it: it is a median of a few fresh processes, so
its spread is the widest.  A spread above a third of its bound is marked
`wide` but does not fail.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BLAS_THREADS

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(workload, seed, seconds, trace=False):
    """One benchmark run; returns (detail line plus wall_s, result line) as dicts."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])
    detail["wall_s"] = time.perf_counter() - start
    return detail, json.loads(lines[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def fingerprint():
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            info["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
        for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
            with open(f"{index}/level") as lv, open(f"{index}/size") as sz, \
                    open(f"{index}/type") as ty:
                level, kind = lv.read().strip(), ty.read().strip()
                if kind != "Instruction":
                    info[f"L{level}"] = sz.read().strip()
        with open("/proc/meminfo", encoding="utf-8") as handle:
            info["ram_kb"] = int(handle.readline().split()[1])
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                info["blas_threads_default"] = fn()
                break
    info["blas_threads_benchmark"] = BLAS_THREADS
    return info


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", help="baseline JSON file to update")
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    measured, passed = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_bench(workload, seed, seconds) for seed in seeds]
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        passed &= failed == 0
        entry = {"seeds": seeds, "error_rate": failed / attempted,
                 "ops_per_run": [d["ops"] for d, _ in runs],
                 "op_s_tail_percentile": [d["op_s_tail_percentile"] for d, _ in runs],
                 "run_wall_s": [d["wall_s"] for d, _ in runs],
                 "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {attempted} ops, error_rate {failed / attempted}, "
              f"longest run {max(d['wall_s'] for d, _ in runs):.1f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
            row = {"unit": unit, "values": values}
            if len(values) >= 2:
                med, q1, q3, share = spread(values)
                row.update(median=med, q1=q1, q3=q3, spread=share)
                if share > bound:
                    status = "exempt, above bound" if name == "setup_s" else "FAIL"
                    passed &= name == "setup_s"
                else:
                    status = "wide" if share > bound / 3 else "ok"
                print(f"  {name:12s} {med:12.6g} {unit:4s}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {share:.4f}  bound {bound}  {status}")
                print("    runs: " + " ".join(f"{v:.4g}" for v in values))
            else:
                print(f"  {name:12s} {values[0]:12.6g} {unit}")
            entry["end_to_end"][name] = row
        if args.trace:
            detail, result = run_bench(workload, seeds[0], seconds, trace=True)
            passed &= result["failed"] == 0
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["inclusive_ms"] = detail["inclusive_ms"]
            for name, value in result["metrics"].items():
                print(f"  {name:36s} {value['value']:.6g} {value['unit']}")
        measured[workload] = entry

    if args.write:
        path = Path(args.write)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["machine"] = fingerprint()
        doc["run_seconds"] = seconds
        doc.setdefault("measured", {}).update(measured)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
