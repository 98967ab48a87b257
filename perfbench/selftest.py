"""Self-test of the weakmeas benchmark.

    python3 perfbench/selftest.py [--seeds 1,2]

Run from the root of a checkout.  For every workload of BENCHMARK.json,
with runs of its `run_seconds`:
  1. two traced runs at the first seed report identical counts;
  2. over three untraced runs per seed, alternating the seeds so that
     host drift falls on both alike, the second seed's median of every
     end-to-end metric is within its BENCHMARK.json bound of the first's;
  3. no op of any of these runs failed its output check.
Exits 0 when all hold.  The file name keeps it out of pytest collection:
it takes minutes, and it measures the benchmark, not the library.
"""
from __future__ import annotations

import argparse
import statistics
import sys

from report import load_spec, run_bench

COUNTS = (
    "vonneumann.evolve_exact.calls",
    "vonneumann.evolve_exact.bytes",
    "vonneumann.state_bytes_max",
    "estimator.records",
    "estimator.selected_ratio",
    "estimator.cdf_cells",
    "scenario.validate.calls",
    "pointer.gaussian_pointer.calls",
    "weakvalues.calls",
    "cli.out_bytes",
)
REPEATS = 3


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    first, second = (int(s) for s in args.seeds.split(","))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        traced = [run_bench(workload, first, seconds, trace=True)[1] for _ in range(2)]
        plain = [run_bench(workload, seed, seconds)[1]
                 for _ in range(REPEATS) for seed in (first, second)]
        for result in traced + plain:
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {result['failed']} ops failed their check")
        for name in COUNTS:
            a, b = (r["metrics"][name]["value"] for r in traced)
            status = "same" if a == b else "DIFFERENT"
            print(f"{workload} {name}: {a!r} / {b!r} {status}")
            if a != b:
                problems.append(f"{workload} {name}: {a!r} != {b!r} at seed {first}")
        for name, bound in bounds.items():
            a, b = (statistics.median(r["metrics"][name]["value"] for r in plain[k::2])
                    for k in (0, 1))
            share = abs(b - a) / a
            print(f"{workload} {name}: seed {first} {a:.6g}, seed {second} {b:.6g}, "
                  f"off by {share:.4f} (bound {bound})")
            if share > bound:
                problems.append(f"{workload} {name}: seed {second} off by {share:.4f} > {bound}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
