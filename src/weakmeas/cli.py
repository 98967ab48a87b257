"""Command-line front end: scenario files in, canonical JSON or CSV out.

Commands:
  weakmeas run   --config FILE | --preset NAME   one scenario, one document
  weakmeas sweep  ... --param NAME --values ...  one CSV row per value
  weakmeas presets                               list built-in scenarios

Exit codes: 0 success, 2 validation or usage error, 3 runtime error.
Data goes to stdout or --out; --out and --dump-records are written to
temp files that are renamed into place together once both are complete,
so neither is ever partial or left without its partner.  The two must
name different files, also through a link or another spelling of the
path, or the run exits 2.  A path that cannot be written ends in exit 3.
Diagnostics go to stderr.
JSON output is canonical: sorted keys, floats at 17 significant digits,
so identical runs produce identical bytes.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, replace

import numpy as np

from . import entanglement, estimator, weakvalues
from . import scenario as scenario_mod
from .errors import OutputError, ScenarioError, WeakmeasError
from .scenario import Scenario

SEED_ENV_VAR = "WEAKMEAS_SEED"
# upper bound of --threads: a pool starts up to this many threads, and a
# sampling run holds up to twice as many finished chunks
MAX_THREADS = 64
SWEEP_PARAMS = ("gA_tA", "theta", "sigma_F")
SWEEP_HEADER = "param,value,estimate,std_error,re_formula,im_formula,abs_error"


def _format_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(float(value), ".17g")


def _inline(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        parts = [f"{json.dumps(str(k))}: {_inline(v)}" for k, v in sorted(value.items())]
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _canonical(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = []
        for key in sorted(value):
            rows.append(f'{pad}  {json.dumps(str(key))}: {_canonical(value[key], indent + 2)}')
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return _inline(value)
        rows = [f"{pad}  {_canonical(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _inline(value)


def canonical_dumps(doc: dict) -> str:
    """Deterministic JSON: sorted keys, 17-digit floats, stable layout."""
    return _canonical(doc, 0) + "\n"


@contextlib.contextmanager
def _atomic_files(paths):
    """Text handles on temp files beside each path, renamed onto them together.

    Every handle is closed before the first rename, so on any exception
    each path keeps its old bytes and the temp files are removed.  Renamed
    files get the mode a plain open() gives a new file, 0o666 less the
    umask.  An OSError becomes an OutputError that names the path.
    """
    staged = []
    try:
        for target in paths:
            directory = os.path.dirname(os.path.abspath(target))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".weakmeas-tmp-")
            staged.append((tmp, os.fdopen(fd, "w", encoding="utf-8", newline="")))
        target = ", ".join(paths)
        yield [handle for _, handle in staged]
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        for tmp, handle in staged:
            handle.close()
            os.chmod(tmp, 0o666 & ~umask)
        for (tmp, _), target in zip(staged, paths):
            os.replace(tmp, target)
    except BaseException as exc:
        for tmp, handle in staged:
            handle.close()
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {target}: {exc.strerror or exc}") from exc
        raise


def _emit(out_path, render, dump_path=None) -> None:
    """Write render(dump handle or None) to out_path, or stdout, as one commit.

    Both files are opened before render runs, so a dump streams into its
    temp file while the records are drawn.
    """
    paths = [p for p in (out_path, dump_path) if p]
    with _atomic_files(paths) as handles:
        text = render(handles[-1] if dump_path else None)
        if out_path:
            handles[0].write(text)
    if not out_path:
        sys.stdout.write(text)


def _report_doc(sc: Scenario) -> dict:
    rep = weakvalues.commutation_report(sc.a_matrix, sc.i_vector, sc.f_vector)
    return {
        "weak_value": scenario_mod.encode_complex(rep.weak_value),
        "re_formula": rep.re_formula,
        "im_formula": rep.im_formula,
        "overlap": scenario_mod.encode_complex(rep.overlap),
        "postselect_prob": rep.postselect_prob,
        "commutator_norms": dict(rep.commutator_norms),
    }


def _separability_doc(rep: entanglement.SeparabilityReport) -> dict:
    doc = {"bipartition": rep.bipartition, "tolerance": rep.tolerance}
    if rep.singular_values is not None:
        doc["singular_values"] = list(rep.singular_values)
        doc["is_product"] = rep.is_product
    if rep.correlation_gap is not None:
        doc["correlation_gap"] = rep.correlation_gap
    return doc


def _diagnostics_doc(sc: Scenario) -> dict:
    doc = _report_doc(sc)
    # the Schmidt cut targets the state right after the A coupling, which
    # is where the non-separability claim lives
    after_a = estimator.after_a_coupling(sc)
    doc["product_check"] = {
        name: _separability_doc(entanglement.product_check(after_a, name))
        for name in ("system", "axis0")
    }
    doc["correlation_witness"] = _separability_doc(
        entanglement.correlation_witness(estimator.coupled_state(sc))
    )
    return doc


def run_scenario(sc: Scenario, threads: int = 1, dump=None) -> dict:
    """Dispatch one scenario; returns its document.

    A sampling run is reduced chunk by chunk and never held whole; dump,
    a text handle, receives its records as CSV while they are drawn.
    """
    mode = sc.run.mode
    if mode == "closed-form":
        return _report_doc(sc)
    if mode == "exact-moments":
        return estimator.exact_moments(sc)
    if mode == "diagnostics":
        return _diagnostics_doc(sc)
    if mode == "sample-pointer":
        sampler = estimator.sample_records
    elif mode == "sample-ideal":
        sampler = estimator.sample_ideal
    else:
        raise ScenarioError(f"run.mode: unknown mode {mode!r}")
    totals = estimator.RunTotals(sc.run.samples, dump=dump)
    sampler(sc, sc.run.samples, threads=threads, sink=totals)
    return asdict(estimator.summarize(totals, sc))


def _doc_to_csv(doc: dict) -> str:
    lines = ["key,value"]
    for key in sorted(doc):
        cell = _inline(doc[key])
        if "," in cell or '"' in cell:
            cell = '"' + cell.replace('"', '""') + '"'
        lines.append(f"{key},{cell}")
    return "\n".join(lines) + "\n"


def _apply_sweep_param(sc: Scenario, param: str, value: float) -> Scenario:
    if param == "gA_tA":
        probe = replace(sc, ga_ta=value)
    elif param == "sigma_F":
        probe = replace(sc, pointer_f=replace(sc.pointer_f, sigma=value))
    elif param == "theta":
        if sc.system_dim != 2:
            raise ScenarioError("theta sweeps require a single-qubit scenario")
        t = math.radians(value)
        probe = replace(
            sc,
            i_vector=np.array([math.cos(t), math.sin(t)], dtype=complex),
            f_vector=np.array([math.cos(t), -math.sin(t)], dtype=complex),
        )
    else:
        raise ScenarioError(f"unknown sweep parameter {param!r}")
    return scenario_mod.validate(probe)


def _sweep_probes(sc: Scenario, param: str, values) -> list:
    """The validated scenario of each sweep point, in the order given."""
    return [_apply_sweep_param(sc, param, value) for value in values]


def sweep_csv(sc: Scenario, param: str, values, threads: int = 1, probes=None) -> str:
    """One row per value, in the order given.

    probes, when given, are the points already built by _sweep_probes for
    these values; otherwise each point is built and validated here.
    """
    if probes is None:
        probes = _sweep_probes(sc, param, values)
    lines = [SWEEP_HEADER]
    for value, probe in zip(values, probes):
        re = weakvalues.re_weak_formula(probe.a_matrix, probe.i_vector, probe.f_vector)
        im = weakvalues.im_weak_formula(probe.a_matrix, probe.i_vector, probe.f_vector)
        target = im if probe.run.readout == "momentum" else re
        if probe.run.mode in ("closed-form", "diagnostics"):
            estimate, std_error = target, 0.0
        else:
            doc = run_scenario(probe, threads=threads)
            estimate, std_error = doc["estimate"], doc["std_error"]
        cells = (value, estimate, std_error, re, im, abs(estimate - target))
        lines.append(param + "," + ",".join(_format_float(c) for c in cells))
    return "\n".join(lines) + "\n"


def _resolve_seed(args, sc: Scenario) -> Scenario:
    # precedence: --seed flag, then the environment, then the file
    if getattr(args, "seed", None) is not None:
        return scenario_mod.with_seed(sc, args.seed, "--seed")
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ScenarioError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
        return scenario_mod.with_seed(sc, seed, SEED_ENV_VAR)
    return sc


def _load(args) -> Scenario:
    if getattr(args, "preset", None):
        sc = scenario_mod.preset(args.preset)
    else:
        sc = scenario_mod.load_scenario(args.config)
    return _resolve_seed(args, sc)


def _thread_count(text: str) -> int:
    """argparse type for --threads: an integer in [1, MAX_THREADS], else a usage error (exit 2)."""
    with contextlib.suppress(ValueError):
        if 1 <= int(text) <= MAX_THREADS:
            return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer from 1 to {MAX_THREADS}, got {text!r}")


def _add_source_options(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="scenario JSON file")
    group.add_argument("--preset", help="built-in scenario name (see `weakmeas presets`)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument(
        "--threads", type=_thread_count, default=1,
        help=f"worker threads (1 to {MAX_THREADS}); never changes output bytes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmeas", description="weak-measurement simulation and estimation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario")
    _add_source_options(run_p)
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--out", help="output file (default stdout)")
    run_p.add_argument("--dump-records", help="also write sampled records as CSV")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="rerun a scenario over parameter values")
    _add_source_options(sweep_p)
    sweep_p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep_p.add_argument("--values", required=True, help="comma-separated numbers")
    sweep_p.add_argument("--out", required=True, help="output CSV file")
    sweep_p.set_defaults(func=_cmd_sweep)

    presets_p = sub.add_parser("presets", help="list built-in scenarios")
    presets_p.set_defaults(func=_cmd_presets)
    return parser


def _same_path(a: str, b: str) -> bool:
    """Whether two paths name one file: the same resolved path, or one existing inode."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    with contextlib.suppress(OSError):
        return os.path.samefile(a, b)
    return False


def _cmd_run(args) -> int:
    try:
        sc = _load(args)
        if args.dump_records and not sc.run.mode.startswith("sample-"):
            raise ScenarioError(
                f"--dump-records needs a sampling mode, not {sc.run.mode!r}"
            )
        if args.dump_records and args.out and _same_path(args.out, args.dump_records):
            raise ScenarioError(
                f"--dump-records {args.dump_records!r} names the same file as --out"
            )
    except WeakmeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def render(dump):
        doc = run_scenario(sc, threads=args.threads, dump=dump)
        return canonical_dumps(doc) if args.format == "json" else _doc_to_csv(doc)

    try:
        _emit(args.out, render, args.dump_records)
    except WeakmeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(args) -> int:
    try:
        sc = _load(args)
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            raise ScenarioError(f"--values must be comma-separated numbers, got {args.values!r}")
        if not values:
            raise ScenarioError("--values is empty")
        # validate every point up front so a bad value cannot leave a partial file
        probes = _sweep_probes(sc, args.param, values)
    except WeakmeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args.out, lambda _: sweep_csv(sc, args.param, values, threads=args.threads,
                                            probes=probes))
    except WeakmeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_presets(args) -> int:
    for name in scenario_mod.preset_names():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
