"""Scenario definition, validation, JSON codec, and built-in presets.

A scenario bundles everything one run needs: the observable, the pre- and
post-selection states, both coupling strengths, both device grids, and the
run settings (mode, readout, sample count, seed, selection threshold).
Validation happens at load time and names the offending field, so the
libraries downstream can assume a well-formed instance.

Complex numbers are encoded in JSON as two-element arrays [re, im].
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from . import qmath
from .errors import (
    GridExtentError,
    NormalizationError,
    NotHermitianError,
    ScenarioError,
)
from .pointer import MIN_EXTENT_SIGMAS, SHIFT_GUARD_SIGMAS, PointerGrid, gaussian_pointer

MODES = ("closed-form", "exact-moments", "sample-pointer", "sample-ideal", "diagnostics")
READOUTS = ("position", "momentum")

# scenario-level hermiticity gate, tighter than the library default
A_HERMITICITY_ACCURACY = 1e-12
STATE_NORM_ACCURACY = 1e-10


@dataclass(frozen=True)
class PointerSettings:
    sigma: float
    n_points: int
    extent: float


@dataclass(frozen=True)
class RunSettings:
    mode: str = "closed-form"
    readout: str = "position"
    samples: int = 100000
    seed: int = 0
    threshold: float = 0.5


@dataclass(frozen=True)
class Scenario:
    """Validated description of one weak-measurement experiment."""

    system_dim: int
    a_matrix: np.ndarray
    i_vector: np.ndarray
    f_vector: np.ndarray
    ga_ta: float
    gf_tf: float
    hbar: float
    pointer_a: PointerSettings
    pointer_f: PointerSettings
    run: RunSettings = field(default_factory=RunSettings)

    def grid_a(self) -> PointerGrid:
        return gaussian_pointer(
            self.pointer_a.sigma, self.pointer_a.n_points, self.pointer_a.extent, self.hbar
        )

    def grid_f(self) -> PointerGrid:
        return gaussian_pointer(
            self.pointer_f.sigma, self.pointer_f.n_points, self.pointer_f.extent, self.hbar
        )


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which subclasses int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_complex(value, where: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = value
        if _is_real(re) and _is_real(im):
            return complex(re, im)
    raise ScenarioError(f"{where}: expected a real number or [re, im] pair, got {value!r}")


def _parse_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(f"{where}: expected a nonempty list")
    return np.array([_parse_complex(v, f"{where}[{k}]") for k, v in enumerate(value)])


def _parse_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(f"{where}: expected a nonempty list of rows")
    rows = [_parse_vector(row, f"{where}[{k}]") for k, row in enumerate(value)]
    if len({r.size for r in rows}) != 1:
        raise ScenarioError(f"{where}: rows have unequal lengths")
    return np.vstack(rows)


def _require(raw: dict, key: str):
    if key not in raw:
        raise ScenarioError(f"missing required field {key!r}")
    return raw[key]


def _positive_real(value, where: str) -> float:
    if not _is_real(value) or not math.isfinite(value) or value <= 0:
        raise ScenarioError(f"{where}: expected a positive finite number, got {value!r}")
    return float(value)


def _parse_pointer(raw, where: str) -> PointerSettings:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object with sigma, n_points, extent")
    sigma = _positive_real(_require_sub(raw, "sigma", where), f"{where}.sigma")
    n_points = _require_sub(raw, "n_points", where)
    if not _is_int(n_points) or n_points < 2 or n_points & (n_points - 1):
        raise ScenarioError(f"{where}.n_points: expected a power of two >= 2, got {n_points!r}")
    extent = _positive_real(_require_sub(raw, "extent", where), f"{where}.extent")
    return PointerSettings(sigma=sigma, n_points=n_points, extent=extent)


def _require_sub(raw: dict, key: str, where: str):
    if key not in raw:
        raise ScenarioError(f"missing required field {where}.{key}")
    return raw[key]


def _parse_run(raw, gf_tf: float) -> RunSettings:
    raw = dict(raw or {})
    mode = raw.pop("mode", "closed-form")
    if mode not in MODES:
        raise ScenarioError(f"run.mode: expected one of {MODES}, got {mode!r}")
    readout = raw.pop("readout", "position")
    if readout not in READOUTS:
        raise ScenarioError(f"run.readout: expected one of {READOUTS}, got {readout!r}")
    samples = raw.pop("samples", 100000)
    if not _is_int(samples) or samples < 0:
        raise ScenarioError(f"run.samples: expected a nonnegative integer, got {samples!r}")
    seed = raw.pop("seed", 0)
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ScenarioError(f"run.seed: expected a 64-bit unsigned integer, got {seed!r}")
    threshold = raw.pop("threshold", 0.5 * gf_tf)
    if not _is_real(threshold) or not math.isfinite(threshold):
        raise ScenarioError(f"run.threshold: expected a finite number, got {threshold!r}")
    if raw:
        raise ScenarioError(f"run: unknown fields {sorted(raw)}")
    return RunSettings(
        mode=mode, readout=readout, samples=samples, seed=seed, threshold=float(threshold)
    )


def validate(sc: Scenario) -> Scenario:
    """Field-by-field checks; raises a field-naming error on the first defect."""
    a = qmath.operator(sc.a_matrix)
    for name, entries in (("A_matrix", a), ("I_vector", sc.i_vector), ("F_vector", sc.f_vector)):
        # NaN slips through every tolerance comparison below, so reject it first
        if not np.all(np.isfinite(np.asarray(entries, dtype=complex))):
            raise ScenarioError(f"{name}: entries must be finite")
    for name, strength in (("gA_tA", sc.ga_ta), ("gF_tF", sc.gf_tf)):
        # both readout prefactors divide by the coupling strengths
        if not math.isfinite(strength) or strength == 0:
            raise ScenarioError(f"{name}: expected a nonzero finite coupling, got {strength!r}")
    if a.shape[0] != sc.system_dim:
        raise ScenarioError(
            f"A_matrix: dimension {a.shape[0]} disagrees with system_dim {sc.system_dim}"
        )
    defect = qmath.hermiticity_defect(a)
    if defect > A_HERMITICITY_ACCURACY:
        raise NotHermitianError(
            f"A_matrix: hermiticity defect {defect:.3e} exceeds {A_HERMITICITY_ACCURACY:.0e}"
        )
    for name, vec in (("I_vector", sc.i_vector), ("F_vector", sc.f_vector)):
        v = qmath.ket(vec)
        if v.size != sc.system_dim:
            raise ScenarioError(f"{name}: length {v.size} disagrees with system_dim")
        miss = abs(np.linalg.norm(v) - 1.0)
        if miss > STATE_NORM_ACCURACY:
            raise NormalizationError(f"{name}: norm deviates from 1 by {miss:.3e}")
    for coupling, strength, pname, ps in (
        ("A", sc.ga_ta, "pointer_A", sc.pointer_a),
        ("F", sc.gf_tf, "pointer_F", sc.pointer_f),
    ):
        # sweeps replace sigma after parsing, so a NaN can reach this point
        _positive_real(ps.sigma, f"{pname}.sigma")
        if ps.extent < MIN_EXTENT_SIGMAS * ps.sigma:
            raise GridExtentError(
                f"{pname}.extent: {ps.extent} is below {MIN_EXTENT_SIGMAS} sigma"
            )
        # reach of the coupling: largest |eigenvalue| on that axis
        if coupling == "A":
            reach = abs(strength) * float(np.max(np.abs(np.linalg.eigvalsh(a))))
        else:
            reach = abs(strength)  # projector eigenvalues are 0 and 1
        if reach + SHIFT_GUARD_SIGMAS * ps.sigma > ps.extent / 2:
            raise GridExtentError(
                f"{pname}.extent: displacement reach {reach} plus "
                f"{SHIFT_GUARD_SIGMAS} sigma exceeds half extent {ps.extent / 2}"
            )
    return sc


def from_dict(raw: dict) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    system_dim = _require(raw, "system_dim")
    if not _is_int(system_dim) or system_dim < 2:
        raise ScenarioError(f"system_dim: expected an integer >= 2, got {system_dim!r}")
    gf_tf = _require(raw, "gF_tF")
    if not _is_real(gf_tf) or not math.isfinite(gf_tf):
        raise ScenarioError(f"gF_tF: expected a finite number, got {gf_tf!r}")
    ga_ta = _require(raw, "gA_tA")
    if not _is_real(ga_ta) or not math.isfinite(ga_ta):
        raise ScenarioError(f"gA_tA: expected a finite number, got {ga_ta!r}")
    sc = Scenario(
        system_dim=system_dim,
        a_matrix=_parse_matrix(_require(raw, "A_matrix"), "A_matrix"),
        i_vector=_parse_vector(_require(raw, "I_vector"), "I_vector"),
        f_vector=_parse_vector(_require(raw, "F_vector"), "F_vector"),
        ga_ta=float(ga_ta),
        gf_tf=float(gf_tf),
        hbar=_positive_real(_require(raw, "hbar"), "hbar"),
        pointer_a=_parse_pointer(_require(raw, "pointer_A"), "pointer_A"),
        pointer_f=_parse_pointer(_require(raw, "pointer_F"), "pointer_F"),
        run=_parse_run(raw.get("run"), float(gf_tf)),
    )
    return validate(sc)


def _encode_complex(z: complex):
    return [float(z.real), float(z.imag)]


def to_dict(sc: Scenario) -> dict:
    """Inverse of from_dict, suitable for JSON dumping."""
    return {
        "system_dim": sc.system_dim,
        "A_matrix": [[_encode_complex(z) for z in row] for row in np.asarray(sc.a_matrix)],
        "I_vector": [_encode_complex(z) for z in np.asarray(sc.i_vector)],
        "F_vector": [_encode_complex(z) for z in np.asarray(sc.f_vector)],
        "gA_tA": sc.ga_ta,
        "gF_tF": sc.gf_tf,
        "hbar": sc.hbar,
        "pointer_A": {
            "sigma": sc.pointer_a.sigma,
            "n_points": sc.pointer_a.n_points,
            "extent": sc.pointer_a.extent,
        },
        "pointer_F": {
            "sigma": sc.pointer_f.sigma,
            "n_points": sc.pointer_f.n_points,
            "extent": sc.pointer_f.extent,
        },
        "run": {
            "mode": sc.run.mode,
            "readout": sc.run.readout,
            "samples": sc.run.samples,
            "seed": sc.run.seed,
            "threshold": sc.run.threshold,
        },
    }


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return from_dict(raw)


def with_seed(sc: Scenario, seed: int) -> Scenario:
    return replace(sc, run=replace(sc.run, seed=seed))


_SQ3 = math.sqrt(3.0)

_PRESETS = {}


def _register(name):
    def wrap(fn):
        _PRESETS[name] = fn
        return fn

    return wrap


@_register("qubit-theta30")
def _qubit_theta30() -> Scenario:
    # A = sigma_z read against a 30-degree tilted pre/post pair; the
    # closed-form weak value is exactly 2, outside the spectrum
    return Scenario(
        system_dim=2,
        a_matrix=qmath.sigma_z.copy(),
        i_vector=np.array([_SQ3 / 2, 0.5], dtype=complex),
        f_vector=np.array([_SQ3 / 2, -0.5], dtype=complex),
        ga_ta=0.05,
        gf_tf=1.0,
        hbar=1.0,
        pointer_a=PointerSettings(sigma=1.0, n_points=512, extent=40.0),
        pointer_f=PointerSettings(sigma=0.05, n_points=1024, extent=4.0),
        run=RunSettings(
            mode="sample-pointer", readout="position", samples=1000000, seed=7, threshold=0.5
        ),
    )


@_register("imaginary-sigma-x")
def _imaginary_sigma_x() -> Scenario:
    # A = sigma_x between |0> and (|0>+i|1>)/sqrt(2): weak value -i, so the
    # position readout sees nothing and the momentum readout sees -1
    return Scenario(
        system_dim=2,
        a_matrix=qmath.sigma_x.copy(),
        i_vector=np.array([1.0, 0.0], dtype=complex),
        f_vector=np.array([1.0, 1.0j]) / math.sqrt(2.0),
        ga_ta=0.05,
        gf_tf=1.0,
        hbar=1.0,
        pointer_a=PointerSettings(sigma=1.0, n_points=512, extent=40.0),
        pointer_f=PointerSettings(sigma=0.05, n_points=1024, extent=4.0),
        run=RunSettings(
            mode="sample-pointer", readout="momentum", samples=1000000, seed=11, threshold=0.5
        ),
    )


def preset_names() -> Tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> Scenario:
    try:
        build = _PRESETS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return validate(build())
