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
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Tuple

import numpy as np

from . import qmath
from .errors import GridExtentError, ScenarioError
from .pointer import MIN_EXTENT_SIGMAS, PointerGrid, check_shift_reach, gaussian_pointer
from .qmath import STATE_NORM_ACCURACY

MODES = ("closed-form", "exact-moments", "sample-pointer", "sample-ideal", "diagnostics")
READOUTS = ("position", "momentum")

# scenario-level hermiticity gate, tighter than the library default
A_HERMITICITY_ACCURACY = 1e-12

TOP_LEVEL_KEYS = ("system_dim", "A_matrix", "I_vector", "F_vector", "gA_tA", "gF_tF",
                  "hbar", "pointer_A", "pointer_F", "run")
POINTER_KEYS = ("sigma", "n_points", "extent")
# checked before any grid is built: the largest grid per device (16 MB of complex amplitudes
# per system component) and the n_A x n_F density of sample-pointer and exact-moments (128 MB)
MAX_POINTS = 2**20
MAX_JOINT_CELLS = 2**24
# records of one sampling run: estimator.RunTotals allocates a 1-byte selected flag per
# record before the first draw, so the cap holds that column to 1 GiB
MAX_SAMPLES = 2**30


@dataclass(frozen=True)
class PointerSettings:
    sigma: float
    n_points: int
    extent: float

    def grid(self, hbar: float) -> PointerGrid:
        return gaussian_pointer(self.sigma, self.n_points, self.extent, hbar)


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
        return self.pointer_a.grid(self.hbar)

    def grid_f(self) -> PointerGrid:
        return self.pointer_f.grid(self.hbar)


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which subclasses int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # JSON integers are unbounded; one beyond the float range is no real number here
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


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


def _require(raw: dict, key: str, where: str = ""):
    # a top-level field is named quoted, a nested one as where.key
    if key not in raw:
        name = f"{where}.{key}" if where else repr(key)
        raise ScenarioError(f"missing required field {name}")
    return raw[key]


def _reject_unknown(raw: dict, known, where: str = "") -> None:
    # a misspelt block would otherwise load silently with every default
    for key in raw:
        if key not in known:
            name = f"{where}.{key}" if where else repr(key)
            raise ScenarioError(f"unknown field {name}; expected one of {', '.join(known)}")


def _finite_real(value, where: str) -> float:
    if not _is_real(value) or not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _positive_real(value, where: str) -> float:
    if not _is_real(value) or not math.isfinite(value) or value <= 0:
        raise ScenarioError(f"{where}: expected a positive finite number, got {value!r}")
    return float(value)


def _parse_pointer(raw, where: str) -> PointerSettings:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object with sigma, n_points, extent")
    _reject_unknown(raw, POINTER_KEYS, where)
    sigma = _positive_real(_require(raw, "sigma", where), f"{where}.sigma")
    n_points = _require(raw, "n_points", where)
    if not _is_int(n_points) or n_points < 2 or n_points & (n_points - 1):
        raise ScenarioError(f"{where}.n_points: expected a power of two >= 2, got {n_points!r}")
    if n_points > MAX_POINTS:
        raise ScenarioError(f"{where}.n_points: at most {MAX_POINTS}, got {n_points!r}")
    extent = _positive_real(_require(raw, "extent", where), f"{where}.extent")
    return PointerSettings(sigma=sigma, n_points=n_points, extent=extent)


def _check_seed(seed, where: str) -> int:
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ScenarioError(f"{where}: expected a 64-bit unsigned integer, got {seed!r}")
    return seed


def _parse_run(raw, gf_tf: float) -> RunSettings:
    if not isinstance(raw, (dict, type(None))):
        raise ScenarioError(f"run: expected an object, got {raw!r}")
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
    if samples == 0 and mode.startswith("sample-"):
        raise ScenarioError(f"run.samples: mode {mode!r} needs at least one sample, got 0")
    if samples > MAX_SAMPLES and mode.startswith("sample-"):
        raise ScenarioError(f"run.samples: mode {mode!r} draws at most {MAX_SAMPLES}, "
                            f"got {samples!r}")
    seed = _check_seed(raw.pop("seed", 0), "run.seed")
    threshold = _finite_real(raw.pop("threshold", 0.5 * gf_tf), "run.threshold")
    if raw:
        raise ScenarioError(f"run: unknown fields {sorted(raw)}")
    return RunSettings(
        mode=mode, readout=readout, samples=samples, seed=seed, threshold=threshold
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
    qmath.require_hermitian(a, A_HERMITICITY_ACCURACY, "A_matrix")
    for name, vec in (("I_vector", sc.i_vector), ("F_vector", sc.f_vector)):
        v = qmath.ket(vec)
        if v.size != sc.system_dim:
            raise ScenarioError(f"{name}: length {v.size} disagrees with system_dim")
        qmath.require_normalized(v, STATE_NORM_ACCURACY, name)
    # reach of each coupling: |strength| times the largest |eigenvalue| of its
    # observable; the projector's eigenvalues are 0 and 1
    a_reach = abs(sc.ga_ta) * float(np.max(np.abs(np.linalg.eigvalsh(a))))
    for pname, ps, reach in (
        ("pointer_A", sc.pointer_a, a_reach),
        ("pointer_F", sc.pointer_f, abs(sc.gf_tf)),
    ):
        # sweeps replace sigma after parsing, so a NaN can reach this point
        _positive_real(ps.sigma, f"{pname}.sigma")
        if ps.extent < MIN_EXTENT_SIGMAS * ps.sigma:
            raise GridExtentError(
                f"{pname}.extent: {ps.extent} is below {MIN_EXTENT_SIGMAS} sigma"
            )
        check_shift_reach(reach, ps.sigma, ps.extent, f"{pname}.extent")
    cells = sc.pointer_a.n_points * sc.pointer_f.n_points
    if sc.run.mode in ("sample-pointer", "exact-moments") and cells > MAX_JOINT_CELLS:
        raise ScenarioError(f"pointer_F.n_points: the joint grid {sc.pointer_a.n_points} x "
                            f"{sc.pointer_f.n_points} = {cells} cells exceeds {MAX_JOINT_CELLS}")
    return sc


def from_dict(raw: dict) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(raw, TOP_LEVEL_KEYS)
    system_dim = _require(raw, "system_dim")
    if not _is_int(system_dim) or system_dim < 2:
        raise ScenarioError(f"system_dim: expected an integer >= 2, got {system_dim!r}")
    gf_tf = _finite_real(_require(raw, "gF_tF"), "gF_tF")
    ga_ta = _finite_real(_require(raw, "gA_tA"), "gA_tA")
    sc = Scenario(
        system_dim=system_dim,
        a_matrix=_parse_matrix(_require(raw, "A_matrix"), "A_matrix"),
        i_vector=_parse_vector(_require(raw, "I_vector"), "I_vector"),
        f_vector=_parse_vector(_require(raw, "F_vector"), "F_vector"),
        ga_ta=ga_ta,
        gf_tf=gf_tf,
        hbar=_positive_real(_require(raw, "hbar"), "hbar"),
        pointer_a=_parse_pointer(_require(raw, "pointer_A"), "pointer_A"),
        pointer_f=_parse_pointer(_require(raw, "pointer_F"), "pointer_F"),
        run=_parse_run(raw.get("run"), gf_tf),
    )
    return validate(sc)


def encode_complex(z: complex):
    """JSON form of a complex number: [re, im]."""
    return [float(z.real), float(z.imag)]


def to_dict(sc: Scenario) -> dict:
    """Inverse of from_dict, suitable for JSON dumping."""
    return {
        "system_dim": sc.system_dim,
        "A_matrix": [[encode_complex(z) for z in row] for row in np.asarray(sc.a_matrix)],
        "I_vector": [encode_complex(z) for z in np.asarray(sc.i_vector)],
        "F_vector": [encode_complex(z) for z in np.asarray(sc.f_vector)],
        "gA_tA": sc.ga_ta,
        "gF_tF": sc.gf_tf,
        "hbar": sc.hbar,
        "pointer_A": asdict(sc.pointer_a),
        "pointer_F": asdict(sc.pointer_f),
        "run": asdict(sc.run),
    }


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return from_dict(raw)


def with_seed(sc: Scenario, seed: int, where: str = "seed") -> Scenario:
    """sc with another run seed; a bad seed raises ScenarioError naming where."""
    return replace(sc, run=replace(sc.run, seed=_check_seed(seed, where)))


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
