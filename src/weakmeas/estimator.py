"""Monte Carlo readout sampling and post-selected weak-value estimation.

Two samplers share one randomness contract.  sample_records draws joint
(X_A, X_F) readouts from the exact grid density of the fully coupled
two-device state; sample_ideal replaces the F device by a Born-rule
projective selection and draws X_A from the conditional device density.
Record k is a pure function of (seed, k): uniforms come from a
counter-based generator keyed by (seed, chunk), three words per record,
so thread count and call order can never change the stream.

Estimates follow the post-selected-mean prescription: the real part of
the weak value from the position readout divided by g_A t_A, the
imaginary part from the momentum readout scaled by 2 sigma_A^2 / (hbar
g_A t_A g_F t_F).
"""
from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from . import pointer, qmath, vonneumann
from .errors import EmptyPostSelectionError
from .scenario import Scenario

CHUNK_SIZE = 1 << 16
WORDS_PER_RECORD = 3
BOOST_IDENTITY_ACCURACY = 1e-12


class MeasurementRecord(NamedTuple):
    value_A: float
    value_F: float
    selected: bool


class RecordBatch(Sequence):
    """Columnar sequence of MeasurementRecord.

    Behaves like a list of records for iteration and indexing while
    keeping the three columns as flat arrays for fast reduction.
    """

    __slots__ = ("value_A", "value_F", "selected")

    def __init__(self, value_A, value_F, selected):
        self.value_A = np.asarray(value_A, dtype=float)
        self.value_F = np.asarray(value_F, dtype=float)
        self.selected = np.asarray(selected, dtype=bool)
        if not self.value_A.shape == self.value_F.shape == self.selected.shape:
            raise ValueError("record columns must have equal length")

    def __len__(self):
        return self.value_A.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return RecordBatch(self.value_A[key], self.value_F[key], self.selected[key])
        return MeasurementRecord(
            float(self.value_A[key]), float(self.value_F[key]), bool(self.selected[key])
        )


@dataclass(frozen=True)
class RunSummary:
    """Post-selection bookkeeping and the weak-value estimate of one run."""

    n_total: int
    n_selected: int
    mean_all_AF: float
    mean_F: float
    mean_F_raw: float
    mean_selected_A: float
    boost: float
    estimate: float
    std_error: float
    seed: int
    mode: str
    readout: str


class BoostIdentity(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def _uniform_block(seed: int, chunk_index: int, row_lo: int, row_hi: int) -> np.ndarray:
    # counter-based: the (seed, chunk) key pins the stream, the row-major
    # fill pins which words feed which record; leading rows are generated
    # and dropped so a partial block still sees its fixed rows
    gen = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    return gen.random((row_hi, WORDS_PER_RECORD))[row_lo:]


def _chunk_plan(start: int, n: int):
    # global record indices [start, start+n); chunk k holds indices
    # [k*CHUNK_SIZE, (k+1)*CHUNK_SIZE)
    lo = start
    while lo < start + n:
        chunk_index, row_lo = divmod(lo, CHUNK_SIZE)
        row_hi = min(CHUNK_SIZE, row_lo + (start + n - lo))
        yield chunk_index, row_lo, row_hi
        lo += row_hi - row_lo


def _run_chunks(worker, start: int, n: int, threads: int):
    plan = list(_chunk_plan(start, n))
    if threads > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda args: worker(*args), plan))
    else:
        parts = [worker(*args) for args in plan]
    if not parts:
        return RecordBatch([], [], [])
    return RecordBatch(
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )


def after_a_coupling(sc: Scenario) -> vonneumann.JointState:
    """System and device A right after the A coupling, a one-device state."""
    state = vonneumann.initial_state(sc.i_vector, [sc.grid_a()])
    return vonneumann.evolve_exact(
        state, vonneumann.CouplingSpec(sc.a_matrix, sc.ga_ta, pointer_axis=0)
    )


def coupled_state(sc: Scenario) -> vonneumann.FactoredState:
    """Initial product state taken through both couplings, A first.

    Device F is attached per eigenbranch of |F><F|, so the result stays
    factored and the d x n_A x n_F tensor is never formed.
    """
    fhat = qmath.projector(qmath.ket(sc.f_vector))
    return vonneumann.attach_exact(
        after_a_coupling(sc), sc.grid_f(), vonneumann.CouplingSpec(fhat, sc.gf_tf, pointer_axis=1)
    )


def _readout_axis(sc: Scenario, state: vonneumann.FactoredState):
    """Density over (device-A readout, x_F) plus the two value grids."""
    grid_a = state.pointers[0]
    grid_f = state.pointers[1]
    if sc.run.readout == "momentum":
        density = vonneumann.device_momentum_density(state)
        vals_a = pointer.momentum_values(grid_a)
        step_a = float(vals_a[1] - vals_a[0])
    else:
        density = vonneumann.device_density(state)
        vals_a = grid_a.positions
        step_a = grid_a.dx
    return density, vals_a, step_a, grid_f.positions, grid_f.dx


def _cell_cdf(weights: np.ndarray) -> np.ndarray:
    total = float(weights.sum())
    if total <= 0:
        raise EmptyPostSelectionError("readout density has no mass")
    cdf = np.cumsum(weights / total)
    cdf[-1] = 1.0
    return cdf


def sample_records(sc: Scenario, n: int, seed=None, threads: int = 1, start: int = 0) -> RecordBatch:
    """Draw joint readouts with global indices [start, start+n).

    Inverse-CDF over the flattened grid cells with uniform jitter inside
    each cell; selected = (value_F > threshold).  Record k is a function
    of (scenario, seed, k) alone, so a run can be split into segments or
    spread over threads without changing a single draw.
    """
    if seed is None:
        seed = sc.run.seed
    state = coupled_state(sc)
    density, vals_a, step_a, vals_f, step_f = _readout_axis(sc, state)
    cdf = _cell_cdf(density.ravel() * (step_a * step_f))
    n_cols = vals_f.size
    threshold = sc.run.threshold

    def worker(chunk_index, row_lo, row_hi):
        u = _uniform_block(seed, chunk_index, row_lo, row_hi)
        flat = np.searchsorted(cdf, u[:, 0], side="right")
        flat = np.minimum(flat, cdf.size - 1)
        row, col = np.divmod(flat, n_cols)
        xa = vals_a[row] + (u[:, 1] - 0.5) * step_a
        xf = vals_f[col] + (u[:, 2] - 0.5) * step_f
        return xa, xf, xf > threshold

    return _run_chunks(worker, start, n, threads)


def sample_ideal(sc: Scenario, n: int, seed=None, threads: int = 1, start: int = 0) -> RecordBatch:
    """Born-rule cross-check: project the system onto F after the A coupling.

    value_F is exactly 1 (projection succeeded) or 0; value_A is drawn
    from the matching conditional device density.  Randomness contract as
    in sample_records.
    """
    if seed is None:
        seed = sc.run.seed
    state = after_a_coupling(sc)
    grid_a = state.pointers[0]
    f_vec = qmath.normalize(qmath.ket(sc.f_vector))
    amps = state.amplitudes
    sel_amps = np.tensordot(np.conj(f_vec), amps, axes=(0, 0))
    unsel_amps = amps - np.multiply.outer(f_vec, sel_amps)
    p_select = float(np.sum(np.abs(sel_amps) ** 2) * grid_a.dx)

    if sc.run.readout == "momentum":
        vals_a = pointer.momentum_values(grid_a)
        step_a = float(vals_a[1] - vals_a[0])
        sel_density = np.abs(pointer.momentum_amplitudes(sel_amps, grid_a)) ** 2
        unsel_ft = pointer.momentum_amplitudes(unsel_amps, grid_a)
        unsel_density = np.sum(np.abs(unsel_ft) ** 2, axis=0)
    else:
        vals_a = grid_a.positions
        step_a = grid_a.dx
        sel_density = np.abs(sel_amps) ** 2
        unsel_density = np.sum(np.abs(unsel_amps) ** 2, axis=0)
    cdf_sel = _cell_cdf(sel_density) if sel_density.sum() > 0 else None
    cdf_unsel = _cell_cdf(unsel_density) if unsel_density.sum() > 0 else None
    threshold = sc.run.threshold

    def worker(chunk_index, row_lo, row_hi):
        u = _uniform_block(seed, chunk_index, row_lo, row_hi)
        chose_f = u[:, 0] < p_select
        xa = np.empty(row_hi - row_lo)
        for mask, cdf in ((chose_f, cdf_sel), (~chose_f, cdf_unsel)):
            if not np.any(mask):
                continue
            if cdf is None:
                raise EmptyPostSelectionError("conditional readout density has no mass")
            idx = np.minimum(np.searchsorted(cdf, u[mask, 1], side="right"), cdf.size - 1)
            xa[mask] = vals_a[idx] + (u[mask, 2] - 0.5) * step_a
        xf = np.where(chose_f, 1.0, 0.0)
        return xa, xf, xf > threshold

    return _run_chunks(worker, start, n, threads)


def _columns(records) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(records, RecordBatch):
        return records.value_A, records.value_F, records.selected
    rows = list(records)
    xa = np.array([r.value_A for r in rows], dtype=float)
    xf = np.array([r.value_F for r in rows], dtype=float)
    sel = np.array([r.selected for r in rows], dtype=bool)
    return xa, xf, sel


def _readout_prefactor(sc: Scenario) -> float:
    """Factor taking the selected device-A mean to the weak-value part it reads."""
    if sc.run.readout == "momentum":
        return 2.0 * sc.pointer_a.sigma**2 / (sc.hbar * sc.ga_ta * sc.gf_tf)
    return 1.0 / sc.ga_ta


def summarize(records, sc: Scenario) -> RunSummary:
    """Reduce records to the post-selected estimate and its bookkeeping.

    The product statistics (mean_all_AF, boost) use the binarized X_F,
    the level at which the boost identity is exact; mean_F_raw keeps the
    raw readout average for comparison with the continuous mean.
    """
    xa, xf, sel = _columns(records)
    n_total = int(xa.size)
    n_selected = int(np.count_nonzero(sel))
    if n_selected == 0:
        raise EmptyPostSelectionError(
            f"no record passed post-selection out of {n_total}"
        )
    binary = sel.astype(float)
    mean_all_af = float(np.mean(xa * binary))
    mean_selected_a = float(np.mean(xa[sel]))
    prefactor = _readout_prefactor(sc)
    if n_selected >= 2:
        spread = float(np.std(xa[sel], ddof=1)) / np.sqrt(n_selected)
        std_error = abs(prefactor) * spread
    else:
        std_error = float("nan")
    boost = mean_selected_a / mean_all_af if mean_all_af != 0 else float("nan")
    return RunSummary(
        n_total=n_total,
        n_selected=n_selected,
        mean_all_AF=mean_all_af,
        mean_F=float(np.mean(binary)),
        mean_F_raw=float(np.mean(xf)),
        mean_selected_A=mean_selected_a,
        boost=boost,
        estimate=prefactor * mean_selected_a,
        std_error=std_error,
        seed=sc.run.seed,
        mode=sc.run.mode,
        readout=sc.run.readout,
    )


def boost_identity_check(records) -> BoostIdentity:
    """<X_A X_F>^(p) * <X_F> against <X_A X_F>, binarized X_F.

    Exact to rounding for any dataset: terms with X_F = 0 drop from the
    unconditioned numerator, leaving the selected sum on both sides.
    """
    xa, _, sel = _columns(records)
    if not np.any(sel):
        raise EmptyPostSelectionError("boost identity needs at least one selected record")
    binary = sel.astype(float)
    lhs = float(np.mean(xa[sel]) * np.mean(binary))
    rhs = float(np.mean(xa * binary))
    return BoostIdentity(lhs=lhs, rhs=rhs, passed=abs(lhs - rhs) <= BOOST_IDENTITY_ACCURACY)


def dump_records(records, handle) -> None:
    """Write records as CSV: index,value_A,value_F,selected.

    Floats carry 17 significant digits; selected is 1 or 0.
    """
    xa, xf, sel = _columns(records)
    handle.write("index,value_A,value_F,selected\n")
    for k in range(xa.size):
        handle.write(
            f"{k},{xa[k]:.17g},{xf[k]:.17g},{1 if sel[k] else 0}\n"
        )


def exact_moments(sc: Scenario) -> dict:
    """Deterministic grid moments of the coupled state, no sampling.

    Reports the unconditioned device means and correlation plus the
    post-selected conditional estimate for the configured readout;
    std_error is identically zero.
    """
    state = coupled_state(sc)
    mean_a = vonneumann.mean_pointer(state, 0)
    mean_f = vonneumann.mean_pointer(state, 1)
    corr = vonneumann.position_correlation(state)
    density, vals_a, step_a, vals_f, step_f = _readout_axis(sc, state)
    keep = vals_f > sc.run.threshold
    cell = density[:, keep] * (step_a * step_f)
    mass = float(cell.sum())
    if mass <= 0:
        raise EmptyPostSelectionError("post-selection region carries no probability mass")
    selected_mean = float((cell.sum(axis=1) * vals_a).sum() / mass)
    prefactor = _readout_prefactor(sc)
    return {
        "mean_A": mean_a,
        "mean_F": mean_f,
        "correlation_AF": corr,
        "correlation_over_gA": corr / sc.ga_ta,
        "selected_mass": mass,
        "selected_mean": selected_mean,
        "estimate": prefactor * selected_mean,
        "std_error": 0.0,
    }
