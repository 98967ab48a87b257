"""Monte Carlo readout sampling and post-selected weak-value estimation.

Two samplers share one randomness contract.  sample_records draws joint
(X_A, X_F) readouts from the exact grid density of the fully coupled
two-device state; sample_ideal reads that state's branch mixture over
|F><F| with device F's pointer replaced by the branch eigenvalue, a
Born-rule projective selection, and draws X_A from the chosen branch.
Record k is a pure function of (seed, k): uniforms come from a
counter-based generator keyed by (seed, chunk), three words per record,
so thread count and call order can never change the stream.

Estimates follow the post-selected-mean prescription: the real part of
the weak value from the position readout divided by g_A t_A, the
imaginary part from the momentum readout scaled by 2 sigma_A^2 / (hbar
g_A t_A g_F t_F).
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple, Tuple

import numpy as np

from . import pointer, qmath, vonneumann
from .errors import EmptyPostSelectionError
from .scenario import Scenario

CHUNK_SIZE = 1 << 16
# inverse-CDF lookup: at most 2**GUIDE_BITS guide buckets, WINDOW_LEVELS levels in each
GUIDE_BITS = 16
WINDOW_LEVELS = 3
WORDS_PER_RECORD = 3
BOOST_IDENTITY_ACCURACY = 1e-12
# rows per formatted write in dump_records: large enough to amortise the
# per-write cost, small enough that a block's text stays near 150 kB
DUMP_BLOCK_ROWS = 4096
_DUMP_ROW = "%d,%.17g,%.17g,%d\n"
# when every value_F of a dump is bitwise +0.0 or 1.0 (not -0.0, not NaN), a row
# ends in _DUMP_TAILS[2 * value_F + selected]: '%.17g' spells the two values 0
# and 1, and '%d' spells the flag 0 or 1
_DUMP_BINARY_ROW = "%d,%.17g,%s"
_DUMP_TAILS = np.array(["0,0\n", "0,1\n", "1,0\n", "1,1\n"], dtype=object)
_ONE_BITS = np.float64(1.0).view(np.uint64)
# numpy's pairwise float sum: nodes longer than this split, shorter ones are
# summed with PAIRWISE_UNROLL accumulators
PAIRWISE_LEAF = 128
PAIRWISE_UNROLL = 8


class MeasurementRecord(NamedTuple):
    value_A: float
    value_F: float
    selected: bool


class RecordBatch(Sequence):
    """Columnar sequence of MeasurementRecord.

    Behaves like a list of records for iteration and indexing while
    keeping the three columns as flat arrays for fast reduction.  start is
    the global index of the first record; dump_records numbers rows from
    it, so the dumps of consecutive segments concatenate to one dump.
    """

    __slots__ = ("value_A", "value_F", "selected", "start")

    def __init__(self, value_A, value_F, selected, start: int = 0):
        self.value_A = np.asarray(value_A, dtype=float)
        self.value_F = np.asarray(value_F, dtype=float)
        self.selected = np.asarray(selected, dtype=bool)
        self.start = start
        if not self.value_A.shape == self.value_F.shape == self.selected.shape:
            raise ValueError("record columns must have equal length")

    def __len__(self):
        return self.value_A.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            # a strided slice is no run of consecutive records: it numbers from 0
            rows = range(len(self))[key]
            start = self.start + rows.start if rows.step == 1 else 0
            return RecordBatch(self.value_A[key], self.value_F[key], self.selected[key], start)
        return MeasurementRecord(
            float(self.value_A[key]), float(self.value_F[key]), bool(self.selected[key])
        )


@dataclass(frozen=True)
class RunStatistics:
    """The post-selection bookkeeping of one run, free of any scenario."""

    n_total: int
    n_selected: int
    mean_all_AF: float
    mean_F: float
    mean_F_raw: float
    mean_selected_A: float


@dataclass(frozen=True)
class RunSummary(RunStatistics):
    """Post-selection bookkeeping and the weak-value estimate of one run."""

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


class _Collector:
    """Chunk sink that fills preallocated columns, for a RecordBatch result."""

    def __init__(self, start: int, n: int):
        self.batch = RecordBatch(np.empty(n), np.empty(n), np.empty(n, dtype=bool), start)
        self._filled = 0

    def add(self, xa, xf, sel):
        lo, hi = self._filled, self._filled + xa.size
        self.batch.value_A[lo:hi] = xa
        self.batch.value_F[lo:hi] = xf
        self.batch.selected[lo:hi] = sel
        self._filled = hi


class PairwiseSum:
    """np.add.reduce of n float64 values that arrive in pieces, bit for bit.

    numpy sums a contiguous array along a tree fixed by n alone: a node
    longer than PAIRWISE_LEAF splits after half its length rounded down to
    a multiple of PAIRWISE_UNROLL, and a leaf is summed with that many
    accumulators.  Every node is therefore np.add.reduce of its own slice.
    Nodes that lie inside one piece are reduced there, the one leaf that
    straddles a piece boundary is carried into the next piece, and the node
    sums are added in tree order.  The property test against np.add.reduce
    guards this against a numpy that changes its tree.
    """

    def __init__(self, n: int):
        # nodes still to sum, the next on top; None adds the two sums on top
        self._todo = [(0, n)] if n else []
        self._sums = []
        self._carry = []  # the straddling leaf's values seen so far
        self._seen = 0

    def add(self, values: np.ndarray) -> None:
        lo, hi = self._seen, self._seen + values.size
        todo, sums = self._todo, self._sums
        while todo:
            node = todo[-1]
            if node is None:
                todo.pop()
                right = sums.pop()
                sums[-1] += right
                continue
            start, size = node
            end = start + size
            if start >= hi:
                break
            if start < lo or (end > hi and size <= PAIRWISE_LEAF):
                self._carry.append(values[max(start, lo) - lo:min(end, hi) - lo].copy())
                if end > hi:
                    break
                todo.pop()
                sums.append(float(np.add.reduce(np.concatenate(self._carry))))
                self._carry = []
            elif end <= hi:
                todo.pop()
                sums.append(float(np.add.reduce(values[start - lo:end - lo])))
            else:
                todo.pop()
                half = size // 2
                half -= half % PAIRWISE_UNROLL
                todo += [None, (start + half, size - half), (start, half)]
        self._seen = hi

    @property
    def total(self) -> float:
        if self._todo:
            raise ValueError("pairwise sum is missing values")
        return self._sums[0] if self._sums else 0.0


class RunTotals:
    """Chunk sink that keeps only what summarize needs from a sampling run.

    Per record it keeps the selected flag (1 byte) and, for selected
    records, value_A (8 bytes); sum(value_A * selected) and sum(value_F)
    are streamed bit for bit as np.add.reduce gives them.  Given a dump
    handle, it also writes each chunk there through dump_records, rows
    numbered from 0.  Like a RecordBatch it has a length and a selected
    column.
    """

    def __init__(self, n: int, dump=None):
        self.selected = np.empty(n, dtype=bool)
        self._selected_a = []
        self.sum_af = PairwiseSum(n)
        self.sum_f = PairwiseSum(n)
        self._dump = dump
        self._filled = 0

    def __len__(self):
        return self.selected.size

    def add(self, xa, xf, sel):
        lo, hi = self._filled, self._filled + xa.size
        self.selected[lo:hi] = sel
        self._selected_a.append(xa[sel])
        self.sum_af.add(xa * sel.astype(float))
        self.sum_f.add(xf)
        if self._dump is not None:
            dump_records(RecordBatch(xa, xf, sel, lo), self._dump)
        self._filled = hi

    def selected_a(self) -> np.ndarray:
        return np.concatenate(self._selected_a) if self._selected_a else np.empty(0)


def _run_chunks(worker, start: int, n: int, threads: int, sink=None):
    """Hand each chunk's (xa, xf, sel) to sink.add in index order; return the sink.

    With threads > 1 at most 2 * threads chunks are drawn but not yet
    consumed.  Without a sink the chunks fill a RecordBatch, which is
    returned instead.
    """
    target = _Collector(start, n) if sink is None else sink
    add = target.add
    plan = list(_chunk_plan(start, n))
    if threads > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for args in plan:
                if len(pending) == 2 * threads:
                    add(*pending.popleft().result())
                pending.append(pool.submit(worker, *args))
            while pending:
                add(*pending.popleft().result())
    else:
        for args in plan:
            add(*worker(*args))
    return target.batch if sink is None else sink


def after_a_coupling(sc: Scenario) -> vonneumann.JointState:
    """System and device A right after the A coupling, a one-device state."""
    state = vonneumann.initial_state(sc.i_vector, [sc.grid_a()])
    return vonneumann.evolve_exact(
        state, vonneumann.CouplingSpec(sc.a_matrix, sc.ga_ta)
    )


def coupled_state(sc: Scenario) -> vonneumann.FactoredState:
    """Initial product state taken through both couplings, A first.

    Device F is attached per eigenbranch of |F><F|, so the result stays
    factored and the d x n_A x n_F tensor is never formed.
    """
    fhat = qmath.projector(qmath.ket(sc.f_vector))
    return vonneumann.attach_exact(
        after_a_coupling(sc), sc.grid_f(), vonneumann.CouplingSpec(fhat, sc.gf_tf)
    )


def _readout_values(sc: Scenario, grid_a: pointer.PointerGrid):
    """Device-A readout values for the configured readout, plus their spacing."""
    if sc.run.readout == "momentum":
        vals = pointer.momentum_values(grid_a)
        return vals, float(vals[1] - vals[0])
    return grid_a.positions, grid_a.dx


def _readout_axis(sc: Scenario, state: vonneumann.FactoredState):
    """Density over (device-A readout, x_F) plus the two value grids."""
    if sc.run.readout == "momentum":
        density = vonneumann.device_momentum_density(state)
    else:
        density = vonneumann.device_density(state)
    vals_a, step_a = _readout_values(sc, state.pointers[0])
    return density, vals_a, step_a, state.pointers[1].positions, state.pointers[1].dx


def _cell_cdf(weights: np.ndarray) -> np.ndarray:
    """Normalised cumulative weights, computed in place: weights becomes the CDF.

    The running sum can round above 1.0 before the last cell.  It never
    decreases, the weights being nonnegative, so those entries form a suffix,
    which is set to 1.0: the CDF is sorted and ends at exactly 1.0.
    """
    total = float(weights.sum())
    if total <= 0:
        raise EmptyPostSelectionError("readout density has no mass")
    weights /= total
    cdf = np.cumsum(weights, out=weights)
    cdf[cdf.searchsorted(1.0, side="right"):] = 1.0
    cdf[-1] = 1.0
    return cdf


def _cell_guide(cdf: np.ndarray):
    """(starts, wide) over M = 2**min(GUIDE_BITS, ceil(log2 cdf.size)) value buckets.

    starts[j] counts the entries <= j/M, exact as M is a power of two; wide[j]
    flags a bucket of 2**WINDOW_LEVELS entries or more.
    """
    m = 1 << min(GUIDE_BITS, (cdf.size - 1).bit_length())
    starts = cdf.searchsorted(np.arange(m + 1) / m, side="right")
    return starts, np.diff(starts) >= 1 << WINDOW_LEVELS


def _search_levels(cdf: np.ndarray, base: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """Narrow each key's answer from the n candidates base .. base + n - 1, in place.

    Khuong & Morin's branch-free search ("Array Layouts for Comparison-Based
    Searching", ACM JEA 22, 2017), one level over every key at a time, so a
    level's cache misses overlap: cdf[base + half - 1] <= u puts the answer
    at base + half or above.  The offset view cdf[half - 1:] saves a probe
    index array; mode="clip" reads a probe past the end as the last cell.
    """
    while n > 1:
        half = n // 2
        base += (cdf[half - 1:].take(base, mode="clip") <= u) * half
        n -= half
    return base


def _draw_cells(cdf: np.ndarray, guide, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup: the cell index of each uniform, clamped to the last cell.

    The index counts the CDF entries <= u, exactly searchsorted(side="right").
    Chen & Asau's guide table ("On generating random variates from an
    empirical distribution", AIIE Trans. 6, 1974) bounds it to u's bucket
    j = min(floor(u M), M - 1): entries below starts[j] are <= j/M <= u, and
    those from starts[j + 1] on are > (j+1)/M > u.  WINDOW_LEVELS levels from
    starts[j] then find it in a bucket of under 2**WINDOW_LEVELS entries; a
    probe past the bucket reads an entry > u, or 1.0 clipped, which only a
    key of 1.0 passes and the clamp takes back.  Keys in wide buckets, and
    all keys of a CDF of at most 2**WINDOW_LEVELS cells, take the full
    search.  The keys are made contiguous once, as every level reads them.
    """
    u = np.ascontiguousarray(u)
    if cdf.size <= 1 << WINDOW_LEVELS:
        base = _search_levels(cdf, np.zeros(u.size, dtype=np.intp), u, cdf.size + 1)
        return np.minimum(base, cdf.size - 1, out=base)
    starts, wide = guide
    j = (u * wide.size).astype(np.intp)  # u >= 0, so the cast floors
    np.minimum(j, wide.size - 1, out=j)
    far = np.flatnonzero(wide.take(j))
    base = starts.take(j)
    del j
    _search_levels(cdf, base, u, 1 << WINDOW_LEVELS)
    base[far] = _search_levels(cdf, np.zeros(far.size, dtype=np.intp), u[far], cdf.size + 1)
    return np.minimum(base, cdf.size - 1, out=base)


def sample_records(sc: Scenario, n: int, seed=None, threads: int = 1, start: int = 0,
                   sink=None):
    """Draw joint readouts with global indices [start, start+n).

    Inverse-CDF over the flattened grid cells with uniform jitter inside
    each cell; selected = (value_F > threshold).  Record k is a function
    of (scenario, seed, k) alone, so a run can be split into segments or
    spread over threads without changing a single draw.  Returns a
    RecordBatch, or, given a sink such as RunTotals, feeds it the chunks
    in order and returns it.
    """
    if seed is None:
        seed = sc.run.seed
    state = coupled_state(sc)
    density, vals_a, step_a, vals_f, step_f = _readout_axis(sc, state)
    weights = density.ravel()
    del density  # the CDF overwrites the only n_A * n_F buffer
    weights *= step_a * step_f
    cdf = _cell_cdf(weights)
    guide = _cell_guide(cdf)
    # n_F is a power of two, so a cell index splits by shift and mask
    n_cols = vals_f.size
    col_bits = n_cols.bit_length() - 1
    threshold = sc.run.threshold

    def worker(chunk_index, row_lo, row_hi):
        u = _uniform_block(seed, chunk_index, row_lo, row_hi)
        cells = _draw_cells(cdf, guide, u[:, 0])
        row, col = cells >> col_bits, cells & (n_cols - 1)
        xa = vals_a[row] + (u[:, 1] - 0.5) * step_a
        xf = vals_f[col] + (u[:, 2] - 0.5) * step_f
        return xa, xf, xf > threshold

    return _run_chunks(worker, start, n, threads, sink)


def sample_ideal(sc: Scenario, n: int, seed=None, threads: int = 1, start: int = 0, sink=None):
    """Born-rule cross-check: the coupled state's branches with a sharp F pointer.

    In the branch mixture sum_k g_k(x_A) h_k(x_F) over |F><F|, h_k becomes
    the eigenvalue: value_F is 1 (F selected, with the eigenvalue-1 branch's
    mass) or 0, and value_A is drawn from that branch's g or the others' sum.
    Randomness contract and sink as in sample_records.
    """
    if seed is None:
        seed = sc.run.seed
    state = coupled_state(sc)
    vals_a, step_a = _readout_values(sc, state.pointers[0])
    g, _ = vonneumann.branch_weights(state, sc.run.readout == "momentum")
    # herm_eig sorts eigenvalues descending: branch 0 of |F><F| is the eigenvalue 1
    p_select = float(np.sum(g[0]) * step_a)
    cdfs = [_cell_cdf(d) if d.sum() > 0 else None for d in (g[0], g[1:].sum(axis=0))]
    tables = [cdf if cdf is None else (cdf, _cell_guide(cdf)) for cdf in cdfs]
    threshold = sc.run.threshold

    def worker(chunk_index, row_lo, row_hi):
        u = _uniform_block(seed, chunk_index, row_lo, row_hi)
        chose_f = u[:, 0] < p_select
        xa = np.empty(row_hi - row_lo)
        for mask, table in zip((chose_f, ~chose_f), tables):
            if not np.any(mask):
                continue
            if table is None:
                raise EmptyPostSelectionError("conditional readout density has no mass")
            xa[mask] = vals_a[_draw_cells(*table, u[mask, 1])] + (u[mask, 2] - 0.5) * step_a
        xf = np.where(chose_f, 1.0, 0.0)
        return xa, xf, xf > threshold

    return _run_chunks(worker, start, n, threads, sink)


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


def _run_statistics(records, empty_message="no record passed post-selection out of {n_total}"):
    """records' RunStatistics and selected value_A; empty_message if none is selected."""
    totals = records
    if not isinstance(totals, RunTotals):
        xa, xf, sel = _columns(records)
        totals = RunTotals(xa.size)
        totals.add(xa, xf, sel)
    n_total = len(totals)
    n_selected = int(np.count_nonzero(totals.selected))
    if n_selected == 0:
        raise EmptyPostSelectionError(empty_message.format(n_total=n_total))
    selected_a = totals.selected_a()
    return RunStatistics(
        n_total=n_total,
        n_selected=n_selected,
        mean_all_AF=totals.sum_af.total / n_total,
        mean_F=n_selected / n_total,
        mean_F_raw=totals.sum_f.total / n_total,
        mean_selected_A=float(np.mean(selected_a)),
    ), selected_a


def summarize(records, sc: Scenario) -> RunSummary:
    """Reduce records to the post-selected estimate and its bookkeeping.

    records is a RunTotals a sampler has filled, or any records, which
    are reduced through one.  mean_all_AF and boost use the binarized X_F,
    the level at which the boost identity is exact; mean_F_raw is the raw
    readout average.  Every mean is np.mean's: its sum over n.  The
    scenario adds only the readout prefactor, to estimate and std_error.
    """
    stats, selected_a = _run_statistics(records)
    prefactor = _readout_prefactor(sc)
    if stats.n_selected >= 2:
        spread = float(np.std(selected_a, ddof=1)) / np.sqrt(stats.n_selected)
        std_error = abs(prefactor) * spread
    else:
        std_error = float("nan")
    mean_a, mean_af = stats.mean_selected_A, stats.mean_all_AF
    return RunSummary(
        **asdict(stats),
        boost=mean_a / mean_af if mean_af != 0 else float("nan"),
        estimate=prefactor * mean_a,
        std_error=std_error,
        seed=sc.run.seed,
        mode=sc.run.mode,
        readout=sc.run.readout,
    )


def boost_identity_check(records) -> BoostIdentity:
    """<X_A X_F>^(p) * <X_F> against <X_A X_F>, binarized X_F.

    The two sides are summarize's mean_selected_A * mean_F and mean_all_AF
    of the same records.  Exact to rounding for any dataset: terms with
    X_F = 0 drop from the unconditioned numerator, leaving the selected sum.
    """
    stats, _ = _run_statistics(records, "boost identity needs at least one selected record")
    lhs, rhs = stats.mean_selected_A * stats.mean_F, stats.mean_all_AF
    return BoostIdentity(lhs=lhs, rhs=rhs, passed=abs(lhs - rhs) <= BOOST_IDENTITY_ACCURACY)


def dump_records(records, handle) -> None:
    """Write records as CSV: index,value_A,value_F,selected.

    Floats carry 17 significant digits; selected is 1 or 0.  Rows are
    numbered from records.start (0 for a plain sequence), and the header
    precedes row 0 only, so a run dumped chunk by chunk reads as one file.
    Rows are formatted and written DUMP_BLOCK_ROWS at a time, so a long
    dump streams into handle without being held in memory whole.
    """
    xa, xf, sel = _columns(records)
    start = getattr(records, "start", 0)
    if start == 0:
        handle.write("index,value_A,value_F,selected\n")
    bits = xf.view(np.uint64)
    one = bits == _ONE_BITS
    binary = np.all(one | (bits == 0))
    for lo in range(0, xa.size, DUMP_BLOCK_ROWS):
        hi = min(lo + DUMP_BLOCK_ROWS, xa.size)
        if binary:
            cells = [None] * (3 * (hi - lo))
            cells[0::3] = range(start + lo, start + hi)
            cells[1::3] = xa[lo:hi].tolist()
            cells[2::3] = _DUMP_TAILS[2 * one[lo:hi] + sel[lo:hi]].tolist()
            handle.write(_DUMP_BINARY_ROW * (hi - lo) % tuple(cells))
            continue
        # one %-format over the interleaved block; '%.17g' of a Python
        # float spells every value as format(value, '.17g') does
        cells = [None] * (4 * (hi - lo))
        cells[0::4] = range(start + lo, start + hi)
        cells[1::4] = xa[lo:hi].tolist()
        cells[2::4] = xf[lo:hi].tolist()
        cells[3::4] = sel[lo:hi].tolist()
        handle.write(_DUMP_ROW * (hi - lo) % tuple(cells))


def exact_moments(sc: Scenario) -> dict:
    """Deterministic grid moments of the coupled state, no sampling.

    Reports the unconditioned device means and correlation plus the
    post-selected conditional estimate for the configured readout;
    std_error is identically zero.  The x_F positions ascend, so the
    selected columns x_F > threshold are a suffix of the density, read
    through a slice.
    """
    state = coupled_state(sc)
    mean_a = vonneumann.mean_pointer(state, 0)
    mean_f = vonneumann.mean_pointer(state, 1)
    corr = vonneumann.position_correlation(state)
    density, vals_a, step_a, vals_f, step_f = _readout_axis(sc, state)
    # side="right" leaves a column at exactly the threshold out, as x_F > threshold does
    first = int(np.searchsorted(vals_f, sc.run.threshold, side="right"))
    cell = density[:, first:] * (step_a * step_f)
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


def gaussian_moments(sc: Scenario, second=None) -> dict:
    """exact_moments' moments in closed form, at every order, with no grid.

    The independent route for Gaussian pointers (Jozsa, PRA 76, 044103,
    2007; Wu & Li, PRA 83, 052106, 2011).  Both couplings are displacements,
    so in eigenbranch (lambda_k, w_k) of the second observable (|F><F|
    unless second is given) device A holds sum_a c_ka phi_A(x - b_a), with
    b_a = gA_tA alpha_a over A's eigenpairs (alpha_a, v_a) and
    c_ka = <w_k|v_a><v_a|I>.  With b the bra's shift and b' the ket's,
    <phi_b|phi_b'> = exp(-(b - b')^2 / 8 sigma_A^2), and x and pi have the
    matrix elements (b + b')/2 and i hbar (b - b') / (4 sigma_A^2) times it.
    Device F passes the threshold t in branch k with probability
    erfc((t - gF_tF lambda_k) / (sqrt(2) sigma_F)) / 2.  The selected mean
    is the paper's expectation of A|F><F| boosted by the post-selection.
    Returns mean_A, mean_F, correlation_AF, selected_mass and selected_mean,
    the last for the configured readout.
    """
    a = qmath.herm_eig(sc.a_matrix)
    b = qmath.herm_eig(qmath.projector(qmath.ket(sc.f_vector)) if second is None else second)
    c = (b.eigenvectors.conj().T @ a.eigenvectors) * (a.eigenvectors.conj().T @ sc.i_vector)
    bra, ket = np.meshgrid(sc.ga_ta * a.eigenvalues, sc.ga_ta * a.eigenvalues, indexing="ij")
    var_a = sc.pointer_a.sigma ** 2
    overlap = np.exp(-((bra - ket) ** 2) / (8 * var_a))

    def branch_means(matrix):
        return np.einsum("ka,ab,kb->k", c.conj(), matrix, c).real

    weight = branch_means(overlap)
    mean_x = branch_means((bra + ket) / 2 * overlap)
    if sc.run.readout == "momentum":
        read = branch_means(1j * sc.hbar * (bra - ket) / (4 * var_a) * overlap)
    else:
        read = mean_x
    centres = sc.gf_tf * b.eigenvalues
    spread = math.sqrt(2.0) * sc.pointer_f.sigma
    passed = np.array([0.5 * math.erfc((sc.run.threshold - m) / spread) for m in centres])
    mass = float(weight @ passed)
    if mass <= 0:
        raise EmptyPostSelectionError("post-selection region carries no probability mass")
    return {
        "mean_A": float(mean_x.sum()),
        "mean_F": float(weight @ centres),
        "correlation_AF": float(mean_x @ centres),
        "selected_mass": mass,
        "selected_mean": float(read @ passed) / mass,
    }
