"""Sampling determinism, post-selection bookkeeping, boost identity, estimates."""
import io
import math
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakmeas import cli, estimator, scenario, vonneumann
from weakmeas.errors import EmptyPostSelectionError
from weakmeas.estimator import MeasurementRecord, RecordBatch


@pytest.fixture(scope="module")
def theta30():
    return scenario.preset("qubit-theta30")


@pytest.fixture(scope="module")
def imaginary():
    return scenario.preset("imaginary-sigma-x")


def worked_example_records():
    # one selected readout of 2 among five trials, X_F already binary
    rows = [MeasurementRecord(2.0, 1.0, True)]
    rows += [MeasurementRecord(2.0, 0.0, False)] * 4
    return rows


class TestRecordBatch:
    def test_sequence_protocol(self, theta30):
        batch = estimator.sample_records(theta30, 100)
        assert len(batch) == 100
        rec = batch[3]
        assert isinstance(rec, MeasurementRecord)
        assert rec.selected == (rec.value_F > theta30.run.threshold)
        assert batch[-1] == list(batch)[-1]
        sub = batch[10:20]
        assert isinstance(sub, RecordBatch)
        assert len(sub) == 10
        assert sub[0] == batch[10]

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError):
            RecordBatch([1.0, 2.0], [1.0], [True])

    def test_empty_request(self, theta30):
        batch = estimator.sample_records(theta30, 0)
        assert len(batch) == 0
        assert list(batch) == []


class TestPointerSampling:
    def test_deterministic_in_seed_and_schedule(self, theta30):
        a = estimator.sample_records(theta30, 30000)
        b = estimator.sample_records(theta30, 30000)
        c = estimator.sample_records(theta30, 30000, threads=4)
        for other in (b, c):
            np.testing.assert_array_equal(a.value_A, other.value_A)
            np.testing.assert_array_equal(a.value_F, other.value_F)
            np.testing.assert_array_equal(a.selected, other.selected)
        different = estimator.sample_records(theta30, 30000, seed=8)
        assert not np.array_equal(a.value_A, different.value_A)

    def test_segmentation_invariance(self, theta30):
        # record k depends on (seed, k) only, so segments splice exactly
        whole = estimator.sample_records(theta30, 150000)
        head = estimator.sample_records(theta30, 70000)
        tail = estimator.sample_records(theta30, 80000, start=70000)
        np.testing.assert_array_equal(
            whole.value_A, np.concatenate([head.value_A, tail.value_A])
        )
        np.testing.assert_array_equal(
            whole.selected, np.concatenate([head.selected, tail.selected])
        )

    def test_identity_observable_clusters_at_shift(self, theta30):
        sc = replace(theta30, a_matrix=np.eye(2))
        batch = estimator.sample_records(sc, 100000)
        mean = float(np.mean(batch.value_A))
        spread = float(np.std(batch.value_A))
        assert abs(mean - sc.ga_ta) < 3.0 / math.sqrt(len(batch))
        assert spread == pytest.approx(1.0, abs=0.02)

    def test_selected_fraction_tracks_projection_probability(self, theta30):
        batch = estimator.sample_records(theta30, 1000000)
        frac = float(np.mean(batch.selected))
        assert abs(frac - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / 1000000)

    def test_readout_is_continuous(self, theta30):
        batch = estimator.sample_records(theta30, 20000)
        sel_spread = float(np.std(batch.value_F[batch.selected]))
        # F readout keeps its sigma_F = 0.05 width, unlike the ideal 0/1
        assert 0.03 < sel_spread < 0.07
        np.testing.assert_array_equal(
            batch.selected, batch.value_F > theta30.run.threshold
        )


class TestIdealSampling:
    def test_outcomes_are_binary(self, theta30):
        batch = estimator.sample_ideal(theta30, 50000)
        assert set(np.unique(batch.value_F)) <= {0.0, 1.0}
        np.testing.assert_array_equal(batch.selected, batch.value_F == 1.0)

    def test_fraction_near_born_probability(self, theta30):
        batch = estimator.sample_ideal(theta30, 100000)
        # |<F|I>|^2 = 0.25 up to an O(g_A) disturbance from the coupling
        assert abs(float(np.mean(batch.selected)) - 0.25) < 0.01

    def test_selected_mean_estimates_weak_value(self, theta30):
        batch = estimator.sample_ideal(theta30, 100000)
        s = estimator.summarize(batch, theta30)
        assert abs(s.estimate - 2.0) < 0.4  # 3 standard errors at this n

    def test_orthogonal_zero_strength_selects_nothing(self, theta30):
        sc = replace(
            theta30,
            i_vector=np.array([1.0, 0.0]),
            f_vector=np.array([0.0, 1.0]),
            ga_ta=0.0,
        )
        batch = estimator.sample_ideal(sc, 5000)
        assert int(batch.selected.sum()) == 0
        with pytest.raises(EmptyPostSelectionError):
            estimator.summarize(batch, sc)

    @pytest.mark.parametrize("gf_tf, extent", [(2.0, 8.0), (-1.0, 4.0)])
    def test_selected_fraction_matches_exact_mass(self, theta30, gf_tf, extent):
        # value_F is the sharp pointer position gF_tF or 0, so the default
        # threshold 0.5 gF_tF selects the branch device F's pointer selects
        sc = scenario.validate(replace(
            theta30, gf_tf=gf_tf, pointer_f=replace(theta30.pointer_f, extent=extent),
            run=replace(theta30.run, threshold=0.5 * gf_tf),
        ))
        n = 100000
        batch = estimator.sample_ideal(sc, n)
        assert set(np.unique(batch.value_F)) == {0.0, gf_tf}
        mass = estimator.exact_moments(sc)["selected_mass"]
        se = math.sqrt(mass * (1 - mass) / n)
        assert abs(float(np.mean(batch.selected)) - mass) <= 4 * se

    def test_deterministic(self, theta30):
        a = estimator.sample_ideal(theta30, 20000)
        b = estimator.sample_ideal(theta30, 20000, threads=3)
        np.testing.assert_array_equal(a.value_A, b.value_A)
        np.testing.assert_array_equal(a.value_F, b.value_F)


def reference_cells(cdf, u):
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def edge_keys(cdf):
    """0, the largest double below 1, 1, and each CDF entry and guide bucket
    edge j/M with its two neighbours."""
    m = estimator._cell_guide(cdf)[1].size
    edges = np.concatenate([cdf, np.arange(m + 1) / m])
    return np.concatenate([[0.0, np.nextafter(1.0, 0.0), 1.0], edges,
                           np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])


@st.composite
def tied_cdfs(draw):
    """CDFs from _cell_cdf over 1-2048 cells: runs of zero weight make ties."""
    n = draw(st.one_of(st.integers(1, 2048),
                       st.sampled_from([1, 2, 3, 511, 512, 513, 1023, 1024, 1025, 2047, 2048])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(n) * 10.0 ** rng.uniform(-20, 20, n)
    for _ in range(draw(st.integers(0, 6))):
        lo = int(rng.integers(0, n))
        weights[lo:lo + int(rng.geometric(0.05))] = 0.0
    if not weights.any():
        weights[int(rng.integers(0, n))] = 1.0
    return estimator._cell_cdf(weights)


class TestDrawCells:
    """The level-by-level search must equal the clamped searchsorted exactly."""

    # 200 examples of at most ~6,000 keys each, in three layouts: about 0.5 s in all
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tied_cdfs())
    def test_matches_searchsorted(self, cdf):
        # sorted and at most 1, so a key of 1.0 finds the same cell either way
        assert np.all(np.diff(cdf) >= 0) and np.all(cdf <= 1.0) and cdf[-1] == 1.0
        keys = edge_keys(cdf)
        want = reference_cells(cdf, keys)
        # the samplers pass a strided column of a (k, 3) uniform block
        block = np.zeros((keys.size, 3))
        block[:, 1] = keys
        for view, expect in ((keys, want), (block[:, 1], want), (keys[::-1], want[::-1])):
            got = estimator._draw_cells(cdf, estimator._cell_guide(cdf), view)
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, expect)

    def test_joint_cdf_first_chunk(self, theta30):
        cdf = joint_cdf(theta30)
        u = estimator._uniform_block(theta30.run.seed, 0, 0, estimator.CHUNK_SIZE)[:, 0]
        np.testing.assert_array_equal(estimator._draw_cells(cdf, estimator._cell_guide(cdf), u),
                                      reference_cells(cdf, u))

    # with test_joint_cdf_first_chunk, every preset x readout joint CDF
    @pytest.mark.parametrize("name, readout", [("qubit-theta30", "momentum"),
                                               ("imaginary-sigma-x", "position"),
                                               ("imaginary-sigma-x", "momentum")])
    def test_preset_first_chunk(self, name, readout):
        sc = scenario.preset(name)
        sc = replace(sc, run=replace(sc.run, readout=readout))
        cdf = joint_cdf(sc)
        u = estimator._uniform_block(sc.run.seed, 0, 0, estimator.CHUNK_SIZE)[:, 0]
        got = estimator._draw_cells(cdf, estimator._cell_guide(cdf), u)
        np.testing.assert_array_equal(got, reference_cells(cdf, u))

    def test_wide_share_of_first_chunk(self, theta30):
        # some keys take the full search, so both paths run, and few do, so
        # the guide's window carries the lookup
        _, wide = estimator._cell_guide(joint_cdf(theta30))
        u = estimator._uniform_block(theta30.run.seed, 0, 0, estimator.CHUNK_SIZE)[:, 0]
        share = wide[np.minimum((u * wide.size).astype(int), wide.size - 1)].mean()
        assert 0 < share < 0.01

    def test_chunk_memory_bound(self, theta30):
        # README "Memory": four 0.5 MB arrays per chunk being drawn (the
        # contiguous keys, the positions, the gathered values, a level's step)
        cdf = joint_cdf(theta30)
        guide = estimator._cell_guide(cdf)
        u = estimator._uniform_block(theta30.run.seed, 0, 0, estimator.CHUNK_SIZE)[:, 0]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimator._draw_cells(cdf, guide, u)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4 * estimator.CHUNK_SIZE * 8


def joint_cdf(sc):
    state = estimator.coupled_state(sc)
    density, _, step_a, _, step_f = estimator._readout_axis(sc, state)
    return estimator._cell_cdf(density.ravel() * (step_a * step_f))


def divmod_records(sc, n):
    """sample_records' columns rebuilt with np.divmod splitting each cell index."""
    state = estimator.coupled_state(sc)
    _, vals_a, step_a, vals_f, step_f = estimator._readout_axis(sc, state)
    cdf = joint_cdf(sc)
    guide = estimator._cell_guide(cdf)
    xa, xf = [], []
    for chunk_index, row_lo, row_hi in estimator._chunk_plan(0, n):
        u = estimator._uniform_block(sc.run.seed, chunk_index, row_lo, row_hi)
        row, col = np.divmod(estimator._draw_cells(cdf, guide, u[:, 0]), vals_f.size)
        xa.append(vals_a[row] + (u[:, 1] - 0.5) * step_a)
        xf.append(vals_f[col] + (u[:, 2] - 0.5) * step_f)
    return np.concatenate(xa), np.concatenate(xf)


class TestCellSplit:
    """sample_records splits a cell index by shift and mask, as np.divmod does."""

    @pytest.mark.parametrize("name", ["qubit-theta30", "imaginary-sigma-x"])
    def test_presets(self, name):
        sc = scenario.preset(name)
        batch = estimator.sample_records(sc, 70000)
        xa, xf = divmod_records(sc, 70000)
        np.testing.assert_array_equal(batch.value_A, xa)
        np.testing.assert_array_equal(batch.value_F, xf)

    def test_non_square_grid(self, theta30):
        # n_A < n_F, so a split by the wrong axis's size would move every cell
        sc = replace(
            theta30,
            pointer_a=scenario.PointerSettings(sigma=1.0, n_points=256, extent=40.0),
            pointer_f=scenario.PointerSettings(sigma=0.05, n_points=2048, extent=4.0),
        )
        batch = estimator.sample_records(sc, 70000)
        xa, xf = divmod_records(sc, 70000)
        np.testing.assert_array_equal(batch.value_A, xa)
        np.testing.assert_array_equal(batch.value_F, xf)


class TestSummarize:
    def test_worked_example_dataset(self, theta30):
        sc = replace(theta30, ga_ta=1.0)
        s = estimator.summarize(worked_example_records(), sc)
        assert s.n_total == 5
        assert s.n_selected == 1
        assert s.mean_all_AF == pytest.approx(0.4, abs=1e-15)
        assert s.mean_F == pytest.approx(0.2, abs=1e-15)
        assert s.mean_F_raw == pytest.approx(0.2, abs=1e-15)
        assert s.mean_selected_A == pytest.approx(2.0, abs=1e-15)
        assert s.boost == pytest.approx(5.0, abs=1e-12)
        assert s.boost * s.mean_F == pytest.approx(1.0, abs=1e-12)
        assert s.estimate == pytest.approx(2.0, abs=1e-15)
        assert math.isnan(s.std_error)  # single selected record

    def test_all_selected_has_unit_boost(self, theta30):
        xa = np.array([0.3, -1.2, 0.9, 2.5])
        batch = RecordBatch(xa, np.ones(4), np.ones(4, dtype=bool))
        s = estimator.summarize(batch, theta30)
        assert s.mean_selected_A == pytest.approx(float(xa.mean()), abs=1e-15)
        assert s.boost == pytest.approx(1.0, abs=1e-12)

    def test_empty_selection_raises(self, theta30):
        batch = RecordBatch(np.ones(10), np.zeros(10), np.zeros(10, dtype=bool))
        with pytest.raises(EmptyPostSelectionError):
            estimator.summarize(batch, theta30)
        with pytest.raises(EmptyPostSelectionError):
            estimator.summarize([], theta30)

    def test_position_estimate_at_scale(self, theta30):
        batch = estimator.sample_records(theta30, 1000000)
        s = estimator.summarize(batch, theta30)
        assert abs(s.estimate - 2.0) <= 0.1
        assert 0.02 < s.std_error < 0.06
        assert s.seed == theta30.run.seed
        assert s.mode == "sample-pointer"
        assert s.readout == "position"

    def test_momentum_estimate(self, imaginary):
        batch = estimator.sample_records(imaginary, 100000)
        s = estimator.summarize(batch, imaginary)
        assert abs(s.estimate - (-1.0)) < 0.25  # 3 standard errors at this n
        assert s.readout == "momentum"

    def test_binarized_and_raw_f_means_agree(self, theta30):
        # the jittered F readout sits within sigma_F of its 0/1 branch, so
        # the two averages differ only at sampling-noise level
        batch = estimator.sample_records(theta30, 100000)
        s = estimator.summarize(batch, theta30)
        assert abs(s.mean_F - s.mean_F_raw) < 1e-3


class TestBoostIdentity:
    def test_worked_example_dataset(self):
        chk = estimator.boost_identity_check(worked_example_records())
        assert chk.passed
        assert chk.lhs == pytest.approx(0.4, abs=1e-15)
        assert chk.rhs == pytest.approx(0.4, abs=1e-15)

    def test_all_selected(self):
        xa = np.array([1.0, 3.0, -2.0])
        batch = RecordBatch(xa, np.ones(3), np.ones(3, dtype=bool))
        chk = estimator.boost_identity_check(batch)
        assert chk.passed
        assert chk.lhs == pytest.approx(float(xa.mean()), abs=1e-15)

    def test_hundred_random_binarized_datasets(self):
        rng = np.random.default_rng(6101)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 1000))
            sel = rng.random(n) < rng.random()
            if not sel.any():
                continue
            xa = rng.normal(scale=5.0, size=n)
            batch = RecordBatch(xa, sel.astype(float), sel)
            chk = estimator.boost_identity_check(batch)
            assert chk.passed
            assert abs(chk.lhs - chk.rhs) <= 1e-12
            done += 1

    def test_sampled_records_pass(self, theta30):
        batch = estimator.sample_records(theta30, 10000)
        assert estimator.boost_identity_check(batch).passed

    def test_requires_selected_record(self):
        batch = RecordBatch([1.0], [0.0], [False])
        with pytest.raises(EmptyPostSelectionError):
            estimator.boost_identity_check(batch)

    @pytest.mark.parametrize("name", ["qubit-theta30", "imaginary-sigma-x"])
    @pytest.mark.parametrize("sampler", ["sample_records", "sample_ideal"])
    def test_sides_are_summarize_statistics(self, sampler, name):
        # three full chunks and a partial one, as a streamed run sees them
        sc, n, seed = scenario.preset(name), 3 * estimator.CHUNK_SIZE + 3395, 2021
        draw = getattr(estimator, sampler)
        batch = draw(sc, n, seed=seed)
        s = estimator.summarize(batch, sc)
        chk = estimator.boost_identity_check(batch)
        assert chk.lhs == s.mean_selected_A * s.mean_F
        assert chk.rhs == s.mean_all_AF
        totals = draw(sc, n, seed=seed, sink=estimator.RunTotals(n))
        assert estimator.boost_identity_check(totals) == chk


class TestExactMoments:
    def test_amplified_qubit_values(self, theta30):
        em = estimator.exact_moments(theta30)
        assert em["mean_A"] == pytest.approx(0.025, abs=1e-10)
        assert em["mean_F"] == pytest.approx(0.250468457153, abs=1e-9)
        assert em["correlation_over_gA"] == pytest.approx(0.5, abs=1e-10)
        # conditional estimate 2/(1 + 0.75 g^2) up to residual selection bias
        assert em["estimate"] == pytest.approx(2.0 / 1.001875, abs=5e-5)
        assert abs(em["estimate"] - 2.0) < 0.01
        assert em["std_error"] == 0.0

    def test_imaginary_scenario_value(self, imaginary):
        em = estimator.exact_moments(imaginary)
        assert em["estimate"] == pytest.approx(-0.9987507809245, abs=1e-9)

    def test_unreachable_threshold_raises(self, theta30):
        sc = replace(theta30, run=replace(theta30.run, threshold=10.0))
        with pytest.raises(EmptyPostSelectionError):
            estimator.exact_moments(sc)


def masked_moments(sc):
    """exact_moments with the selected columns copied through a boolean mask, the reference form."""
    state = estimator.coupled_state(sc)
    density, vals_a, step_a, vals_f, step_f = estimator._readout_axis(sc, state)
    cell = density[:, vals_f > sc.run.threshold] * (step_a * step_f)
    mass = float(cell.sum())
    if mass <= 0:
        raise EmptyPostSelectionError("post-selection region carries no probability mass")
    corr = vonneumann.position_correlation(state)
    selected_mean = float((cell.sum(axis=1) * vals_a).sum() / mass)
    return {
        "mean_A": vonneumann.mean_pointer(state, 0),
        "mean_F": vonneumann.mean_pointer(state, 1),
        "correlation_AF": corr,
        "correlation_over_gA": corr / sc.ga_ta,
        "selected_mass": mass,
        "selected_mean": selected_mean,
        "estimate": estimator._readout_prefactor(sc) * selected_mean,
        "std_error": 0.0,
    }


# x_F steps by 1/256 from -2 on both presets: 0.5, 0.50390625 and 1.99609375 (the
# last position) are grid points, 0.498046875 is half a cell below 0.5, 0.1234 lies
# inside a cell and -3.0 is below the grid
SLICE_THRESHOLDS = (0.5, 0.50390625, 0.498046875, 0.1234, -3.0, 1.99609375)


class TestSelectedColumns:
    """exact_moments' column slice against the boolean-mask copy it replaced."""

    # 72 cases of two exact_moments each: expected about 1 s in all, measured 0.5 s
    @pytest.mark.parametrize("name", ["qubit-theta30", "imaginary-sigma-x"])
    @pytest.mark.parametrize("readout", ["position", "momentum"])
    @pytest.mark.parametrize("threshold", SLICE_THRESHOLDS)
    @pytest.mark.parametrize("ga_ta", [0.03, 0.05, 0.07])
    def test_matches_mask(self, name, readout, threshold, ga_ta):
        sc = scenario.preset(name)
        sc = replace(sc, ga_ta=ga_ta, run=replace(sc.run, readout=readout, threshold=threshold))
        if threshold >= sc.pointer_f.grid(sc.hbar).positions[-1]:
            for moments in (estimator.exact_moments, masked_moments):
                with pytest.raises(EmptyPostSelectionError):
                    moments(sc)
            return
        got, want = estimator.exact_moments(sc), masked_moments(sc)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=0, abs=1e-14), key

    @pytest.mark.parametrize("readout", ["position", "momentum"])
    def test_grid_point_threshold_excludes_its_column(self, theta30, readout):
        sc = replace(theta30, run=replace(theta30.run, readout=readout, threshold=0.5))
        density, _, step_a, positions, step_f = estimator._readout_axis(
            sc, estimator.coupled_state(sc))
        column = float(density[:, np.flatnonzero(positions == 0.5)[0]].sum()) * step_a * step_f
        assert column > 0

        def moments(threshold):
            return estimator.exact_moments(replace(sc, run=replace(sc.run, threshold=threshold)))

        on = moments(0.5)
        # the column at 0.5 is out: the same slice as a threshold just above it
        assert on == moments(np.nextafter(0.5, np.inf))
        below = moments(np.nextafter(0.5, -np.inf))
        assert below["selected_mass"] - on["selected_mass"] == pytest.approx(column, rel=1e-9)


def haar_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def qudit_scenario(dim, n_a, seed):
    """A random d-level scenario: Hermitian A of spectral radius 1, Haar I and F.

    Both grids hold the presets' sigma and extent, 20 sigma of device A a side.
    """
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = m + m.conj().T
    a /= np.max(np.abs(np.linalg.eigvalsh(a)))
    return scenario.validate(scenario.Scenario(
        system_dim=dim, a_matrix=a, i_vector=haar_ket(rng, dim), f_vector=haar_ket(rng, dim),
        ga_ta=0.3, gf_tf=1.0, hbar=1.0,
        pointer_a=scenario.PointerSettings(1.0, n_a, 40.0),
        pointer_f=scenario.PointerSettings(0.05, 1024, 4.0),
        run=scenario.RunSettings(mode="exact-moments", threshold=0.5),
    ))


def test_coupled_state_memory_linear_in_dim():
    # the factored state holds K x (d + n_A + n_F) values; at d = 16 and
    # n_A = 4096 a K x d x n_A product alone would take 16 MiB
    sc = qudit_scenario(16, 4096, seed=16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimator.coupled_state(sc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * sc.system_dim * sc.pointer_a.n_points * 16


@st.composite
def gaussian_scenarios(draw):
    """Qubit and qutrit scenarios whose grids hold the continuum Gaussians.

    Resolution and headroom, fixed before any draw: sigma/dx >= 4 on both
    grids; at least 10 sigma between the largest shift and each grid edge;
    the threshold at least 9 sigma_F from both selector centres, 0 and
    gF_tF, because the grid's half-line sum is not spectrally accurate near
    a Gaussian's centre.
    """
    dim = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = (m + m.conj().T) / 2
    # device A: extent/sigma = n/per_sigma >= 24 leaves >= 2 sigma of reach
    n_a = draw(st.sampled_from([128, 256, 512]))
    per_sigma_a = draw(st.floats(4.0, n_a / 24))
    sigma_a = draw(st.floats(0.5, 2.0))
    extent_a = n_a * sigma_a / per_sigma_a
    reach = (extent_a / 2 - 10 * sigma_a) * draw(st.floats(0.02, 1.0))
    ga_ta = reach / float(np.max(np.abs(np.linalg.eigvalsh(a)))) * draw(st.sampled_from([1, -1]))
    # device F: extent/sigma >= 56 fits centres 18 sigma apart plus 10 sigma a side
    n_f = draw(st.sampled_from([256, 512]))
    per_sigma_f = draw(st.floats(4.0, n_f / 56))
    sigma_f = draw(st.floats(0.02, 0.2))
    extent_f = n_f * sigma_f / per_sigma_f
    gf_tf = draw(st.floats(18 * sigma_f, extent_f / 2 - 10 * sigma_f)) * draw(st.sampled_from([1, -1]))
    lo, hi = min(0.0, gf_tf) + 9 * sigma_f, max(0.0, gf_tf) - 9 * sigma_f
    threshold = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
    return scenario.Scenario(
        system_dim=dim, a_matrix=a, i_vector=haar_ket(rng, dim), f_vector=haar_ket(rng, dim),
        ga_ta=ga_ta, gf_tf=gf_tf, hbar=draw(st.sampled_from([0.5, 1.0, 2.0])),
        pointer_a=scenario.PointerSettings(sigma_a, n_a, extent_a),
        pointer_f=scenario.PointerSettings(sigma_f, n_f, extent_f),
        run=scenario.RunSettings(mode="exact-moments", threshold=threshold),
    )


ORACLE_FIELDS = ("mean_A", "mean_F", "correlation_AF", "selected_mass", "selected_mean")


class TestGaussianMoments:
    """The all-orders closed form against the grid's exact_moments."""

    @pytest.mark.parametrize("name", ["qubit-theta30", "imaginary-sigma-x"])
    @pytest.mark.parametrize("readout", ["position", "momentum"])
    def test_matches_exact_moments_on_presets(self, name, readout):
        sc = scenario.preset(name)
        sc = replace(sc, run=replace(sc.run, readout=readout))
        got, want = estimator.gaussian_moments(sc), estimator.exact_moments(sc)
        for key in ORACLE_FIELDS:
            assert got[key] == pytest.approx(want[key], abs=1e-10), key

    @pytest.mark.parametrize("readout", ["position", "momentum"])
    def test_matches_exact_moments_at_five_levels(self, readout):
        sc = qudit_scenario(5, 512, seed=5)
        sc = replace(sc, run=replace(sc.run, readout=readout))
        got, want = estimator.gaussian_moments(sc), estimator.exact_moments(sc)
        for key in ORACLE_FIELDS:
            assert got[key] == pytest.approx(want[key], abs=1e-10), key

    def test_selector_mean_identity(self, theta30):
        # the red acceptance test's 0.250468457153: the A coupling damps the
        # cross term between A's two eigenbranches by exp(-gA^2 / 2 sigma_A^2)
        damping = math.exp(-theta30.ga_ta**2 / (2 * theta30.pointer_a.sigma**2))
        want = theta30.gf_tf * (0.5625 + 0.0625 - 0.375 * damping)
        assert want == pytest.approx(0.250468457153, abs=1e-12)
        assert estimator.gaussian_moments(theta30)["mean_F"] == pytest.approx(want, abs=1e-12)

    # 60 examples, each two exact_moments on at most 512 x 512 cells:
    # declared at about 1 s in all
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(gaussian_scenarios())
    def test_matches_exact_moments_on_drawn_scenarios(self, sc):
        scenario.validate(sc)
        for readout in ("position", "momentum"):
            probe = replace(sc, run=replace(sc.run, readout=readout))
            got, want = estimator.gaussian_moments(probe), estimator.exact_moments(probe)
            for key in ORACLE_FIELDS:
                assert got[key] == pytest.approx(want[key], abs=1e-10), (readout, key)

    def test_empty_selection_raises(self, theta30):
        sc = replace(theta30, run=replace(theta30.run, threshold=10.0))
        with pytest.raises(EmptyPostSelectionError):
            estimator.gaussian_moments(sc)


class TestConvergence:
    def streamed_estimate(self, sc, g, n):
        probe = replace(sc, ga_ta=g)
        selected = 0
        acc = 0.0
        step = 5000000
        for lo in range(0, n, step):
            batch = estimator.sample_records(probe, min(step, n - lo), start=lo)
            selected += int(batch.selected.sum())
            acc += float(batch.value_A[batch.selected].sum())
        return acc / selected / g

    def test_error_shrinks_with_strength_at_fixed_information(self, theta30):
        # n g^2 held at 1e4 keeps the sampling error near 0.02 while the
        # first-order bias scales as g^2
        errors = {}
        for g in (0.2, 0.05, 0.02):
            n = int(round(1e4 / g**2))
            errors[g] = abs(self.streamed_estimate(theta30, g, n) - 2.0)
        assert errors[0.05] <= 0.1
        assert errors[0.2] > errors[0.02]


class TestModeAgreement:
    def test_pointer_and_ideal_estimates_agree(self, theta30):
        n = 1000000
        sp = estimator.summarize(estimator.sample_records(theta30, n), theta30)
        si = estimator.summarize(estimator.sample_ideal(theta30, n), theta30)
        combined = math.hypot(sp.std_error, si.std_error)
        misclassification = math.erfc(
            theta30.gf_tf / (2.0 * math.sqrt(2.0) * theta30.pointer_f.sigma)
        )
        assert abs(sp.estimate - si.estimate) <= 3.0 * combined + misclassification


class TestRecordDump:
    def test_csv_shape_and_roundtrip(self, theta30):
        batch = estimator.sample_records(theta30, 50)
        buf = io.StringIO()
        estimator.dump_records(batch, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index,value_A,value_F,selected"
        assert len(lines) == 51
        for k, line in enumerate(lines[1:]):
            idx, xa, xf, sel = line.split(",")
            assert int(idx) == k
            assert float(xa) == batch.value_A[k]  # 17 digits round-trip exactly
            assert float(xf) == batch.value_F[k]
            assert sel in ("0", "1")
            assert (sel == "1") == bool(batch.selected[k])


def reference_dump(records, handle):
    """The one-row-per-write writer dump_records must match byte for byte."""
    xa, xf, sel = estimator._columns(records)
    handle.write("index,value_A,value_F,selected\n")
    for k in range(xa.size):
        handle.write(f"{k},{xa[k]:.17g},{xf[k]:.17g},{1 if sel[k] else 0}\n")


def dump_matching_reference(records) -> str:
    got, want = io.StringIO(), io.StringIO()
    estimator.dump_records(records, got)
    reference_dump(records, want)
    assert_same_text(got.getvalue(), want.getvalue())
    return got.getvalue()


def assert_same_text(got: str, want: str) -> None:
    # name the first differing line: pytest's diff of two long texts is slow
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    pairs = zip(got_lines, want_lines)
    first = next(((k, a, b) for k, (a, b) in enumerate(pairs) if a != b), None)
    assert first is None, f"line {first[0]}: {first[1]!r} != {first[2]!r}"
    assert len(got_lines) == len(want_lines), f"{len(got_lines)} != {len(want_lines)} lines"
    assert got == want


EDGE_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e17, 0.1, 1e-5,
               float(2**53)]


class TestBlockWriter:
    def test_edge_values_match_reference(self):
        edges = np.array(EDGE_VALUES)
        text = dump_matching_reference(
            RecordBatch(edges, edges[::-1], np.arange(edges.size) % 2 == 0)
        )
        column_a = [line.split(",")[1] for line in text.splitlines()[1:]]
        assert column_a[:6] == ["0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324"]

    @pytest.mark.parametrize("blocks, rows", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["0", "1", "B-1", "B", "B+1", "3B+7"])
    def test_row_counts_match_reference(self, blocks, rows):
        n = blocks * estimator.DUMP_BLOCK_ROWS + rows
        rng = np.random.default_rng(n)
        # random bit patterns reach every exponent, subnormals and NaN payloads
        xa = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        text = dump_matching_reference(RecordBatch(xa, rng.normal(size=n), rng.random(n) < 0.5))
        assert text.count("\n") == n + 1

    def test_record_list_matches_reference(self):
        dump_matching_reference(
            [MeasurementRecord(v, -v, k % 2 == 0) for k, v in enumerate(EDGE_VALUES)]
        )


def binary_batch(n):
    """value_F of 0.0 or 1.0 and a flag drawn apart from it, so all four pairs occur."""
    rng = np.random.default_rng([1604, n])
    xa = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    return RecordBatch(xa, (rng.random(n) < 0.5).astype(float), rng.random(n) < 0.5)


class TestTailTable:
    """A 0/1 value_F column is written from _DUMP_TAILS, byte for byte as the reference.

    With _DUMP_ROW unset the four-field rows cannot be formatted, so a batch
    that matches the reference there took the tail table.
    """

    @pytest.fixture
    def tails_only(self, monkeypatch):
        monkeypatch.setattr(estimator, "_DUMP_ROW", None)

    # four rows: well under 10 ms
    def test_all_four_pairs(self, tails_only):
        text = dump_matching_reference(
            RecordBatch([0.5, -0.5, 1e300, 5e-324], [0.0, 0.0, 1.0, 1.0], [False, True, False, True])
        )
        assert [line.split(",", 2)[2] for line in text.splitlines()[1:]] == [
            "0,0", "0,1", "1,0", "1,1"]

    # at most 3B+7 = 12,295 rows through both writers: about 0.2 s in all
    @pytest.mark.parametrize("blocks, rows", [(1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["B-1", "B", "B+1", "3B+7"])
    def test_row_counts(self, tails_only, blocks, rows):
        n = blocks * estimator.DUMP_BLOCK_ROWS + rows
        text = dump_matching_reference(binary_batch(n))
        assert text.count("\n") == n + 1

    # seven records: well under 10 ms
    def test_record_list(self, tails_only):
        dump_matching_reference([MeasurementRecord(v, float(k % 4 > 1), k % 2 == 1)
                                 for k, v in enumerate(EDGE_VALUES[:7])])

    # 2B+3 rows each, the odd value in the last block: about 0.3 s in all
    @pytest.mark.parametrize("odd", [-0.0, math.nan, np.nextafter(1.0, 2.0), 2.0],
                             ids=["-0", "nan", "1+ulp", "2"])
    def test_other_value_takes_four_fields(self, odd):
        batch = binary_batch(2 * estimator.DUMP_BLOCK_ROWS + 3)
        batch.value_F[-2] = odd
        text = dump_matching_reference(batch)
        assert text.splitlines()[-2].split(",")[2] == f"{odd:.17g}"


def sum_bits(value) -> int:
    return int(np.array(value, dtype=np.float64).view(np.uint64))


def order_sensitive_values(rng, n):
    # magnitudes over 16 decades make every summation order round differently;
    # the selection product adds the signed zeros of unselected records
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    return values * (rng.random(n) < 0.75)


def streamed_sum(values, sizes):
    acc = estimator.PairwiseSum(values.size)
    lo = 0
    for size in sizes:
        acc.add(values[lo:lo + size])
        lo += size
    assert lo == values.size
    return acc.total


def random_split(rng, n, pieces):
    cuts = np.sort(rng.integers(0, n + 1, pieces - 1)) if n else np.zeros(pieces - 1, int)
    return np.diff(np.concatenate([[0], cuts, [n]])).tolist()


class TestPairwiseSum:
    """The streamed sum must equal np.add.reduce bit for bit.

    If a numpy release changes its summation tree this fails first; the fix
    belongs in PairwiseSum, never in these checks.
    """

    C = estimator.CHUNK_SIZE

    @pytest.mark.parametrize("n", [0, 1, 5, 7, 8, 9, 16, 127, 128, 129, 136, 257, 1000,
                                   C - 1, C, C + 1, 200000, 1000000])
    def test_matches_add_reduce(self, n):
        rng = np.random.default_rng([1604, n])
        values = order_sensitive_values(rng, n)
        want = sum_bits(np.add.reduce(values))
        if n >= 1000:
            # the data can tell summation orders apart
            assert sum_bits(np.cumsum(values)[-1]) != want
        assert sum_bits(streamed_sum(values, [n])) == want
        for pieces in (2, 3, 17):
            assert sum_bits(streamed_sum(values, random_split(rng, n, pieces))) == want
        for start in (0, 1, 8, self.C - 129, int(rng.integers(0, 10 * self.C))):
            sizes = [hi - lo for _, lo, hi in estimator._chunk_plan(start, n)]
            assert sum_bits(streamed_sum(values, sizes)) == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 3000), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_random_lengths_and_splits(self, n, pieces, seed):
        rng = np.random.default_rng(seed)
        values = order_sensitive_values(rng, n)
        got = streamed_sum(values, random_split(rng, n, pieces))
        assert sum_bits(got) == sum_bits(np.add.reduce(values))

    def test_signed_zero_total(self):
        values = np.full(300, -0.0)
        assert sum_bits(streamed_sum(values, [100, 200])) == sum_bits(np.add.reduce(values))

    def test_missing_values_raise(self):
        acc = estimator.PairwiseSum(10)
        acc.add(np.ones(9))
        with pytest.raises(ValueError):
            acc.total


class TestStreamedRun:
    def test_totals_match_record_batch(self, theta30):
        n = 3 * estimator.CHUNK_SIZE + 17
        batch = estimator.summarize(estimator.sample_records(theta30, n), theta30)
        totals = estimator.sample_records(theta30, n, sink=estimator.RunTotals(n))
        assert len(totals) == n
        assert estimator.summarize(totals, theta30) == batch

    def test_thread_window(self, imaginary, monkeypatch):
        # chunks drawn but not yet consumed never exceed 2 * threads
        lock, state = threading.Lock(), {"drawn": 0, "used": 0, "peak": 0}
        real_block, real_add = estimator._uniform_block, estimator.RunTotals.add

        def counted_block(*args):
            with lock:
                state["drawn"] += 1
                state["peak"] = max(state["peak"], state["drawn"] - state["used"])
            return real_block(*args)

        def slow_add(self, *columns):
            time.sleep(0.01)  # a slow consumer lets the workers run ahead
            with lock:
                state["used"] += 1
            real_add(self, *columns)

        monkeypatch.setattr(estimator, "_uniform_block", counted_block)
        monkeypatch.setattr(estimator.RunTotals, "add", slow_add)
        raw = scenario.to_dict(imaginary)
        raw["run"].update(mode="sample-ideal", samples=10 * estimator.CHUNK_SIZE)
        sc = scenario.from_dict(raw)
        doc = cli.run_scenario(sc, threads=2)
        assert doc["n_total"] == 10 * estimator.CHUNK_SIZE
        assert state["drawn"] == state["used"] == 10
        assert state["peak"] <= 4

    def test_segment_dumps_concatenate(self, theta30):
        whole, head, tail = io.StringIO(), io.StringIO(), io.StringIO()
        estimator.dump_records(estimator.sample_records(theta30, 5000), whole)
        estimator.dump_records(estimator.sample_records(theta30, 3000), head)
        estimator.dump_records(estimator.sample_records(theta30, 2000, start=3000), tail)
        assert_same_text(head.getvalue() + tail.getvalue(), whole.getvalue())
        assert estimator.sample_records(theta30, 10, start=7)[2:5].start == 9

    # three sample_ideal calls of at most 5,000 records and their dumps: about 0.05 s
    def test_ideal_segment_dumps_concatenate(self, theta30):
        whole, head, tail = io.StringIO(), io.StringIO(), io.StringIO()
        estimator.dump_records(estimator.sample_ideal(theta30, 5000), whole)
        estimator.dump_records(estimator.sample_ideal(theta30, 3000), head)
        estimator.dump_records(estimator.sample_ideal(theta30, 2000, start=3000), tail)
        assert_same_text(head.getvalue() + tail.getvalue(), whole.getvalue())
