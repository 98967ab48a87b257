"""Both samplers against the densities they draw from.

sample_ideal reads its post-selection split from the coupled state's
branch weights; hand_split below is the projection onto F written out by
hand, the reference form, and every expected count of sample_ideal comes
from it.  sample_records is held to the grid density exact_moments reads.

The goodness-of-fit gate bins value_A (and, in sample-pointer, value_F)
back to grid cells on a grid the test builds itself, pools the cells whose
expected count is below POOL_BELOW, and turns Pearson's chi-square into a
normal z by Wilson & Hilferty ("The distribution of chi-square", PNAS 17,
1931).  The selected fraction is held to its binomial standard error and
the estimate to summarize's std_error.  Every |z| must be at most Z_LIMIT.
Thresholds, seeds (the presets' own, 7 and 11) and the expected run time
(about 0.25 s per case, 2-3 s for the 8 cases) were fixed before the first
run.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from weakmeas import estimator, pointer, qmath, scenario, vonneumann

SAMPLES = 1_000_000
Z_LIMIT = 4.0
POOL_BELOW = 5.0


def qutrit():
    """A three-level scenario: |F><F| then has a twice-degenerate eigenvalue 0."""
    rng = np.random.default_rng(23)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    kets = [v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))]
    sc = replace(scenario.preset("qubit-theta30"), system_dim=3, a_matrix=(m + m.conj().T) / 4,
                 i_vector=kets[0], f_vector=kets[1], ga_ta=0.2)
    return scenario.validate(sc)


def case(name, readout):
    sc = qutrit() if name == "qutrit" else scenario.preset(name)
    return replace(sc, run=replace(sc.run, readout=readout))


def hand_split(sc):
    """(selected, rest, p_select): sample_ideal's split written out by hand.

    |<F|psi_A>|^2 and the rest of |psi_A|^2, summed over the system, with
    psi_A the state after the A coupling; both in the configured readout,
    as densities per unit of it.  p_select is the selected mass.
    """
    state = estimator.after_a_coupling(sc)
    grid_a = state.pointers[0]
    f_vec = qmath.normalize(qmath.ket(sc.f_vector))
    amps = state.amplitudes
    sel_amps = np.tensordot(np.conj(f_vec), amps, axes=(0, 0))
    rest_amps = amps - np.multiply.outer(f_vec, sel_amps)
    p_select = float(np.sum(np.abs(sel_amps) ** 2) * grid_a.dx)
    if sc.run.readout == "momentum":
        sel_amps = pointer.momentum_amplitudes(sel_amps, grid_a)
        rest_amps = pointer.momentum_amplitudes(rest_amps, grid_a)
    return np.abs(sel_amps) ** 2, np.sum(np.abs(rest_amps) ** 2, axis=0), p_select


def ideal_replay(sc, n):
    """sample_ideal's columns redrawn from hand_split through searchsorted."""
    sel, rest, p_select = hand_split(sc)
    vals_a, step_a = estimator._readout_values(sc, sc.grid_a())
    cdfs = [estimator._cell_cdf(d) for d in (sel, rest)]
    xa, xf = [], []
    for chunk_index, row_lo, row_hi in estimator._chunk_plan(0, n):
        u = estimator._uniform_block(sc.run.seed, chunk_index, row_lo, row_hi)
        chose = u[:, 0] < p_select
        cells = [np.minimum(np.searchsorted(c, u[:, 1], side="right"), c.size - 1) for c in cdfs]
        xa.append(vals_a[np.where(chose, *cells)] + (u[:, 2] - 0.5) * step_a)
        xf.append(np.where(chose, 1.0, 0.0))
    return np.concatenate(xa), np.concatenate(xf)


SPLIT_CASES = [("qubit-theta30", "position"), ("qubit-theta30", "momentum"),
               ("imaginary-sigma-x", "position"), ("imaginary-sigma-x", "momentum"),
               ("qutrit", "position"), ("qutrit", "momentum")]


class TestIdealSplit:
    """The branch weights sample_ideal reads against the hand-written projection."""

    @pytest.mark.parametrize("name, readout", SPLIT_CASES)
    def test_branch_weights_match_hand_split(self, name, readout):
        sc = case(name, readout)
        sel, rest, _ = hand_split(sc)
        g, _ = vonneumann.branch_weights(estimator.coupled_state(sc), readout == "momentum")
        assert g.shape[0] == sc.system_dim
        np.testing.assert_allclose(g[0], sel, rtol=0, atol=1e-14 * sel.max())
        np.testing.assert_allclose(g[1:].sum(axis=0), rest, rtol=0, atol=1e-14 * rest.max())

    @pytest.mark.parametrize("name, readout", SPLIT_CASES)
    def test_selected_mass_matches_oracle(self, name, readout):
        # at sigma_F = 0.05 the selector's erfc tail is about 1e-23, so the
        # oracle's selected mass is the weight of the eigenvalue-1 branch
        sc = case(name, readout)
        want = estimator.gaussian_moments(sc)["selected_mass"]
        g, _ = vonneumann.branch_weights(estimator.coupled_state(sc), readout == "momentum")
        _, step_a = estimator._readout_values(sc, sc.grid_a())
        assert float(np.sum(g[0]) * step_a) == pytest.approx(want, abs=1e-12)
        assert hand_split(sc)[2] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("name, readout", SPLIT_CASES)
    def test_sampler_replays_hand_split(self, name, readout):
        sc = case(name, readout)
        batch = estimator.sample_ideal(sc, 70000)
        xa, xf = ideal_replay(sc, 70000)
        np.testing.assert_array_equal(batch.value_F, xf)
        np.testing.assert_array_equal(batch.value_A, xa)


def wilson_hilferty(observed, expected):
    """z of Pearson's chi-square of counts against expected counts.

    Cells expected below POOL_BELOW are pooled into one bin; the pool may
    still be small, and a pool expected at exactly 0 must be empty.
    """
    low = expected < POOL_BELOW
    obs = np.append(observed[~low], observed[low].sum())
    exp = np.append(expected[~low], expected[low].sum())
    if exp[-1] == 0:
        assert obs[-1] == 0, f"{obs[-1]} records in cells of zero probability"
        obs, exp = obs[:-1], exp[:-1]
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    dof = exp.size - 1
    return ((chi2 / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))


def cell_counts(values, start, step, n_cells):
    cells = np.rint((values - start) / step).astype(np.int64)
    assert cells.min() >= 0 and cells.max() < n_cells, "values off the grid"
    return np.bincount(cells, minlength=n_cells)


def value_grid(grid, readout):
    """(first value, step) of the device-A readout grid, built here."""
    if readout == "momentum":
        dp = 2 * math.pi * grid.hbar / grid.extent
        return -(grid.n_points // 2) * dp, dp
    return -grid.extent / 2, grid.extent / grid.n_points


def pointer_model(sc):
    """sample-pointer's cell probabilities from exact_moments' grid density."""
    state = estimator.coupled_state(sc)
    density, _, step_a, vals_f, step_f = estimator._readout_axis(sc, state)
    cells = density * (step_a * step_f)
    kept = cells[:, vals_f > sc.run.threshold].sum(axis=1)
    return {"A": cells.sum(axis=1), "A_selected": kept / kept.sum(), "F": cells.sum(axis=0),
            "p_select": float(kept.sum()), "estimate": estimator.exact_moments(sc)["estimate"]}


def ideal_model(sc):
    """sample-ideal's cell probabilities from hand_split, never from the branch weights."""
    sel, rest, p_select = hand_split(sc)
    start, step = value_grid(sc.grid_a(), sc.run.readout)
    vals = start + step * np.arange(sel.size)
    return {"A": p_select * sel / sel.sum() + (1 - p_select) * rest / rest.sum(),
            "A_selected": sel / sel.sum(), "p_select": p_select,
            "estimate": estimator._readout_prefactor(sc) * float(vals @ sel / sel.sum())}


FIT_CASES = [(sampler, name, readout)
             for sampler in ("sample_records", "sample_ideal")
             for name in ("qubit-theta30", "imaginary-sigma-x")
             for readout in ("position", "momentum")]


@pytest.fixture(scope="module", params=FIT_CASES, ids=["-".join(c) for c in FIT_CASES])
def fit(request):
    """(scenario, 1e6 records at the preset seed, the model's probabilities)."""
    sampler, name, readout = request.param
    sc = case(name, readout)
    model = pointer_model(sc) if sampler == "sample_records" else ideal_model(sc)
    return sc, getattr(estimator, sampler)(sc, SAMPLES), model


class TestGoodnessOfFit:
    """Each sampler's 1e6 records against the density it draws from, |z| <= Z_LIMIT."""

    def test_value_a(self, fit):
        sc, batch, model = fit
        start, step = value_grid(sc.grid_a(), sc.run.readout)
        counts = cell_counts(batch.value_A, start, step, model["A"].size)
        assert abs(wilson_hilferty(counts, SAMPLES * model["A"])) <= Z_LIMIT

    def test_value_a_selected(self, fit):
        sc, batch, model = fit
        start, step = value_grid(sc.grid_a(), sc.run.readout)
        chosen = batch.value_A[batch.selected]
        counts = cell_counts(chosen, start, step, model["A_selected"].size)
        assert abs(wilson_hilferty(counts, chosen.size * model["A_selected"])) <= Z_LIMIT

    def test_value_f(self, fit):
        sc, batch, model = fit
        if "F" not in model:
            assert set(np.unique(batch.value_F)) <= {0.0, 1.0}
            return
        grid_f = sc.grid_f()
        counts = cell_counts(batch.value_F, -grid_f.extent / 2, grid_f.dx, grid_f.n_points)
        assert abs(wilson_hilferty(counts, SAMPLES * model["F"])) <= Z_LIMIT

    def test_selected_fraction(self, fit):
        _, batch, model = fit
        p = model["p_select"]
        z = (np.count_nonzero(batch.selected) - SAMPLES * p) / math.sqrt(SAMPLES * p * (1 - p))
        assert abs(z) <= Z_LIMIT

    def test_estimate(self, fit):
        sc, batch, model = fit
        summary = estimator.summarize(batch, sc)
        assert abs(summary.estimate - model["estimate"]) <= Z_LIMIT * summary.std_error
