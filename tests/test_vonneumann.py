"""System+device evolution, the two-device readers, and their closed-form references.

The references are analytic: shifted continuum Gaussians sampled on the
grid for pointwise densities and amplitudes, and estimator.gaussian_moments
for the moments.
"""
from dataclasses import replace

import numpy as np
import pytest

from weakmeas import entanglement, estimator, pointer, qmath, scenario, vonneumann
from weakmeas.errors import (
    DimensionError,
    GridExtentError,
    MissingAxisError,
    NormalizationError,
)
from weakmeas.scenario import PointerSettings

HBAR = 1.0
THETA_I = np.array([np.sqrt(3) / 2, 0.5], dtype=complex)
THETA_F = np.array([np.sqrt(3) / 2, -0.5], dtype=complex)
G_A = 0.05
G_F = 1.0


def a_pointer(sigma=1.0):
    return pointer.gaussian_pointer(sigma=sigma, n_points=512, extent=16.0 * sigma, hbar=HBAR)


def f_pointer():
    return pointer.gaussian_pointer(sigma=0.05, n_points=512, extent=4.0, hbar=HBAR)


def device_norm(s):
    """sqrt(sum |psi|^2 dx) of a one-device state, by quadrature."""
    return float(np.sqrt(np.sum(np.abs(s.amplitudes) ** 2) * s.measure))


def device_mean(s):
    """Quadrature mean position of the device of a one-device state."""
    marginal = np.sum(np.abs(s.amplitudes) ** 2, axis=0)
    return float(np.sum(marginal * s.pointers[0].positions) * s.measure)


def product_pair(system):
    """Fresh two-device product state: device 1 attached by a zero identity coupling."""
    s = vonneumann.initial_state(system, [a_pointer()])
    return vonneumann.attach_exact(s, f_pointer(), vonneumann.CouplingSpec(np.eye(s.system_dim), 0.0))


def theta_state(g_a=G_A, observable=None, order="af"):
    """Both couplings on THETA_I; order "fa" couples F first, which makes it device 0."""
    obs = qmath.sigma_z if observable is None else observable
    steps = [(a_pointer(), vonneumann.CouplingSpec(obs, g_a)),
             (f_pointer(), vonneumann.CouplingSpec(qmath.projector(THETA_F), G_F))]
    if order == "fa":
        steps.reverse()
    (grid0, first), (grid1, second) = steps
    s = vonneumann.evolve_exact(vonneumann.initial_state(THETA_I, [grid0]), first)
    return vonneumann.attach_exact(s, grid1, second)


class TestInitialState:
    def test_product_schmidt(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        vec = s.amplitudes.ravel() * np.sqrt(s.measure)
        sv = qmath.schmidt(vec, 2, 512)
        np.testing.assert_allclose(sv[0], 1.0, atol=1e-12)
        assert sv[1] <= 1e-12

    def test_norm_and_pointer_means(self):
        s = product_pair(THETA_I)
        assert vonneumann.total_norm(s) == pytest.approx(1.0, abs=1e-10)
        assert abs(vonneumann.mean_pointer(s, 0)) <= 1e-10
        assert abs(vonneumann.mean_pointer(s, 1)) <= 1e-10

    def test_rejects_unnormalized_system(self):
        with pytest.raises(NormalizationError):
            vonneumann.initial_state([1, 1], [a_pointer()])

    def test_axis_count_bounds(self):
        with pytest.raises(MissingAxisError):
            vonneumann.initial_state([1, 0], [])
        with pytest.raises(MissingAxisError):
            vonneumann.initial_state([1, 0], [a_pointer()] * 3)


class TestEvolveExact:
    def test_identity_observable_shifts_without_entangling(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        out = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(2), 0.8))
        assert device_mean(out) == pytest.approx(0.8, abs=1e-8)
        vec = out.amplitudes.ravel() * np.sqrt(out.measure)
        assert qmath.schmidt(vec, 2, 512)[1] <= 1e-12

    def test_eigenstate_input_stays_product(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        out = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, 0.3))
        assert device_mean(out) == pytest.approx(0.3, abs=1e-8)
        vec = out.amplitudes.ravel() * np.sqrt(out.measure)
        assert qmath.schmidt(vec, 2, 512)[1] <= 1e-12

    def test_tilted_state_mean_matches_expectation(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        out = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, G_A))
        # g <I|A|I> = 0.05 * 0.5
        assert device_mean(out) == pytest.approx(0.025, abs=1e-8)

    def test_unitarity_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = (m + m.conj().T) / 2
            a /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(a))))
            psi = qmath.normalize(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            s = vonneumann.initial_state(psi, [a_pointer()])
            out = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(a, 0.7))
            assert device_norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_mean_equals_strength_times_expectation_random(self):
        # single-device first-moment identity, exact at any strength
        rng = np.random.default_rng(32)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = (m + m.conj().T) / 2
            a /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(a))))
            psi = qmath.normalize(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            g = float(rng.uniform(0.01, 0.5))
            s = vonneumann.initial_state(psi, [a_pointer()])
            out = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(a, g))
            want = g * qmath.expectation(a, psi).real
            assert device_mean(out) == pytest.approx(want, abs=1e-8)

    def test_shift_guard_propagates(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        with pytest.raises(GridExtentError):
            vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, 2.5))

    def test_dimension_checks(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        with pytest.raises(DimensionError):
            vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(3), 0.1))


class TestDeviceDensities:
    def test_product_state_factorizes(self):
        s = product_pair(THETA_I)
        p = vonneumann.device_density(s)
        pa = p.sum(axis=1) * s.pointers[1].dx
        pf = p.sum(axis=0) * s.pointers[0].dx
        assert np.max(np.abs(p - np.outer(pa, pf))) <= 1e-12
        assert np.min(p) >= 0.0

    def test_identity_coupling_keeps_factorization(self):
        # the identity never marks the system, so device A factors out even
        # once device F is coupled to it
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(2), G_A))
        s = vonneumann.attach_exact(
            s, f_pointer(), vonneumann.CouplingSpec(qmath.projector(THETA_F), G_F)
        )
        p = vonneumann.device_density(s)
        pa = p.sum(axis=1) * s.pointers[1].dx
        pf = p.sum(axis=0) * s.pointers[0].dx
        assert np.max(np.abs(p - np.outer(pa, pf))) <= 1e-12

    def test_theta_scenario_mass(self):
        s = theta_state()
        p = vonneumann.device_density(s)
        assert np.sum(p) * s.measure == pytest.approx(1.0, abs=1e-10)

    def test_single_axis_raises(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        with pytest.raises(MissingAxisError):
            vonneumann.device_density(s)
        with pytest.raises(MissingAxisError):
            vonneumann.position_correlation(s)
        with pytest.raises(MissingAxisError):
            vonneumann.mean_pointer(s, 1)

    def test_momentum_density_fresh_state(self):
        s = product_pair(THETA_I)
        pm = vonneumann.device_momentum_density(s)
        dp = 2 * np.pi * HBAR / s.pointers[0].extent
        assert np.sum(pm) * dp * s.pointers[1].dx == pytest.approx(1.0, abs=1e-10)
        mom = pointer.momentum_values(s.pointers[0])
        mean_pi = np.sum(pm * mom[:, None]) * dp * s.pointers[1].dx
        assert abs(mean_pi) <= 1e-10

    def test_momentum_density_imaginary_scenario(self):
        # sigma_x with post-selection (|0>+i|1>)/sqrt(2) drags the selected
        # pointer momentum negative; post-selected mean frozen from the
        # dense-tensor route this state once had
        ini = np.array([1, 0], dtype=complex)
        fin = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        s = vonneumann.initial_state(ini, [a_pointer()])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_x, G_A))
        s = vonneumann.attach_exact(s, f_pointer(), vonneumann.CouplingSpec(qmath.projector(fin), G_F))
        pm = vonneumann.device_momentum_density(s)
        dp = 2 * np.pi * HBAR / s.pointers[0].extent
        mom = pointer.momentum_values(s.pointers[0])
        xf = s.pointers[1].positions
        sel = xf > 0.5 * G_F
        mass = np.sum(pm[:, sel]) * dp * s.pointers[1].dx
        mean_pi = np.sum(pm[:, sel] * mom[:, None]) * dp * s.pointers[1].dx / mass
        assert mean_pi < 0
        assert mean_pi == pytest.approx(-0.02496876952, abs=1e-9)


class TestMomentsAndOrder:
    def test_theta_scenario_pointer_means(self):
        s = theta_state()
        # the A mean is exact at strength*<I|A|I>; the F mean carries the
        # O(g^2) branch-decoherence term 0.375*(1-exp(-g^2/2)), the closed
        # form 0.5625 + 0.0625 - 0.375*exp(-g^2/2)
        assert vonneumann.mean_pointer(s, 0) == pytest.approx(0.025, abs=1e-8)
        assert vonneumann.mean_pointer(s, 1) == pytest.approx(0.250468457153, abs=1e-9)
        assert vonneumann.mean_pointer(s, 1) == pytest.approx(0.25, abs=1e-3)

    def test_theta_scenario_correlation(self):
        s = theta_state()
        # for sigma_z the cross-branch x matrix elements vanish, so the
        # first-order value 0.5*g is exact here up to quadrature
        assert vonneumann.position_correlation(s) / G_A == pytest.approx(0.5, abs=1e-10)

    def test_identity_coupling_correlation(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(2), G_A))
        s = vonneumann.attach_exact(
            s, f_pointer(), vonneumann.CouplingSpec(qmath.projector(THETA_F), G_F)
        )
        corr = vonneumann.position_correlation(s)
        want = G_A * vonneumann.mean_pointer(s, 1)
        assert corr == pytest.approx(want, abs=1e-12)

    def test_correlation_first_order_convergence(self):
        # observable with asymmetric eigenvalues (1, 0) so branch decoherence
        # feeds the correlation; the deviation from 0.5 g <{F,A}> is odd in g
        # and must vanish at least quadratically
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        fhat = qmath.projector(THETA_F)
        target = 0.5 * qmath.expectation(qmath.anticommutator(fhat, proj0), THETA_I).real
        assert target == pytest.approx(0.375, abs=1e-15)
        strengths = np.array([0.01, 0.02, 0.05, 0.1])
        errs = []
        for g in strengths:
            s = theta_state(g_a=g, observable=proj0)
            errs.append(abs(vonneumann.position_correlation(s) - g * target))
        errs = np.array(errs)
        assert np.all(np.diff(errs) > 0)
        order = np.polyfit(np.log(strengths), np.log(errs), 1)[0]
        assert order >= 2.0
        # a single constant C then bounds err <= C g^2 over the fit range
        c = np.max(errs / strengths**2)
        assert np.all(errs <= c * strengths**2 + 1e-15)

    def test_coupling_order_matters(self):
        forward = vonneumann.position_correlation(theta_state(order="af"))
        reverse = vonneumann.position_correlation(theta_state(order="fa"))
        # selecting first collapses the system before the weak probe: the
        # branch algebra gives 0.125*g*g_F instead of 0.5*g*g_F.  In the
        # reverse order F is device 0, and <x_A x_F> is symmetric in the two
        assert abs(forward - reverse) > 0.01
        assert reverse / G_A == pytest.approx(0.125, abs=1e-6)


def gaussian(x, sigma):
    """The continuum ground Gaussian that gaussian_pointer samples."""
    return (2 * np.pi * sigma**2) ** -0.25 * np.exp(-(x**2) / (4 * sigma**2))


def gaussian_momentum(p, sigma, hbar):
    """Its momentum representation, sum |.|^2 dp = 1."""
    return (2 * sigma**2 / (np.pi * hbar**2)) ** 0.25 * np.exp(-((sigma * p / hbar) ** 2))


def analytic_branches(sc, second, momentum=False):
    """Closed-form (w, amp_a, amp_f) of the coupled state, on sc's grids.

    w holds the second observable's eigenvectors w_k as columns; amp_a
    (n_A x K) is w_k^H psi_A = sum_a c_ka phi_A(x - b_a) over A's branches,
    or its momentum representation; amp_f (K x n_F) is phi_F shifted by
    gF_tF lambda_k.  Psi = sum_k w_k amp_a[:, k] amp_f[k].
    """
    a = qmath.herm_eig(sc.a_matrix)
    b = qmath.herm_eig(qmath.projector(sc.f_vector) if second is None else second)
    shifts = sc.ga_ta * a.eigenvalues
    c = (b.eigenvectors.conj().T @ a.eigenvectors) * (a.eigenvectors.conj().T @ sc.i_vector)
    grid_a, grid_f = sc.grid_a(), sc.grid_f()
    if momentum:
        p = pointer.momentum_values(grid_a)
        cols = gaussian_momentum(p, grid_a.sigma, sc.hbar)[:, None] \
            * np.exp(-1j * np.multiply.outer(p, shifts) / sc.hbar)
    else:
        cols = gaussian(grid_a.positions[:, None] - shifts, grid_a.sigma)
    centres = sc.gf_tf * b.eigenvalues
    amp_f = gaussian(grid_f.positions[None, :] - centres[:, None], grid_f.sigma)
    return b.eigenvectors, cols @ c.T, amp_f


def analytic_density(sc, second, momentum=False):
    _, amp_a, amp_f = analytic_branches(sc, second, momentum)
    return np.abs(amp_a) ** 2 @ amp_f**2


def qutrit_pair():
    # random Hermitian A, and a non-projector second observable with three
    # distinct eigenvalues, so the factored state carries three branches
    rng = np.random.default_rng(31)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = (m + m.conj().T) / 4
    b = np.diag([0.8, -0.3, 0.1]).astype(complex)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    ini = rng.normal(size=3) + 1j * rng.normal(size=3)
    return a, q @ b @ q.conj().T, ini / np.linalg.norm(ini)


def qutrit_scenario():
    """The qutrit pair as a scenario, with its second observable.

    Its A grid holds 20 sigma a side, as the presets' do, so the grid
    pointer equals the continuum Gaussian to rounding.  f_vector is unused:
    the second observable takes the place of |F><F|.
    """
    a, b, ini = qutrit_pair()
    sc = replace(
        scenario.preset("qubit-theta30"), system_dim=3, a_matrix=a, i_vector=ini, f_vector=ini,
        ga_ta=0.2, gf_tf=0.9, pointer_a=PointerSettings(1.0, 512, 40.0),
        pointer_f=PointerSettings(0.05, 512, 4.0),
    )
    return sc, b


@pytest.fixture(scope="module", params=["qubit-theta30", "imaginary-sigma-x", "qutrit"])
def pair(request):
    """(state after the A coupling, factored two-device state, scenario, second observable).

    The second observable is None where it is the scenario's |F><F|.
    """
    if request.param == "qutrit":
        sc, second = qutrit_scenario()
        after_a = vonneumann.evolve_exact(
            vonneumann.initial_state(sc.i_vector, [sc.grid_a()]),
            vonneumann.CouplingSpec(sc.a_matrix, sc.ga_ta),
        )
        factored = vonneumann.attach_exact(
            after_a, sc.grid_f(), vonneumann.CouplingSpec(second, sc.gf_tf)
        )
        return after_a, factored, sc, second
    sc = scenario.preset(request.param)
    return estimator.after_a_coupling(sc), estimator.coupled_state(sc), sc, None


class TestFactoredMatchesDense:
    """The factored readers against the closed-form state; peaks are 1.6-4.8."""

    def test_position_density(self, pair):
        _, factored, sc, second = pair
        got = vonneumann.device_density(factored)
        assert np.max(np.abs(got - analytic_density(sc, second))) <= 1e-12

    def test_momentum_density(self, pair):
        _, factored, sc, second = pair
        got = vonneumann.device_momentum_density(factored)
        assert np.max(np.abs(got - analytic_density(sc, second, momentum=True))) <= 1e-12

    def test_moments(self, pair):
        _, factored, sc, second = pair
        want = estimator.gaussian_moments(sc, second)
        assert vonneumann.mean_pointer(factored, 0) == pytest.approx(want["mean_A"], abs=1e-12)
        assert vonneumann.mean_pointer(factored, 1) == pytest.approx(want["mean_F"], abs=1e-12)
        got = vonneumann.position_correlation(factored)
        assert got == pytest.approx(want["correlation_AF"], abs=1e-12)
        assert vonneumann.total_norm(factored) == pytest.approx(1.0, abs=1e-10)

    def test_expands_to_dense_amplitudes(self, pair):
        _, factored, sc, second = pair
        w, amp_a, amp_f = analytic_branches(sc, second)
        want = np.einsum("sk,xk,ky->sxy", w, amp_a, amp_f)
        got = np.einsum("ks,kx,ky->sxy", factored.vectors, factored.amplitudes, factored.columns)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_system_cut(self, pair):
        # the cut diagnostics reports, on the state after the A coupling:
        # psi = sum_a e_a phi_A(x - b_a) with e_a = v_a <v_a|I>, so the
        # system's reduced matrix is E S E^H with the closed-form overlaps S
        after_a, _, sc, _ = pair
        dec = qmath.herm_eig(sc.a_matrix)
        e = dec.eigenvectors * (dec.eigenvectors.conj().T @ sc.i_vector)
        shifts = sc.ga_ta * dec.eigenvalues
        overlap = np.exp(-np.subtract.outer(shifts, shifts) ** 2 / (8 * sc.pointer_a.sigma**2))
        want = np.sqrt(np.clip(np.linalg.eigvalsh(e @ overlap @ e.conj().T)[::-1], 0.0, None))
        got = entanglement.product_check(after_a, "system").singular_values
        np.testing.assert_allclose(got, want / np.linalg.norm(want), rtol=0, atol=1e-12)

    def test_densities_nonnegative(self, pair):
        # _cell_cdf needs a nonnegative weight in every cell
        _, factored, _, _ = pair
        assert np.min(vonneumann.device_density(factored)) >= 0.0
        assert np.min(vonneumann.device_momentum_density(factored)) >= 0.0

    def test_never_holds_the_joint_tensor(self, pair):
        # K x d, K x n_A and K x n_F: no K x d x n_A product, no joint tensor
        _, factored, _, _ = pair
        held = (factored.vectors, factored.amplitudes, factored.columns)
        k, d = factored.vectors.shape
        n_a, n_f = factored.amplitudes.shape[1], factored.columns.shape[1]
        assert not hasattr(factored, "blocks")
        assert sum(a.nbytes for a in held) == 16 * k * (d + n_a + n_f)
        assert sum(a.nbytes for a in held) < 16 * d * n_a * n_f / 64


def test_readers_keep_cross_branch_terms():
    # attach_exact's branch vectors are orthonormal, so the readers' branch
    # mixture drops no cross-branch term; hand-built overlapping vectors
    # would carry such terms, and FactoredState rejects them with the
    # measured Gram defect max|V V^H - I| in its message
    rng = np.random.default_rng(37)
    grids = (a_pointer(), f_pointer())
    # (shift, momentum kick) per branch on each device; the kicks make the
    # pointer profiles complex, so the cross terms are complex too
    branches = (((0.0, 0.0), (0.0, 0.0)), ((0.7, 1.5), (0.2, 9.0)), ((-0.4, -0.8), (0.5, -4.0)))

    def profile(grid, shift, kick):
        return pointer.shift(grid, shift).amplitudes * np.exp(1j * kick * grid.positions)

    vectors = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    amplitudes = np.stack([profile(grids[0], *a) for a, _ in branches])
    columns = np.stack([profile(grids[1], *f) for _, f in branches])
    defect = np.max(np.abs(vectors @ vectors.conj().T - np.eye(3)))
    assert defect > 0.01
    with pytest.raises(DimensionError, match="overlap") as info:
        vonneumann.FactoredState(2, grids, vectors, amplitudes, columns)
    assert f"Gram defect {defect:.3g}" in str(info.value)


class TestAttachExact:
    def test_shift_guard(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        with pytest.raises(GridExtentError):
            vonneumann.attach_exact(
                s, f_pointer(), vonneumann.CouplingSpec(qmath.projector(THETA_F), 2.0)
            )

    def test_needs_one_axis_and_axis_one(self):
        # the input is a one-device JointState, and the fresh device becomes axis 1
        grid = pointer.gaussian_pointer(1.0, 64, 16.0, HBAR)
        with pytest.raises(MissingAxisError):
            vonneumann.JointState(2, (grid, grid), np.zeros((2, 64, 64)))
        one = vonneumann.initial_state(THETA_I, [a_pointer()])
        fhat = qmath.projector(THETA_F)
        fresh = f_pointer()
        state = vonneumann.attach_exact(one, fresh, vonneumann.CouplingSpec(fhat, G_F))
        assert state.pointers[0] is one.pointers[0] and state.pointers[1] is fresh
        with pytest.raises(DimensionError):
            vonneumann.attach_exact(one, fresh, vonneumann.CouplingSpec(np.eye(3), G_F))

    def test_block_shapes_checked(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        state = vonneumann.attach_exact(
            s, f_pointer(), vonneumann.CouplingSpec(qmath.projector(THETA_F), G_F)
        )
        fields = (state.vectors, state.amplitudes, state.columns)
        for k in range(3):
            # one branch short, or a system or device axis cut in half
            for bad in (fields[k][:1], fields[k][:, : fields[k].shape[1] // 2]):
                args = fields[:k] + (bad,) + fields[k + 1:]
                with pytest.raises(DimensionError, match="shape"):
                    vonneumann.FactoredState(2, state.pointers, *args)
        with pytest.raises(DimensionError, match="vectors shape"):
            vonneumann.FactoredState(2, state.pointers, state.vectors[None], *fields[1:])
