"""Joint system+device evolution: exactness, first order, densities, moments."""
import numpy as np
import pytest

from weakmeas import entanglement, estimator, pointer, qmath, scenario, vonneumann
from weakmeas.errors import (
    DimensionError,
    GridExtentError,
    MissingAxisError,
    NormalizationError,
)

HBAR = 1.0
THETA_I = np.array([np.sqrt(3) / 2, 0.5], dtype=complex)
THETA_F = np.array([np.sqrt(3) / 2, -0.5], dtype=complex)
G_A = 0.05
G_F = 1.0


def a_pointer(sigma=1.0):
    return pointer.gaussian_pointer(sigma=sigma, n_points=512, extent=16.0 * sigma, hbar=HBAR)


def f_pointer():
    return pointer.gaussian_pointer(sigma=0.05, n_points=512, extent=4.0, hbar=HBAR)


def theta_state(g_a=G_A, observable=None, order="af"):
    obs = qmath.sigma_z if observable is None else observable
    s = vonneumann.initial_state(THETA_I, [a_pointer(), f_pointer()])
    couple_a = vonneumann.CouplingSpec(obs, g_a, pointer_axis=0)
    couple_f = vonneumann.CouplingSpec(qmath.projector(THETA_F), G_F, pointer_axis=1)
    seq = (couple_a, couple_f) if order == "af" else (couple_f, couple_a)
    for c in seq:
        s = vonneumann.evolve_exact(s, c)
    return s


class TestInitialState:
    def test_product_schmidt(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        vec = s.amplitudes.ravel() * np.sqrt(s.measure)
        sv = qmath.schmidt(vec, 2, 512)
        np.testing.assert_allclose(sv[0], 1.0, atol=1e-12)
        assert sv[1] <= 1e-12

    def test_norm_and_pointer_means(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer(), f_pointer()])
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
        assert vonneumann.mean_pointer(out) == pytest.approx(0.8, abs=1e-8)
        vec = out.amplitudes.ravel() * np.sqrt(out.measure)
        assert qmath.schmidt(vec, 2, 512)[1] <= 1e-12

    def test_eigenstate_input_stays_product(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        out = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, 0.3))
        assert vonneumann.mean_pointer(out) == pytest.approx(0.3, abs=1e-8)
        vec = out.amplitudes.ravel() * np.sqrt(out.measure)
        assert qmath.schmidt(vec, 2, 512)[1] <= 1e-12

    def test_tilted_state_mean_matches_expectation(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        out = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, G_A))
        # g <I|A|I> = 0.05 * 0.5
        assert vonneumann.mean_pointer(out) == pytest.approx(0.025, abs=1e-8)

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
            assert vonneumann.total_norm(out) == pytest.approx(1.0, abs=1e-10)

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
            assert vonneumann.mean_pointer(out) == pytest.approx(want, abs=1e-8)

    def test_shift_guard_propagates(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        with pytest.raises(GridExtentError):
            vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, 2.5))

    def test_dimension_checks(self):
        s = vonneumann.initial_state([1, 0], [a_pointer()])
        with pytest.raises(DimensionError):
            vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(3), 0.1))
        with pytest.raises(MissingAxisError):
            vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(2), 0.1, pointer_axis=1))


class TestEvolveFirstOrder:
    def test_zero_strength_identity(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        out = vonneumann.evolve_first_order(s, vonneumann.CouplingSpec(qmath.sigma_z, 0.0))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_close_to_exact_at_first_order(self):
        s0 = vonneumann.initial_state(THETA_I, [a_pointer()])
        c = vonneumann.CouplingSpec(qmath.sigma_z, G_A)
        exact = vonneumann.evolve_exact(s0, c)
        first = vonneumann.evolve_first_order(s0, c)
        scale = np.max(np.abs(exact.amplitudes))
        gap = np.max(np.abs(exact.amplitudes - first.amplitudes))
        assert gap <= 2.5e-3 * scale

    def test_norm_grows_at_second_order(self):
        s0 = vonneumann.initial_state(THETA_I, [a_pointer()])
        c = vonneumann.CouplingSpec(qmath.sigma_z, G_A)
        out = vonneumann.evolve_first_order(s0, c)
        # norm^2 = 1 + (g/hbar)^2 <A^2><pi^2> with <pi^2> = hbar^2/(4 sigma^2)
        want = 1.0 + G_A**2 * 1.0 * 0.25
        assert vonneumann.total_norm(out) ** 2 == pytest.approx(want, abs=1e-9)


class TestDeviceDensities:
    def test_product_state_factorizes(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer(), f_pointer()])
        p = vonneumann.device_density(s)
        pa = p.sum(axis=1) * s.pointers[1].dx
        pf = p.sum(axis=0) * s.pointers[0].dx
        assert np.max(np.abs(p - np.outer(pa, pf))) <= 1e-12
        assert np.min(p) >= 0.0

    def test_identity_coupling_keeps_factorization(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer(), f_pointer()])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(2), G_A, 0))
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
        s = vonneumann.initial_state(THETA_I, [a_pointer(), f_pointer()])
        pm = vonneumann.device_momentum_density(s)
        dp = 2 * np.pi * HBAR / s.pointers[0].extent
        assert np.sum(pm) * dp * s.pointers[1].dx == pytest.approx(1.0, abs=1e-10)
        mom = pointer.momentum_values(s.pointers[0])
        mean_pi = np.sum(pm * mom[:, None]) * dp * s.pointers[1].dx
        assert abs(mean_pi) <= 1e-10

    def test_momentum_density_imaginary_scenario(self):
        # sigma_x with post-selection (|0>+i|1>)/sqrt(2) drags the selected
        # pointer momentum negative; post-selected mean frozen from the
        # dense-tensor oracle
        ini = np.array([1, 0], dtype=complex)
        fin = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        s = vonneumann.initial_state(ini, [a_pointer(), f_pointer()])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_x, G_A, 0))
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.projector(fin), G_F, 1))
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
        # O(g^2) branch-decoherence term 0.375*(1-exp(-g^2/2)), frozen from
        # the dense-tensor oracle
        assert vonneumann.mean_pointer(s, 0) == pytest.approx(0.025, abs=1e-8)
        assert vonneumann.mean_pointer(s, 1) == pytest.approx(0.250468457153, abs=1e-9)
        assert vonneumann.mean_pointer(s, 1) == pytest.approx(0.25, abs=1e-3)

    def test_theta_scenario_correlation(self):
        s = theta_state()
        # for sigma_z the cross-branch x matrix elements vanish, so the
        # first-order value 0.5*g is exact here up to quadrature
        assert vonneumann.position_correlation(s) / G_A == pytest.approx(0.5, abs=1e-10)

    def test_identity_coupling_correlation(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer(), f_pointer()])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(2), G_A, 0))
        s = vonneumann.evolve_exact(
            s, vonneumann.CouplingSpec(qmath.projector(THETA_F), G_F, 1)
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
        # branch algebra gives 0.125*g*g_F instead of 0.5*g*g_F
        assert abs(forward - reverse) > 0.01
        assert reverse / G_A == pytest.approx(0.125, abs=1e-6)


def dense_reference(i_vec, grids, first, second):
    """Two-axis initial_state taken through two evolve_exact calls."""
    s = vonneumann.initial_state(i_vec, list(grids))
    s = vonneumann.evolve_exact(s, first)
    return vonneumann.evolve_exact(s, second)


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


@pytest.fixture(scope="module", params=["qubit-theta30", "imaginary-sigma-x", "qutrit"])
def pair(request):
    """(factored state, dense reference) for one scenario."""
    if request.param == "qutrit":
        a, b, ini = qutrit_pair()
        grids = (a_pointer(), f_pointer())
        first = vonneumann.CouplingSpec(a, 0.2, 0)
        second = vonneumann.CouplingSpec(b, 0.9, 1)
        after_a = vonneumann.evolve_exact(vonneumann.initial_state(ini, grids[:1]), first)
        factored = vonneumann.attach_exact(after_a, grids[1], second)
        return factored, dense_reference(ini, grids, first, second)
    sc = scenario.preset(request.param)
    dense = dense_reference(
        sc.i_vector,
        (sc.grid_a(), sc.grid_f()),
        vonneumann.CouplingSpec(sc.a_matrix, sc.ga_ta, 0),
        vonneumann.CouplingSpec(qmath.projector(sc.f_vector), sc.gf_tf, 1),
    )
    return estimator.coupled_state(sc), dense


class TestFactoredMatchesDense:
    def test_position_density(self, pair):
        factored, dense = pair
        got = vonneumann.device_density(factored)
        assert np.max(np.abs(got - vonneumann.device_density(dense))) <= 1e-12

    def test_momentum_density(self, pair):
        factored, dense = pair
        got = vonneumann.device_momentum_density(factored)
        assert np.max(np.abs(got - vonneumann.device_momentum_density(dense))) <= 1e-12

    def test_moments(self, pair):
        factored, dense = pair
        for axis in (0, 1):
            got = vonneumann.mean_pointer(factored, axis)
            assert got == pytest.approx(vonneumann.mean_pointer(dense, axis), abs=1e-12)
        got = vonneumann.position_correlation(factored)
        assert got == pytest.approx(vonneumann.position_correlation(dense), abs=1e-12)
        assert vonneumann.total_norm(factored) == pytest.approx(1.0, abs=1e-10)

    def test_expands_to_dense_amplitudes(self, pair):
        factored, dense = pair
        assert np.max(np.abs(factored.to_joint().amplitudes - dense.amplitudes)) <= 1e-12

    def test_system_cut(self, pair):
        factored, dense = pair
        got = entanglement.product_check(factored, "system").singular_values
        want = entanglement.product_check(dense, "system").singular_values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_densities_nonnegative(self, pair):
        # _cell_cdf needs a nonnegative weight in every cell
        factored, _ = pair
        assert np.min(vonneumann.device_density(factored)) >= 0.0
        assert np.min(vonneumann.device_momentum_density(factored)) >= 0.0

    def test_never_holds_the_joint_tensor(self, pair):
        factored, dense = pair
        assert not hasattr(factored, "amplitudes")
        assert factored.blocks.nbytes + factored.columns.nbytes < dense.amplitudes.nbytes / 64


def test_readers_keep_cross_branch_terms():
    # attach_exact's blocks are orthogonal in the system index, so the
    # readers' branch mixture drops no cross-branch term; hand-built
    # overlapping blocks would carry such terms, and FactoredState rejects
    # them with the measured cross term in its message
    rng = np.random.default_rng(37)
    grids = (a_pointer(), f_pointer())
    # (shift, momentum kick) per branch on each device; the kicks make the
    # pointer profiles complex, so the cross terms are complex too
    branches = (((0.0, 0.0), (0.0, 0.0)), ((0.7, 1.5), (0.2, 9.0)), ((-0.4, -0.8), (0.5, -4.0)))

    def profile(grid, shift, kick):
        return pointer.shift(grid, shift).amplitudes * np.exp(1j * kick * grid.positions)

    blocks = np.stack([
        np.multiply.outer(rng.normal(size=2) + 1j * rng.normal(size=2), profile(grids[0], *a))
        for a, _ in branches
    ])
    columns = np.stack([profile(grids[1], *f) for _, f in branches])
    cross = max(
        np.max(np.abs(np.sum(blocks[k].conj() * blocks[l], axis=0)))
        for k in range(3) for l in range(3) if k != l
    )
    assert cross > 0.01
    with pytest.raises(DimensionError, match="overlap") as info:
        vonneumann.FactoredState(2, grids, blocks, columns)
    assert f"{cross:.3g}" in str(info.value)


class TestAttachExact:
    def test_shift_guard(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        with pytest.raises(GridExtentError):
            vonneumann.attach_exact(
                s, f_pointer(), vonneumann.CouplingSpec(qmath.projector(THETA_F), 2.0, 1)
            )

    def test_needs_one_axis_and_axis_one(self):
        one = vonneumann.initial_state(THETA_I, [a_pointer()])
        two = vonneumann.initial_state(THETA_I, [a_pointer(), f_pointer()])
        fhat = qmath.projector(THETA_F)
        with pytest.raises(MissingAxisError):
            vonneumann.attach_exact(two, f_pointer(), vonneumann.CouplingSpec(fhat, G_F, 1))
        with pytest.raises(MissingAxisError):
            vonneumann.attach_exact(one, f_pointer(), vonneumann.CouplingSpec(fhat, G_F, 0))
        with pytest.raises(DimensionError):
            vonneumann.attach_exact(one, f_pointer(), vonneumann.CouplingSpec(np.eye(3), G_F, 1))

    def test_block_shapes_checked(self):
        s = vonneumann.initial_state(THETA_I, [a_pointer()])
        state = vonneumann.attach_exact(
            s, f_pointer(), vonneumann.CouplingSpec(qmath.projector(THETA_F), G_F, 1)
        )
        with pytest.raises(DimensionError):
            vonneumann.FactoredState(2, state.pointers, state.blocks, state.columns[:1])
