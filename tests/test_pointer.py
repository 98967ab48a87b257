"""Pointer grids: construction, translation, momentum representation."""
import numpy as np
import pytest

from weakmeas import pointer
from weakmeas.errors import GridExtentError, NormalizationError

HBAR = 1.0


def unit_gaussian():
    return pointer.gaussian_pointer(sigma=1.0, n_points=512, extent=16.0, hbar=HBAR)


class TestGaussianPointer:
    def test_normalization_default_grid(self):
        g = unit_gaussian()
        norm = np.sum(np.abs(g.amplitudes) ** 2) * g.dx
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_narrow_pointer_normalization(self):
        g = pointer.gaussian_pointer(sigma=0.05, n_points=512, extent=4.0, hbar=HBAR)
        assert np.sum(np.abs(g.amplitudes) ** 2) * g.dx == pytest.approx(1.0, abs=1e-10)

    def test_fresh_moments(self):
        m = pointer.moments(unit_gaussian())
        assert abs(m.mean_x) <= 1e-10
        assert m.var_x == pytest.approx(1.0, abs=1e-6)
        assert abs(m.mean_p) <= 1e-10
        # analytic Gaussian integral <pi^2> = hbar^2/(4 sigma^2); residual on the
        # default grid is quadrature only, measured ~1e-13
        assert m.var_p == pytest.approx(0.25, abs=1e-9)

    def test_sigma_scaling(self):
        for sigma in (0.5, 2.0):
            g = pointer.gaussian_pointer(sigma=sigma, n_points=512, extent=16.0 * sigma, hbar=HBAR)
            m = pointer.moments(g)
            assert m.var_x == pytest.approx(sigma**2, rel=1e-6)
            assert m.var_p == pytest.approx(HBAR**2 / (4 * sigma**2), rel=1e-8)

    def test_extent_guard(self):
        with pytest.raises(GridExtentError):
            pointer.gaussian_pointer(sigma=1.0, n_points=512, extent=15.9, hbar=HBAR)

    def test_grid_shape_guards(self):
        with pytest.raises(GridExtentError):
            pointer.gaussian_pointer(sigma=1.0, n_points=500, extent=16.0, hbar=HBAR)
        with pytest.raises(GridExtentError):
            pointer.gaussian_pointer(sigma=-1.0, n_points=512, extent=16.0, hbar=HBAR)
        with pytest.raises(GridExtentError):
            pointer.gaussian_pointer(sigma=1.0, n_points=512, extent=16.0, hbar=0.0)

    def test_rejects_unnormalized_amplitudes(self):
        g = unit_gaussian()
        with pytest.raises(NormalizationError):
            pointer.PointerGrid(g.n_points, g.extent, g.sigma, g.hbar, 2.0 * g.amplitudes)


class TestShift:
    def test_zero_shift_identity(self):
        g = unit_gaussian()
        s = pointer.shift(g, 0.0)
        np.testing.assert_allclose(s.amplitudes, g.amplitudes, atol=1e-14)

    def test_mean_tracks_shift(self):
        s = pointer.shift(unit_gaussian(), 0.5)
        m = pointer.moments(s)
        assert m.mean_x == pytest.approx(0.5, abs=1e-8)
        assert m.var_x == pytest.approx(1.0, abs=1e-6)

    def test_norm_preserved(self):
        s = pointer.shift(unit_gaussian(), 1.25)
        assert np.sum(np.abs(s.amplitudes) ** 2) * s.dx == pytest.approx(1.0, abs=1e-12)

    def test_group_property(self):
        g = unit_gaussian()
        once = pointer.shift(g, 0.7 + 0.3)
        twice = pointer.shift(pointer.shift(g, 0.7), 0.3)
        np.testing.assert_allclose(twice.amplitudes, once.amplitudes, atol=1e-10)

    def test_exactly_invertible(self):
        g = unit_gaussian()
        back = pointer.shift(pointer.shift(g, 1.5), -1.5)
        np.testing.assert_allclose(back.amplitudes, g.amplitudes, atol=1e-12)

    def test_wraparound_guard(self):
        g = unit_gaussian()
        pointer.shift(g, 2.0)  # 2.0 + 6 <= 8 is allowed
        with pytest.raises(GridExtentError):
            pointer.shift(g, 2.1)


class TestMomentumRepresentation:
    def test_parseval(self):
        m = pointer.to_momentum(unit_gaussian())
        assert np.sum(np.abs(m.amplitudes) ** 2) * m.dp == pytest.approx(1.0, abs=1e-10)

    def test_spacing(self):
        m = pointer.to_momentum(unit_gaussian())
        assert m.dp == pytest.approx(2 * np.pi * HBAR / 16.0, rel=1e-15)
        np.testing.assert_allclose(np.diff(m.momenta), m.dp, rtol=1e-12)

    def test_gaussian_momentum_profile(self):
        # the transform of exp(-x^2/4 sigma^2) is again Gaussian with width
        # hbar/2 sigma; amplitude tails cut at 8 sigma shift the pointwise
        # density by up to ~3e-8 (sqrt(pi) erfc(4) (2 pi)^(-1/4) per side)
        g = unit_gaussian()
        m = pointer.to_momentum(g)
        sp = HBAR / (2 * g.sigma)
        target = (1.0 / (np.sqrt(2 * np.pi) * sp)) * np.exp(-(m.momenta**2) / (2 * sp**2))
        np.testing.assert_allclose(np.abs(m.amplitudes) ** 2, target, atol=1e-7)

    def test_phase_kick_sets_mean_p(self):
        g = unit_gaussian()
        for k in (0.0, 0.75, -1.5):
            kicked = pointer.PointerGrid(
                g.n_points, g.extent, g.sigma, g.hbar,
                g.amplitudes * np.exp(1j * k * g.positions / HBAR),
            )
            mm = pointer.moments(kicked)
            assert mm.mean_p == pytest.approx(k, abs=1e-8)
            assert abs(mm.mean_x) <= 1e-8

    def test_apply_momentum_matches_spectrum(self):
        # pi applied to a momentum eigenphase multiplies by its eigenvalue
        g = unit_gaussian()
        k = 5 * 2 * np.pi * HBAR / g.extent
        kicked = pointer.PointerGrid(
            g.n_points, g.extent, g.sigma, g.hbar,
            g.amplitudes * np.exp(1j * k * g.positions / HBAR),
        )
        out = pointer.apply_momentum(kicked)
        expect = np.fft.ifft(
            pointer.fft_momenta(g.n_points, g.extent, HBAR) * np.fft.fft(kicked.amplitudes)
        )
        np.testing.assert_allclose(out, expect, atol=1e-13)
        mean = np.sum(np.conj(kicked.amplitudes) * out).real * g.dx
        assert mean == pytest.approx(k, abs=1e-8)

    def test_batched_transform_matches_per_row(self):
        g = unit_gaussian()
        rows = np.stack([g.amplitudes, pointer.shift(g, 1.5).amplitudes])
        got = pointer.momentum_amplitudes(rows, g)
        for row, amps in zip(got, rows):
            want = pointer.to_momentum(
                pointer.PointerGrid(g.n_points, g.extent, g.sigma, g.hbar, amps)
            ).amplitudes
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)


class TestInvariants:
    def test_operations_preserve_normalization(self):
        g = pointer.gaussian_pointer(sigma=0.5, n_points=256, extent=12.0, hbar=2.0)
        for cand in (g, pointer.shift(g, 0.8), pointer.shift(pointer.shift(g, 0.8), -1.2)):
            assert np.sum(np.abs(cand.amplitudes) ** 2) * cand.dx == pytest.approx(1.0, abs=1e-10)

    def test_uncertainty_product(self):
        rng = np.random.default_rng(21)
        g = unit_gaussian()
        cases = [g, pointer.shift(g, 1.0)]
        for k in rng.uniform(-2, 2, size=5):
            cases.append(
                pointer.PointerGrid(
                    g.n_points, g.extent, g.sigma, g.hbar,
                    g.amplitudes * np.exp(1j * k * g.positions / HBAR),
                )
            )
        for cand in cases:
            m = pointer.moments(cand)
            assert m.var_x * m.var_p >= HBAR**2 / 4 * (1 - 1e-6)

    def test_hbar_carried_through(self):
        hbar = 3.0
        g = pointer.gaussian_pointer(sigma=1.0, n_points=512, extent=16.0, hbar=hbar)
        m = pointer.moments(g)
        assert m.var_p == pytest.approx(hbar**2 / 4, rel=1e-8)
