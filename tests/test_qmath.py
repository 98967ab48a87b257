"""Linear-algebra layer: conventions, decompositions, error taxonomy."""
import numpy as np
import pytest

from weakmeas import qmath
from weakmeas.errors import DimensionError, NormalizationError, NotHermitianError


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def random_unitary(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestHermEig:
    def test_sigma_z_diagonal(self):
        dec = qmath.herm_eig(qmath.sigma_z)
        np.testing.assert_allclose(dec.eigenvalues, [1, -1], atol=1e-15)

    def test_sigma_x_eigensystem(self):
        dec = qmath.herm_eig(qmath.sigma_x)
        np.testing.assert_allclose(dec.eigenvalues, [1, -1], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(dec.eigenvectors[:, 0], [s, s], atol=1e-14)
        np.testing.assert_allclose(dec.eigenvectors[:, 1], [s, -s], atol=1e-14)

    def test_identity_degenerate(self):
        dec = qmath.herm_eig(np.eye(5))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(5), atol=1e-15)
        np.testing.assert_allclose(dec.eigenvectors @ dec.eigenvectors.conj().T, np.eye(5), atol=1e-10)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            m = random_hermitian(rng, d)
            dec = qmath.herm_eig(m)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - m)) <= 1e-10
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_deterministic_gauge(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(rng, 4)
        a = qmath.herm_eig(m)
        b = qmath.herm_eig(m.copy())
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            qmath.herm_eig(bad)
        # defect right at the boundary is accepted
        m = qmath.sigma_z + np.array([[0, 1e-11], [0, 0]])
        qmath.herm_eig(m)


class TestSchmidt:
    def test_product_state(self):
        np.testing.assert_allclose(qmath.schmidt([1, 0, 0, 0], 2, 2), [1, 0], atol=1e-15)

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(qmath.schmidt(bell, 2, 2), [1 / np.sqrt(2)] * 2, atol=1e-14)

    def test_any_product_state(self):
        rng = np.random.default_rng(9)
        a = qmath.normalize(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        b = qmath.normalize(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        s = qmath.schmidt(np.kron(a, b), 3, 5)
        np.testing.assert_allclose(s[0], 1.0, atol=1e-12)
        assert np.all(s[1:] <= 1e-12)

    def test_sum_of_squares_and_local_unitary_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            psi = qmath.normalize(rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db))
            s = qmath.schmidt(psi, da, db)
            assert abs(np.sum(s**2) - 1.0) <= 1e-10
            u = random_unitary(rng, da)
            v = random_unitary(rng, db)
            rotated = np.kron(u, v) @ psi
            np.testing.assert_allclose(qmath.schmidt(rotated, da, db), s, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            qmath.schmidt([1, 0, 0], 2, 2)


class TestExpectationAndCommutators:
    def test_sigma_z_basis(self):
        assert qmath.expectation(qmath.sigma_z, [1, 0]) == pytest.approx(1.0)

    def test_sigma_z_tilted(self):
        psi = [np.sqrt(3) / 2, 0.5]
        assert qmath.expectation(qmath.sigma_z, psi) == pytest.approx(0.5, abs=1e-15)

    def test_identity_normalized(self):
        rng = np.random.default_rng(12)
        psi = qmath.normalize(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert qmath.expectation(np.eye(4), psi) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_expectation_is_real(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            m = random_hermitian(rng, d)
            psi = qmath.normalize(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            assert abs(qmath.expectation(m, psi).imag) <= 1e-12

    def test_pauli_commutator(self):
        np.testing.assert_allclose(
            qmath.commutator(qmath.sigma_x, qmath.sigma_y), 2j * qmath.sigma_z, atol=1e-15
        )
        np.testing.assert_allclose(
            qmath.commutator(qmath.sigma_z, qmath.sigma_z), np.zeros((2, 2)), atol=1e-15
        )
        np.testing.assert_allclose(
            qmath.anticommutator(qmath.sigma_x, qmath.sigma_y), np.zeros((2, 2)), atol=1e-15
        )

    def test_hermiticity_structure(self):
        rng = np.random.default_rng(14)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        comm = qmath.commutator(a, b)
        anti = qmath.anticommutator(a, b)
        np.testing.assert_allclose(comm, -comm.conj().T, atol=1e-12)
        np.testing.assert_allclose(anti, anti.conj().T, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            qmath.expectation(np.eye(3), [1, 0])
        with pytest.raises(DimensionError):
            qmath.commutator(np.eye(2), np.eye(3))


class TestValidators:
    def test_ket_rejects_matrix(self):
        with pytest.raises(DimensionError):
            qmath.ket(np.eye(2))

    def test_ket_rejects_nan(self):
        with pytest.raises(NormalizationError):
            qmath.ket([np.nan, 0.0])

    def test_normalize_zero_vector(self):
        with pytest.raises(NormalizationError):
            qmath.normalize([0.0, 0.0])

    def test_require_normalized(self):
        qmath.require_normalized([1.0, 0.0], 1e-12)
        with pytest.raises(NormalizationError):
            qmath.require_normalized([0.9, 0.0], 1e-10)
