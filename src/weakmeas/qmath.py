"""Dense linear algebra over small Hilbert spaces.

Kets are one-dimensional complex ndarrays and operators are square
two-dimensional ones.  Composite indices are row-major with the rightmost
tensor factor varying fastest, the order of np.kron and of schmidt's
reshape; every module in this package shares that convention.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NormalizationError, NotHermitianError

# library acceptance tolerances: the Hermiticity defect herm_eig and the
# weak-value formulas accept, and the norm error of a system state
HERMITICITY_ACCURACY = 1e-10
STATE_NORM_ACCURACY = 1e-10

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def ket(components) -> np.ndarray:
    """Coerce to a complex state vector and check it is finite and 1-D."""
    v = np.asarray(components, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"ket must be a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NormalizationError("ket contains non-finite amplitudes")
    return v


def operator(entries) -> np.ndarray:
    """Coerce to a complex square matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionError(f"operator must be square, got shape {m.shape}")
    return m


def normalize(psi) -> np.ndarray:
    v = ket(psi)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise NormalizationError("cannot normalize the zero vector")
    return v / n


def require_normalized(psi, tol: float, what: str = "state") -> np.ndarray:
    """Return the vector unchanged, raising NormalizationError beyond tol."""
    v = ket(psi)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > tol:
        raise NormalizationError(f"{what} has norm {n!r}, off unity by more than {tol:.0e}")
    return v


def require_hermitian(m, tol: float = HERMITICITY_ACCURACY, what: str = "operator") -> np.ndarray:
    """Return m as an operator, raising NotHermitianError when its defect exceeds tol."""
    m = operator(m)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tol:
        raise NotHermitianError(f"{what}: hermiticity defect {defect:.3e} exceeds {tol:.0e}")
    return m


def projector(psi) -> np.ndarray:
    """Rank-one projector |psi><psi| (input not required to be normalized)."""
    v = ket(psi)
    return np.outer(v, np.conj(v))


def expectation(op, psi) -> complex:
    """<psi| op |psi> as a complex number."""
    m = operator(op)
    v = ket(psi)
    if m.shape[0] != v.size:
        raise DimensionError(f"operator dim {m.shape[0]} does not match ket dim {v.size}")
    return complex(np.vdot(v, m @ v))


def commutator(a, b) -> np.ndarray:
    a, b = operator(a), operator(b)
    if a.shape != b.shape:
        raise DimensionError(f"commutator needs equal shapes, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    a, b = operator(a), operator(b)
    if a.shape != b.shape:
        raise DimensionError(f"anticommutator needs equal shapes, got {a.shape} and {b.shape}")
    return a @ b + b @ a


class SpectralDecomposition(NamedTuple):
    """Eigensystem of a Hermitian operator, eigenvalues descending.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``.  Each
    eigenvector's global phase is fixed by making its largest-magnitude
    component real and positive, so repeated runs agree bit for bit.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(op) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge.

    Raises NotHermitianError when the Hermiticity defect exceeds
    HERMITICITY_ACCURACY.
    """
    w, u = np.linalg.eigh(require_hermitian(op))
    w = w[::-1].copy()
    u = u[:, ::-1].copy()
    for k in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, k])))
        pivot = u[j, k]
        if pivot != 0:
            u[:, k] *= np.conj(pivot) / abs(pivot)
    return SpectralDecomposition(w, u)


def schmidt(psi, dim_a: int, dim_b: int) -> np.ndarray:
    """Schmidt coefficients of a bipartite ket, descending.

    The ket is reshaped to a dim_a x dim_b amplitude matrix (rightmost
    factor fastest) and its singular values are returned; for a normalized
    input they satisfy sum(s**2) == 1.
    """
    v = ket(psi)
    dim_a, dim_b = int(dim_a), int(dim_b)
    if dim_a < 1 or dim_b < 1 or dim_a * dim_b != v.size:
        raise DimensionError(f"{dim_a}x{dim_b} does not factor a dim-{v.size} ket")
    return np.linalg.svd(v.reshape(dim_a, dim_b), compute_uv=False)
