"""A system coupled to one measuring device, then to a second.

The interaction Hamiltonian g A pi displaces the coupled pointer by
g*t*a in each eigenbranch a of the observable, so exact evolution is an
eigendecomposition followed by per-branch Fourier translations.

A state comes in one form per stage of the experiment:

- JointState holds the system and one device, a d x n amplitude matrix.
  initial_state builds it and evolve_exact couples the device to it.
- FactoredState holds the two-device state built by attach_exact, which
  couples a fresh second device to a JointState.  Because the coupling is
  a displacement, the result is exactly
  Psi(s, x_1, x_2) = sum_k v_k(s) a_k(x_1) phi_k(x_2): v_k = u_k is
  eigenvector k of the second observable, a_k = u_k^H psi the first
  device's amplitude in that branch and phi_k the fresh pointer shifted by
  strength*lambda_k.  Neither the d x n_1 x n_2 tensor nor any K x d x n_1
  product is formed: the v_k are orthonormal, so the joint density is the
  K-term branch mixture sum_k g_k(x_1) h_k(x_2) with g_k = |a_k|^2, the
  Born rule over the second observable's branches, and every reader sums
  over (g, h).

The readers below (branch_weights, device_density, device_momentum_density,
mean_pointer, position_correlation, total_norm) take the FactoredState.  The
full device density matrix is never materialized; only its position (or
momentum) diagonal and low moments are ever needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pointer as _pointer
from . import qmath
from .errors import DimensionError, MissingAxisError
from .pointer import PointerGrid

BRANCH_OVERLAP_ACCURACY = 1e-12  # FactoredState's bound on max|V V^H - I|


@dataclass(frozen=True)
class CouplingSpec:
    """One von Neumann coupling: the observable and the displacement scale g*t."""

    observable: np.ndarray
    strength: float

    def __post_init__(self):
        obs = qmath.operator(self.observable)
        object.__setattr__(self, "observable", obs)
        if not math.isfinite(self.strength):
            raise ValueError(f"coupling strength must be finite, got {self.strength}")


def _check_axes(pointers, count: int) -> tuple:
    pts = tuple(pointers)
    if len(pts) != count:
        raise MissingAxisError(f"device axes: need {count}, got {len(pts)}")
    for p in pts:
        if not isinstance(p, PointerGrid):
            raise DimensionError("pointer axes must be PointerGrid descriptors")
    hbars = {p.hbar for p in pts}
    if len(hbars) != 1:
        raise ValueError(f"pointers disagree on hbar: {sorted(hbars)}")
    return pts


class _DeviceAxes:
    """Grid bookkeeping shared by the one-device and the two-device state."""

    pointers: tuple

    @property
    def measure(self) -> float:
        """Product of the grid spacings, the quadrature weight of one cell."""
        out = 1.0
        for p in self.pointers:
            out *= p.dx
        return out


@dataclass(frozen=True)
class JointState(_DeviceAxes):
    """System tensor one device: amplitude matrix of shape d x n.

    States produced by initial_state and evolve_exact carry
    sum |amplitudes|^2 dx = 1 within 1e-10.
    """

    system_dim: int
    pointers: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        pts = _check_axes(self.pointers, 1)
        amps = np.array(self.amplitudes, dtype=complex)
        expected = (self.system_dim, pts[0].n_points)
        if amps.shape != expected:
            raise DimensionError(f"amplitude shape {amps.shape}, expected {expected}")
        amps.setflags(write=False)
        object.__setattr__(self, "pointers", pts)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class FactoredState(_DeviceAxes):
    """Two-device state sum_k vectors[k](s) amplitudes[k](x_1) columns[k](x_2), never expanded.

    vectors has shape K x d, amplitudes K x n_1 and columns K x n_2; K is the
    number of eigenbranches of the observable coupled to the second device.
    Vectors that are not orthonormal are rejected.
    """

    system_dim: int
    pointers: tuple
    vectors: np.ndarray
    amplitudes: np.ndarray
    columns: np.ndarray

    def __post_init__(self):
        pts = _check_axes(self.pointers, 2)
        sizes = {"vectors": self.system_dim, "amplitudes": pts[0].n_points,
                 "columns": pts[1].n_points}
        arrays = {name: np.array(getattr(self, name), dtype=complex) for name in sizes}
        v = arrays["vectors"]
        k = v.shape[0] if v.ndim == 2 else -1
        for name, a in arrays.items():
            if a.shape != (k, sizes[name]):
                raise DimensionError(f"{name} shape {a.shape}, expected {(k, sizes[name])}")
        # the readers' branch mixture is exact only for orthonormal vectors
        defect = float(np.max(np.abs(v @ v.conj().T - np.eye(k)), initial=0.0))
        if defect > BRANCH_OVERLAP_ACCURACY:
            raise DimensionError(f"branch vectors overlap: Gram defect {defect:.3g} "
                                 f"exceeds {BRANCH_OVERLAP_ACCURACY:g}")
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "pointers", pts)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def initial_state(system, pointers: Sequence[PointerGrid]) -> JointState:
    """Product state |I> |phi> of the system and one fresh device."""
    sys_vec = qmath.require_normalized(system, qmath.STATE_NORM_ACCURACY, "system state")
    pts = _check_axes(pointers, 1)
    return JointState(sys_vec.size, pts, np.multiply.outer(sys_vec, pts[0].amplitudes))


def _eigenbranches(system_dim: int, grid: PointerGrid, c: CouplingSpec, what: str):
    """Eigenvectors of c's observable and the FFT factors shifting grid per eigenvalue."""
    if c.observable.shape[0] != system_dim:
        raise DimensionError(
            f"observable dim {c.observable.shape[0]} does not match system dim {system_dim}"
        )
    dec = qmath.herm_eig(c.observable)
    return dec.eigenvectors, _pointer.translation_phases(grid, c.strength * dec.eigenvalues, what)


def evolve_exact(s: JointState, c: CouplingSpec) -> JointState:
    """Exact unitary action of exp(-i strength A pi / hbar) on the device.

    The observable is split into eigenbranches; the pointer is translated
    by strength*eigenvalue inside each branch.  Norm is preserved within
    1e-10.
    """
    u, phase = _eigenbranches(s.system_dim, s.pointers[0], c, "device axis 0")
    # rotate the system index into the eigenbasis, translate every branch at
    # once in Fourier space, rotate back
    amps = np.tensordot(u.conj().T, s.amplitudes, axes=(1, 0))
    ft = np.fft.fft(amps, axis=1)
    ft *= phase
    amps = np.fft.ifft(ft, axis=1)
    amps = np.tensordot(u, amps, axes=(1, 0))
    return JointState(s.system_dim, s.pointers, amps)


def attach_exact(s: JointState, grid: PointerGrid, c: CouplingSpec) -> FactoredState:
    """Couple a fresh device, device axis 1, to a one-device state exactly, kept factored.

    The same physics as evolve_exact on the product of s with the fresh
    pointer: branch k of the observable's eigenbasis (same gauge, Fourier
    phase and wraparound guard) carries the vector u_k, the amplitude
    u_k^H psi and the pointer translated by strength*lambda_k.
    """
    pts = _check_axes(s.pointers + (grid,), 2)
    u, phase = _eigenbranches(s.system_dim, grid, c, "device axis 1")
    columns = np.fft.ifft(np.fft.fft(grid.amplitudes) * phase)
    return FactoredState(s.system_dim, pts, u.T, u.conj().T @ s.amplitudes, columns)


# Readers.  The vectors are orthonormal, so the cross terms
# sum_s conj(v_k) v_l vanish and the joint density is the branch mixture
# P(x_1, x_2) = sum_k g_k(x_1) h_k(x_2), with g K x n_1 and h K x n_2.

def branch_weights(s: FactoredState, momentum: bool = False):
    """(g, h): g_k = |a_k|^2 over x_1 (or pi_1), h_k = |phi_k|^2 over x_2."""
    if len(s.pointers) != 2:  # a one-device JointState has no branches to read
        raise MissingAxisError(f"need the two-device state, got {len(s.pointers)} device axis")
    amps = _pointer.momentum_amplitudes(s.amplitudes, s.pointers[0]) if momentum else s.amplitudes
    return _abs2(amps), _abs2(s.columns)


def _marginal(s: FactoredState, axis: int) -> np.ndarray:
    """Position density of one device axis, the other summed (no measure)."""
    if not 0 <= axis < len(s.pointers):
        raise MissingAxisError(f"axis {axis} not present ({len(s.pointers)} device axes)")
    g, h = branch_weights(s)
    return h.sum(axis=1) @ g if axis == 0 else g.sum(axis=1) @ h


def total_norm(s: FactoredState) -> float:
    return float(np.sqrt(np.sum(_marginal(s, 0)) * s.measure))


def device_density(s: FactoredState) -> np.ndarray:
    """Joint position density P(x_1, x_2) = sum_s |Psi|^2 on the grid.

    This is the position diagonal of the devices' partial density matrix;
    sum P dx_1 dx_2 = 1.
    """
    g, h = branch_weights(s)
    return g.T @ h


def device_momentum_density(s: FactoredState) -> np.ndarray:
    """Joint density P(pi_1, x_2) with the first device axis Fourier-transformed.

    Rows follow pointer.momentum_values(first device) in ascending order;
    sum P dp_1 dx_2 = 1.  Only the K x n_1 amplitudes are transformed.
    """
    g, h = branch_weights(s, momentum=True)
    return g.T @ h


def mean_pointer(s: FactoredState, axis: int = 0) -> float:
    """Quadrature mean position of one device axis."""
    marginal = _marginal(s, axis)
    return float(np.sum(marginal * s.pointers[axis].positions) * s.measure)


def position_correlation(s: FactoredState) -> float:
    """Exact first moment <x_1 x_2> against the joint device density."""
    g, h = branch_weights(s)
    x1 = s.pointers[0].positions
    x2 = s.pointers[1].positions
    return float((g @ x1) @ (h @ x2) * s.measure)
