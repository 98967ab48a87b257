"""Joint evolution of a system with one or two measuring devices.

The interaction Hamiltonian g A pi displaces the coupled pointer by
g*t*a in each eigenbranch a of the observable, so exact evolution is an
eigendecomposition followed by per-branch Fourier translations.

A state comes in one of two forms:

- JointState holds the dense amplitude tensor of shape d x n_1 (x n_2).
  initial_state, evolve_exact and evolve_first_order act on it.
- FactoredState holds a two-device state built by attach_exact, which
  couples a fresh second device to a one-device state.  Because the
  coupling is a displacement, the result is exactly
  Psi(s, x_1, x_2) = sum_k C_k(s, x_1) phi_k(x_2): C_k = u_k u_k^H psi is
  eigenbranch k of the second observable and phi_k the fresh pointer
  shifted by strength*lambda_k.  The d x n_1 x n_2 tensor is never formed:
  the blocks are orthogonal in the system index, so the joint density is
  the K-term branch mixture sum_k g_k(x_1) h_k(x_2), the Born rule over
  the second observable's branches, and every reader sums over (g, h).

Every reader below (device_density, device_momentum_density, mean_pointer,
position_correlation) accepts both forms.  The full device density matrix
is never materialized; only its position (or momentum) diagonal and low
moments are ever needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import pointer as _pointer
from . import qmath
from .errors import DimensionError, MissingAxisError
from .pointer import PointerGrid

BRANCH_OVERLAP_ACCURACY = 1e-12  # FactoredState's cross/diagonal branch term bound


@dataclass(frozen=True)
class CouplingSpec:
    """One von Neumann coupling: observable, displacement scale g*t, target axis."""

    observable: np.ndarray
    strength: float
    pointer_axis: int = 0

    def __post_init__(self):
        obs = qmath.operator(self.observable)
        object.__setattr__(self, "observable", obs)
        if not math.isfinite(self.strength):
            raise ValueError(f"coupling strength must be finite, got {self.strength}")


def _check_axes(pointers) -> tuple:
    pts = tuple(pointers)
    if not 1 <= len(pts) <= 2:
        raise MissingAxisError(f"need one or two device axes, got {len(pts)}")
    for p in pts:
        if not isinstance(p, PointerGrid):
            raise DimensionError("pointer axes must be PointerGrid descriptors")
    hbars = {p.hbar for p in pts}
    if len(hbars) != 1:
        raise ValueError(f"pointers disagree on hbar: {sorted(hbars)}")
    return pts


class _DeviceAxes:
    """Grid bookkeeping shared by the dense and the factored state."""

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
    """System tensor devices amplitude tensor of shape d x n_1 (x n_2).

    States produced by initial_state and evolve_exact carry total norm 1
    within 1e-10; evolve_first_order intentionally returns the truncated,
    unnormalized state.
    """

    system_dim: int
    pointers: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        pts = _check_axes(self.pointers)
        amps = np.array(self.amplitudes, dtype=complex)
        expected = (self.system_dim,) + tuple(p.n_points for p in pts)
        if amps.shape != expected:
            raise DimensionError(f"amplitude shape {amps.shape}, expected {expected}")
        amps.setflags(write=False)
        object.__setattr__(self, "pointers", pts)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class FactoredState(_DeviceAxes):
    """Two-device state sum_k blocks[k](s, x_1) columns[k](x_2), never expanded.

    blocks has shape K x d x n_1 and columns K x n_2; K is the number of
    eigenbranches of the observable coupled to the second device.  Blocks
    that overlap in the system index are rejected.
    """

    system_dim: int
    pointers: tuple
    blocks: np.ndarray
    columns: np.ndarray

    def __post_init__(self):
        pts = _check_axes(self.pointers)
        if len(pts) != 2:
            raise MissingAxisError(f"a factored state has two device axes, got {len(pts)}")
        blocks = np.array(self.blocks, dtype=complex)
        columns = np.array(self.columns, dtype=complex)
        k = blocks.shape[0] if blocks.ndim == 3 else -1
        if blocks.shape != (k, self.system_dim, pts[0].n_points):
            raise DimensionError(f"blocks shape {blocks.shape} does not fit K x d x n_1")
        if columns.shape != (k, pts[1].n_points):
            raise DimensionError(f"columns shape {columns.shape}, expected {(k, pts[1].n_points)}")
        # the readers' branch mixture is exact only for blocks orthogonal in s
        diagonal = float(np.max(_abs2(blocks).sum(axis=1), initial=0.0))
        cross = max((float(np.max(np.abs(np.einsum("sx,sx->x", a.conj(), b))))
                     for i, a in enumerate(blocks) for b in blocks[i + 1:]), default=0.0)
        if cross > BRANCH_OVERLAP_ACCURACY * diagonal:
            raise DimensionError(f"blocks overlap in the system index: cross term {cross:.3g} "
                                 f"exceeds {BRANCH_OVERLAP_ACCURACY:g} x diagonal {diagonal:.3g}")
        blocks.setflags(write=False)
        columns.setflags(write=False)
        object.__setattr__(self, "pointers", pts)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "columns", columns)

    def to_joint(self) -> JointState:
        """The dense d x n_1 x n_2 form, for checks that need every amplitude."""
        amps = np.einsum("ksx,ky->sxy", self.blocks, self.columns)
        return JointState(self.system_dim, self.pointers, amps)


State = Union[JointState, FactoredState]


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def total_norm(s: State) -> float:
    return float(np.sqrt(np.sum(_marginal(s, 0)) * s.measure))


def initial_state(system, pointers: Sequence[PointerGrid]) -> JointState:
    """Product state |I> |phi_1> (|phi_2>) of system and fresh devices."""
    sys_vec = qmath.require_normalized(system, qmath.STATE_NORM_ACCURACY, "system state")
    pts = _check_axes(pointers)
    amps = sys_vec
    for p in pts:
        amps = np.multiply.outer(amps, p.amplitudes)
    return JointState(sys_vec.size, pts, amps)


def _check_coupling(system_dim: int, n_axes: int, c: CouplingSpec) -> int:
    if c.observable.shape[0] != system_dim:
        raise DimensionError(
            f"observable dim {c.observable.shape[0]} does not match system dim {system_dim}"
        )
    if not 0 <= c.pointer_axis < n_axes:
        raise MissingAxisError(
            f"pointer_axis {c.pointer_axis} not present ({n_axes} device axes)"
        )
    return 1 + c.pointer_axis


def evolve_exact(s: JointState, c: CouplingSpec) -> JointState:
    """Exact unitary action of exp(-i strength A pi / hbar).

    The observable is split into eigenbranches; the target pointer is
    translated by strength*eigenvalue inside each branch.  Norm is
    preserved within 1e-10.
    """
    axis = _check_coupling(s.system_dim, len(s.pointers), c)
    grid = s.pointers[c.pointer_axis]
    dec = qmath.herm_eig(c.observable)
    phase = _pointer.translation_phases(
        grid, c.strength * dec.eigenvalues, f"device axis {c.pointer_axis}"
    )
    # rotate the system index into the eigenbasis, translate every branch at
    # once in Fourier space, rotate back
    u = dec.eigenvectors
    amps = np.tensordot(u.conj().T, s.amplitudes, axes=(1, 0))
    ft = np.fft.fft(amps, axis=axis)
    shape = [s.system_dim] + [1] * (s.amplitudes.ndim - 1)
    shape[axis] = grid.n_points
    ft *= phase.reshape(shape)
    amps = np.fft.ifft(ft, axis=axis)
    amps = np.tensordot(u, amps, axes=(1, 0))
    return JointState(s.system_dim, s.pointers, amps)


def attach_exact(s: JointState, grid: PointerGrid, c: CouplingSpec) -> FactoredState:
    """Couple a fresh device to a one-device state exactly, kept factored.

    The same physics as evolve_exact on the product of s with the fresh
    pointer, c.pointer_axis = 1: branch k of the observable's eigenbasis
    (same gauge, Fourier phase and wraparound guard) carries the block
    u_k u_k^H psi and the pointer translated by strength*lambda_k.
    """
    if len(s.pointers) != 1:
        raise MissingAxisError(f"attach_exact needs a one-device state, got {len(s.pointers)} axes")
    pts = _check_axes(s.pointers + (grid,))
    _check_coupling(s.system_dim, 2, c)
    if c.pointer_axis != 1:
        raise MissingAxisError(f"attach_exact couples device axis 1, not {c.pointer_axis}")
    dec = qmath.herm_eig(c.observable)
    phase = _pointer.translation_phases(grid, c.strength * dec.eigenvalues, "device axis 1")
    columns = np.fft.ifft(np.fft.fft(grid.amplitudes) * phase)
    u = dec.eigenvectors
    coeffs = u.conj().T @ s.amplitudes
    blocks = u.T[:, :, None] * coeffs[:, None, :]
    return FactoredState(s.system_dim, pts, blocks, columns)


def evolve_first_order(s: JointState, c: CouplingSpec) -> JointState:
    """Truncated evolution |Phi> - (i strength/hbar) (A x pi) |Phi>.

    Deliberately not renormalized; the norm exceeds 1 at second order in
    the strength.  Diagnostic only, never used for sampling.
    """
    axis = _check_coupling(s.system_dim, len(s.pointers), c)
    grid = s.pointers[c.pointer_axis]
    a_amps = np.tensordot(c.observable, s.amplitudes, axes=(1, 0))
    momenta = _pointer.fft_momenta(grid.n_points, grid.extent, grid.hbar)
    shape = [1] * s.amplitudes.ndim
    shape[axis] = grid.n_points
    pi_a_amps = np.fft.ifft(momenta.reshape(shape) * np.fft.fft(a_amps, axis=axis), axis=axis)
    return JointState(
        s.system_dim, s.pointers, s.amplitudes - 1j * c.strength / grid.hbar * pi_a_amps
    )


def _require_two_axes(s: State) -> None:
    if len(s.pointers) != 2:
        raise MissingAxisError(f"need two device axes, state has {len(s.pointers)}")


# Factored readers.  The blocks are orthogonal in s, so the cross terms
# sum_s conj(C_k) C_l vanish and the joint density is the branch mixture
# P(x_1, x_2) = sum_k g_k(x_1) h_k(x_2), with g K x n_1 and h K x n_2.

def _branch_weights(s: FactoredState, momentum: bool = False):
    """(g, h): g_k = sum_s |C_k|^2 over x_1 (or pi_1), h_k = |phi_k|^2 over x_2."""
    blocks = _pointer.momentum_amplitudes(s.blocks, s.pointers[0]) if momentum else s.blocks
    return _abs2(blocks).sum(axis=1), _abs2(s.columns)


def _marginal(s: State, axis: int) -> np.ndarray:
    """Position density of one device axis, the others summed (no measure)."""
    if not 0 <= axis < len(s.pointers):
        raise MissingAxisError(f"axis {axis} not present ({len(s.pointers)} device axes)")
    if isinstance(s, FactoredState):
        g, h = _branch_weights(s)
        return h.sum(axis=1) @ g if axis == 0 else g.sum(axis=1) @ h
    marginal = np.sum(np.abs(s.amplitudes) ** 2, axis=0)
    other = tuple(i for i in range(len(s.pointers)) if i != axis)
    return marginal.sum(axis=other)


def device_density(s: State) -> np.ndarray:
    """Joint position density P(x_1, x_2) = sum_s |Psi|^2 on the grid.

    This is the position diagonal of the devices' partial density matrix;
    sum P dx_1 dx_2 = 1.
    """
    _require_two_axes(s)
    if isinstance(s, FactoredState):
        g, h = _branch_weights(s)
        return g.T @ h
    return np.sum(np.abs(s.amplitudes) ** 2, axis=0)


def device_momentum_density(s: State) -> np.ndarray:
    """Joint density P(pi_1, x_2) with the first device axis Fourier-transformed.

    Rows follow pointer.momentum_values(first device) in ascending order;
    sum P dp_1 dx_2 = 1.  A factored state transforms its d x n_1 blocks
    only.
    """
    _require_two_axes(s)
    grid = s.pointers[0]
    if isinstance(s, FactoredState):
        g, h = _branch_weights(s, momentum=True)
        return g.T @ h
    ft = _pointer.momentum_amplitudes(s.amplitudes, grid, axis=1)
    return np.sum(np.abs(ft) ** 2, axis=0)


def mean_pointer(s: State, axis: int = 0) -> float:
    """Quadrature mean position of one device axis."""
    marginal = _marginal(s, axis)
    return float(np.sum(marginal * s.pointers[axis].positions) * s.measure)


def position_correlation(s: State) -> float:
    """Exact first moment <x_1 x_2> against the joint device density."""
    _require_two_axes(s)
    x1 = s.pointers[0].positions
    x2 = s.pointers[1].positions
    if isinstance(s, FactoredState):
        g, h = _branch_weights(s)
        return float((g @ x1) @ (h @ x2) * s.measure)
    p = device_density(s)
    return float(np.einsum("ab,a,b->", p, x1, x2) * s.measure)
