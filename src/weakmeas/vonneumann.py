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
  shifted by strength*lambda_k.  The d x n_1 x n_2 tensor is never formed;
  densities are Gram contractions of rank <= K^2 and moments reduce each
  factor on its own.

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
from .errors import DimensionError, GridExtentError, MissingAxisError
from .pointer import PointerGrid

STATE_NORM_ACCURACY = 1e-10


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
    def hbar(self) -> float:
        return self.pointers[0].hbar

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
    eigenbranches of the observable coupled to the second device.
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


def total_norm(s: State) -> float:
    if isinstance(s, FactoredState):
        return float(np.sqrt(np.sum(_marginal(s, 0)) * s.measure))
    return float(np.sqrt(np.sum(np.abs(s.amplitudes) ** 2) * s.measure))


def initial_state(system, pointers: Sequence[PointerGrid]) -> JointState:
    """Product state |I> |phi_1> (|phi_2>) of system and fresh devices."""
    sys_vec = qmath.require_normalized(system, STATE_NORM_ACCURACY, "system state")
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


def _branch_phases(grid: PointerGrid, c: CouplingSpec, eigenvalues: np.ndarray) -> np.ndarray:
    """Fourier factors exp(-i strength lambda_k pi / hbar), one row per branch.

    Raises GridExtentError when the largest branch shift plus the guard
    band would wrap around the grid.
    """
    worst = float(np.max(np.abs(eigenvalues))) * abs(c.strength)
    if worst + _pointer.SHIFT_GUARD_SIGMAS * grid.sigma > grid.extent / 2:
        raise GridExtentError(
            f"branch shift {worst} plus {_pointer.SHIFT_GUARD_SIGMAS} sigma exceeds "
            f"extent/2 = {grid.extent / 2} on device axis {c.pointer_axis}"
        )
    momenta = _pointer.fft_momenta(grid.n_points, grid.extent, grid.hbar)
    return np.exp(-1j * np.multiply.outer(c.strength * eigenvalues, momenta) / grid.hbar)


def evolve_exact(s: JointState, c: CouplingSpec) -> JointState:
    """Exact unitary action of exp(-i strength A pi / hbar).

    The observable is split into eigenbranches; the target pointer is
    translated by strength*eigenvalue inside each branch.  Norm is
    preserved within 1e-10.
    """
    axis = _check_coupling(s.system_dim, len(s.pointers), c)
    grid = s.pointers[c.pointer_axis]
    dec = qmath.herm_eig(c.observable)
    phase = _branch_phases(grid, c, dec.eigenvalues)
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
    columns = np.fft.ifft(np.fft.fft(grid.amplitudes) * _branch_phases(grid, c, dec.eigenvalues))
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


# Factored readers.  With G_kl(x_1) = sum_s conj(C_k) C_l (the Gram block,
# n_1 x K^2) and H_kl(x_2) = conj(phi_k) phi_l (the column block,
# K^2 x n_2), the joint density is P(x_1, x_2) = sum_kl G_kl H_kl; both
# blocks are Hermitian in (k, l), so the sum is real.  attach_exact's
# blocks are orthogonal in s, so its cross terms are rounding-sized
# against the nonnegative diagonal and P stays a valid sampling weight.

def _gram(blocks: np.ndarray) -> np.ndarray:
    k = blocks.shape[0]
    return np.einsum("ksx,lsx->xkl", blocks.conj(), blocks).reshape(-1, k * k)


def _column_products(columns: np.ndarray) -> np.ndarray:
    return (columns.conj()[:, None, :] * columns[None, :, :]).reshape(-1, columns.shape[1])


def _real_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a @ b) as one real matmul over the stacked real and imaginary parts."""
    return np.concatenate([a.real, -a.imag], axis=-1) @ np.concatenate([b.real, b.imag], axis=0)


def _marginal(s: State, axis: int) -> np.ndarray:
    """Position density of one device axis, the others summed (no measure)."""
    if not 0 <= axis < len(s.pointers):
        raise MissingAxisError(f"axis {axis} not present ({len(s.pointers)} device axes)")
    if isinstance(s, FactoredState):
        gram, cols = _gram(s.blocks), _column_products(s.columns)
        if axis == 0:
            return _real_product(gram, cols.sum(axis=1))
        return _real_product(gram.sum(axis=0), cols)
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
        return _real_product(_gram(s.blocks), _column_products(s.columns))
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
        blocks = _pointer.momentum_amplitudes(s.blocks, grid)
        return _real_product(_gram(blocks), _column_products(s.columns))
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
        moment = _real_product(x1 @ _gram(s.blocks), _column_products(s.columns) @ x2)
        return float(moment * s.measure)
    p = device_density(s)
    return float(np.einsum("ab,a,b->", p, x1, x2) * s.measure)
