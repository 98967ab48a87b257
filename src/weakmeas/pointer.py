"""Discretized Gaussian measuring-device pointer.

A pointer lives on a uniform position grid of n points covering
[-extent/2, extent/2).  The momentum operator acts spectrally through the
discrete Fourier transform, which makes translations exact for band-limited
states and keeps discretization error out of the physics tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridExtentError, NormalizationError

# construction guard: the sampled Gaussian must fit with negligible tails
MIN_EXTENT_SIGMAS = 16.0
# translation guard: keep six sigmas of the shifted profile inside the grid
SHIFT_GUARD_SIGMAS = 6.0
NORMALIZATION_ACCURACY = 1e-10


def _check_grid_shape(n_points: int, extent: float, sigma: float, hbar: float) -> None:
    if n_points < 2 or (n_points & (n_points - 1)) != 0:
        raise GridExtentError(f"n_points must be a power of two >= 2, got {n_points}")
    if not (extent > 0):
        raise GridExtentError(f"extent must be positive, got {extent}")
    if not (sigma > 0):
        raise GridExtentError(f"sigma must be positive, got {sigma}")
    if not (hbar > 0):
        raise GridExtentError(f"hbar must be positive, got {hbar}")


@dataclass(frozen=True)
class PointerGrid:
    """Normalized pointer wavefunction sampled on a uniform grid.

    Fields
    ------
    n_points : power of two; grid spacing is dx = extent / n_points.
    extent : grid covers [-extent/2, extent/2).
    sigma : width parameter of the underlying Gaussian profile.
    hbar : value of hbar used by every momentum formula.
    amplitudes : n_points complex samples with sum |psi|^2 dx = 1.
    """

    n_points: int
    extent: float
    sigma: float
    hbar: float
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_grid_shape(self.n_points, self.extent, self.sigma, self.hbar)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.n_points,):
            raise GridExtentError(
                f"amplitudes shape {amps.shape} does not match n_points {self.n_points}"
            )
        norm = np.sum(np.abs(amps) ** 2) * self.dx
        if abs(norm - 1.0) > NORMALIZATION_ACCURACY:
            raise NormalizationError(
                f"grid norm {norm!r} deviates from 1 beyond {NORMALIZATION_ACCURACY:.0e}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dx(self) -> float:
        return self.extent / self.n_points

    @property
    def positions(self) -> np.ndarray:
        return -self.extent / 2 + self.dx * np.arange(self.n_points)


@dataclass(frozen=True)
class MomentumGrid:
    """Momentum-representation samples, momenta ascending, spacing dp."""

    momenta: np.ndarray
    dp: float
    hbar: float
    amplitudes: np.ndarray


class Moments(NamedTuple):
    mean_x: float
    var_x: float
    mean_p: float
    var_p: float


def fft_momenta(n_points: int, extent: float, hbar: float) -> np.ndarray:
    """Momentum eigenvalues in FFT index order, p_k = 2*pi*hbar*k~/extent."""
    return 2 * np.pi * hbar * np.fft.fftfreq(n_points, d=extent / n_points)


def momentum_values(p: PointerGrid) -> np.ndarray:
    """Momentum grid of a pointer in ascending order."""
    return np.fft.fftshift(fft_momenta(p.n_points, p.extent, p.hbar))


def gaussian_pointer(sigma: float, n_points: int, extent: float, hbar: float) -> PointerGrid:
    """Sample the ground Gaussian (1/(sqrt(2 pi) sigma))^(1/2) exp(-x^2/4 sigma^2).

    The samples are renormalized on the grid so the normalization invariant
    holds exactly despite tail truncation.  Requires extent >= 16 sigma.
    """
    _check_grid_shape(n_points, extent, sigma, hbar)
    if extent < MIN_EXTENT_SIGMAS * sigma:
        raise GridExtentError(
            f"extent {extent} shorter than {MIN_EXTENT_SIGMAS} sigma = {MIN_EXTENT_SIGMAS * sigma}"
        )
    dx = extent / n_points
    x = -extent / 2 + dx * np.arange(n_points)
    psi = (1.0 / (np.sqrt(2 * np.pi) * sigma)) ** 0.5 * np.exp(-(x**2) / (4 * sigma**2))
    psi = psi.astype(complex)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    return PointerGrid(n_points, extent, sigma, hbar, psi)


def check_shift_reach(reach: float, sigma: float, extent: float, what: str) -> None:
    """Wraparound guard: GridExtentError, naming what, unless reach + 6 sigma <= extent/2."""
    if reach + SHIFT_GUARD_SIGMAS * sigma > extent / 2:
        raise GridExtentError(
            f"{what}: displacement reach {reach} plus {SHIFT_GUARD_SIGMAS} sigma exceeds "
            f"half extent {extent / 2}"
        )


def translation_phases(p: PointerGrid, shifts, what: str) -> np.ndarray:
    """FFT-order factors exp(-i delta pi / hbar) translating by delta, one row per shift.

    The largest |delta| must pass check_shift_reach.
    """
    shifts = np.asarray(shifts, dtype=float)
    check_shift_reach(float(np.max(np.abs(shifts))), p.sigma, p.extent, what)
    momenta = fft_momenta(p.n_points, p.extent, p.hbar)
    return np.exp(-1j * np.multiply.outer(shifts, momenta) / p.hbar)


def shift(p: PointerGrid, delta: float) -> PointerGrid:
    """Translate the wavefunction by delta via the Fourier shift theorem.

    The shift is circular on the grid, so a wraparound guard demands
    |delta| + 6 sigma <= extent / 2.
    """
    phase = translation_phases(p, [delta], "shift")[0]
    shifted = np.fft.ifft(np.fft.fft(p.amplitudes) * phase)
    return PointerGrid(p.n_points, p.extent, p.sigma, p.hbar, shifted)


def momentum_amplitudes(amps: np.ndarray, p: PointerGrid, axis: int = -1) -> np.ndarray:
    """Momentum-representation samples of amps along one axis, momenta ascending.

    amps holds position samples on p's grid along `axis` and anything
    (system index, branch index, a second device) along the others.
    psi~(p) = (2 pi hbar)^(-1/2) integral psi(x) exp(-i p x / hbar) dx is
    evaluated by the FFT and reordered to match momentum_values(p).
    """
    shape = [1] * amps.ndim
    shape[axis] = p.n_points
    # the grid starts at -extent/2, which contributes an alternating phase
    # relative to the index-0-based FFT sum
    phase = np.where(np.arange(p.n_points) % 2 == 0, 1.0, -1.0).reshape(shape)
    ft = np.fft.fft(amps, axis=axis) * phase
    ft *= p.dx / np.sqrt(2 * np.pi * p.hbar)
    return np.fft.fftshift(ft, axes=axis)


def to_momentum(p: PointerGrid) -> MomentumGrid:
    """Momentum representation of the pointer, spacing dp = 2 pi hbar / extent.

    Parseval holds on the grid: sum |psi~|^2 dp = 1.
    """
    return MomentumGrid(
        momenta=momentum_values(p),
        dp=2 * np.pi * p.hbar / p.extent,
        hbar=p.hbar,
        amplitudes=momentum_amplitudes(p.amplitudes, p),
    )


def apply_momentum(p: PointerGrid) -> np.ndarray:
    """Samples of (pi psi)(x), the momentum operator applied spectrally.

    The result is an operator image, not a state; it is not normalized.
    """
    momenta = fft_momenta(p.n_points, p.extent, p.hbar)
    return np.fft.ifft(momenta * np.fft.fft(p.amplitudes))


def moments(p: PointerGrid) -> Moments:
    """Quadrature moments (mean_x, var_x, mean_p, var_p).

    Position moments sum over the position grid; momentum moments are taken
    in the momentum representation so both sides share the spectral
    convention.
    """
    x = p.positions
    rho_x = np.abs(p.amplitudes) ** 2 * p.dx
    mean_x = float(np.sum(rho_x * x))
    var_x = float(np.sum(rho_x * (x - mean_x) ** 2))
    m = to_momentum(p)
    rho_p = np.abs(m.amplitudes) ** 2 * m.dp
    mean_p = float(np.sum(rho_p * m.momenta))
    var_p = float(np.sum(rho_p * (m.momenta - mean_p) ** 2))
    return Moments(mean_x, var_x, mean_p, var_p)
