"""Separability witnesses for the coupled system-device state.

Two complementary checks.  The pure-state check cuts the joint amplitude
tensor along a chosen bipartition and inspects its Schmidt spectrum: a
second singular value above tolerance certifies the cut is not a product.
The correlation witness compares <x_A x_F> with the product of marginal
means; a gap refutes the product form of the two-device state.  Both are
one-sided: they can certify entanglement or correlation, never rule it
out, and no mixed-state separability decision is attempted.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionError
from .vonneumann import FactoredState, State, mean_pointer, position_correlation

PRODUCT_TOLERANCE = 1e-10
CORRELATION_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of one witness.

    Pure-state checks fill singular_values (descending, unit 2-norm) and
    is_product; the correlation witness fills correlation_gap instead and
    leaves is_product None because a nonzero gap is one-sided evidence.
    """

    bipartition: str
    tolerance: float
    singular_values: Optional[Tuple[float, ...]] = None
    is_product: Optional[bool] = None
    correlation_gap: Optional[float] = None


# the amplitude tensor axis each cut splits off: the system, device 0, device 1
_CUT_AXES = {"system": 0, "axis0": 1, "axis1": 2}


def _cut_matrix(s: State, bipartition: str) -> np.ndarray:
    if bipartition not in _CUT_AXES:
        raise DimensionError(
            f"unknown bipartition {bipartition!r}; expected 'system', 'axis0' or 'axis1'"
        )
    axis = _CUT_AXES[bipartition]
    if axis > len(s.pointers):
        raise DimensionError(f"bipartition {bipartition!r} needs a second device axis")
    if isinstance(s, FactoredState):
        s = s.to_joint()
    moved = np.moveaxis(s.amplitudes, axis, 0)
    return moved.reshape(moved.shape[0], -1)


def product_check(s: State, bipartition: str = "system") -> SeparabilityReport:
    """Schmidt test of one cut: product iff a single singular value survives."""
    matrix = _cut_matrix(s, bipartition)
    values = np.linalg.svd(matrix, compute_uv=False)
    scale = np.linalg.norm(values)
    if scale == 0.0:
        raise DimensionError("cannot test a zero state for separability")
    values = values / scale
    second = float(values[1]) if values.size > 1 else 0.0
    return SeparabilityReport(
        bipartition=bipartition,
        tolerance=PRODUCT_TOLERANCE,
        singular_values=tuple(float(v) for v in values),
        is_product=second <= PRODUCT_TOLERANCE,
    )


def correlation_witness(s: State) -> SeparabilityReport:
    """Gap |<x_A x_F> - mean_A * mean_F| between the two device axes.

    Zero for every product of device states.  A nonzero gap also arises
    from purely classical correlation (commuting couplings), so the gap
    refutes the product form only, never certifies quantumness.
    """
    gap = abs(position_correlation(s) - mean_pointer(s, 0) * mean_pointer(s, 1))
    return SeparabilityReport(
        bipartition="axis0|axis1",
        tolerance=CORRELATION_TOLERANCE,
        correlation_gap=float(gap),
    )
