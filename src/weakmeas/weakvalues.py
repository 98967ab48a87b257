"""Closed-form weak-value algebra and readout identities.

The weak value <F|A|I>/<F|I> is a complex number that can leave the
eigenvalue range of A.  Its real part is what a position readout of a
weakly coupled pointer reports after post-selection, its imaginary part
what a momentum readout reports; both identities are expressed here as
pure expectation-value formulas over the pre-state, with the projector
F = |F><F| always built internally from the post-selection ket.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import DimensionError, OrthogonalSelectionError
from .pointer import PointerGrid, apply_momentum, check_shift_reach

# below this overlap the weak value is a pole, reported as an error
ORTHOGONALITY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class WeakValueReport:
    """Weak value, its readout formulas, and commutation diagnostics.

    commutator_norms holds max-entry norms keyed "[A,F]", "[F,rho_I]",
    "[A,rho_I]" and "[A,[F,rho_I]]"; all four vanishing is the fully
    classical regime in which the readout formulas reduce to <I|A|I>.
    """

    weak_value: complex
    re_formula: float
    im_formula: float
    overlap: complex
    postselect_prob: float
    commutator_norms: dict


def _inputs(a, initial, final):
    m = qmath.require_hermitian(a, what="observable")
    i_vec = qmath.ket(initial)
    f_vec = qmath.ket(final)
    if m.shape[0] != i_vec.size or i_vec.size != f_vec.size:
        raise DimensionError(
            f"dims disagree: A is {m.shape[0]}, I is {i_vec.size}, F is {f_vec.size}"
        )
    return m, i_vec, f_vec


def weak_value(a, initial, final) -> complex:
    """Post-selected ratio <F|A|I> / <F|I>.

    Raises OrthogonalSelectionError when |<F|I>| < 1e-12: at the pole the
    value is unbounded and is never reported as a number.
    """
    m, i_vec, f_vec = _inputs(a, initial, final)
    overlap = complex(np.vdot(f_vec, i_vec))
    if abs(overlap) < ORTHOGONALITY_THRESHOLD:
        raise OrthogonalSelectionError(
            f"|<F|I>| = {abs(overlap):.3e} below {ORTHOGONALITY_THRESHOLD:.0e}"
        )
    return complex(np.vdot(f_vec, m @ i_vec) / overlap)


def _formula_parts(a, initial, final):
    m, i_vec, f_vec = _inputs(a, initial, final)
    fhat = qmath.projector(f_vec)
    prob = qmath.expectation(fhat, i_vec).real
    if prob < ORTHOGONALITY_THRESHOLD:
        raise OrthogonalSelectionError(
            f"<I|F|I> = {prob:.3e} below {ORTHOGONALITY_THRESHOLD:.0e}"
        )
    return m, i_vec, fhat, prob


def re_weak_formula(a, initial, final) -> float:
    """<I|(FA + AF)|I> / (2 <I|F|I>), the position-readout identity."""
    m, i_vec, fhat, prob = _formula_parts(a, initial, final)
    num = qmath.expectation(qmath.anticommutator(fhat, m), i_vec).real
    return num / (2 * prob)


def im_weak_formula(a, initial, final) -> float:
    """<I|(FA - AF)|I> / (2i <I|F|I>), the momentum-readout identity."""
    m, i_vec, fhat, prob = _formula_parts(a, initial, final)
    num = qmath.expectation(qmath.commutator(fhat, m), i_vec)
    # the commutator expectation is purely imaginary for Hermitian inputs
    return num.imag / (2 * prob)


def commutation_report(a, initial, final) -> WeakValueReport:
    """Full report: weak value, both readout formulas, commutation norms."""
    m, i_vec, f_vec = _inputs(a, initial, final)
    overlap = complex(np.vdot(f_vec, i_vec))
    fhat = qmath.projector(f_vec)
    rho_i = qmath.projector(i_vec)

    def entry_norm(x):
        return float(np.max(np.abs(x)))

    norms = {
        "[A,F]": entry_norm(qmath.commutator(m, fhat)),
        "[F,rho_I]": entry_norm(qmath.commutator(fhat, rho_i)),
        "[A,rho_I]": entry_norm(qmath.commutator(m, rho_i)),
        "[A,[F,rho_I]]": entry_norm(qmath.commutator(m, qmath.commutator(fhat, rho_i))),
    }
    return WeakValueReport(
        weak_value=weak_value(m, i_vec, f_vec),
        re_formula=re_weak_formula(m, i_vec, f_vec),
        im_formula=im_weak_formula(m, i_vec, f_vec),
        overlap=overlap,
        postselect_prob=float(abs(overlap) ** 2),
        commutator_norms=norms,
    )


def naive_device_state(a, initial, final, strength: float, p: PointerGrid) -> PointerGrid:
    """The separability-assuming device state phi - (i g/hbar) A_w pi phi.

    Diagnostic only: treating this as the true post-interaction device
    state ignores system-device entanglement.  It is still useful because
    its position and momentum means reproduce strength*Re(A_w) and the
    matching imaginary-part readout to first order.  Renormalized before
    return.
    """
    aw = weak_value(a, initial, final)
    check_shift_reach(abs(strength * aw), p.sigma, p.extent, "naive device state")
    amps = p.amplitudes - 1j * strength / p.hbar * aw * apply_momentum(p)
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * p.dx)
    return PointerGrid(p.n_points, p.extent, p.sigma, p.hbar, amps)


__all__ = [
    "ORTHOGONALITY_THRESHOLD",
    "WeakValueReport",
    "weak_value",
    "re_weak_formula",
    "im_weak_formula",
    "commutation_report",
    "naive_device_state",
]
