"""The shared wraparound guard, seen through every site that displaces a pointer.

Each site must accept a reach just inside extent/2 - 6 sigma and reject
one just outside with GridExtentError.  The step is 1e-9 of the extent:
a one-ulp step would round away when the guard adds the 6 sigma band.
"""
from dataclasses import replace

import pytest

from weakmeas import pointer, qmath, scenario, vonneumann, weakvalues
from weakmeas.errors import GridExtentError

SIGMA, N_POINTS, EXTENT = 1.0, 256, 40.0
LIMIT = EXTENT / 2 - pointer.SHIFT_GUARD_SIGMAS * SIGMA
STEP = 1e-9 * EXTENT


def _grid():
    return pointer.gaussian_pointer(SIGMA, N_POINTS, EXTENT, 1.0)


def _shift(reach):
    pointer.shift(_grid(), reach)


def _evolve_exact(reach):
    state = vonneumann.initial_state([1.0, 0.0], [_grid()])
    vonneumann.evolve_exact(state, vonneumann.CouplingSpec(qmath.sigma_z, reach))


def _attach_exact(reach):
    state = vonneumann.initial_state([1.0, 0.0], [pointer.gaussian_pointer(1.0, 64, 16.0, 1.0)])
    coupling = vonneumann.CouplingSpec(qmath.sigma_z, reach)
    vonneumann.attach_exact(state, _grid(), coupling)


def _naive_device_state(reach):
    # <0|sigma_z|0> / <0|0> = 1, so the displacement scale is reach itself
    weakvalues.naive_device_state(qmath.sigma_z, [1.0, 0.0], [1.0, 0.0], reach, _grid())


def _validate_pointer_a(reach):
    # sigma_z has |eigenvalue| 1, so the A reach is |gA_tA|
    grid = scenario.PointerSettings(SIGMA, N_POINTS, EXTENT)
    scenario.validate(replace(scenario.preset("qubit-theta30"), ga_ta=reach, pointer_a=grid))


def _validate_pointer_f(reach):
    # the projector's eigenvalues are 0 and 1, so the F reach is |gF_tF|
    grid = scenario.PointerSettings(SIGMA, N_POINTS, EXTENT)
    scenario.validate(replace(scenario.preset("qubit-theta30"), gf_tf=reach, pointer_f=grid))


SITES = {
    "pointer.shift": (_shift, "shift"),
    "vonneumann.evolve_exact": (_evolve_exact, "device axis 0"),
    "vonneumann.attach_exact": (_attach_exact, "device axis 1"),
    "weakvalues.naive_device_state": (_naive_device_state, "naive device state"),
    "scenario.validate A": (_validate_pointer_a, "pointer_A.extent"),
    "scenario.validate F": (_validate_pointer_f, "pointer_F.extent"),
}


@pytest.mark.parametrize("name", sorted(SITES))
def test_guard_boundary(name):
    site, what = SITES[name]
    site(LIMIT - STEP)
    with pytest.raises(GridExtentError, match=what):
        site(LIMIT + STEP)


def test_guard_rejects_negative_shift():
    with pytest.raises(GridExtentError):
        _shift(-(LIMIT + STEP))
    _shift(-(LIMIT - STEP))
