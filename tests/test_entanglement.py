"""Separability witnesses: Schmidt cuts and the device correlation gap."""
import numpy as np
import pytest

from weakmeas import entanglement, pointer, qmath, vonneumann
from weakmeas.errors import DimensionError, MissingAxisError

SQ3 = np.sqrt(3.0)
THETA_I = np.array([SQ3 / 2, 0.5])
G_A = 0.05
G_F = 1.0


def two_device_state(second_observable, g_a=G_A, g_f=G_F):
    pa = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
    pf = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
    s = vonneumann.initial_state(THETA_I, [pa])
    s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, g_a))
    return vonneumann.attach_exact(s, pf, vonneumann.CouplingSpec(second_observable, g_f))


class TestProductCheck:
    def test_initial_state_is_product(self):
        p = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
        s = vonneumann.initial_state(THETA_I, [p])
        rep = entanglement.product_check(s, "system")
        assert rep.is_product is True
        assert rep.singular_values[0] == pytest.approx(1.0, abs=1e-10)
        assert rep.singular_values[1] <= 1e-10
        assert rep.tolerance == 1e-10

    def test_weak_coupling_entangles(self):
        p = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
        s = vonneumann.initial_state(THETA_I, [p])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, G_A))
        rep = entanglement.product_check(s, "system")
        assert rep.is_product is False
        assert rep.singular_values[1] > 1e-6

    def test_identity_coupling_stays_product(self):
        # c-number observable: the device shifts but never marks the system
        p = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
        s = vonneumann.initial_state(THETA_I, [p])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(np.eye(2), 0.4))
        rep = entanglement.product_check(s, "system")
        assert rep.is_product is True

    def test_two_axis_bipartitions(self):
        # "system" and "axis0" split the same pure state of system and device
        # from opposite sides, so they share one Schmidt spectrum
        pa = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
        s = vonneumann.initial_state(THETA_I, [pa])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, G_A))
        system = entanglement.product_check(s, "system")
        device = entanglement.product_check(s, "axis0")
        assert system.is_product is False and device.is_product is False
        np.testing.assert_allclose(device.singular_values, system.singular_values,
                                   rtol=0, atol=1e-12)

    def test_singular_values_sorted_and_normalized(self):
        # a qutrit coupled through three eigenbranches keeps three Schmidt values
        rng = np.random.default_rng(5104)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        psi = qmath.normalize(rng.normal(size=3) + 1j * rng.normal(size=3))
        p = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
        s = vonneumann.evolve_exact(
            vonneumann.initial_state(psi, [p]), vonneumann.CouplingSpec((m + m.conj().T) / 4, 0.5)
        )
        rep = entanglement.product_check(s, "system")
        vals = np.array(rep.singular_values)
        assert vals.size == 3 and vals[2] > 1e-6
        assert np.all(np.diff(vals) <= 0)
        assert np.linalg.norm(vals) == pytest.approx(1.0, abs=1e-10)

    def test_local_unitary_invariance(self):
        p = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
        s = vonneumann.initial_state(THETA_I, [p])
        s = vonneumann.evolve_exact(s, vonneumann.CouplingSpec(qmath.sigma_z, G_A))
        base = entanglement.product_check(s, "system")

        rng = np.random.default_rng(5103)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(m)
        phase = np.exp(1j * rng.normal(size=p.n_points))
        rotated = vonneumann.JointState(
            s.system_dim, s.pointers, (u @ s.amplitudes) * phase[None, :]
        )
        turned = entanglement.product_check(rotated, "system")
        np.testing.assert_allclose(
            turned.singular_values, base.singular_values, rtol=0, atol=1e-10
        )
        assert turned.is_product == base.is_product

    def test_bad_bipartition_labels(self):
        p = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
        s = vonneumann.initial_state(THETA_I, [p])
        with pytest.raises(DimensionError):
            entanglement.product_check(s, "axis1")
        with pytest.raises(DimensionError):
            entanglement.product_check(s, "diagonal")


class TestCorrelationWitness:
    def test_product_state_has_no_gap(self):
        # a zero identity coupling attaches device F without touching anything
        s = two_device_state(np.eye(2), g_a=0.0, g_f=0.0)
        rep = entanglement.correlation_witness(s)
        assert rep.correlation_gap <= 1e-10
        assert rep.bipartition == "axis0|axis1"
        assert rep.is_product is None

    def test_sequential_couplings_open_gap(self):
        # <x_A x_F> = 0.5 g_A g_F while mean_A mean_F stays O(g_A^2):
        # the gap sits at 0.375 g_A up to O(g_A^2) corrections
        s = two_device_state(qmath.projector(np.array([SQ3 / 2, -0.5])))
        rep = entanglement.correlation_witness(s)
        assert rep.correlation_gap > 1e-8
        assert rep.correlation_gap == pytest.approx(0.375 * G_A, abs=2e-5)

    def test_commuting_couplings_still_correlate(self):
        # F diagonal alongside sigma_z: a classically correlated pure state.
        # gap = 0.0375 - 0.025*0.75 exactly; nonzero without any
        # noncommutation, so the witness never claims quantumness.
        s = two_device_state(np.diag([1.0, 0.0]))
        rep = entanglement.correlation_witness(s)
        assert rep.correlation_gap == pytest.approx(0.01875, abs=1e-9)

    def test_single_axis_rejected(self):
        p = pointer.gaussian_pointer(1.0, 256, 40.0, 1.0)
        s = vonneumann.initial_state(THETA_I, [p])
        with pytest.raises(MissingAxisError):
            entanglement.correlation_witness(s)
