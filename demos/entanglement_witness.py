"""System-device entanglement is what post-selection feeds on.

Schmidt spectrum before and after the von Neumann coupling, for an
observable that does something (sigma_z on a tilted state) and one that
cannot (the identity).  The position correlation witness gives the same
verdict from plain moments.
"""
import numpy as np

from weakmeas import entanglement, estimator, qmath, scenario, vonneumann

sc = scenario.preset("qubit-theta30")

for label, obs in (("sigma_z", qmath.sigma_z), ("identity", np.eye(2))):
    state = vonneumann.initial_state(sc.i_vector, [sc.grid_a()])
    state = vonneumann.evolve_exact(state, vonneumann.CouplingSpec(obs, sc.ga_ta))
    rep = entanglement.product_check(state, "system")
    print(f"A = {label}")
    vals = np.array(rep.singular_values[:3])
    print(f"  singular values: {np.array2string(vals, precision=3)}")
    print(f"  product state:   {rep.is_product}")

print()
witness = entanglement.correlation_witness(estimator.coupled_state(sc))
print("after both couplings, <x_A x_F> - <x_A><x_F> =", f"{witness.correlation_gap:.3e}")
print("a product state would keep that below", witness.tolerance)
