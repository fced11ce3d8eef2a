"""Density-dependent Hamiltonian: cooling with per-step refresh versus SCF.

With H = H_core + H_exc(P) the exact state must be found self-consistently.
The SCF oracle takes Newton steps on F(P) - P = 0 (use_aitken=True, the
default) or plain Picard steps P -> F(P) (use_aitken=False); the table
compares their iteration counts.  The cooling flow instead refreshes H at
the start of every step, which neglects the non-commutativity of H with its
own rate of change; the commutator watch quantifies how much is being
neglected, and the resulting deviation from the self-consistent state stays
small for weak coupling.
"""

import numpy as np

from fermicool import (
    GrandCanonical,
    HamiltonianModel,
    SolverConfig,
    build_huckel,
    cool,
    default_chemical_potential,
    occupation_spectrum,
    scf_fixed_point,
)

system = build_huckel(10, alpha=0.569, gamma=0.066)
mu = default_chemical_potential(system)
beta = 3.0
config = SolverConfig("rk4", beta_final=beta, delta_beta=0.003, record_every=50)

print("10-site ring with a density-dependent correction\n")
print("coupling   cooled-vs-scf    max ||[H, dH/dbeta]||   scf iters (newton/picard)")
for u in (0.0, 0.05, 0.1):
    model = HamiltonianModel(system, coupling_u=u)
    traj = cool(model, GrandCanonical(mu), config)
    scf = scf_fixed_point(model, GrandCanonical(mu), beta, tol=1e-12, use_aitken=True)
    plain = scf_fixed_point(model, GrandCanonical(mu), beta, tol=1e-12, use_aitken=False)
    err = np.abs(occupation_spectrum(traj.final_density, system.s)
                 - occupation_spectrum(scf.density, system.s)).max()
    defect = traj.diagnostics.h_refresh_defect.max()
    print(f"{u:8.2f}   {err:.3e}        {defect:.3e}               "
          f"{scf.iterations} / {plain.iterations}")

print("\nat zero coupling the Hamiltonian never moves: the commutator watch is")
print("exactly zero and cooling agrees with the one-shot exact state; at finite")
print("coupling the watch turns on and tracks the observed deviation")
