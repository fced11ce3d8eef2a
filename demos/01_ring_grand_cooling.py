"""Cool a 50-site tight-binding ring to beta = 300 at fixed chemical potential.

The occupation spectrum of the cooled density matrix, which the run keeps from
its last record, is compared against that of the exact Fermi-Dirac state
evaluated by diagonalization.
"""

import numpy as np

from fermicool import (
    GrandCanonical,
    HamiltonianModel,
    SolverConfig,
    build_huckel,
    cool,
    default_chemical_potential,
    exact_grand_fd,
    occupation_spectrum,
)

system = build_huckel(50, alpha=0.569, gamma=0.066)
mu = default_chemical_potential(system)
print(f"50-site ring, on-site 0.569, hopping 0.066")
print(f"chemical potential (mid-spectrum average): {mu:.6f}")

config = SolverConfig("rk4", beta_final=300.0, delta_beta=0.03, record_every=500)
traj = cool(HamiltonianModel(system), GrandCanonical(mu), config)

occ = traj.final_occupations
exact = occupation_spectrum(exact_grand_fd(system, mu, 300.0), system.s)

print(f"\ncooled {config.n_steps} steps to beta = {traj.beta_final}")
print(f"max |occupation - exact| = {np.abs(occ - exact).max():.3e}")
print(f"electrons (trace): {traj.diagnostics.trace[-1]:.6f}")
print(f"smallest occupation along the run: {traj.diagnostics.min_eigenvalue.min():.3e}")

print("\nindex   cooled        exact")
for i in range(0, 50, 7):
    print(f"{i:5d}   {occ[i]:.8f}   {exact[i]:.8f}")
