"""Cooling in a non-orthonormal basis, driven by matrices loaded from files.

The shipped sample pair describes an 8-site chain whose basis functions
overlap (Gaussian kernel).  The flow works directly with the overlap metric;
no orthogonalizing change of basis is applied to the equations.
"""

from pathlib import Path

import numpy as np

from fermicool import (
    Canonical,
    GrandCanonical,
    HamiltonianModel,
    SolverConfig,
    cool,
    default_chemical_potential,
    exact_canonical_fd,
    exact_grand_fd,
    load_system,
    occupation_spectrum,
)

data = Path(__file__).resolve().parents[1] / "data"
system = load_system(data / "sample_hcore.mat", data / "sample_overlap.mat")
print(f"loaded {system.dim}x{system.dim} system, "
      f"overlap condition number {np.linalg.cond(system.s.mat):.1f}")

mu = default_chemical_potential(system)
mu_pencil = default_chemical_potential(system, use_pencil=True)
print(f"mid-spectrum mu from H alone: {mu:.6f}, from the (H, S) pencil: {mu_pencil:.6f}")

config = SolverConfig("rk4", beta_final=3.0, delta_beta=0.003, record_every=200)
model = HamiltonianModel(system)

traj = cool(model, GrandCanonical(mu), config)
exact = occupation_spectrum(exact_grand_fd(system, mu, 3.0), system.s)
occ = occupation_spectrum(traj.final_density, system.s)
print(f"\ngrand canonical at beta = 3: max error vs exact state "
      f"{np.abs(occ - exact).max():.3e}")

ne = 4.0
traj_c = cool(model, Canonical(ne), config)
p_exact, mu_exact = exact_canonical_fd(system, ne, 3.0)
occ_c = occupation_spectrum(traj_c.final_density, system.s)
print(f"canonical ({ne:g} electrons): max error "
      f"{np.abs(occ_c - occupation_spectrum(p_exact, system.s)).max():.3e}, "
      f"mu {traj_c.final_mu:.8f} vs mu oracle {mu_exact:.8f}")

print("\nindex   occupation (canonical)")
for i, v in enumerate(occ_c):
    print(f"{i:5d}   {v:.8f}")
