"""Canonical cooling: hold the electron count fixed while beta grows.

The trace constraint is built into the flow, so Tr[P] stays at the electron
count without any projection step.  The chemical potential is integrated
alongside the density and checked against the exact mu oracle at a few
temperatures.
"""

import numpy as np

from fermicool import (
    Canonical,
    HamiltonianModel,
    SolverConfig,
    build_huckel,
    cool,
    exact_canonical_fd,
)

system = build_huckel(50, alpha=0.569, gamma=0.066)
n_electrons = 25.0

config = SolverConfig("rk4", beta_final=300.0, delta_beta=0.03, record_every=1000)
traj = cool(HamiltonianModel(system), Canonical(n_electrons), config)

print(f"half-filled 50-site ring, {n_electrons:g} electrons")
print(f"max |Tr[P] - {n_electrons:g}| over the run: "
      f"{np.abs(traj.diagnostics.trace - n_electrons).max():.3e}")

print("\nbeta      mu integrated     mu oracle         difference")
for beta, mu_int in zip(traj.betas, traj.mu_trace):
    _, mu_oracle = exact_canonical_fd(system, n_electrons, float(beta))
    print(f"{beta:7.1f}   {mu_int:.12f}   {mu_oracle:.12f}   {abs(mu_int - mu_oracle):.2e}")

print("\nthe mid-band ring is particle-hole symmetric, so mu stays pinned at")
print("the band center for every temperature")
