"""Positivity is structural for the congruence schemes, not an accident.

The congruence update A P A^T cannot create negative eigenvalues, for any
operator and any step size.  Driving the first-order scheme with a step far
too crude to be accurate makes that concrete: the answer degrades in
accuracy, never in physicality.  Runge-Kutta carries no such guarantee, so
the integrator monitors the smallest occupation, the smallest eigenvalue of
S^-1 P, at every recorded step and reports violations instead of clipping them.
"""

import numpy as np

from fermicool import (
    GrandCanonical,
    HamiltonianModel,
    SolverAbortError,
    SolverConfig,
    build_huckel,
    cool,
    default_chemical_potential,
    exact_grand_fd,
    occupation_spectrum,
)

system = build_huckel(12, alpha=0.0, gamma=1.0)
mu = default_chemical_potential(system)
ensemble = GrandCanonical(mu)
model = HamiltonianModel(system)
exact = occupation_spectrum(exact_grand_fd(system, mu, 30.0), system.s)

print("12-site ring, unit hopping, deliberately crude step dbeta = 1.5 to beta = 30\n")
for scheme in ("kraus1", "kraus2", "rk4"):
    config = SolverConfig(scheme, beta_final=30.0, delta_beta=1.5, record_every=1)
    try:
        traj = cool(model, ensemble, config)
    except SolverAbortError as err:
        print(f"{scheme:8s}  aborted at beta = {err.last_good_beta:g}: the second-order")
        print( "          operator is expansive at this step, so norms overflow;")
        print( "          every iterate before the overflow was still positive\n")
        continue
    occ = traj.final_occupations
    print(f"{scheme:8s}  smallest occupation along the run: "
          f"{traj.diagnostics.min_eigenvalue.min():+.3e}")
    print(f"          occupations stay in [{occ.min():+.3e}, {occ.max():.6f}]")
    print(f"          max error vs the exact state: {np.abs(occ - exact).max():.3e}"
          f"   (recorded positivity violations: {len(traj.positivity_violations)})\n")

print("a 20x coarser step than demo 01 costs the first-order scheme almost all")
print("of its accuracy, yet the iterates remain genuine density matrices; with")
print("a sane step every scheme is both accurate and positive")
