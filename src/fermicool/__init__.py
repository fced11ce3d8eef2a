"""Finite-temperature Fermi-Dirac density matrices by positivity-preserving cooling.

The package integrates matrix cooling flows from infinite temperature
(beta = 0) down to a target inverse temperature, for grand canonical and
canonical ensembles in orthogonal or non-orthogonal bases, and validates the
results against exact eigendecomposition oracles.
"""

from .errors import (
    BracketError,
    DegenerateTraceError,
    DimensionMismatchError,
    FermicoolError,
    InfeasibleEnsembleError,
    MatrixParseError,
    MuConvergenceError,
    NotPositiveDefiniteError,
    ScfConvergenceError,
    SolverAbortError,
)
from .matcore import (
    HermitianMatrix,
    MuSearchResult,
    OverlapMatrix,
    fermi,
    find_mu_for_occupation,
    maxabs_asymmetry,
    symmetrize,
)
from .matio import read_matrix, write_matrix
from .models import (
    Canonical,
    Ensemble,
    GrandCanonical,
    HamiltonianModel,
    ScfResult,
    SystemSpec,
    build_huckel,
    canonical_normalization,
    default_chemical_potential,
    exact_canonical_fd,
    exact_grand_fd,
    load_system,
    occupation_spectrum,
    scf_fixed_point,
)
from .solvers import (
    SolverConfig,
    Trajectory,
    TrajectoryDiagnostics,
    cool,
    step_kraus1,
    step_kraus2,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "Canonical",
    "DegenerateTraceError",
    "DimensionMismatchError",
    "Ensemble",
    "FermicoolError",
    "GrandCanonical",
    "HamiltonianModel",
    "HermitianMatrix",
    "InfeasibleEnsembleError",
    "MatrixParseError",
    "MuConvergenceError",
    "MuSearchResult",
    "NotPositiveDefiniteError",
    "OverlapMatrix",
    "ScfConvergenceError",
    "ScfResult",
    "SolverAbortError",
    "SolverConfig",
    "SystemSpec",
    "Trajectory",
    "TrajectoryDiagnostics",
    "build_huckel",
    "canonical_normalization",
    "cool",
    "default_chemical_potential",
    "exact_canonical_fd",
    "exact_grand_fd",
    "fermi",
    "find_mu_for_occupation",
    "load_system",
    "maxabs_asymmetry",
    "occupation_spectrum",
    "read_matrix",
    "scf_fixed_point",
    "step_kraus1",
    "step_kraus2",
    "symmetrize",
    "write_matrix",
]
