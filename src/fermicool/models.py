"""Problem construction, ensemble data model, exact Fermi-Dirac oracles, and SCF.

The exact states computed here serve as the reference against which the
cooling integrators in :mod:`fermicool.solvers` are validated:

* grand canonical, ``P(beta) = S / (1 + exp[beta (S^-1 H - mu)])``
* canonical, ``P(beta) = N S / (1 + exp[beta (S^-1 H - mu(beta))])`` with the
  normalization ``N = 2 Ne / Tr[S]`` fixing ``Tr[P(0)] = Ne`` and ``mu(beta)``
  solved by a safeguarded Newton search so the trace stays at ``Ne``; the
  search can start from a guess, which the SCF loop takes from its previous
  iterate

For density-dependent Hamiltonians ``H = H_core + H_exc(P)`` the exact state
is the fixed point of ``P -> FermiDirac(H(P))``, found by :func:`scf_fixed_point`.

A system decomposes its pencil ``(H_core, S)`` once (:attr:`SystemSpec.pencil`);
every oracle evaluated at the core Hamiltonian reuses that decomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import DimensionMismatchError, InfeasibleEnsembleError, ScfConvergenceError
from .matcore import (
    EigenPair,
    HermitianMatrix,
    OverlapMatrix,
    aitken_accelerate,
    fermi,
    find_mu_for_occupation,
    generalized_eigh,
    maxabs_asymmetry,
)
from .matio import read_matrix

#: Asymmetry in a loaded matrix above which a warning is emitted.
LOAD_ASYMMETRY_WARN = 1e-8

#: Consecutive non-decreasing SCF residuals treated as oscillation.
SCF_OSCILLATION_LIMIT = 10


@dataclass(frozen=True)
class SystemSpec:
    """A physical problem statement: core Hamiltonian plus overlap metric."""

    h_core: HermitianMatrix
    s: OverlapMatrix

    def __post_init__(self):
        if self.h_core.dim != self.s.dim:
            raise DimensionMismatchError(
                f"h_core is {self.h_core.dim}-dimensional but the overlap is "
                f"{self.s.dim}-dimensional"
            )

    @property
    def dim(self) -> int:
        return self.h_core.dim

    @cached_property
    def pencil(self) -> EigenPair:
        """Generalized eigendecomposition of (h_core, s), computed on first use."""
        return generalized_eigh(self.h_core, self.s)


@dataclass(frozen=True)
class GrandCanonical:
    """Fixed chemical potential; the electron count floats."""

    mu: float


@dataclass(frozen=True)
class Canonical:
    """Fixed electron count; the chemical potential becomes beta-dependent."""

    n_electrons: float

    def __post_init__(self):
        if not self.n_electrons > 0:
            raise InfeasibleEnsembleError(
                f"electron count must be positive, got {self.n_electrons}"
            )


Ensemble = Union[GrandCanonical, Canonical]


def canonical_normalization(n_electrons: float, s) -> float:
    """The scaling 2 Ne / Tr[S] that pins the infinite-temperature trace at Ne.

    Always recomputed from its inputs so it can never go stale.
    """
    return 2.0 * float(n_electrons) / float(np.trace(np.asarray(s, dtype=float)))


def check_canonical_feasible(n_electrons: float, s) -> None:
    """Reject electron counts at or beyond full filling (Ne >= Tr[S])."""
    full = float(np.trace(np.asarray(s, dtype=float)))
    if not 0.0 < n_electrons < full:
        raise InfeasibleEnsembleError(
            f"electron count {n_electrons:.6g} must lie strictly between 0 and "
            f"full filling Tr[S] = {full:.6g}"
        )


@dataclass(frozen=True)
class HamiltonianModel:
    """Linear or density-dependent Hamiltonian, H = H_core + H_exc(P).

    ``coupling_u = 0`` is the linear model (H independent of P).  For
    ``coupling_u != 0`` the correction is a toy density response

        H_exc(P) = u * (D + phi(D) * J),    D = P - (N/2) S,

    where ``phi(D)`` is the mean off-diagonal entry of D and J is the
    alternating on-site pattern diag(+1, -1, ...).  The correction is
    symmetric and vanishes identically at the cooling initial value
    P = N S / 2, so H(beta = 0) = H_core.  The staggered channel makes H_exc
    genuinely non-commuting with the core Hamiltonian once off-diagonal
    coherences develop, the trait of realistic density-functional corrections
    that drives the ``commutator_defect`` diagnostic.
    """

    system: SystemSpec
    coupling_u: float = 0.0

    @property
    def is_linear(self) -> bool:
        return self.coupling_u == 0.0


def effective_hamiltonian(model: HamiltonianModel, p, normalization: float = 1.0) -> HermitianMatrix:
    """Hamiltonian seen by the electrons at density ``p``.

    ``normalization`` is 1 for grand canonical use and the canonical
    normalization 2 Ne / Tr[S] otherwise, so the correction vanishes at the
    respective initial value and H(beta = 0) equals H_core exactly.
    """
    system = model.system
    pm = np.asarray(p, dtype=float)
    if pm.shape != (system.dim, system.dim):
        raise DimensionMismatchError(
            f"density has shape {pm.shape}, system dimension is {system.dim}"
        )
    if model.is_linear:
        return system.h_core
    delta = pm - 0.5 * normalization * system.s.mat
    n = system.dim
    phi = (float(delta.sum()) - float(np.trace(delta))) / n
    stagger = 1.0 - 2.0 * (np.arange(n) % 2)  # diagonal of J: +1, -1, ...
    delta.flat[:: n + 1] += phi * stagger
    return HermitianMatrix(system.h_core.mat + model.coupling_u * delta)


def build_huckel(n: int, alpha: float, gamma: float) -> SystemSpec:
    """Tight-binding ring: alpha on the diagonal, gamma on first off-diagonals
    and at the periodic corners (1, n) and (n, 1).  Identity overlap.

    The spectrum is the circulant set {alpha + 2 gamma cos(2 pi k / n)}.
    """
    if int(n) != n or n < 3:
        raise ValueError(f"ring size must be an integer >= 3, got {n}")
    n = int(n)
    h = np.zeros((n, n))
    np.fill_diagonal(h, alpha)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = gamma
    h[idx + 1, idx] = gamma
    h[0, n - 1] = gamma
    h[n - 1, 0] = gamma
    return SystemSpec(h_core=HermitianMatrix(h), s=OverlapMatrix(np.eye(n)))


def load_system(h_path, s_path=None) -> SystemSpec:
    """Build a system from dense matrix text files.

    With no overlap file the basis is taken orthonormal (S = identity).
    Matrices are symmetrized; asymmetry beyond 1e-8 triggers a warning.
    A non-positive-definite overlap is rejected with the offending eigenvalue.
    """
    h_raw = _load_square(h_path)
    if s_path is None:
        s = OverlapMatrix(np.eye(h_raw.shape[0]))
    else:
        s = OverlapMatrix(_load_square(s_path))
    return SystemSpec(h_core=HermitianMatrix(h_raw), s=s)


def _load_square(path) -> np.ndarray:
    from .errors import MatrixParseError

    m = read_matrix(path)
    if m.shape[0] != m.shape[1]:
        raise MatrixParseError(path, 1, f"matrix must be square, got shape {m.shape}")
    asym = maxabs_asymmetry(m)
    if asym > LOAD_ASYMMETRY_WARN:
        warnings.warn(
            f"{path}: asymmetry {asym:.3e} exceeds {LOAD_ASYMMETRY_WARN:.0e}; "
            f"matrix symmetrized",
            stacklevel=3,
        )
    return m


def default_chemical_potential(system: SystemSpec, use_pencil: bool = False) -> float:
    """Average of the two middle ascending eigenvalues of the core Hamiltonian.

    By default the eigenvalues of H_core itself are used; ``use_pencil``
    switches to the pencil (H_core, S), which differs in a non-orthogonal
    basis.  Degenerate middle eigenvalues are averaged as-is.
    """
    if system.dim < 2:
        raise ValueError("need at least two levels to take a mid-spectrum average")
    if use_pencil:
        vals = system.pencil.values
    else:
        vals = np.linalg.eigvalsh(system.h_core.mat)
    mid = system.dim // 2
    return float(0.5 * (vals[mid - 1] + vals[mid]))


def occupation_spectrum(p, s) -> np.ndarray:
    """Ascending eigenvalues of S^-1 P, the orbital occupation numbers."""
    return generalized_eigh(p, s).values


def _fd_matrix(eig: EigenPair, beta: float, mu: float, normalization: float) -> np.ndarray:
    # P = N (S V) f (S V)^T with f = fermi(beta (lambda - mu)); symmetric PSD
    # by construction.  S V is the transpose of the cached inverse V^T S.
    occ = normalization * fermi(beta * (eig.values - mu))
    w = eig.inv.T
    return (w * occ) @ w.T


def _pencil_of(system: SystemSpec, h_override) -> EigenPair:
    if h_override is None or h_override is system.h_core:
        return system.pencil
    return generalized_eigh(h_override, system.s)


def exact_grand_fd(system: SystemSpec, mu: float, beta: float,
                   h_override=None) -> HermitianMatrix:
    """Exact grand canonical Fermi-Dirac density matrix at inverse temperature beta.

    Computed through the eigendecomposition of the pencil (H, S), which is the
    system's cached :attr:`~SystemSpec.pencil` unless ``h_override`` substitutes
    a different Hamiltonian (used by the self-consistent loop) while keeping
    the system's overlap.  At beta = 0 this is S / 2 exactly.
    """
    if beta == 0.0:
        return HermitianMatrix(0.5 * system.s.mat)
    return HermitianMatrix(_fd_matrix(_pencil_of(system, h_override), beta, mu, 1.0))


def exact_canonical_fd(system: SystemSpec, n_electrons: float, beta: float,
                       h_override=None, mu_guess=None):
    """Exact canonical Fermi-Dirac density matrix and its chemical potential.

    Solves mu(beta) so that Tr[P] = n_electrons within
    :data:`~fermicool.matcore.MU_TOL`, in at most
    :data:`~fermicool.matcore.MU_MAX_ITER` occupation evaluations.  The pencil
    is the system's cached :attr:`~SystemSpec.pencil` unless ``h_override``
    is given.  ``mu_guess``, such as the mu of a nearby Hamiltonian, is where
    the mu search starts when it lies inside the search bracket (see
    :func:`~fermicool.matcore.find_mu_for_occupation`); it changes the
    iteration count, not the tolerance met.  At beta = 0 the state is
    (N/2) S exactly and the reported mu is the analytic limit Tr[H] / Tr[S].

    Returns
    -------
    (HermitianMatrix, float)
        The density matrix and mu(beta).
    """
    check_canonical_feasible(n_electrons, system.s.mat)
    norm = canonical_normalization(n_electrons, system.s.mat)
    if beta == 0.0:
        h = system.h_core if h_override is None else h_override
        mu0 = float(np.trace(np.asarray(h, dtype=float))) / float(np.trace(system.s.mat))
        return HermitianMatrix(0.5 * norm * system.s.mat), mu0
    eig = _pencil_of(system, h_override)
    res = find_mu_for_occupation(eig, system.s.mat, beta, n_electrons, norm, guess=mu_guess)
    return HermitianMatrix(_fd_matrix(eig, beta, res.mu, norm)), res.mu


class ScfResult(NamedTuple):
    """Converged self-consistent state."""

    density: HermitianMatrix
    mu: float
    iterations: int


def scf_fixed_point(
    model: HamiltonianModel,
    ensemble: Ensemble,
    beta: float,
    tol: float = 1e-10,
    max_iter: int = 200,
    use_aitken: bool = True,
    start=None,
) -> ScfResult:
    """Fixed point of P -> ExactFermiDirac(H(P)) for density-dependent Hamiltonians.

    Starts from ``start`` when given, an n x n density such as an estimate
    extrapolated from fixed points at nearby beta, and otherwise from the
    infinite-temperature value (S/2 grand canonical, N S/2 canonical).  It
    iterates until the max-abs change of P drops below ``tol``.
    With ``use_aitken`` every third iterate is replaced by the entrywise Aitken
    extrapolation of the last three (Steffensen cadence), which removes the
    linear convergence mode.

    In the canonical ensemble each iteration's mu search starts from the
    previous iteration's mu; the first one starts from the bracket midpoint.

    Linear models (coupling_u == 0) are their own fixed point after a single
    evaluation and are accepted trivially with ``iterations = 1``.

    Raises
    ------
    ValueError
        When ``tol`` is not finite and positive, ``max_iter`` is below 1, or
        ``start`` does not match the system dimension.
    ScfConvergenceError
        When ``max_iter`` is exhausted, or when the residual has not decreased
        for ten consecutive iterations (oscillation).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"SCF tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"SCF iteration limit must be at least 1, got {max_iter}")
    system = model.system
    if isinstance(ensemble, Canonical):
        check_canonical_feasible(ensemble.n_electrons, system.s.mat)
        norm = canonical_normalization(ensemble.n_electrons, system.s.mat)
    else:
        norm = 1.0
    if start is None:
        p = 0.5 * norm * system.s.mat
    else:
        p = np.asarray(start, dtype=float)
        if p.shape != (system.dim, system.dim):
            raise ValueError(
                f"start density has shape {p.shape}, system dimension is {system.dim}"
            )

    def fd_step(current, mu_guess=None):
        h_eff = effective_hamiltonian(model, current, norm)
        if isinstance(ensemble, Canonical):
            nxt, mu = exact_canonical_fd(system, ensemble.n_electrons, beta,
                                         h_override=h_eff, mu_guess=mu_guess)
            return nxt.mat, mu
        nxt = exact_grand_fd(system, ensemble.mu, beta, h_override=h_eff)
        return nxt.mat, ensemble.mu

    if model.is_linear:
        p_new, mu = fd_step(p)
        return ScfResult(HermitianMatrix(p_new), mu, 1)

    history = [p]
    prev_residual = np.inf
    stalled = 0
    residual = np.inf
    mu = None
    for it in range(1, max_iter + 1):
        p_new, mu = fd_step(p, mu)
        residual = float(np.abs(p_new - p).max())
        if residual < tol:
            return ScfResult(HermitianMatrix(p_new), mu, it)
        stalled = stalled + 1 if residual >= prev_residual else 0
        if stalled >= SCF_OSCILLATION_LIMIT:
            raise ScfConvergenceError(
                residual, it,
                f"SCF residual has not decreased for {SCF_OSCILLATION_LIMIT} "
                f"consecutive iterations (oscillation), last residual {residual:.3e}",
            )
        prev_residual = residual
        history.append(p_new)
        if use_aitken and len(history) == 3:
            p_new = aitken_accelerate(*history)
            history = [p_new]
        p = p_new
    raise ScfConvergenceError(residual, max_iter)
