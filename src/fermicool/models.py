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
is the fixed point of ``F(P) = FermiDirac(H(P))``, found by
:func:`scf_fixed_point`.  The toy model is affine in P, with the linear part
:meth:`HamiltonianModel.response`, so the derivative J of F comes from the
eigendecomposition each evaluation of F already makes (divided differences
of the Fermi factor; in the canonical ensemble a d mu term keeps
Tr[J dP] = 0).  The SCF takes Newton steps (1 - J) delta = F(P) - P and falls
back to the Picard step P -> F(P) whenever the residual did not fall.  The
cooling flow's refresh in :mod:`fermicool.solvers` uses the same response.

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

from .errors import (BracketError, DimensionMismatchError, InfeasibleEnsembleError,
                     MuConvergenceError, ScfConvergenceError)
from .matcore import (
    EigenPair,
    HermitianMatrix,
    OverlapMatrix,
    fermi,
    find_mu_for_occupation,
    generalized_eigh,
    maxabs_asymmetry,
    symmetrize,
)
from .matio import read_matrix

#: Asymmetry in a loaded matrix above which a warning is emitted.
LOAD_ASYMMETRY_WARN = 1e-8

#: Consecutive non-decreasing SCF residuals treated as oscillation; with
#: Newton steps, the count of Picard fallbacks in all.
SCF_OSCILLATION_LIMIT = 10

#: Richardson sweeps that solve each SCF Newton system (1 - J) delta = R.
NEWTON_SWEEPS = 3

#: |beta (lambda_i - lambda_j)| below which two pencil eigenvalues are a tie,
#: whose Fermi divided difference is taken as the derivative instead.
TIE_TOL = 1e-6


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

    Always recomputed from its inputs so it can never go stale.  Electron
    counts at or beyond full filling (not 0 < Ne < Tr[S]) raise
    InfeasibleEnsembleError.
    """
    full = float(np.trace(np.asarray(s, dtype=float)))
    if not 0.0 < n_electrons < full:
        raise InfeasibleEnsembleError(
            f"electron count {n_electrons:.6g} must lie strictly between 0 and "
            f"full filling Tr[S] = {full:.6g}"
        )
    return 2.0 * float(n_electrons) / full


@dataclass(frozen=True)
class HamiltonianModel:
    """Linear or density-dependent Hamiltonian, H = H_core + H_exc(P).

    ``coupling_u = 0`` is the linear model (H independent of P).  For
    ``coupling_u != 0`` the correction is a toy density response

        H_exc(P) = u * (D + phi(D) * J),    D = P - (N/2) S,

    where ``phi(D)`` is the sum of the off-diagonal entries of D divided by
    the dimension n, and J is the alternating on-site pattern
    diag(+1, -1, ...).  The correction is symmetric and vanishes identically
    at the cooling initial value P = N S / 2, so H(beta = 0) = H_core.  The
    staggered channel makes H_exc
    genuinely non-commuting with the core Hamiltonian once off-diagonal
    coherences develop, the trait of realistic density-functional corrections
    that the cooling flow's ``h_refresh_defect`` diagnostic watches.

    The model is affine in P: ``H(P) = H_core + dH(P - (N/2) S)`` with the
    linear response ``dH(dP) = u (dP + phi(dP) J)`` (:meth:`response`).  Its
    image under a change of basis (:meth:`congruent_response`) is what the
    SCF's Newton steps and the cooling flow's frame refresh apply.
    """

    system: SystemSpec
    coupling_u: float = 0.0

    @property
    def is_linear(self) -> bool:
        return self.coupling_u == 0.0

    @property
    def _stagger(self) -> np.ndarray:
        # diagonal of J: +1, -1, ...
        return 1.0 - 2.0 * (np.arange(self.system.dim) % 2)

    def response(self, dp) -> np.ndarray:
        """The linear part of the model, dH(dP) = u (dP + phi(dP) J)."""
        n = self.system.dim
        phi = (float(dp.sum()) - float(np.trace(dp))) / n
        out = np.array(dp, dtype=float)
        out.flat[:: n + 1] += phi * self._stagger
        return self.coupling_u * out

    def congruent_response(self, a, b):
        """The response seen through a change of basis, E -> a^T dH(b E b^T) a.

        For ``a^T b = 1`` this is ``u (E + phi(b E b^T) K)`` with
        ``K = a^T J a`` and ``phi(b E b^T) = (c^T E c - <b^T b, E>) / n``,
        ``c = b^T 1``.  K and the weight of phi are formed here once, so each
        application of the returned map costs O(n^2).  The cooling frame of
        the overlap's eigenpairs is ``a = Z = U s^-1/2, b = Y = U s^1/2``:
        there ``c = Y^T 1``, ``b^T b = diag(s)`` and ``K = Z^T J Z``.  The
        eigenbasis of a pencil is ``a = V, b = S V``.
        """
        n = self.system.dim
        c = b.sum(axis=0)
        weight = np.outer(c, c)
        weight -= b.T @ b
        weight /= n
        k = symmetrize((a.T * self._stagger) @ a)
        u = self.coupling_u
        return lambda e: u * (e + float(np.vdot(weight, e)) * k)


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
    return HermitianMatrix(system.h_core.mat
                           + model.response(pm - 0.5 * normalization * system.s.mat))


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
    basis.  Degenerate middle eigenvalues are averaged as-is.  The two are
    summed and the sum halved; only when the sum overflows is each halved
    before the sum.  A middle eigenvalue beyond the largest float (or NaN)
    raises ValueError, as fewer than two levels do.
    """
    if system.dim < 2:
        raise ValueError("need at least two levels to take a mid-spectrum average")
    if use_pencil:
        vals = system.pencil.values
    else:
        vals = np.linalg.eigvalsh(system.h_core.mat)
    mid = system.dim // 2
    lo, hi = float(vals[mid - 1]), float(vals[mid])
    mu = 0.5 * (lo + hi) if math.isfinite(lo + hi) else 0.5 * lo + 0.5 * hi
    if not math.isfinite(mu):
        raise ValueError(f"the middle eigenvalues {lo:.6g} and {hi:.6g} have no finite average")
    return mu


def occupation_spectrum(p, s) -> np.ndarray:
    """Ascending eigenvalues of S^-1 P, the orbital occupation numbers."""
    return generalized_eigh(p, s).values


def _fd_matrix(eig: EigenPair, beta: float, mu: float, normalization: float) -> np.ndarray:
    # P = N (S V) f (S V)^T with f = fermi(beta (lambda - mu)); symmetric PSD
    # by construction.  S V is the transpose of the cached inverse V^T S.
    # an argument that overflows to +-inf saturates the Fermi factor exactly
    with np.errstate(over="ignore"):
        occ = normalization * fermi(beta * (eig.values - mu))
    w = eig.inv.T
    return (w * occ) @ w.T


def _fd_state(system: SystemSpec, h, beta: float, ensemble: Ensemble, norm: float,
              mu_guess=None):
    """Fermi-Dirac state of the pencil (H, S): (P, mu, pencil of H).

    ``h`` being the system's core Hamiltonian reuses its cached pencil.  A
    canonical ensemble solves mu from ``mu_guess``.  At beta = 0 the state is
    (N/2) S whatever H is, the canonical mu is the limit Tr[H] / Tr[S], and
    no pencil is decomposed (None is returned for it).  A pencil eigenvalue
    past the largest float raises BracketError in either ensemble: the grand
    canonical one checks the levels here, the canonical one through its mu
    bracket (:func:`~fermicool.matcore.find_mu_for_occupation`).
    """
    grand = isinstance(ensemble, GrandCanonical)
    if beta == 0.0:
        if grand:
            mu = ensemble.mu
        else:
            mu = infinite_temperature_mu(h, system.s)
        return HermitianMatrix(0.5 * norm * system.s.mat), mu, None
    eig = system.pencil if h is system.h_core else generalized_eigh(h, system.s)
    if grand:
        if not np.isfinite(eig.values).all():
            raise BracketError(
                f"the pencil eigenvalues [{eig.values.min():.6g}, {eig.values.max():.6g}] "
                f"pass the largest float: the grand canonical state is not defined"
            )
        mu = ensemble.mu
    else:
        mu = find_mu_for_occupation(eig, system.s.mat, beta, ensemble.n_electrons, norm,
                                    guess=mu_guess).mu
    return HermitianMatrix(_fd_matrix(eig, beta, mu, norm)), mu, eig


def infinite_temperature_mu(h, s) -> float:
    """The canonical chemical potential at beta = 0, the limit Tr[H] / Tr[S].

    A trace past the largest float raises InfeasibleEnsembleError instead of
    a numpy overflow warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = float(np.trace(np.asarray(h, dtype=float))) / float(np.trace(np.asarray(s)))
    if not math.isfinite(ratio):
        raise InfeasibleEnsembleError(
            f"the beta = 0 chemical potential Tr[H]/Tr[S] = {ratio} is not finite; "
            f"the entries of H are too large"
        )
    return ratio


def exact_grand_fd(system: SystemSpec, mu: float, beta: float) -> HermitianMatrix:
    """Exact grand canonical Fermi-Dirac density matrix at inverse temperature beta.

    Computed through the system's cached :attr:`~SystemSpec.pencil`, the
    eigendecomposition of (H, S).  At beta = 0 this is S / 2 exactly.  A
    pencil eigenvalue past the largest float raises BracketError.
    """
    return _fd_state(system, system.h_core, beta, GrandCanonical(mu), 1.0)[0]


def exact_canonical_fd(system: SystemSpec, n_electrons: float, beta: float):
    """Exact canonical Fermi-Dirac density matrix and its chemical potential.

    Solves mu(beta) so that Tr[P] = n_electrons within
    :data:`~fermicool.matcore.MU_TOL`, in at most
    :data:`~fermicool.matcore.MU_MAX_ITER` occupation evaluations, through
    the system's cached :attr:`~SystemSpec.pencil`; the search starts at
    its bracket midpoint.  A search that starts from a guess, such as the mu
    of a nearby temperature, is :func:`scf_fixed_point`'s ``mu_guess``.  At
    beta = 0 the state is (N/2) S exactly and the reported mu is the
    analytic limit Tr[H] / Tr[S]; a trace that overflows raises
    InfeasibleEnsembleError.

    Returns
    -------
    (HermitianMatrix, float)
        The density matrix and mu(beta).
    """
    norm = canonical_normalization(n_electrons, system.s.mat)
    p, mu, _ = _fd_state(system, system.h_core, beta, Canonical(n_electrons), norm)
    return p, mu


def _fd_jacobian(model: HamiltonianModel, eig: EigenPair, beta: float, mu: float,
                 norm: float, canonical: bool):
    """The derivative J of P -> FD(H(P)) at the pencil of H(P), in its eigenbasis.

    ``eig`` is the pencil (V, lambda) of H(P) and ``mu`` the chemical potential
    of FD(H(P)).  With W = S V, the Daleckii-Krein formula gives
    J dP = W (K o V^T dH(dP) V) W^T, K_ij = N (f_i - f_j) / (lambda_i - lambda_j)
    and N f'(lambda_i) on ties.  In the canonical ensemble mu moves too: the
    d mu term adds N beta f (1 - f) d mu on the diagonal, with d mu chosen so
    that Tr[J dP] = 0.  Because V^T W = 1, J takes the coordinates X of
    dP = W X W^T to those of J dP; the returned map does that in O(n^2).
    """
    lam = eig.values
    with np.errstate(over="ignore"):  # as in _fd_matrix
        f = fermi(beta * (lam - mu))
    rate = norm * beta * f * (1.0 - f)  # -N f'(lambda), the mu-derivative of N f
    gap = np.subtract.outer(lam, lam)
    tie = np.abs(gap) < TIE_TOL / beta
    gap[tie] = 1.0
    k = np.subtract.outer(f, f)
    k /= gap
    k *= norm
    k[tie] = -0.5 * np.add.outer(rate, rate)[tie]
    w = eig.inv.T
    d_h = model.congruent_response(eig.vectors, w)  # X -> V^T dH(W X W^T) V
    gram = w.T @ w if canonical else None  # Tr[W X W^T] = <W^T W, X>
    slope = float(np.dot(np.diagonal(gram), rate)) if canonical else 0.0
    n = lam.size

    def jacobian(x):
        y = k * d_h(x)
        if slope > 0.0:
            y.flat[:: n + 1] += (-float(np.vdot(gram, y)) / slope) * rate
        return y

    return jacobian


def _newton_step(jacobian, eig: EigenPair, residual: np.ndarray) -> np.ndarray:
    # (1 - J) delta = R by Richardson sweeps X <- V^T R V + J X from X = V^T R V
    v = eig.vectors
    r = v.T @ residual @ v
    x = r
    for _ in range(NEWTON_SWEEPS):
        x = r + jacobian(x)
    w = eig.inv.T
    return w @ x @ w.T


#: F(P) cannot be formed: H(P) or the state is not finite (ValueError), the
#: pencil cannot be decomposed (LinAlgError, a ValueError) or mu is not found.
_FAILED_ITERATE = (ValueError, BracketError, MuConvergenceError)


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
    mu_guess=None,
) -> ScfResult:
    """Fixed point of P -> F(P) = ExactFermiDirac(H(P)) for density-dependent Hamiltonians.

    Starts from ``start`` when given, an n x n density such as an estimate
    extrapolated from fixed points at nearby beta, and otherwise from the
    infinite-temperature value (S/2 grand canonical, N S/2 canonical).  Each
    iteration evaluates F once and stops when the max-abs change
    ``R = F(P) - P`` drops below ``tol``, returning F(P).

    With ``use_aitken`` (the name is kept from an earlier Aitken-extrapolated
    variant) the next iterate is the Newton step P + delta on R(P) = 0:

    * J, the derivative of F, comes from the eigendecomposition (V, lambda)
      of H(P) that the evaluation already made.  With W = S V it is
      J dP = W (K o V^T dH(dP) V) W^T, K_ij = N (f_i - f_j) / (lambda_i -
      lambda_j), and N f'(lambda_i) on near-ties (:func:`_fd_jacobian`);
    * in the canonical ensemble J also moves mu, by the d mu that keeps
      Tr[J dP] = 0;
    * (1 - J) delta = R is solved by :data:`NEWTON_SWEEPS` Richardson sweeps
      delta <- R + J delta from delta = R;
    * whenever the residual did not fall below the previous one, or F at
      the Newton iterate cannot be evaluated (see below), the step is the
      plain Picard step P -> F(P) instead.  Every such fallback counts
      toward the oscillation limit and the count is never reset, so Newton
      steps that keep failing between Picard steps end as oscillation.

    Without ``use_aitken`` every step is the Picard step.

    At extreme coupling F may not be evaluable at an iterate: H(P) is not
    finite, the pencil (H(P), S) cannot be decomposed, or the canonical mu
    search fails.  Past the start density, such a Newton iterate is a failed
    step as above and such a Picard iterate ends the SCF with
    ScfConvergenceError naming the cause, with no numpy warning; at the
    start density the failure raises its own error.

    In the canonical ensemble each iteration's mu search starts from the
    previous iteration's mu; the first one starts from ``mu_guess``, such as
    the mu of a fixed point at a nearby beta, or from the bracket midpoint
    when it is None or outside the bracket
    (:func:`~fermicool.matcore.find_mu_for_occupation`).

    Linear models (coupling_u == 0) are their own fixed point after a single
    evaluation and are accepted trivially with ``iterations = 1``.

    Raises
    ------
    ValueError
        When ``tol`` is not finite and positive, ``max_iter`` is below 1, or
        ``start`` does not match the system dimension.
    ScfConvergenceError
        When ``max_iter`` is exhausted, or when the residual has not decreased
        for ten consecutive iterations, or for ten iterations in all with
        ``use_aitken`` (oscillation), or when F cannot be evaluated at a
        Picard iterate after the start density.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"SCF tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"SCF iteration limit must be at least 1, got {max_iter}")
    system = model.system
    canonical = isinstance(ensemble, Canonical)
    norm = canonical_normalization(ensemble.n_electrons, system.s.mat) if canonical else 1.0
    if start is None:
        p = 0.5 * norm * system.s.mat
    else:
        p = np.asarray(start, dtype=float)
        if p.shape != (system.dim, system.dim):
            raise ValueError(
                f"start density has shape {p.shape}, system dimension is {system.dim}"
            )

    def evaluate(p, mu):
        # F(P), its mu and the pencil of H(P); the mu search starts at ``mu``
        return _fd_state(system, effective_hamiltonian(model, p, norm), beta, ensemble, norm, mu)

    # failures at the start density keep their own errors
    p_new, mu, eig = evaluate(p, mu_guess)
    if model.is_linear:
        return ScfResult(p_new, mu, 1)

    prev_residual = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        r = p_new.mat - p
        residual = float(np.abs(r).max())
        if residual < tol:
            return ScfResult(p_new, mu, it)
        if residual >= prev_residual:
            stalled += 1
        elif not use_aitken:
            stalled = 0
        if stalled >= SCF_OSCILLATION_LIMIT:
            raise ScfConvergenceError(
                residual, it,
                f"SCF residual has not decreased for {SCF_OSCILLATION_LIMIT} "
                f"{'' if use_aitken else 'consecutive '}iterations (oscillation), "
                f"last residual {residual:.3e}",
            )
        if it == max_iter:
            break
        # at extreme coupling F can fail at the next iterate: a Newton iterate
        # then is a failed step, as a rising residual is; a Picard one ends the SCF
        state = None
        with np.errstate(over="ignore", invalid="ignore"):
            if use_aitken and eig is not None and residual < prev_residual:
                trial = p + _newton_step(_fd_jacobian(model, eig, beta, mu, norm, canonical),
                                         eig, r)
                try:
                    state, p = evaluate(trial, mu), trial
                except _FAILED_ITERATE:
                    stalled += 1
            if state is None:
                p = p_new.mat
                try:
                    state = evaluate(p, mu)
                except _FAILED_ITERATE as exc:
                    cause = ("the pencil of H(P) cannot be decomposed"
                             if isinstance(exc, np.linalg.LinAlgError) else exc)
                    raise ScfConvergenceError(
                        residual, it,
                        f"SCF iterate {it + 1}, a Picard step, has no Fermi-Dirac state: {cause}",
                    ) from None
        p_new, mu, eig = state
        prev_residual = residual
    raise ScfConvergenceError(residual, max_iter)
