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
back to the Picard step P -> F(P) whenever the residual did not fall.

A system fixes the overlap frame (:attr:`SystemSpec.frame`): Y = U s^1/2 and
Z = Y^-T from the overlap's eigenpairs S = U diag(s) U^T, in which a density
is carried as Q = Z^T P Z against G = Z^T H Z, with the standard eigenproblem
of G in place of the pencil (H, S).  The cooling flow in
:mod:`fermicool.solvers` and every exact state work there.  One evaluation,
F(Q) = C diag(N f) C^T from the levels G = C diag(lambda) C^T, serves the
SCF and the linear oracles :func:`exact_grand_fd`, :func:`exact_canonical_fd`
and :func:`exact_canonical_mu` alike; a linear model's levels are those of
G_core, decomposed once per system (:attr:`SystemSpec.levels`), and a
nonlinear model refreshes G through its response seen in the frame
(:attr:`HamiltonianModel.frame_response`) in O(n^2), as the cooling flow does.
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

#: |beta (lambda_i - lambda_j)| below which two levels of G(Q) are a tie,
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
    def frame(self) -> tuple:
        """The frame (s, Y, Z, G_core) in which densities are carried, computed on first use.

        (s, Y, Z) is the overlap's canonical-orthogonalization frame
        (:attr:`~fermicool.matcore.OverlapMatrix.frame`) and
        ``G_core = Z^T H_core Z``, symmetrized: a density P is carried as
        ``Q = Z^T P Z``, so that ``P = Y Q Y^T`` and ``Tr[P] = s . diag(Q)``.
        When S is exactly the identity there is no frame change: the tuple is
        ``(None, None, None, H_core)`` and Q is P itself.  All are read-only.
        """
        s_mat = self.s.mat
        if np.count_nonzero(s_mat) == self.dim and (np.diagonal(s_mat) == 1.0).all():
            return None, None, None, self.h_core.mat
        w, y, z = self.s.frame
        g_core = symmetrize(z.T @ self.h_core.mat @ z)
        g_core.flags.writeable = False
        return w, y, z, g_core

    @cached_property
    def levels(self):
        """The eigenpairs (lambda, C) of G_core = C diag(lambda) C^T, computed on first use.

        lambda holds the ascending levels of the pencil (H_core, S) and C the
        orthogonal eigenvectors of G_core (:attr:`frame`), whose columns are
        the pencil's eigenvectors Z C seen in the frame
        (:func:`~fermicool.matcore.generalized_eigh`).  C is kept in
        column-major order, the layout of ``S V`` in the pencil formula
        P = (S V) diag(N f) (S V)^T: with S = 1 it keeps the states and the
        occupation weights formed from C byte-identical to that formula's
        on ``eigh(H)``.  Both are read-only.
        """
        lam, c = generalized_eigh(self.frame[3])
        c = np.asfortranarray(c)
        lam.flags.writeable = c.flags.writeable = False
        return lam, c


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
    image in the system's frame (:attr:`frame_response`) is what the cooling
    flow's refresh and the SCF apply.
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

    @cached_property
    def frame_response(self) -> "FrameResponse":
        """The response seen in the system's frame, E -> Z^T dH(Y E Y^T) Z, formed on first use."""
        return FrameResponse(self)


class FrameResponse:
    """A model's response in its system's frame, E -> Z^T dH(Y E Y^T) Z.

    Because ``Z^T Y = 1`` this is ``u (E + phi K)`` with ``K = Z^T J Z`` and
    ``phi = (c^T E c - s . diag(E)) / n``, ``c = Y^T 1``: the refresh
    ``G(Q) = G_core + response(Q - N/2)`` of the frame Hamiltonian.  K, c
    and the weight of phi are per-system constants formed here once, so each
    application costs O(n^2).  When S is exactly the identity the frame is P
    itself, the map is :meth:`HamiltonianModel.response`, c = 1 and K = J.
    """

    def __init__(self, model: HamiltonianModel):
        _, y, z, self._g_core = model.system.frame
        n = model.system.dim
        if y is None:
            self._map = model.response
            self.c, self.k = np.ones(n), np.diag(model._stagger)
            return
        self.c = y.sum(axis=0)
        weight = np.outer(self.c, self.c)
        weight -= y.T @ y
        weight /= n
        self.k = symmetrize((z.T * model._stagger) @ z)
        u, k = model.coupling_u, self.k
        self._map = lambda e: u * (e + float(np.vdot(weight, e)) * k)

    def __call__(self, e) -> np.ndarray:
        return self._map(e)

    def hamiltonian(self, q, norm: float) -> np.ndarray:
        """The frame Hamiltonian G(Q) = G_core + response(Q - N/2) of a frame state Q."""
        e = q.copy()
        e.flat[:: q.shape[0] + 1] -= 0.5 * norm
        return self._g_core + self._map(e)

    def eigenbasis(self, c, gram):
        """The response in an eigenbasis C of a frame matrix, X -> C^T dG(C X C^T) C.

        ``c`` is orthogonal and ``gram = C^T diag(s) C`` (``C^T C`` when S is
        the identity), so that ``s . diag(C X C^T) = <gram, X>``.  The map is
        ``u (X + <W, X> C^T K C)`` with ``W = ((C^T c)(C^T c)^T - gram) / n``;
        returns (W, C^T K C), whose forming takes two products.
        """
        n = c.shape[0]
        d = c.T @ self.c
        weight = np.outer(d, d)
        weight -= gram
        weight /= n
        return weight, c.T @ self.k @ c


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
        vals = system.levels[0]
    else:
        vals = np.linalg.eigvalsh(system.h_core.mat)
    mid = system.dim // 2
    lo, hi = float(vals[mid - 1]), float(vals[mid])
    mu = 0.5 * (lo + hi) if math.isfinite(lo + hi) else 0.5 * lo + 0.5 * hi
    if not math.isfinite(mu):
        raise ValueError(f"the middle eigenvalues {lo:.6g} and {hi:.6g} have no finite average")
    return mu


def occupation_spectrum(p, s) -> np.ndarray:
    """Ascending eigenvalues of S^-1 P, the orbital occupation numbers.

    They are the eigenvalues of Z^T P Z in the overlap's frame
    (:attr:`~fermicool.matcore.OverlapMatrix.frame`), since
    S^-1 P = Z (Z^T P Z) Z^-1; one ``eigvalsh`` takes them, and no
    eigenvector is formed.  A plain array ``s`` is validated as an
    :class:`~fermicool.matcore.OverlapMatrix` (NotPositiveDefiniteError);
    a ``p`` of another shape raises DimensionMismatchError.
    """
    s = s if isinstance(s, OverlapMatrix) else OverlapMatrix(s)
    p = np.asarray(p, dtype=float)
    if p.shape != (s.dim, s.dim):
        raise DimensionMismatchError(
            f"density has shape {p.shape}, the overlap is {s.dim}-dimensional"
        )
    z = s.frame[2]
    return np.linalg.eigvalsh(symmetrize(z.T @ p @ z))


def _check_levels(values):
    # a grand canonical state needs every level finite; the canonical mu
    # search checks its bracket instead
    if not np.isfinite(values).all():
        raise BracketError(
            f"the pencil eigenvalues [{values.min():.6g}, {values.max():.6g}] "
            f"pass the largest float: the grand canonical state is not defined"
        )


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

    Computed from the system's cached :attr:`~SystemSpec.levels`, the
    eigendecomposition of (H, S) in the overlap frame.  At beta = 0 this is
    S / 2 exactly.  A level past the largest float raises BracketError.
    """
    return _exact_state(system, beta, GrandCanonical(mu), 1.0)[0]


def exact_canonical_fd(system: SystemSpec, n_electrons: float, beta: float):
    """Exact canonical Fermi-Dirac density matrix and its chemical potential.

    Solves mu(beta) so that Tr[P] = n_electrons within
    :data:`~fermicool.matcore.MU_TOL`, in at most
    :data:`~fermicool.matcore.MU_MAX_ITER` occupation evaluations, on the
    system's cached :attr:`~SystemSpec.levels`; the search starts at its
    bracket midpoint.  A search that starts from a guess, such as the mu of
    a nearby temperature, is :func:`exact_canonical_mu`'s or
    :func:`scf_fixed_point`'s ``mu_guess``.  At beta = 0 the state is
    (N/2) S exactly and the reported mu is the analytic limit Tr[H] / Tr[S];
    a trace that overflows raises InfeasibleEnsembleError.

    Returns
    -------
    (HermitianMatrix, float)
        The density matrix and mu(beta).
    """
    norm = canonical_normalization(n_electrons, system.s.mat)
    return _exact_state(system, beta, Canonical(n_electrons), norm)


def exact_canonical_mu(system: SystemSpec, n_electrons: float, beta: float,
                       mu_guess=None) -> float:
    """The chemical potential of :func:`exact_canonical_fd`'s state, without the state.

    The mu search runs on the system's cached :attr:`~SystemSpec.levels` and
    starts from ``mu_guess`` (the bracket midpoint when it is None or outside
    the bracket); at beta = 0 mu is the limit Tr[H] / Tr[S].  The errors are
    those of :func:`exact_canonical_fd`.
    """
    norm = canonical_normalization(n_electrons, system.s.mat)
    if beta == 0.0:
        return infinite_temperature_mu(system.h_core, system.s)
    return _levels_mu(system, system.levels, beta, n_electrons, norm, mu_guess)


def _exact_state(system: SystemSpec, beta: float, ensemble: Ensemble, norm: float):
    # the linear model's state (P, mu): F(Q) does not depend on Q, so one
    # evaluation at the start Q = N/2 is the fixed point
    f, mu, _ = _frame_state(HamiltonianModel(system), np.eye(system.dim) * (0.5 * norm),
                            beta, ensemble, norm)
    return _density(system, f, beta, norm), mu


def _density(system: SystemSpec, f, beta: float, norm: float) -> HermitianMatrix:
    # the S-frame density P = Y F Y^T of a frame state F; (N/2) S exactly at beta = 0
    if beta == 0.0:
        return HermitianMatrix(0.5 * norm * system.s.mat)
    y = system.frame[1]
    return HermitianMatrix(f if y is None else y @ f @ y.T)


def _levels_mu(system: SystemSpec, levels, beta: float, n_electrons: float, norm: float,
               mu_guess):
    """The canonical mu of the levels (lambda, C) of a frame matrix, searched from ``mu_guess``.

    The weight of level k, its occupation's share of Tr[S], is
    (C^T diag(s) C)_kk, the squared norm of column k of s^1/2 C (of C when S
    is the identity); the search runs on the levels and these weights
    (:func:`~fermicool.matcore.find_mu_for_occupation`).
    """
    lam, c = levels
    w = system.frame[0]
    x = c if w is None else c * np.sqrt(w)[:, None]
    weights = np.einsum("ik,ik->k", x, x)
    return find_mu_for_occupation(lam, weights, beta, n_electrons, norm, guess=mu_guess).mu


def _frame_state(model: HamiltonianModel, q, beta: float, ensemble: Ensemble, norm: float,
                 mu_guess=None):
    """F(Q), the frame form of FD(H(P)) at P = Y Q Y^T: (F, mu, (lambda, C)).

    The levels are the eigenpairs G(Q) = C diag(lambda) C^T: a linear
    model's are the system's cached :attr:`~SystemSpec.levels` of G_core, a
    nonlinear model refreshes G(Q) = G_core + dG(Q - N/2)
    (:attr:`HamiltonianModel.frame_response`) and decomposes it by one
    :func:`~fermicool.matcore.generalized_eigh`.  F = C diag(N f) C^T with
    f = fermi(beta (lambda - mu)).  A canonical ensemble solves mu from
    ``mu_guess`` on the levels (:func:`_levels_mu`).  At beta = 0,
    F = (N/2) 1 whatever H is, the canonical mu is the limit
    Tr[H(P)] / Tr[S] of the S-frame Hamiltonian, and no eigenpairs are
    formed (None is returned for them).  Non-finite levels raise
    BracketError, a G(Q) that is not finite LinAlgError.
    """
    system = model.system
    y = system.frame[1]
    grand = isinstance(ensemble, GrandCanonical)
    if beta == 0.0:
        if grand:
            mu = ensemble.mu
        else:
            h = effective_hamiltonian(model, q if y is None else y @ q @ y.T, norm)
            mu = infinite_temperature_mu(h, system.s)
        return np.eye(system.dim) * (0.5 * norm), mu, None
    if model.is_linear:
        lam, c = system.levels
    else:
        lam, c = generalized_eigh(model.frame_response.hamiltonian(q, norm))
    if grand:
        _check_levels(lam)
        mu = ensemble.mu
    else:
        mu = _levels_mu(system, (lam, c), beta, ensemble.n_electrons, norm, mu_guess)
    # an argument that overflows to +-inf saturates the Fermi factor exactly
    with np.errstate(over="ignore"):
        occ = norm * fermi(beta * (lam - mu))
    return (c * occ) @ c.T, mu, (lam, c)


def _fd_jacobian(model: HamiltonianModel, eig, beta: float, mu: float, norm: float,
                 canonical: bool):
    """The derivative J of Q -> F(Q) at the eigenpairs of G(Q), in their eigenbasis.

    ``eig`` is (lambda, C) of G(Q) = C diag(lambda) C^T and ``mu`` the chemical
    potential of F(Q).  The Daleckii-Krein formula gives
    J dQ = C (K o C^T dG(dQ) C) C^T, K_ij = N (f_i - f_j) / (lambda_i - lambda_j)
    and N f'(lambda_i) on ties.  In the canonical ensemble mu moves too: the
    d mu term adds N beta f (1 - f) d mu on the diagonal, with d mu chosen so
    that Tr[J dP] = s . diag(J dQ) = 0.  J takes the coordinates X of
    dQ = C X C^T to those of J dQ; the returned map does that in O(n^2).
    """
    lam, c = eig
    with np.errstate(over="ignore"):  # as in _frame_state
        f = fermi(beta * (lam - mu))
    rate = norm * beta * f * (1.0 - f)  # -N f'(lambda), the mu-derivative of N f
    gap = np.subtract.outer(lam, lam)
    tie = np.abs(gap) < TIE_TOL / beta
    np.copyto(gap, 1.0, where=tie)
    k = np.subtract.outer(f, f)
    k /= gap
    k *= norm
    np.copyto(k, -0.5 * np.add.outer(rate, rate), where=tie)
    w = model.system.frame[0]
    # C^T diag(s) C: Tr[P] for dQ = C X C^T is <gram, X>
    gram = c.T @ (c if w is None else c * w[:, None])
    # K o C^T dG(C X C^T) C = (u K) o X + <W, X> (u K) o C^T K C
    weight, k_rank1 = model.frame_response.eigenbasis(c, gram)
    k *= model.coupling_u
    k_rank1 *= k
    slope = float(np.dot(np.diagonal(gram), rate)) if canonical else 0.0
    n = lam.size

    def jacobian(x):
        y = k * x
        y += float(np.vdot(weight, x)) * k_rank1
        if slope > 0.0:
            y.flat[:: n + 1] += (-float(np.vdot(gram, y)) / slope) * rate
        return y

    return jacobian


def _newton_step(jacobian, eig, residual: np.ndarray) -> np.ndarray:
    # (1 - J) delta = R by Richardson sweeps X <- C^T R C + J X from X = C^T R C
    c = eig[1]
    r = c.T @ residual @ c
    x = r
    for _ in range(NEWTON_SWEEPS):
        x = r + jacobian(x)
    return c @ x @ c.T


#: F(Q) cannot be formed: G(Q) is not finite or cannot be decomposed
#: (LinAlgError, a ValueError), a level is not finite or mu is not found.
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

    The iteration runs in the system's frame (:attr:`SystemSpec.frame`) on
    Q = Z^T P Z, where F(P) = Y F(Q) Y^T: the evaluation at Q refreshes
    G(Q) = G_core + dG(Q - N/2) in O(n^2) through the model's
    :attr:`~HamiltonianModel.frame_response`, decomposes it with one
    :func:`~fermicool.matcore.generalized_eigh` as C diag(lambda) C^T and
    forms F(Q) = C diag(N f) C^T (:func:`_frame_state`).  The residual is
    still taken in the S frame, max |Y (F(Q) - Q) Y^T|, and P = Y F(Q) Y^T
    is formed once, on return, as every exact state is: (N/2) S exactly at
    beta = 0.  A ``start`` enters as Z^T P Z.

    With ``use_aitken`` (the name is kept from an earlier Aitken-extrapolated
    variant) the next iterate is the Newton step Q + delta on R(Q) = 0:

    * J, the derivative of F, comes from the eigenpairs of G(Q) that the
      evaluation already made: J dQ = C (K o C^T dG(dQ) C) C^T,
      K_ij = N (f_i - f_j) / (lambda_i - lambda_j), and N f'(lambda_i) on
      near-ties (:func:`_fd_jacobian`);
    * in the canonical ensemble J also moves mu, by the d mu that keeps
      Tr[J dP] = 0;
    * (1 - J) delta = R is solved by :data:`NEWTON_SWEEPS` Richardson sweeps
      delta <- R + J delta from delta = R;
    * whenever the residual did not fall below the previous one, or F at
      the Newton iterate cannot be evaluated (see below), the step is the
      plain Picard step Q -> F(Q) instead.  Every such fallback counts
      toward the oscillation limit and the count is never reset, so Newton
      steps that keep failing between Picard steps end as oscillation.

    Without ``use_aitken`` every step is the Picard step.

    At extreme coupling F may not be evaluable at an iterate: G(Q) is not
    finite or cannot be decomposed, a level is not finite, or the canonical
    mu search fails.  Past the start density, such a Newton iterate is a
    failed step as above and such a Picard iterate ends the SCF with
    ScfConvergenceError naming the cause, with no numpy warning; at the
    start density the failure raises its own error.

    In the canonical ensemble each iteration's mu search starts from the
    previous iteration's mu; the first one starts from ``mu_guess``, such as
    the mu of a fixed point at a nearby beta, or from the bracket midpoint
    when it is None or outside the bracket
    (:func:`~fermicool.matcore.find_mu_for_occupation`).

    Linear models (coupling_u == 0) are their own fixed point after the
    first evaluation, which reads the system's cached
    :attr:`~SystemSpec.levels` in place of G(Q) and is the evaluation
    :func:`exact_grand_fd` and :func:`exact_canonical_fd` make; they are
    accepted with ``iterations = 1``, and their state does not depend on
    ``start``.

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
    n = system.dim
    canonical = isinstance(ensemble, Canonical)
    norm = canonical_normalization(ensemble.n_electrons, system.s.mat) if canonical else 1.0
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (n, n):
            raise ValueError(
                f"start density has shape {start.shape}, system dimension is {n}"
            )
    _, y, z, _ = system.frame
    if start is None:
        q = np.eye(n) * (0.5 * norm)
    else:
        q = start.copy() if y is None else z.T @ start @ z

    def evaluate(q, mu):
        # F(Q), its mu and the eigenpairs of G(Q); the mu search starts at ``mu``
        return _frame_state(model, q, beta, ensemble, norm, mu)

    # failures at the start density keep their own errors
    f, mu, eig = evaluate(q, mu_guess)
    if model.is_linear:  # F does not depend on Q: F(start) is the fixed point
        return ScfResult(_density(system, f, beta, norm), mu, 1)
    prev_residual = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        r = f - q
        residual = float(np.abs(r if y is None else y @ r @ y.T).max())
        if residual < tol:
            return ScfResult(_density(system, f, beta, norm), mu, it)
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
                trial = q + _newton_step(_fd_jacobian(model, eig, beta, mu, norm, canonical),
                                         eig, r)
                try:
                    state, q = evaluate(trial, mu), trial
                except _FAILED_ITERATE:
                    stalled += 1
            if state is None:
                q = f
                try:
                    state = evaluate(q, mu)
                except _FAILED_ITERATE as exc:
                    cause = ("the pencil of H(P) cannot be decomposed"
                             if isinstance(exc, np.linalg.LinAlgError) else exc)
                    raise ScfConvergenceError(
                        residual, it,
                        f"SCF iterate {it + 1}, a Picard step, has no Fermi-Dirac state: {cause}",
                    ) from None
        f, mu, eig = state
        prev_residual = residual
    raise ScfConvergenceError(residual, max_iter)
