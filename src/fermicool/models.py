"""Problem construction, ensemble data model, exact Fermi-Dirac oracles, and SCF.

The exact states computed here serve as the reference against which the
cooling integrators in :mod:`fermicool.solvers` are validated:

* grand canonical, ``P(beta) = S / (1 + exp[beta (S^-1 H - mu)])``
* canonical, ``P(beta) = N S / (1 + exp[beta (S^-1 H - mu(beta))])`` with the
  normalization ``N = 2 Ne / Tr[S]`` fixing ``Tr[P(0)] = Ne`` and ``mu(beta)``
  solved by a safeguarded Newton search so the trace stays at ``Ne``; the
  search can start from a guess, which the SCF loop takes from its previous
  iterate and :func:`scf_mu_trace` from the mu of the previous temperatures

For density-dependent Hamiltonians ``H = H_core + H_exc(P)`` the exact state
is the fixed point of ``F(P) = FermiDirac(H(P))``, found by
:func:`scf_fixed_point`; :func:`scf_mu_trace` walks an ascending list of
temperatures with the same SCF loop, continuing each fixed point from the
previous ones in the frame, for the canonical mu trace of a run.  The toy
model (:class:`HamiltonianModel`) is affine in P, with its one definition
the frame refresh :meth:`HamiltonianModel.frame_hamiltonian`, so the
derivative J of F comes
from the eigendecomposition each evaluation of F already makes (divided
differences of the Fermi factor; in the canonical ensemble a d mu term
keeps Tr[J dP] = 0).  The SCF takes Newton steps (1 - J) delta = F(P) - P
and falls back to the Picard step P -> F(P) whenever the residual did not
fall.

A system's overlap owns its frame
(:attr:`~fermicool.matcore.OverlapMatrix.frame`): Y = U s^1/2 and Z = Y^-T
from the overlap's eigenpairs S = U diag(s) U^T, in which a density is
carried as Q = Z^T P Z against G = Z^T H Z (the system's
:attr:`SystemSpec.g_core` for H_core), with the standard eigenproblem of G
in place of the pencil (H, S).  The cooling flow in
:mod:`fermicool.solvers` and every exact state work there, through the few
operations of that one :class:`~fermicool.matcore.Frame` object: to the
frame and back, the weighted trace and entry sum, the row scaling by
diag(s) and the two S-frame norms of a frame matrix.  The
frame knows no model: the toy model's refresh is built here from those
operations.  An overlap that is exactly the identity has an
:class:`~fermicool.matcore.IdentityFrame`, which makes each of them with
the plain unweighted numpy call and forms no Y or Z, so that no other code
tests how S = 1 is represented.  One evaluation,
F(Q) = C diag(N f) C^T from the levels G = C diag(lambda) C^T, serves the
SCF, its walk :func:`scf_mu_trace` and the linear oracles
:func:`exact_grand_fd` and :func:`exact_canonical_fd` alike, and its N f
are the state's occupations, the eigenvalues of S^-1 P
(:attr:`ScfResult.occupations`), so that no oracle reads them back from P;
a linear model's levels are those of G_core, decomposed once per system
(:attr:`SystemSpec.levels`), and a nonlinear model refreshes G in the frame
(:meth:`HamiltonianModel.frame_hamiltonian`) in O(n^2), as the cooling flow does.
At beta = 0 every model's state is (N/2) S, where H = H_core, and the
canonical mu is Tr[H_core] / Tr[S] (:func:`infinite_temperature_mu`).
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
    operator,
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
    def g_core(self) -> np.ndarray:
        """G_core = Z^T H_core Z, H_core in the overlap's frame, formed on first use.

        The frame is :attr:`~fermicool.matcore.OverlapMatrix.frame`, and G_core
        is symmetrized and read-only (:meth:`~fermicool.matcore.Frame.congruent`).
        When S is exactly the identity it is H_core itself.  A G_core that
        passes the largest float, as Z^T H Z can for finite H when S has
        eigenvalues below 1, raises BracketError, as a level past the largest
        float does.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.s.frame.congruent(self.h_core.mat)
        # its extremes are finite exactly when every entry is; no n x n mask is formed
        if not (math.isfinite(g.max()) and math.isfinite(g.min())):
            raise BracketError(
                "H in the overlap's frame, Z^T H Z, passes the largest float: "
                "the pencil's levels are not finite"
            )
        return g

    @cached_property
    def levels(self):
        """The eigenpairs (lambda, C) of G_core = C diag(lambda) C^T, computed on first use.

        lambda holds the ascending levels of the pencil (H_core, S) and C the
        orthogonal eigenvectors of :attr:`g_core`, whose columns are the
        pencil's eigenvectors Z C seen in the frame
        (:func:`~fermicool.matcore.generalized_eigh`).  C is kept in
        column-major order, the layout of ``S V`` in the pencil formula
        P = (S V) diag(N f) (S V)^T: with S = 1 (an
        :class:`~fermicool.matcore.IdentityFrame`, whose G_core is H_core)
        it keeps the states and the occupation weights formed from C
        byte-identical to that formula's on ``eigh(H)``.  Both are read-only.
        """
        lam, c = generalized_eigh(self.g_core)
        c = np.asfortranarray(c)
        lam.flags.writeable = c.flags.writeable = False
        return lam, c


@dataclass(frozen=True)
class GrandCanonical:
    """Fixed chemical potential; the electron count floats.  A mu that is not
    finite raises ValueError."""

    mu: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"chemical potential mu must be finite, got {self.mu}")


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
    linear response ``dH(dP) = u (dP + phi(dP) J)``.  The library forms it
    only in the system's frame, where the cooling flow and the SCF refresh
    G(Q) (:meth:`frame_hamiltonian`) and the SCF's Newton step takes its
    response in an eigenbasis (:meth:`eigenbasis`); with S = 1 that refresh
    is the formula above itself.

    Because ``Z^T Y = 1`` the response seen in the frame,
    E -> Z^T dH(Y E Y^T) Z, is ``u (E + phi K)`` with ``K = Z^T J Z``
    (:attr:`frame_stagger`) and ``phi = (c^T E c - s . diag(E)) / n``,
    ``c = Y^T 1``: phi is the off-diagonal sum of Y E Y^T over n.  It is
    built from the operations of the overlap's
    :class:`~fermicool.matcore.Frame`: K is the frame's congruence of J, c
    is the frame's ``ones``, and phi takes the frame's entry sum and trace
    (:meth:`~fermicool.matcore.Frame.total`,
    :meth:`~fermicool.matcore.Frame.trace`), so each refresh costs O(n^2).
    In an :class:`~fermicool.matcore.IdentityFrame` K is J itself and c = 1.
    A ``coupling_u`` that is not finite raises ValueError.
    """

    system: SystemSpec
    coupling_u: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.coupling_u):
            raise ValueError(f"coupling_u must be finite, got {self.coupling_u}")

    @property
    def is_linear(self) -> bool:
        return self.coupling_u == 0.0

    @cached_property
    def frame_stagger(self):
        """K = Z^T J Z, J = diag(+1, -1, ...), in the system's frame, formed on first use.

        K is held as a kernel operator (:func:`~fermicool.matcore.operator`),
        by its band if that is narrow for its size, so that ``phi K`` is
        added in place.
        """
        stagger = 1.0 - 2.0 * (np.arange(self.system.dim) % 2)
        return operator(self.system.s.frame.congruent(np.diag(stagger)))

    def frame_hamiltonian(self, q, norm: float) -> np.ndarray:
        """The frame Hamiltonian G(Q) = G_core + u (E + phi K), E = Q - N/2, of a frame state Q."""
        frame = self.system.s.frame
        n = q.shape[0]
        e = q.copy()
        e.flat[:: n + 1] -= 0.5 * norm
        phi = (frame.total(e) - frame.trace(e)) / n
        self.frame_stagger.add_to(e, phi)
        e *= self.coupling_u
        e += self.system.g_core
        return e

    def eigenbasis(self, c, gram):
        """The response in an eigenbasis C of a frame matrix, X -> C^T dG(C X C^T) C.

        ``c`` is orthogonal and ``gram = C^T diag(s) C`` (``C^T C`` when S is
        the identity), so that ``s . diag(C X C^T) = <gram, X>``.  The map is
        ``u (X + <W, X> C^T K C)`` with ``W = ((C^T 1_Y)(C^T 1_Y)^T - gram) / n``
        and ``1_Y = Y^T 1``, the frame's ``ones``; returns (W, C^T K C), whose
        forming takes two products.
        """
        n = c.shape[0]
        d = c.T @ self.system.s.frame.ones
        weight = np.outer(d, d)
        weight -= gram
        weight /= n
        return weight, c.T @ np.asarray(self.frame_stagger) @ c


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
    return np.linalg.eigvalsh(symmetrize(s.frame.to_frame(p)))


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
    S / 2 exactly.  A level past the largest float raises BracketError, and
    a beta that is not finite and non-negative ValueError.
    """
    return _exact_state(system, beta, GrandCanonical(mu), 1.0)[0]


def exact_canonical_fd(system: SystemSpec, n_electrons: float, beta: float):
    """Exact canonical Fermi-Dirac density matrix and its chemical potential.

    Solves mu(beta) so that Tr[P] = n_electrons within
    :data:`~fermicool.matcore.MU_TOL`, in at most
    :data:`~fermicool.matcore.MU_MAX_ITER` occupation evaluations, on the
    system's cached :attr:`~SystemSpec.levels`; the search starts at its
    bracket midpoint.  The searches that :func:`scf_mu_trace` makes along a
    list of temperatures start from the mu extrapolated from the previous
    ones, on the same levels for a linear model.  At beta = 0 the state is
    (N/2) S exactly and the reported mu is the analytic limit Tr[H] / Tr[S];
    a trace that overflows raises InfeasibleEnsembleError, and a beta that is
    not finite and non-negative ValueError.

    Returns
    -------
    (HermitianMatrix, float)
        The density matrix and mu(beta).
    """
    norm = canonical_normalization(n_electrons, system.s.mat)
    return _exact_state(system, beta, Canonical(n_electrons), norm)


def _exact_state(system: SystemSpec, beta: float, ensemble: Ensemble, norm: float):
    # the linear model's state (P, mu): F(Q) reads no Q, so one evaluation is the fixed point
    f, mu, _, _ = _frame_state(HamiltonianModel(system), None, beta, ensemble, norm)
    return _density(system, f, beta, norm), mu


def _density(system: SystemSpec, f, beta: float, norm: float) -> HermitianMatrix:
    # the S-frame density P = Y F Y^T of a frame state F; (N/2) S exactly at beta = 0
    if beta == 0.0:
        return HermitianMatrix(0.5 * norm * system.s.mat)
    return HermitianMatrix(system.s.frame.from_frame(f))


def _levels_mu(system: SystemSpec, levels, beta: float, n_electrons: float, norm: float,
               mu_guess):
    """The canonical mu of the levels (lambda, C) of a frame matrix, searched from ``mu_guess``.

    The weight of level k, its occupation's share of Tr[S], is
    (C^T diag(s) C)_kk, the squared norm of column k of s^1/2 C with the s
    of the overlap's :attr:`~fermicool.matcore.OverlapMatrix.frame` (1 for
    S = 1, an exact scaling); the search runs on the levels and these
    weights (:func:`~fermicool.matcore.find_mu_for_occupation`).
    """
    lam, c = levels
    x = c * np.sqrt(system.s.frame.s)[:, None]
    weights = np.einsum("ik,ik->k", x, x)
    return find_mu_for_occupation(lam, weights, beta, n_electrons, norm, guess=mu_guess).mu


def _frame_state(model: HamiltonianModel, q, beta: float, ensemble: Ensemble, norm: float,
                 mu_guess=None):
    """F(Q), the frame form of FD(H(P)) at P = Y Q Y^T: (F, mu, (lambda, C), occupations).

    The levels are the eigenpairs G(Q) = C diag(lambda) C^T: a linear
    model's are the system's cached :attr:`~SystemSpec.levels` of G_core, a
    nonlinear model refreshes G(Q) = G_core + dG(Q - N/2)
    (:meth:`HamiltonianModel.frame_hamiltonian`) and decomposes it by one
    :func:`~fermicool.matcore.generalized_eigh`.  F = C diag(N f) C^T with
    f = fermi(beta (lambda - mu)); the occupations are N f sorted ascending,
    the eigenvalues of F and of S^-1 P for P = Y F Y^T.  A canonical
    ensemble solves mu from ``mu_guess`` on the levels (:func:`_levels_mu`):
    the SCF loop passes the previous iterate's mu, and the first search of
    each SCF of :func:`scf_mu_trace` the mu extrapolated from the previous
    temperatures.
    At beta = 0, F = (N/2) 1 whatever Q is, so the fixed point is
    P = (N/2) S, where H = H_core by construction: the canonical mu of every
    model is the limit Tr[H_core] / Tr[S] (:func:`infinite_temperature_mu`),
    as in :func:`~fermicool.solvers.cool`; no H is formed, and no eigenpairs
    (None is returned for them), and every occupation is N/2.  Every oracle
    evaluates here first, so a beta that is not finite and non-negative
    raises ValueError here for all of them.  Non-finite levels raise
    BracketError, a G(Q) that is not finite LinAlgError.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be a finite non-negative inverse temperature, got {beta}")
    system = model.system
    grand = isinstance(ensemble, GrandCanonical)
    if beta == 0.0:
        mu = ensemble.mu if grand else infinite_temperature_mu(system.h_core, system.s)
        return np.eye(system.dim) * (0.5 * norm), mu, None, np.full(system.dim, 0.5 * norm)
    if model.is_linear:
        lam, c = system.levels
    else:
        lam, c = generalized_eigh(model.frame_hamiltonian(q, norm))
    if grand:
        _check_levels(lam)
        mu = ensemble.mu
    else:
        mu = _levels_mu(system, (lam, c), beta, ensemble.n_electrons, norm, mu_guess)
    # an argument that overflows to +-inf saturates the Fermi factor exactly
    with np.errstate(over="ignore"):
        occ = norm * fermi(beta * (lam - mu))
    return (c * occ) @ c.T, mu, (lam, c), np.sort(occ)


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
    # C^T diag(s) C: Tr[P] for dQ = C X C^T is <gram, X>
    gram = c.T @ model.system.s.frame.scale_rows(c)
    # K o C^T dG(C X C^T) C = (u K) o X + <W, X> (u K) o C^T K C
    weight, k_rank1 = model.eigenbasis(c, gram)
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
    """Converged self-consistent state.

    ``occupations`` are the ascending N f(beta (lambda - mu)) over the levels
    of its last evaluation, the eigenvalues of S^-1 P; N/2 each at beta = 0.
    """

    density: HermitianMatrix
    mu: float
    iterations: int
    occupations: np.ndarray


def scf_fixed_point(
    model: HamiltonianModel,
    ensemble: Ensemble,
    beta: float,
    tol: float = 1e-10,
    max_iter: int = 200,
    use_aitken: bool = True,
) -> ScfResult:
    """Fixed point of P -> F(P) = ExactFermiDirac(H(P)) for density-dependent Hamiltonians.

    Starts from the infinite-temperature value (S/2 grand canonical, N S/2
    canonical).  Each iteration evaluates F once and stops when the max-abs
    change ``R = F(P) - P`` drops below ``tol``, returning F(P).

    The iteration runs in the overlap's frame
    (:attr:`~fermicool.matcore.OverlapMatrix.frame`) on
    Q = Z^T P Z, where F(P) = Y F(Q) Y^T (:func:`_frame_scf`, the loop that
    :func:`scf_mu_trace` continues from beta to beta): the evaluation at Q
    refreshes G(Q) = G_core + dG(Q - N/2) in O(n^2) through the model's
    :meth:`~HamiltonianModel.frame_hamiltonian`, decomposes it with one
    :func:`~fermicool.matcore.generalized_eigh` as C diag(lambda) C^T and
    forms F(Q) = C diag(N f) C^T (:func:`_frame_state`).  The residual is
    still taken in the S frame, max |Y (F(Q) - Q) Y^T|, and P = Y F(Q) Y^T
    is formed once, on return, as every exact state is: (N/2) S exactly at
    beta = 0.  At beta = 0 the fixed point is (N/2) S for every model,
    whatever the start, where H = H_core, so the canonical mu is Tr[H_core] / Tr[S]
    (:func:`infinite_temperature_mu`) bit for bit, whatever the coupling.

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

    In the canonical ensemble the first mu search starts at the bracket
    midpoint (:func:`~fermicool.matcore.find_mu_for_occupation`) and each
    later one from the previous iteration's mu.

    Linear models (coupling_u == 0) are their own fixed point after the
    first evaluation, which reads the system's cached
    :attr:`~SystemSpec.levels` in place of G(Q) and is the evaluation
    :func:`exact_grand_fd` and :func:`exact_canonical_fd` make; they are
    accepted with ``iterations = 1``.

    Raises
    ------
    ValueError
        When ``beta`` is not finite and non-negative, ``tol`` is not finite
        and positive or ``max_iter`` is below 1.
    ScfConvergenceError
        When ``max_iter`` is exhausted, or when the residual has not decreased
        for ten consecutive iterations, or for ten iterations in all with
        ``use_aitken`` (oscillation), or when F cannot be evaluated at a
        Picard iterate after the start density.
    """
    system = model.system
    canonical = isinstance(ensemble, Canonical)
    norm = canonical_normalization(ensemble.n_electrons, system.s.mat) if canonical else 1.0
    f, mu, iterations, occ = _frame_scf(model, ensemble, beta, norm, None, None, tol, max_iter,
                                        use_aitken)
    return ScfResult(_density(system, f, beta, norm), mu, iterations, occ)


def scf_mu_trace(model: HamiltonianModel, ensemble: Canonical, betas, tol: float = 1e-10,
                 max_iter: int = 200, use_aitken: bool = True):
    """The canonical oracle's mu at each of the ascending ``betas``, and the SCF iterations in all.

    Each beta's mu is that of :func:`scf_fixed_point` with the same controls,
    found by the same loop (:func:`_frame_scf`) continued along the walk:
    the SCF at a beta starts from the Lagrange extrapolation in beta
    (:func:`_lagrange`) of the last three frame fixed points F(Q), and its
    first mu search from that of the last three mu; the first beta starts
    cold.  A linear model's SCF is its one evaluation on the cached
    :attr:`~SystemSpec.levels`, which reads no start.  No S-frame density is
    formed.  The errors are those of :func:`scf_fixed_point`; a failure at an
    extrapolated start raises its own error.

    Returns
    -------
    (list of float, int)
        The mu at each beta and the SCF iterations summed over the walk.
    """
    norm = canonical_normalization(ensemble.n_electrons, model.system.s.mat)
    points, mus, total = [], [], 0
    for beta in map(float, betas):
        q = _lagrange([(b, f) for b, f, _ in points], beta)
        guess = _lagrange([(b, mu) for b, _, mu in points], beta)
        f, mu, iterations, _ = _frame_scf(model, ensemble, beta, norm, q, guess, tol, max_iter,
                                          use_aitken)
        points = [*points[-2:], (beta, f, mu)]
        mus.append(mu)
        total += iterations
    return mus, total


def _lagrange(points, beta: float):
    """The Lagrange polynomial in beta through ``points`` (beta_i, x_i), at ``beta``.

    With three points this is the quadratic extrapolation, with two the
    secant, and with one the last point itself; None when there are none
    (a cold start), or when ``beta`` is not finite, which the evaluation
    then rejects (:func:`_frame_state`).  The x_i are frame fixed points F_i
    or chemical potentials mu_i.
    """
    if not (points and math.isfinite(beta)):
        return None
    weights = [math.prod((beta - b_j) / (b_i - b_j) for j, (b_j, _) in enumerate(points) if j != i)
               for i, (b_i, _) in enumerate(points)]
    return sum(w * x for w, (_, x) in zip(weights, points))


def _frame_scf(model: HamiltonianModel, ensemble: Ensemble, beta: float, norm: float, q, mu,
               tol: float, max_iter: int, use_aitken: bool):
    """The SCF of :func:`scf_fixed_point` on frame states: (F, mu, iterations, occupations).

    It starts at the frame state ``q`` ((N/2) 1, the cold start, when None)
    and its first mu search at ``mu`` (the bracket midpoint when None or
    outside the bracket), and returns the fixed point F(Q) in the frame; a
    linear model returns its first evaluation.  The SCF controls are checked
    here, for :func:`scf_fixed_point` and :func:`scf_mu_trace` alike.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"SCF tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"SCF iteration limit must be at least 1, got {max_iter}")
    system = model.system
    frame = system.s.frame
    canonical = isinstance(ensemble, Canonical)
    if q is None:
        q = np.eye(system.dim) * (0.5 * norm)
    # failures at the start density keep their own errors
    f, mu, eig, occ = _frame_state(model, q, beta, ensemble, norm, mu)
    if model.is_linear:  # F does not depend on Q: F(start) is the fixed point
        return f, mu, 1, occ
    prev_residual = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        r = f - q
        residual = float(np.abs(frame.from_frame(r)).max())
        if residual < tol:
            return f, mu, it, occ
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
                    state, q = _frame_state(model, trial, beta, ensemble, norm, mu), trial
                except _FAILED_ITERATE:
                    stalled += 1
            if state is None:
                q = f
                try:
                    state = _frame_state(model, q, beta, ensemble, norm, mu)
                except _FAILED_ITERATE as exc:
                    cause = ("the pencil of H(P) cannot be decomposed"
                             if isinstance(exc, np.linalg.LinAlgError) else exc)
                    raise ScfConvergenceError(
                        residual, it,
                        f"SCF iterate {it + 1}, a Picard step, has no Fermi-Dirac state: {cause}",
                    ) from None
        f, mu, eig, occ = state
        prev_residual = residual
    raise ScfConvergenceError(residual, max_iter)
