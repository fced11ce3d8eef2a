"""Dense real-symmetric linear algebra for the cooling solvers.

Provides validated matrix carriers (symmetric matrices, positive-definite
overlap metrics), the generalized eigendecomposition in an overlap metric,
a safeguarded Newton search for the chemical potential at fixed electron
count that can start from a guess, and Aitken delta-squared sequence
acceleration.  Everything is dense, real and double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BracketError,
    DimensionMismatchError,
    InfeasibleEnsembleError,
    MuConvergenceError,
    NotPositiveDefiniteError,
)

#: Denominator magnitude below which Aitken extrapolation is skipped.
AITKEN_DENOM_TOL = 1e-14

#: Occupation residual at which the mu search stops.
MU_TOL = 1e-10

#: Occupation evaluations after which the mu search gives up.
MU_MAX_ITER = 200


def _as_square(m, name="matrix"):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must have dimension >= 1")
    return a


def symmetrize(m):
    """Return the symmetric part (M + M^T) / 2 as a new array.

    Each half is taken before the sum, so entries near the largest finite
    float do not overflow; halving is exact above the subnormal range.
    """
    half = 0.5 * np.asarray(m, dtype=float)
    return half + half.T


def maxabs_asymmetry(m):
    """Largest absolute entry of M - M^T."""
    a = np.asarray(m, dtype=float)
    return float(np.abs(a - a.T).max())


class HermitianMatrix:
    """A real symmetric matrix, symmetrized at construction and then frozen.

    The stored array is (M + M^T)/2 of the input and is marked read-only,
    so instances are safe to share between threads.  Non-finite entries are
    rejected with ValueError.

    Subnormal entries of the symmetrized matrix (``0 < |x| <
    np.finfo(float).tiny``, about 2.2e-308) are set to zero.  They arise as
    far Gaussian tails, such as exp(-0.5 * 38**2) in an overlap, and make
    every matrix product that reads them run through slow microcode paths
    on common CPUs, several times slower at n = 60.  Each is far below the
    rounding error of any normal entry it is combined with, so results move
    by rounding at most; a matrix whose only non-zero entries are subnormal
    becomes zero.
    """

    def __init__(self, entries):
        a = _as_square(entries, "HermitianMatrix")
        if not np.isfinite(a).all():
            i, j = np.argwhere(~np.isfinite(a))[0]
            raise ValueError(f"HermitianMatrix entry ({i}, {j}) is not finite")
        a = symmetrize(a)
        a[(np.abs(a) < np.finfo(float).tiny) & (a != 0.0)] = 0.0
        a.flags.writeable = False
        self._mat = a

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self._mat, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


class OverlapMatrix:
    """Symmetric positive-definite overlap metric of a (possibly non-orthonormal) basis.

    Positive definiteness is checked at construction; the inverse, the square
    root and the inverse square root are computed lazily from the cached
    eigendecomposition and are exactly symmetric by construction.
    """

    def __init__(self, entries):
        base = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries)
        vals, vecs = np.linalg.eigh(base.mat)
        if vals[0] <= 0.0:
            raise NotPositiveDefiniteError(vals[0])
        self.base = base
        self._eigvals = vals
        self._eigvecs = vecs

    @property
    def mat(self) -> np.ndarray:
        return self.base.mat

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def smallest_eigenvalue(self) -> float:
        return float(self._eigvals[0])

    @cached_property
    def inverse(self) -> np.ndarray:
        inv = (self._eigvecs / self._eigvals) @ self._eigvecs.T
        inv = symmetrize(inv)
        inv.flags.writeable = False
        return inv

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        x = (self._eigvecs / np.sqrt(self._eigvals)) @ self._eigvecs.T
        x = symmetrize(x)
        x.flags.writeable = False
        return x

    @cached_property
    def sqrt(self) -> np.ndarray:
        x = (self._eigvecs * np.sqrt(self._eigvals)) @ self._eigvecs.T
        x = symmetrize(x)
        x.flags.writeable = False
        return x

    def __array__(self, dtype=None, copy=None):
        return self.base.__array__(dtype, copy)

    def __repr__(self):
        return f"OverlapMatrix(dim={self.dim}, min_eig={self.smallest_eigenvalue:.3g})"


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues (ascending) and overlap-orthonormal eigenvectors of a matrix pencil.

    ``vectors[:, k]`` belongs to ``values[k]``.  For a pencil (H, S) the
    columns satisfy ``vectors.T @ S @ vectors = I`` and the similarity
    ``S^-1 H = vectors @ diag(values) @ inv`` holds, with ``inv`` the inverse
    of ``vectors``.
    """

    values: np.ndarray
    vectors: np.ndarray
    inv: np.ndarray


def _matrix_of(m):
    if isinstance(m, (HermitianMatrix, OverlapMatrix)):
        return m.mat
    return _as_square(m)


def generalized_eigh(h, s) -> EigenPair:
    """Solve the symmetric pencil H v = lambda S v with S-orthonormal vectors.

    The pencil is reduced to a standard symmetric problem by the symmetric
    (Loewdin) congruence with S^(-1/2), which guarantees a real spectrum and
    S-orthonormal eigenvectors by construction.

    Parameters
    ----------
    h : array_like or HermitianMatrix
        Symmetric matrix of the pencil.
    s : array_like or OverlapMatrix
        Symmetric positive-definite metric.  A plain array is validated and
        rejected (with the offending eigenvalue) if it is not positive definite.

    Returns
    -------
    EigenPair
        Ascending eigenvalues, S-orthonormal vectors, and the cached inverse
        ``vectors.T @ S``.
    """
    hm = _matrix_of(h)
    s_ov = s if isinstance(s, OverlapMatrix) else OverlapMatrix(s)
    if hm.shape[0] != s_ov.dim:
        raise DimensionMismatchError(
            f"pencil dimensions differ: {hm.shape[0]} vs {s_ov.dim}"
        )
    x = s_ov.inv_sqrt
    values, c = np.linalg.eigh(symmetrize(x @ hm @ x))
    vectors = x @ c
    return EigenPair(values=values, vectors=vectors, inv=vectors.T @ s_ov.mat)


def fermi(x):
    """Overflow-safe Fermi factor 1 / (1 + exp(x)), elementwise.

    Evaluated branchwise through exp(-|x|) so arguments of order +-1e5 or
    larger neither overflow nor lose the saturated values 0 and 1.
    """
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, z / (1.0 + z), 1.0 / (1.0 + z))
    if out.ndim == 0:
        return float(out)
    return out


class MuSearchResult(NamedTuple):
    """Outcome of a chemical potential search (safeguarded Newton).

    ``iterations`` counts occupation evaluations inside the bracket and
    ``residual`` is the final |occupation - target|.
    """

    mu: float
    degenerate: bool
    iterations: int
    residual: float


def _occupation_weights(eig: EigenPair) -> np.ndarray:
    # Tr[S f(S^-1 H)] = sum_k w_k f(lambda_k) with w_k the column sums of
    # (S V)^2; S V is the transpose of the cached inverse V^T S.
    w = eig.inv
    return np.einsum("ki,ki->k", w, w)


def _occupation_and_slope(w, values, beta, mu, normalization):
    # N sum_k w_k f_k and its mu-derivative N beta sum_k w_k f_k (1 - f_k),
    # with f_k = fermi(beta (lambda_k - mu)); an argument that overflows to
    # +-inf saturates the Fermi factor exactly.
    with np.errstate(over="ignore"):
        f = fermi(beta * (values - mu))
    return (float(normalization * np.dot(w, f)),
            float(normalization * beta * np.dot(w, f * (1.0 - f))))


def find_mu_for_occupation(
    eig: EigenPair,
    s,
    beta: float,
    target_ne: float,
    normalization: float = 1.0,
    guess: float | None = None,
) -> MuSearchResult:
    """Find the chemical potential that yields a prescribed electron count.

    The occupation is monotonically non-decreasing in mu with the exact slope
    ``N beta sum_k w_k f_k (1 - f_k)``.  The search keeps the bisection
    bracket ``[min(values) - 10/max(beta, 1), max(values) + 10/max(beta, 1)]``
    and, from its first iterate, takes Newton steps inside it, falling back
    to bisection whenever a Newton iterate would leave the bracket or fails
    to halve the step before last (rtsafe, *Numerical Recipes* section 9.4).
    It therefore converges unconditionally whenever the bracket straddles the
    target, and quadratically near the root.  Each iteration evaluates the
    occupation once, and the search stops once the occupation residual is
    below :data:`MU_TOL`.

    The first iterate is ``guess`` when it lies strictly inside the bracket,
    such as the mu of a nearby Hamiltonian or temperature, and the bracket
    midpoint otherwise (also for None, NaN and infinities).  The guess moves
    only where the search starts: the bracket, the stopping test and the
    errors raised are the same with or without it.

    At ``beta = 0`` the occupation is independent of mu; the bracket midpoint
    is returned with ``degenerate=True``.

    Raises
    ------
    InfeasibleEnsembleError
        If the target lies outside ``(0, normalization * Tr[S])``.
    BracketError
        If the achievable occupation range inside the bracket excludes the target.
    MuConvergenceError
        If the occupation residual is still above :data:`MU_TOL` after
        :data:`MU_MAX_ITER` iterations.
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    # Python floats: a Newton step over an underflowed slope is inf, silently
    target_ne = float(target_ne)
    s_mat = _matrix_of(s)
    full = normalization * float(np.trace(s_mat))
    if not 0.0 < target_ne < full:
        raise InfeasibleEnsembleError(
            f"target electron count {target_ne:.6g} is outside the open interval "
            f"(0, {full:.6g}) set by the normalization and Tr[S]"
        )
    w = _occupation_weights(eig)

    def occ(mu):
        return _occupation_and_slope(w, eig.values, beta, mu, normalization)

    margin = 10.0 / max(beta, 1.0)
    lo = float(eig.values.min()) - margin
    hi = float(eig.values.max()) + margin

    if beta == 0.0:
        mid = 0.5 * (lo + hi)
        return MuSearchResult(mid, True, 0, abs(occ(mid)[0] - target_ne))

    occ_lo, occ_hi = occ(lo)[0], occ(hi)[0]
    if not occ_lo <= target_ne <= occ_hi:
        raise BracketError(
            f"occupation range [{occ_lo:.6g}, {occ_hi:.6g}] over the mu bracket "
            f"[{lo:.6g}, {hi:.6g}] does not contain the target {target_ne:.6g}"
        )

    mu = float(guess) if guess is not None and lo < guess < hi else 0.5 * (lo + hi)
    step = step_before = hi - lo
    residual = np.inf
    for it in range(1, MU_MAX_ITER + 1):
        value, slope = occ(mu)
        excess = value - target_ne
        residual = abs(excess)
        if residual < MU_TOL:
            return MuSearchResult(mu, False, it, residual)
        if excess > 0.0:
            hi = mu
        else:
            lo = mu
        newton_step = excess / slope if slope > 0.0 else np.inf
        if lo < mu - newton_step < hi and 2.0 * abs(newton_step) <= step_before:
            step_before, step = step, abs(newton_step)
            mu -= newton_step
        else:
            step_before, step = step, 0.5 * (hi - lo)
            mu = 0.5 * (lo + hi)
    raise MuConvergenceError(residual, MU_MAX_ITER)


def aitken_accelerate(x0, x1, x2):
    """Aitken delta-squared extrapolation of three consecutive iterates.

    Returns ``x2 - (x2 - x1)^2 / ((x2 - x1) - (x1 - x0))`` wherever the
    denominator magnitude exceeds ``AITKEN_DENOM_TOL`` and ``x2`` unchanged
    elsewhere (converged or stagnant entries).  Applied elementwise, so matrix
    iterates extrapolate entry by entry.  Exact on sequences a + b r^k.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    d1 = x1 - x0
    d2 = x2 - x1
    denom = d2 - d1
    safe = np.abs(denom) > AITKEN_DENOM_TOL
    out = np.where(safe, x2 - d2 * d2 / np.where(safe, denom, 1.0), x2)
    if out.ndim == 0:
        return float(out)
    return out
