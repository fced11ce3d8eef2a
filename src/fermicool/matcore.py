"""Dense real-symmetric linear algebra for the cooling solvers.

Provides validated matrix carriers (symmetric matrices, positive-definite
overlap metrics), the generalized eigendecomposition in an overlap metric,
matrix functions evaluated through that decomposition, a bisection search
for the chemical potential at fixed electron count, and Aitken delta-squared
sequence acceleration.  Everything is dense, real and double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BracketError,
    DimensionMismatchError,
    InfeasibleEnsembleError,
    MuConvergenceError,
    NotPositiveDefiniteError,
)

#: Asymmetry tolerated in a matrix that claims to be symmetric.
SYMMETRY_TOL = 1e-12

#: Denominator magnitude below which Aitken extrapolation is skipped.
AITKEN_DENOM_TOL = 1e-14


def _as_square(m, name="matrix"):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must have dimension >= 1")
    return a


def symmetrize(m):
    """Return the symmetric part (M + M^T) / 2 as a new array."""
    a = np.asarray(m, dtype=float)
    return 0.5 * (a + a.T)


def maxabs_asymmetry(m):
    """Largest absolute entry of M - M^T."""
    a = np.asarray(m, dtype=float)
    return float(np.abs(a - a.T).max())


class HermitianMatrix:
    """A real symmetric matrix, symmetrized at construction and then frozen.

    The stored array is (M + M^T)/2 of the input and is marked read-only,
    so instances are safe to share between threads.  Non-finite entries are
    rejected with ValueError.
    """

    def __init__(self, entries):
        a = _as_square(entries, "HermitianMatrix")
        if not np.isfinite(a).all():
            i, j = np.argwhere(~np.isfinite(a))[0]
            raise ValueError(f"HermitianMatrix entry ({i}, {j}) is not finite")
        a = symmetrize(a)
        a.flags.writeable = False
        self._mat = a

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self._mat
        return self._mat.astype(dtype)

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
        return self.base.__array__(dtype)

    def __repr__(self):
        return f"OverlapMatrix(dim={self.dim}, min_eig={self.smallest_eigenvalue:.3g})"


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues (ascending) and overlap-orthonormal eigenvectors of a matrix pencil.

    ``vectors[:, k]`` belongs to ``values[k]``.  For a pencil (H, S) the
    columns satisfy ``vectors.T @ S @ vectors = I`` and the similarity
    ``S^-1 H = vectors @ diag(values) @ vectors_inv`` holds.
    """

    values: np.ndarray
    vectors: np.ndarray
    vectors_inv: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def inv(self) -> np.ndarray:
        if self.vectors_inv is not None:
            return self.vectors_inv
        return np.linalg.inv(self.vectors)


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
    vectors_inv = vectors.T @ s_ov.mat
    return EigenPair(values=values, vectors=vectors, vectors_inv=vectors_inv)


def matrix_function(eig: EigenPair, f: Callable) -> np.ndarray:
    """Apply a scalar function through an eigendecomposition.

    Returns ``vectors @ diag(f(values)) @ vectors_inv``.  For an identity
    metric this is the standard symmetric matrix function.  ``f`` must return
    finite values on the spectrum; callers are responsible for supplying a
    numerically safe form (see :func:`fermi`), this routine only rejects
    NaN/Inf results.
    """
    fv = np.asarray(f(eig.values), dtype=float)
    if fv.shape != eig.values.shape:
        raise ValueError("scalar function must map the spectrum elementwise")
    if not np.all(np.isfinite(fv)):
        bad = eig.values[~np.isfinite(fv)][0]
        raise ValueError(f"scalar function is not finite at eigenvalue {bad:.6g}")
    return (eig.vectors * fv) @ eig.inv


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
    """Outcome of a chemical potential bisection."""

    mu: float
    degenerate: bool
    iterations: int
    residual: float


def _occupation_weights(eig: EigenPair, s_mat: np.ndarray) -> np.ndarray:
    # Tr[S f(S^-1 H)] = sum_k w_k f(lambda_k) with w_k the column sums of (S V)^2.
    w = s_mat @ eig.vectors
    return np.einsum("ik,ik->k", w, w)


def occupation(eig: EigenPair, s, beta: float, mu: float, normalization: float = 1.0) -> float:
    """Electron count Tr[N S (1 + exp[beta (S^-1 H - mu)])^-1] for the given pencil."""
    s_mat = _matrix_of(s)
    w = _occupation_weights(eig, s_mat)
    return float(normalization * np.dot(w, fermi(beta * (eig.values - mu))))


def find_mu_for_occupation(
    eig: EigenPair,
    s,
    beta: float,
    target_ne: float,
    normalization: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> MuSearchResult:
    """Bisect for the chemical potential that yields a prescribed electron count.

    The occupation is monotonically non-decreasing in mu, so bisection over
    the bracket ``[min(values) - 10/max(beta, 1), max(values) + 10/max(beta, 1)]``
    converges unconditionally whenever the bracket straddles the target.

    At ``beta = 0`` the occupation is independent of mu; the bracket midpoint
    is returned with ``degenerate=True``.

    Raises
    ------
    InfeasibleEnsembleError
        If the target lies outside ``(0, normalization * Tr[S])``.
    BracketError
        If the achievable occupation range inside the bracket excludes the target.
    MuConvergenceError
        If the occupation residual is still above ``tol`` after ``max_iter``
        bisection steps.
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    s_mat = _matrix_of(s)
    full = normalization * float(np.trace(s_mat))
    if not 0.0 < target_ne < full:
        raise InfeasibleEnsembleError(
            f"target electron count {target_ne:.6g} is outside the open interval "
            f"(0, {full:.6g}) set by the normalization and Tr[S]"
        )
    w = _occupation_weights(eig, s_mat)

    def occ(mu):
        return float(normalization * np.dot(w, fermi(beta * (eig.values - mu))))

    margin = 10.0 / max(beta, 1.0)
    lo = float(eig.values.min()) - margin
    hi = float(eig.values.max()) + margin

    if beta == 0.0:
        mid = 0.5 * (lo + hi)
        return MuSearchResult(mid, True, 0, abs(occ(mid) - target_ne))

    occ_lo, occ_hi = occ(lo), occ(hi)
    if not occ_lo <= target_ne <= occ_hi:
        raise BracketError(
            f"occupation range [{occ_lo:.6g}, {occ_hi:.6g}] over the mu bracket "
            f"[{lo:.6g}, {hi:.6g}] does not contain the target {target_ne:.6g}"
        )

    mid = 0.5 * (lo + hi)
    residual = np.inf
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        value = occ(mid)
        residual = abs(value - target_ne)
        if residual < tol:
            return MuSearchResult(mid, False, it, residual)
        if value > target_ne:
            hi = mid
        else:
            lo = mid
    raise MuConvergenceError(residual, max_iter)


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
