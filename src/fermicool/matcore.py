"""Dense real-symmetric linear algebra for the cooling solvers.

Provides validated matrix carriers (symmetric matrices, and positive-definite
overlap metrics with the orthogonalizing frame that reduces a pencil (H, S)
to a standard symmetric problem), the decomposition of that problem, the
overflow-safe Fermi factor, and a
safeguarded Newton search for the chemical potential at fixed electron count
on a set of levels and their weights, which can start from a guess.
Everything is dense, real and double precision.
"""

from __future__ import annotations

import math
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

    The sum is halved, so each entry is rounded once; halving first would
    round twice below 2 * tiny.  Where the sum of finite entries overflows,
    the halves are summed instead: halving is exact at that size.
    """
    a = np.asarray(m, dtype=float)
    with np.errstate(over="ignore"):
        out = 0.5 * (a + a.T)
    over = np.isinf(out)
    if over.any():
        out[over] = (0.5 * a + 0.5 * a.T)[over]
    return out


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

    Positive definiteness is checked at construction.  The orthogonalizing
    :attr:`frame` is computed lazily from the cached eigendecomposition;
    S^-1 = Z Z^T follows from it.
    """

    def __init__(self, entries):
        base = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries)
        vals, vecs = np.linalg.eigh(base.mat)
        if vals[0] <= 0.0:
            raise NotPositiveDefiniteError(vals[0])
        vals.flags.writeable = False
        self.base = base
        self._eigvals = vals
        self._eigvecs = vecs

    @property
    def mat(self) -> np.ndarray:
        return self.base.mat

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def frame(self) -> tuple:
        """The canonical-orthogonalization frame (s, Y, Z) of S = U diag(s) U^T.

        ``s`` holds the ascending eigenvalues, ``Y = U s^1/2`` and
        ``Z = Y^-T = U s^-1/2``, so that ``Y Y^T = S``, ``Z^T Y = 1`` and
        ``Y^T Y = diag(s)``.  The congruence by Z takes a pencil (H, S) to
        the standard problem Z^T H Z; the cooling flow carries its state in
        the same frame.  All three are read-only.
        """
        root = np.sqrt(self._eigvals)
        y = self._eigvecs * root
        z = self._eigvecs / root
        y.flags.writeable = z.flags.writeable = False
        return self._eigvals, y, z

    def __array__(self, dtype=None, copy=None):
        return self.base.__array__(dtype, copy)

    def __repr__(self):
        return f"OverlapMatrix(dim={self.dim}, min_eig={self._eigvals[0]:.3g})"


def generalized_eigh(g):
    """Levels and frame eigenvectors (lambda, C) of a pencil (H, S) from its frame matrix G.

    The congruence by the overlap's frame Z (:attr:`OverlapMatrix.frame`)
    takes the pencil H v = lambda S v to the standard problem G = Z^T H Z
    (H itself when S is the identity), so the ascending eigenvalues lambda of
    G = C diag(lambda) C^T are the pencil's levels and V = Z C its
    S-orthonormal eigenvectors.  It is the library's one decomposition of a
    Hamiltonian; :mod:`~fermicool.models` calls it through its module
    global, the seam at which ``bench/tracing.py`` counts decompositions.
    A G that is not finite raises LinAlgError.
    """
    return np.linalg.eigh(g)


def fermi(x):
    """Overflow-safe Fermi factor 1 / (1 + exp(x)), elementwise.

    Evaluated branchwise through exp(-|x|) so arguments of order +-1e5 or
    larger neither overflow nor lose the saturated values 0 and 1.
    """
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x))
    # z / (1 + z) for x >= 0 and 1 / (1 + z) otherwise, in one division
    out = np.where(x >= 0.0, z, 1.0)
    out /= 1.0 + z
    if out.ndim == 0:
        return float(out)
    return out


class MuSearchResult(NamedTuple):
    """Outcome of a chemical potential search (safeguarded Newton).

    ``iterations`` counts occupation evaluations inside the bracket and
    ``residual`` is the final |occupation - target|.
    """

    mu: float
    iterations: int
    residual: float


def _occupation_and_slope(w, values, beta, mu, normalization, slope=True):
    # N sum_k w_k f_k and, with ``slope``, its mu-derivative
    # N beta sum_k w_k f_k (1 - f_k) (else None), with
    # f_k = fermi(beta (lambda_k - mu)).  The caller ignores overflow: an
    # argument that overflows to +-inf saturates the Fermi factor exactly.
    f = fermi(beta * (values - mu))
    value = float(normalization * np.dot(w, f))
    if not slope:
        return value, None
    return value, float(normalization * beta * np.dot(w, f * (1.0 - f)))


def find_mu_for_occupation(
    values: np.ndarray,
    weights: np.ndarray,
    beta: float,
    target_ne: float,
    normalization: float = 1.0,
    guess: float | None = None,
) -> MuSearchResult:
    """Find the chemical potential that yields a prescribed electron count.

    ``values`` are the levels lambda_k of a Hamiltonian and ``weights`` the
    share w_k of each level's occupation in the electron count, so that the
    occupation at mu is ``N sum_k w_k f_k`` with
    ``f_k = fermi(beta (lambda_k - mu))`` and N the ``normalization``.  For
    the levels G = C diag(lambda) C^T of a frame matrix the weights are
    ``(C^T diag(s) C)_kk`` and sum to Tr[S]
    (:func:`~fermicool.models._levels_mu`).

    The occupation is monotonically non-decreasing in mu with the exact slope
    ``N beta sum_k w_k f_k (1 - f_k)``.  The search keeps the bisection
    bracket ``[min(values) - 10/max(beta, 1), max(values) + 10/max(beta, 1)]``
    and, from its first iterate, takes Newton steps inside it, falling back
    to bisection whenever a Newton iterate would leave the bracket or fails
    to halve the step before last (rtsafe, *Numerical Recipes* section 9.4).
    It therefore converges unconditionally whenever the bracket straddles the
    target, and quadratically near the root.  Each iteration evaluates the
    occupation once, and the search stops once the occupation residual is
    below :data:`MU_TOL`.  A bracket end whose residual is already below
    :data:`MU_TOL` is returned with ``iterations = 0``.

    The first iterate is ``guess`` when it lies strictly inside the bracket,
    such as the mu of a nearby Hamiltonian or temperature, and the bracket
    midpoint otherwise (also for None, NaN and infinities).  The guess moves
    only where the search starts: the bracket, the stopping test and the
    errors raised are the same with or without it.

    Raises
    ------
    DimensionMismatchError
        If ``values`` and ``weights`` differ in shape.
    ValueError
        If ``beta`` is not positive: at ``beta = 0`` the occupation does not
        depend on mu, and the Fermi-Dirac state takes the limit
        Tr[H] / Tr[S] instead (:func:`~fermicool.models.infinite_temperature_mu`).
    InfeasibleEnsembleError
        If the target lies outside ``(0, normalization * sum(weights))``,
        full filling.
    BracketError
        If the bracket is not finite (levels beyond the largest float), or
        the achievable occupation range inside it excludes the target.
    MuConvergenceError
        If the occupation residual is still above :data:`MU_TOL` after
        :data:`MU_MAX_ITER` iterations.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise DimensionMismatchError(
            f"levels have shape {values.shape} but weights {weights.shape}"
        )
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    # Python floats: a Newton step over an underflowed slope is inf, silently
    target_ne = float(target_ne)
    full = normalization * float(weights.sum())
    if not 0.0 < target_ne < full:
        raise InfeasibleEnsembleError(
            f"target electron count {target_ne:.6g} is outside the open interval "
            f"(0, {full:.6g}) set by the normalization and full filling"
        )
    margin = 10.0 / max(beta, 1.0)
    lo = float(values.min()) - margin
    hi = float(values.max()) + margin
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BracketError(
            f"the mu bracket [{lo:.6g}, {hi:.6g}] is not finite: the levels "
            f"pass the largest float"
        )

    # one np.errstate for the whole search (see _occupation_and_slope)
    with np.errstate(over="ignore"):
        occ_lo = _occupation_and_slope(weights, values, beta, lo, normalization, slope=False)[0]
        occ_hi = _occupation_and_slope(weights, values, beta, hi, normalization, slope=False)[0]
        if not occ_lo <= target_ne <= occ_hi:
            raise BracketError(
                f"occupation range [{occ_lo:.6g}, {occ_hi:.6g}] over the mu bracket "
                f"[{lo:.6g}, {hi:.6g}] does not contain the target {target_ne:.6g}"
            )
        # a root at a bracket end: Newton iterates toward it would leave the open bracket
        for end, occ_end in ((lo, occ_lo), (hi, occ_hi)):
            if abs(occ_end - target_ne) < MU_TOL:
                return MuSearchResult(end, 0, abs(occ_end - target_ne))

        mu = float(guess) if guess is not None and lo < guess < hi else 0.5 * (lo + hi)
        step = step_before = hi - lo
        residual = np.inf
        for it in range(1, MU_MAX_ITER + 1):
            value, slope = _occupation_and_slope(weights, values, beta, mu, normalization)
            excess = value - target_ne
            residual = abs(excess)
            if residual < MU_TOL:
                return MuSearchResult(mu, it, residual)
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

