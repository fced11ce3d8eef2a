"""Dense real-symmetric linear algebra for the cooling solvers.

Provides validated matrix carriers (symmetric matrices, and the
positive-definite overlap metrics among them), the orthogonalizing frame
that each overlap owns and that reduces a pencil (H, S) to a standard
symmetric problem (a :class:`Frame`, or an :class:`IdentityFrame` with no
frame change when S is exactly the identity; its operations are plain
linear algebra, and no model enters this module), the decomposition of that problem, the overflow-safe Fermi factor,
and a safeguarded Newton search for the chemical potential at fixed
electron count on a set of levels and their weights, which can start from a
guess.
Everything is dense, real and double precision.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    BracketError,
    DimensionMismatchError,
    InfeasibleEnsembleError,
    MuConvergenceError,
    NotPositiveDefiniteError,
    OverlapTraceError,
)

#: Occupation residual at which the mu search stops.
MU_TOL = 1e-10

#: Occupation evaluations after which the mu search gives up.
MU_MAX_ITER = 200

#: A matrix is held by its cyclic band of half-width h when
#: n >= BAND_CROSSOVER (2h + 1) + 100: the band product costs about as much
#: as BAND_CROSSOVER band columns per gemm column, and a gemm below n = 100
#: less than its fixed cost; measured in docs/second_order_scheme.md.
BAND_CROSSOVER = 5


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
    """Largest absolute entry of M - M^T; inf, with no numpy warning, where
    a difference passes the largest float."""
    a = np.asarray(m, dtype=float)
    with np.errstate(over="ignore"):
        return float(np.abs(a - a.T).max())


class Dense:
    """A square matrix M as a kernel operator (:func:`operator`), by plain numpy calls.

    Its four operations are those that the kernel and the frame refresh
    take on F: ``F @ X``, :meth:`shifted`, :meth:`add_to` and :meth:`dot`.
    """

    def __init__(self, m):
        self.m = m

    def __array__(self, dtype=None, copy=None):
        return np.array(self.m, dtype=dtype, copy=copy)

    def __matmul__(self, x):
        return self.m @ x

    def shifted(self, sigma):
        """M - sigma 1, in a copy of M."""
        m = self.m.copy()
        m.flat[:: m.shape[0] + 1] -= sigma
        return Dense(m)

    def add_to(self, out, scale):
        """``out += scale * M`` in place; at scale -1 the subtraction, with no temporary."""
        if scale == -1.0:
            out -= self.m
        else:
            out += scale * self.m

    def dot(self, w):
        """<M, W>, the entry sum of M * W."""
        return float(np.vdot(self.m, w))


def operator(m):
    """The kernel operator of a square matrix ``m``: its :class:`Diagonals` if
    n >= :data:`BAND_CROSSOVER` (2h + 1) + 100, h the half-width of its cyclic
    band, else its :class:`Dense` form.  One count of the nonzeros turns a
    dense matrix down; a banded one is then scanned out to h, in O(h n)."""
    n = m.shape[0]
    most = ((n - 100) // BAND_CROSSOVER - 1) // 2  # the widest band taken
    left = np.count_nonzero(m)
    if most < 0 or left > (2 * most + 1) * n:  # too many entries: no band is scanned
        return Dense(m)
    h = 0
    while True:
        # the band of half-width h holds every nonzero entry once none is left
        left -= sum(np.count_nonzero(np.diagonal(m, k)) for k in {h, h - n, -h, n - h})
        if left == 0:
            return Diagonals(m, h)
        if h == most:
            return Dense(m)
        h += 1


def _windows(x, size):
    # the read-only view whose r-th matrix is the rows r .. r + size - 1 of x
    return as_strided(x, (x.shape[0] - size + 1, size, x.shape[1]), (x.strides[0], *x.strides),
                      writeable=False)


class Diagonals:
    """A square matrix M held by its cyclic band of half-width h, 2h < n.

    ``band[i, h + k]`` is M's entry (i, (i + k) mod n) for |k| <= h, an
    n x (2h + 1) array formed once; ``at`` holds those entries' flat
    indices, shared with every :meth:`shifted` copy, whose centre column
    is its own.  The :class:`Dense` operations take O(h n) here, and
    ``D @ X`` is one batched product of each band row with the 2h + 1 rows
    of X that it meets: the interior rows read a window view of X, and the
    2h wrapped rows a gathered block of 4h rows.  It allocates its output
    and O(h cols) else, and equals M X within (2h + 1 + n) eps (|M| |X|).
    """

    def __init__(self, m, h):
        n = m.shape[0]
        rows = np.arange(n)[:, None]
        self.h, self.at = h, rows * n + (rows + np.arange(-h, h + 1)) % n
        self.band = np.take(m, self.at)

    def __array__(self, dtype=None, copy=None):
        n = self.band.shape[0]
        m = np.zeros((n, n), dtype=dtype)
        m.flat[self.at] = self.band
        return m

    def __matmul__(self, x):
        n, h, band = self.band.shape[0], self.h, self.band
        out = np.empty((n, x.shape[1]))
        np.matmul(band[h:n - h, None], _windows(x, 2 * h + 1), out=out[h:n - h, None])
        if h:
            # X's rows n - 2h .. n + 2h - 1, mod n, meet the output rows n - h .. n + h - 1
            ends = np.arange(n - h, n + h) % n
            block = x[np.arange(n - 2 * h, n + 2 * h) % n]
            out[ends] = np.matmul(band[ends, None], _windows(block, 2 * h + 1))[:, 0]
        return out

    def shifted(self, sigma):
        """M - sigma 1: a new band, the flat indices shared."""
        other = copy.copy(self)
        other.band = self.band.copy()
        other.band[:, self.h] -= sigma
        return other

    def add_to(self, out, scale):
        """``out += scale * M`` in place, with the dense update's bits, in O(h n)."""
        out.flat[self.at] += scale * self.band

    def dot(self, w):
        """<M, W>, summed over M's band."""
        return float(np.vdot(self.band, np.take(w, self.at)))


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


class Frame:
    """The canonical-orthogonalization frame of an overlap S = U diag(s) U^T.

    Each overlap owns one (:attr:`OverlapMatrix.frame`).  ``s`` holds the
    ascending eigenvalues, Y = U s^1/2 and Z = Y^-T = U s^-1/2, so that
    Y Y^T = S, Z^T Y = 1 and Y^T Y = diag(s), and ``ones`` is c = Y^T 1, the
    column sums of Y.  The congruence by Z takes a pencil (H, S) to the
    standard problem G = Z^T H Z (:meth:`congruent`), and a density P is
    carried as Q = Z^T P Z against it.  The methods are the plain linear
    algebra that the cooling flow, the oracles, the model's refresh and the
    S-frame steps take on frame matrices, and know nothing of any model;
    :class:`IdentityFrame` makes each of them with the plain numpy call when
    S is exactly the identity.  The arrays are read-only.
    """

    def __init__(self, s, u):
        root = np.sqrt(s)
        self.s, self.y, self.z = s, u * root, u / root
        self.ones = self.y.sum(axis=0)
        self.y.flags.writeable = self.z.flags.writeable = self.ones.flags.writeable = False

    def to_frame(self, p):
        """The frame form Q = Z^T P Z of an S-frame matrix P."""
        return self.z.T @ p @ self.z

    def from_frame(self, q):
        """The S-frame matrix P = Y Q Y^T of a frame matrix Q."""
        return self.y @ q @ self.y.T

    def congruent(self, h):
        """The frame matrix G = Z^T H Z of a symmetric H, symmetrized and read-only."""
        g = symmetrize(self.to_frame(h))
        g.flags.writeable = False
        return g

    def inverse(self):
        """S^-1 = Z Z^T."""
        return self.z @ self.z.T

    def trace(self, q) -> float:
        """Tr[Y Q Y^T] = s . diag(Q), an O(n) sum."""
        return float(self.s @ np.diagonal(q))

    def total(self, q) -> float:
        """The entry sum of Y Q Y^T, c^T Q c with c = Y^T 1 (``ones``), in O(n^2)."""
        return float(self.ones @ q @ self.ones)

    def scale_rows(self, m):
        """The row scaling diag(s) M; C^T diag(s) C is ``c.T @ scale_rows(c)``."""
        return m * self.s[:, None]

    def norm_zy(self, c) -> float:
        """||Z C Y^T||_F, such as that of [S^-1 P, S^-1 H] = Z [Q, G] Y^T, from C alone.

        It is the sum of c_ij^2 s_j / s_i, since Z^T Z = diag(1/s) and
        Y^T Y = diag(s).
        """
        return math.sqrt(float(np.vdot(c * c, np.outer(1.0 / self.s, self.s))))

    def norm_yy(self, c) -> float:
        """||Y C Y^T||_F from C alone: the sum of c_ij^2 s_i s_j."""
        return math.sqrt(float(np.vdot(c * c, np.outer(self.s, self.s))))


class IdentityFrame(Frame):
    """The frame of an overlap that is exactly the identity: Q is P itself.

    ``s`` and ``ones`` are 1, and there is no Y or Z.  Each operation is the
    unweighted numpy call on the matrix it is given, so that every S = 1
    result keeps the bits and the cost of the plain formula: G is H itself,
    the trace is ``np.trace`` and the entry sum ``Q.sum()``.
    """

    def __init__(self, n):
        self.s = self.ones = np.ones(n)
        self.s.flags.writeable = False

    def to_frame(self, p):
        return p.copy()

    def from_frame(self, q):
        return q

    def congruent(self, h):
        return h

    def inverse(self):
        return np.eye(self.s.size)

    def trace(self, q) -> float:
        return float(np.trace(q))

    def total(self, q) -> float:
        return float(q.sum())

    def scale_rows(self, m):
        return m

    def norm_zy(self, c) -> float:
        return float(np.linalg.norm(c, "fro"))

    norm_yy = norm_zy


class OverlapMatrix(HermitianMatrix):
    """Symmetric positive-definite overlap metric of a (possibly non-orthonormal) basis.

    It is a :class:`HermitianMatrix`, symmetrized and checked as one.
    Positive definiteness is checked at construction, by the smallest
    eigenvalue of one ``eigh``, which also gives the orthogonalizing
    :attr:`frame`.  So is the trace Tr[S]: one past the largest float
    raises OverlapTraceError.
    """

    def __init__(self, entries):
        super().__init__(entries)
        s = self.mat
        diagonal = np.diagonal(s)
        with np.errstate(over="ignore"):
            if not math.isfinite(diagonal.sum()):
                raise OverlapTraceError(diagonal.max())
        vals, vecs = np.linalg.eigh(s)
        if vals[0] <= 0.0:
            raise NotPositiveDefiniteError(vals[0])
        vals.flags.writeable = False
        if np.count_nonzero(s) == self.dim and (diagonal == 1.0).all():
            self._frame = IdentityFrame(self.dim)  # the identity's eigenvectors are not kept
        else:
            self._frame = Frame(vals, vecs)

    @property
    def frame(self) -> Frame:
        """The :class:`Frame` of S = U diag(s) U^T in which densities are carried.

        It is an :class:`IdentityFrame` exactly when S is the identity (its
        only nonzero entries are a unit diagonal): there is no frame change,
        and no Y or Z is formed.
        """
        return self._frame

    def __repr__(self):
        return f"OverlapMatrix(dim={self.dim}, min_eig={self.frame.s[0]:.3g})"


def generalized_eigh(g):
    """Levels and frame eigenvectors (lambda, C) of a pencil (H, S) from its frame matrix G.

    The congruence by the overlap's frame Z (:attr:`OverlapMatrix.frame`,
    :meth:`Frame.congruent`) takes the pencil H v = lambda S v to the
    standard problem G = Z^T H Z (H itself when S is the identity), so the
    ascending eigenvalues lambda of G = C diag(lambda) C^T are the pencil's
    levels and V = Z C its
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

