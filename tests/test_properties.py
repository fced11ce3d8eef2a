"""Property tests of the congruence kernel, the mu search, the matrix files,
the input matrices and the command line.

The first reference below is the S-frame integrator written out literally:
every step multiplies by S^-1, rebuilds H S^-1 - mu, treats the grand and
the canonical ensembles with separate formulas, and takes RK4 steps with its
own Runge-Kutta combination.  ``cool`` integrates in the canonical
orthogonalization frame of the overlap's eigenpairs with one shared kernel,
so agreement with this reference guards the frame change, the
grand-as-canonical reduction and the kernel's RK4 stages.

The second is the plain bisection for mu over the same bracket, against
which the safeguarded Newton search must agree on every failure.

The third is exact for the discrete flow of a linear model, whose state
stays a function of H: each scheme's step is a scalar recurrence for each
level's occupation, coupled only through sigma (:func:`scalar_map`).  It
shares no formula with the library, so a wrong coefficient of any order in
a step shows against it.
"""

import contextlib
import csv
import io
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from scipy.special import expit

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fermicool import (  # noqa: E402
    BracketError,
    Canonical,
    GrandCanonical,
    HamiltonianModel,
    HermitianMatrix,
    InfeasibleEnsembleError,
    MatrixParseError,
    MuConvergenceError,
    OverlapMatrix,
    ScfConvergenceError,
    SolverConfig,
    SystemSpec,
    canonical_normalization,
    cool,
    exact_canonical_fd,
    exact_grand_fd,
    fermi,
    find_mu_for_occupation,
    occupation_spectrum,
    read_matrix,
    scf_fixed_point,
    step_kraus1,
    step_kraus2,
    symmetrize,
    write_matrix,
)
from fermicool import matcore, models, solvers  # noqa: E402
from fermicool.cli import EXITS, main  # noqa: E402
from fermicool.models import _fd_jacobian, _frame_state, scf_mu_trace  # noqa: E402
from conftest import (DATA_DIR, SYMMETRY_RTOL, cholesky_occupations, explicit_frame,  # noqa: E402
                      frame_scf, pencil_levels, random_spd, random_symmetric,
                      s_frame_hamiltonian, s_frame_response, search_occupation)

#: Largest relative gap between cool() and the S-frame reference, fixed
#: before the comparison is run.
RTOL = 1e-12


# --- S-frame reference ------------------------------------------------------

def ref_grand_rhs(p, h, si, mu):
    n = p.shape[0]
    f = si @ h - mu * np.eye(n)
    flow = p @ (np.eye(n) - si @ p) @ f
    return -0.5 * (flow + flow.T)


def ref_canonical_rhs(p, h, si, norm):
    n = p.shape[0]
    x = p - (p @ si @ p) / norm
    t1 = si @ h
    scalar = float(np.trace(x @ t1)) / float(np.trace(x))
    flow = x @ (t1 - scalar * np.eye(n))
    return -0.5 * (flow + flow.T), x, scalar


def ref_scalar_rate(p, pdot, t1, si, norm, x, scalar):
    xdot = pdot - (pdot @ si @ p + p @ si @ pdot) / norm
    return (float(np.trace(xdot @ t1)) - scalar * float(np.trace(xdot))) / float(np.trace(x))


def ref_step_grand(p, h, si, mu, db, second_order):
    n = p.shape[0]
    eye = np.eye(n)
    f = h @ si - mu * eye
    k = -0.5 * db * (f @ (eye - p @ si))
    if second_order:
        a = eye + k @ (eye + 0.5 * k) + 0.25 * db * f @ (p @ k.T + k @ p) @ si
    else:
        a = eye + k
    return a @ p @ a.T


def ref_step_canonical(p, h, si, norm, db, second_order):
    n = p.shape[0]
    eye = np.eye(n)
    pdot, x, scalar = ref_canonical_rhs(p, h, si, norm)
    g = h @ si - scalar * eye
    b = -0.5 * (g @ (eye - (p @ si) / norm))
    if not second_order:
        a = eye + db * b
        return a @ p @ a.T, scalar, None
    sdot = ref_scalar_rate(p, pdot, si @ h, si, norm, x, scalar)
    bdot = 0.5 * sdot * (eye - (p @ si) / norm) + (g @ pdot @ si) / (2.0 * norm)
    a = eye + db * b + 0.5 * db**2 * (b @ b + bdot)
    return a @ p @ a.T, scalar, sdot


def ref_rk4(y, rhs, db):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * db * k1)
    k3 = rhs(y + 0.5 * db * k2)
    k4 = rhs(y + db * k3)
    return y + (db / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_cool(model, ensemble, scheme, beta_final, n_steps):
    """Final density (and mu) of the S-frame integration, refreshing H per step."""
    system = model.system
    s = system.s.mat
    si = np.linalg.inv(s)
    n = system.dim
    db = beta_final / n_steps
    canonical = isinstance(ensemble, Canonical)
    if canonical:
        norm = canonical_normalization(ensemble.n_electrons, s)
        mu = float(np.trace(system.h_core.mat)) / float(np.trace(s))
        beta_mu = 0.0
    else:
        norm, mu = 1.0, ensemble.mu
    p = 0.5 * norm * s
    for i in range(n_steps):
        beta_i, beta_next = beta_final * i / n_steps, beta_final * (i + 1) / n_steps
        h = s_frame_hamiltonian(model, p, norm).mat
        if scheme == "rk4" and canonical:
            def rhs(y):
                q = y[: n * n].reshape(n, n)
                dq, x, scalar = ref_canonical_rhs(q, h, si, norm)
                if y[n * n + 1] > 0.0:
                    dmu = (scalar - y[n * n]) / y[n * n + 1]
                else:
                    dmu = 0.5 * ref_scalar_rate(q, dq, si @ h, si, norm, x, scalar)
                return np.concatenate([dq.ravel(), [dmu, 1.0]])

            y = ref_rk4(np.concatenate([p.ravel(), [mu, beta_i]]), rhs, db)
            p_raw, mu = y[: n * n].reshape(n, n), float(y[n * n])
        elif scheme == "rk4":
            p_raw = ref_rk4(p, lambda q: ref_grand_rhs(q, h, si, mu), db)
        elif canonical:
            p_raw, scalar, sdot = ref_step_canonical(p, h, si, norm, db, scheme == "kraus2")
            beta_mu += db * scalar if sdot is None else db * (scalar + 0.5 * db * sdot)
            mu = beta_mu / beta_next
        else:
            p_raw = ref_step_grand(p, h, si, mu, db, scheme == "kraus2")
        p = 0.5 * (p_raw + p_raw.T)
    return p, mu


# --- generated inputs -------------------------------------------------------

@st.composite
def systems(draw, max_dim=12):
    """Random symmetric H and SPD S (spectrum in [0.5, 2]) of dimension 1-12;
    some draws use the identity overlap, which cool() treats without a frame
    change."""
    dim = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.eye(dim) if draw(st.booleans()) else random_spd(rng, dim)
    return SystemSpec(HermitianMatrix(random_symmetric(rng, dim)), OverlapMatrix(s))


@st.composite
def ensembles(draw, system):
    if draw(st.booleans()):
        return GrandCanonical(draw(st.floats(-1.0, 1.0)))
    fill = draw(st.floats(0.2, 0.8))
    return Canonical(fill * float(np.trace(system.s.mat)))


def rel_gap(a, b):
    return float(np.abs(a - b).max()) / max(float(np.abs(b).max()), 1e-300)


@given(data=st.data(), system=systems(), scheme=st.sampled_from(["kraus1", "kraus2", "rk4"]),
       coupling=st.sampled_from([0.0, 0.1]), n_steps=st.integers(1, 4),
       db=st.floats(0.01, 0.3))
def test_cool_matches_s_frame_reference(data, system, scheme, coupling, n_steps, db):
    ensemble = data.draw(ensembles(system))
    model = HamiltonianModel(system, coupling_u=coupling)
    traj = cool(model, ensemble, SolverConfig(scheme, n_steps * db, db, record_every=n_steps))
    p_ref, mu_ref = ref_cool(model, ensemble, scheme, n_steps * db, n_steps)
    assert rel_gap(traj.final_density.mat, p_ref) <= RTOL
    if isinstance(ensemble, Canonical):
        assert abs(traj.final_mu - mu_ref) <= RTOL * max(abs(mu_ref), 1.0)


@given(system=systems(), mu=st.floats(-2.0, 2.0), db=st.floats(1e-3, 1e3),
       rank=st.integers(0, 12), step=st.sampled_from([step_kraus1, step_kraus2]))
def test_kraus_steps_are_psd_at_any_step_size(system, mu, db, rank, step):
    # start from a PSD matrix that may be singular (rank below the dimension)
    n = system.dim
    rng = np.random.default_rng(n + rank)
    v = rng.normal(size=(n, min(rank, n)))
    p = v @ v.T + 0.5 * system.s.mat * (rank >= n)
    out, a = step(p, system.h_core.mat, system.s, mu, db)
    # a congruence is PSD in exact arithmetic; the floating-point residue of
    # forming A P A^T is bounded by a few ulps of ||A||^2 ||P||
    scale = np.linalg.norm(a, 2) ** 2 * max(np.linalg.norm(p, 2), 1e-300)
    assert np.linalg.eigvalsh(out)[0] >= -1e-12 * scale


@given(system=systems(), coupling=st.sampled_from([0.0, 0.1]), n_steps=st.integers(1, 5),
       db=st.floats(0.01, 0.5), fill=st.floats(0.2, 0.8))
def test_canonical_rk4_conserves_trace_per_step(system, coupling, n_steps, db, fill):
    ne = fill * float(np.trace(system.s.mat))
    traj = cool(HamiltonianModel(system, coupling_u=coupling), Canonical(ne),
                SolverConfig("rk4", n_steps * db, db, record_every=1))
    assert len(traj.diagnostics.trace) == n_steps + 1
    assert np.abs(np.diff(traj.diagnostics.trace)).max() <= 1e-12 * ne


# --- exact discrete map of linear runs -------------------------------------

def scalar_map(levels, weights, scheme, ensemble, norm, db, n_steps):
    """The final occupations (ascending) and mu of a linear run, level by level.

    A linear model's state stays a function of G, so in the eigenbasis of the
    pencil (H, S) every step of every scheme is a scalar recurrence for each
    level's occupation q_k, from q_k = N/2 (docs/second_order_scheme.md).
    The levels meet only in sigma, whose weights ``weights`` are the shares
    c_k of Tr[S], ||S v_k||^2 for the S-orthonormal eigenvectors v_k.  With
    x = q (1 - q/N), sigma = sum c lambda x / sum c x (mu and N = 1 for a
    grand ensemble) and b = -(lambda - sigma)(1 - q/N) / 2:

    * kraus1: q <- (1 + db b)^2 q, dz = db sigma;
    * kraus2: pdot = 2 b q, sigma' = sum c (lambda - sigma) pdot (1 - 2q/N) / sum c x
      (0 when grand), b' = (sigma'/2)(1 - q/N) + (lambda - sigma) pdot / (2N),
      a = 1 + db b + (db^2/2)(b^2 + b'), q <- a^2 q, dz = db (sigma + db sigma'/2);
    * rk4: classic RK4 on dq/dbeta = -(lambda - sigma(q)) q (1 - q/N), and dz
      the RK4 weights over the four stage sigmas.

    mu is the sum of dz over the final beta; None for a grand ensemble.
    """
    lam, c = levels, weights
    grand = isinstance(ensemble, GrandCanonical)

    def sigma_of(q):
        x = q * (1.0 - q / norm)
        return ensemble.mu if grand else float(np.dot(c, lam * x) / np.dot(c, x))

    def rate(q):
        sigma = sigma_of(q)
        return -(lam - sigma) * q * (1.0 - q / norm), sigma

    q = np.full(lam.size, 0.5 * norm)
    beta_mu = 0.0
    for _ in range(n_steps):
        if scheme == "rk4":
            k1, s1 = rate(q)
            k2, s2 = rate(q + 0.5 * db * k1)
            k3, s3 = rate(q + 0.5 * db * k2)
            k4, s4 = rate(q + db * k3)
            q = q + db / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            beta_mu += db / 6.0 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            continue
        sigma = sigma_of(q)
        b = -0.5 * (lam - sigma) * (1.0 - q / norm)
        if scheme == "kraus1":
            a, dz = 1.0 + db * b, db * sigma
        else:
            pdot = 2.0 * b * q
            x = q * (1.0 - q / norm)
            sdot = 0.0 if grand else float(
                np.dot(c, (lam - sigma) * pdot * (1.0 - 2.0 * q / norm)) / np.dot(c, x))
            bdot = 0.5 * sdot * (1.0 - q / norm) + (lam - sigma) * pdot / (2.0 * norm)
            a = 1.0 + db * b + 0.5 * db**2 * (b * b + bdot)
            dz = db * (sigma + 0.5 * db * sdot)
        q = a * a * q
        beta_mu += dz
    return np.sort(q), None if grand else beta_mu / (n_steps * db)


@st.composite
def linear_systems(draw):
    """A system for the scalar map: one time in four a cyclic band ring with
    S = 1 and 115-140 sites, whose F cool() takes by its diagonals, and
    otherwise dimension 1-9 with S = 1 or SPD; the levels lie within about
    [-3, 3]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(115, 140))
        h = np.diag(rng.uniform(-1.0, 1.0, n))
        site = np.arange(n)
        hop = rng.uniform(-0.5, 0.5, n)
        h[site, (site + 1) % n] = h[(site + 1) % n, site] = hop
        return SystemSpec(HermitianMatrix(h), OverlapMatrix(np.eye(n)))
    n = draw(st.integers(1, 9))
    s = np.eye(n) if draw(st.booleans()) else random_spd(rng, n)
    return SystemSpec(HermitianMatrix(random_symmetric(rng, n, scale=n**-0.5)),
                      OverlapMatrix(s))


@given(data=st.data(), system=linear_systems(), scheme=st.sampled_from(solvers.SCHEMES),
       n_steps=st.integers(1, 12), db=st.floats(0.01, 0.8))
def test_linear_cool_is_the_scalar_map_of_each_level(data, system, scheme, n_steps, db):
    # the scalar map is an exact reference for the discrete flow, not only
    # for its O(db^p) limit: a wrong coefficient of any order shows
    ensemble = data.draw(ensembles(system))
    if system.dim >= 115:  # the diagonal path of the kernel runs
        assert isinstance(matcore.operator(system.g_core), matcore.Diagonals)
    canonical = isinstance(ensemble, Canonical)
    norm = canonical_normalization(ensemble.n_electrons, system.s.mat) if canonical else 1.0
    traj = cool(HamiltonianModel(system), ensemble,
                SolverConfig(scheme, n_steps * db, db, record_every=n_steps))
    levels, weights = pencil_levels(system.h_core.mat, system.s.mat)
    occ, mu = scalar_map(levels, weights, scheme, ensemble, norm, traj.delta_beta, n_steps)
    got = occupation_spectrum(traj.final_density, system.s)
    assert np.abs(got - occ).max() <= 1e-12 * norm
    if canonical:
        assert abs(traj.final_mu - mu) <= 1e-12 * norm


# --- mu search ---------------------------------------------------------------

MU_TOL = 1e-10


def ref_bracket(values, beta):
    margin = 10.0 / max(beta, 1.0)
    return float(values.min()) - margin, float(values.max()) + margin


def ref_occupation(values, weights, beta, mu, norm):
    return norm * float(np.dot(weights, expit(-beta * (values - mu))))


def ref_bisect_mu(values, weights, beta, target, norm, tol=MU_TOL, max_iter=200):
    """The bisection search for mu, written out literally.  It evaluates the
    occupation with the library, so both searches see the same rounding at
    the bracket ends."""
    if not 0.0 < target < norm * float(weights.sum()):
        raise InfeasibleEnsembleError("target outside (0, N Tr[S])")
    lo, hi = ref_bracket(values, beta)
    if not (search_occupation(values, weights, beta, lo, norm) <= target
            <= search_occupation(values, weights, beta, hi, norm)):
        raise BracketError("bracket does not straddle the target")
    residual = np.inf
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        value = search_occupation(values, weights, beta, mid, norm)
        residual = abs(value - target)
        if residual < tol:
            return mid
        lo, hi = (lo, mid) if value > target else (mid, hi)
    raise MuConvergenceError(residual, max_iter)


@given(system=systems(), log_beta=st.floats(-3.0, 3.0), norm=st.floats(0.2, 1.9),
       fill=st.floats(-0.1, 1.1))
def test_mu_search_converges_inside_bracket(system, log_beta, norm, fill):
    # fill in [0, 1] puts the target inside the range the bracket attains;
    # the draws outside it must fail as the bisection fails
    beta = 10.0 ** log_beta
    values, weights = pencil_levels(system.h_core.mat, system.s.mat)
    lo, hi = ref_bracket(values, beta)
    occ_lo = ref_occupation(values, weights, beta, lo, norm)
    occ_hi = ref_occupation(values, weights, beta, hi, norm)
    target = occ_lo + fill * (occ_hi - occ_lo)
    try:
        ref_bisect_mu(values, weights, beta, target, norm)
    except (InfeasibleEnsembleError, BracketError, MuConvergenceError) as exc:
        with pytest.raises(type(exc)):
            find_mu_for_occupation(values, weights, beta, target, norm)
        return
    res = find_mu_for_occupation(values, weights, beta, target, norm)
    assert lo <= res.mu <= hi
    assert res.residual < MU_TOL
    # the residual seen by an independent evaluation, up to its rounding
    assert (abs(ref_occupation(values, weights, beta, res.mu, norm) - target)
            < MU_TOL + 1e-13 * occ_hi)


@given(system=systems(), log_beta=st.floats(-3.0, 3.0), norm=st.floats(0.2, 1.9),
       fill=st.floats(-0.1, 1.1),
       where=st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf, -math.inf])))
def test_mu_search_from_any_guess(system, log_beta, norm, fill, where):
    # where in (0, 1) puts the guess inside the bracket, outside it beyond
    # the bracket ends; NaN and the infinities are passed as the guess itself
    beta = 10.0 ** log_beta
    values, weights = pencil_levels(system.h_core.mat, system.s.mat)
    lo, hi = ref_bracket(values, beta)
    occ_lo = ref_occupation(values, weights, beta, lo, norm)
    occ_hi = ref_occupation(values, weights, beta, hi, norm)
    target = occ_lo + fill * (occ_hi - occ_lo)
    guess = lo + where * (hi - lo) if math.isfinite(where) else where
    try:
        cold = find_mu_for_occupation(values, weights, beta, target, norm)
    except (InfeasibleEnsembleError, BracketError, MuConvergenceError) as exc:
        with pytest.raises(type(exc)):
            find_mu_for_occupation(values, weights, beta, target, norm, guess=guess)
        return
    res = find_mu_for_occupation(values, weights, beta, target, norm, guess=guess)
    assert lo <= res.mu <= hi
    assert res.residual < MU_TOL
    assert (abs(ref_occupation(values, weights, beta, res.mu, norm) - target)
            < MU_TOL + 1e-13 * occ_hi)
    # a guess near the root costs no more than starting from the midpoint,
    # except where the midpoint is itself the root (one evaluation)
    for near in (cold.mu - 1e-6, cold.mu + 1e-6):
        warm = find_mu_for_occupation(values, weights, beta, target, norm, guess=near)
        assert warm.residual < MU_TOL
        if lo < cold.mu - 1e-6 and cold.mu + 1e-6 < hi:
            # near a bracket end the Newton iterate toward the root can leave
            # the open bracket, and the search bisects the 1e-6 interval
            assert warm.iterations <= max(cold.iterations, 2)


# --- SCF oracle ----------------------------------------------------------------

def ref_fd(system, h, beta, ensemble, norm):
    """FermiDirac(H) through scipy's generalized eigensolver, with the
    canonical mu solved by Brent's method to the last bits of mu."""
    values, v = scipy.linalg.eigh(h, system.s.mat)
    w = system.s.mat @ v

    def density(mu):
        return (w * (norm * expit(-beta * (values - mu)))) @ w.T

    if isinstance(ensemble, GrandCanonical):
        return density(ensemble.mu)
    lo, hi = ref_bracket(values, beta)
    mu = scipy.optimize.brentq(lambda m: np.trace(density(m)) - ensemble.n_electrons,
                               lo, hi, xtol=1e-15, rtol=1e-15)
    return density(mu)


@st.composite
def affine_systems(draw):
    """A random system of dimension 1-6, an ensemble and its normalization."""
    system = draw(systems(max_dim=6))
    ensemble = draw(ensembles(system))
    norm = (canonical_normalization(ensemble.n_electrons, system.s.mat)
            if isinstance(ensemble, Canonical) else 1.0)
    return system, ensemble, norm


@given(data=st.data(), coupling=st.floats(-0.5, 0.5), log_beta=st.floats(-1.0, 1.0))
def test_newton_jacobian_matches_a_finite_difference(data, coupling, log_beta):
    # J dP of P -> FD(H(P)) against a central difference of an independent
    # evaluation, at a point near the initial value (N/2) S.  The SCF takes J
    # in the overlap frame, on dQ = Z^T dP Z in the eigenbasis C of G(Q)
    system, ensemble, norm = data.draw(affine_systems())
    beta = 10.0 ** log_beta
    model = HamiltonianModel(system, coupling_u=coupling)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = system.dim
    p = 0.5 * norm * system.s.mat + 0.05 * random_symmetric(rng, n)
    dp = random_symmetric(rng, n)
    frame = system.s.frame
    _, mu, eig, _ = _frame_state(model, frame.to_frame(p), beta, ensemble, norm)
    jacobian = _fd_jacobian(model, eig, beta, mu, norm, isinstance(ensemble, Canonical))
    c = eig[1]
    j_dp = frame.from_frame(c @ jacobian(c.T @ frame.to_frame(dp) @ c) @ c.T)
    step = 1e-4

    def fd(sign):
        return ref_fd(system, s_frame_hamiltonian(model, p + sign * step * dp, norm).mat,
                      beta, ensemble, norm)

    central = (fd(1.0) - fd(-1.0)) / (2.0 * step)
    assert np.abs(j_dp - central).max() <= 1e-7 * max(np.abs(central).max(), 1.0)
    if isinstance(ensemble, Canonical):
        assert abs(np.trace(j_dp)) <= 1e-12 * max(np.abs(j_dp).max(), 1.0)


@given(data=st.data(), coupling=st.floats(-0.2, 0.2), log_beta=st.floats(-1.0, 0.5))
def test_newton_fixed_point_is_the_picard_fixed_point(data, coupling, log_beta):
    system, ensemble, _ = data.draw(affine_systems())
    beta = 10.0 ** log_beta
    model = HamiltonianModel(system, coupling_u=coupling)
    tol = 1e-11
    try:
        picard = scf_fixed_point(model, ensemble, beta, tol=tol, max_iter=500,
                                 use_aitken=False)
    except ScfConvergenceError:
        assume(False)
    newton = scf_fixed_point(model, ensemble, beta, tol=tol, max_iter=500)
    assert np.abs(newton.density.mat - picard.density.mat).max() <= 10 * tol
    assert abs(newton.mu - picard.mu) <= 1e-9
    assert newton.iterations <= picard.iterations


def ref_scf(model, ensemble, beta, use_aitken, start, mu_guess, tol=1e-10, max_iter=200):
    """The SCF iterated in the S frame: each evaluation rebuilds H(P),
    decomposes the pencil (H(P), S) with scipy's generalized solver and forms
    FD(H(P)) = N (S V) f (S V)^T; the Newton step takes J in the pencil's
    eigenbasis, dP = W X W^T with W = S V.  Returns (P, mu, iterations) or
    raises ScfConvergenceError."""
    system = model.system
    s = system.s.mat
    canonical = isinstance(ensemble, Canonical)
    norm = canonical_normalization(ensemble.n_electrons, s) if canonical else 1.0

    def evaluate(p, mu_start):
        h = s_frame_hamiltonian(model, p, norm)
        if beta == 0.0:
            mu = float(np.trace(h.mat)) / float(np.trace(s)) if canonical else ensemble.mu
            return 0.5 * norm * s, mu, None
        lam, v = scipy.linalg.eigh(h.mat, s)
        w = s @ v
        mu = (find_mu_for_occupation(lam, (w ** 2).sum(axis=0), beta, ensemble.n_electrons,
                                     norm, guess=mu_start).mu if canonical else ensemble.mu)
        return HermitianMatrix((w * (norm * expit(-beta * (lam - mu)))) @ w.T).mat, mu, (lam, v, w)

    def newton_step(eig, mu, r):
        lam, v, w = eig
        f = expit(-beta * (lam - mu))
        rate = norm * beta * f * (1.0 - f)
        gap = np.subtract.outer(lam, lam)
        tie = np.abs(gap) < models.TIE_TOL / beta
        gap[tie] = 1.0
        k = norm * np.subtract.outer(f, f) / gap
        k[tie] = -0.5 * np.add.outer(rate, rate)[tie]
        gram = w.T @ w
        slope = float(np.diagonal(gram) @ rate) if canonical else 0.0

        def jacobian(x):
            y = k * (v.T @ s_frame_response(model, w @ x @ w.T) @ v)
            if slope > 0.0:
                y.flat[:: y.shape[0] + 1] -= float(np.vdot(gram, y)) / slope * rate
            return y

        rv = v.T @ r @ v
        x = rv
        for _ in range(models.NEWTON_SWEEPS):
            x = rv + jacobian(x)
        return w @ x @ w.T

    p = 0.5 * norm * s if start is None else start
    p_new, mu, eig = evaluate(p, mu_guess)
    if model.is_linear:  # its own fixed point
        return p_new, mu, 1
    prev, stalled = np.inf, 0
    for it in range(1, max_iter + 1):
        r = p_new - p
        residual = float(np.abs(r).max())
        if residual < tol:
            return p_new, mu, it
        if residual >= prev:
            stalled += 1
        elif not use_aitken:
            stalled = 0
        if stalled >= models.SCF_OSCILLATION_LIMIT:
            raise ScfConvergenceError(residual, it)
        if it == max_iter:
            break
        if use_aitken and eig is not None and residual < prev:
            p = p + newton_step(eig, mu, r)
        else:
            p = p_new
        p_new, mu, eig = evaluate(p, mu)
        prev = residual
    raise ScfConvergenceError(residual, max_iter)


@given(data=st.data(), coupling=st.floats(-0.3, 0.3), log_beta=st.floats(-1.0, 1.0),
       use_aitken=st.booleans(), warm=st.booleans())
def test_frame_scf_is_the_s_frame_scf(data, coupling, log_beta, use_aitken, warm):
    # scf_fixed_point iterates on Q = Z^T P Z with one eigh of G(Q) per
    # evaluation; it takes the same steps as the S-frame loop, to rounding.
    # A warm start, as the mu trace makes, enters the shared loop as the
    # frame state Z^T P Z
    system, ensemble, norm = data.draw(affine_systems())
    beta = 0.0 if data.draw(st.integers(0, 9)) == 0 else 10.0 ** log_beta
    model = HamiltonianModel(system, coupling_u=coupling)
    start = mu_guess = None
    if warm:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        start = 0.5 * norm * system.s.mat + 0.05 * random_symmetric(rng, system.dim)
        mu_guess = data.draw(st.floats(-1.0, 1.0))

    def solve():
        # (P, mu, iterations) of the library's SCF
        if not warm:
            res = scf_fixed_point(model, ensemble, beta, use_aitken=use_aitken)
            return res.density.mat, res.mu, res.iterations
        f, mu, iterations, _ = frame_scf(model, ensemble, beta, system.s.frame.to_frame(start),
                                         mu_guess, use_aitken=use_aitken)
        return models._density(system, f, beta, norm).mat, mu, iterations

    try:
        p_ref, mu_ref, iterations = ref_scf(model, ensemble, beta, use_aitken, start, mu_guess)
    except ScfConvergenceError as exc:
        with pytest.raises(ScfConvergenceError) as err:
            solve()
        assert err.value.iterations == exc.iterations
        return
    p, mu, its = solve()
    assert its == iterations
    scale = norm * np.linalg.norm(system.s.mat, 2)
    assert np.abs(p - p_ref).max() <= 1e-12 * scale
    assert abs(mu - mu_ref) <= 1e-12


@given(data=st.data(), coupling=st.floats(-1.0, 1.0))
def test_frame_refresh_is_the_s_frame_hamiltonian(data, coupling):
    # the O(n^2) refresh G_core + u [(Q - N/2) + phi K] that cool() and the
    # SCF share, against the S-frame Hamiltonian of P = Y Q Y^T carried into
    # the frame by Z = Y^-T
    system, ensemble, norm = data.draw(affine_systems())
    model = HamiltonianModel(system, coupling_u=coupling)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _, y, z = explicit_frame(system.s)
    q = random_symmetric(rng, system.dim)
    g = model.frame_hamiltonian(q, norm)
    ref = z.T @ s_frame_hamiltonian(model, y @ q @ y.T, norm).mat @ z
    assert np.abs(g - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1.0)


@given(data=st.data(), system=systems())
def test_frame_operations_are_the_overlap_algebra(data, system):
    # each operation of the system's frame against the overlap's (s, Y, Z)
    # formed explicitly, and an IdentityFrame's against the plain numpy call
    # it stands for, bit for bit; the frame is an IdentityFrame exactly when
    # S is the identity (only a unit diagonal is nonzero).  The frame form
    # Q = Z^T P Z has the eigenvalues of S^-1 P, which cool() records as the
    # occupations: against the Cholesky reference
    n = system.dim
    s_mat = system.s.mat
    frame = system.s.frame
    identity = bool(np.count_nonzero(s_mat) == n and (np.diagonal(s_mat) == 1.0).all())
    assert isinstance(frame, matcore.IdentityFrame) == identity
    w, y, z = explicit_frame(system.s)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = random_symmetric(rng, n)
    c = rng.normal(size=(n, n))
    q = frame.to_frame(p)
    tol = 1e-12 * max(fro(p), fro(c), 1.0)
    assert np.abs(frame.from_frame(q) - p).max() <= tol
    assert abs(frame.trace(q) - np.trace(p)) <= tol
    assert np.abs(frame.ones - y.sum(axis=0)).max() <= tol
    assert abs(frame.total(q) - p.sum()) <= n * tol
    assert np.abs(np.linalg.eigvalsh(q) - cholesky_occupations(p, s_mat)).max() <= tol
    assert abs(frame.norm_zy(c) - fro(z @ c @ y.T)) <= tol * fro(c)
    assert abs(frame.norm_yy(c) - fro(y @ c @ y.T)) <= tol * fro(c)
    gram = c.T @ np.diag(w) @ c
    assert np.abs(c.T @ frame.scale_rows(c) - gram).max() <= tol * fro(c)
    if identity:
        assert q is not p and q.tobytes() == p.tobytes()
        assert frame.from_frame(q) is q and frame.scale_rows(c) is c
        assert frame.trace(p) == float(np.trace(p))
        assert frame.norm_zy(c) == frame.norm_yy(c) == float(np.linalg.norm(c, "fro"))
        assert system.g_core is system.h_core.mat
        assert frame.ones.tobytes() == np.ones(n).tobytes()
        assert frame.total(p) == float(p.sum())


@given(data=st.data(), n=st.integers(1, 64), transposed=st.booleans())
def test_diagonal_product_is_the_gemm(data, n, transposed):
    # a matrix F held by its cyclic band of half-width h, 2h < n, built
    # directly and not through the size rule: from h = 0 to past n / 4, where
    # the wrapped rows read most of X, some of the band's diagonals zero.  The
    # product is F X and <F, W> is vdot(F, W), each within the rounding of
    # two sums of at most 2h + 1 and n terms, also on a transposed view of X;
    # the dense form, F - sigma 1 and the in-place update are those of the
    # dense matrices bit for bit, and the Dense form's four operations are
    # numpy's own
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = data.draw(st.integers(0, (n - 1) // 2))
    f = np.zeros((n, n))
    i = np.arange(n)
    for k in range(-h, h + 1):
        if data.draw(st.booleans()) or abs(k) == h:
            f[i, (i + k) % n] = rng.normal(size=n)
    d = matcore.Diagonals(f, h)
    x = rng.normal(size=(n, n))
    if transposed:
        x = x.T
    eps = np.finfo(float).eps
    bound = (2 * h + 1 + n) * eps * (np.abs(f) @ np.abs(x))
    assert (np.abs(d @ x - f @ x) <= bound).all()
    assert np.asarray(d).tobytes() == f.tobytes()
    size = np.vdot(np.abs(f), np.abs(x))
    assert abs(d.dot(x) - np.vdot(f, x)) <= (2 * h + 1 + n) * eps * size
    sigma, scale = rng.normal(size=2)
    shifted = f.copy()
    shifted.flat[:: n + 1] -= sigma
    dense = matcore.Dense(f)
    for op in (d, dense):
        assert np.asarray(op.shifted(sigma)).tobytes() == shifted.tobytes()
        for c in (scale, -1.0):
            out = x.copy()
            op.add_to(out, c)
            assert out.tobytes() == (x + c * f).tobytes()
    assert np.asarray(d).tobytes() == f.tobytes()  # the shift took a copy
    assert (dense @ x).tobytes() == (f @ x).tobytes()
    assert dense.dot(x) == np.vdot(f, x)


@given(n=st.integers(1, 400), h=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_operator_holds_a_band_the_rule_admits(n, h, seed):
    # a cyclic band of half-width h (a random matrix when 2h + 1 >= n) is held
    # by its band exactly when n >= 5 (2h + 1) + 100, and by that band
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(n, n))
    if 2 * h + 1 < n:
        distance = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        f[np.minimum(distance, n - distance) > h] = 0.0
    op = matcore.operator(f)
    if n >= matcore.BAND_CROSSOVER * (2 * h + 1) + 100:
        assert isinstance(op, matcore.Diagonals) and op.h == h
    else:
        assert isinstance(op, matcore.Dense) and op.m is f


def _around(e):
    # values of every magnitude around 2^e, the binade edges and the
    # non-finite values included
    return st.one_of(
        st.builds(lambda m, k: math.ldexp(m, e + k), st.floats(-1.0, 1.0), st.integers(-60, 130)),
        st.builds(lambda k, sign: sign * np.nextafter(math.ldexp(1.0, e + k), 0.0),
                  st.integers(-60, 130), st.sampled_from([1.0, -1.0])),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


@given(data=st.data(), floor=st.one_of(st.just(0.0), st.floats(1e-300, 1e200)))
def test_flush_zeroes_below_the_floor_and_keeps_large_entries(data, floor):
    # every entry after is 0 or at least the floor in magnitude, and moves by
    # at most 2 floor or one unit in its last place; entries past 2^108
    # floor, NaN and infinities keep their bits, and a zero floor changes no
    # bit, signed zeros included
    e = math.frexp(floor)[1] if floor else -1000
    x = np.array(data.draw(st.lists(_around(e), min_size=1, max_size=40)))
    y = x.copy()
    solvers._flush_tail(y, floor)
    if not floor:
        assert y.tobytes() == x.tobytes()
        return
    finite = np.isfinite(x)
    assert np.array_equal(np.isnan(y), np.isnan(x))
    assert (y[np.isinf(x)] == x[np.isinf(x)]).all()
    mag = np.abs(y[finite])
    assert ((mag == 0.0) | (mag >= floor)).all()
    moved = np.abs(y[finite] - x[finite])
    assert (moved <= np.maximum(2.0 * floor, np.spacing(np.abs(x[finite])))).all()
    large = np.abs(x) >= 2.0**108 * floor
    assert y[large].tobytes() == x[large].tobytes()


#: Density gap allowed between the exact states and the pencil formula, in
#: units of n eps N ||S||_2, fixed before the comparison is run; 4000 random
#: draws of the strategy below gave at most 3.3 against scipy's solver.
PENCIL_GAP = 8.0


def pencil_state(system, beta, ensemble, norm, mu_guess=None):
    """The exact state as the pencil of (H_core, S) gives it, written out:
    P = N (S V) f (S V)^T, and the canonical mu from find_mu_for_occupation
    on that pencil's levels and weights ||S v_k||^2 (Tr[H] / Tr[S] at
    beta = 0).  The pencil comes from scipy's generalized solver; for S = 1
    from numpy alone, V from eigh(H) and S V laid out as (V^T S)^T."""
    s = system.s.mat
    if np.array_equal(s, np.eye(system.dim)):
        values, v = np.linalg.eigh(symmetrize(system.h_core.mat))
        w = (v.T @ s).T
    else:
        values, v = scipy.linalg.eigh(system.h_core.mat, s)
        w = s @ v
    if isinstance(ensemble, GrandCanonical):
        mu = ensemble.mu
    elif beta == 0.0:
        mu = float(np.trace(system.h_core.mat)) / float(np.trace(s))
    else:
        mu = find_mu_for_occupation(values, np.einsum("ik,ik->k", w, w), beta,
                                    ensemble.n_electrons, norm, guess=mu_guess).mu
    if beta == 0.0:
        return 0.5 * norm * s, mu
    with np.errstate(over="ignore"):
        occ = norm * fermi(beta * (values - mu))
    return HermitianMatrix((w * occ) @ w.T).mat, mu


@given(data=st.data(), system=systems(), log_beta=st.floats(-1.0, 1.0))
def test_exact_states_are_the_pencil_formula(data, system, log_beta):
    # every exact state of a linear model comes from the frame levels of
    # G_core; it is the pencil's state to rounding, and bit for bit when no
    # frame change rounds (S = 1) or no level is read (beta = 0)
    ensemble = data.draw(ensembles(system))
    beta = 0.0 if data.draw(st.integers(0, 9)) == 0 else 10.0 ** log_beta
    model = HamiltonianModel(system)
    s = system.s.mat
    states = []  # (density or None, mu, reference density, reference mu)
    if isinstance(ensemble, GrandCanonical):
        p_ref, _ = pencil_state(system, beta, ensemble, 1.0)
        norm = 1.0
        states.append((exact_grand_fd(system, ensemble.mu, beta).mat, ensemble.mu,
                       p_ref, ensemble.mu))
        res = scf_fixed_point(model, ensemble, beta)
        states.append((res.density.mat, res.mu, p_ref, ensemble.mu))
    else:
        ne = ensemble.n_electrons
        norm = canonical_normalization(ne, s)
        guess = data.draw(st.floats(-1.0, 1.0))
        p_ref, mu_ref = pencil_state(system, beta, ensemble, norm)
        p_warm, mu_warm = pencil_state(system, beta, ensemble, norm, guess)
        p, mu = exact_canonical_fd(system, ne, beta)
        states.append((p.mat, mu, p_ref, mu_ref))
        states.append((None, scf_mu_trace(model, ensemble, [beta])[0][0], None, mu_ref))
        f, mu, _, _ = frame_scf(model, ensemble, beta, mu_guess=guess)
        states.append((models._density(system, f, beta, norm).mat, mu, p_warm, mu_warm))
    exact = beta == 0.0 or np.array_equal(s, np.eye(system.dim))
    bound = PENCIL_GAP * system.dim * np.finfo(float).eps * norm * np.linalg.norm(s, 2)
    for p, mu, p_ref, mu_ref in states:
        if exact:
            assert mu == mu_ref
            assert p is None or np.array_equal(p, p_ref)
        else:
            assert abs(mu - mu_ref) <= 1e-12
            assert p is None or np.abs(p - p_ref).max() <= bound


def fro(a):
    return float(np.linalg.norm(a, "fro"))


@given(data=st.data(), system=systems(max_dim=8),
       scheme=st.sampled_from(["kraus1", "kraus2", "rk4"]), coupling=st.floats(0.05, 1.0),
       n_steps=st.integers(2, 4), db=st.floats(0.01, 0.3))
def test_recorded_commutators_are_the_s_frame_formulas(data, system, scheme, coupling,
                                                       n_steps, db):
    # cool() takes both norms in the frame as weighted sums; recompute them
    # literally from the S-frame P = Y Q Y^T and H = Y G Y^T of each step,
    # with G read off the kernel's operator F (G - mu for grand runs).  The
    # gap is measured against the size of the products each commutator
    # differences, the scale of its rounding: where the commutator itself is
    # at that scale, no two routes agree to a plain relative 1e-12.
    ensemble = data.draw(ensembles(system))
    n = system.dim
    operators, states = [], []
    flow = solvers._flow

    def spy(q, f, *args, mu=None, **kwargs):
        g = np.array(f)
        if mu is not None:
            g.flat[:: n + 1] += mu
        operators.append(g)
        states.append(q.copy())
        return flow(q, f, *args, mu=mu, **kwargs)

    with mock.patch.object(solvers, "_flow", spy):
        traj = cool(HamiltonianModel(system, coupling_u=coupling), ensemble,
                    SolverConfig(scheme, n_steps * db, db))
    _, y, _ = explicit_frame(system.s)
    identity = np.array_equal(system.s.mat, np.eye(n))
    hs = [g if identity else y @ g @ y.T for g in operators]
    # the record of step k is taken from Q_k, the state step k + 1 starts
    # from; the last one's density is kept
    ps = [q if identity else y @ q @ y.T for q in states[1:]] + [traj.final_density.mat]
    si = np.linalg.inv(system.s.mat)
    diag = traj.diagnostics
    # the first step runs on H_core, of which Q(0) = (N/2) 1 and Q(db) are functions
    assert diag.commutator_norm[1] == diag.h_refresh_defect[1] == 0.0
    for k in range(2, n_steps + 1):
        a, b = si @ ps[k - 1], si @ hs[k - 1]
        comm = fro(a @ b - b @ a)
        assert abs(diag.commutator_norm[k] - comm) <= RTOL * fro(a) * fro(b)
        h, rate = hs[k - 2], (hs[k - 1] - hs[k - 2]) / db
        defect = fro(h @ rate - rate @ h)
        scale = fro(h) * (fro(h) + fro(hs[k - 1])) / db  # that of the rate's rounding
        assert abs(diag.h_refresh_defect[k] - defect) <= RTOL * scale


@given(data=st.data(), dim=st.integers(1, 10), s_min=st.floats(0.05, 1.0),
       scheme=st.sampled_from(["kraus1", "kraus2", "rk4"]), coupling=st.sampled_from([0.0, 0.1]),
       n_steps=st.integers(1, 4), db=st.floats(0.01, 0.1))
def test_recorded_spectrum_and_trace_are_those_of_p(data, dim, s_min, scheme, coupling,
                                                    n_steps, db):
    # cool() takes each record's smallest occupation from eigvalsh(Q) and its
    # trace from s . diag(Q); they are the smallest eigenvalue of S^-1 P and
    # Tr[P], with P = Y Q Y^T rebuilt from the state the next step starts
    # from (the final P is kept), and the final record's occupations are the
    # trajectory's.  The occupations are referred to the Cholesky factor of
    # S = L L^T, the eigenvalues of L^-1 P L^-T: two triangular solves each
    # round by n eps ||L^-1||^2 ||P|| <= n eps ||P|| / s_min, and two
    # products form P, hence the factor 4 / s_min.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = OverlapMatrix(random_spd(rng, dim, lo=s_min, hi=1.0))
    system = SystemSpec(HermitianMatrix(random_symmetric(rng, dim)), s)
    ensemble = data.draw(ensembles(system))
    states = []
    flow = solvers._flow

    def spy(q, *args, **kwargs):
        states.append(q.copy())
        return flow(q, *args, **kwargs)

    with mock.patch.object(solvers, "_flow", spy):
        traj = cool(HamiltonianModel(system, coupling_u=coupling), ensemble,
                    SolverConfig(scheme, n_steps * db, db))
    _, y, _ = explicit_frame(s)
    ps = ([traj.densities[0].mat] + [y @ q @ y.T for q in states[1:]]
          + [traj.final_density.mat])
    assert len(ps) == len(traj.betas) == n_steps + 1
    diag = traj.diagnostics
    eps = np.finfo(float).eps
    s_lo = float(np.linalg.eigvalsh(s.mat)[0])
    for k, p in enumerate(ps):
        tol = 4 * dim * eps * fro(p)
        occupations = cholesky_occupations(p, s.mat)
        assert abs(diag.min_eigenvalue[k] - occupations[0]) <= tol / s_lo
        assert abs(diag.trace[k] - np.trace(p)) <= tol
    canonical = isinstance(ensemble, Canonical)
    norm = canonical_normalization(ensemble.n_electrons, s.mat) if canonical else 1.0
    assert diag.min_eigenvalue[0] == 0.5 * norm  # every occupation of P(0) = (N/2) S
    # the loop ends on the final P
    assert np.abs(traj.final_occupations - occupations).max() <= tol / s_lo
    assert traj.final_occupations[0] == diag.min_eigenvalue[-1]


# --- exact symmetries ---------------------------------------------------------

#: Every (scheme, grand, coupling) that the symmetry laws run, each on S = 1
#: and on a random SPD S.
SYMMETRY_CASES = [(scheme, grand, coupling) for scheme in solvers.SCHEMES
                  for grand in (True, False) for coupling in (0.0, 0.3)]


def symmetry_systems(draw, grand):
    """One random H of dimension 1-6 with S = 1 and with a random SPD S, as a
    list of (system, ensemble): a grand mu in [-1, 1] or an Ne that fills
    0.2-0.8 of Tr[S]."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = HermitianMatrix(random_symmetric(rng, n))
    mu, fill = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 0.8))
    systems = []
    for s in (OverlapMatrix(np.eye(n)), OverlapMatrix(random_spd(rng, n))):
        ensemble = GrandCanonical(mu) if grand else Canonical(fill * float(np.trace(s.mat)))
        systems.append((SystemSpec(h, s), ensemble))
    return systems


def symmetry_runs(draw, scheme, grand):
    """:func:`symmetry_systems` as (system, ensemble, config), each run with
    1-8 steps of db in [0.01, 0.3]."""
    systems = symmetry_systems(draw, grand)
    db = draw(st.floats(0.01, 0.3))
    config = SolverConfig(scheme, draw(st.integers(1, 8)) * db, db)
    return [(system, ensemble, config) for system, ensemble in systems]


def transformed_model(system, coupling, ensemble, h, scale=1.0, shift=0.0):
    """The model on the core Hamiltonian ``h`` with the coupling times
    ``scale``, and the ensemble with a grand mu times ``scale`` plus ``shift``."""
    if isinstance(ensemble, GrandCanonical):
        ensemble = GrandCanonical(scale * ensemble.mu + shift)
    return HamiltonianModel(SystemSpec(HermitianMatrix(h), system.s), scale * coupling), ensemble


def transformed_cool(system, coupling, ensemble, config, h, scale=1.0, shift=0.0):
    """cool() on :func:`transformed_model`'s model and ensemble, with beta and
    db over ``scale``."""
    model, ensemble = transformed_model(system, coupling, ensemble, h, scale, shift)
    return cool(model, ensemble, SolverConfig(config.scheme, config.beta_final / scale,
                                              config.delta_beta / scale))


@pytest.mark.parametrize("scheme, grand, coupling", SYMMETRY_CASES)
@settings(max_examples=5)
@given(data=st.data(), k=st.integers(-4, 4))
def test_cool_is_invariant_under_scale(data, scheme, grand, coupling, k):
    # (H, u, mu, beta, db) -> (aH, au, a mu, beta/a, db/a) leaves every db B,
    # every congruence factor and every Q unchanged; with a = 2^k each
    # floating-point operation scales exactly, so the final P and its
    # occupations hold bit for bit, and the canonical mu = (beta mu) / beta
    # is a times the unscaled one
    a = 2.0 ** k
    for system, ensemble, config in symmetry_runs(data.draw, scheme, grand):
        traj = cool(HamiltonianModel(system, coupling), ensemble, config)
        scaled = transformed_cool(system, coupling, ensemble, config, a * system.h_core.mat,
                                  scale=a)
        assert scaled.final_density.mat.tobytes() == traj.final_density.mat.tobytes()
        assert scaled.final_occupations.tobytes() == traj.final_occupations.tobytes()
        if not grand:
            assert scaled.final_mu == a * traj.final_mu


@pytest.mark.parametrize("scheme, grand, coupling", SYMMETRY_CASES)
@settings(max_examples=5)
@given(data=st.data(), c=st.floats(-2.0, 2.0))
def test_cool_is_equivariant_under_shift(data, scheme, grand, coupling, c):
    # H -> H + cS, and mu -> mu + c for grand runs, takes G = Z^T H Z to
    # G + c 1, so F = G - sigma, every step and P are unchanged and the
    # canonical sigma and mu move by c, to the rounding of G + c 1
    for system, ensemble, config in symmetry_runs(data.draw, scheme, grand):
        traj = cool(HamiltonianModel(system, coupling), ensemble, config)
        shifted = transformed_cool(system, coupling, ensemble, config,
                                   system.h_core.mat + c * system.s.mat, shift=c)
        p = traj.final_density.mat
        assert np.abs(shifted.final_density.mat - p).max() <= SYMMETRY_RTOL * np.abs(p).max()
        norm = 1.0 if grand else canonical_normalization(ensemble.n_electrons, system.s.mat)
        gap = np.abs(shifted.final_occupations - traj.final_occupations).max()
        assert gap <= SYMMETRY_RTOL * norm
        if not grand:
            mu = traj.final_mu
            assert abs(shifted.final_mu - (mu + c)) <= SYMMETRY_RTOL * max(1.0, abs(mu), abs(c))


def relabeling(draw, n, coupling):
    """A permutation of n sites; one that maps even sites to even sites when
    ``coupling`` is nonzero, so that it keeps the model's J = diag(+1, -1, ...)."""
    if not coupling:
        return np.array(draw(st.permutations(range(n))), dtype=int)
    perm = np.arange(n)
    for parity in (0, 1):
        perm[parity::2] = draw(st.permutations(range(parity, n, 2)))
    return perm


@pytest.mark.parametrize("scheme, grand, coupling", SYMMETRY_CASES)
@settings(max_examples=5)
@given(data=st.data())
def test_cool_is_equivariant_under_relabel(data, scheme, grand, coupling):
    # (H, S) -> (Pi H Pi^T, Pi S Pi^T) gives P -> Pi P Pi^T, the same
    # occupations and the same canonical mu; the toy model's phi, an entry
    # sum, is invariant, and its J is kept by a parity-keeping Pi
    for system, ensemble, config in symmetry_runs(data.draw, scheme, grand):
        perm = relabeling(data.draw, system.dim, coupling)
        moved = SystemSpec(HermitianMatrix(system.h_core.mat[np.ix_(perm, perm)]),
                           OverlapMatrix(system.s.mat[np.ix_(perm, perm)]))
        traj = cool(HamiltonianModel(system, coupling), ensemble, config)
        relabeled = cool(HamiltonianModel(moved, coupling), ensemble, config)
        p = traj.final_density.mat
        gap = np.abs(relabeled.final_density.mat - p[np.ix_(perm, perm)]).max()
        assert gap <= SYMMETRY_RTOL * np.abs(p).max()
        norm = 1.0 if grand else canonical_normalization(ensemble.n_electrons, system.s.mat)
        gap = np.abs(relabeled.final_occupations - traj.final_occupations).max()
        assert gap <= SYMMETRY_RTOL * norm
        if not grand:
            mu = traj.final_mu
            assert abs(relabeled.final_mu - mu) <= SYMMETRY_RTOL * max(1.0, abs(mu))


#: The (grand, coupling) cases of the oracle's symmetry laws.
ORACLE_SYMMETRY_CASES = [(grand, coupling) for grand in (True, False) for coupling in (0.0, 0.3)]


@pytest.mark.parametrize("grand, coupling", ORACLE_SYMMETRY_CASES)
@settings(max_examples=5)
@given(data=st.data(), beta=st.floats(1.0, 5.0), k=st.integers(-4, 4))
def test_scf_fixed_point_is_invariant_under_scale(data, grand, coupling, beta, k):
    # (H, u, mu, beta) -> (aH, au, a mu, beta/a) with a = 2^k <= beta: every
    # evaluation scales exactly, and so does the mu bracket, whose margin
    # 10 / max(beta, 1) is 10 / beta on both sides when beta and beta/a are
    # at least 1.  The SCF takes the same steps: P, its occupations and the
    # iteration count hold bit for bit, and mu is a times the unscaled one
    a = 2.0 ** min(k, math.floor(math.log2(beta)))
    for system, ensemble in symmetry_systems(data.draw, grand):
        try:
            res = scf_fixed_point(HamiltonianModel(system, coupling), ensemble, beta)
        except ScfConvergenceError:
            continue
        model, scaled_ensemble = transformed_model(system, coupling, ensemble,
                                                   a * system.h_core.mat, scale=a)
        scaled = scf_fixed_point(model, scaled_ensemble, beta / a)
        assert scaled.density.mat.tobytes() == res.density.mat.tobytes()
        assert scaled.occupations.tobytes() == res.occupations.tobytes()
        assert scaled.iterations == res.iterations
        assert scaled.mu == a * res.mu


def check_scf_shift(system, coupling, ensemble, beta, c):
    """The shift law over scf_fixed_point at ``beta``: H -> H + cS (and a grand
    mu -> mu + c) keeps P and the occupations and moves the canonical mu by
    c, within :data:`SYMMETRY_RTOL`.  An SCF that does not converge is skipped."""
    try:
        res = scf_fixed_point(HamiltonianModel(system, coupling), ensemble, beta)
    except ScfConvergenceError:
        return
    model, shifted_ensemble = transformed_model(system, coupling, ensemble,
                                                system.h_core.mat + c * system.s.mat, shift=c)
    shifted = scf_fixed_point(model, shifted_ensemble, beta)
    p = res.density.mat
    assert np.abs(shifted.density.mat - p).max() <= SYMMETRY_RTOL * np.abs(p).max()
    grand = isinstance(ensemble, GrandCanonical)
    norm = 1.0 if grand else canonical_normalization(ensemble.n_electrons, system.s.mat)
    assert np.abs(shifted.occupations - res.occupations).max() <= SYMMETRY_RTOL * norm
    if not grand:
        assert abs(shifted.mu - (res.mu + c)) <= SYMMETRY_RTOL * max(1.0, abs(res.mu), abs(c))


@pytest.mark.parametrize("grand, coupling", ORACLE_SYMMETRY_CASES)
@settings(max_examples=5)
@given(data=st.data(), beta=st.floats(0.1, 5.0), c=st.floats(-2.0, 2.0))
def test_scf_fixed_point_is_equivariant_under_shift(data, grand, coupling, beta, c):
    # G -> G + c 1 in the frame: F(Q) = C diag(N f) C^T and every SCF step
    # are unchanged, to the rounding of G + c 1
    for system, ensemble in symmetry_systems(data.draw, grand):
        check_scf_shift(system, coupling, ensemble, beta, c)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "at beta 40 the Fermi level of this canonical system lies in a gap where the "
    "occupation is flat in mu; the mu search stops on its electron-count tolerance "
    "with the shifted mu 2.6e-7 off mu + c, while P holds to 7e-16 (up to 3.1e-7 "
    "and 3.7e-15 on 40 random systems), until canonical cooling into the ground state "
    "lands"))
def test_scf_shift_law_holds_at_beta_40():
    rng = np.random.default_rng(3)
    n = int(rng.integers(2, 7))
    system = SystemSpec(HermitianMatrix(random_symmetric(rng, n)), OverlapMatrix(np.eye(n)))
    fill, c = float(rng.uniform(0.2, 0.8)), float(rng.uniform(-2.0, 2.0))
    check_scf_shift(system, 0.0, Canonical(fill * n), 40.0, c)


@pytest.mark.parametrize("coupling", [0.0, 0.3])
@settings(max_examples=5)
@given(data=st.data(), beta=st.floats(0.5, 5.0), k=st.integers(-4, 4))
def test_scf_mu_trace_is_invariant_under_scale(data, coupling, beta, k):
    # the oracle's walk over the record betas 0, beta/4, ..., beta: (H, u, betas)
    # -> (aH, au, betas/a) scales every mu by a.  Not bit for bit: below
    # beta = 1 the mu bracket does not scale
    a = 2.0 ** k
    betas = np.linspace(0.0, beta, 5)
    for system, ensemble in symmetry_systems(data.draw, False):
        try:
            mus, _ = scf_mu_trace(HamiltonianModel(system, coupling), ensemble, betas)
        except ScfConvergenceError:
            continue
        model, _ = transformed_model(system, coupling, ensemble, a * system.h_core.mat, scale=a)
        scaled, _ = scf_mu_trace(model, ensemble, betas / a)
        for mu, mu_scaled in zip(mus, scaled):
            assert abs(mu_scaled - a * mu) <= SYMMETRY_RTOL * a * max(1.0, abs(mu))


# --- input matrices ------------------------------------------------------------

TINY = np.finfo(float).tiny
_SUBNORMAL = st.floats(-TINY, TINY, exclude_min=True, exclude_max=True)


@given(m=st.integers(1, 12).flatmap(lambda n: arrays(
           np.float64, (n, n), elements=st.one_of(st.floats(-1e3, 1e3), _SUBNORMAL))),
       symmetric=st.booleans())
# the largest subnormal, and the smallest normal float above tiny: halving
# before the sum rounded the first up to tiny and the second down to tiny
@example(m=np.array([[2.225073858507201e-308]]), symmetric=False)
@example(m=np.array([[2.225073858507202e-308]]), symmetric=False)
def test_hermitian_matrix_zeroes_exactly_the_subnormal_entries(m, symmetric):
    if symmetric:
        m = np.triu(m) + np.triu(m, 1).T
    ref = 0.5 * (m + m.T)
    out = HermitianMatrix(m).mat
    subnormal = (ref != 0.0) & (np.abs(ref) < TINY)
    assert (out[subnormal] == 0.0).all()
    assert out[~subnormal].tobytes() == ref[~subnormal].tobytes()  # -0.0 stays -0.0


# --- matrix files ------------------------------------------------------------

@given(m=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_write_read_round_trip_is_bit_exact(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("round_trip") / "m.mat"
    write_matrix(path, m, comment="generated")
    back = read_matrix(path)
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()  # bit for bit, so -0.0 stays -0.0


_TOKENS = st.sampled_from(["1", "-0", "2.5e-3", "nan", "-inf", "1e999", "x", "1,2",
                           "#", "0x10", "1_0", "", " ", "\t", "\r", "\x00", "\u00e9"])
_HEADERS = st.tuples(st.integers(-2, 4), st.sampled_from([-1, 0, 1, 2, 3, 10 ** 12])).map(
    lambda rc: f"{rc[0]} {rc[1]}")
_LINES = st.lists(_TOKENS, max_size=5).map(" ".join)
_MATRIX_TEXT = st.one_of(
    st.text(),
    st.tuples(_HEADERS, st.lists(_LINES, max_size=5)).map(
        lambda hl: "\n".join([hl[0], *hl[1]]) + "\n"),
)


@given(content=st.one_of(_MATRIX_TEXT.map(lambda t: t.encode("utf-8", "surrogatepass")),
                         st.binary()))
def test_read_matrix_raises_only_parse_errors(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("garbage") / "g.mat"
    path.write_bytes(content)
    try:
        m = read_matrix(path)
    except MatrixParseError:
        return
    assert m.ndim == 2 and np.isfinite(m).all()


# --- command line ------------------------------------------------------------

#: The (code, kind) pairs of the CLI's exit table, the one map the CLI prints from.
EXIT_KINDS = {(row.code, row.kind) for row in EXITS}

#: A value a user would pass for each numeric flag; the other kinds drawn are
#: NaN, the infinities, its negative, zero and 1e-300.  --beta 1 with
#: --dbeta 0.1 is ten steps.
_ORDINARY = {"--beta": "1", "--dbeta": "0.1", "--record-every": "3", "--mu": "0.5",
             "--nonlinear": "0.05", "--scf-tol": "1e-10", "--scf-max-iter": "50",
             "--positivity-tol": "1e-10", "--canonical": "3"}


def _values(flag):
    # the ordinary value about half of the time, so that calls get past the
    # argument checks into the solvers
    return st.one_of(st.just(_ORDINARY[flag]),
                     st.sampled_from(["nan", "inf", "-inf", "-" + _ORDINARY[flag], "0",
                                      "1e-300", _ORDINARY[flag]]))


def _optional(flag):
    return st.one_of(st.none(), _values(flag))


#: The --out name under a call's output directory: in a missing directory
#: one time in four.
_OUT_NAMES = st.sampled_from(["x.csv", "x.csv", "x.csv", "missing/x.csv"])


def listed_outputs(argv):
    """The files README lists for a call that exits 0: the spectra CSV and
    its ``.meta``, and for ``run`` the ``.diag.csv``, and the ``.mu.csv``
    when canonical; the side files drop only a final ``.csv`` from --out."""
    out = argv[argv.index("--out") + 1]
    base = out[: -len(".csv")] if out.endswith(".csv") else out
    names = [out, base + ".meta"]
    if argv[0] == "run":
        names.append(base + ".diag.csv")
        if "--canonical" in argv:
            names.append(base + ".mu.csv")
    return {Path(name) for name in names}


def as_number(text):
    """``text`` as a float, or None when it does not parse as one."""
    try:
        return float(text)
    except ValueError:
        return None


def run_cli(argv, outdir, warns=None):
    """Run ``main(argv)`` in process and check how it ended; any exception or
    warning that escapes ``main`` fails the test, but for warnings in whose
    message the regex ``warns`` is found, such as the one load_system emits
    for an asymmetric matrix file.

    A nonzero exit of ``main`` prints exactly one ``fermicool: error[kind]:``
    line whose (code, kind) is a row of :data:`~fermicool.cli.EXITS`.
    argparse's own rejections, a ``SystemExit(2)`` after its usage text, are
    told apart.  An exit 2 leaves ``outdir`` empty, and so does an --out
    under a missing directory, which main ends in an io error (exit 3).  An
    exit 0 writes exactly the files README lists (:func:`listed_outputs`),
    every CSV cell below the header finite or ``n/a``, every
    ``exact_eigenvalue`` cell, an exact occupation, non-negative, and every
    ``.meta`` value that parses as a number finite.  Returns the exit code
    and the stderr text.
    """
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
            by_argparse = False
        except SystemExit as exc:  # argparse rejects the value
            code, by_argparse = exc.code, True
    assert [str(w.message) for w in caught
            if warns is None or not re.search(warns, str(w.message))] == []
    err = err.getvalue()
    if by_argparse:
        assert code == 2 and err.startswith("usage: ")
    elif code:
        line = re.fullmatch(r"fermicool: error\[([a-z-]+)\]: [^\n]*\n", err)
        assert line and (code, line[1]) in EXIT_KINDS, (code, err)
    else:
        assert err == ""
    missing = not Path(argv[argv.index("--out") + 1]).parent.is_dir()
    if missing and not by_argparse:
        assert code == 3 and "error[io]" in err, (code, err)
    if code == 2 or missing:
        assert list(outdir.iterdir()) == []
    if code == 0:
        assert set(outdir.iterdir()) == listed_outputs(argv)
        for path in listed_outputs(argv):
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".csv":
                header, *rows = list(csv.reader(io.StringIO(text)))
                numbers = [as_number(cell) for row in rows for cell in row if cell != "n/a"]
                assert None not in numbers
                if "exact_eigenvalue" in header:
                    column = header.index("exact_eigenvalue")
                    assert all(float(row[column]) >= 0.0 for row in rows), path
            else:
                numbers = [as_number(line.partition(": ")[2]) for line in text.splitlines()]
                numbers = [x for x in numbers if x is not None]
            assert all(map(math.isfinite, numbers)), path
    return code, err


@given(command=st.sampled_from(["run", "oracle", "convergence"]),
       beta=_values("--beta"), dbeta=_values("--dbeta"),
       canonical=_optional("--canonical"), mu=_optional("--mu"),
       nonlinear=_optional("--nonlinear"), scf_tol=_optional("--scf-tol"),
       scf_max_iter=_optional("--scf-max-iter"), record_every=_optional("--record-every"),
       positivity_tol=_optional("--positivity-tol"), out=_OUT_NAMES)
# every command once with ordinary values, whose exit 0 the draws reach rarely
@example(command="run", beta="1", dbeta="0.1", canonical="3", mu=None, nonlinear="0.05",
         scf_tol=None, scf_max_iter=None, record_every=None, positivity_tol=None, out="x.csv")
@example(command="oracle", beta="1", dbeta="0.1", canonical=None, mu="0.5", nonlinear=None,
         scf_tol=None, scf_max_iter=None, record_every=None, positivity_tol=None, out="x.csv")
@example(command="convergence", beta="1", dbeta="0.1", canonical=None, mu=None,
         nonlinear=None, scf_tol=None, scf_max_iter=None, record_every=None,
         positivity_tol=None, out="x.csv")
# a name that differs from x.csv only before a second dot keeps its own side files
@example(command="run", beta="1", dbeta="0.1", canonical="3", mu=None, nonlinear=None,
         scf_tol=None, scf_max_iter=None, record_every=None, positivity_tol=None,
         out="x.5.csv")
def test_cli_on_malformed_arguments(tmp_path_factory, command, beta, dbeta, canonical, mu,
                                    nonlinear, scf_tol, scf_max_iter, record_every,
                                    positivity_tol, out):
    # a valid call integrates at most 200 steps
    b, db = float(beta), float(dbeta)
    assume(not (math.isfinite(b) and b > 0 and db > 0 and b / db > 200))
    argv = [command, "--huckel", "6", "0.569", "0.066", "--beta", beta]
    argv += ["--grand"] if canonical is None else ["--canonical", canonical]
    for flag, value in (("--mu", mu), ("--nonlinear", nonlinear), ("--scf-tol", scf_tol),
                        ("--scf-max-iter", scf_max_iter)):
        if value is not None:
            argv += [flag, value]
    if command == "run":
        argv += ["--scheme", "kraus2", "--dbeta", dbeta]
        for flag, value in (("--record-every", record_every),
                            ("--positivity-tol", positivity_tol)):
            if value is not None:
                argv += [flag, value]
    elif command == "convergence":
        argv += ["--scheme", "kraus1", "--dbeta-list", dbeta, repr(db / 2), repr(db / 4)]
    outdir = tmp_path_factory.mktemp("cli")
    run_cli([*argv, "--out", str(outdir / out)], outdir)


SAMPLE_S = DATA_DIR / "sample_overlap.mat"

#: The overlap files the matrix-text property pairs with H: the sample
#: overlap, a random SPD matrix of the drawn size, the identity scaled to
#: 1e308 (whose trace passes the largest float from size 2 on) and to 1e-300,
#: and a 2 x 2 overlap of condition number about 1e16 that is no scaled
#: identity.
NEAR_SINGULAR_S = np.array([[1.0, 0.9999999999999999], [0.9999999999999999, 1.0]])
_OVERLAPS = st.one_of(
    st.none(), st.just("sample"), st.just("near-singular"),
    st.tuples(st.just("spd"), st.integers(1, 4), st.integers(0, 2 ** 32 - 1)),
    st.tuples(st.sampled_from([1e308, 1e-300]), st.integers(1, 4)),
)

#: H as arbitrary text, or as a (scale, seed, form) for a well-formed matrix
#: with uniform entries in [-scale, scale]: symmetric of the overlap's size
#: (3 with no overlap), asymmetric of that size, or symmetric of a size one
#: larger, which no overlap file matches
_H = st.one_of(_MATRIX_TEXT,
               st.tuples(st.sampled_from([1.0, 1e308]), st.integers(0, 2 ** 32 - 1),
                         st.sampled_from(["symmetric", "symmetric", "asymmetric", "larger"])))


def _overlap_file(path, overlap):
    """The path and size of the overlap file that ``overlap`` draws."""
    if overlap == "sample":
        return SAMPLE_S, read_matrix(SAMPLE_S).shape[0]
    if overlap == "near-singular":
        write_matrix(path, NEAR_SINGULAR_S)
        return path, 2
    kind, n, *seed = overlap
    write_matrix(path, random_spd(np.random.default_rng(seed[0]), n) if kind == "spd"
                 else kind * np.eye(n))
    return path, n


@given(h=_H, overlap=_OVERLAPS,
       command=st.sampled_from([["oracle", "--grand"], ["oracle", "--canonical", "1"],
                                ["run", "--grand", "--dbeta", "0.1"],
                                ["run", "--canonical", "1", "--dbeta", "0.1"]]),
       out=_OUT_NAMES)
# each well-formed kind of input once, whatever the draws reach; seed 13
# draws entries of opposite sign whose difference passes the largest float
@example(h=(1.0, 1, "asymmetric"), overlap="sample",
         command=["run", "--canonical", "1", "--dbeta", "0.1"], out="x.csv")
@example(h=(1e308, 13, "asymmetric"), overlap=None, command=["oracle", "--grand"], out="x.csv")
@example(h=(1.0, 1, "symmetric"), overlap="near-singular",
         command=["run", "--grand", "--dbeta", "0.1"], out="x.csv")
@example(h=(1.0, 1, "symmetric"), overlap="near-singular",
         command=["oracle", "--canonical", "1"], out="x.csv")
@example(h=(1.0, 1, "larger"), overlap="sample", command=["oracle", "--grand"], out="x.csv")
# two middle levels whose sum passes the largest float (--mu auto halves each
# first), and a top level past it, 1.7e308 + 1.7e308, under finite middle ones
@example(h="2 2\n1.5e308 0\n0 1.6e308\n", overlap=None, command=["oracle", "--grand"],
         out="x.csv")
@example(h="3 3\n1.7e308 1.7e308 0\n1.7e308 1.7e308 0\n0 0 0\n", overlap=None,
         command=["oracle", "--grand"], out="x.csv")
def test_cli_on_arbitrary_matrix_text(tmp_path_factory, h, overlap, command, out):
    inputs, outdir = tmp_path_factory.mktemp("cli_files"), tmp_path_factory.mktemp("cli_out")
    path, files, n = inputs / "h.mat", [], 3
    if overlap is not None:
        s_path, n = _overlap_file(inputs / "s.mat", overlap)
        files = [str(s_path)]
    warns = None
    if isinstance(h, str):
        path.write_text(h, encoding="utf-8", errors="surrogatepass")
    else:
        scale, seed, form = h
        size = n + 1 if form == "larger" else n
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, (size, size))
        write_matrix(path, scale * (a if form == "asymmetric" else 0.5 * (a + a.T)))
        if form == "asymmetric" and size > 1:
            warns = r": asymmetry \S+ exceeds 1e-08; matrix symmetrized$"
    code, err = run_cli([command[0], "--files", str(path), *files, *command[1:], "--beta", "1",
                         "--out", str(outdir / out)], outdir, warns)
    try:
        h_mat = read_matrix(path)
    except MatrixParseError:
        # an --out under a missing directory ends the call before H is read
        assert out.startswith("missing/") or (code == 3 and "error[parse]" in err)
    else:
        # a pencil level past the largest float has no Fermi-Dirac state
        assert code != 0 or levels_are_finite(h_mat, read_matrix(files[0]) if files else None)


def levels_are_finite(h, s):
    """Whether G = Z^T H Z, with H symmetrized and the explicit frame of S
    (H itself when S is None), and every eigenvalue of G are finite."""
    with np.errstate(all="ignore"):
        g = 0.5 * h + 0.5 * h.T
        if s is not None:
            z = explicit_frame(s)[2]
            g = z.T @ g @ z
        return bool(np.isfinite(g).all() and np.isfinite(np.linalg.eigvalsh(g)).all())
