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
"""

import contextlib
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from scipy.special import expit

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, strategies as st  # noqa: E402
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
    effective_hamiltonian,
    exact_canonical_fd,
    exact_grand_fd,
    fermi,
    find_mu_for_occupation,
    read_matrix,
    scf_fixed_point,
    step_kraus1,
    step_kraus2,
    symmetrize,
    write_matrix,
)
from fermicool import models, solvers  # noqa: E402
from fermicool.cli import main  # noqa: E402
from fermicool.models import _fd_jacobian, _frame_state  # noqa: E402
from conftest import pencil_levels, random_spd, random_symmetric, search_occupation  # noqa: E402

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
        h = effective_hamiltonian(model, p, norm).mat
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
    _, y, z, _ = system.frame
    if y is None:  # S is the identity, and the frame is P itself
        y = z = np.eye(n)
    _, mu, eig = _frame_state(model, z.T @ p @ z, beta, ensemble, norm)
    jacobian = _fd_jacobian(model, eig, beta, mu, norm, isinstance(ensemble, Canonical))
    c = eig[1]
    j_dp = y @ c @ jacobian(c.T @ (z.T @ dp @ z) @ c) @ c.T @ y.T
    step = 1e-4

    def fd(sign):
        return ref_fd(system, effective_hamiltonian(model, p + sign * step * dp, norm).mat,
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
        h = effective_hamiltonian(model, p, norm)
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
            y = k * (v.T @ model.response(w @ x @ w.T) @ v)
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
    # evaluation; it takes the same steps as the S-frame loop, to rounding
    system, ensemble, norm = data.draw(affine_systems())
    beta = 0.0 if data.draw(st.integers(0, 9)) == 0 else 10.0 ** log_beta
    model = HamiltonianModel(system, coupling_u=coupling)
    start = mu_guess = None
    if warm:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        start = 0.5 * norm * system.s.mat + 0.05 * random_symmetric(rng, system.dim)
        mu_guess = data.draw(st.floats(-1.0, 1.0))
    try:
        p_ref, mu_ref, iterations = ref_scf(model, ensemble, beta, use_aitken, start, mu_guess)
    except ScfConvergenceError as exc:
        with pytest.raises(ScfConvergenceError) as err:
            scf_fixed_point(model, ensemble, beta, use_aitken=use_aitken, start=start,
                            mu_guess=mu_guess)
        assert err.value.iterations == exc.iterations
        return
    res = scf_fixed_point(model, ensemble, beta, use_aitken=use_aitken, start=start,
                          mu_guess=mu_guess)
    assert res.iterations == iterations
    scale = norm * np.linalg.norm(system.s.mat, 2)
    assert np.abs(res.density.mat - p_ref).max() <= 1e-12 * scale
    assert abs(res.mu - mu_ref) <= 1e-12


@given(data=st.data(), coupling=st.floats(-1.0, 1.0))
def test_frame_refresh_is_the_s_frame_hamiltonian(data, coupling):
    # the O(n^2) refresh G_core + u [(Q - N/2) + phi K] that cool() and the
    # SCF share, against the S-frame Hamiltonian of P = Y Q Y^T carried into
    # the frame by Z = Y^-T
    system, ensemble, norm = data.draw(affine_systems())
    model = HamiltonianModel(system, coupling_u=coupling)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _, y, z = system.s.frame
    q = random_symmetric(rng, system.dim)
    g = model.frame_response.hamiltonian(q, norm)
    ref = z.T @ effective_hamiltonian(model, y @ q @ y.T, norm).mat @ z
    assert np.abs(g - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1.0)


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
        states.append((None, models.exact_canonical_mu(system, ne, beta, guess), None, mu_warm))
        res = scf_fixed_point(model, ensemble, beta, mu_guess=guess)
        states.append((res.density.mat, res.mu, p_warm, mu_warm))
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
        g = f.copy()
        if mu is not None:
            g.flat[:: n + 1] += mu
        operators.append(g)
        states.append(q.copy())
        return flow(q, f, *args, mu=mu, **kwargs)

    with mock.patch.object(solvers, "_flow", spy):
        traj = cool(HamiltonianModel(system, coupling_u=coupling), ensemble,
                    SolverConfig(scheme, n_steps * db, db))
    _, y, _ = system.s.frame
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
    # cool() takes each record's smallest eigenvalue from D^1/2 Q D^1/2 and
    # its trace from s . diag(Q); both are those of P = Y Q Y^T, rebuilt
    # from the state the next step starts from (the final P is kept).  Two
    # products form P and each reading adds its own rounding, each at most
    # n eps ||P||, hence the factor 4.
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
    _, y, _ = s.frame
    ps = ([traj.densities[0].mat] + [y @ q @ y.T for q in states[1:]]
          + [traj.final_density.mat])
    assert len(ps) == len(traj.betas) == n_steps + 1
    diag = traj.diagnostics
    eps = np.finfo(float).eps
    for k, p in enumerate(ps):
        tol = 4 * dim * eps * fro(p)
        assert abs(diag.min_eigenvalue[k] - np.linalg.eigvalsh(p)[0]) <= tol
        assert abs(diag.trace[k] - np.trace(p)) <= tol


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

EXIT_CODES = {0, 2, 3, 4, 5, 6}

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


def run_cli(argv):
    """Exit code and stderr of an in-process CLI call; any exception or
    warning that escapes ``main`` fails the test."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert [str(w.message) for w in caught] == []
    return code, err.getvalue()


@given(command=st.sampled_from(["run", "oracle", "convergence"]),
       beta=_values("--beta"), dbeta=_values("--dbeta"),
       canonical=_optional("--canonical"), mu=_optional("--mu"),
       nonlinear=_optional("--nonlinear"), scf_tol=_optional("--scf-tol"),
       scf_max_iter=_optional("--scf-max-iter"), record_every=_optional("--record-every"),
       positivity_tol=_optional("--positivity-tol"))
def test_cli_on_malformed_arguments(tmp_path_factory, command, beta, dbeta, canonical, mu,
                                    nonlinear, scf_tol, scf_max_iter, record_every,
                                    positivity_tol):
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
    argv += ["--out", str(tmp_path_factory.mktemp("cli") / "x.csv")]
    code, err = run_cli(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in err


@given(text=_MATRIX_TEXT)
def test_cli_on_arbitrary_matrix_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cli_files") / "h.mat"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    code, err = run_cli(["oracle", "--files", str(path), "--grand", "--beta", "1",
                         "--out", str(path.with_suffix(".csv"))])
    try:
        read_matrix(path)
    except MatrixParseError:
        assert code == 3 and "error[parse]" in err
    else:
        assert code in EXIT_CODES
    assert "Traceback" not in err
