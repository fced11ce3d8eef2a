"""Property tests of the congruence kernel, the mu search, the matrix files,
the input matrices and the command line.

The first reference below is the S-frame integrator written out literally:
every step multiplies by S^-1, rebuilds H S^-1 - mu, and treats the grand and
the canonical ensembles with separate formulas.  ``cool`` integrates in the
Loewdin frame with one shared kernel, so agreement with this reference
guards the frame change and the grand-as-canonical reduction.

The second is the plain bisection for mu over the same bracket, against
which the safeguarded Newton search must agree on every failure.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402
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
    SolverConfig,
    SystemSpec,
    canonical_normalization,
    cool,
    effective_hamiltonian,
    find_mu_for_occupation,
    generalized_eigh,
    occupation,
    read_matrix,
    step_kraus1,
    step_kraus2,
    step_rk4,
    write_matrix,
)
from fermicool.cli import main  # noqa: E402
from conftest import random_spd, random_symmetric  # noqa: E402

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

            y = step_rk4(np.concatenate([p.ravel(), [mu, beta_i]]), rhs, db)
            p_raw, mu = y[: n * n].reshape(n, n), float(y[n * n])
        elif scheme == "rk4":
            p_raw = step_rk4(p, lambda q: ref_grand_rhs(q, h, si, mu), db)
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


def ref_occupation(eig, s, beta, mu, norm):
    w = ((s @ eig.vectors) ** 2).sum(axis=0)
    return norm * float(np.dot(w, expit(-beta * (eig.values - mu))))


def ref_bisect_mu(eig, s, beta, target, norm, tol=MU_TOL, max_iter=200):
    """The bisection search for mu, written out literally.  It evaluates the
    occupation with the library, so both searches see the same rounding at
    the bracket ends."""
    if not 0.0 < target < norm * float(np.trace(s)):
        raise InfeasibleEnsembleError("target outside (0, N Tr[S])")
    lo, hi = ref_bracket(eig.values, beta)
    if not occupation(eig, s, beta, lo, norm) <= target <= occupation(eig, s, beta, hi, norm):
        raise BracketError("bracket does not straddle the target")
    residual = np.inf
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        value = occupation(eig, s, beta, mid, norm)
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
    s = system.s.mat
    eig = generalized_eigh(system.h_core, system.s)
    lo, hi = ref_bracket(eig.values, beta)
    occ_lo = ref_occupation(eig, s, beta, lo, norm)
    occ_hi = ref_occupation(eig, s, beta, hi, norm)
    target = occ_lo + fill * (occ_hi - occ_lo)
    try:
        ref_bisect_mu(eig, s, beta, target, norm)
    except (InfeasibleEnsembleError, BracketError, MuConvergenceError) as exc:
        with pytest.raises(type(exc)):
            find_mu_for_occupation(eig, s, beta, target, norm)
        return
    res = find_mu_for_occupation(eig, s, beta, target, norm)
    assert lo <= res.mu <= hi
    assert res.residual < MU_TOL
    # the residual seen by an independent evaluation, up to its rounding
    assert abs(ref_occupation(eig, s, beta, res.mu, norm) - target) < MU_TOL + 1e-13 * occ_hi


@given(system=systems(), log_beta=st.floats(-3.0, 3.0), norm=st.floats(0.2, 1.9),
       fill=st.floats(-0.1, 1.1),
       where=st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf, -math.inf])))
def test_mu_search_from_any_guess(system, log_beta, norm, fill, where):
    # where in (0, 1) puts the guess inside the bracket, outside it beyond
    # the bracket ends; NaN and the infinities are passed as the guess itself
    beta = 10.0 ** log_beta
    s = system.s.mat
    eig = generalized_eigh(system.h_core, system.s)
    lo, hi = ref_bracket(eig.values, beta)
    occ_lo = ref_occupation(eig, s, beta, lo, norm)
    occ_hi = ref_occupation(eig, s, beta, hi, norm)
    target = occ_lo + fill * (occ_hi - occ_lo)
    guess = lo + where * (hi - lo) if math.isfinite(where) else where
    try:
        cold = find_mu_for_occupation(eig, s, beta, target, norm)
    except (InfeasibleEnsembleError, BracketError, MuConvergenceError) as exc:
        with pytest.raises(type(exc)):
            find_mu_for_occupation(eig, s, beta, target, norm, guess=guess)
        return
    res = find_mu_for_occupation(eig, s, beta, target, norm, guess=guess)
    assert lo <= res.mu <= hi
    assert res.residual < MU_TOL
    assert abs(ref_occupation(eig, s, beta, res.mu, norm) - target) < MU_TOL + 1e-13 * occ_hi
    # a guess near the root costs no more than starting from the midpoint,
    # except where the midpoint is itself the root (one evaluation)
    for near in (cold.mu - 1e-6, cold.mu + 1e-6):
        warm = find_mu_for_occupation(eig, s, beta, target, norm, guess=near)
        assert warm.residual < MU_TOL
        if lo < cold.mu - 1e-6 and cold.mu + 1e-6 < hi:
            # near a bracket end the Newton iterate toward the root can leave
            # the open bracket, and the search bisects the 1e-6 interval
            assert warm.iterations <= max(cold.iterations, 2)


# --- input matrices ------------------------------------------------------------

TINY = np.finfo(float).tiny
_SUBNORMAL = st.floats(-TINY, TINY, exclude_min=True, exclude_max=True)


@given(m=st.integers(1, 12).flatmap(lambda n: arrays(
           np.float64, (n, n), elements=st.one_of(st.floats(-1e3, 1e3), _SUBNORMAL))),
       symmetric=st.booleans())
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
