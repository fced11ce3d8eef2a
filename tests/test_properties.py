"""Property tests of the congruence kernel over generated systems.

The reference below is the S-frame integrator written out literally: every
step multiplies by S^-1, rebuilds H S^-1 - mu, and treats the grand and the
canonical ensembles with separate formulas.  ``cool`` integrates in the
Loewdin frame with one shared kernel, so agreement with this reference
guards the frame change and the grand-as-canonical reduction.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from fermicool import (  # noqa: E402
    Canonical,
    GrandCanonical,
    HamiltonianModel,
    HermitianMatrix,
    OverlapMatrix,
    SolverConfig,
    SystemSpec,
    canonical_normalization,
    cool,
    effective_hamiltonian,
    step_kraus1,
    step_kraus2,
    step_rk4,
)
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
    out, ops = step(p, system.h_core.mat, system.s, mu, db)
    a = ops.propagator if ops.propagator is not None else np.eye(n) + ops.generator
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
