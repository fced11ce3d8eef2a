"""Cooling integrators for finite-temperature density matrices.

Every flow integrated here has the symmetrized generator form

    dP/dbeta = B P + P B^T,    B = -1/2 (H S^-1 - sigma)(1 - P S^-1 / N),

which makes congruence ("Kraus") stepping natural:

* first order:   P' = (1 + db B) P (1 + db B)^T
* second order:  P' = A P A^T with A = 1 + db B + (db^2 / 2)(B^2 + B'),

where B' is the total beta-derivative of B along the flow.  Both updates are
congruences and preserve positive semidefiniteness exactly, for any step
size; docs/second_order_scheme.md derives A and shows why a single
congruence is used.  Classic RK4 is provided as well; it has no congruence
structure, so the smallest eigenvalue is monitored at every recorded step.

Canonical flows use the trace-preserving scalar sigma = Tr[X S^-1 H] / Tr[X],
X = P (1 - S^-1 P / N), which makes d Tr[P] / dbeta = 0 identically.  The
chemical potential follows from d(beta mu)/dbeta = sigma: every scheme
accumulates beta mu from the scalars its kernel calls return (Euler for
kraus1, sigma + (db/2) sigma' for kraus2, the RK4 weights over the four
stage scalars for rk4), and mu = (beta mu) / beta.  Grand canonical flows are
the same flow with sigma frozen at mu, N = 1 and sigma' = 0, so one kernel,
:func:`_flow`, serves both ensembles.

:func:`cool` integrates in the symmetric-orthogonalization (Loewdin) frame
Q = S^-1/2 P S^-1/2, G = S^-1/2 H S^-1/2.  There the flow keeps its form
with S^-1 replaced by the identity, a congruence of P is a congruence of Q,
and Tr[P] = Tr[S Q], so the step loop holds no product with S^-1.  The
public single steps :func:`step_kraus1` and :func:`step_kraus2` call the same
kernel in the S frame, with H S^-1 - mu and P S^-1 in place of G - mu and Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateTraceError, DimensionMismatchError, SolverAbortError
from .matcore import HermitianMatrix, OverlapMatrix, symmetrize
from .models import (
    Canonical,
    Ensemble,
    HamiltonianModel,
    canonical_normalization,
    effective_hamiltonian,
)

SCHEMES = ("kraus1", "kraus2", "rk4")

#: |Tr[X + X^T]| below this is a degenerate canonical constraint.
TRACE_DEGENERACY_TOL = 1e-14

#: Largest step count a SolverConfig accepts: 100x the most that any test, demo
#: or benchmark takes, and about 8 minutes at the one-level per-step floor.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class SolverConfig:
    """Integration parameters.

    ``delta_beta`` is snapped to divide ``beta_final`` exactly
    (``n_steps = round(beta_final / delta_beta)``, at most :data:`MAX_STEPS`);
    the snapped value is recorded in the resulting trajectory.
    ``positivity_tol`` is the finite, non-negative amount by which the
    smallest recorded eigenvalue may fall below zero before the step is
    counted as a positivity violation.
    """

    scheme: str
    beta_final: float
    delta_beta: float
    record_every: int = 1
    positivity_tol: float = 1e-10

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not (math.isfinite(self.beta_final) and self.beta_final > 0):
            raise ValueError(f"beta_final must be finite and positive, got {self.beta_final}")
        if not self.delta_beta > 0:
            raise ValueError(f"delta_beta must be positive, got {self.delta_beta}")
        if self.delta_beta > self.beta_final:
            raise ValueError(
                f"delta_beta {self.delta_beta} exceeds beta_final {self.beta_final}"
            )
        # n_steps > MAX_STEPS exactly when this holds (MAX_STEPS is even)
        if self.beta_final / self.delta_beta > MAX_STEPS + 0.5:
            raise ValueError(f"delta_beta {self.delta_beta} needs over {MAX_STEPS} steps")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not (math.isfinite(self.positivity_tol) and self.positivity_tol >= 0):
            raise ValueError(
                f"positivity_tol must be finite and non-negative, got {self.positivity_tol}"
            )

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.beta_final / self.delta_beta)))

    @property
    def snapped_delta_beta(self) -> float:
        return self.beta_final / self.n_steps


@dataclass
class TrajectoryDiagnostics:
    """Per-recorded-step health indicators, aligned with ``Trajectory.betas``."""

    min_eigenvalue: np.ndarray
    trace: np.ndarray
    commutator_norm: np.ndarray
    h_refresh_defect: np.ndarray


@dataclass
class Trajectory:
    """Recorded cooling history."""

    betas: np.ndarray
    densities: list
    mu_trace: np.ndarray | None
    diagnostics: TrajectoryDiagnostics
    scheme: str
    delta_beta: float
    beta_final: float
    positivity_violations: list = field(default_factory=list)

    @property
    def final_density(self) -> HermitianMatrix:
        return self.densities[-1]

    @property
    def final_mu(self):
        return None if self.mu_trace is None else float(self.mu_trace[-1])


def _flow(p, f, m, norm, delta_beta, scheme, mu=None, w=None, t=None):
    """The congruence kernel: one step, or the derivative, of dP/dbeta = B P + P B^T.

    B = (F M / N - F) / 2 for the symmetric state ``p``, occupation operator
    ``m`` and Hamiltonian operator ``f``: (Q, Q, G) in the Loewdin frame,
    (P, P S^-1, H S^-1) in the S frame.  Grand canonical runs pass ``mu``
    with ``f`` already shifted by it and N = 1.  Canonical runs (``mu`` None)
    subtract sigma = Tr[W F X] / Tr[W X], X = P - M P / N, whose trace
    weight ``w`` is S in the frame and None (the identity) when S = 1;
    every weighted trace is an O(n^2) inner product.  ``t`` maps a state
    rate to the M rate: None in the frame, S^-1 in the S frame.

    Returns (out, sigma, sigma', A): ``out`` is A P A^T (unsymmetrized)
    for "kraus1"/"kraus2" and dP/dbeta for "rk4", where A is None.  The flow
    derivative sigma' is computed for kraus2 only and is 0 otherwise.
    """
    n = p.shape[0]
    fm = f @ m
    sigma, sdot = mu, 0.0
    if mu is None:
        wp = p if w is None else w @ p
        den = float(np.trace(wp) - np.vdot(m, wp) / norm)
        if abs(2.0 * den) < TRACE_DEGENERACY_TOL:
            raise DegenerateTraceError(
                f"Tr[X + X^T] = {2.0 * den:.3e} is degenerate; the state is fully "
                f"occupied or empty and the trace constraint cannot be enforced"
            )
        sigma = float(np.vdot(f, wp) - np.vdot(fm, wp) / norm) / den
        f = f.copy()
        f.flat[:: n + 1] -= sigma
        fm = fm - sigma * m
    b = 0.5 * (fm / norm - f)
    if scheme == "kraus1":
        a = delta_beta * b
        a.flat[:: n + 1] += 1.0
        return (a @ p) @ a.T, sigma, sdot, a
    bp = b @ p
    pd = bp + bp.T
    if scheme == "rk4":
        return pd, sigma, sdot, None
    fmd = f @ (pd if t is None else pd @ t)
    if mu is None:
        # d sigma/dbeta = Tr[W (F - sigma) Xdot] / Tr[W X],
        # Xdot = Pdot - (Mdot P + M Pdot) / N
        wpd = pd if w is None else w @ pd
        sdot = float(np.vdot(f, wpd) - (np.vdot(fmd, wp) + np.vdot(fm, wpd)) / norm) / den
    # A = 1 + d B + (d^2/2)(B^2 + B') with
    # B' = (sigma'/2)(1 - M/N) + (F - sigma) Mdot / (2N), built in place so
    # that few n x n temporaries are alive at once
    a = b @ b
    a += fmd / (2.0 * norm)
    if mu is None:
        a -= (0.5 * sdot / norm) * m
        a.flat[:: n + 1] += 0.5 * sdot
    a *= 0.5 * delta_beta**2
    a += delta_beta * b
    a.flat[:: n + 1] += 1.0
    return (a @ p) @ a.T, sigma, sdot, a


def _check_dims(*mats):
    # every matrix given (None skipped) must be square and of one size
    dims = {d for m in mats if m is not None for d in np.shape(m)}
    if len(dims) != 1:
        raise DimensionMismatchError(f"matrix dimensions differ: {sorted(dims)}")


def _s_frame_step(scheme, p, h, s, mu, delta_beta, s_inv):
    """One grand canonical congruence step of P in the S frame: :func:`_flow`
    with F = H S^-1 - mu, M = P S^-1 and t = S^-1.  Returns (P', A)."""
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    si = None if s_inv is None else np.asarray(s_inv, dtype=float)
    _check_dims(p, h, s, si)
    if si is None:  # an OverlapMatrix reuses its cached inverse
        si = (s if isinstance(s, OverlapMatrix) else OverlapMatrix(s)).inverse
    f = h @ si
    f.flat[:: p.shape[0] + 1] -= mu
    out, _, _, a = _flow(p, f, p @ si, 1.0, delta_beta, scheme, mu=mu, t=si)
    return symmetrize(out), a


def step_kraus1(p, h, s, mu, delta_beta, s_inv=None):
    """First-order positivity-preserving grand canonical step P' = A P A^T.

    A = 1 + K with K = -(delta_beta / 2)(H S^-1 - mu)(1 - P S^-1).  The
    update is a congruence, so positive semidefiniteness of P is preserved
    exactly.  ``s_inv``, when given, is used as S^-1.  Returns the
    symmetrized P' and A.
    """
    return _s_frame_step("kraus1", p, h, s, mu, delta_beta, s_inv)


def step_kraus2(p, h, s, mu, delta_beta, s_inv=None):
    """Second-order positivity-preserving step P' = A P A^T.

    A = 1 + K (1 + K/2) + (delta_beta / 4)(H S^-1 - mu)(P K^T + K P) S^-1
    with the first-order K of :func:`step_kraus1`.  A single congruence by A
    reproduces the flow through O(delta_beta^2); see the module docstring and
    docs/second_order_scheme.md for the expansion.  ``s_inv``, when given, is
    used as S^-1.  Returns the symmetrized P' and A.
    """
    return _s_frame_step("kraus2", p, h, s, mu, delta_beta, s_inv)


def step_rk4(y, rhs: Callable, delta_beta):
    """Classic four-stage Runge-Kutta update of an arbitrary ndarray state."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * delta_beta * k1)
    k3 = rhs(y + 0.5 * delta_beta * k2)
    k4 = rhs(y + delta_beta * k3)
    return y + (delta_beta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def commutator_defect(h, h_next, delta_beta) -> float:
    """Frobenius norm of [H, (H_next - H) / delta_beta].

    A scalar watch for how strongly a density-dependent Hamiltonian fails to
    commute with its own rate of change; identically zero for linear models.
    """
    h = np.asarray(h, dtype=float)
    h_next = np.asarray(h_next, dtype=float)
    _check_dims(h, h_next)
    if not delta_beta > 0:
        raise ValueError(f"delta_beta must be positive, got {delta_beta}")
    rate = (h_next - h) / delta_beta
    comm = h @ rate - rate @ h
    return float(np.linalg.norm(comm, "fro"))


def cool(model: HamiltonianModel, ensemble: Ensemble, config: SolverConfig) -> Trajectory:
    """Integrate the cooling flow from beta = 0 to ``config.beta_final``.

    Grand canonical runs start from P(0) = S/2 with the ensemble's fixed mu.
    Canonical runs start from P(0) = (N/2) S with mu(0) = Tr[H]/Tr[S].  Each
    step adds its quadrature of the lagrange scalar to beta mu, at the
    scheme's order: db sigma (kraus1), db (sigma + db sigma' / 2) (kraus2) or
    db/6 (s1 + 2 s2 + 2 s3 + s4) over the RK4 stage scalars; then
    mu = (beta mu) / beta.

    The state is Q = S^-1/2 P S^-1/2 from Q(0) = (N/2) 1, stepped against
    G = S^-1/2 H S^-1/2 (for S = 1 the frame is P itself); G - mu is formed
    once for linear models.  Density-dependent models rebuild H from
    P = S^1/2 Q S^1/2 at the start of every step and hold it across the
    step's stages.

    Recorded every ``config.record_every`` steps, at beta = 0 (from the exact
    initial P) and at the final step: the density, mu, the smallest
    eigenvalue of P, Tr[P], the commutator norm ||[S^-1 P, S^-1 H]||_F, and
    the Hamiltonian refresh defect ||[H, dH/dbeta]||_F of the step's refresh.

    Raises
    ------
    SolverAbortError
        If the state stops being finite; carries the last good beta.
    InfeasibleEnsembleError, DegenerateTraceError
        Propagated from the canonical constraint machinery.
    """
    system = model.system
    s_mat = system.s.mat
    n = system.dim
    n_steps = config.n_steps
    db = config.snapped_delta_beta
    canonical = isinstance(ensemble, Canonical)
    scheme = config.scheme

    if canonical:
        norm = canonical_normalization(ensemble.n_electrons, s_mat)
        mu = float(np.trace(system.h_core.mat)) / float(np.trace(s_mat))
        beta_mu = 0.0  # running integral of the lagrange scalar, equals beta * mu
        kernel_mu = None
    else:
        norm = 1.0
        mu = kernel_mu = float(ensemble.mu)

    # no frame change when S is exactly the identity
    frame = np.count_nonzero(s_mat) != n or not (np.diagonal(s_mat) == 1.0).all()
    w, x, y = (s_mat, system.s.inv_sqrt, system.s.sqrt) if frame else (None, None, None)

    def frame_operator(h):
        # G = S^-1/2 H S^-1/2 and the kernel's F: G, or G - mu for grand runs
        if frame:
            h = x @ h @ x
            h = 0.5 * (h + h.T)
        if canonical:
            return h, h
        f_now = h.copy()
        f_now.flat[:: n + 1] -= mu
        return h, f_now

    p = 0.5 * norm * s_mat  # P = S^1/2 Q S^1/2 when it is needed, else None
    q = np.eye(n) * (0.5 * norm)
    h_eff = effective_hamiltonian(model, p, norm).mat
    g, f = frame_operator(h_eff)

    betas, densities, mus = [], [], []
    d_mineig, d_trace, d_comm, d_refresh = [], [], [], []
    pos_viol = []

    def record(beta, p_now, refresh_defect):
        density = HermitianMatrix(p_now)
        eigmin = float(np.linalg.eigvalsh(density.mat)[0])
        qg = q @ g
        comm = qg - qg.T  # [Q, G] = S^1/2 [S^-1 P, S^-1 H] S^-1/2
        betas.append(beta)
        densities.append(density)
        mus.append(mu)
        d_mineig.append(eigmin)
        d_trace.append(float(np.trace(density.mat)))
        d_comm.append(float(np.linalg.norm(x @ comm @ y if frame else comm, "fro")))
        d_refresh.append(refresh_defect)
        if eigmin < -config.positivity_tol:
            pos_viol.append((beta, eigmin))

    record(0.0, p, 0.0)

    sigmas = []  # the stage scalars of the current RK4 step

    def rk4_rhs(q_stage):
        dq, sigma, _, _ = _flow(q_stage, f, q_stage, norm, 0.0, "rk4", mu=kernel_mu, w=w)
        sigmas.append(sigma)
        return dq

    # non-finite values are detected and turned into SolverAbortError below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            beta_i = config.beta_final * i / n_steps
            beta_next = config.beta_final * (i + 1) / n_steps
            recording = (i + 1) % config.record_every == 0 or i + 1 == n_steps

            refresh_defect = 0.0
            if not model.is_linear and i > 0:
                h_new = effective_hamiltonian(model, p, norm).mat
                if recording:
                    refresh_defect = commutator_defect(h_eff, h_new, db)
                h_eff = h_new
                g, f = frame_operator(h_eff)

            # d(beta mu)/dbeta equals the scalar exactly; each scheme
            # integrates it at its own order
            if scheme == "rk4":
                sigmas.clear()
                q_raw = step_rk4(q, rk4_rhs, db)
                s1, s2, s3, s4 = sigmas
                dz = (db / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            else:
                q_raw, sigma, sdot, _ = _flow(q, f, q, norm, db, scheme, mu=kernel_mu, w=w)
                dz = db * (sigma + 0.5 * db * sdot)
            if canonical:
                beta_mu += dz
                mu = beta_mu / beta_next

            if not np.isfinite(q_raw).all() or not np.isfinite(mu):
                raise SolverAbortError(beta_i)
            q = 0.5 * (q_raw + q_raw.T)
            p = None  # a linear model needs P only at recording steps
            if recording or not model.is_linear:
                p = y @ q @ y if frame else q  # P = S^1/2 Q S^1/2
            if recording:
                record(beta_next, p, refresh_defect)

    diagnostics = TrajectoryDiagnostics(
        min_eigenvalue=np.array(d_mineig),
        trace=np.array(d_trace),
        commutator_norm=np.array(d_comm),
        h_refresh_defect=np.array(d_refresh),
    )
    return Trajectory(
        betas=np.array(betas),
        densities=densities,
        mu_trace=np.array(mus) if canonical else None,
        diagnostics=diagnostics,
        scheme=scheme,
        delta_beta=db,
        beta_final=config.beta_final,
        positivity_violations=pos_viol,
    )
