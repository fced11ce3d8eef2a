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
chemical potential follows from d(beta mu)/dbeta = sigma.  One kernel,
:func:`_flow`, takes a whole step of every scheme, the four RK4 stages
included, and returns with it the step's quadrature of sigma (Euler for
kraus1, sigma + (db/2) sigma' for kraus2, the RK4 weights over the four
stage scalars for rk4), which :func:`cool` adds to beta mu before it sets
mu = (beta mu) / beta.  Grand canonical flows are the same flow with sigma
frozen at mu, N = 1 and sigma' = 0, so the kernel serves both ensembles.

:func:`cool` integrates in the canonical-orthogonalization frame of the
overlap's eigenpairs S = U diag(s) U^T: with Y = U s^1/2 and Z = Y^-T it
carries Q = Z^T P Z against G = Z^T H Z.  Because Y Y^T = S the flow keeps
its form with S^-1 replaced by the identity, a congruence of P is a
congruence of Q, and the electron count Tr[P] = Tr[diag(s) Q] has a diagonal
weight, so the step loop holds no product with an S-derived matrix.  The
public single steps :func:`step_kraus1` and :func:`step_kraus2` call the same
kernel in the S frame, with H S^-1 - mu and P S^-1 in place of G - mu and Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTraceError, DimensionMismatchError, SolverAbortError
from .matcore import HermitianMatrix, OverlapMatrix, symmetrize
from .models import (
    Canonical,
    Ensemble,
    HamiltonianModel,
    canonical_normalization,
    infinite_temperature_mu,
)

SCHEMES = ("kraus1", "kraus2", "rk4")

#: |Tr[X + X^T]| below this is a degenerate canonical constraint.
TRACE_DEGENERACY_TOL = 1e-14

#: The step loop's floor: entries of the state below TAIL_FLOOR * N/2 and of a
#: congruence factor below TAIL_FLOOR are zeroed before they feed a product.
#: No product in the step multiplies more than three floored factors, and
#: TAIL_FLOOR**3 = 1e-240 keeps such a product some 60 orders of magnitude
#: above the smallest normal float, so no gemm reads or makes a subnormal;
#: zeroing moves each eigenvalue by at most n * TAIL_FLOOR * N/2
#: (docs/second_order_scheme.md, "Underflow in the step loop").
TAIL_FLOOR = 1e-80

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
    """Recorded cooling history.

    ``betas``, ``mu_trace`` and ``diagnostics`` hold one entry per record;
    ``densities`` holds only the initial and the final density, P(0) and
    P(beta_final).
    """

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


def _flush_tail(x, floor, out=None):
    """Zero, in place, the entries of ``x`` below ``floor`` in magnitude.

    Returns |x|, written to ``out`` when given (a temporary the caller no
    longer needs); the masked pass runs only when some entry lies below the
    floor.
    """
    mag = np.abs(x, out=out)
    if mag.min() < floor:
        np.putmask(x, mag < floor, 0.0)
    return mag


def _rate(p, f, norm, mu=None, w=None):
    """dP/dbeta = B P + P B^T and sigma, in X form, for :func:`_flow`'s frame operands."""
    # B P = -(F - sigma) X / 2 with X symmetric, so
    # dP/dbeta = -(F X + (F X)^T) / 2 + sigma X; in the frame M P = Q Q^T
    # runs as one symmetric rank-k product, and X is exactly symmetric
    x = p @ p.T
    x *= -1.0 / norm
    x += p
    fx = f @ x
    out = fx + fx.T
    out *= -0.5
    if mu is not None:
        return out, mu
    diag_x, diag_fx = x.diagonal(), fx.diagonal()
    den = float(diag_x.sum() if w is None else w @ diag_x)
    _check_trace(den)
    sigma = float(diag_fx.sum() if w is None else w @ diag_fx) / den
    x *= sigma
    out += x
    return out, sigma


def _flow(p, f, norm, delta_beta, scheme, mu=None, w=None, t=None):
    """The kernel: one step of dP/dbeta = B P + P B^T and its increment of beta mu.

    B = (F M / N - F) / 2 for the symmetric state ``p``, its occupation
    operator M = P t and the Hamiltonian operator ``f``: in the frame ``t`` is
    None, M = Q and F = G; in the S frame, which only the congruence schemes
    take, t = S^-1, M = P S^-1 and F = H S^-1.  Grand canonical runs pass
    ``mu`` with ``f`` already shifted by it and N = 1.  Canonical runs
    (``mu`` None) subtract sigma = Tr[W F X] / Tr[W X], X = P - M P / N,
    whose trace weight W = diag(w) is given by the vector ``w``, the overlap
    eigenvalues in the frame, or None (the identity); W P is a row scaling
    and every weighted trace an O(n) or O(n^2) sum.

    Returns (out, dz, A), ``out`` unsymmetrized (exactly symmetric for
    "rk4") and dz the step's increment
    of beta mu: A P A^T with A = 1 + db B and dz = db sigma for "kraus1";
    A P A^T with A = 1 + db B + (db^2 / 2)(B^2 + B') and
    dz = db (sigma + db sigma' / 2) for "kraus2"; the classic RK4 update over
    :func:`_rate`, dz = db/6 (s1 + 2 s2 + 2 s3 + s4) over the stage scalars
    and A None for "rk4".  Entries of A below :data:`TAIL_FLOOR` and of an
    RK4 stage state below TAIL_FLOOR * N/2 are zeroed before they enter a
    product; zeroing entries of A keeps the step a congruence.
    """
    if scheme == "rk4":
        # one accumulator and one stage buffer, which also carries each
        # weighted stage rate into the sum once the rate is computed
        acc, total = _rate(p, f, norm, mu, w)
        k, stage = acc, np.empty_like(p)
        floor = 0.5 * norm * TAIL_FLOOR
        # a stage entry is one rounded sum p_ij + t, which is 0 or at least
        # 2^-54 |p_ij|: while no entry of p, zeros included, lies below
        # 2^54 floor, no stage entry can fall below the floor
        flush = np.abs(p).min() < 2.0**54 * floor
        for c, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            np.multiply(k, c * delta_beta, out=stage)
            stage += p
            if flush:
                _flush_tail(stage, floor)
            k, sigma = _rate(stage, f, norm, mu, w)
            acc += np.multiply(k, weight, out=stage)
            total += weight * sigma
        acc *= delta_beta / 6.0
        acc += p
        return acc, (delta_beta / 6.0) * total, None
    n = p.shape[0]
    m = p if t is None else p @ t
    fm = f @ m
    sigma, sdot = mu, 0.0
    if mu is None:
        wp = p if w is None else w[:, None] * p
        den = float(np.trace(wp) - np.vdot(m, wp) / norm)
        _check_trace(den)
        sigma = float(np.vdot(f, wp) - np.vdot(fm, wp) / norm) / den
        f = f.copy()
        f.flat[:: n + 1] -= sigma
        fm = fm - sigma * m
    b = 0.5 * (fm / norm - f)
    if scheme == "kraus1":
        a = delta_beta * b
        a.flat[:: n + 1] += 1.0
        _flush_tail(a, TAIL_FLOOR, out=b)
        return (a @ p) @ a.T, delta_beta * sigma, a
    bp = b @ p
    pd = bp + bp.T
    fmd = f @ (pd if t is None else pd @ t)
    if mu is None:
        # d sigma/dbeta = Tr[W (F - sigma) Xdot] / Tr[W X],
        # Xdot = Pdot - (Mdot P + M Pdot) / N
        wpd = pd if w is None else w[:, None] * pd
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
    _flush_tail(a, TAIL_FLOOR, out=b)
    return (a @ p) @ a.T, delta_beta * (sigma + 0.5 * delta_beta * sdot), a


def _check_trace(den):
    # den = Tr[W X]; the canonical scalar divides by it
    if abs(2.0 * den) < TRACE_DEGENERACY_TOL:
        raise DegenerateTraceError(
            f"Tr[X + X^T] = {2.0 * den:.3e} is degenerate; the state is fully "
            f"occupied or empty and the trace constraint cannot be enforced"
        )


def _frame_norm(c, weight):
    # the Frobenius norm of an S-frame matrix from its frame form c, where
    # weight_ij is what the frame change multiplies c_ij^2 by (None for S = 1)
    if weight is None:
        return float(np.linalg.norm(c, "fro"))
    return math.sqrt(float(np.vdot(c * c, weight)))


def _s_frame_step(scheme, p, h, s, mu, delta_beta, s_inv):
    """One grand canonical congruence step of P in the S frame: :func:`_flow`
    with F = H S^-1 - mu and t = S^-1.  Returns (P', A)."""
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    si = None if s_inv is None else np.asarray(s_inv, dtype=float)
    # every matrix given must be square and of one size
    dims = {d for m in (p, h, s, si) if m is not None for d in np.shape(m)}
    if len(dims) != 1:
        raise DimensionMismatchError(f"matrix dimensions differ: {sorted(dims)}")
    if si is None:  # S^-1 = Z Z^T from the overlap's frame, cached by an OverlapMatrix
        z = (s if isinstance(s, OverlapMatrix) else OverlapMatrix(s)).frame[2]
        si = z @ z.T
    f = h @ si
    f.flat[:: p.shape[0] + 1] -= mu
    out, _, a = _flow(p, f, 1.0, delta_beta, scheme, mu=mu, t=si)
    return symmetrize(out), a


def step_kraus1(p, h, s, mu, delta_beta, s_inv=None):
    """First-order positivity-preserving grand canonical step P' = A P A^T.

    A = 1 + K with K = -(delta_beta / 2)(H S^-1 - mu)(1 - P S^-1).  The
    update is a congruence, so positive semidefiniteness of P is preserved
    exactly.  ``s_inv``, when given, is used as S^-1; otherwise S^-1 = Z Z^T
    comes from the overlap's :attr:`~fermicool.matcore.OverlapMatrix.frame`.
    Returns the symmetrized P' and A.
    """
    return _s_frame_step("kraus1", p, h, s, mu, delta_beta, s_inv)


def step_kraus2(p, h, s, mu, delta_beta, s_inv=None):
    """Second-order positivity-preserving step P' = A P A^T.

    A = 1 + K (1 + K/2) + (delta_beta / 4)(H S^-1 - mu)(P K^T + K P) S^-1
    with the first-order K of :func:`step_kraus1`.  A single congruence by A
    reproduces the flow through O(delta_beta^2); see the module docstring and
    docs/second_order_scheme.md for the expansion.  ``s_inv`` is used as in
    :func:`step_kraus1`.  Returns the symmetrized P' and A.
    """
    return _s_frame_step("kraus2", p, h, s, mu, delta_beta, s_inv)


def cool(model: HamiltonianModel, ensemble: Ensemble, config: SolverConfig) -> Trajectory:
    """Integrate the cooling flow from beta = 0 to ``config.beta_final``.

    Grand canonical runs start from P(0) = S/2 with the ensemble's fixed mu.
    Canonical runs start from P(0) = (N/2) S with mu(0) = Tr[H]/Tr[S].  Each
    step is one :func:`_flow` call, which also returns the step's quadrature
    of the lagrange scalar at the scheme's order: db sigma (kraus1),
    db (sigma + db sigma' / 2) (kraus2) or db/6 (s1 + 2 s2 + 2 s3 + s4) over
    the RK4 stage scalars.  It is added to beta mu, and
    mu = (beta mu) / beta.

    The state is Q = Z^T P Z from Q(0) = (N/2) 1, stepped against
    G = Z^T H Z, where S = Y Y^T, Y = U s^1/2 and Z = Y^-T come from the
    overlap's eigenpairs (:attr:`~fermicool.models.SystemSpec.frame`);
    for S = 1 the frame is P itself.  The canonical trace weight is the
    vector s, so S Q is a row scaling.  G - mu is formed once for linear
    models.  Density-dependent models refresh G from Q at the start of every
    step and hold it across the step's stages.  The model is affine in P, so
    the refresh stays in the frame and costs O(n^2):
    G(Q) = G_core + u [(Q - N/2) + phi K] with K = Z^T J Z formed once per
    run and phi from (Y^T 1)^T Q (Y^T 1) and Tr[diag(s) Q]
    (:attr:`~fermicool.models.HamiltonianModel.frame_response`).
    P = Y Q Y^T, formed once for the final state, is the one S-frame matrix
    cool() forms.  After each congruence step Q is symmetrized (an RK4 step
    keeps it exactly symmetric), and after every step its
    entries below :data:`TAIL_FLOOR` * N/2 are zeroed, so that no product of
    the next step underflows; this moves each eigenvalue by less than
    n * TAIL_FLOOR * N/2.

    Recorded every ``config.record_every`` steps, at beta = 0 (from the exact
    initial P) and at the final step, as scalars: mu, the smallest
    eigenvalue of P, Tr[P], the commutator norm ||[S^-1 P, S^-1 H]||_F, and
    the Hamiltonian refresh defect ||[H, dH/dbeta]||_F of the step's refresh.
    Since Y^T Y = D = diag(s), P = Y Q Y^T has the spectrum of
    D^1/2 Q D^1/2 and the trace s . diag(Q), from which both are taken (from
    Q itself when S = 1).  Both norms are weighted sums over frame matrices,
    one product each (docs/second_order_scheme.md); until G is first
    refreshed Q is a function of G, so both read exactly 0 for linear models
    and at the first step.  At
    beta = 0 the smallest eigenvalue is (N/2) s_min, from the overlap's
    spectrum, so that record takes no matrix product or decomposition.  The
    positivity violations are the (beta, smallest eigenvalue) of the records
    whose smallest eigenvalue is below ``-config.positivity_tol``.  The
    trajectory keeps two densities, P(0) = (N/2) S and the final P, whatever
    the number of records.

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
        mu = infinite_temperature_mu(system.h_core, system.s)
        beta_mu = 0.0  # running integral of the lagrange scalar, equals beta * mu
        kernel_mu = None
    else:
        norm = 1.0
        mu = kernel_mu = float(ensemble.mu)

    # no frame change when S is exactly the identity
    w, y, _, g = system.frame
    frame = y is not None

    def kernel_operator(g_now):
        # the kernel's F: G, or G - mu for grand runs
        if canonical:
            return g_now
        f_now = g_now.copy()
        f_now.flat[:: n + 1] -= mu
        return f_now

    p0 = 0.5 * norm * s_mat
    q = np.eye(n) * (0.5 * norm)
    # G = Z^T H Z; the model's correction vanishes at P(0)
    f = kernel_operator(g)
    if not model.is_linear:
        # G(Q) = G_core + Z^T dH(Y (Q - N/2) Y^T) Z in O(n^2)
        refresh = model.frame_response.hamiltonian
        # the weights of _frame_norm for Z C Y^T and Y C Y^T
        comm_weight, defect_weight = ((np.outer(1.0 / w, w), np.outer(w, w)) if frame
                                      else (None, None))

    records = []

    def record(beta, eigmin, trace, comm_norm, refresh_defect):
        records.append((beta, mu, eigmin, trace, comm_norm, refresh_defect))

    # Q(0) = (N/2) 1 commutes with G, and P(0) = (N/2) S has the smallest
    # eigenvalue (N/2) s_min, so beta = 0 is recorded without a product
    first = HermitianMatrix(p0)
    record(0.0, 0.5 * norm * (float(w[0]) if frame else 1.0), float(np.trace(first.mat)),
           0.0, 0.0)
    del p0  # the loop holds Q alone and forms P only for the final state
    q_floor = 0.5 * norm * TAIL_FLOOR
    # the RK4 result is exactly symmetric: X = Q Q^T is one symmetric rank-k
    # product, the rate adds F X to its own transpose and every other stage
    # operation is elementwise; so only the congruence results are symmetrized
    rk4 = scheme == "rk4"
    # outer(s^1/2, s^1/2) is exactly symmetric, and so is the scaled state
    # D^1/2 Q D^1/2 whose spectrum is that of P
    if frame:
        root = np.sqrt(w)
        root_outer = np.outer(root, root)

    # non-finite values are detected and turned into SolverAbortError below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            beta_i = config.beta_final * i / n_steps
            beta_next = config.beta_final * (i + 1) / n_steps
            recording = (i + 1) % config.record_every == 0 or i + 1 == n_steps

            refreshed = not model.is_linear and i > 0
            comm_norm = refresh_defect = 0.0
            if refreshed:
                g_last, g = g, refresh(q, norm)
                f = kernel_operator(g)
                if recording:  # E = G_last diag(s) (G - G_last)
                    e = (g_last if w is None else g_last * w) @ (g - g_last)
                    refresh_defect = _frame_norm(e - e.T, defect_weight) / db

            # d(beta mu)/dbeta equals the scalar exactly; dz is the step's
            # quadrature of it at the scheme's order
            q_raw, dz, _ = _flow(q, f, norm, db, scheme, mu=kernel_mu, w=w)
            if canonical:
                beta_mu += dz
                mu = beta_mu / beta_next

            # the matrix that Q no longer needs takes the flush's |Q|
            if rk4:
                q, spare = q_raw, q
            else:
                q, spare = q_raw + q_raw.T, q_raw
                q *= 0.5
            # the flush's |Q| also serves the finiteness test: its largest
            # entry is NaN or inf exactly when some entry is
            mag = _flush_tail(q, q_floor, out=spare)
            if not (math.isfinite(mag.max()) and math.isfinite(mu)):
                raise SolverAbortError(beta_i)
            if recording:
                if refreshed:
                    qg = q @ g
                    comm_norm = _frame_norm(qg - qg.T, comm_weight)
                if frame:
                    eigmin = np.linalg.eigvalsh(q * root_outer)[0]
                    trace = w @ np.diagonal(q)
                else:
                    eigmin, trace = np.linalg.eigvalsh(q)[0], np.trace(q)
                record(beta_next, float(eigmin), float(trace), comm_norm, refresh_defect)
        last = HermitianMatrix(y @ q @ y.T if frame else q)

    betas, mus, mineig, trace, comm, refresh = zip(*records)
    return Trajectory(
        betas=np.array(betas),
        densities=[first, last],
        mu_trace=np.array(mus) if canonical else None,
        diagnostics=TrajectoryDiagnostics(
            min_eigenvalue=np.array(mineig),
            trace=np.array(trace),
            commutator_norm=np.array(comm),
            h_refresh_defect=np.array(refresh),
        ),
        scheme=scheme,
        delta_beta=db,
        beta_final=config.beta_final,
        positivity_violations=[(b, m) for b, m in zip(betas, mineig)
                               if m < -config.positivity_tol],
    )
