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
structure, so the smallest occupation is monitored at every recorded step.

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
from .matcore import Dense, HermitianMatrix, OverlapMatrix, operator, symmetrize
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

#: The step loop's floor: entries of the state below about TAIL_FLOOR * N/2 and
#: of a congruence factor below about TAIL_FLOOR are zeroed (:func:`_flush_tail`)
#: before they feed a product, and no other entry is left below the floor.
#: No product in the step multiplies more than three floored factors, and
#: TAIL_FLOOR**3 = 1e-240 keeps such a product some 60 orders of magnitude
#: above the smallest normal float, so no gemm reads or makes a subnormal;
#: a flush of the state moves each eigenvalue by less than
#: 2^55 n * TAIL_FLOOR * N/2 (docs/second_order_scheme.md, "Underflow in the
#: step loop").
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
    smallest recorded occupation, the smallest eigenvalue of S^-1 P, may
    fall below zero before the step is counted as a positivity violation.
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
    """Per-recorded-step health indicators, aligned with ``Trajectory.betas``.

    ``min_eigenvalue`` holds the smallest occupation, the smallest
    eigenvalue of S^-1 P, which is N/2 at beta = 0.
    """

    min_eigenvalue: np.ndarray
    trace: np.ndarray
    commutator_norm: np.ndarray
    h_refresh_defect: np.ndarray


@dataclass
class Trajectory:
    """Recorded cooling history.

    ``betas``, ``mu_trace`` and ``diagnostics`` hold one entry per record;
    ``densities`` holds only the initial and the final density, P(0) and
    P(beta_final), and ``final_occupations`` the ascending eigenvalues of
    S^-1 P(beta_final) that the final record took.
    """

    betas: np.ndarray
    densities: list
    mu_trace: np.ndarray | None
    diagnostics: TrajectoryDiagnostics
    scheme: str
    delta_beta: float
    beta_final: float
    final_occupations: np.ndarray
    positivity_violations: list = field(default_factory=list)

    @property
    def final_density(self) -> HermitianMatrix:
        return self.densities[-1]

    @property
    def final_mu(self):
        return None if self.mu_trace is None else float(self.mu_trace[-1])


def _flush_tail(x, floor):
    """Zero, in place, the entries of ``x`` below about ``floor`` in magnitude.

    Two passes add and subtract c = 2^53 2^e, with 2^e in (floor, 2 floor]
    the power of two above the floor.  Entries in [-2^(e - 1), 2^e] become
    0, every entry after is 0 or at least 2^e in magnitude, and one above
    2^54 c keeps its bits; NaN and infinities pass.  A zero floor changes
    nothing (docs/second_order_scheme.md, "Underflow in the step loop").
    """
    if floor:
        big = 2.0 ** (math.frexp(floor)[1] + 53)
        x += big
        x -= big


def _rate(p, f, norm, mu=None, frame=None):
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
    den = frame.trace(x)
    _check_trace(den)
    sigma = frame.trace(fx) / den
    x *= sigma
    out += x
    return out, sigma


def _flow(p, f, norm, delta_beta, scheme, mu=None, frame=None, t=None):
    """The kernel: one step of dP/dbeta = B P + P B^T and its increment of beta mu.

    B = (F M / N - F) / 2 for the symmetric state ``p``, its occupation
    operator M = P t and the Hamiltonian operator ``f``, a kernel operator
    (:func:`~fermicool.matcore.operator`): in the frame ``t`` is
    None, M = Q and F = G; in the S frame, which only the congruence schemes
    take, t = S^-1, M = P S^-1 and F = H S^-1.  Grand canonical runs pass
    ``mu`` with ``f`` already shifted by it and N = 1.  Canonical runs
    (``mu`` None) subtract sigma = Tr[W F X] / Tr[W X], X = P - M P / N,
    whose trace weight W = diag(s) holds the overlap eigenvalues of the
    overlap's :class:`~fermicool.matcore.Frame` ``frame``, which takes W P as
    a row scaling and every weighted trace as an O(n) or O(n^2) sum; an
    :class:`~fermicool.matcore.IdentityFrame` takes them unweighted.

    Returns (out, dz, A), ``out`` unsymmetrized (exactly symmetric for
    "rk4") and dz the step's increment
    of beta mu: A P A^T with A = 1 + db B and dz = db sigma for "kraus1";
    A P A^T with A = 1 + db B + (db^2 / 2)(B^2 + B') and
    dz = db (sigma + db sigma' / 2) for "kraus2"; the classic RK4 update over
    :func:`_rate`, dz = db/6 (s1 + 2 s2 + 2 s3 + s4) over the stage scalars
    and A None for "rk4".  A and each RK4 stage state are flushed to
    :data:`TAIL_FLOOR` and TAIL_FLOOR * N/2 (:func:`_flush_tail`) before
    they enter a product; a flushed A keeps the step a congruence.
    """
    if scheme == "rk4":
        # one accumulator and one stage buffer, which also carries each
        # weighted stage rate into the sum once the rate is computed
        acc, total = _rate(p, f, norm, mu, frame)
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
            k = None  # the previous rate is in acc; it goes before the next one is made
            k, sigma = _rate(stage, f, norm, mu, frame)
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
        wp = frame.scale_rows(p)
        den = float(np.trace(wp) - np.vdot(m, wp) / norm)
        _check_trace(den)
        sigma = float(f.dot(wp) - np.vdot(fm, wp) / norm) / den
        f = f.shifted(sigma)
        fm -= sigma * m
    b = fm / norm  # B = (F M / N - F) / 2, in place
    f.add_to(b, -1.0)
    b *= 0.5
    if scheme == "kraus1":
        del fm, f  # F M and the shifted F go before the products
        b *= delta_beta  # B becomes A = 1 + db B in place
        b.flat[:: n + 1] += 1.0
        _flush_tail(b, TAIL_FLOOR)
        return (b @ p) @ b.T, delta_beta * sigma, b
    pd = b @ p
    # numpy buffers an operand that overlaps the output, so this is pd + pd.T exactly
    pd += pd.T
    if mu is None:
        # d sigma/dbeta = Tr[W (F - sigma) Xdot] / Tr[W X],
        # Xdot = Pdot - (Mdot P + M Pdot) / N; F M goes before the product
        wpd = frame.scale_rows(pd)
        f_wpd, fm_wpd = f.dot(wpd), np.vdot(fm, wpd)
        del wpd
    del fm
    fmd = f @ (pd if t is None else pd @ t)
    if mu is None:
        sdot = float(f_wpd - (np.vdot(fmd, wp) + fm_wpd) / norm) / den
        del wp
    del pd, f
    # A = 1 + d B + (d^2/2)(B^2 + B') with
    # B' = (sigma'/2)(1 - M/N) + (F - sigma) Mdot / (2N), built in place so
    # that few n x n temporaries are alive at once
    fmd /= 2.0 * norm
    a = b @ b
    a += fmd
    del fmd
    if mu is None:
        a -= (0.5 * sdot / norm) * m
        a.flat[:: n + 1] += 0.5 * sdot
    a *= 0.5 * delta_beta**2
    b *= delta_beta
    a += b
    a.flat[:: n + 1] += 1.0
    del b
    _flush_tail(a, TAIL_FLOOR)
    return (a @ p) @ a.T, delta_beta * (sigma + 0.5 * delta_beta * sdot), a


def _check_trace(den):
    # den = Tr[W X]; the canonical scalar divides by it
    if abs(2.0 * den) < TRACE_DEGENERACY_TOL:
        raise DegenerateTraceError(
            f"Tr[X + X^T] = {2.0 * den:.3e} is degenerate; the state is fully "
            f"occupied or empty and the trace constraint cannot be enforced"
        )


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
    if si is None:  # S^-1 from the overlap's frame: Z Z^T, or the identity for S = 1
        si = (s if isinstance(s, OverlapMatrix) else OverlapMatrix(s)).frame.inverse()
    out, _, a = _flow(p, operator(h @ si).shifted(mu), 1.0, delta_beta, scheme, mu=mu, t=si)
    return symmetrize(out), a


def step_kraus1(p, h, s, mu, delta_beta, s_inv=None):
    """First-order positivity-preserving grand canonical step P' = A P A^T.

    A = 1 + K with K = -(delta_beta / 2)(H S^-1 - mu)(1 - P S^-1).  The
    update is a congruence, so positive semidefiniteness of P is preserved
    exactly.  ``s_inv``, when given, is used as S^-1; otherwise S^-1 comes
    from the overlap's :attr:`~fermicool.matcore.OverlapMatrix.frame`
    (:meth:`~fermicool.matcore.Frame.inverse`: Z Z^T, or the identity for
    S = 1).
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
    overlap's eigenpairs, held by its :class:`~fermicool.matcore.Frame`
    (:attr:`~fermicool.matcore.OverlapMatrix.frame`), and G_core is the
    system's :attr:`~fermicool.models.SystemSpec.g_core`; for S = 1 the frame
    is an :class:`~fermicool.matcore.IdentityFrame`, Q is P itself and no Y
    or Z exists.  Every weighted operation below is the frame's, and the
    identity frame takes it unweighted.  The canonical trace weight is the
    vector s, so S Q is a row scaling.  F = G - mu (G if canonical) is
    formed once for linear models as a kernel operator
    (:func:`~fermicool.matcore.operator`), by its cyclic band if that is
    narrow for its size; a refreshed F is dense.
    Density-dependent models refresh G from Q at the start of every step
    and hold it across the step's stages.  The model is affine in P, so
    the refresh stays in the frame and costs O(n^2):
    G(Q) = G_core + u [(Q - N/2) + phi K] with K = Z^T J Z formed once per
    model and phi from (Y^T 1)^T Q (Y^T 1) and Tr[diag(s) Q]
    (:meth:`~fermicool.models.HamiltonianModel.frame_hamiltonian`).
    P = Y Q Y^T, formed once for the final state, is the one S-frame matrix
    cool() forms.  After each congruence step Q is symmetrized (an RK4 step
    keeps it exactly symmetric), and after every step its entries below
    about :data:`TAIL_FLOOR` * N/2 are zeroed (:func:`_flush_tail`), so that
    no product of the next step underflows; this moves each eigenvalue by
    less than 2^55 n * TAIL_FLOOR * N/2.  Q is finite when its smallest and
    largest entries are, which two reductions test.

    Recorded every ``config.record_every`` steps, at beta = 0 (from the exact
    initial P) and at the final step, as scalars: mu, the smallest
    occupation, Tr[P], the commutator norm ||[S^-1 P, S^-1 H]||_F, and
    the Hamiltonian refresh defect ||[H, dH/dbeta]||_F of the step's refresh.
    The occupations are the eigenvalues of S^-1 P = Z Q Y^T, which are
    those of Q, so a record takes one ``eigvalsh(Q)``; the final record's
    ascending array is the trajectory's ``final_occupations``.  The trace
    is s . diag(Q).  Both norms are weighted sums over frame matrices,
    one product each (docs/second_order_scheme.md); until G is first
    refreshed Q is a function of G, so both read exactly 0 for linear models
    and at the first step.  At beta = 0 every occupation is N/2, so that
    record takes no matrix product or decomposition.  The positivity
    violations are the (beta, smallest occupation) of the records whose
    smallest occupation is below ``-config.positivity_tol``.  The
    trajectory keeps two densities, P(0) = (N/2) S and the final P, whatever
    the number of records; both are formed after the loop, and a final
    P = Y Q Y^T that is not finite aborts the run as a Q that is not.

    The loop's working set is Q, F (and G apart from it on grand runs of a
    density-dependent model; F by its band is O(h n)), G_last only
    across a refresh, and at most five n x n step temporaries, seven in a
    canonical kraus2 step with S != 1, whose row scalings diag(s) P and
    diag(s) Pdot are arrays of their own.  Every elementwise update is made
    in place, and each temporary is dropped at its last use.

    Raises
    ------
    SolverAbortError
        If the state, its occupations or the final P = Y Q Y^T stop being
        finite; carries the beta the failing step started from.
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

    # an IdentityFrame when S is exactly the identity: no frame change
    frame = system.s.frame
    g = system.g_core

    def kernel_operator(g_now, form=Dense):
        # the kernel's F in the given form: G, or G - mu for grand runs
        f_now = form(g_now)
        return f_now if canonical else f_now.shifted(mu)

    q = np.eye(n) * (0.5 * norm)
    # G = Z^T H Z; the model's correction vanishes at P(0).  A linear run's F
    # is fixed, and held by its band if that is narrow; a refreshed F is dense
    f = kernel_operator(g, operator if model.is_linear else Dense)

    records = []

    def record(beta, eigmin, trace, comm_norm, refresh_defect):
        records.append([beta, mu, eigmin, trace, comm_norm, refresh_defect])

    # Q(0) = (N/2) 1 commutes with G and its every occupation is N/2, so
    # beta = 0 is recorded without a product; its trace is filled in once
    # P(0) is formed, after the loop
    record(0.0, 0.5 * norm, None, 0.0, 0.0)
    q_floor = 0.5 * norm * TAIL_FLOOR
    # the RK4 result is exactly symmetric: X = Q Q^T is one symmetric rank-k
    # product, the rate adds F X to its own transpose and every other stage
    # operation is elementwise; so only the congruence results are symmetrized
    rk4 = scheme == "rk4"

    # non-finite values are detected and turned into SolverAbortError below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            beta_i = config.beta_final * i / n_steps
            beta_next = config.beta_final * (i + 1) / n_steps
            recording = (i + 1) % config.record_every == 0 or i + 1 == n_steps

            refreshed = not model.is_linear and i > 0
            comm_norm = refresh_defect = 0.0
            if refreshed:  # G(Q) = G_core + Z^T dH(Y (Q - N/2) Y^T) Z in O(n^2)
                g_last, g = g, model.frame_hamiltonian(q, norm)
                f = kernel_operator(g)
                if recording:  # E = G_last diag(s) (G - G_last), (diag(s) G_last^T)^T on the left
                    e = frame.scale_rows(g_last.T).T @ (g - g_last)
                    e -= e.T  # exact: numpy buffers an operand that overlaps the output
                    refresh_defect = frame.norm_yy(e) / db
                    del e
                del g_last  # the old G is not held across the step

            # d(beta mu)/dbeta equals the scalar exactly; dz is the step's
            # quadrature of it at the scheme's order
            q_raw, dz, a = _flow(q, f, norm, db, scheme, mu=kernel_mu, frame=frame)
            del a  # the congruence factor is not kept
            if canonical:
                beta_mu += dz
                mu = beta_mu / beta_next

            if not rk4:
                q_raw += q_raw.T  # exact: numpy buffers an operand that overlaps the output
                q_raw *= 0.5
            _flush_tail(q_raw, q_floor)
            # the extremes are NaN or infinite exactly when some entry is
            if not (math.isfinite(q_raw.min()) and math.isfinite(q_raw.max())
                    and math.isfinite(mu)):
                raise SolverAbortError(beta_i)
            q = q_raw
            if recording:
                if refreshed:
                    qg = q @ g
                    qg -= qg.T  # exact: numpy buffers an operand that overlaps the output
                    comm_norm = frame.norm_zy(qg)
                    del qg
                occupations = np.linalg.eigvalsh(q)
                if not np.isfinite(occupations).all():  # past the largest float
                    raise SolverAbortError(beta_i)
                record(beta_next, float(occupations[0]), frame.trace(q), comm_norm,
                       refresh_defect)
        p = frame.from_frame(q)
        if not (math.isfinite(p.min()) and math.isfinite(p.max())):
            raise SolverAbortError(beta_i)
        last = HermitianMatrix(p)
    del p, q, f, g  # P(0) is formed once the loop's arrays are gone
    first = HermitianMatrix(0.5 * norm * s_mat)
    records[0][3] = float(np.trace(first.mat))

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
        final_occupations=occupations,
        positivity_violations=[(b, m) for b, m in zip(betas, mineig)
                               if m < -config.positivity_tol],
    )
