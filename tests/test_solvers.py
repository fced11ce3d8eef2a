import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from fermicool import (
    Canonical,
    DegenerateTraceError,
    DimensionMismatchError,
    GrandCanonical,
    HamiltonianModel,
    HermitianMatrix,
    OverlapMatrix,
    SolverAbortError,
    SolverConfig,
    SystemSpec,
    build_huckel,
    canonical_normalization,
    cool,
    default_chemical_potential,
    exact_canonical_fd,
    exact_grand_fd,
    occupation_spectrum,
    step_kraus1,
    step_kraus2,
)
from fermicool import solvers
from fermicool.matcore import Dense, Diagonals, operator, symmetrize
from fermicool.solvers import MAX_STEPS, _flow, _rate
from conftest import (cholesky_occupations, explicit_frame, random_spd, random_symmetric,
                      s_frame_hamiltonian)

EPS = np.finfo(float).eps


def scalar_system(level):
    return SystemSpec(HermitianMatrix([[level]]), OverlapMatrix([[1.0]]))


def cool_with_states(model, ensemble, config):
    """cool() and the frame states Q_0 .. Q_(n_steps - 1) that its steps start from."""
    states = []

    def spy(q, *args, **kwargs):
        states.append(q.copy())
        return _flow(q, *args, **kwargs)

    with mock.patch.object(solvers, "_flow", spy):
        traj = cool(model, ensemble, config)
    return traj, states


def logistic(p0, a, beta):
    return 1.0 / (1.0 + (1.0 - p0) / p0 * math.exp(a * beta))


def frame_operands(p, h, s, mu=None):
    """The kernel's operands in the frame of S = Y Y^T, Z = Y^-T:
    Q = Z^T P Z, F = Z^T H Z - mu, and the frame, which holds the trace
    weight s and Y."""
    system = SystemSpec(HermitianMatrix(h), OverlapMatrix(s))
    frame = system.s.frame
    f = system.g_core.copy()
    if mu is not None:
        f.flat[:: f.shape[0] + 1] -= mu
    return symmetrize(frame.to_frame(np.asarray(p, dtype=float))), f, frame


def s_frame_flow(p, h, s, mu=None, norm=1.0):
    """dP/dbeta, the scalar sigma and X = P - P S^-1 P / N from the kernel's
    rate, taken in the frame and brought back as Y _rate(Q, F, ...) Y^T.  A
    grand flow passes ``mu``; a canonical one leaves it None and passes N as
    ``norm``."""
    q, f, frame = frame_operands(p, h, s, mu)
    rhs, sigma = _rate(q, Dense(f), norm, mu, frame=frame)
    p = np.asarray(p, dtype=float)
    return frame.from_frame(rhs), sigma, p - (p @ np.linalg.inv(s) @ p) / norm


class TestSolverConfig:
    def test_rejects_zero_beta_final(self):
        with pytest.raises(ValueError):
            SolverConfig("rk4", beta_final=0.0, delta_beta=0.1)

    def test_rejects_step_beyond_target(self):
        with pytest.raises(ValueError):
            SolverConfig("rk4", beta_final=1.0, delta_beta=2.0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            SolverConfig("euler", beta_final=1.0, delta_beta=0.1)

    def test_snapping(self):
        cfg = SolverConfig("rk4", beta_final=1.0, delta_beta=0.03)
        assert cfg.n_steps == 33
        assert cfg.snapped_delta_beta == pytest.approx(1.0 / 33.0)
        assert cfg.n_steps * cfg.snapped_delta_beta == pytest.approx(1.0, abs=0)

    def test_single_step_allowed(self):
        cfg = SolverConfig("kraus1", beta_final=0.5, delta_beta=0.5)
        assert cfg.n_steps == 1

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_rejects_meaningless_positivity_tol(self, tol):
        # nan made every eigenvalue pass, a negative value flagged positive ones
        with pytest.raises(ValueError, match="positivity_tol"):
            SolverConfig("rk4", beta_final=1.0, delta_beta=0.1, positivity_tol=tol)

    def test_zero_positivity_tol_allowed(self):
        assert SolverConfig("rk4", 1.0, 0.1, positivity_tol=0.0).positivity_tol == 0.0

    @pytest.mark.parametrize("delta_beta", [1e-300, 5e-324, 1.0 / (MAX_STEPS + 1)])
    def test_rejects_more_than_max_steps(self, delta_beta):
        # 1e-300 asked for about 1e300 steps, a run that never ended
        with pytest.raises(ValueError, match="delta_beta"):
            SolverConfig("rk4", beta_final=1.0, delta_beta=delta_beta)

    def test_max_steps_allowed(self):
        assert SolverConfig("rk4", 1.0, 1.0 / MAX_STEPS).n_steps == MAX_STEPS


class TestGrandRhs:
    """The kernel's grand canonical derivative in the S frame."""

    def test_initial_value_closed_form(self, rng):
        h = random_symmetric(rng, 5)
        mu = 0.3
        out, _, _ = s_frame_flow(0.5 * np.eye(5), h, np.eye(5), mu)
        np.testing.assert_allclose(out, -(h - mu * np.eye(5)) / 4.0, atol=1e-14)

    def test_zero_density_annihilates(self, rng):
        h = random_symmetric(rng, 4)
        np.testing.assert_array_equal(s_frame_flow(np.zeros((4, 4)), h, np.eye(4), 0.1)[0],
                                      np.zeros((4, 4)))

    def test_full_density_annihilates(self, rng):
        h = random_symmetric(rng, 4)
        out, _, _ = s_frame_flow(np.eye(4), h, np.eye(4), 0.1)
        np.testing.assert_allclose(out, np.zeros((4, 4)), atol=1e-15)

    def test_output_symmetric(self, rng):
        p = random_symmetric(rng, 6)
        h = random_symmetric(rng, 6)
        s = random_spd(rng, 6)
        # the frame rate; Y R Y^T is symmetric only to rounding
        q, f, frame = frame_operands(p, h, s, -0.2)
        out, _ = _rate(q, Dense(f), 1.0, -0.2, frame=frame)
        assert np.abs(out - out.T).max() == 0.0

    def test_matches_exact_flow_derivative(self, rng):
        # centered difference of the exact state in beta, second order in h
        s = OverlapMatrix(random_spd(rng, 6))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)), s)
        mu, beta = 0.15, 0.9
        p = exact_grand_fd(system, mu, beta).mat
        rhs, _, _ = s_frame_flow(p, system.h_core.mat, s.mat, mu)
        errs = []
        for h in (1e-3, 5e-4):
            fd = (exact_grand_fd(system, mu, beta + h).mat
                  - exact_grand_fd(system, mu, beta - h).mat) / (2.0 * h)
            errs.append(np.abs(fd - rhs).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_vanishes_at_zero_temperature_projector(self):
        system = build_huckel(50, 0.569, 0.066)
        mu = default_chemical_potential(system)
        p = exact_grand_fd(system, mu, 1e4).mat
        out, _, _ = s_frame_flow(p, system.h_core.mat, system.s.mat, mu)
        assert np.abs(out).max() < 1e-10


class TestCanonicalRhs:
    """The kernel's canonical derivative and scalar sigma in the S frame."""

    def test_initial_scalar_is_trace_ratio(self, rng):
        s = random_spd(rng, 5)
        h = random_symmetric(rng, 5)
        norm = 0.8
        _, sigma, _ = s_frame_flow(0.5 * norm * s, h, s, norm=norm)
        assert sigma == pytest.approx(np.trace(h) / np.trace(s), abs=1e-12)

    def test_hamiltonian_proportional_to_overlap_is_stationary(self, rng):
        s = random_spd(rng, 5)
        p = 0.4 * s + 0.05 * random_spd(rng, 5)
        rhs, _, _ = s_frame_flow(p, 2.7 * s, s)
        np.testing.assert_allclose(rhs, np.zeros((5, 5)), atol=1e-12)

    def test_traceless_for_any_density(self, rng):
        system = build_huckel(6, 0.569, 0.066)
        for _ in range(5):
            p = random_spd(rng, 6, lo=0.05, hi=0.9)
            rhs, _, _ = s_frame_flow(p, system.h_core.mat, system.s.mat)
            assert abs(np.trace(rhs)) < 1e-11 * 6

    def test_workspace_invariants(self, rng):
        s = random_spd(rng, 5)
        h = random_symmetric(rng, 5)
        p = random_spd(rng, 5, lo=0.1, hi=0.8)
        norm = 0.7
        _, sigma, fluct = s_frame_flow(p, h, s, norm=norm)
        si = np.linalg.inv(s)
        x = p @ (np.eye(5) - si @ p / norm)
        np.testing.assert_allclose(fluct, x, atol=1e-12)
        scalar = np.trace(x @ si @ h + h @ si @ x.T) / np.trace(x + x.T)
        assert sigma == pytest.approx(scalar, rel=1e-12)

    def test_degenerate_trace_rejected(self, rng):
        h = random_symmetric(rng, 4)
        with pytest.raises(DegenerateTraceError):
            s_frame_flow(np.zeros((4, 4)), h, np.eye(4))


class TestFlowRk4:
    """The rate of the kernel's RK4 stages, taken in X form, against the
    literal B P + P B^T with B = -(F - sigma)(1 - M/N) / 2, and the kernel's
    RK4 step against the classic combination of four such rates.  RK4 runs
    in the eigenbasis frame of S only, where M = Q."""

    @staticmethod
    def operands(rng, operands, mu):
        # (Q, F, M, N, frame) in the eigenbasis frame of a random S
        n = 7
        s = random_spd(rng, n)
        h = random_symmetric(rng, n)
        norm = 1.0 if mu is not None else 0.8
        frame = OverlapMatrix(s).frame
        q = random_spd(rng, n, lo=0.1, hi=0.7)
        f = frame.z.T @ h @ frame.z
        if mu is not None:
            f = f - mu * np.eye(n)
        return q, f, q, norm, frame

    @staticmethod
    def literal(p, f, m, norm, frame, mu):
        # grand runs pass F already shifted by mu; the trace weight is diag(s)
        n = p.shape[0]
        sigma = mu
        if mu is None:
            x = p - m @ p / norm
            w = np.diag(frame.s)
            sigma = np.trace(w @ f @ x) / np.trace(w @ x)
            f = f - sigma * np.eye(n)
        b = -0.5 * f @ (np.eye(n) - m / norm)
        return b @ p + p @ b.T, sigma

    @pytest.mark.parametrize("operands", ["frame"])
    @pytest.mark.parametrize("mu", [None, 0.3])
    def test_matches_literal_derivative(self, rng, operands, mu):
        p, f, m, norm, frame = self.operands(rng, operands, mu)
        out, sigma = _rate(p, Dense(f), norm, mu, frame=frame)
        ref, ref_sigma = self.literal(p, f, m, norm, frame, mu)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert sigma == pytest.approx(ref_sigma, rel=1e-13)

    @pytest.mark.parametrize("operands", ["frame"])
    @pytest.mark.parametrize("mu", [None, 0.3])
    def test_step_is_classic_rk4_over_the_rate(self, rng, operands, mu):
        # the kernel's in-place stages give the bits of the textbook
        # combination, and its increment of beta mu weights the stage scalars
        # the same way
        p, f, _, norm, frame = self.operands(rng, operands, mu)
        db = 0.37

        def rate(y):
            return _rate(y, Dense(f), norm, mu, frame=frame)

        k1, s1 = rate(p)
        k2, s2 = rate(p + 0.5 * db * k1)
        k3, s3 = rate(p + 0.5 * db * k2)
        k4, s4 = rate(p + db * k3)
        ref = p + (db / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out, dz, a = _flow(p, Dense(f), norm, db, "rk4", mu=mu, frame=frame)
        assert out.tobytes() == ref.tobytes()
        assert dz == (db / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        assert a is None

    @pytest.mark.parametrize("n, tail", [(7, False), (60, False), (60, True)],
                             ids=["n7", "n60", "n60-flushed"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["w-none", "w-given"])
    @pytest.mark.parametrize("mu", [None, 0.3], ids=["canonical", "grand"])
    def test_step_of_a_symmetric_state_is_exactly_symmetric(self, rng, mu, weighted, n, tail):
        # cool() keeps the RK4 result unsymmetrized: X = Q Q^T is one
        # symmetric rank-k product, the rate adds F X to its own transpose and
        # every other stage operation, the tail flush included, is elementwise
        q = symmetrize(random_spd(rng, n, lo=0.1, hi=0.7))
        f = random_symmetric(rng, n) + 1e-3 * rng.normal(size=(n, n))  # F need not be
        if tail:  # two blocks, coupled far below the floor: the stages flush
            half = n // 2
            for m in (q, f):
                m[:half, half:] = m[half:, :half] = 0.0
            q[0, -1] = q[-1, 0] = 1e-90
        # the trace weight of a random overlap's frame, or the identity frame
        frame = OverlapMatrix(random_spd(rng, n) if weighted else np.eye(n)).frame
        out, _, _ = _flow(q, Dense(f), 1.0 if mu is not None else 0.8, 0.37, "rk4", mu=mu,
                          frame=frame)
        assert np.array_equal(out, out.T)


def read_only(*arrays):
    """Copies of ``arrays`` whose ``flags.writeable`` is False."""
    copies = [np.array(a, dtype=float) for a in arrays]
    for a in copies:
        a.flags.writeable = False
    return copies


def assert_same_bits(got, want):
    for x, y in zip(got, want, strict=True):
        if isinstance(y, np.ndarray):
            assert x.tobytes() == y.tobytes()
        else:
            assert x == y


class TestOperandsStayUntouched:
    """The in-place updates of the step loop land in the callee's own arrays:
    read-only operands give the bits of writable copies."""

    @pytest.mark.parametrize("scheme", solvers.SCHEMES)
    @pytest.mark.parametrize("mu", [None, 0.3], ids=["canonical", "grand"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["identity-frame", "frame"])
    def test_flow(self, rng, scheme, mu, weighted):
        n = 7
        s = random_spd(rng, n) if weighted else np.eye(n)
        q, f, frame = frame_operands(random_spd(rng, n, lo=0.1, hi=0.7), random_symmetric(rng, n),
                                     s, mu)
        norm = 1.0 if mu is not None else 0.8
        q_ro, f_ro = read_only(q, f)
        got = _flow(q_ro, Dense(f_ro), norm, 0.37, scheme, mu=mu, frame=frame)
        assert_same_bits(got, _flow(q.copy(), Dense(f.copy()), norm, 0.37, scheme, mu=mu,
                                    frame=frame))

    @pytest.mark.parametrize("step", [step_kraus1, step_kraus2])
    def test_s_frame_steps(self, rng, step):
        p, h, s = random_spd(rng, 6, lo=0.1, hi=0.4), random_symmetric(rng, 6), random_spd(rng, 6)
        assert_same_bits(step(*read_only(p, h, s), 0.3, 0.05), step(p, h, s, 0.3, 0.05))

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity-frame", "frame"])
    def test_frame_hamiltonian(self, rng, weighted):
        s = random_spd(rng, 6) if weighted else np.eye(6)
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)), OverlapMatrix(s))
        model = HamiltonianModel(system, coupling_u=0.1)
        q = random_spd(rng, 6, lo=0.1, hi=0.7)
        (q_ro,) = read_only(q)
        assert_same_bits([model.frame_hamiltonian(q_ro, 0.8)], [model.frame_hamiltonian(q, 0.8)])


class TestMuRhs:
    """The mu derivative (sigma - mu) / beta implied by d(beta mu)/dbeta = sigma,
    the quadrature that cool() integrates."""

    def test_plateau_at_low_temperature(self):
        # on the exact canonical state of the half-filled ring the scalar
        # equals mu for every beta, so the mu derivative vanishes
        system = build_huckel(50, 0.569, 0.066)
        for beta in (10.0, 100.0):
            p, mu = exact_canonical_fd(system, 25.0, beta)
            _, sigma, _ = s_frame_flow(p.mat, system.h_core.mat, system.s.mat)
            assert abs((sigma - mu) / beta) < 1e-10


class TestStepKraus1:
    def test_zero_step_is_identity(self, rng):
        p = random_spd(rng, 4, lo=0.1, hi=0.9)
        h = random_symmetric(rng, 4)
        out, a = step_kraus1(p, h, np.eye(4), 0.2, 0.0)
        np.testing.assert_allclose(out, p, atol=1e-15)
        np.testing.assert_array_equal(a - np.eye(4), np.zeros((4, 4)))

    def test_hand_worked_two_level(self):
        p, a = step_kraus1(0.5 * np.eye(2), np.diag([0.0, 1.0]), np.eye(2), 0.5, 0.1)
        np.testing.assert_allclose(a - np.eye(2), np.diag([0.0125, -0.0125]), atol=1e-15)
        np.testing.assert_allclose(p, np.diag([0.512578125, 0.487578125]), atol=1e-15)

    def test_generator_invariant(self, rng):
        p = random_spd(rng, 5, lo=0.1, hi=0.9)
        h = random_symmetric(rng, 5)
        s = random_spd(rng, 5)
        mu, db = -0.3, 0.07
        _, a = step_kraus1(p, h, s, mu, db)
        si = np.linalg.inv(s)
        k = -0.5 * db * (h @ si - mu * np.eye(5)) @ (np.eye(5) - p @ si)
        np.testing.assert_allclose(a - np.eye(5), k, atol=1e-12)

    def test_positivity_preserved_for_many_steps(self, rng):
        h = random_symmetric(rng, 6)
        s = random_spd(rng, 6)
        p = 0.5 * s
        for _ in range(500):
            p, _ = step_kraus1(p, h, s, 0.1, 0.05)
            assert np.linalg.eigvalsh(p)[0] >= -1e-12


class TestStepKraus2:
    def test_zero_step_is_identity(self, rng):
        p = random_spd(rng, 4, lo=0.1, hi=0.9)
        h = random_symmetric(rng, 4)
        out, a = step_kraus2(p, h, np.eye(4), 0.2, 0.0)
        np.testing.assert_allclose(out, p, atol=1e-15)
        np.testing.assert_allclose(a, np.eye(4), atol=1e-15)

    def test_scalar_one_step_local_error_is_third_order(self):
        a, p0 = 1.3, 0.3
        errs = []
        for db in (0.2, 0.1, 0.05):
            p = np.array([[p0]])
            out, _ = step_kraus2(p, np.array([[a]]), np.eye(1), 0.0, db)
            errs.append(abs(out[0, 0] - logistic(p0, a, db)))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.25)

    def test_global_second_order_on_ring(self):
        system = build_huckel(6, 0.0, 1.0)
        mu = default_chemical_potential(system)
        exact = occupation_spectrum(exact_grand_fd(system, mu, 1.0), system.s)
        errs = []
        for db in (0.05, 0.025):
            traj = cool(HamiltonianModel(system), GrandCanonical(mu),
                        SolverConfig("kraus2", 1.0, db, record_every=10 ** 6))
            errs.append(np.abs(occupation_spectrum(traj.final_density, system.s) - exact).max())
        assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)

    def test_positivity_preserved_for_many_steps(self, rng):
        h = random_symmetric(rng, 6)
        s = random_spd(rng, 6)
        p = 0.5 * s
        for _ in range(500):
            p, _ = step_kraus2(p, h, s, -0.1, 0.05)
            assert np.linalg.eigvalsh(p)[0] >= -1e-12


@pytest.mark.parametrize("step", [step_kraus1, step_kraus2])
def test_kraus_steps_reject_mismatched_s_inv(step):
    # a 3 x 3 S^-1 with 4 x 4 P, H and S reached numpy's matmul ValueError
    with pytest.raises(DimensionMismatchError):
        step(0.5 * np.eye(4), np.eye(4), np.eye(4), 0.0, 0.1, s_inv=np.eye(3))


class TestStepRk4:
    """RK4 steps of :func:`cool`."""

    def test_global_fourth_order_on_ring(self):
        system = build_huckel(6, 0.0, 1.0)
        mu = default_chemical_potential(system)
        exact = occupation_spectrum(exact_grand_fd(system, mu, 1.0), system.s)
        errs = []
        for db in (0.1, 0.05):
            traj = cool(HamiltonianModel(system), GrandCanonical(mu),
                        SolverConfig("rk4", 1.0, db, record_every=10 ** 6))
            errs.append(np.abs(occupation_spectrum(traj.final_density, system.s) - exact).max())
        assert math.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.3)


class TestCool:
    def test_trajectory_grid_and_record_consistency(self):
        system = build_huckel(5, 0.1, 0.3)
        cfg = SolverConfig("rk4", beta_final=1.0, delta_beta=0.3, record_every=2)
        traj = cool(HamiltonianModel(system), GrandCanonical(0.1), cfg)
        # snapped to 3 steps of 1/3; records at beta = 0, 2/3, 1
        assert traj.betas[0] == 0.0
        assert traj.betas[-1] == 1.0
        assert traj.delta_beta == pytest.approx(1.0 / 3.0)
        n_rec = len(traj.betas)
        assert n_rec == 3
        assert len(traj.diagnostics.trace) == n_rec
        assert traj.mu_trace is None
        # only P(0) = S/2 and the final state are kept
        assert len(traj.densities) == 2
        assert np.array_equal(traj.densities[0].mat, 0.5 * system.s.mat)
        assert traj.final_density is traj.densities[-1]

    def test_grand_rk4_matches_oracle(self):
        system = build_huckel(8, 0.569, 0.066)
        mu = default_chemical_potential(system)
        traj = cool(HamiltonianModel(system), GrandCanonical(mu),
                    SolverConfig("rk4", 5.0, 0.01, record_every=100))
        oracle = exact_grand_fd(system, mu, 5.0)
        err = np.abs(occupation_spectrum(traj.final_density, system.s)
                     - occupation_spectrum(oracle, system.s)).max()
        assert err < 1e-9

    def test_canonical_rk4_trace_and_mu(self, data_dir):
        from fermicool import load_system

        system = load_system(data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat")
        traj = cool(HamiltonianModel(system), Canonical(4.0),
                    SolverConfig("rk4", 3.0, 0.003, record_every=50))
        assert np.abs(traj.diagnostics.trace - 4.0).max() < 1e-9
        for beta, mu_int in zip(traj.betas, traj.mu_trace):
            _, mu_oracle = exact_canonical_fd(system, 4.0, float(beta))
            assert abs(mu_int - mu_oracle) < 1e-3
        p_oracle, _ = exact_canonical_fd(system, 4.0, 3.0)
        err = np.abs(occupation_spectrum(traj.final_density, system.s)
                     - occupation_spectrum(p_oracle, system.s)).max()
        assert err < 1e-9

    @pytest.mark.parametrize("coupling", [0.0, 0.1])
    @pytest.mark.parametrize("scheme", ["kraus1", "kraus2", "rk4"])
    def test_canonical_weight_is_the_overlap_spectrum(self, rng, monkeypatch, scheme,
                                                       coupling):
        # in the eigenbasis frame of S the electron-count weight is diag(s):
        # the kernel never sees a dense S-derived matrix
        from fermicool import solvers

        s = OverlapMatrix(random_spd(rng, 6))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)), s)
        weights = []
        flow = solvers._flow

        def spy(*args, **kwargs):
            weights.append(kwargs["frame"].s)
            return flow(*args, **kwargs)

        monkeypatch.setattr(solvers, "_flow", spy)
        cool(HamiltonianModel(system, coupling_u=coupling), Canonical(2.5),
             SolverConfig(scheme, 1.0, 0.1))
        assert len(weights) == 10  # one kernel call per step
        spectrum = np.linalg.eigvalsh(s.mat)
        for w in weights:
            assert w.shape == (6,)
            np.testing.assert_allclose(w, spectrum, rtol=1e-12)

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("scheme", ["kraus1", "kraus2", "rk4"])
    def test_one_kernel_call_per_step(self, rng, monkeypatch, scheme, canonical):
        # every scheme takes a whole step, RK4 stages included, in one call
        from fermicool import solvers

        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 5)),
                            OverlapMatrix(random_spd(rng, 5)))
        ensemble = Canonical(2.0) if canonical else GrandCanonical(0.1)
        config = SolverConfig(scheme, 1.0, 0.07, record_every=4)
        calls = []
        flow = solvers._flow

        def spy(q, f, norm, delta_beta, step_scheme, **kwargs):
            calls.append((delta_beta, step_scheme))
            return flow(q, f, norm, delta_beta, step_scheme, **kwargs)

        monkeypatch.setattr(solvers, "_flow", spy)
        cool(HamiltonianModel(system, coupling_u=0.1), ensemble, config)
        assert calls == [(config.snapped_delta_beta, scheme)] * config.n_steps

    def test_canonical_kraus_schemes_track_oracle(self, rng):
        s = OverlapMatrix(random_spd(rng, 5))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 5)), s)
        ne = 2.0
        p_oracle, mu_oracle = exact_canonical_fd(system, ne, 2.0)
        occ_oracle = occupation_spectrum(p_oracle, s)
        errs = {}
        for scheme, tol_occ, tol_mu in (("kraus1", 5e-3, 5e-3), ("kraus2", 5e-6, 5e-6)):
            traj = cool(HamiltonianModel(system), Canonical(ne),
                        SolverConfig(scheme, 2.0, 0.002, record_every=100))
            errs[scheme] = np.abs(occupation_spectrum(traj.final_density, s) - occ_oracle).max()
            assert errs[scheme] < tol_occ
            assert abs(traj.final_mu - mu_oracle) < tol_mu
        assert errs["kraus2"] < errs["kraus1"]

    def test_canonical_kraus2_is_second_order(self, rng):
        s = OverlapMatrix(random_spd(rng, 4))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 4)), s)
        occ_oracle = occupation_spectrum(exact_canonical_fd(system, 1.5, 1.0)[0], s)
        errs = []
        for db in (0.02, 0.01):
            traj = cool(HamiltonianModel(system), Canonical(1.5),
                        SolverConfig("kraus2", 1.0, db, record_every=10 ** 6))
            errs.append(np.abs(occupation_spectrum(traj.final_density, s) - occ_oracle).max())
        assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.3)

    def test_nonlinear_refresh_defect_positive_linear_zero(self):
        system = build_huckel(10, 0.569, 0.066)
        mu = default_chemical_potential(system)
        cfg = SolverConfig("rk4", 2.0, 0.01, record_every=10)
        lin = cool(HamiltonianModel(system), GrandCanonical(mu), cfg)
        assert lin.diagnostics.h_refresh_defect.max() == 0.0
        # a linear model's Q stays a function of G, so [Q, G] = 0 by construction
        assert (lin.diagnostics.commutator_norm == 0.0).all()
        nl = cool(HamiltonianModel(system, coupling_u=0.1), GrandCanonical(mu), cfg)
        assert nl.diagnostics.h_refresh_defect.max() > 1e-6
        assert nl.diagnostics.commutator_norm[1:].min() > 0.0

    @pytest.mark.parametrize("tol, count", [({"positivity_tol": 0.0}, 2), ({}, 0)],
                             ids=["zero-tol", "default-tol"])
    def test_positivity_violations_are_the_records_below_tolerance(self, tol, count):
        # rk4 is no congruence: its smallest eigenvalue on the cold ring dips
        # to about -7e-17 at the last records, under 0 but within 1e-10
        system = build_huckel(12, 0.0, 1.0)
        config = SolverConfig("rk4", 30.0, 1.0, record_every=1, **tol)
        traj = cool(HamiltonianModel(system), GrandCanonical(default_chemical_potential(system)),
                    config)
        below = [(b, m) for b, m in zip(traj.betas, traj.diagnostics.min_eigenvalue)
                 if m < -config.positivity_tol]
        assert traj.positivity_violations == below
        assert len(below) == count and len(traj.betas) == 31

    @pytest.mark.parametrize("ensemble", [GrandCanonical(0.0), Canonical(2.0)],
                             ids=["grand", "canonical"])
    @pytest.mark.parametrize("scheme, last_good", [("kraus1", 40.0), ("kraus2", 30.0),
                                                   ("rk4", 10.0)])
    def test_abort_on_blowup_reports_last_good_beta(self, scheme, last_good, ensemble):
        system = build_huckel(4, 0.0, 50.0)
        with np.errstate(all="ignore"), pytest.raises(SolverAbortError) as err:
            cool(HamiltonianModel(system), ensemble, SolverConfig(scheme, 1000.0, 10.0))
        assert err.value.last_good_beta == last_good

    def test_canonical_mu_observed_orders(self, rng):
        # d(beta mu)/dbeta = sigma is integrated with each scheme's own weights,
        # so the final mu converges at the scheme's order
        s = OverlapMatrix(random_spd(rng, 4))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 4)), s)
        _, mu_oracle = exact_canonical_fd(system, 1.5, 1.0)
        for scheme, order, tol, steps in (("kraus1", 1, 0.2, (0.02, 0.01)),
                                          ("kraus2", 2, 0.2, (0.02, 0.01)),
                                          ("rk4", 4, 0.3, (0.1, 0.05))):
            errs = [abs(cool(HamiltonianModel(system), Canonical(1.5),
                             SolverConfig(scheme, 1.0, db, record_every=10 ** 6)).final_mu
                        - mu_oracle) for db in steps]
            assert math.log2(errs[0] / errs[1]) == pytest.approx(order, abs=tol), scheme

    def test_canonical_full_filling_rejected(self):
        system = build_huckel(4, 0.0, 1.0)
        from fermicool import InfeasibleEnsembleError

        with pytest.raises(InfeasibleEnsembleError):
            cool(HamiltonianModel(system), Canonical(4.0),
                 SolverConfig("rk4", 1.0, 0.1))

    def test_recorded_densities_exactly_symmetric(self, rng):
        # every record is taken from the frame state the next step starts
        # from, and the two kept densities are formed from such a state
        s = OverlapMatrix(random_spd(rng, 5))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 5)), s)
        for scheme in ("kraus1", "kraus2", "rk4"):
            for ensemble in (GrandCanonical(0.0), Canonical(2.0)):
                traj, states = cool_with_states(HamiltonianModel(system, coupling_u=0.1),
                                                ensemble,
                                                SolverConfig(scheme, 1.0, 0.01, record_every=7))
                assert len(states) == 100
                for q in states:
                    assert np.array_equal(q, q.T)
                assert len(traj.densities) == 2
                for density in traj.densities:
                    assert np.array_equal(density.mat, density.mat.T)

    def test_diagnostics_match_direct_formulas(self, rng):
        # cool() records from the frame state; recompute in the S frame from
        # P = Y Q Y^T, Q the state the next step starts from (the final P is
        # kept).  The model is nonlinear so that [S^-1 P, S^-1 H] is not zero
        # by symmetry; step k uses the Hamiltonian of the density recorded at
        # step k - 1, and step 1 the core Hamiltonian, of which its P is a
        # function.  Each gap is bounded by 4 n eps times the size of the
        # products it differences, the scale of their rounding; the smallest
        # occupation is that of S^-1 P, whose Cholesky reference
        # (L^-1 P L^-T, S = L L^T) rounds by up to 1 / s_min times more.
        n = 6
        s = OverlapMatrix(random_spd(rng, n))
        s_lo = float(np.linalg.eigvalsh(s.mat)[0])
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, n)), s)
        model = HamiltonianModel(system, coupling_u=0.3)
        _, y, _ = explicit_frame(s)
        si = np.linalg.inv(s.mat)
        tol = 4 * n * EPS
        for ensemble, norm in ((GrandCanonical(0.1), 1.0),
                               (Canonical(2.5), canonical_normalization(2.5, s.mat))):
            traj, states = cool_with_states(model, ensemble,
                                            SolverConfig("kraus2", 1.0, 0.05, record_every=1))
            ps = ([traj.densities[0].mat] + [y @ q @ y.T for q in states[1:]]
                  + [traj.final_density.mat])
            diag = traj.diagnostics
            assert len(ps) == len(traj.betas) == 21
            for k, p in enumerate(ps):
                size = np.linalg.norm(p, "fro")
                assert abs(diag.trace[k] - np.trace(p)) <= tol * size
                occupations, bound = cholesky_occupations(p, s.mat), tol * size / s_lo
                assert abs(diag.min_eigenvalue[k] - occupations[0]) <= bound
                if k < 2:
                    assert diag.commutator_norm[k] == diag.h_refresh_defect[k] == 0.0
                    continue
                h_last, h = (s_frame_hamiltonian(model, ps[j], norm).mat for j in (k - 2, k - 1))
                si_p, si_h = si @ p, si @ h
                comm = np.linalg.norm(si_p @ si_h - si_h @ si_p, "fro")
                size = np.linalg.norm(si_p, "fro") * np.linalg.norm(si_h, "fro")
                assert abs(diag.commutator_norm[k] - comm) <= tol * size
                rate = (h - h_last) / 0.05
                defect = np.linalg.norm(h_last @ rate - rate @ h_last, "fro")
                size = (np.linalg.norm(h_last, "fro")
                        * (np.linalg.norm(h_last, "fro") + np.linalg.norm(h, "fro")) / 0.05)
                assert abs(diag.h_refresh_defect[k] - defect) <= tol * size
            assert np.abs(traj.final_occupations - occupations).max() <= bound
            assert diag.commutator_norm[-1] > 1e-4

    @pytest.mark.parametrize("identity_overlap", [True, False])
    def test_memory_does_not_grow_with_the_records(self, rng, identity_overlap):
        # the records are scalars: a run that records every one of its 200
        # steps holds no more than one that records beta = 0 and the end
        n = 100
        s = OverlapMatrix(np.eye(n) if identity_overlap else random_spd(rng, n))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, n, scale=0.1)), s)
        peaks = []
        for record_every in (200, 1):
            tracemalloc.start()
            try:
                traj = cool(HamiltonianModel(system), GrandCanonical(0.0),
                            SolverConfig("kraus1", 2.0, 0.01, record_every=record_every))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(traj.betas) == (201 if record_every == 1 else 2)
        assert peaks[1] <= 1.2 * peaks[0]

    @staticmethod
    @functools.cache
    def working_set_system(name):
        # a linear ring with S = 1, and the cli-nonorth chain recipe at
        # n = 200, with u = 0.05 or linear
        if name == "ring":
            return build_huckel(200, 0.569, 0.066), 0.0, 10.0, 1.0
        i = np.arange(200)
        d2 = (i[:, None] - i[None, :]) ** 2.0
        h = -0.35 * np.exp(-0.4 * d2)
        h[i, i] = -1.2 + 0.05 * i
        u = 0.0 if name == "linear-chain" else 0.05
        return SystemSpec(HermitianMatrix(h), OverlapMatrix(np.exp(-0.5 * d2))), u, 0.1, 0.01

    #: Measured peaks in n x n arrays, (grand, canonical) per scheme, with
    #: numpy 2.4; a case may exceed its figure by 0.25 array, less than one
    #: more n x n temporary.
    WORKING_SET = {
        "ring": {"kraus1": (5.13, 5.13), "kraus2": (6.21, 6.21), "rk4": (7.21, 6.21)},
        "chain": {"kraus1": (7.41, 6.41), "kraus2": (7.41, 8.21), "rk4": (8.21, 7.21)},
        "linear-chain": {"kraus1": (5.13, 5.13), "kraus2": (6.21, 7.21), "rk4": (7.21, 6.21)},
    }

    @pytest.mark.parametrize("scheme", solvers.SCHEMES)
    @pytest.mark.parametrize("canonical", [False, True], ids=["grand", "canonical"])
    @pytest.mark.parametrize("name, bound", [("ring", 8.5), ("chain", 11.5),
                                             ("linear-chain", 11.5)])
    def test_step_loop_working_set(self, name, bound, canonical, scheme):
        # the loop holds Q, F and G, G_last only across a refresh, and a
        # step's temporaries, within ``bound`` arrays; P(0) is formed after
        # it.  n = 200 keeps numpy's 64 KB ufunc buffer at 0.2 arrays (about
        # 0.5 at n = 128)
        system, u, beta, db = self.working_set_system(name)
        n = system.dim
        ensemble = Canonical(n / 2) if canonical else GrandCanonical(
            default_chemical_potential(system))
        args = (HamiltonianModel(system, u), ensemble,
                SolverConfig(scheme, beta, db, record_every=3))
        cool(*args)  # builds the frame, its levels and the model's frame response
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cool(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (peak - start) / (8.0 * n * n)
        assert arrays <= min(bound, self.WORKING_SET[name][scheme][canonical] + 0.25)

    def test_refresh_defect_independent_of_record_interval(self):
        # the defect is computed only at recording steps, from the same pair
        # of Hamiltonians a per-step evaluation would use
        system = build_huckel(8, 0.569, 0.066)
        model = HamiltonianModel(system, coupling_u=0.1)
        for ensemble in (GrandCanonical(default_chemical_potential(system)), Canonical(3.0)):
            dense = cool(model, ensemble, SolverConfig("kraus2", 1.0, 0.01, record_every=1))
            sparse = cool(model, ensemble, SolverConfig("kraus2", 1.0, 0.01, record_every=9))
            idx = np.searchsorted(dense.betas, sparse.betas)
            np.testing.assert_array_equal(dense.betas[idx], sparse.betas)
            np.testing.assert_array_equal(dense.diagnostics.h_refresh_defect[idx],
                                          sparse.diagnostics.h_refresh_defect)
            assert sparse.diagnostics.h_refresh_defect[1:].min() > 0.0

    def test_grand_kraus1_is_first_order(self):
        system = build_huckel(6, 0.0, 1.0)
        mu = default_chemical_potential(system)
        exact = occupation_spectrum(exact_grand_fd(system, mu, 1.0), system.s)
        errs = []
        for db in (0.05, 0.025):
            traj = cool(HamiltonianModel(system), GrandCanonical(mu),
                        SolverConfig("kraus1", 1.0, db, record_every=10 ** 6))
            errs.append(np.abs(occupation_spectrum(traj.final_density, system.s) - exact).max())
        assert math.log2(errs[0] / errs[1]) == pytest.approx(1.0, abs=0.2)


class TestDiagonalProducts:
    """A linear run whose F has a narrow cyclic band for its size holds F by
    it (matcore.operator); every other run holds it dense."""

    @staticmethod
    def kernel_operators(monkeypatch, model, ensemble):
        # the operator F that cool() passes to _flow, step by step
        seen = []
        flow = solvers._flow

        def spy(q, f, norm, delta_beta, step_scheme, **kwargs):
            seen.append(f)
            return flow(q, f, norm, delta_beta, step_scheme, **kwargs)

        monkeypatch.setattr(solvers, "_flow", spy)
        cool(model, ensemble, SolverConfig("kraus1", 0.2, 0.1))
        monkeypatch.undo()
        assert len(seen) == 2
        return seen

    @staticmethod
    def chain(n):
        # the recipe of the benchmark's non-orthogonal chain
        i = np.arange(n)
        d2 = (i[:, None] - i[None, :]) ** 2.0
        h = -0.35 * np.exp(-0.4 * d2)
        h[i, i] = -1.2 + 0.05 * i
        return SystemSpec(HermitianMatrix(h), OverlapMatrix(np.exp(-0.5 * d2)))

    @pytest.mark.parametrize("canonical", [False, True], ids=["grand", "canonical"])
    @pytest.mark.parametrize("n", [115, 240, 300])
    def test_linear_rings_at_the_crossover_take_the_diagonals(self, monkeypatch, n, canonical):
        # a cyclic band of half-width 1, the periodic corners included; the
        # rule n >= 5 (2h + 1) + 100 takes it from n = 115
        system = build_huckel(n, 0.569, 0.066)
        ensemble = (Canonical(n / 2) if canonical
                    else GrandCanonical(default_chemical_potential(system)))
        want = system.g_core.copy()  # F = G, or G - mu
        if not canonical:
            want.flat[:: n + 1] -= ensemble.mu
        for f in self.kernel_operators(monkeypatch, HamiltonianModel(system), ensemble):
            assert isinstance(f, Diagonals)
            assert f.h == 1 and f.band.shape == (n, 3)
            assert np.asarray(f).tobytes() == want.tobytes()

    @pytest.mark.parametrize("canonical", [False, True], ids=["grand", "canonical"])
    @pytest.mark.parametrize("name", ["ring-114", "ring-104", "nonlinear-ring-300", "chain",
                                      "sample"])
    def test_other_runs_take_the_gemm(self, monkeypatch, data_dir, name, canonical):
        from fermicool import load_system

        coupling = 0.0
        if name == "chain":
            system = self.chain(60)
        elif name == "sample":
            system = load_system(data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat")
        else:
            system = build_huckel(int(name.rpartition("-")[2]), 0.569, 0.066)
            coupling = 0.05 if name.startswith("nonlinear") else 0.0
        ensemble = (Canonical(2.0) if canonical
                    else GrandCanonical(default_chemical_potential(system)))
        seen = self.kernel_operators(monkeypatch, HamiltonianModel(system, coupling), ensemble)
        assert [type(f) for f in seen] == [Dense, Dense]

    @pytest.mark.parametrize("scheme", solvers.SCHEMES)
    @pytest.mark.parametrize("mu", [None, 0.3], ids=["canonical", "grand"])
    def test_kernel_by_diagonals_is_the_dense_kernel(self, rng, monkeypatch, scheme, mu):
        # a step with F by its band differs from the dense F's by
        # rounding only, reads no dense form of F and leaves its read-only
        # operands as they were; the ring's band has half-width 1 with the
        # corners, which the wrapped rows read
        n = 40
        f = np.diag(rng.normal(size=n))
        i = np.arange(n - 1)
        f[i, i + 1] = f[i + 1, i] = rng.normal(size=n - 1)
        f[0, -1] = f[-1, 0] = 0.3
        q, f = read_only(symmetrize(random_spd(rng, n, lo=0.1, hi=0.7)), f)
        before = q.tobytes(), f.tobytes()
        diagonals = Diagonals(f, 1)
        frame = OverlapMatrix(np.eye(n)).frame
        norm = 1.0 if mu is not None else 0.8
        ref, ref_dz, ref_a = _flow(q, Dense(f), norm, 0.37, scheme, mu=mu, frame=frame)

        def no_dense_form(self, dtype=None, copy=None):
            raise AssertionError("the kernel read the dense form of F")

        with monkeypatch.context() as m:
            m.setattr(Diagonals, "__array__", no_dense_form)
            out, dz, a = _flow(q, diagonals, norm, 0.37, scheme, mu=mu, frame=frame)
        assert (q.tobytes(), f.tobytes()) == before
        assert np.asarray(diagonals).tobytes() == f.tobytes()
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert dz == pytest.approx(ref_dz, rel=1e-13, abs=1e-15)
        if scheme == "rk4":
            assert np.array_equal(out, out.T) and a is None and ref_a is None

    def test_band_product_allocates_its_output_and_little_else(self, rng):
        # the ring-dense size: the window view and the wrap block of 4 rows
        # are all the product takes beside its output
        n = 300
        f = build_huckel(n, 0.569, 0.066).g_core
        x = rng.normal(size=(n, n))
        band = operator(f)
        assert isinstance(band, Diagonals) and band.h == 1
        band @ x  # numpy's first call of a kind may cache what it needs
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = band @ x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8.0 * n * n) < 1.1
        assert np.abs(out - f @ x).max() <= 1e-13 * np.abs(f).max() * np.abs(x).max()


def unfloored_final_state(system, ensemble, scheme, beta, n_steps):
    """Final density and mu of cool()'s step loop with nothing zeroed: Q from
    (N/2) 1 in the overlap's eigenbasis frame, each kernel result symmetrized
    as (Q + Q^T) / 2, and F the kernel operator that cool() forms
    (matcore.operator).  Call it with solvers.TAIL_FLOOR set to 0, which
    keeps the kernel's own flushes out."""
    from fermicool import solvers

    n = system.dim
    canonical = isinstance(ensemble, Canonical)
    norm = canonical_normalization(ensemble.n_electrons, system.s.mat) if canonical else 1.0
    kernel_mu = None if canonical else float(ensemble.mu)
    frame = system.s.frame
    f = operator(system.g_core)
    if not canonical:
        f = f.shifted(kernel_mu)
    q, beta_mu, mu = np.eye(n) * (0.5 * norm), 0.0, None
    for i in range(n_steps):
        q_raw, dz, _ = solvers._flow(q, f, norm, beta / n_steps, scheme, mu=kernel_mu,
                                     frame=frame)
        beta_mu += dz
        if canonical:
            mu = beta_mu / (beta * (i + 1) / n_steps)
        q = 0.5 * (q_raw + q_raw.T)
    return HermitianMatrix(frame.from_frame(q)).mat, mu


class TestTailFloor:
    """The step loop zeroes the far tail of its operands below TAIL_FLOOR
    (docs/second_order_scheme.md, "Underflow in the step loop")."""

    @pytest.fixture(scope="class")
    def ring(self):
        # at small beta the state of the 300-ring spans hundreds of orders of
        # magnitude: its far entries go like (beta gamma)^k / k!
        return build_huckel(300, 0.569, 0.066)

    @staticmethod
    def ensembles(system, n_electrons):
        return (GrandCanonical(default_chemical_potential(system)), Canonical(n_electrons))

    @pytest.mark.parametrize("canonical", [False, True], ids=["grand", "canonical"])
    @pytest.mark.parametrize("scheme", ["kraus1", "rk4"])
    def test_kernel_operands_stay_above_the_floor(self, ring, monkeypatch, scheme, canonical):
        # no entry of the state the kernel reads lies below the floor, so no
        # product of the step can underflow; a guard on subnormal operands
        # alone would pass without any flush
        from fermicool import solvers

        ensemble = self.ensembles(ring, 150.0)[canonical]
        tiny = np.finfo(float).tiny
        lowest = []
        flow = solvers._flow

        def spy(q, f, norm, delta_beta, step_scheme, **kwargs):
            mag = np.abs(q)
            lowest.append(mag[mag > 0].min() / (0.5 * norm))
            out, dz, a = flow(q, f, norm, delta_beta, step_scheme, **kwargs)
            out_mag = np.abs(out)
            assert not ((out_mag > 0) & (out_mag < tiny)).any()
            return out, dz, a

        monkeypatch.setattr(solvers, "_flow", spy)
        cool(HamiltonianModel(ring), ensemble, SolverConfig(scheme, 10.0, 1.0, record_every=10))
        assert len(lowest) == 10
        assert min(lowest) >= solvers.TAIL_FLOOR
        # the run reaches the floor: without it these entries fall below 1e-250
        assert min(lowest) < 1e6 * solvers.TAIL_FLOOR

    @pytest.mark.parametrize("scheme", ["kraus1", "kraus2", "rk4"])
    @pytest.mark.parametrize("system_name", ["ring", "sample"])
    def test_floor_moves_the_state_only_at_its_scale(self, ring, data_dir, monkeypatch,
                                                     scheme, system_name):
        from fermicool import load_system, solvers

        if system_name == "ring":
            system, n_electrons, beta, n_steps = ring, 150.0, 4.0, 4
        else:
            system = load_system(data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat")
            n_electrons, beta, n_steps = 4.0, 3.0, 300
        n = system.dim
        for ensemble in self.ensembles(system, n_electrons):
            config = SolverConfig(scheme, beta, beta / n_steps, record_every=n_steps)
            floored = cool(HamiltonianModel(system), ensemble, config)
            with monkeypatch.context() as m:
                m.setattr(solvers, "TAIL_FLOOR", 0.0)
                plain = cool(HamiltonianModel(system), ensemble, config)
                p_ref, mu_ref = unfloored_final_state(system, ensemble, scheme, beta, n_steps)
            # with a zero floor nothing is zeroed: the bits of the plain loop
            assert plain.final_density.mat.tobytes() == p_ref.tobytes()
            assert plain.final_mu == mu_ref
            # each step's flush moves Q by less than n * floor * N/2 in norm
            # (Gershgorin), and P = Y Q Y^T by at most ||S|| times that
            canonical = isinstance(ensemble, Canonical)
            norm = canonical_normalization(n_electrons, system.s.mat) if canonical else 1.0
            bound = (n_steps * n * solvers.TAIL_FLOOR * 0.5 * norm
                     * max(1.0, np.linalg.norm(system.s.mat, 2)))
            gap = np.abs(floored.final_density.mat - plain.final_density.mat).max()
            assert gap <= bound
            assert floored.final_mu == plain.final_mu
            if system_name == "ring":
                assert gap > 0.0  # the floor acted

    @pytest.mark.parametrize("identity_overlap", [True, False])
    def test_beta_zero_is_recorded_without_a_decomposition(self, rng, monkeypatch,
                                                           identity_overlap):
        # every occupation of P(0) = (N/2) S, an eigenvalue of S^-1 P(0), is
        # N/2, and Q(0) = (N/2) 1 commutes with G
        n = 6
        s = OverlapMatrix(np.eye(n) if identity_overlap else random_spd(rng, n))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, n)), s)
        norm = canonical_normalization(2.5, s.mat)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(a)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        traj = cool(HamiltonianModel(system), Canonical(2.5), SolverConfig("rk4", 1.0, 0.5))
        monkeypatch.undo()
        assert len(calls) == 2  # the two steps, not beta = 0
        assert traj.diagnostics.commutator_norm[0] == 0.0
        reference = cholesky_occupations(traj.densities[0].mat, s.mat)
        assert traj.diagnostics.min_eigenvalue[0] == 0.5 * norm
        if identity_overlap:
            assert (reference == 0.5 * norm).all()
        else:
            assert reference == pytest.approx(np.full(n, 0.5 * norm), rel=1e-13)
