import math

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
    commutator_defect,
    cool,
    default_chemical_potential,
    effective_hamiltonian,
    exact_canonical_fd,
    exact_grand_fd,
    occupation_spectrum,
    step_kraus1,
    step_kraus2,
    step_rk4,
)
from fermicool.solvers import MAX_STEPS, _flow
from conftest import random_spd, random_symmetric


def scalar_system(level):
    return SystemSpec(HermitianMatrix([[level]]), OverlapMatrix([[1.0]]))


def logistic(p0, a, beta):
    return 1.0 / (1.0 + (1.0 - p0) / p0 * math.exp(a * beta))


def s_frame_flow(p, h, s, mu=None, norm=1.0, s_inv=None):
    """dP/dbeta, the scalar sigma and X = P - M P / N from the kernel, called
    with the S-frame operands F = H S^-1 - mu and M = P S^-1.  A grand flow
    passes ``mu``; a canonical one leaves it None and passes N as ``norm``."""
    p = np.asarray(p, dtype=float)
    si = OverlapMatrix(s).inverse if s_inv is None else s_inv
    f = np.asarray(h, dtype=float) @ si
    if mu is not None:
        f.flat[:: p.shape[0] + 1] -= mu
    m = p @ si
    rhs, sigma, _, _ = _flow(p, f, m, norm, 0.0, "rk4", mu=mu)
    return rhs, sigma, p - (m @ p) / norm


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
        out, _, _ = s_frame_flow(p, h, s, -0.2)
        assert np.abs(out - out.T).max() == 0.0

    def test_matches_exact_flow_derivative(self, rng):
        # centered difference of the exact state in beta, second order in h
        s = OverlapMatrix(random_spd(rng, 6))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)), s)
        mu, beta = 0.15, 0.9
        p = exact_grand_fd(system, mu, beta).mat
        rhs, _, _ = s_frame_flow(p, system.h_core.mat, s.mat, mu, s_inv=s.inverse)
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
    def test_zero_rhs_is_identity(self, rng):
        p = random_symmetric(rng, 3)
        out = step_rk4(p, lambda y: np.zeros_like(y), 0.3)
        np.testing.assert_array_equal(out, p)

    def test_scalar_exponential_decay(self):
        y = np.array(1.0)
        for _ in range(100):
            y = step_rk4(y, lambda v: -v, 0.01)
        assert float(y) == pytest.approx(math.exp(-1.0), abs=1e-10)

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

    def test_rk4_integration_reaches_gibbs_state(self, rng):
        # the Bloch equation d rho/d beta = -(H rho + rho H)/2 from rho(0) = 1
        # has the solution exp(-beta H)
        h = random_symmetric(rng, 5)
        rho = np.eye(5)
        db, beta = 0.002, 2.0
        for _ in range(int(round(beta / db))):
            rho = step_rk4(rho, lambda r: -0.5 * (h @ r + r @ h), db)
        vals, vecs = np.linalg.eigh(h)
        exact = (vecs * np.exp(-beta * vals)) @ vecs.T
        assert np.abs(rho - exact).max() / np.abs(exact).max() < 1e-9


class TestCommutatorDefect:
    def test_two_by_two_hand_computed(self):
        h = np.diag([0.0, 1.0])
        h_next = h + 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert commutator_defect(h, h_next, 0.1) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_unchanged_hamiltonian(self, rng):
        h = random_symmetric(rng, 5)
        assert commutator_defect(h, h, 0.2) == 0.0

    def test_commuting_update(self, rng):
        h = random_symmetric(rng, 5)
        assert commutator_defect(h, h + 0.1 * h, 0.1) < 1e-13


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
        assert len(traj.densities) == n_rec
        assert len(traj.diagnostics.trace) == n_rec
        assert traj.mu_trace is None

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
        nl = cool(HamiltonianModel(system, coupling_u=0.1), GrandCanonical(mu), cfg)
        assert nl.diagnostics.h_refresh_defect.max() > 1e-6

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
        s = OverlapMatrix(random_spd(rng, 5))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 5)), s)
        for scheme in ("kraus1", "kraus2", "rk4"):
            for ensemble in (GrandCanonical(0.0), Canonical(2.0)):
                traj = cool(HamiltonianModel(system, coupling_u=0.1), ensemble,
                            SolverConfig(scheme, 1.0, 0.01, record_every=7))
                for density in traj.densities:
                    assert np.array_equal(density.mat, density.mat.T)

    def test_diagnostics_match_direct_formulas(self, rng):
        # cool() records from the frame state; recompute in the S frame.  The
        # model is nonlinear so that [S^-1 P, S^-1 H] is not zero by symmetry;
        # step k uses the Hamiltonian of the density recorded at step k - 1.
        s = OverlapMatrix(random_spd(rng, 6))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)), s)
        model = HamiltonianModel(system, coupling_u=0.3)
        for ensemble, norm in ((GrandCanonical(0.1), 1.0),
                               (Canonical(2.5), canonical_normalization(2.5, s.mat))):
            traj = cool(model, ensemble, SolverConfig("kraus2", 1.0, 0.05, record_every=1))
            diag = traj.diagnostics
            for k, density in enumerate(traj.densities):
                p = density.mat
                assert diag.trace[k] == pytest.approx(np.trace(p), rel=1e-14, abs=0)
                assert diag.min_eigenvalue[k] == pytest.approx(np.linalg.eigvalsh(p)[0],
                                                               rel=1e-10, abs=0)
                if k == 0:
                    continue
                h = effective_hamiltonian(model, traj.densities[k - 1].mat, norm).mat
                si_p, si_h = s.inverse @ p, s.inverse @ h
                comm = np.linalg.norm(si_p @ si_h - si_h @ si_p, "fro")
                assert diag.commutator_norm[k] == pytest.approx(comm, rel=1e-9, abs=1e-13)
            assert diag.commutator_norm[-1] > 1e-4

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
