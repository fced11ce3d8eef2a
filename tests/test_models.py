import math

import numpy as np
import pytest

from fermicool import (
    BracketError,
    Canonical,
    GrandCanonical,
    HamiltonianModel,
    HermitianMatrix,
    InfeasibleEnsembleError,
    MuConvergenceError,
    OverlapMatrix,
    ScfConvergenceError,
    SystemSpec,
    build_huckel,
    canonical_normalization,
    default_chemical_potential,
    effective_hamiltonian,
    exact_canonical_fd,
    exact_grand_fd,
    load_system,
    occupation_spectrum,
    scf_fixed_point,
    symmetrize,
)
from fermicool.models import exact_canonical_mu
from conftest import pencil_levels, random_spd, random_symmetric


def ring_spectrum(n, alpha, gamma):
    k = np.arange(n)
    return np.sort(alpha + 2.0 * gamma * np.cos(2.0 * np.pi * k / n))


class TestBuildHuckel:
    def test_four_site_matrix(self):
        system = build_huckel(4, 0.569, 0.066)
        expected = np.array(
            [
                [0.569, 0.066, 0.0, 0.066],
                [0.066, 0.569, 0.066, 0.0],
                [0.0, 0.066, 0.569, 0.066],
                [0.066, 0.0, 0.066, 0.569],
            ]
        )
        np.testing.assert_array_equal(system.h_core.mat, expected)
        np.testing.assert_array_equal(system.s.mat, np.eye(4))

    def test_three_ring_spectrum(self):
        system = build_huckel(3, 0.0, 1.0)
        vals = np.linalg.eigvalsh(system.h_core.mat)
        np.testing.assert_allclose(vals, [-1.0, -1.0, 2.0], atol=1e-12)

    def test_circulant_spectrum_n50(self):
        system = build_huckel(50, 0.569, 0.066)
        vals = np.linalg.eigvalsh(system.h_core.mat)
        np.testing.assert_allclose(vals, ring_spectrum(50, 0.569, 0.066), atol=1e-10)

    def test_rejects_small_rings(self):
        with pytest.raises(ValueError):
            build_huckel(2, 0.0, 1.0)


class TestEnsembles:
    def test_canonical_requires_positive_count(self):
        with pytest.raises(InfeasibleEnsembleError):
            Canonical(0.0)

    def test_system_rejects_mismatched_overlap(self):
        from fermicool import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            SystemSpec(HermitianMatrix(np.eye(3)), OverlapMatrix(np.eye(2)))

    def test_normalization_recomputed(self):
        system = build_huckel(50, 0.569, 0.066)
        assert canonical_normalization(25.0, system.s.mat) == pytest.approx(1.0)
        assert canonical_normalization(10.0, system.s.mat) == pytest.approx(0.4)

    @pytest.mark.parametrize("of_trace, plus", [(0, -1.0), (0, 0.0), (1, 0.0), (1, 1.0)],
                             ids=["-1", "0", "trace", "trace+1"])
    def test_normalization_rejects_counts_outside_filling(self, rng, of_trace, plus):
        s = random_spd(rng, 4)
        ne = of_trace * float(np.trace(s)) + plus
        with pytest.raises(InfeasibleEnsembleError, match="strictly between 0 and full filling"):
            canonical_normalization(ne, s)


class TestEffectiveHamiltonian:
    def test_linear_ignores_density(self, rng):
        system = build_huckel(6, 0.5, 0.1)
        model = HamiltonianModel(system)
        p = HermitianMatrix(random_symmetric(rng, 6))
        assert effective_hamiltonian(model, p) is system.h_core

    def test_correction_vanishes_at_initial_value(self):
        system = build_huckel(6, 0.5, 0.1)
        model = HamiltonianModel(system, coupling_u=0.3)
        h = effective_hamiltonian(model, 0.5 * system.s.mat, normalization=1.0)
        np.testing.assert_array_equal(h.mat, system.h_core.mat)

    def test_diagonal_density_direct_arithmetic(self):
        # u = 1, S = I, h_core = 0, P = diag(1, 0): correction is P - S/2
        system = SystemSpec(HermitianMatrix(np.zeros((2, 2))), OverlapMatrix(np.eye(2)))
        model = HamiltonianModel(system, coupling_u=1.0)
        h = effective_hamiltonian(model, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(h.mat, np.diag([0.5, -0.5]), atol=1e-15)

    def test_symmetric_for_symmetric_density(self, rng):
        system = build_huckel(8, 0.2, 0.4)
        model = HamiltonianModel(system, coupling_u=0.7)
        h = effective_hamiltonian(model, random_symmetric(rng, 8))
        assert np.abs(h.mat - h.mat.T).max() == 0.0

    def test_dimension_mismatch(self):
        system = build_huckel(4, 0.0, 1.0)
        with pytest.raises(Exception):
            effective_hamiltonian(HamiltonianModel(system), np.eye(3))

    @pytest.mark.parametrize("n", [1, 2, 5, 60])
    def test_matches_loop_reference_bit_for_bit(self, rng, n):
        # the stagger J = diag(+1, -1, ...) written out with a Python loop
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, n)),
                            OverlapMatrix(random_spd(rng, n)))
        u, norm = -0.3, 0.7
        p = random_symmetric(rng, n)
        delta = p - 0.5 * norm * system.s.mat
        phi = (float(delta.sum()) - float(np.trace(delta))) / n
        stagger = np.zeros((n, n))
        np.fill_diagonal(stagger, [(-1.0) ** i for i in range(n)])
        reference = HermitianMatrix(system.h_core.mat + u * (delta + phi * stagger))
        h = effective_hamiltonian(HamiltonianModel(system, coupling_u=u), p, norm)
        np.testing.assert_array_equal(h.mat, reference.mat)


class TestExactGrandFd:
    def test_beta_zero_is_half_overlap(self, rng):
        s = OverlapMatrix(random_spd(rng, 5))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 5)), s)
        p = exact_grand_fd(system, mu=0.3, beta=0.0)
        np.testing.assert_array_equal(p.mat, 0.5 * s.mat)

    def test_two_level_fermi_values(self):
        system = SystemSpec(HermitianMatrix(np.diag([0.0, 1.0])), OverlapMatrix(np.eye(2)))
        p = exact_grand_fd(system, mu=0.5, beta=2.0)
        expected = np.diag([1.0 / (1.0 + math.exp(-1.0)), 1.0 / (1.0 + math.exp(1.0))])
        np.testing.assert_allclose(p.mat, expected, atol=1e-12)

    def test_zero_temperature_projector(self):
        system = SystemSpec(HermitianMatrix(np.diag([0.0, 1.0])), OverlapMatrix(np.eye(2)))
        p = exact_grand_fd(system, mu=0.5, beta=300.0)
        np.testing.assert_allclose(p.mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_occupations_within_unit_interval(self, rng):
        s = OverlapMatrix(random_spd(rng, 7))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 7)), s)
        for beta in (0.0, 0.7, 5.0, 80.0):
            occ = occupation_spectrum(exact_grand_fd(system, 0.1, beta), s)
            assert occ.min() >= -1e-12
            assert occ.max() <= 1.0 + 1e-12

    def test_saturates_at_large_beta(self):
        system = build_huckel(50, 0.569, 0.066)
        mu = default_chemical_potential(system)
        occ = occupation_spectrum(exact_grand_fd(system, mu, 1e4), system.s)
        dist = np.minimum(np.abs(occ), np.abs(occ - 1.0))
        assert dist.max() < 1e-8

    def test_commutes_with_hamiltonian(self, rng):
        s = OverlapMatrix(random_spd(rng, 6))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)), s)
        p = exact_grand_fd(system, 0.2, 3.0)
        si = np.linalg.inv(s.mat)
        q = si @ p.mat
        t = si @ system.h_core.mat
        assert np.linalg.norm(q @ t - t @ q, "fro") < 1e-9

    def test_level_beyond_the_largest_float_is_bracket_error(self):
        # the ring's levels are 1e308 + 2e308 cos(k): the top one is inf
        system = build_huckel(4, 1e308, 1e308)
        assert not np.isfinite(system.levels[0]).all()
        with pytest.raises(BracketError, match="pass the largest float"):
            exact_grand_fd(system, 1e308, 1.0)
        # at beta = 0 no level is read: the state is S/2
        assert np.array_equal(exact_grand_fd(system, 1e308, 0.0).mat, 0.5 * system.s.mat)


class TestExactCanonicalFd:
    def test_beta_zero_half_filling(self):
        system = build_huckel(50, 0.569, 0.066)
        p, mu = exact_canonical_fd(system, 25.0, 0.0)
        np.testing.assert_array_equal(p.mat, 0.5 * np.eye(50))
        assert np.trace(p.mat) == pytest.approx(25.0)
        assert mu == pytest.approx(0.569)

    def test_two_level_symmetric_solve(self):
        system = SystemSpec(HermitianMatrix(np.diag([0.0, 1.0])), OverlapMatrix(np.eye(2)))
        p, mu = exact_canonical_fd(system, 1.0, 5.0)
        assert mu == pytest.approx(0.5, abs=1e-9)
        hi = 1.0 / (1.0 + math.exp(-2.5))
        np.testing.assert_allclose(p.mat, np.diag([hi, 1.0 - hi]), atol=1e-9)
        np.testing.assert_allclose(np.diag(p.mat), [0.924141819979, 0.075858180021], atol=1e-9)

    def test_full_filling_rejected(self, rng):
        s = OverlapMatrix(random_spd(rng, 4))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 4)), s)
        with pytest.raises(InfeasibleEnsembleError):
            exact_canonical_fd(system, float(np.trace(s.mat)), 2.0)

    def test_mu_guess_moves_only_the_search_start(self, data_dir):
        system = load_system(data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat")
        p, mu = exact_canonical_fd(system, 4.0, 3.0)
        # the guess enters through the SCF, one evaluation for a linear model
        model = HamiltonianModel(system)
        for guess in (mu + 1e-3, mu - 0.5, float("nan"), 1e9):
            res = scf_fixed_point(model, Canonical(4.0), 3.0, mu_guess=guess)
            assert res.mu == pytest.approx(mu, abs=1e-9)
            assert np.trace(res.density.mat) == pytest.approx(4.0, abs=1e-10)
            np.testing.assert_allclose(res.density.mat, p.mat, atol=1e-9)

    def test_trace_pinned_over_beta_sweep(self, rng):
        s = OverlapMatrix(random_spd(rng, 6))
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)), s)
        ne = 2.5
        for beta in (0.0, 0.5, 3.0, 30.0, 300.0):
            p, _ = exact_canonical_fd(system, ne, beta)
            assert np.trace(p.mat) == pytest.approx(ne, abs=1e-8)


class TestDefaultChemicalPotential:
    def test_huckel_band_center(self):
        system = build_huckel(50, 0.569, 0.066)
        assert default_chemical_potential(system) == pytest.approx(0.569, abs=1e-12)

    def test_pencil_differs_for_nonorthogonal_basis(self, data_dir):
        system = load_system(data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat")
        literal = default_chemical_potential(system)
        pencil = default_chemical_potential(system, use_pencil=True)
        assert literal != pytest.approx(pencil, abs=1e-6)
        mid = pencil_levels(system.h_core.mat, system.s.mat)[0]
        assert pencil == pytest.approx(0.5 * (mid[3] + mid[4]), abs=1e-12)

    def test_average_halves_the_sum_unless_it_overflows(self, rng):
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 7)), OverlapMatrix(np.eye(7)))
        vals = np.linalg.eigvalsh(system.h_core.mat)
        assert default_chemical_potential(system) == float(0.5 * (vals[2] + vals[3]))
        levels = SystemSpec(HermitianMatrix(np.diag([-1.0, 1.5e308, 1.6e308, 1.7e308])),
                            OverlapMatrix(np.eye(4)))
        assert default_chemical_potential(levels) == 0.5 * 1.5e308 + 0.5 * 1.6e308

    def test_middle_level_beyond_the_largest_float_is_rejected(self):
        # the levels of this finite matrix are 0 and 3.4e308
        system = SystemSpec(HermitianMatrix(np.full((2, 2), 1.7e308)), OverlapMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="no finite average"):
            default_chemical_potential(system)


class TestCachedLevels:
    @pytest.mark.parametrize("identity", [False, True], ids=["overlap", "identity"])
    def test_one_eigh_serves_every_linear_oracle(self, rng, monkeypatch, identity):
        # every exact state and oracle mu of a linear model reads one
        # decomposition of G_core = Z^T H Z, the one the frame already holds
        s = np.eye(6) if identity else random_spd(rng, 6)
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)), OverlapMatrix(s))
        g_core = system.frame[3]
        eigh, decomposed = np.linalg.eigh, []

        def spy(a, *args, **kwargs):
            decomposed.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        model = HamiltonianModel(system)
        for beta in (0.5, 4.0):
            exact_grand_fd(system, 0.1, beta)
            exact_canonical_fd(system, 2.5, beta)
            exact_canonical_mu(system, 2.5, beta, mu_guess=0.1)
            scf_fixed_point(model, GrandCanonical(0.1), beta)
            scf_fixed_point(model, Canonical(2.5), beta, mu_guess=0.1)
        default_chemical_potential(system, use_pencil=True)
        assert len(decomposed) == 1 and decomposed[0] is g_core
        monkeypatch.undo()
        assert system.levels is system.levels
        # the levels are those of the literal reduction Z^T H Z, and the
        # pencil's to rounding
        z = system.s.frame[2]
        literal = np.linalg.eigh(symmetrize(z.T @ system.h_core.mat @ z))[0]
        np.testing.assert_array_equal(system.levels[0], literal)
        fresh = pencil_levels(system.h_core.mat, s)[0]
        np.testing.assert_allclose(system.levels[0], fresh, rtol=0, atol=1e-13)

    def test_oracles_match_a_fresh_decomposition(self, rng):
        system = SystemSpec(HermitianMatrix(random_symmetric(rng, 6)),
                            OverlapMatrix(random_spd(rng, 6)))
        # an equal but distinct system decomposes its levels afresh
        fresh = SystemSpec(HermitianMatrix(system.h_core.mat.copy()), system.s)
        for beta in (0.5, 4.0):
            np.testing.assert_allclose(
                exact_grand_fd(system, 0.1, beta).mat,
                exact_grand_fd(fresh, 0.1, beta).mat, atol=1e-13)
            p, mu = exact_canonical_fd(system, 2.5, beta)
            p_ref, mu_ref = exact_canonical_fd(fresh, 2.5, beta)
            np.testing.assert_allclose(p.mat, p_ref.mat, atol=1e-13)
            assert mu == pytest.approx(mu_ref, abs=1e-12)


class TestScfFixedPoint:
    def test_zero_coupling_single_iteration(self):
        system = build_huckel(6, 0.569, 0.066)
        mu = default_chemical_potential(system)
        res = scf_fixed_point(HamiltonianModel(system, coupling_u=0.0), GrandCanonical(mu), 1.0)
        assert res.iterations == 1
        np.testing.assert_allclose(
            res.density.mat, exact_grand_fd(system, mu, 1.0).mat, atol=1e-14
        )

    @pytest.mark.parametrize("ensemble", [GrandCanonical(-1.0), Canonical(4.0)],
                             ids=["grand", "canonical"])
    def test_beta_zero_state_is_exact_bit_for_bit(self, data_dir, ensemble):
        # at beta = 0 a nonlinear SCF returns (N/2) S itself, as the linear
        # oracles and cool()'s first record do, not Y (N/2) Y^T
        system = load_system(data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat")
        canonical = isinstance(ensemble, Canonical)
        norm = canonical_normalization(4.0, system.s.mat) if canonical else 1.0
        expected = 0.5 * norm * system.s.mat
        exact = (exact_canonical_fd(system, 4.0, 0.0)[0] if canonical
                 else exact_grand_fd(system, -1.0, 0.0))
        assert np.array_equal(exact.mat, expected)
        rng = np.random.default_rng(7)
        for start in (None, expected + 0.01 * random_symmetric(rng, system.dim)):
            res = scf_fixed_point(HamiltonianModel(system, coupling_u=0.05), ensemble, 0.0,
                                  start=start)
            assert np.array_equal(res.density.mat, expected)

    def test_self_consistency_residual(self):
        system = build_huckel(6, 0.569, 0.066)
        mu = default_chemical_potential(system)
        model = HamiltonianModel(system, coupling_u=0.1)
        res = scf_fixed_point(model, GrandCanonical(mu), 1.0, tol=1e-11)
        h_eff = effective_hamiltonian(model, res.density)
        back = exact_grand_fd(SystemSpec(h_eff, system.s), mu, 1.0)
        assert np.abs(res.density.mat - back.mat).max() < 1e-10

    def test_aitken_matches_plain_and_is_no_slower(self):
        system = build_huckel(6, 0.569, 0.066)
        mu = default_chemical_potential(system)
        model = HamiltonianModel(system, coupling_u=0.1)
        tol = 1e-11
        fast = scf_fixed_point(model, GrandCanonical(mu), 1.0, tol=tol, use_aitken=True)
        plain = scf_fixed_point(model, GrandCanonical(mu), 1.0, tol=tol, use_aitken=False)
        assert np.abs(fast.density.mat - plain.density.mat).max() < 10 * tol
        assert fast.iterations <= plain.iterations

    def test_canonical_conserves_trace(self):
        system = build_huckel(8, 0.3, 0.2)
        model = HamiltonianModel(system, coupling_u=0.1)
        res = scf_fixed_point(model, Canonical(4.0), 2.0, tol=1e-11)
        assert np.trace(res.density.mat) == pytest.approx(4.0, abs=1e-8)

    def test_start_at_fixed_point_converges_at_once(self):
        system = build_huckel(8, 0.3, 0.2)
        model = HamiltonianModel(system, coupling_u=0.1)
        cold = scf_fixed_point(model, Canonical(4.0), 2.0, tol=1e-12)
        warm = scf_fixed_point(model, Canonical(4.0), 2.0, tol=1e-12, start=cold.density)
        assert warm.iterations == 1 < cold.iterations
        assert np.abs(warm.density.mat - cold.density.mat).max() < 1e-11
        assert warm.mu == pytest.approx(cold.mu, abs=1e-10)

    def test_each_mu_search_starts_at_the_previous_mu(self, monkeypatch):
        from fermicool import models

        searches = []
        search = models.find_mu_for_occupation

        def spy(*args, guess=None, **kwargs):
            res = search(*args, guess=guess, **kwargs)
            searches.append((guess, res.mu))
            return res

        monkeypatch.setattr(models, "find_mu_for_occupation", spy)
        model = HamiltonianModel(build_huckel(8, 0.3, 0.2), coupling_u=0.1)
        res = scf_fixed_point(model, Canonical(4.0), 2.0, tol=1e-12)
        assert len(searches) == res.iterations > 2
        assert searches[0][0] is None
        assert [g for g, _ in searches[1:]] == [mu for _, mu in searches[:-1]]
        # a linear model's single evaluation starts at the given guess too
        searches.clear()
        guess = res.mu
        res = scf_fixed_point(HamiltonianModel(model.system), Canonical(4.0), 2.0,
                              mu_guess=guess)
        assert res.iterations == 1
        assert searches == [(guess, res.mu)]

    def test_start_shape_checked(self):
        model = HamiltonianModel(build_huckel(6, 0.569, 0.066), coupling_u=0.1)
        with pytest.raises(ValueError, match="start density"):
            scf_fixed_point(model, GrandCanonical(0.5), 1.0, start=np.eye(5))

    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": 0.0}, {"tol": -1.0}, {"tol": float("inf")},
        {"max_iter": 0}, {"max_iter": -3},
    ])
    def test_rejects_meaningless_controls(self, kwargs):
        model = HamiltonianModel(build_huckel(6, 0.569, 0.066), coupling_u=0.1)
        with pytest.raises(ValueError, match="SCF"):
            scf_fixed_point(model, GrandCanonical(0.5), 1.0, **kwargs)

    def test_strong_coupling_falls_back_to_picard_steps(self, monkeypatch):
        # at u = 1 a Newton step from Richardson sweeps can raise the
        # residual; the next step is then a Picard step, and the iteration
        # still reaches the Picard fixed point, in fewer evaluations
        from fermicool import models

        newton_steps = []
        step = models._newton_step

        def spy(*args):
            newton_steps.append(1)
            return step(*args)

        monkeypatch.setattr(models, "_newton_step", spy)
        system = build_huckel(6, 0.569, 0.066)
        model = HamiltonianModel(system, coupling_u=1.0)
        for ensemble in (GrandCanonical(default_chemical_potential(system)), Canonical(3.0)):
            newton_steps.clear()
            tol = 1e-11
            res = scf_fixed_point(model, ensemble, 3.0, tol=tol, max_iter=300)
            picard_steps = res.iterations - 1 - len(newton_steps)
            assert 1 <= picard_steps < len(newton_steps)
            plain = scf_fixed_point(model, ensemble, 3.0, tol=tol, max_iter=300,
                                    use_aitken=False)
            assert np.abs(res.density.mat - plain.density.mat).max() < 10 * tol
            assert res.iterations < plain.iterations

    @pytest.mark.parametrize("use_aitken", [True, False])
    def test_oscillation_is_reported(self, use_aitken):
        system = build_huckel(6, 0.569, 0.066)
        model = HamiltonianModel(system, coupling_u=2.0)
        mu = default_chemical_potential(system)
        with pytest.raises(ScfConvergenceError, match="oscillation"):
            scf_fixed_point(model, GrandCanonical(mu), 5.0, max_iter=300, use_aitken=use_aitken)

    def test_newton_failing_between_picard_steps_is_oscillation(self, monkeypatch):
        # at u = 0.5, beta = 20 the Newton steps lower the residual for a few
        # iterations and then raise it again; each Picard fallback counts
        # toward the oscillation limit, so the run no longer spends max_iter
        from fermicool import models
        from fermicool.models import SCF_OSCILLATION_LIMIT

        evaluations = []
        frame_state = models._frame_state

        def spy(*args):
            evaluations.append(1)
            return frame_state(*args)

        monkeypatch.setattr(models, "_frame_state", spy)
        system = build_huckel(6, 0.569, 0.066)
        model = HamiltonianModel(system, coupling_u=0.5)
        with pytest.raises(ScfConvergenceError, match="oscillation"):
            scf_fixed_point(model, GrandCanonical(default_chemical_potential(system)), 20.0,
                            use_aitken=True)
        assert len(evaluations) <= 2 * SCF_OSCILLATION_LIMIT + 5

    @staticmethod
    def failing_fd_state(monkeypatch, error, fails):
        # F raises ``error`` at the evaluations for which fails(call number,
        # whether a Newton step was just taken) holds
        from fermicool import models

        frame_state, newton_step = models._frame_state, models._newton_step
        calls, trial = [], []

        def newton_spy(*args):
            trial.append(True)
            return newton_step(*args)

        def fd_spy(*args):
            calls.append(bool(trial))
            trial.clear()
            if fails(len(calls), calls[-1]):
                raise error
            return frame_state(*args)

        monkeypatch.setattr(models, "_newton_step", newton_spy)
        monkeypatch.setattr(models, "_frame_state", fd_spy)
        return calls

    FAILURES = [np.linalg.LinAlgError("Eigenvalues did not converge"),
                MuConvergenceError(0.5, 200)]

    @pytest.mark.parametrize("error", FAILURES, ids=["pencil", "mu"])
    def test_failed_newton_iterate_is_a_picard_fallback(self, monkeypatch, error):
        # the first Newton iterate fails: its step becomes a Picard step, and
        # the SCF reaches the fixed point with one extra evaluation
        model = HamiltonianModel(build_huckel(6, 0.569, 0.066), coupling_u=0.1)
        ref = scf_fixed_point(model, Canonical(3.0), 1.0, tol=1e-11)
        calls = self.failing_fd_state(monkeypatch, error, lambda n, newton: n == 2)
        res = scf_fixed_point(model, Canonical(3.0), 1.0, tol=1e-11)
        assert calls[1] and len(calls) == res.iterations + 1
        assert np.abs(res.density.mat - ref.density.mat).max() < 1e-10

    @pytest.mark.parametrize("error", FAILURES, ids=["pencil", "mu"])
    def test_newton_iterates_that_always_fail_are_oscillation(self, monkeypatch, error):
        # every fallback counts toward the oscillation limit; plain Picard
        # steps converge here in 19 iterations
        from fermicool.models import SCF_OSCILLATION_LIMIT

        model = HamiltonianModel(build_huckel(6, 0.569, 0.066), coupling_u=0.3)
        calls = self.failing_fd_state(monkeypatch, error, lambda n, newton: newton)
        with pytest.raises(ScfConvergenceError, match="oscillation"):
            scf_fixed_point(model, Canonical(3.0), 3.0, tol=1e-11)
        assert sum(calls) == SCF_OSCILLATION_LIMIT

    @pytest.mark.parametrize("error", FAILURES, ids=["pencil", "mu"])
    def test_failed_picard_iterate_ends_the_scf(self, monkeypatch, error):
        model = HamiltonianModel(build_huckel(6, 0.569, 0.066), coupling_u=0.1)
        self.failing_fd_state(monkeypatch, error, lambda n, newton: n == 3)
        with pytest.raises(ScfConvergenceError, match="iterate 3, a Picard step") as err:
            scf_fixed_point(model, Canonical(3.0), 1.0, use_aitken=False)
        assert err.value.iterations == 2
        cause = "the pencil of H(P)" if isinstance(error, ValueError) else "mu search"
        assert cause in str(err.value)

    @pytest.mark.parametrize("error", FAILURES, ids=["pencil", "mu"])
    def test_failure_at_the_start_density_keeps_its_error(self, monkeypatch, error):
        model = HamiltonianModel(build_huckel(6, 0.569, 0.066), coupling_u=0.1)
        self.failing_fd_state(monkeypatch, error, lambda n, newton: n == 1)
        with pytest.raises(type(error)):
            scf_fixed_point(model, Canonical(3.0), 1.0)

    def test_newton_non_convergence_reports_residual(self):
        system = build_huckel(6, 0.569, 0.066)
        mu = default_chemical_potential(system)
        model = HamiltonianModel(system, coupling_u=0.2)
        with pytest.raises(ScfConvergenceError, match="3 iterations") as err:
            scf_fixed_point(model, GrandCanonical(mu), 5.0, tol=1e-15, max_iter=3)
        assert err.value.residual > 0

    def test_non_convergence_reports_residual(self):
        system = build_huckel(6, 0.569, 0.066)
        mu = default_chemical_potential(system)
        model = HamiltonianModel(system, coupling_u=0.2)
        with pytest.raises(ScfConvergenceError) as err:
            scf_fixed_point(model, GrandCanonical(mu), 5.0, tol=1e-15, max_iter=3,
                            use_aitken=False)
        assert err.value.residual > 0
