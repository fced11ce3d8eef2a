import math

import numpy as np
import pytest
import scipy.linalg

from fermicool import (
    BracketError,
    DimensionMismatchError,
    EigenPair,
    HermitianMatrix,
    InfeasibleEnsembleError,
    NotPositiveDefiniteError,
    OverlapMatrix,
    aitken_accelerate,
    build_huckel,
    fermi,
    find_mu_for_occupation,
    generalized_eigh,
    matrix_function,
    occupation,
)
from conftest import random_spd, random_symmetric


class TestHermitianMatrix:
    def test_symmetrizes_on_construction(self):
        m = HermitianMatrix([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(m.mat, [[1.0, 1.0], [1.0, 3.0]])
        assert np.abs(m.mat - m.mat.T).max() == 0.0

    def test_immutable(self):
        m = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            HermitianMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            HermitianMatrix([[1.0, 0.0], [bad, 1.0]])


    def test_chain_recipe_holds_no_subnormal_entry(self):
        # the Gaussian tails of a 60-site chain fall below the smallest
        # normal double, e.g. exp(-0.5 * 38**2) ~ 3e-314
        i = np.arange(60)
        d2 = (i[:, None] - i[None, :]) ** 2.0
        h, s = -0.35 * np.exp(-0.4 * d2), np.exp(-0.5 * d2)
        tiny = np.finfo(float).tiny
        assert ((h != 0) & (np.abs(h) < tiny)).sum() > 0
        assert ((s != 0) & (np.abs(s) < tiny)).sum() > 0
        for m in (HermitianMatrix(h).mat, OverlapMatrix(s).mat):
            assert not ((m != 0) & (np.abs(m) < tiny)).any()
        # what is dropped is exactly the subnormal tail
        normal = np.abs(s) >= tiny
        assert np.array_equal(OverlapMatrix(s).mat[normal], s[normal])


class TestOverlapMatrix:
    def test_rejects_indefinite_naming_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            OverlapMatrix(np.diag([1.0, -0.1]))
        assert err.value.eigenvalue == pytest.approx(-0.1)
        assert "-0.1" in str(err.value)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            OverlapMatrix(np.diag([1.0, np.nan]))

    def test_sqrt(self, rng):
        s = OverlapMatrix(random_spd(rng, 5))
        np.testing.assert_allclose(s.sqrt @ s.sqrt, s.mat, atol=1e-12)
        np.testing.assert_allclose(s.sqrt @ s.inv_sqrt, np.eye(5), atol=1e-12)
        assert np.array_equal(s.sqrt, s.sqrt.T)

    def test_cached_inverse(self, rng):
        s = OverlapMatrix(random_spd(rng, 7))
        residual = np.abs(s.mat @ s.inverse - np.eye(7)).max()
        assert residual < 1e-10
        np.testing.assert_allclose(s.inverse, s.inverse.T, atol=0)

    def test_inv_sqrt(self, rng):
        s = OverlapMatrix(random_spd(rng, 5))
        x = s.inv_sqrt
        np.testing.assert_allclose(x @ s.mat @ x, np.eye(5), atol=1e-12)


class TestGeneralizedEigh:
    def test_identity_overlap_diag(self):
        eig = generalized_eigh(np.diag([0.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(eig.values, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-14)

    def test_two_by_two_closed_form(self):
        a, g = 0.3, 0.2
        eig = generalized_eigh([[a, g], [g, a]], np.eye(2))
        np.testing.assert_allclose(eig.values, [a - g, a + g], atol=1e-14)
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(np.abs(eig.vectors), [[r, r], [r, r]], atol=1e-14)

    def test_scaled_overlap_hand_solved(self):
        # H v = lambda S v with H = I, S = 2I gives lambda = 1/2 and
        # S-normalized vectors with entries 1/sqrt(2).
        eig = generalized_eigh(np.eye(2), np.diag([2.0, 2.0]))
        np.testing.assert_allclose(eig.values, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2) / math.sqrt(2.0), atol=1e-14)

    def test_matches_scipy_oracle(self, rng):
        for _ in range(5):
            h = random_symmetric(rng, 9)
            s = random_spd(rng, 9)
            eig = generalized_eigh(h, s)
            ref = scipy.linalg.eigh(h, s, eigvals_only=True)
            np.testing.assert_allclose(eig.values, ref, atol=1e-10)

    def test_s_orthonormality_and_reconstruction(self, rng):
        h = random_symmetric(rng, 8)
        s = random_spd(rng, 8)
        eig = generalized_eigh(h, s)
        np.testing.assert_allclose(eig.vectors.T @ s @ eig.vectors, np.eye(8), atol=1e-10)
        target = np.linalg.solve(s, h)
        recon = (eig.vectors * eig.values) @ eig.inv
        assert np.linalg.norm(recon - target) / np.linalg.norm(target) < 1e-9

    def test_eigenvalue_equation_residual(self, rng):
        h = random_symmetric(rng, 8)
        s = random_spd(rng, 8)
        eig = generalized_eigh(h, s)
        residual = h @ eig.vectors - s @ eig.vectors * eig.values
        assert np.abs(residual).max() / np.linalg.norm(h) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            generalized_eigh(np.eye(3), np.eye(2))

    def test_rejects_indefinite_overlap(self):
        with pytest.raises(NotPositiveDefiniteError):
            generalized_eigh(np.eye(2), np.diag([1.0, -2.0]))


class TestMatrixFunction:
    def test_identity_function(self, rng):
        h = random_symmetric(rng, 6)
        s = random_spd(rng, 6)
        eig = generalized_eigh(h, s)
        np.testing.assert_allclose(
            matrix_function(eig, lambda x: x), np.linalg.solve(s, h), atol=1e-10
        )

    def test_exponential_oracle(self):
        eig = generalized_eigh(np.diag([0.0, 1.0]), np.eye(2))
        out = matrix_function(eig, lambda x: np.exp(-x))
        np.testing.assert_allclose(out, np.diag([1.0, math.exp(-1.0)]), atol=1e-12)

    def test_fermi_oracle(self):
        # scalar values 1/(1+exp(2(x-0.5))) at x = 0, 1
        eig = generalized_eigh(np.diag([0.0, 1.0]), np.eye(2))
        out = matrix_function(eig, lambda x: 1.0 / (1.0 + np.exp(2.0 * (x - 0.5))))
        expected = np.diag([1.0 / (1.0 + math.exp(-1.0)), 1.0 / (1.0 + math.exp(1.0))])
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(np.diag(expected), [0.731058578630, 0.268941421370], atol=1e-12)

    def test_rejects_non_finite(self):
        eig = generalized_eigh(np.diag([0.0, 800.0]), np.eye(2))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            matrix_function(eig, lambda x: np.exp(x))

    def test_composition(self, rng):
        h = random_symmetric(rng, 7)
        eig = generalized_eigh(h, np.eye(7))
        f = lambda x: 1.0 / (1.0 + x * x)
        g = lambda x: np.tanh(x)
        once = matrix_function(eig, lambda x: f(g(x)))
        inner = matrix_function(eig, g)
        twice = matrix_function(generalized_eigh(inner, np.eye(7)), f)
        np.testing.assert_allclose(once, twice, atol=1e-9)


class TestFermi:
    def test_moderate_values(self):
        for x in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert fermi(x) == pytest.approx(1.0 / (1.0 + math.exp(x)), abs=1e-15)

    def test_saturation_without_overflow(self):
        with np.errstate(over="raise"):
            assert fermi(80000.0) == 0.0
            assert fermi(-80000.0) == 1.0

    def test_elementwise(self):
        out = fermi(np.array([0.0, 1e5, -1e5]))
        np.testing.assert_allclose(out, [0.5, 0.0, 1.0], atol=1e-15)


class TestFindMu:
    def test_two_level_midgap(self):
        eig = generalized_eigh(np.diag([0.0, 1.0]), np.eye(2))
        res = find_mu_for_occupation(eig, np.eye(2), beta=200.0, target_ne=1.0)
        assert not res.degenerate
        assert res.mu == pytest.approx(0.5, abs=1e-6)

    def test_beta_zero_degenerate(self, rng):
        h = random_symmetric(rng, 4)
        eig = generalized_eigh(h, np.eye(4))
        res = find_mu_for_occupation(eig, np.eye(4), beta=0.0, target_ne=2.0)
        assert res.degenerate
        # the trace is mu-independent at beta = 0 and equals dim/2
        for mu in (-5.0, res.mu, 7.0):
            assert occupation(eig, np.eye(4), 0.0, mu) == pytest.approx(2.0, abs=1e-12)

    def test_huckel_half_filling_lands_at_band_center(self):
        system = build_huckel(50, 0.569, 0.066)
        eig = generalized_eigh(system.h_core, system.s)
        res = find_mu_for_occupation(eig, system.s.mat, beta=300.0, target_ne=25.0)
        assert res.mu == pytest.approx(0.569, abs=1e-6)

    def test_newton_steps_converge_in_few_iterations(self):
        # bisection needs about 35 halvings of this bracket to reach 1e-10
        system = build_huckel(50, 0.569, 0.066)
        eig = generalized_eigh(system.h_core, system.s)
        res = find_mu_for_occupation(eig, system.s.mat, beta=300.0, target_ne=20.0)
        assert res.iterations <= 8
        assert abs(occupation(eig, system.s.mat, 300.0, res.mu) - 20.0) < 1e-10

    def test_guess_near_root_saves_iterations(self):
        system = build_huckel(50, 0.569, 0.066)
        eig = generalized_eigh(system.h_core, system.s)
        cold = find_mu_for_occupation(eig, system.s.mat, beta=300.0, target_ne=20.0)
        warm = find_mu_for_occupation(eig, system.s.mat, beta=300.0, target_ne=20.0,
                                      guess=cold.mu + 1e-6)
        assert warm.iterations < cold.iterations
        assert abs(occupation(eig, system.s.mat, 300.0, warm.mu) - 20.0) < 1e-10

    def test_underflowed_slope_raises_no_warning(self, recwarn):
        # at the midpoint 0.72 the slope is beta e^-720, a subnormal, and the
        # Newton step overflows; a numpy target used to make that a warning
        eig = generalized_eigh(np.diag([0.0, 1.44]), np.eye(2))
        res = find_mu_for_occupation(eig, np.eye(2), beta=1000.0, target_ne=np.float64(0.5))
        assert res.residual < 1e-10
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("guess", [math.nan, math.inf, -math.inf, -100.0, 100.0])
    def test_guess_outside_bracket_starts_at_midpoint(self, guess):
        system = build_huckel(50, 0.569, 0.066)
        eig = generalized_eigh(system.h_core, system.s)
        cold = find_mu_for_occupation(eig, system.s.mat, beta=300.0, target_ne=20.0)
        res = find_mu_for_occupation(eig, system.s.mat, beta=300.0, target_ne=20.0,
                                     guess=guess)
        assert res == cold

    def test_occupation_monotone_in_mu(self, rng):
        for _ in range(4):
            dim = int(rng.integers(3, 9))
            eig = generalized_eigh(random_symmetric(rng, dim), random_spd(rng, dim))
            s = random_spd(rng, dim)
            eig = generalized_eigh(random_symmetric(rng, dim), s)
            beta = float(rng.uniform(0.1, 20.0))
            mus = rng.uniform(-6.0, 6.0, size=(100, 2))
            for a, b in mus:
                lo, hi = min(a, b), max(a, b)
                assert occupation(eig, s, beta, hi) >= occupation(eig, s, beta, lo) - 1e-12

    def test_target_out_of_range(self):
        eig = generalized_eigh(np.diag([0.0, 1.0]), np.eye(2))
        with pytest.raises(InfeasibleEnsembleError):
            find_mu_for_occupation(eig, np.eye(2), beta=1.0, target_ne=2.5)
        with pytest.raises(InfeasibleEnsembleError):
            find_mu_for_occupation(eig, np.eye(2), beta=1.0, target_ne=0.0)

    def test_bracket_does_not_straddle(self):
        # at beta = 1 the bracket caps the occupation strictly below full
        # filling, so a target inside (0, Tr[S]) but above the cap must fail
        eig = generalized_eigh(np.diag([0.0, 1.0]), np.eye(2))
        with pytest.raises(BracketError, match="range"):
            find_mu_for_occupation(eig, np.eye(2), beta=1.0, target_ne=1.9999999)


class TestAitken:
    def test_geometric_is_exact(self):
        assert aitken_accelerate(0.0, 0.5, 0.75) == pytest.approx(1.0, abs=1e-15)

    def test_constant_passthrough(self):
        assert aitken_accelerate(3.0, 3.0, 3.0) == 3.0

    def test_closed_form_geometric(self):
        # x_k = 2 + 3 (0.2)^k
        assert aitken_accelerate(5.0, 2.6, 2.12) == pytest.approx(2.0, abs=1e-12)

    def test_exact_on_any_geometric_sequence(self, rng):
        for _ in range(50):
            a = float(rng.uniform(-5, 5))
            b = float(rng.uniform(0.1, 5) * rng.choice([-1, 1]))
            r = float(rng.uniform(-0.95, 0.95))
            if abs(r) < 1e-3:
                continue
            xs = [a + b * r**k for k in range(3)]
            assert aitken_accelerate(*xs) == pytest.approx(a, abs=1e-12 * max(1, abs(a)))

    def test_elementwise_on_matrices(self, rng):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        r = 0.3
        out = aitken_accelerate(a + b, a + b * r, a + b * r * r)
        np.testing.assert_allclose(out, a, atol=1e-12)
