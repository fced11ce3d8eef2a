import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fermicool import (
    BracketError,
    DimensionMismatchError,
    HermitianMatrix,
    InfeasibleEnsembleError,
    NotPositiveDefiniteError,
    OverlapMatrix,
    build_huckel,
    fermi,
    find_mu_for_occupation,
    occupation_spectrum,
    step_kraus1,
    step_kraus2,
    symmetrize,
)
from fermicool.errors import OverlapTraceError
from fermicool.matcore import IdentityFrame, generalized_eigh
from conftest import explicit_frame, pencil_levels, random_spd, random_symmetric, search_occupation


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

    def test_rejects_a_trace_past_the_largest_float(self):
        # every entry and eigenvalue is finite, but full filling Tr[S] is not
        with np.errstate(all="raise"):
            with pytest.raises(OverlapTraceError, match=r"Tr\[S\] passes the largest float"):
                OverlapMatrix(1e308 * np.eye(8))
            assert OverlapMatrix(1e307 * np.eye(8)).frame.s[0] == pytest.approx(1e307)

    def test_is_the_hermitian_matrix_it_was_given(self, rng):
        # an overlap is a HermitianMatrix: one built from a HermitianMatrix
        # symmetrizes it again, which keeps a symmetric matrix's bits
        h = HermitianMatrix(random_spd(rng, 5))
        s = OverlapMatrix(h)
        assert isinstance(s, HermitianMatrix) and s.dim == 5
        assert s.mat.tobytes() == h.mat.tobytes() and not s.mat.flags.writeable

    def test_frame_factors_the_overlap(self, rng):
        s = OverlapMatrix(random_spd(rng, 5))
        vals, y, z = s.frame.s, s.frame.y, s.frame.z
        np.testing.assert_allclose(y @ y.T, s.mat, atol=1e-12)
        np.testing.assert_allclose(z.T @ y, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(y.T @ y, np.diag(vals), atol=1e-12)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(s.mat), rtol=1e-12)

    def test_frame_orthogonalizes(self, rng):
        s = OverlapMatrix(random_spd(rng, 5))
        z = s.frame.z
        np.testing.assert_allclose(z.T @ s.mat @ z, np.eye(5), atol=1e-12)
        assert not (z.flags.writeable or s.frame.y.flags.writeable)

    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_identity_overlap_has_no_frame_change(self, rng, n):
        # the identity's frame forms no Y or Z: its occupation spectrum is
        # eigvalsh(P) itself, retains nothing, and its S^-1 is the identity
        s = OverlapMatrix(np.eye(n))
        assert isinstance(s.frame, IdentityFrame)
        assert not (hasattr(s.frame, "y") or hasattr(s.frame, "z"))
        p = random_symmetric(rng, n)
        assert occupation_spectrum(p, s).tobytes() == np.linalg.eigvalsh(p).tobytes()
        if n == 200:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                occupation_spectrum(p, s)
                occupation_spectrum(p, s)
                retained = tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()
            assert retained < 8 * n * n
        p, h = random_spd(rng, n, lo=0.1, hi=0.4), random_symmetric(rng, n)
        for step in (step_kraus1, step_kraus2):
            got = step(p, h, np.eye(n), 0.3, 0.05)
            want = step(p, h, np.eye(n), 0.3, 0.05, s_inv=np.eye(n))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("carrier", [HermitianMatrix, OverlapMatrix])
def test_array_conversion_honours_copy(carrier):
    m = carrier([[2.0, 0.5], [0.5, 1.0]])
    # a copy is writable and leaves the frozen matrix alone
    copied = np.array(m)
    assert not np.shares_memory(copied, m.mat)
    copied[0, 0] = 7.0
    assert m.mat[0, 0] == 2.0
    # a view is handed out wherever no copy is asked for or needed
    assert np.shares_memory(np.asarray(m), m.mat)
    assert np.shares_memory(np.asarray(m, dtype=float), m.mat)
    with pytest.raises(ValueError):
        np.array(m, dtype=np.float32, copy=False)


def frame_pencil(h, s):
    """Levels and S-orthonormal vectors V = Z C of the pencil (H, S) from
    generalized_eigh of its frame matrix Z^T H Z."""
    z = explicit_frame(OverlapMatrix(s))[2]
    values, c = generalized_eigh(symmetrize(z.T @ h @ z))
    return values, z @ c


class TestGeneralizedEigh:
    """The symmetric-definite pencil solved in the overlap's frame: its
    vectors from generalized_eigh, and the values of (P, S), the occupation
    numbers, eigenvalues of S^-1 P, by one eigvalsh."""

    def test_identity_overlap_diag(self):
        occ = occupation_spectrum(np.diag([0.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(occ, [0.0, 1.0], atol=1e-14)

    def test_two_by_two_closed_form(self):
        a, g = 0.3, 0.2
        occ = occupation_spectrum(np.array([[a, g], [g, a]]), np.eye(2))
        np.testing.assert_allclose(occ, [a - g, a + g], atol=1e-14)

    def test_scaled_overlap_hand_solved(self):
        # P v = n S v with P = I, S = 2I gives n = 1/2 twice
        occ = occupation_spectrum(HermitianMatrix(np.eye(2)), OverlapMatrix(np.diag([2.0, 2.0])))
        np.testing.assert_allclose(occ, [0.5, 0.5], atol=1e-14)

    def test_matches_scipy_oracle(self, rng):
        for _ in range(5):
            p = random_symmetric(rng, 9)
            s = random_spd(rng, 9)
            ref = scipy.linalg.eigh(p, s, eigvals_only=True)
            np.testing.assert_allclose(occupation_spectrum(p, s), ref, atol=1e-10)
            np.testing.assert_allclose(occupation_spectrum(HermitianMatrix(p), OverlapMatrix(s)),
                                       ref, atol=1e-10)

    def test_s_orthonormality_and_reconstruction(self, rng):
        h = random_symmetric(rng, 8)
        s = random_spd(rng, 8)
        values, vectors = frame_pencil(h, s)
        np.testing.assert_allclose(vectors.T @ s @ vectors, np.eye(8), atol=1e-10)
        target = np.linalg.solve(s, h)
        recon = (vectors * values) @ (vectors.T @ s)
        assert np.linalg.norm(recon - target) / np.linalg.norm(target) < 1e-9

    def test_eigenvalue_equation_residual(self, rng):
        h = random_symmetric(rng, 8)
        s = random_spd(rng, 8)
        values, vectors = frame_pencil(h, s)
        np.testing.assert_allclose(values, scipy.linalg.eigh(h, s, eigvals_only=True),
                                   atol=1e-10)
        residual = h @ vectors - s @ vectors * values
        assert np.abs(residual).max() / np.linalg.norm(h) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            occupation_spectrum(np.eye(3), np.eye(2))
        with pytest.raises(DimensionMismatchError):
            occupation_spectrum(np.ones((2, 3)), OverlapMatrix(np.eye(2)))

    def test_rejects_indefinite_overlap(self):
        with pytest.raises(NotPositiveDefiniteError):
            occupation_spectrum(np.eye(2), np.diag([1.0, -2.0]))

    def test_one_eigvalsh_and_no_eigenvectors(self, rng, monkeypatch):
        s = OverlapMatrix(random_spd(rng, 6))
        p = HermitianMatrix(random_symmetric(rng, 6))
        ref = scipy.linalg.eigh(p.mat, s.mat, eigvals_only=True)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def spy(*args, _name=name, _inner=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        occ = occupation_spectrum(p, s)
        assert calls == ["eigvalsh"]
        np.testing.assert_allclose(occ, ref, atol=1e-10)


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
        res = find_mu_for_occupation(np.array([0.0, 1.0]), np.ones(2), beta=200.0, target_ne=1.0)
        assert res.mu == pytest.approx(0.5, abs=1e-6)

    def test_beta_zero_degenerate(self, rng):
        values = np.linalg.eigvalsh(random_symmetric(rng, 4))
        weights = np.ones(4)
        # the trace is mu-independent at beta = 0 and equals dim/2, so there
        # is no mu to search for (the beta = 0 state takes Tr[H] / Tr[S])
        with pytest.raises(ValueError, match="beta must be positive"):
            find_mu_for_occupation(values, weights, beta=0.0, target_ne=2.0)
        for mu in (-5.0, 7.0):
            assert search_occupation(values, weights, 0.0, mu) == pytest.approx(2.0, abs=1e-12)

    def test_huckel_half_filling_lands_at_band_center(self):
        values = np.linalg.eigvalsh(build_huckel(50, 0.569, 0.066).h_core.mat)
        res = find_mu_for_occupation(values, np.ones(50), beta=300.0, target_ne=25.0)
        assert res.mu == pytest.approx(0.569, abs=1e-6)

    def test_newton_steps_converge_in_few_iterations(self):
        # bisection needs about 35 halvings of this bracket to reach 1e-10
        values = np.linalg.eigvalsh(build_huckel(50, 0.569, 0.066).h_core.mat)
        weights = np.ones(50)
        res = find_mu_for_occupation(values, weights, beta=300.0, target_ne=20.0)
        assert res.iterations <= 8
        assert abs(search_occupation(values, weights, 300.0, res.mu) - 20.0) < 1e-10

    def test_guess_near_root_saves_iterations(self):
        values = np.linalg.eigvalsh(build_huckel(50, 0.569, 0.066).h_core.mat)
        weights = np.ones(50)
        cold = find_mu_for_occupation(values, weights, beta=300.0, target_ne=20.0)
        warm = find_mu_for_occupation(values, weights, beta=300.0, target_ne=20.0,
                                      guess=cold.mu + 1e-6)
        assert warm.iterations < cold.iterations
        assert abs(search_occupation(values, weights, 300.0, warm.mu) - 20.0) < 1e-10

    @pytest.mark.parametrize("end", [-1, 1])
    def test_root_at_a_bracket_end_costs_no_bisection(self, end):
        # one level at 0.3 and beta = 0.01: the bracket is 0.3 -+ 10, and the
        # target is the occupation at one end, so the root lies on that end
        values, weights = np.array([0.3]), np.ones(1)
        root = 0.3 + 10.0 * end
        target = search_occupation(values, weights, 0.01, root)
        cold = find_mu_for_occupation(values, weights, beta=0.01, target_ne=target)
        for guess in (root - 1e-6, root + 1e-6):
            warm = find_mu_for_occupation(values, weights, beta=0.01, target_ne=target,
                                          guess=guess)
            assert warm.iterations <= cold.iterations
            assert warm.residual < 1e-10
            assert abs(search_occupation(values, weights, 0.01, warm.mu) - target) < 1e-10

    def test_non_finite_bracket_is_a_bracket_error(self, recwarn):
        # a level past the largest float puts the bracket end at inf
        with pytest.raises(BracketError, match="not finite"):
            find_mu_for_occupation(np.array([1.0, np.inf]), np.ones(2), beta=1.0, target_ne=1.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_underflowed_slope_raises_no_warning(self, recwarn):
        # at the midpoint 0.72 the slope is beta e^-720, a subnormal, and the
        # Newton step overflows; a numpy target used to make that a warning
        res = find_mu_for_occupation(np.array([0.0, 1.44]), np.ones(2), beta=1000.0,
                                     target_ne=np.float64(0.5))
        assert res.residual < 1e-10
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("guess", [math.nan, math.inf, -math.inf, -100.0, 100.0])
    def test_guess_outside_bracket_starts_at_midpoint(self, guess):
        values = np.linalg.eigvalsh(build_huckel(50, 0.569, 0.066).h_core.mat)
        weights = np.ones(50)
        cold = find_mu_for_occupation(values, weights, beta=300.0, target_ne=20.0)
        res = find_mu_for_occupation(values, weights, beta=300.0, target_ne=20.0, guess=guess)
        assert res == cold

    def test_occupation_monotone_in_mu(self, rng):
        for _ in range(4):
            dim = int(rng.integers(3, 9))
            values, weights = pencil_levels(random_symmetric(rng, dim), random_spd(rng, dim))
            beta = float(rng.uniform(0.1, 20.0))
            mus = rng.uniform(-6.0, 6.0, size=(100, 2))
            for a, b in mus:
                lo, hi = min(a, b), max(a, b)
                assert (search_occupation(values, weights, beta, hi)
                        >= search_occupation(values, weights, beta, lo) - 1e-12)

    def test_target_out_of_range(self):
        values, weights = np.array([0.0, 1.0]), np.ones(2)
        with pytest.raises(InfeasibleEnsembleError):
            find_mu_for_occupation(values, weights, beta=1.0, target_ne=2.5)
        with pytest.raises(InfeasibleEnsembleError):
            find_mu_for_occupation(values, weights, beta=1.0, target_ne=0.0)
        # full filling is normalization times the weights' sum, Tr[S]
        with pytest.raises(InfeasibleEnsembleError):
            find_mu_for_occupation(values, 0.5 * weights, beta=1.0, target_ne=1.0)

    def test_levels_and_weights_are_checked_arrays(self):
        # plain lists are taken as arrays; levels and weights must pair up
        res = find_mu_for_occupation([0.0, 1.0], [1.0, 1.0], beta=200.0, target_ne=1.0)
        assert res == find_mu_for_occupation(np.array([0.0, 1.0]), np.ones(2), beta=200.0,
                                             target_ne=1.0)
        for weights in (np.ones(3), np.ones((2, 1))):
            with pytest.raises(DimensionMismatchError, match="weights"):
                find_mu_for_occupation(np.array([0.0, 1.0]), weights, beta=1.0, target_ne=1.0)

    def test_bracket_does_not_straddle(self):
        # at beta = 1 the bracket caps the occupation strictly below full
        # filling, so a target inside (0, Tr[S]) but above the cap must fail
        with pytest.raises(BracketError, match="range"):
            find_mu_for_occupation(np.array([0.0, 1.0]), np.ones(2), beta=1.0,
                                   target_ne=1.9999999)
