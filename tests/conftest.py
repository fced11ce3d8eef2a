from pathlib import Path

import numpy as np
import pytest

from fermicool import Canonical, HermitianMatrix, canonical_normalization, matcore, models

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Derandomized and bounded: the property tests draw the same examples on
    # every run and keep the suite deterministic.
    settings.register_profile("fermicool", derandomize=True, max_examples=40,
                              deadline=None, database=None)
    settings.load_profile("fermicool")


#: Largest relative move of the final P, occupations (over N) and canonical
#: mu under the shift and relabel laws and the mu trace's scale law, fixed
#: before the comparison; through the CLI, of each output file's largest
#: |x|.  Measured: under the shift law 1.3e-15 on 30 systems of dimension
#: 2-9 at beta 3, and 2.2e-15 over 3000 random runs drawn as in
#: tests/test_properties.py (dimension 1-6, every scheme, ensemble and
#: coupling, c in [-2, 2]); under the relabel law 2.1e-15 on the 30
#: systems; under the oracle's shift law 3.2e-14 over about 3000 SCF pairs
#: of dimension 1-8 at beta 0.5 and 5; through the CLI 9.8e-15 on the
#: sample files (tests/test_cli.py).
SYMMETRY_RTOL = 1e-13


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


#: The sample matrix files of the repository.
DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def random_spd(rng, dim, lo=0.5, hi=2.0):
    """Random symmetric positive-definite matrix with spectrum in [lo, hi]."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    return (q * rng.uniform(lo, hi, size=dim)) @ q.T


def random_symmetric(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) * scale
    return 0.5 * (a + a.T)


def explicit_frame(s):
    """The canonical-orthogonalization frame (s, Y, Z) of the overlap ``s``,
    formed here and not by the library: from np.linalg.eigh(S) =
    U diag(s) U^T, Y = U s^1/2 and Z = U s^-1/2, so that Y Y^T = S and
    Z^T S Z = 1."""
    vals, u = np.linalg.eigh(np.asarray(s, dtype=float))
    root = np.sqrt(vals)
    return vals, u * root, u / root


def cholesky_occupations(p, s):
    """The ascending eigenvalues of S^-1 P, formed here and not by the
    library: with the Cholesky factor S = L L^T they are those of the
    symmetric L^-1 P L^-T, symmetrized before its ``eigvalsh``."""
    chol = np.linalg.cholesky(np.asarray(s, dtype=float))
    x = np.linalg.solve(chol, np.linalg.solve(chol, np.asarray(p, dtype=float)).T)
    return np.linalg.eigvalsh(0.5 * (x + x.T))


def s_frame_response(model, dp):
    """The toy model's linear response dH(dP) = u (dP + phi(dP) J), written
    out here and not by the library: phi(dP) is the sum of the off-diagonal
    entries of dP over n, and the stagger J = diag(+1, -1, ...) is filled by
    a Python loop."""
    n = dp.shape[0]
    phi = (float(dp.sum()) - float(np.trace(dp))) / n
    stagger = np.zeros((n, n))
    np.fill_diagonal(stagger, [(-1.0) ** i for i in range(n)])
    return model.coupling_u * (dp + phi * stagger)


def s_frame_hamiltonian(model, p, normalization=1.0):
    """The model's Hamiltonian H(P) = H_core + dH(P - (N/2) S) at an S-frame
    density P (:func:`s_frame_response`); H_core itself for a linear model."""
    system = model.system
    if model.is_linear:
        return system.h_core
    delta = np.asarray(p, dtype=float) - 0.5 * normalization * system.s.mat
    return HermitianMatrix(system.h_core.mat + s_frame_response(model, delta))


def pencil_levels(h, s):
    """Levels and occupation weights of the pencil (H, S) from scipy's
    generalized solver, independent of the library: the values lambda_k and
    w_k = ||S v_k||^2 of the S-orthonormal eigenvectors v_k, so that
    Tr[S f(S^-1 H)] = sum_k w_k f(lambda_k)."""
    import scipy.linalg

    values, v = scipy.linalg.eigh(np.asarray(h, dtype=float), np.asarray(s, dtype=float))
    return values, ((np.asarray(s, dtype=float) @ v) ** 2).sum(axis=0)


def search_occupation(values, weights, beta, mu, normalization=1.0):
    """Electron count N sum_k w_k f(beta (lambda_k - mu)) through the evaluator the mu search uses."""
    with np.errstate(over="ignore"):  # as in the search
        return matcore._occupation_and_slope(weights, values, beta, mu, normalization)[0]


def frame_scf(model, ensemble, beta, start=None, mu_guess=None, tol=1e-10, max_iter=200,
              use_aitken=True):
    """The SCF loop that scf_fixed_point and scf_mu_trace share, from the frame
    state ``start`` with the first mu search at ``mu_guess`` (None: the cold
    start and the bracket midpoint); returns (F, mu, iterations, occupations)."""
    s = model.system.s.mat
    norm = (canonical_normalization(ensemble.n_electrons, s) if isinstance(ensemble, Canonical)
            else 1.0)
    return models._frame_scf(model, ensemble, beta, norm, start, mu_guess, tol, max_iter,
                             use_aitken)
