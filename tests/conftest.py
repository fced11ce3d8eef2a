from pathlib import Path

import numpy as np
import pytest

from fermicool import matcore

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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def data_dir():
    return Path(__file__).resolve().parents[1] / "data"


def random_spd(rng, dim, lo=0.5, hi=2.0):
    """Random symmetric positive-definite matrix with spectrum in [lo, hi]."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    return (q * rng.uniform(lo, hi, size=dim)) @ q.T


def random_symmetric(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) * scale
    return 0.5 * (a + a.T)


def search_occupation(eig, beta, mu, normalization=1.0):
    """Electron count N Tr[S f(S^-1 H - mu)] through the evaluator the mu search uses."""
    w = matcore._occupation_weights(eig)
    with np.errstate(over="ignore"):  # as in the search
        return matcore._occupation_and_slope(w, eig.values, beta, mu, normalization)[0]
