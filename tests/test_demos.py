"""Smoke test of every demo: each runs to the end, prints, and warns nothing."""

import contextlib
import io
import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [p.name for p in sorted(DEMOS.glob("*.py"))])
def test_demo_runs_cleanly(name):
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue()
    assert [str(w.message) for w in caught] == []
