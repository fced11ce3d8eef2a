"""Correctness gates applied to every solve the benchmark times.

Each gate returns a list of failure reasons; an empty list is a pass.  The
checks do their own arithmetic in numpy rather than call the library's
helpers, so a broken helper cannot pass its own check; the exact reference
density comes from the library's oracle.  Tolerances live in ``gates.json``
beside this file, with the reason for each value.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

GATES = json.loads((Path(__file__).resolve().parent / "gates.json").read_text())
POSITIVITY_TOL = GATES["positivity_tol"]
STRUCTURAL_POSITIVITY = ("kraus1", "kraus2")


def occupations(p, s):
    """Ascending eigenvalues of S^-1 P, via the Cholesky factor of S."""
    chol = np.linalg.cholesky(s)
    x = np.linalg.solve(chol, np.linalg.solve(chol, p).T)
    return np.linalg.eigvalsh(0.5 * (x + x.T))


def check_density(workload, scheme, p, s, p_exact, n_electrons=None):
    """Gate one cooled density against its exact oracle.

    ``n_electrons`` is given for canonical solves and None for grand ones.
    """
    tol = GATES["workloads"][workload]
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        return ["density is not finite"]
    reasons = []
    err = float(np.abs(occupations(p, s) - occupations(p_exact, s)).max())
    if not err <= tol["occupation_error"][scheme]:
        reasons.append(f"occupation error {err:.3e} > {tol['occupation_error'][scheme]:g}")
    reasons += check_positivity(scheme, float(np.linalg.eigvalsh(p)[0]))
    if n_electrons is not None:
        reasons += check_trace(workload, scheme, float(np.trace(p)), n_electrons)
    return reasons


def check_positivity(scheme, eigmin):
    if scheme in STRUCTURAL_POSITIVITY and not eigmin >= -POSITIVITY_TOL:
        return [f"min eigenvalue {eigmin:.3e} < -{POSITIVITY_TOL:g}"]
    return []


def check_trace(workload, scheme, trace, n_electrons):
    tol = GATES["workloads"][workload]["trace_rel"][scheme]
    rel = abs(trace - n_electrons) / n_electrons
    if not rel <= tol:
        return [f"Tr[P] {trace:.17g} is {rel:.3e} from Ne = {n_electrons:g} (> {tol:g})"]
    return []


def _columns(path, names):
    """The named columns of a CSV file as arrays; raises KeyError if one is missing."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in names}


def check_cli_run(case, scheme, exit_code, stderr, out, n_electrons, n_records):
    """Gate one ``fermicool run`` invocation by its exit code, stderr and CSVs."""
    tol = GATES["workloads"]["cli-nonorth"]
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    if stderr:
        reasons.append(f"stderr: {stderr.strip()[:200]}")
    if reasons:
        return reasons
    base = out.with_suffix("")
    try:
        spectra = _columns(out, ("dmm_eigenvalue", "exact_eigenvalue", "abs_error"))
        mu = _columns(base.with_suffix(".mu.csv"), ("mu_integrated", "mu_oracle"))
        diag = _columns(base.with_suffix(".diag.csv"), ("min_eig", "trace"))
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    if not spectra["abs_error"].size or not diag["trace"].size:
        return ["empty spectra or diag CSV"]
    recomputed = np.abs(spectra["dmm_eigenvalue"] - spectra["exact_eigenvalue"])
    err = float(max(spectra["abs_error"].max(), recomputed.max()))
    if not err <= tol["abs_error"][case]:
        reasons.append(f"abs_error {err:.3e} > {tol['abs_error'][case]:g}")
    if mu["mu_oracle"].size != n_records:
        reasons.append(f"mu trace has {mu['mu_oracle'].size} rows, expected {n_records}")
    else:
        dev = float(np.abs(mu["mu_integrated"] - mu["mu_oracle"]).max())
        if not dev <= tol["mu_dev"][case]:
            reasons.append(f"mu trace deviation {dev:.3e} > {tol['mu_dev'][case]:g}")
    reasons += check_positivity(scheme, float(diag["min_eig"].min()))
    worst = float(diag["trace"][np.argmax(np.abs(diag["trace"] - n_electrons))])
    reasons += check_trace("cli-nonorth", scheme, worst, n_electrons)
    return reasons
