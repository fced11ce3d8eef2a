"""Tests of the benchmark itself: inputs, gates, tracing and the output line.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermicool.solvers
from fermicool import models

import gates
import tracing
import workloads as W

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Not among the seeds used to fix the tolerances in gates.json.
HELD_OUT_SEED = 7919


def _flat(x):
    if isinstance(x, np.ndarray):
        return [x]
    return [a for item in x for a in _flat(item)]


@pytest.mark.parametrize("make", [W.ring_inputs, W.chain_inputs])
def test_inputs_are_deterministic_per_seed(make):
    first, again, other = _flat(make(3)), _flat(make(3)), _flat(make(4))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_held_out_seed_passes_every_gate(name, tmp_path):
    workload = W.WORKLOADS[name]
    result = workload.run_round(workload.setup(HELD_OUT_SEED, tmp_path))
    assert result.solves
    assert [(s.label, s.failures) for s in result.solves if s.failures] == []


def _ring_references():
    system = models.SystemSpec(models.HermitianMatrix(W.ring_inputs(HELD_OUT_SEED)),
                               models.OverlapMatrix(np.eye(W.RING_N)))
    mu = models.default_chemical_potential(system)
    grand = np.asarray(models.exact_grand_fd(system, mu, W.RING_BETA))
    canonical, _ = models.exact_canonical_fd(system, W.RING_NE, W.RING_BETA)
    return np.eye(W.RING_N), grand, np.asarray(canonical)


@pytest.mark.parametrize("scheme", W.SCHEMES)
def test_occupation_gate_catches_scaled_density(scheme):
    s, grand, _ = _ring_references()
    assert gates.check_density("ring-dense", scheme, grand, s, grand) == []
    # kraus1's first-order error at ten steps is close to 1%, so its
    # tolerance admits P * 1.01; a 5% error must still be caught.
    factor = 1.05 if scheme == "kraus1" else 1.01
    reasons = gates.check_density("ring-dense", scheme, factor * grand, s, grand)
    assert any("occupation error" in r for r in reasons)


@pytest.mark.parametrize("scheme", W.SCHEMES)
def test_trace_gate_catches_scaled_density(scheme):
    s, _, canonical = _ring_references()
    assert gates.check_density("ring-dense", scheme, canonical, s, canonical,
                               n_electrons=W.RING_NE) == []
    reasons = gates.check_density("ring-dense", scheme, 1.01 * canonical, s, canonical,
                                  n_electrons=W.RING_NE)
    assert any("Tr[P]" in r for r in reasons)


@pytest.mark.parametrize("scheme", gates.STRUCTURAL_POSITIVITY)
def test_positivity_gate_catches_negative_eigenvalue(scheme):
    s, grand, _ = _ring_references()
    shifted = grand - (np.linalg.eigvalsh(grand)[0] + 1e-8) * np.eye(W.RING_N)
    reasons = gates.check_density("ring-dense", scheme, shifted, s, shifted)
    assert any("min eigenvalue" in r for r in reasons)


def test_non_finite_density_fails():
    s, grand, _ = _ring_references()
    bad = grand.copy()
    bad[0, 0] = np.nan
    assert gates.check_density("ring-dense", "rk4", bad, s, grand) == ["density is not finite"]


def _write(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cli_outputs(tmp_path, dmm_scale=1.0, mu_scale=1.0, trace_scale=1.0, min_eig=0.1,
                 mu_rows=W.CHAIN_RECORDS):
    out = tmp_path / "run.csv"
    exact = np.linspace(0.0, 0.5, 8)
    _write(out, ["index", "dmm_eigenvalue", "exact_eigenvalue", "abs_error"],
           [(i, e * dmm_scale, e, abs(e * dmm_scale - e)) for i, e in enumerate(exact)])
    mu = np.linspace(-1.0, -0.8, mu_rows)
    _write(tmp_path / "run.mu.csv", ["beta", "mu_integrated", "mu_oracle"],
           [(b, m * mu_scale, m) for b, m in zip(np.linspace(0, 5, mu_rows), mu)])
    _write(tmp_path / "run.diag.csv",
           ["beta", "min_eig", "hermiticity_defect", "trace", "commutator_norm"],
           [(0.0, min_eig, 0.0, W.CHAIN_NE * trace_scale, 0.0)])
    return out


@pytest.mark.parametrize("case,scheme", [(c, s) for c, s, _ in W.CLI_CASES])
def test_cli_gates_catch_each_wrong_output(case, scheme, tmp_path):
    def check(code=0, stderr="", **wrong):
        out = _cli_outputs(tmp_path, **wrong)
        return gates.check_cli_run(case, scheme, code, stderr, out,
                                   W.CHAIN_NE, W.CHAIN_RECORDS)

    assert check() == []
    assert check(code=4) == ["exit code 4"]
    assert check(stderr="fermicool: error") != []
    assert any("abs_error" in r for r in check(dmm_scale=1.01))
    assert any("mu trace deviation" in r for r in check(mu_scale=1.01))
    assert any("rows" in r for r in check(mu_rows=3))
    assert any("Tr[P]" in r for r in check(trace_scale=1.01))
    negative = check(min_eig=-1e-8)
    assert any("min eigenvalue" in r for r in negative) == (scheme in gates.STRUCTURAL_POSITIVITY)


def _tiny_rk4_cool():
    system = models.SystemSpec(models.HermitianMatrix([[0.1, 0.2], [0.2, -0.3]]),
                               models.OverlapMatrix(np.eye(2)))
    config = fermicool.solvers.SolverConfig("rk4", beta_final=1.0, delta_beta=0.1)
    return fermicool.solvers.cool(models.HamiltonianModel(system), models.Canonical(1.0),
                                  config)


def test_tracer_survives_missing_function(monkeypatch):
    monkeypatch.delattr(fermicool.solvers, "step_kraus1")
    original_cool = fermicool.solvers.cool
    sites = tracing.SITES + (("fermicool.solvers", "no_such_kernel", "solvers.kernel"),
                             ("fermicool.no_such_module", "f", "solvers.f"))
    tracer = tracing.Tracer(sites)
    tracer.install()
    tracer.start_phase(keep_spans=True)
    try:
        _tiny_rk4_cool()
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == {"fermicool.solvers.step_kraus1",
                                  "fermicool.solvers.no_such_kernel",
                                  "fermicool.no_such_module.f"}
    assert fermicool.solvers.cool is original_cool
    metrics = tracing.layer_metrics(tracer.table)
    assert metrics["solvers.steps"] == 10
    assert metrics["solvers.step_us.rk4.canonical"] > 0
    assert 0 < metrics["solvers.kernel_s"] < metrics["solvers.cool_s"]
    # self times partition the root spans' time
    roots = sum(stat.total_s for (_, parent, _), stat in tracer.table.items() if not parent)
    selfs = sum(stat.self_s for stat in tracer.table.values())
    assert selfs == pytest.approx(roots, rel=1e-9)
    assert len(tracer.spans) == sum(stat.calls for stat in tracer.table.values())


def test_traced_counts_repeat(tmp_path):
    workload = W.WORKLOADS["cli-nonorth"]
    state = workload.setup(HELD_OUT_SEED, tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        tracer.start_phase()
        try:
            workload.run_round(state)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.table)
        counts.append([metrics[k] for k in tracing.COUNT_METRICS])
    assert counts[0] == counts[1]
    assert all(c > 0 for c in counts[0])


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_line_matches_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "ring-dense", "--seed", "5", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "ring-dense", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
