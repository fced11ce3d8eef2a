"""The benchmark's workloads: seeded inputs, set-up, and one timed round each.

Inputs are plain numpy arrays drawn from ``--seed``; the library sees only
those matrices, or the files the set-up writes from them.  A round is a fixed
list of solves.  Only calls into the library are timed; the gates run after
the round's clock has stopped.  Library functions are looked up on their
module at call time (``solvers.cool``, not a bound name), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from fermicool import cli, matcore, matio, models, solvers

import gates

SCHEMES = ("kraus1", "kraus2", "rk4")

RING_N = 300
RING_ALPHA, RING_GAMMA = 0.569, 0.066
RING_DISORDER = 1e-3
RING_NE = 150.0
RING_BETA, RING_STEPS = 10.0, 10

CHAIN_N = 60
CHAIN_NE = 15.0
CHAIN_DISORDER = 0.01
CHAIN_ARGS = ("--canonical", str(CHAIN_NE), "--beta", "5", "--dbeta", "0.01")
CHAIN_RECORDS = 101
CLI_CASES = (
    ("nonlinear", "kraus2", ("--nonlinear", "0.05", "--scheme", "kraus2")),
    ("linear", "rk4", ("--scheme", "rk4")),
)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def ring_inputs(seed):
    """Core Hamiltonian of the disordered Hückel ring (identity overlap)."""
    rng = _rng(seed, 1)
    n = RING_N
    h = np.zeros((n, n))
    idx = np.arange(n)
    h[idx, idx] = RING_ALPHA + rng.uniform(-RING_DISORDER, RING_DISORDER, n)
    h[idx, (idx + 1) % n] = RING_GAMMA
    h[(idx + 1) % n, idx] = RING_GAMMA
    return h


def chain_inputs(seed):
    """Non-orthogonal Gaussian chain with the recipe of the data/ fixtures."""
    rng = _rng(seed, 3)
    i = np.arange(CHAIN_N)
    d2 = (i[:, None] - i[None, :]) ** 2.0
    h = -0.35 * np.exp(-0.4 * d2)
    h[i, i] = -1.2 + 0.05 * i + rng.uniform(-CHAIN_DISORDER, CHAIN_DISORDER, CHAIN_N)
    return h, np.exp(-0.5 * d2)


@dataclass
class Solve:
    """Timing and gate outcome of one solve."""

    label: str
    seconds: float
    failures: list = field(default_factory=list)


@dataclass
class Round:
    wall_s: float
    solves: list


def _system(h, s):
    return models.SystemSpec(matcore.HermitianMatrix(h), matcore.OverlapMatrix(s))


def _cool(system, ensemble, scheme, beta, steps):
    # record only at beta = 0 and at the end
    config = solvers.SolverConfig(scheme, beta_final=beta, delta_beta=beta / steps,
                                  record_every=steps)
    return solvers.cool(models.HamiltonianModel(system), ensemble, config)


def _oracle(system, ensemble, beta):
    if isinstance(ensemble, models.Canonical):
        p, _ = models.exact_canonical_fd(system, ensemble.n_electrons, beta)
        return np.asarray(p)
    return np.asarray(models.exact_grand_fd(system, ensemble.mu, beta))


@dataclass
class _Pending:
    label: str
    scheme: str
    system: object
    ensemble: object
    reference: np.ndarray | None
    seconds: float = 0.0
    density: np.ndarray | None = None
    error: str | None = None


def _solve_group(system, ensembles, beta, steps, pending):
    """Cool ``system`` with every scheme, for every ensemble."""
    for kind, ensemble in ensembles:
        reference, oracle_error = None, None
        try:
            reference = _oracle(system, ensemble, beta)
        except Exception as exc:  # the gate reports it; the round goes on
            oracle_error = f"oracle raised {type(exc).__name__}: {exc}"
        for scheme in SCHEMES:
            item = _Pending(f"{scheme}.{kind}", scheme, system, ensemble, reference,
                            error=oracle_error)
            start = time.perf_counter()
            try:
                traj = _cool(system, ensemble, scheme, beta, steps)
                item.density = np.asarray(traj.final_density)
            except Exception as exc:  # the gate reports it; the round goes on
                item.error = f"raised {type(exc).__name__}: {exc}"
            item.seconds = time.perf_counter() - start
            pending.append(item)


def _check(workload, item):
    if item.error is not None:
        return Solve(item.label, item.seconds, [item.error])
    canonical = isinstance(item.ensemble, models.Canonical)
    failures = gates.check_density(
        workload, item.scheme, item.density, np.asarray(item.system.s), item.reference,
        n_electrons=item.ensemble.n_electrons if canonical else None,
    )
    return Solve(item.label, item.seconds, failures)


class RingDense:
    """Six BLAS-bound solves on a 300-site ring with identity overlap."""

    name = "ring-dense"
    gemm_calibrated = True

    def setup(self, seed, workdir):
        system = _system(ring_inputs(seed), np.eye(RING_N))
        mu = models.default_chemical_potential(system)
        return system, (("grand", models.GrandCanonical(mu)),
                        ("canonical", models.Canonical(RING_NE)))

    def run_round(self, state):
        system, ensembles = state
        pending = []
        start = time.perf_counter()
        _solve_group(system, ensembles, RING_BETA, RING_STEPS, pending)
        wall = time.perf_counter() - start
        return Round(wall, [_check(self.name, item) for item in pending])


class CliNonorth:
    """Two ``fermicool run`` invocations on a non-orthogonal chain, in process."""

    name = "cli-nonorth"
    gemm_calibrated = False

    def setup(self, seed, workdir):
        h, s = chain_inputs(seed)
        h_path, s_path = workdir / "chain_h.mat", workdir / "chain_s.mat"
        matio.write_matrix(h_path, h, comment="benchmark chain core Hamiltonian")
        matio.write_matrix(s_path, s, comment="benchmark chain overlap")
        return workdir, h_path, s_path

    def run_round(self, state):
        workdir, h_path, s_path = state
        done = []
        start = time.perf_counter()
        for case, scheme, extra in CLI_CASES:
            out = workdir / f"{case}.csv"
            argv = ["run", "--files", str(h_path), str(s_path), *CHAIN_ARGS, *extra,
                    "--out", str(out)]
            err = io.StringIO()
            t0 = time.perf_counter()
            try:
                # "always": a warning repeated in a later round must reach stderr too
                with contextlib.redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("always")
                    code = cli.main(argv)
            except Exception as exc:  # a traceback out of main is itself a failure
                code = f"raised {type(exc).__name__}: {exc}"
            done.append((case, scheme, time.perf_counter() - t0, code, err.getvalue(), out))
        wall = time.perf_counter() - start
        solves = []
        for case, scheme, seconds, code, stderr, out in done:
            failures = gates.check_cli_run(case, scheme, code, stderr, out,
                                           CHAIN_NE, CHAIN_RECORDS)
            solves.append(Solve(f"cli.{case}.{scheme}", seconds, failures))
        return Round(wall, solves)


WORKLOADS = {w.name: w for w in (RingDense(), CliNonorth())}
