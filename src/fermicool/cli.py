"""Command line front end.

Subcommands
-----------
run          integrate a cooling flow and compare its occupation spectrum
             against the exact oracle
oracle       evaluate the exact state directly (self-consistently for
             density-dependent models)
convergence  measure observed convergence orders by step halving

Outputs are deterministic CSV files (LF line endings, 17 significant digits);
run metadata including timestamps goes to a separate ``.meta`` sidecar.

Exit codes: 0 success, 2 argument error, 3 parse error, 4 infeasible
ensemble, 5 solver abort, 6 SCF non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BracketError,
    DegenerateTraceError,
    FermicoolError,
    InfeasibleEnsembleError,
    MatrixParseError,
    MuConvergenceError,
    NotPositiveDefiniteError,
    ScfConvergenceError,
    SolverAbortError,
)
from .models import (
    Canonical,
    GrandCanonical,
    HamiltonianModel,
    build_huckel,
    default_chemical_potential,
    exact_canonical_fd,
    exact_grand_fd,
    load_system,
    occupation_spectrum,
    scf_fixed_point,
)
from .solvers import SolverConfig, cool

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INFEASIBLE = 4
EXIT_SOLVER_ABORT = 5
EXIT_SCF = 6

_EPILOG = """\
exit codes:
  0  success
  2  argument error
  3  parse error (unreadable or malformed matrix file)
  4  infeasible ensemble (electron count out of range, degenerate constraint,
     failed chemical potential search)
  5  solver abort (non-finite values during integration)
  6  SCF non-convergence

outputs (relative to --out PATH, e.g. results.csv):
  results.csv       occupation spectra
  results.mu.csv    chemical potential trace (canonical runs)
  results.diag.csv  per-step diagnostics (run only)
  results.meta      run metadata, not deterministic
"""


@dataclass
class RunRequest:
    """Everything one invocation needs, assembled from parsed arguments."""

    system: object
    ensemble: object
    model: HamiltonianModel
    config: SolverConfig | None
    output_path: Path
    mu_value: float
    scf_tol: float
    scf_max_iter: int
    use_aitken: bool
    emit_mu_trace: bool


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _write_meta(path: Path, items) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in items:
            fh.write(f"{key}: {value}\n")


def _out_paths(out: Path):
    base = out.with_suffix("") if out.suffix else out
    return {
        "spectra": out,
        "mu": base.with_suffix(".mu.csv"),
        "diag": base.with_suffix(".diag.csv"),
        "meta": base.with_suffix(".meta"),
    }


def _build_system(args):
    if args.huckel is not None:
        n_raw, alpha, gamma = args.huckel
        if not float(n_raw).is_integer():
            raise ArgumentSemanticsError(f"ring size must be an integer, got {n_raw}")
        try:
            return build_huckel(int(n_raw), alpha, gamma)
        except ValueError as exc:
            raise ArgumentSemanticsError(str(exc)) from None
    if len(args.files) > 2:
        raise ArgumentSemanticsError("--files takes HPATH and at most one SPATH")
    h_path = args.files[0]
    s_path = args.files[1] if len(args.files) > 1 else None
    return load_system(h_path, s_path)


class ArgumentSemanticsError(FermicoolError):
    """Arguments parsed but are mutually inconsistent."""


def _resolve_mu(args, system) -> float:
    if args.mu == "auto":
        try:
            return default_chemical_potential(system, use_pencil=args.mu_pencil)
        except ValueError as exc:
            raise ArgumentSemanticsError(str(exc)) from None
    try:
        mu = float(args.mu)
    except ValueError:
        mu = math.nan
    if not math.isfinite(mu):
        raise ArgumentSemanticsError(f"--mu expects 'auto' or a finite number, got {args.mu!r}")
    return mu


def _build_request(args, need_config=True) -> RunRequest:
    system = _build_system(args)
    if args.canonical is not None:
        mu = float("nan")
        ensemble = Canonical(args.canonical)
    else:
        mu = _resolve_mu(args, system)
        ensemble = GrandCanonical(mu)
    if not (math.isfinite(args.beta) and args.beta >= 0.0):
        raise ArgumentSemanticsError(
            f"--beta expects a finite non-negative inverse temperature, got {args.beta}"
        )
    if not math.isfinite(args.nonlinear):
        raise ArgumentSemanticsError(f"--nonlinear expects a finite coupling, got {args.nonlinear}")
    if not (math.isfinite(args.scf_tol) and args.scf_tol > 0.0):
        raise ArgumentSemanticsError(
            f"--scf-tol expects a finite positive tolerance, got {args.scf_tol}"
        )
    if args.scf_max_iter < 1:
        raise ArgumentSemanticsError(f"--scf-max-iter must be at least 1, got {args.scf_max_iter}")
    model = HamiltonianModel(system, coupling_u=args.nonlinear)
    config = None
    if need_config:
        try:
            probe = SolverConfig(scheme=args.scheme, beta_final=args.beta,
                                 delta_beta=args.dbeta)
        except ValueError as exc:
            raise ArgumentSemanticsError(
                f"--beta {args.beta} with --dbeta {args.dbeta}: {exc}") from None
        record_every = args.record_every
        if record_every is None:
            record_every = max(1, probe.n_steps // 100)
        try:
            config = SolverConfig(
                scheme=args.scheme,
                beta_final=args.beta,
                delta_beta=args.dbeta,
                record_every=record_every,
                positivity_tol=args.positivity_tol,
            )
        except ValueError as exc:
            raise ArgumentSemanticsError(str(exc)) from None
    return RunRequest(
        system=system,
        ensemble=ensemble,
        model=model,
        config=config,
        output_path=Path(args.out),
        mu_value=mu,
        scf_tol=args.scf_tol,
        scf_max_iter=args.scf_max_iter,
        use_aitken=args.aitken,
        emit_mu_trace=args.canonical is not None,
    )


def _oracle_state(req: RunRequest, beta: float, start=None):
    """Exact reference state, self-consistent when the model is nonlinear.

    ``start`` is the SCF start density (None: the cold start); linear models
    ignore it.  Returns (density matrix, mu, scf iterations or None).
    """
    if not req.model.is_linear:
        res = scf_fixed_point(
            req.model, req.ensemble, beta,
            tol=req.scf_tol, max_iter=req.scf_max_iter, use_aitken=req.use_aitken,
            start=start,
        )
        return res.density, res.mu, res.iterations
    if isinstance(req.ensemble, Canonical):
        p, mu = exact_canonical_fd(req.system, req.ensemble.n_electrons, beta)
        return p, mu, None
    return exact_grand_fd(req.system, req.ensemble.mu, beta), req.ensemble.mu, None


def _continuation_start(fixed_points, beta: float):
    """SCF start at ``beta``: the Lagrange polynomial in beta through the kept
    fixed points ``(beta_i, P_i)``, or None (cold start) when there are none.

    With three points this is the quadratic extrapolation, with two the
    secant, and with one the last fixed point itself.
    """
    if not fixed_points:
        return None
    start = 0.0
    for i, (b_i, p_i) in enumerate(fixed_points):
        weight = math.prod((beta - b_j) / (b_i - b_j)
                           for j, (b_j, _) in enumerate(fixed_points) if j != i)
        start = start + weight * p_i
    return start


def _mu_trace(req: RunRequest, betas, mu_integrated):
    """Rows of the mu CSV and the total SCF iterations (None for linear models).

    The oracle walks the record betas in order; a nonlinear model continues
    its SCF from the quadratic extrapolation in beta of the previous three
    fixed points, which are the only ones kept (see
    :func:`_continuation_start`).
    """
    rows, fixed_points, total = [], [], 0
    for beta, mu_int in zip(betas, mu_integrated):
        beta = float(beta)
        p, mu_oracle, iters = _oracle_state(req, beta, _continuation_start(fixed_points, beta))
        rows.append((_fmt(beta), _fmt(mu_int), _fmt(mu_oracle)))
        if iters is not None:
            fixed_points = [*fixed_points[-2:], (beta, p.mat)]
            total += iters
    return rows, None if req.model.is_linear else total


def cmd_run(args) -> int:
    req = _build_request(args)
    paths = _out_paths(req.output_path)
    started = time.time()

    traj = cool(req.model, req.ensemble, req.config)
    oracle_p, oracle_mu, scf_iters = _oracle_state(req, req.config.beta_final)

    occ_run = occupation_spectrum(traj.final_density, req.system.s)
    occ_exact = occupation_spectrum(oracle_p, req.system.s)
    rows = [
        (i, _fmt(a), _fmt(b), _fmt(abs(a - b)))
        for i, (a, b) in enumerate(zip(occ_run, occ_exact))
    ]
    _write_csv(paths["spectra"], ["index", "dmm_eigenvalue", "exact_eigenvalue", "abs_error"], rows)

    diag = traj.diagnostics
    _write_csv(
        paths["diag"],
        ["beta", "min_eig", "trace", "commutator_norm"],
        [
            (_fmt(b), _fmt(m), _fmt(t), _fmt(c))
            for b, m, t, c in zip(
                traj.betas, diag.min_eigenvalue, diag.trace, diag.commutator_norm,
            )
        ],
    )

    trace_iters = None
    if req.emit_mu_trace and traj.mu_trace is not None:
        mu_rows, trace_iters = _mu_trace(req, traj.betas, traj.mu_trace)
        _write_csv(paths["mu"], ["beta", "mu_integrated", "mu_oracle"], mu_rows)

    meta = [
        ("command", "run"),
        ("version", __version__),
        ("scheme", traj.scheme),
        ("beta_final", _fmt(traj.beta_final)),
        ("delta_beta_snapped", _fmt(traj.delta_beta)),
        ("mu_used", _fmt(req.mu_value) if isinstance(req.ensemble, GrandCanonical) else "canonical"),
        ("max_abs_error", _fmt(float(np.abs(occ_run - occ_exact).max()))),
        ("positivity_violations", str(len(traj.positivity_violations))),
        ("scf_iterations", str(scf_iters) if scf_iters is not None else "n/a"),
        ("mu_trace_scf_iterations", str(trace_iters) if trace_iters is not None else "n/a"),
        ("aitken", str(req.use_aitken)),
        ("elapsed_seconds", f"{time.time() - started:.3f}"),
    ]
    _write_meta(paths["meta"], meta)
    return EXIT_OK


def cmd_oracle(args) -> int:
    req = _build_request(args, need_config=False)
    paths = _out_paths(req.output_path)
    beta = args.beta

    oracle_p, oracle_mu, scf_iters = _oracle_state(req, beta)
    occ = occupation_spectrum(oracle_p, req.system.s)
    _write_csv(
        paths["spectra"],
        ["index", "exact_eigenvalue"],
        [(i, _fmt(v)) for i, v in enumerate(occ)],
    )
    meta = [
        ("command", "oracle"),
        ("version", __version__),
        ("beta", _fmt(beta)),
        ("mu_oracle", _fmt(oracle_mu)),
        ("scf_iterations", str(scf_iters) if scf_iters is not None else "n/a"),
        ("aitken", str(req.use_aitken)),
    ]
    _write_meta(paths["meta"], meta)
    if isinstance(req.ensemble, Canonical):
        print(f"oracle mu at beta={beta:g}: {oracle_mu:.12g}")
    if scf_iters is not None:
        print(f"scf converged in {scf_iters} iterations (aitken={req.use_aitken})")
    return EXIT_OK


def cmd_convergence(args) -> int:
    req = _build_request(args, need_config=False)
    beta = args.beta
    if beta == 0.0:
        raise ArgumentSemanticsError("--beta must be positive to integrate a flow, got 0")
    dbetas = list(args.dbeta_list)
    if len(dbetas) < 3:
        raise ArgumentSemanticsError("--dbeta-list needs at least 3 entries")
    configs = []
    for db in dbetas:
        try:
            configs.append(SolverConfig(scheme=args.scheme, beta_final=beta, delta_beta=db))
        except ValueError as exc:
            raise ArgumentSemanticsError(f"--dbeta-list entry {db}: {exc}") from None
    for a, b in zip(dbetas, dbetas[1:]):
        if not math.isclose(a / b, 2.0, rel_tol=1e-9):
            raise ArgumentSemanticsError(
                f"--dbeta-list must halve at each entry, got {a} -> {b}"
            )
    paths = _out_paths(req.output_path)

    oracle_p, _, _ = _oracle_state(req, beta)
    occ_exact = occupation_spectrum(oracle_p, req.system.s)

    errors = []
    for config in configs:
        traj = cool(req.model, req.ensemble, config)
        occ = occupation_spectrum(traj.final_density, req.system.s)
        errors.append(float(np.abs(occ - occ_exact).max()))

    rows = []
    for i, (db, err) in enumerate(zip(dbetas, errors)):
        order = math.log2(errors[i - 1] / err) if i > 0 and err > 0 else float("nan")
        rows.append((_fmt(db), _fmt(err), _fmt(order)))
    _write_csv(paths["spectra"], ["dbeta", "global_error", "observed_order"], rows)
    _write_meta(paths["meta"], [
        ("command", "convergence"),
        ("version", __version__),
        ("scheme", args.scheme),
        ("beta", _fmt(beta)),
    ])
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, with_solver: bool) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--huckel", nargs=3, type=float, metavar=("N", "ALPHA", "GAMMA"),
                     help="tight-binding ring with N sites")
    src.add_argument("--files", nargs="+", metavar="PATH",
                     help="HPATH [SPATH], dense matrix text files")
    ens = parser.add_mutually_exclusive_group(required=True)
    ens.add_argument("--grand", action="store_true",
                     help="grand canonical ensemble (fixed mu)")
    ens.add_argument("--canonical", type=float, metavar="NE",
                     help="canonical ensemble with NE electrons")
    parser.add_argument("--mu", default="auto",
                        help="chemical potential: 'auto' (mid-spectrum average) or a number")
    parser.add_argument("--mu-pencil", action="store_true",
                        help="resolve --mu auto from the (H, S) pencil instead of H alone")
    parser.add_argument("--nonlinear", type=float, default=0.0, metavar="U",
                        help="coupling of the density-dependent toy correction (0 = linear)")
    parser.add_argument("--aitken", action=argparse.BooleanOptionalAction, default=True,
                        help="accelerate the SCF oracle with Aitken extrapolation")
    parser.add_argument("--scf-tol", type=float, default=1e-10)
    parser.add_argument("--scf-max-iter", type=int, default=200)
    parser.add_argument("--beta", type=float, required=True, metavar="B",
                        help="target inverse temperature")
    if with_solver:
        parser.add_argument("--scheme", choices=["kraus1", "kraus2", "rk4"], default="rk4")
        parser.add_argument("--dbeta", type=float, required=True, metavar="DB",
                            help="integration step in beta")
        parser.add_argument("--record-every", type=int, default=None, metavar="K",
                            help="record every K steps (default: about 100 records per run)")
        parser.add_argument("--positivity-tol", type=float, default=1e-10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicool",
        description="Finite-temperature Fermi-Dirac density matrices by "
                    "positivity-preserving cooling.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"fermicool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a cooling flow and compare to the oracle",
                           epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p_run, with_solver=True)
    p_run.add_argument("--out", default="run.csv", metavar="PATH")
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="evaluate the exact state directly",
                              epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p_oracle, with_solver=False)
    p_oracle.add_argument("--out", default="oracle.csv", metavar="PATH")
    p_oracle.set_defaults(func=cmd_oracle)

    p_conv = sub.add_parser("convergence", help="observed convergence orders by step halving",
                            epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p_conv, with_solver=False)
    p_conv.add_argument("--scheme", choices=["kraus1", "kraus2", "rk4"], required=True)
    p_conv.add_argument("--dbeta-list", nargs="+", type=float, required=True,
                        metavar="DB", help="step sizes in halving progression (>= 3)")
    p_conv.add_argument("--out", default="convergence.csv", metavar="PATH")
    p_conv.set_defaults(func=cmd_convergence)
    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    print(f"fermicool: error[{kind}]: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentSemanticsError as exc:
        return _fail(EXIT_USAGE, "argument", exc)
    except MatrixParseError as exc:
        return _fail(EXIT_PARSE, "parse", exc)
    except NotPositiveDefiniteError as exc:
        return _fail(EXIT_PARSE, "parse", exc)
    except (InfeasibleEnsembleError, DegenerateTraceError, BracketError,
            MuConvergenceError) as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", exc)
    except SolverAbortError as exc:
        return _fail(EXIT_SOLVER_ABORT, "solver-abort", exc)
    except ScfConvergenceError as exc:
        return _fail(EXIT_SCF, "scf", exc)
    except OSError as exc:
        return _fail(EXIT_PARSE, "io", exc)


if __name__ == "__main__":
    sys.exit(main())
