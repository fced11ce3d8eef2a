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

Exit codes: :data:`EXITS`, the table that ``main`` reads and ``--help``
lists.
"""

from __future__ import annotations

import argparse
import csv
import errno
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import (
    BracketError,
    DegenerateTraceError,
    DimensionMismatchError,
    FermicoolError,
    InfeasibleEnsembleError,
    MatrixParseError,
    MuConvergenceError,
    NotPositiveDefiniteError,
    OverlapTraceError,
    ScfConvergenceError,
    SolverAbortError,
)
from .models import (
    Canonical,
    GrandCanonical,
    HamiltonianModel,
    ScfResult,
    build_huckel,
    default_chemical_potential,
    load_system,
    scf_fixed_point,
    scf_mu_trace,
)
from .solvers import SCHEMES, SolverConfig, cool


class ArgumentSemanticsError(FermicoolError):
    """Arguments parsed but are mutually inconsistent."""


class Exit(NamedTuple):
    """One row of :data:`EXITS`: the errors that end a command with ``code``.

    ``main`` prints such an error as one ``fermicool: error[kind]: ...``
    line, with ``prefix`` before the error's own text.  ``help`` is the
    code's ``--help`` line, on the first row of each code only; a newline in
    it continues the line under the text.
    """

    errors: tuple
    code: int
    kind: str
    help: str = ""
    prefix: str = ""


#: Every error that leaves a command, by exit code; ``main`` takes the first
#: row that an error matches, and an error that no row names propagates.
EXITS = (
    Exit((ArgumentSemanticsError,), 2, "argument",
         "argument error (also an --out with no file name, or a problem too large\n"
         "for memory)"),
    Exit((MemoryError,), 2, "memory", prefix="out of memory: "),
    Exit((MatrixParseError, NotPositiveDefiniteError, OverlapTraceError, DimensionMismatchError),
         3, "parse",
         "parse error (unreadable or malformed matrix file, H and S of different sizes,\n"
         "an --out naming a directory or under no directory)"),
    Exit((OSError,), 3, "io"),
    Exit((InfeasibleEnsembleError, DegenerateTraceError, BracketError, MuConvergenceError),
         4, "infeasible",
         "infeasible ensemble (electron count out of range, degenerate constraint,\n"
         "failed chemical potential search)"),
    Exit((SolverAbortError,), 5, "solver-abort",
         "solver abort (non-finite values during integration)"),
    Exit((ScfConvergenceError,), 6, "scf", "SCF non-convergence"),
)

_EPILOG = "exit codes:\n  0  success\n" + "".join(
    f"  {row.code}  " + row.help.replace("\n", "\n     ") + "\n" for row in EXITS if row.help
) + """
outputs (relative to --out PATH, e.g. results.csv; the side files drop only
a final .csv from PATH):
  results.csv       occupation spectra
  results.mu.csv    chemical potential trace (canonical runs)
  results.diag.csv  per-step diagnostics (run only)
  results.meta      run metadata, not deterministic
"""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_meta(path: Path, items) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in items:
            fh.write(f"{key}: {value}\n")


def _out_paths(out: Path):
    # the side files append to the name without a final ".csv" and nothing
    # else, so names that differ before it never share a side file
    stem = out.name[: -len(".csv")] if out.name.endswith(".csv") else out.name
    return {
        "spectra": out,
        "mu": out.with_name(stem + ".mu.csv"),
        "diag": out.with_name(stem + ".diag.csv"),
        "meta": out.with_name(stem + ".meta"),
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


def _resolve_mu(args, system) -> float:
    if args.mu == "auto":
        try:
            return default_chemical_potential(system, use_pencil=args.mu_pencil)
        except ValueError as exc:
            raise ArgumentSemanticsError(f"--mu auto: {exc}") from None
    try:
        mu = float(args.mu)
    except ValueError:
        mu = math.nan
    if not math.isfinite(mu):
        raise ArgumentSemanticsError(f"--mu expects 'auto' or a finite number, got {args.mu!r}")
    return mu


def _build_request(args):
    """The checked (model, ensemble, --out path) of a command; the other
    controls are read from ``args``."""
    out = Path(args.out)
    if not out.name:
        raise ArgumentSemanticsError(f"--out expects a file path, got {args.out!r}")
    # the io errors that writing it would end in, before any solve
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if not out.parent.is_dir():  # OSError makes these a FileNotFoundError or NotADirectoryError
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), args.out)
    system = _build_system(args)
    if args.canonical is not None:
        ensemble = Canonical(args.canonical)
    else:
        ensemble = GrandCanonical(_resolve_mu(args, system))
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
    return HamiltonianModel(system, coupling_u=args.nonlinear), ensemble, out


def _run_config(args) -> SolverConfig:
    """The run's integration parameters: about 100 records unless --record-every is given."""
    try:
        config = SolverConfig(scheme=args.scheme, beta_final=args.beta, delta_beta=args.dbeta)
    except ValueError as exc:
        raise ArgumentSemanticsError(
            f"--beta {args.beta} with --dbeta {args.dbeta}: {exc}") from None
    record_every = args.record_every
    if record_every is None:
        record_every = max(1, config.n_steps // 100)
    try:
        return replace(config, record_every=record_every, positivity_tol=args.positivity_tol)
    except ValueError as exc:
        raise ArgumentSemanticsError(str(exc)) from None


def _oracle_state(model, ensemble, args, beta: float) -> ScfResult:
    """Exact reference state: the fixed point of :func:`scf_fixed_point` under
    the SCF controls of ``args``, which takes one evaluation for a linear model."""
    return scf_fixed_point(model, ensemble, beta, args.scf_tol, args.scf_max_iter, args.aitken)


def _scf_count(model, iterations) -> str:
    """SCF iterations for the .meta: n/a for linear models, which run no SCF."""
    return "n/a" if iterations is None or model.is_linear else str(iterations)


def _mu_trace(model, ensemble, args, betas, mu_integrated):
    """Rows of the mu CSV of a canonical run and the total SCF iterations.

    The oracle's mu comes from one walk over the record betas that continues
    each SCF from the previous ones (:func:`~fermicool.models.scf_mu_trace`),
    under the SCF controls of ``args``.
    """
    mus, total = scf_mu_trace(model, ensemble, betas, args.scf_tol, args.scf_max_iter,
                              args.aitken)
    return [tuple(map(_fmt, row)) for row in zip(betas, mu_integrated, mus)], total


def cmd_run(args) -> int:
    model, ensemble, out = _build_request(args)
    config = _run_config(args)
    paths = _out_paths(out)
    started = time.time()

    traj = cool(model, ensemble, config)
    oracle = _oracle_state(model, ensemble, args, config.beta_final)

    occ_run, occ_exact = traj.final_occupations, oracle.occupations
    rows = [(i, _fmt(a), _fmt(b), _fmt(abs(a - b)))
            for i, (a, b) in enumerate(zip(occ_run, occ_exact))]
    _write_csv(paths["spectra"], ["index", "dmm_eigenvalue", "exact_eigenvalue", "abs_error"], rows)

    diag = traj.diagnostics
    # a linear model's state stays a function of H: its commutator norm is 0
    width = 3 if model.is_linear else 4
    _write_csv(paths["diag"], ["beta", "min_eig", "trace", "commutator_norm"][:width],
               [tuple(map(_fmt, row[:width])) for row in zip(
                   traj.betas, diag.min_eigenvalue, diag.trace, diag.commutator_norm)])

    trace_iters = None
    if traj.mu_trace is not None:
        mu_rows, trace_iters = _mu_trace(model, ensemble, args, traj.betas, traj.mu_trace)
        _write_csv(paths["mu"], ["beta", "mu_integrated", "mu_oracle"], mu_rows)

    meta = [
        ("command", "run"),
        ("version", __version__),
        ("scheme", traj.scheme),
        ("beta_final", _fmt(traj.beta_final)),
        ("delta_beta_snapped", _fmt(traj.delta_beta)),
        ("mu_used", _fmt(ensemble.mu) if isinstance(ensemble, GrandCanonical) else "canonical"),
        ("max_abs_error", _fmt(float(np.abs(occ_run - occ_exact).max()))),
        ("positivity_violations", str(len(traj.positivity_violations))),
        ("scf_iterations", _scf_count(model, oracle.iterations)),
        ("mu_trace_scf_iterations", _scf_count(model, trace_iters)),
        ("aitken", str(args.aitken)),
        ("elapsed_seconds", f"{time.time() - started:.3f}"),
    ]
    _write_meta(paths["meta"], meta)
    return 0


def cmd_oracle(args) -> int:
    model, ensemble, out = _build_request(args)
    paths = _out_paths(out)
    beta = args.beta

    oracle = _oracle_state(model, ensemble, args, beta)
    _write_csv(paths["spectra"], ["index", "exact_eigenvalue"],
               [(i, _fmt(v)) for i, v in enumerate(oracle.occupations)])
    meta = [
        ("command", "oracle"),
        ("version", __version__),
        ("beta", _fmt(beta)),
        ("mu_oracle", _fmt(oracle.mu)),
        ("scf_iterations", _scf_count(model, oracle.iterations)),
        ("aitken", str(args.aitken)),
    ]
    _write_meta(paths["meta"], meta)
    if isinstance(ensemble, Canonical):
        print(f"oracle mu at beta={beta:g}: {oracle.mu:.12g}")
    if not model.is_linear:
        print(f"scf converged in {oracle.iterations} iterations (aitken={args.aitken})")
    return 0


def cmd_convergence(args) -> int:
    model, ensemble, out = _build_request(args)
    beta = args.beta
    if beta == 0.0:
        raise ArgumentSemanticsError("--beta must be positive to integrate a flow, got 0")
    dbetas = list(args.dbeta_list)
    if len(dbetas) < 3:
        raise ArgumentSemanticsError("--dbeta-list needs at least 3 entries")
    configs = []
    for db in dbetas:
        try:
            config = SolverConfig(scheme=args.scheme, beta_final=beta, delta_beta=db)
        except ValueError as exc:
            raise ArgumentSemanticsError(f"--dbeta-list entry {db}: {exc}") from None
        # only the final occupations are read: record beta = 0 and the last step
        configs.append(replace(config, record_every=config.n_steps))
    for a, b in zip(dbetas, dbetas[1:]):
        if not math.isclose(a / b, 2.0, rel_tol=1e-9):
            raise ArgumentSemanticsError(
                f"--dbeta-list must halve at each entry, got {a} -> {b}"
            )
    paths = _out_paths(out)

    occ_exact = _oracle_state(model, ensemble, args, beta).occupations

    errors = []
    for config in configs:
        occ = cool(model, ensemble, config).final_occupations
        errors.append(float(np.abs(occ - occ_exact).max()))

    rows = []
    for i, (db, err) in enumerate(zip(dbetas, errors)):
        # the order needs a coarser step and two nonzero errors
        defined = i > 0 and err > 0 and errors[i - 1] > 0
        order = _fmt(math.log2(errors[i - 1] / err)) if defined else "n/a"
        rows.append((_fmt(db), _fmt(err), order))
    _write_csv(paths["spectra"], ["dbeta", "global_error", "observed_order"], rows)
    _write_meta(paths["meta"], [
        ("command", "convergence"),
        ("version", __version__),
        ("scheme", args.scheme),
        ("beta", _fmt(beta)),
    ])
    return 0


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
                        help="SCF oracle steps: Newton steps with a Picard fallback "
                             "(--aitken, the default) or plain Picard iteration "
                             "(--no-aitken)")
    parser.add_argument("--scf-tol", type=float, default=1e-10, metavar="TOL",
                        help="SCF oracle stops once the max-abs change of P is below TOL")
    parser.add_argument("--scf-max-iter", type=int, default=200, metavar="K",
                        help="SCF oracle iterations before non-convergence (exit 6)")
    parser.add_argument("--beta", type=float, required=True, metavar="B",
                        help="target inverse temperature")
    if with_solver:
        parser.add_argument("--scheme", choices=SCHEMES, default="rk4", help="integration scheme")
        parser.add_argument("--dbeta", type=float, required=True, metavar="DB",
                            help="integration step in beta")
        parser.add_argument("--record-every", type=int, default=None, metavar="K",
                            help="record every K steps (default: about 100 records per run)")
        parser.add_argument("--positivity-tol", type=float, default=1e-10, metavar="TOL",
                            help="count a smallest occupation (eigenvalue of S^-1 P) "
                                 "below -TOL as a violation")


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
    p_run.add_argument("--out", default="run.csv", metavar="PATH",
                       help="spectra CSV; the side files are named after it")
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="evaluate the exact state directly",
                              epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p_oracle, with_solver=False)
    p_oracle.add_argument("--out", default="oracle.csv", metavar="PATH",
                          help="spectra CSV; the .meta is named after it")
    p_oracle.set_defaults(func=cmd_oracle)

    p_conv = sub.add_parser("convergence", help="observed convergence orders by step halving",
                            epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p_conv, with_solver=False)
    p_conv.add_argument("--scheme", choices=SCHEMES, required=True, help="integration scheme")
    p_conv.add_argument("--dbeta-list", nargs="+", type=float, required=True,
                        metavar="DB", help="step sizes in halving progression (>= 3)")
    p_conv.add_argument("--out", default="convergence.csv", metavar="PATH",
                        help="error and order CSV; the .meta is named after it")
    p_conv.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(error for row in EXITS for error in row.errors) as exc:
        row = next(row for row in EXITS if isinstance(exc, row.errors))
        print(f"fermicool: error[{row.kind}]: {row.prefix}{exc}", file=sys.stderr)
        return row.code


if __name__ == "__main__":
    sys.exit(main())
