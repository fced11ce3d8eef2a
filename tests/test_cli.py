import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fermicool import (build_huckel, default_chemical_potential, load_system, read_matrix,
                       write_matrix)
from fermicool.cli import build_parser, main
from fermicool.models import infinite_temperature_mu
from conftest import DATA_DIR, SYMMETRY_RTOL


def gaussian_chain(n=60):
    """The non-orthogonal chain of the data/ fixtures' recipe: Gaussian
    hopping h_ij = -0.35 exp(-0.4 d^2) with on-site -1.2 + 0.05 i, and
    overlap s_ij = exp(-0.5 d^2), d = i - j."""
    i = np.arange(n)
    d2 = (i[:, None] - i[None, :]) ** 2.0
    h = -0.35 * np.exp(-0.4 * d2)
    h[i, i] = -1.2 + 0.05 * i
    return h, np.exp(-0.5 * d2)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SAMPLE_S = DATA_DIR / "sample_overlap.mat"
#: a 2 x 2 H whose entries are near the largest float, the levels 0, ..., 7,
#: and an overlap whose trace passes the largest float
TWO_BIG = "2 2\n0 1.7e308\n1.7e308 0\n"
LEVELS_0_TO_7 = np.diag(np.arange(8.0))
HUGE_S = 1e308 * np.eye(8)

#: The three commands that write an --out, with their solve arguments.
OUT_COMMANDS = {
    "run": ["run", "--dbeta", "0.1"],
    "oracle": ["oracle"],
    "convergence": ["convergence", "--scheme", "kraus1", "--dbeta-list", "0.1", "0.05", "0.025"],
}

#: --out paths, under a directory holding an empty directory ``results`` and
#: an empty file ``file``, that no CSV can be written to: (path, the cause
#: that the io error names, test id suffix).
BAD_OUTS = [
    ("results", "Is a directory", ""),
    ("missing/x.csv", "No such file or directory", "-missing-parent"),
    ("file/x.csv", "Not a directory", "-file-parent"),
]


def input_files(tmp_path, h, s=None):
    """The --files paths of H and S (None: no S), each given as file text, an
    array to write or the path of an existing file."""
    paths = []
    for name, m in (("h.mat", h), ("s.mat", s)):
        path = m if isinstance(m, Path) else tmp_path / name
        if isinstance(m, str):
            path.write_text(m)
        elif isinstance(m, np.ndarray):
            write_matrix(path, m)
        if m is not None:
            paths.append(str(path))
    return paths


def write_two_level(tmp_path):
    p = tmp_path / "h2.mat"
    p.write_text("2 2\n0 0\n0 1\n")
    return p


class TestRun:
    def test_huckel_grand_spectra_and_diagnostics(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "run", "--huckel", "8", "0.569", "0.066", "--grand", "--mu", "auto",
            "--scheme", "rk4", "--beta", "5", "--dbeta", "0.01",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "dmm_eigenvalue", "exact_eigenvalue", "abs_error"]
        assert len(rows) == 9
        errs = [float(r[3]) for r in rows[1:]]
        assert max(errs) < 1e-8
        diag = read_csv(tmp_path / "run.diag.csv")
        # a linear model's commutator norm is 0 by construction: no column
        assert diag[0] == ["beta", "min_eig", "trace"]
        assert float(diag[1][0]) == 0.0
        assert float(diag[-1][0]) == 5.0
        assert (tmp_path / "run.meta").exists()

    def test_canonical_emits_mu_trace(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main([
            "run", "--huckel", "8", "0.569", "0.066", "--canonical", "4",
            "--scheme", "rk4", "--beta", "5", "--dbeta", "0.01",
            "--record-every", "100", "--out", str(out),
        ])
        assert code == 0
        diag = read_csv(tmp_path / "c.diag.csv")
        traces = [float(r[2]) for r in diag[1:]]
        assert max(abs(t - 4.0) for t in traces) < 1e-6
        mu_rows = read_csv(tmp_path / "c.mu.csv")
        assert mu_rows[0] == ["beta", "mu_integrated", "mu_oracle"]
        for r in mu_rows[1:]:
            assert abs(float(r[1]) - float(r[2])) < 1e-3

    def test_deterministic_output(self, tmp_path):
        args = [
            "run", "--huckel", "6", "0.5", "0.1", "--grand",
            "--scheme", "kraus2", "--beta", "2", "--dbeta", "0.01",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.diag.csv").read_bytes() == (tmp_path / "b.diag.csv").read_bytes()

    def test_names_that_differ_before_a_dot_keep_their_own_side_files(self, tmp_path):
        # the side files drop only a final ".csv": run1.5.csv must not write
        # run1.mu.csv, run1.diag.csv and run1.meta, the side files of run1.csv
        args = ["run", "--huckel", "6", "0.5", "0.1", "--canonical", "3",
                "--scheme", "kraus1", "--beta", "1", "--dbeta", "0.1"]
        written = []
        for name in ("run1.csv", "run1.5.csv"):
            before = set(tmp_path.iterdir())
            assert main(args + ["--out", str(tmp_path / name)]) == 0
            written.append({p.name for p in set(tmp_path.iterdir()) - before})
        assert written == [{"run1.csv", "run1.mu.csv", "run1.diag.csv", "run1.meta"},
                           {"run1.5.csv", "run1.5.mu.csv", "run1.5.diag.csv", "run1.5.meta"}]

    def test_files_source(self, tmp_path, data_dir):
        out = tmp_path / "f.csv"
        code = main([
            "run", "--files", str(data_dir / "sample_hcore.mat"),
            str(data_dir / "sample_overlap.mat"),
            "--grand", "--mu", "auto", "--scheme", "rk4",
            "--beta", "3", "--dbeta", "0.003", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 9
        assert max(float(r[3]) for r in rows[1:]) < 1e-4


    def test_mu_trace_matches_cold_start_scf(self, tmp_path, data_dir):
        # the trace continues each SCF from the previous fixed points; every
        # mu_oracle must still be the cold-start answer
        from fermicool import Canonical, HamiltonianModel, load_system, scf_fixed_point

        h, s = data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat"
        out = tmp_path / "m.csv"
        assert main([
            "run", "--files", str(h), str(s), "--canonical", "4", "--nonlinear", "0.05",
            "--scheme", "kraus2", "--beta", "3", "--dbeta", "0.03", "--out", str(out),
        ]) == 0
        rows = read_csv(tmp_path / "m.mu.csv")[1:]
        assert len(rows) == 101
        # the continued trace's work, a count that repeats exactly: 603 SCF
        # iterations with the secant start and a cold mu search, 419 with
        # Picard/Aitken steps, 201 with Newton steps (bound: 201 + 10%)
        meta = dict(line.split(": ", 1) for line in (tmp_path / "m.meta").read_text().splitlines())
        assert 101 <= int(meta["mu_trace_scf_iterations"]) <= 221
        model = HamiltonianModel(load_system(h, s), coupling_u=0.05)
        for beta, _, mu_oracle in rows:
            cold = scf_fixed_point(model, Canonical(4.0), float(beta))
            assert abs(float(mu_oracle) - cold.mu) <= 1e-9


    def test_newton_scf_trace_on_the_gaussian_chain(self, tmp_path):
        # the 60-site non-orthogonal chain at u = 0.05: every record beta
        # after the first takes one Newton step and one confirming
        # evaluation, 202 in all; Picard/Aitken steps took 429
        from fermicool import write_matrix

        h, s = gaussian_chain()
        write_matrix(tmp_path / "h.mat", h)
        write_matrix(tmp_path / "s.mat", s)
        assert main([
            "run", "--files", str(tmp_path / "h.mat"), str(tmp_path / "s.mat"),
            "--canonical", "15", "--nonlinear", "0.05", "--scheme", "kraus2",
            "--beta", "5", "--dbeta", "0.01", "--out", str(tmp_path / "c.csv"),
        ]) == 0
        meta = dict(line.split(": ", 1) for line in (tmp_path / "c.meta").read_text().splitlines())
        assert int(meta["mu_trace_scf_iterations"]) <= 250

    def test_commutator_column_only_for_nonlinear_models(self, tmp_path):
        # a linear model's state stays a function of H, so its commutator
        # norm is 0 by construction and gets no column; a nonlinear state
        # stops commuting with H once its Hamiltonian is refreshed
        argv = ["run", "--huckel", "6", "0", "1", "--canonical", "3", "--scheme", "kraus2",
                "--beta", "2", "--dbeta", "0.05", "--record-every", "10"]
        assert main([*argv, "--out", str(tmp_path / "linear.csv")]) == 0
        assert read_csv(tmp_path / "linear.diag.csv")[0] == ["beta", "min_eig", "trace"]
        assert main([*argv, "--nonlinear", "0.3", "--out", str(tmp_path / "nonlinear.csv")]) == 0
        diag = read_csv(tmp_path / "nonlinear.diag.csv")
        assert diag[0] == ["beta", "min_eig", "trace", "commutator_norm"]
        comm = [float(r[3]) for r in diag[1:]]
        assert comm[0] == 0.0 and min(comm[1:]) > 1e-3

    @pytest.mark.parametrize("case, extra, cold", [
        ("nonlinear", ["--nonlinear", "0.05", "--scheme", "kraus2"], 911),
        ("linear", ["--scheme", "rk4"], 709),
    ])
    def test_mu_trace_warm_starts_every_mu_search(self, tmp_path, monkeypatch, case, extra,
                                                   cold):
        # occupation evaluations of the mu searches inside the mu trace on the
        # 60-site chain.  ``cold`` is the count when each SCF's first search
        # and each linear oracle started at the bracket midpoint (911 and
        # 709); continuing mu from the previous record betas must cut it to
        # at most 60%
        from fermicool import cli, models, write_matrix

        evaluations, tracing = [], []
        search, trace = models.find_mu_for_occupation, cli._mu_trace

        def search_spy(*args, **kwargs):
            result = search(*args, **kwargs)
            if tracing:
                evaluations.append(result.iterations)
            return result

        def trace_spy(*args):
            tracing.append(True)
            try:
                return trace(*args)
            finally:
                tracing.clear()

        monkeypatch.setattr(models, "find_mu_for_occupation", search_spy)
        monkeypatch.setattr(cli, "_mu_trace", trace_spy)
        h, s = gaussian_chain()
        write_matrix(tmp_path / "h.mat", h)
        write_matrix(tmp_path / "s.mat", s)
        assert main([
            "run", "--files", str(tmp_path / "h.mat"), str(tmp_path / "s.mat"),
            "--canonical", "15", "--beta", "5", "--dbeta", "0.01", *extra,
            "--out", str(tmp_path / f"{case}.csv"),
        ]) == 0
        assert len(evaluations) >= 100
        assert sum(evaluations) <= 0.6 * cold

    @pytest.mark.parametrize("case, extra, seam", [
        ("linear", ["--scheme", "rk4"], "_frame_state"),
        ("nonlinear", ["--nonlinear", "0.05", "--scheme", "kraus2"], "generalized_eigh"),
    ])
    def test_mu_trace_makes_only_what_it_reads(self, tmp_path, monkeypatch, case, extra, seam):
        # the walk continues each SCF in the overlap frame and forms no S-frame
        # state: no HermitianMatrix, no ScfResult and no Frame.to_frame.  A
        # linear trace makes one frame evaluation per record beta on the
        # system's cached levels and no decomposition; a nonlinear one makes
        # one decomposition per SCF evaluation after beta = 0 (a second one per
        # evaluation would double the count)
        from fermicool import cli, matcore, models, write_matrix

        counts, iterations, tracing = {}, [], []
        trace, loop = cli._mu_trace, models._frame_scf

        def trace_spy(*args):
            tracing.append(True)
            try:
                return trace(*args)
            finally:
                tracing.clear()

        def loop_spy(model, ensemble, beta, *args):
            result = loop(model, ensemble, beta, *args)
            if tracing and beta > 0.0:
                iterations.append(result[2])
            return result

        def count(owner, name):
            assert hasattr(owner, name), f"no {name} to spy on"

            def spy(*args, _inner=getattr(owner, name), **kwargs):
                if tracing:
                    counts[name] = counts.get(name, 0) + 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        for name in {seam, "generalized_eigh", "HermitianMatrix", "ScfResult"}:
            count(models, name)
        for frame in (matcore.Frame, matcore.IdentityFrame):
            count(frame, "to_frame")
        monkeypatch.setattr(models, "_frame_scf", loop_spy)
        monkeypatch.setattr(cli, "_mu_trace", trace_spy)
        h, s = gaussian_chain()
        write_matrix(tmp_path / "h.mat", h)
        write_matrix(tmp_path / "s.mat", s)
        assert main([
            "run", "--files", str(tmp_path / "h.mat"), str(tmp_path / "s.mat"),
            "--canonical", "15", "--beta", "5", "--dbeta", "0.01", *extra,
            "--out", str(tmp_path / f"{case}.csv"),
        ]) == 0
        assert len(read_csv(tmp_path / f"{case}.mu.csv")) == 102
        # one SCF per record beta, 100 after beta = 0
        assert len(iterations) == 100
        if case == "linear":
            assert iterations == [1] * 100
            assert counts.pop("_frame_state") == 101
        else:
            assert counts.pop("generalized_eigh") == sum(iterations)
        assert counts == {}

    def test_subnormal_entries_do_not_change_outputs(self, tmp_path):
        # the Gaussian tails of a 60-site chain hold subnormal entries;
        # the run on the file with them zeroed writes the same bytes
        from fermicool import write_matrix

        h, s = gaussian_chain()
        tiny = np.finfo(float).tiny
        outputs = []
        for label, flush in (("raw", False), ("flushed", True)):
            paths = []
            for name, m in (("h", h), ("s", s)):
                if flush:
                    m = np.where(np.abs(m) < tiny, 0.0, m)
                paths.append(tmp_path / f"{name}_{label}.mat")
                write_matrix(paths[-1], m)
            out = tmp_path / f"{label}.csv"
            assert main([
                "run", "--files", *map(str, paths), "--canonical", "15",
                "--nonlinear", "0.05", "--scheme", "kraus2", "--beta", "1", "--dbeta", "0.05",
                "--record-every", "5", "--out", str(out),
            ]) == 0
            outputs.append([(tmp_path / f"{label}{ext}").read_bytes()
                            for ext in (".csv", ".mu.csv", ".diag.csv")])
        assert ((s != 0) & (np.abs(s) < tiny)).any()
        assert outputs[0] == outputs[1]

    def test_mu_pencil_resolves_auto_from_the_pencil(self, tmp_path, data_dir):
        from fermicool import default_chemical_potential, load_system

        h, s = data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat"
        mu_used = {}
        for label, extra in (("pencil", ["--mu-pencil"]), ("plain", [])):
            out = tmp_path / f"{label}.csv"
            assert main([
                "run", "--files", str(h), str(s), "--grand", *extra,
                "--scheme", "kraus1", "--beta", "1", "--dbeta", "0.05", "--out", str(out),
            ]) == 0
            meta = dict(line.split(": ", 1)
                        for line in (tmp_path / f"{label}.meta").read_text().splitlines())
            mu_used[label] = meta["mu_used"]
        system = load_system(h, s)
        assert mu_used["pencil"] == format(default_chemical_potential(system, use_pencil=True),
                                           ".17g")
        assert mu_used["pencil"] != mu_used["plain"]


def test_continuation_start_extrapolates_by_lagrange(rng):
    # the mu trace's SCF and mu search start from this extrapolation
    from fermicool.models import _lagrange

    a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
    points = [(x, a + x * b + x * x * c) for x in (0.1, 0.2, 0.35)]
    # exact on a quadratic from three points, on a line from two
    np.testing.assert_allclose(_lagrange(points, 0.5), a + 0.5 * b + 0.25 * c,
                               atol=1e-12)
    np.testing.assert_allclose(_lagrange([(0.1, a + 0.1 * b), (0.2, a + 0.2 * b)], 0.5),
                               a + 0.5 * b, atol=1e-12)
    np.testing.assert_array_equal(_lagrange(points[:1], 0.5), points[0][1])
    assert _lagrange([], 0.5) is None


class TestOracle:
    def test_two_level_grand(self, tmp_path):
        h = write_two_level(tmp_path)
        out = tmp_path / "o.csv"
        code = main([
            "oracle", "--files", str(h), "--grand", "--mu", "0.5",
            "--beta", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        occ = sorted(float(r[1]) for r in rows[1:])
        assert occ[0] == pytest.approx(0.268941421370, abs=1e-9)
        assert occ[1] == pytest.approx(0.731058578630, abs=1e-9)

    def test_huckel_infinite_temperature(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main([
            "oracle", "--huckel", "50", "0.569", "0.066", "--grand",
            "--beta", "0", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 51
        assert all(float(r[1]) == 0.5 for r in rows[1:])

    def test_occupations_of_degenerate_levels_are_analytic(self, tmp_path):
        # the 6-ring's levels -2, -1, -1, 1, 1, 2 at half filling: mu = 0, so
        # the three highest levels hold f(60) = e^-60 / (1 + e^-60) and f(30)
        # twice, read from the levels and not back from the density; eigh
        # may return the degenerate pair an ulp apart, so their occupations
        # agree to rounding (3.5e-15 relative with levels 1 - 2^-53 and 1),
        # not always bit for bit
        out = tmp_path / "o.csv"
        assert main(["oracle", "--huckel", "6", "0", "1", "--canonical", "3", "--beta", "30",
                     "--out", str(out)]) == 0
        occ = [float(row[1]) for row in read_csv(out)[1:]]
        assert occ[0] == pytest.approx(8.7565107626965832e-27, rel=1e-15, abs=0.0)
        assert occ[1] == pytest.approx(9.3576229688393e-14, rel=1e-14, abs=0.0)
        assert occ[2] == pytest.approx(occ[1], rel=1e-14, abs=0.0)

    def test_nonlinear_scf_reports_iterations(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main([
            "oracle", "--huckel", "6", "0.569", "0.066", "--grand",
            "--nonlinear", "0.1", "--beta", "1", "--aitken", "--out", str(out),
        ])
        assert code == 0
        assert "scf converged" in capsys.readouterr().out
        meta = (tmp_path / "o.meta").read_text()
        assert "scf_iterations" in meta
        # a canonical run totals the SCF iterations of its mu trace
        run = tmp_path / "r.csv"
        assert main([
            "run", "--huckel", "6", "0.569", "0.066", "--canonical", "3",
            "--nonlinear", "0.1", "--scheme", "rk4", "--beta", "1", "--dbeta", "0.05",
            "--out", str(run),
        ]) == 0
        records = len(read_csv(tmp_path / "r.mu.csv")) - 1
        lines = dict(line.split(": ", 1) for line in
                     (tmp_path / "r.meta").read_text().splitlines())
        assert int(lines["mu_trace_scf_iterations"]) >= records == 21

    @pytest.mark.parametrize("extra, counted", [([], False), (["--nonlinear", "0.1"], True)],
                             ids=["linear", "nonlinear"])
    def test_scf_counts_are_n_a_for_linear_models(self, tmp_path, capsys, extra, counted):
        # a linear oracle is one evaluation of scf_fixed_point, yet no SCF
        # runs, so the .meta and stdout report none
        argv = ["--huckel", "12", "0.569", "0.066", "--canonical", "6", "--beta", "1", *extra]
        assert main(["run", *argv, "--dbeta", "0.1", "--out", str(tmp_path / "r.csv")]) == 0
        assert main(["oracle", *argv, "--out", str(tmp_path / "o.csv")]) == 0
        assert ("scf converged" in capsys.readouterr().out) == counted
        for name, keys in (("r", ("scf_iterations", "mu_trace_scf_iterations")),
                           ("o", ("scf_iterations",))):
            meta = dict(line.split(": ", 1)
                        for line in (tmp_path / f"{name}.meta").read_text().splitlines())
            for key in keys:
                assert meta[key].isdigit() if counted else meta[key] == "n/a"

    @pytest.mark.parametrize("coupling", ["1e10", "1e200"])
    def test_beta_zero_mu_is_the_core_limit(self, tmp_path, capsys, data_dir, coupling):
        # the state at beta = 0 is (N/2) S, where H = H_core: mu is
        # Tr[H_core] / Tr[S] = -1.025 whatever the coupling
        h, s = data_dir / "sample_hcore.mat", data_dir / "sample_overlap.mat"
        out = tmp_path / "o.csv"
        assert main(["oracle", "--files", str(h), str(s), "--canonical", "4",
                     "--nonlinear", coupling, "--beta", "0", "--out", str(out)]) == 0
        assert "oracle mu at beta=0: -1.025\n" in capsys.readouterr().out
        system = load_system(h, s)
        meta = dict(line.split(": ", 1) for line in (tmp_path / "o.meta").read_text().splitlines())
        assert meta["mu_oracle"] == format(infinite_temperature_mu(system.h_core, system.s), ".17g")

    def test_aitken_toggle_same_spectra(self, tmp_path):
        base = [
            "oracle", "--huckel", "6", "0.569", "0.066", "--grand",
            "--nonlinear", "0.1", "--beta", "1", "--scf-tol", "1e-11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--aitken", "--out", str(a)]) == 0
        assert main(base + ["--no-aitken", "--out", str(b)]) == 0
        ra, rb = read_csv(a), read_csv(b)
        for x, y in zip(ra[1:], rb[1:]):
            assert abs(float(x[1]) - float(y[1])) < 1e-10


class TestConvergence:
    def test_kraus1_observed_order(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main([
            "convergence", "--huckel", "6", "0", "1", "--grand",
            "--scheme", "kraus1", "--beta", "1",
            "--dbeta-list", "0.1", "0.05", "0.025", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["dbeta", "global_error", "observed_order"]
        assert rows[1][2] == "n/a"  # the first step size has no coarser one
        orders = [float(r[2]) for r in rows[2:]]
        assert all(abs(o - 1.0) < 0.2 for o in orders)

    @pytest.mark.parametrize("ensemble", [["--grand"], ["--canonical", "3"]])
    def test_records_only_the_ends_of_each_run(self, tmp_path, monkeypatch, ensemble):
        # only the final density is read, so each step size records
        # beta = 0 and its last step and nothing between
        from fermicool import cli

        trajectories = []
        real_cool = cli.cool

        def spy(*args, **kwargs):
            trajectories.append(real_cool(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(cli, "cool", spy)
        assert main(["convergence", "--huckel", "6", "0", "1", *ensemble,
                     "--scheme", "kraus2", "--beta", "1",
                     "--dbeta-list", "0.1", "0.05", "0.025",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert [traj.delta_beta for traj in trajectories] == [0.1, 0.05, 0.025]
        for traj in trajectories:
            assert traj.betas.tolist() == [0.0, 1.0]

    def test_rejects_non_halving_list(self, tmp_path, capsys):
        code = main([
            "convergence", "--huckel", "6", "0", "1", "--grand",
            "--scheme", "rk4", "--beta", "1",
            "--dbeta-list", "0.1", "0.03", "0.01",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "halve" in capsys.readouterr().err


def run_columns(tmp_path, name, argv):
    """``run`` with ``argv`` into ``tmp_path``: each of its CSVs ('' for the
    spectra, '.mu', '.diag') as a dict of numeric columns."""
    assert main(["run", *argv, "--out", str(tmp_path / f"{name}.csv")]) == 0
    files = {}
    for ext in ("", ".mu", ".diag"):
        header, *rows = read_csv(tmp_path / f"{name}{ext}.csv")
        files[ext] = {key: np.array([float(row[i]) for row in rows])
                      for i, key in enumerate(header)}
    return files


class TestSymmetryLaws:
    """One run per exact symmetry of the problem (scale, shift, relabel)
    through ``main``, against its untransformed twin: every column of every
    CSV.  A shift or relabel law
    holds within SYMMETRY_RTOL of its file's largest |x| (9.8e-15 measured)."""

    SAMPLE = ["--canonical", "4", "--nonlinear", "0.05", "--beta", "3", "--dbeta", "0.01"]

    def test_scale_by_8_is_bit_for_bit(self, tmp_path):
        # (H, u, beta, db) -> (8 H, 8 u, beta / 8, db / 8) scales every
        # floating-point operation exactly: the same occupations, and mu and
        # the commutator with H times 8
        argv = ["--canonical", "3", "--scheme", "kraus2", "--huckel", "6"]
        base = run_columns(tmp_path, "base", [*argv, "0.569", "0.066", "--nonlinear", "0.1",
                                               "--beta", "4", "--dbeta", "0.1"])
        scaled = run_columns(tmp_path, "scaled", [*argv, "4.552", "0.528", "--nonlinear", "0.8",
                                                   "--beta", "0.5", "--dbeta", "0.0125"])
        factors = {".mu": {"beta": 1 / 8, "mu_integrated": 8, "mu_oracle": 8},
                   ".diag": {"beta": 1 / 8, "commutator_norm": 8}}
        for ext in base:
            for key, column in base[ext].items():
                factor = factors.get(ext, {}).get(key, 1)
                assert (factor * column).tobytes() == scaled[ext][key].tobytes(), (ext, key)
        assert len(base[".mu"]["beta"]) == 41

    @pytest.mark.parametrize("scheme", ["kraus1", "kraus2", "rk4"])
    @pytest.mark.parametrize("law", ["shift", "relabel"])
    def test_shift_and_relabel(self, tmp_path, law, scheme):
        # H -> H + 0.7 S moves each mu by 0.7 and nothing else; a relabeling
        # (H, S) -> (Pi H Pi^T, Pi S Pi^T) that keeps the model's J (even
        # sites to even sites) moves nothing
        sample_h = DATA_DIR / "sample_hcore.mat"
        h, s = read_matrix(sample_h), read_matrix(SAMPLE_S)
        if law == "shift":
            c, moved = 0.7, input_files(tmp_path, h + 0.7 * s, SAMPLE_S)
        else:
            perm = np.array([2, 7, 4, 1, 6, 3, 0, 5])
            c, moved = 0.0, input_files(tmp_path, h[np.ix_(perm, perm)], s[np.ix_(perm, perm)])
        argv = [*self.SAMPLE, "--scheme", scheme]
        base = run_columns(tmp_path, "base", ["--files", str(sample_h), str(SAMPLE_S), *argv])
        other = run_columns(tmp_path, law, ["--files", *moved, *argv])
        for ext, columns in base.items():
            scale = max(np.abs(column).max() for key, column in columns.items() if key != "index")
            for key, column in columns.items():
                shift = c if key.startswith("mu_") else 0.0
                gap = np.abs(other[ext][key] - shift - column).max()
                assert gap <= SYMMETRY_RTOL * scale, (ext, key, gap / scale)


def test_every_option_has_help_text():
    # every action of every subcommand but -h says what it does in --help
    subcommands = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
    missing = [f"{name} {'/'.join(action.option_strings)}"
               for name, sub in subcommands.choices.items() for action in sub._actions
               if action.help is None and action.dest != "help"]
    assert missing == []


class TestExitCodes:
    def test_argument_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--grand", "--beta", "1", "--dbeta", "0.1"])
        assert exc.value.code == 2

    def test_parse_error_missing_file(self, tmp_path, capsys):
        code = main([
            "run", "--files", str(tmp_path / "missing.mat"), "--grand",
            "--mu", "0", "--beta", "1", "--dbeta", "0.1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        assert "error[parse]" in capsys.readouterr().err

    def test_parse_error_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 0\nnope nope\n")
        code = main([
            "oracle", "--files", str(bad), "--grand", "--mu", "0",
            "--beta", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_infeasible_ensemble(self, tmp_path, capsys):
        code = main([
            "run", "--huckel", "6", "0", "1", "--canonical", "6",
            "--scheme", "rk4", "--beta", "1", "--dbeta", "0.1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 4
        assert "error[infeasible]" in capsys.readouterr().err

    def test_solver_abort(self, tmp_path, capsys):
        code = main([
            "run", "--huckel", "4", "0", "50", "--grand", "--mu", "0",
            "--scheme", "rk4", "--beta", "100", "--dbeta", "50",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 5
        assert "error[solver-abort]" in capsys.readouterr().err

    @pytest.mark.parametrize("h, s, argv, code, cause", [
        (TWO_BIG, None, ["oracle", "--grand", "--mu", "0", "--beta", "1"], 0, None),
        (TWO_BIG, None, ["oracle", "--canonical", "1", "--beta", "1"], 0, None),
        (TWO_BIG, None, ["run", "--grand", "--mu", "0", "--beta", "1", "--dbeta", "0.1"], 5,
         "error[solver-abort]: non-finite values"),
        # Tr[S] = 8e308: full filling, the canonical normalization 2 Ne / Tr[S]
        # and the trace of the beta = 0 state S / 2 are not finite
        *[(LEVELS_0_TO_7, HUGE_S, argv, 3, "error[parse]: the overlap's trace Tr[S] passes")
          for argv in (
              ["run", "--canonical", "4", "--beta", "1", "--dbeta", "0.5"],
              ["run", "--grand", "--beta", "1", "--dbeta", "0.5"],
              ["oracle", "--canonical", "4", "--beta", "1"],
              ["oracle", "--grand", "--beta", "1"],
              ["convergence", "--canonical", "4", "--beta", "1", "--scheme", "kraus1",
               "--dbeta-list", "0.1", "0.05", "0.025"])],
    ], ids=["oracle-grand", "oracle-canonical", "run", "trace-s-run-canonical",
            "trace-s-run-grand", "trace-s-oracle-canonical", "trace-s-oracle-grand",
            "trace-s-convergence"])
    def test_entries_near_the_largest_float(self, tmp_path, capsys, h, s, argv, code, cause):
        out = tmp_path / "out" / "x.csv"
        out.parent.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--files", *input_files(tmp_path, h, s),
                         "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        if code:
            assert err.startswith("fermicool: " + cause) and err.count("\n") == 1
            assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("h, s, argv, cause", [
        ("2 2\n1.7e308 0\n0 1.0e308\n", None,
         ["run", "--canonical", "1", "--beta", "1", "--dbeta", "0.1"], "Tr[H]/Tr[S]"),
        ("2 2\n1.7e308 1e308\n1e308 1.6e308\n", None,
         ["oracle", "--canonical", "1", "--beta", "1"], "mu bracket"),
        # the SCF's start density keeps the error of its first evaluation
        ("2 2\n1.7e308 1e308\n1e308 1.6e308\n", None,
         ["oracle", "--canonical", "1", "--nonlinear", "0.1", "--beta", "1"], "mu bracket"),
        # finite H whose frame form Z^T H Z passes the largest float, since
        # the sample overlap has eigenvalues below 1
        *[(1e308 * np.ones((8, 8)), SAMPLE_S, argv, "H in the overlap's frame")
          for argv in (
              ["oracle", "--grand", "--mu", "0", "--beta", "1"],
              ["oracle", "--grand", "--mu-pencil", "--beta", "1"],
              ["oracle", "--canonical", "4", "--beta", "1"],
              ["oracle", "--canonical", "4", "--nonlinear", "1", "--beta", "1"],
              ["run", "--grand", "--beta", "1", "--dbeta", "0.5"],
              ["convergence", "--grand", "--mu", "0", "--beta", "1", "--scheme", "kraus1",
               "--dbeta-list", "0.1", "0.05", "0.025"])],
    ], ids=["trace-overflow", "pencil-overflow", "scf-start-pencil-overflow",
            "frame-oracle-grand", "frame-oracle-mu-pencil", "frame-oracle-canonical",
            "frame-oracle-nonlinear", "frame-run-grand", "frame-convergence"])
    def test_finite_entries_whose_trace_or_spectrum_overflows(self, tmp_path, capsys, h, s,
                                                              argv, cause):
        out = tmp_path / "out" / "x.csv"
        out.parent.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--files", *input_files(tmp_path, h, s),
                         "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "error[infeasible]" in err and cause in err and "not finite" in err
        assert "Traceback" not in err and "Warning" not in err
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["run", "--dbeta", "0.1"],
        ["oracle"],
        ["convergence", "--scheme", "rk4", "--dbeta-list", "0.4", "0.2", "0.1"],
    ], ids=["run", "oracle", "convergence"])
    def test_mismatched_file_dimensions_are_parse_errors(self, tmp_path, capsys, argv):
        h, s = tmp_path / "h4.mat", tmp_path / "s3.mat"
        h.write_text("4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        s.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], "--files", str(h), str(s), "--grand", "--mu", "0",
                         "--beta", "1", *argv[1:], "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error[parse]" in err and "4-dimensional" in err and "3-dimensional" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("aitken", [True, False], ids=["newton", "picard"])
    @pytest.mark.parametrize("ensemble", [["--grand"], ["--canonical", "2"]],
                             ids=["grand", "canonical"])
    @pytest.mark.parametrize("coupling", ["1e20", "1e100", "1e200", "1e300"])
    def test_scf_at_extreme_coupling_is_oscillation(self, tmp_path, capsys, coupling,
                                                    ensemble, aitken):
        # the Newton step's Jacobian action overflows from about u = 1e100 on;
        # such an iterate is a failed step like any other
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["oracle", "--huckel", "4", "0", "1", *ensemble,
                         "--nonlinear", coupling, "--beta", "1",
                         *([] if aitken else ["--no-aitken"]),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 6
        err = capsys.readouterr().err
        assert "error[scf]" in err and "oscillation" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("aitken", [True, False], ids=["newton", "picard"])
    @pytest.mark.parametrize("ensemble, coupling, cause", [
        (["--grand"], "1.7e308", "the pencil of H(P) cannot be decomposed"),
        (["--canonical", "4"], "1e200", "mu search stopped after 200 iterations"),
        (["--canonical", "4"], "1e308", "mu search stopped after 200 iterations"),
        (["--canonical", "4"], "1.7e308", "mu search stopped after 200 iterations"),
    ], ids=["grand", "canonical-1e200", "canonical-1e308", "canonical-1.7e308"])
    def test_scf_iterate_without_a_state_is_scf_error(self, tmp_path, capsys, data_dir,
                                                      ensemble, coupling, cause, aitken):
        # past the start density F can fail at extreme coupling: the reduced
        # pencil overflows, or the mu search over levels 1e200 apart runs out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["oracle", "--files", str(data_dir / "sample_hcore.mat"),
                         str(data_dir / "sample_overlap.mat"), *ensemble,
                         "--nonlinear", coupling, "--beta", "1",
                         *([] if aitken else ["--no-aitken"]),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 6
        err = capsys.readouterr().err
        assert "error[scf]" in err and "a Picard step, has no Fermi-Dirac state" in err
        assert cause in err and "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("argv, mu, code", [
        (["--huckel", "4", "1e308", "0"], 1e308, 0),
        (["--huckel", "4", "1e308", "1e308"], None, 4),
        (["--huckel", "4", "1e308", "1e308", "--mu-pencil"], None, 4),
    ], ids=["flat", "ring", "ring-pencil"])
    def test_mu_auto_whose_sum_overflows_is_finite(self, tmp_path, capsys, argv, mu, code):
        # the two middle levels sum past the largest float; their average does
        # not.  The ring's top level, 1e308 + 2e308, is past it as well, so its
        # grand canonical state is not defined: exit 4, as for the canonical
        # ensemble
        system = build_huckel(int(argv[1]), float(argv[2]), float(argv[3]))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            average = default_chemical_potential(system, use_pencil="--mu-pencil" in argv)
            assert main(["oracle", *argv, "--grand", "--beta", "1", "--out", str(out)]) == code
        assert math.isfinite(average)
        assert mu is None or average == mu
        err = capsys.readouterr().err
        if code == 0:
            meta = dict(line.split(": ", 1)
                        for line in (tmp_path / "x.meta").read_text().splitlines())
            assert float(meta["mu_oracle"]) == average
        else:
            assert "error[infeasible]" in err and "pass the largest float" in err
            assert not out.exists()
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("scheme", ["kraus1", "kraus2", "rk4"])
    def test_record_of_a_state_whose_s_frame_form_overflows(self, tmp_path, capsys, scheme):
        # Q's S-frame form P = Y Q Y^T passes the largest float, and Q itself
        # at the next step: a solver abort, not a failed eigvalsh
        a = np.random.default_rng(1).uniform(-1.0, 1.0, (4, 4))
        files = input_files(tmp_path, 1e300 * (a + a.T) / 2, 1e200 * np.eye(4))
        out = tmp_path / "out" / "x.csv"
        out.parent.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--files", *files, "--canonical", "2", "--nonlinear", "0.5",
                         "--beta", "1", "--dbeta", "0.1", "--scheme", scheme, "--out", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("fermicool: error[solver-abort]: non-finite values")
        assert err.count("\n") == 1 and list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("scheme", ["kraus1", "kraus2", "rk4"])
    def test_final_state_whose_s_frame_form_overflows(self, tmp_path, capsys, scheme):
        # one step of db = 1 at mu = 40 over the level 0 takes the occupation
        # from 1/2 to a finite value past 2, and P = 1e308 q passes the
        # largest float: a solver abort before the final density is formed
        out = tmp_path / "out" / "x.csv"
        out.parent.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--files", *input_files(tmp_path, "1 1\n0\n", "1 1\n1e308\n"),
                         "--grand", "--mu", "40", "--beta", "1", "--dbeta", "1",
                         "--scheme", scheme, "--out", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("fermicool: error[solver-abort]: non-finite values")
        assert err.count("\n") == 1 and list(out.parent.iterdir()) == []

    def test_run_at_a_finite_mu_auto_near_the_largest_float(self, tmp_path, capsys):
        # mu resolves to 1.5e308; a step of 0.5 over levels 4e307 apart then
        # overflows the state, which is a solver abort
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--huckel", "4", "1.5e308", "1e307", "--grand", "--beta", "1",
                         "--dbeta", "0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 5
        err = capsys.readouterr().err
        assert "error[solver-abort]" in err and "Warning" not in err

    @pytest.mark.parametrize("argv", [
        ["oracle"], ["oracle", "--mu-pencil"], ["run", "--dbeta", "0.5"],
    ], ids=["oracle", "oracle-pencil", "run"])
    def test_mu_auto_beyond_the_largest_float_is_argument_error(self, tmp_path, capsys,
                                                                argv):
        # the levels are 0 and 3.4e308, past the largest float
        big = tmp_path / "big.mat"
        big.write_text("2 2\n1.7e308 1.7e308\n1.7e308 1.7e308\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], "--files", str(big), "--grand", "--beta", "1", *argv[1:],
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[argument]" in err and "--mu auto" in err and "no finite average" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--huckel", "4", "0", "1", "--grand", "--mu", "0", "--beta", "1e308"],
        ["--huckel", "4", "0", "1", "--canonical", "2", "--beta", "1e308"],
        ["--huckel", "4", "0", "1e200", "--canonical", "2", "--beta", "1e200"],
    ], ids=["grand", "canonical", "canonical-wide"])
    def test_oracle_at_extreme_beta_saturates_silently(self, tmp_path, capsys, argv):
        # beta (lambda - mu) overflows to +-inf, where the Fermi factor is exactly 0 or 1
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", *argv, "--out", str(out)]) == 0
        occ = sorted(float(r[1]) for r in read_csv(out)[1:])
        assert occ == pytest.approx([0.0, 0.0, 1.0, 1.0], abs=1e-12)
        assert "Warning" not in capsys.readouterr().err

    def test_scf_non_convergence(self, tmp_path, capsys):
        code = main([
            "oracle", "--huckel", "6", "0.569", "0.066", "--grand",
            "--nonlinear", "0.2", "--beta", "5", "--scf-tol", "1e-15",
            "--scf-max-iter", "3", "--no-aitken", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 6
        assert "error[scf]" in capsys.readouterr().err

    def test_mu_rejects_garbage(self, tmp_path, capsys):
        code = main([
            "oracle", "--huckel", "6", "0", "1", "--grand", "--mu", "banana",
            "--beta", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "error[argument]" in capsys.readouterr().err

    def test_record_every_zero_is_argument_error(self, tmp_path, capsys):
        code = main([
            "run", "--huckel", "6", "0", "1", "--grand", "--scheme", "rk4",
            "--beta", "1", "--dbeta", "0.1", "--record-every", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "record_every" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_positivity_tol_must_be_finite_non_negative(self, tmp_path, capsys, data_dir,
                                                       value):
        code = main([
            "run", "--files", str(data_dir / "sample_hcore.mat"),
            str(data_dir / "sample_overlap.mat"), "--canonical", "4", "--beta", "1",
            "--dbeta", "0.1", "--positivity-tol", value, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "positivity_tol" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--scf-tol", "nan"), ("--scf-tol", "0"), ("--scf-tol", "-1"),
        ("--scf-max-iter", "0"), ("--scf-max-iter", "-3"),
    ])
    def test_scf_controls_are_argument_errors(self, tmp_path, capsys, flag, value):
        code = main([
            "oracle", "--huckel", "6", "0.569", "0.066", "--grand", "--nonlinear", "0.05",
            "--beta", "1", flag, value, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[argument]" in err and flag in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,flag", [
        (["oracle", "--grand", "--beta", "-1"], "--beta"),
        (["oracle", "--canonical", "3", "--beta", "-1"], "--beta"),
        (["oracle", "--grand", "--beta", "nan"], "--beta"),
        (["run", "--grand", "--beta", "inf", "--dbeta", "0.1"], "--beta"),
        (["convergence", "--grand", "--scheme", "rk4", "--beta", "1",
          "--dbeta-list", "2", "1", "0.5"], "--dbeta-list"),
        (["convergence", "--grand", "--scheme", "rk4", "--beta", "-1",
          "--dbeta-list", "0.4", "0.2", "0.1"], "--beta"),
        (["convergence", "--grand", "--scheme", "rk4", "--beta", "1",
          "--dbeta-list", "0.4", "0.2", "0"], "--dbeta-list"),
        # about 1e300 steps: the run never ended
        (["run", "--grand", "--beta", "1", "--dbeta", "1e-300"], "--dbeta"),
        (["convergence", "--grand", "--scheme", "rk4", "--beta", "1",
          "--dbeta-list", "0.4", "0.2", "1e-300"], "--dbeta-list"),
    ])
    def test_beta_and_step_list_are_argument_errors(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "x.csv"
        code = main([argv[0], "--huckel", "6", "0", "1", *argv[1:], "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[argument]" in err and flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--mu", "nan"), ("--nonlinear", "inf")])
    def test_non_finite_number_is_argument_error(self, tmp_path, capsys, flag, value):
        code = main([
            "run", "--huckel", "6", "0", "1", "--grand", "--scheme", "rk4",
            "--beta", "1", "--dbeta", "0.1", flag, value, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[argument]" in err and flag in err

    @pytest.mark.parametrize("out", [".", "/", ""], ids=["dot", "root", "empty"])
    def test_out_without_a_file_name_is_argument_error(self, tmp_path, capsys, monkeypatch,
                                                       out):
        # the output names are derived from the last path component; an
        # empty one ended in a ValueError traceback
        from fermicool import cli

        monkeypatch.chdir(tmp_path)
        solves = []
        monkeypatch.setattr(cli, "cool", lambda *args: solves.append(args))
        monkeypatch.setattr(cli, "scf_fixed_point", lambda *args, **kw: solves.append(args))
        for argv in OUT_COMMANDS.values():
            code = main([argv[0], "--huckel", "6", "0", "1", "--grand", "--beta", "1",
                         *argv[1:], "--out", out])
            assert code == 2
            err = capsys.readouterr().err
            assert "error[argument]" in err and "--out" in err and "Traceback" not in err
        assert solves == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, out, cause", [
        (argv, out, cause) for out, cause, _ in BAD_OUTS for argv in OUT_COMMANDS.values()
    ], ids=[name + suffix for _, _, suffix in BAD_OUTS for name in OUT_COMMANDS])
    def test_out_naming_a_directory_fails_before_any_solve(self, tmp_path, capsys,
                                                           monkeypatch, argv, out, cause):
        # a directory, or a path under a missing directory or under a file,
        # cannot take the spectra CSV: the io error comes before the cooling
        # run and the mu trace, not after them
        from fermicool import cli

        def solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli, "cool", solve)
        monkeypatch.setattr(cli, "scf_fixed_point", solve)
        (tmp_path / "results").mkdir()
        (tmp_path / "file").write_text("")
        code = main([argv[0], "--huckel", "6", "0", "1", "--canonical", "3", "--beta", "1",
                     *argv[1:], "--out", str(tmp_path / out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error[io]" in err and cause in err and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "file", tmp_path / "results"]
        assert list((tmp_path / "results").iterdir()) == []
        assert (tmp_path / "file").read_text() == ""

    def test_problem_too_large_for_memory(self, tmp_path, capsys):
        # 1e9 sites ask for a 6.9 EiB matrix, whose allocation fails at once
        code = main(["oracle", "--huckel", "1e9", "0", "1", "--grand", "--beta", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("fermicool: error[memory]: out of memory")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestNonFiniteInput:
    """NaN or infinity in a matrix file is a parse error naming its line."""

    def run_files(self, tmp_path, h_text, s_text):
        h, s = tmp_path / "h.mat", tmp_path / "s.mat"
        h.write_text(h_text)
        s.write_text(s_text)
        return main([
            "run", "--files", str(h), str(s), "--grand", "--mu", "0",
            "--scheme", "rk4", "--beta", "1", "--dbeta", "0.1",
            "--out", str(tmp_path / "x.csv"),
        ])

    @pytest.mark.parametrize("h_text,s_text,where", [
        ("2 2\n0 0\n0 1\n", "2 2\n1 0\nnan 1\n", "s.mat:3:"),
        ("2 2\n0 inf\n0 1\n", "2 2\n1 0\n0 1\n", "h.mat:2:"),
    ])
    def test_exit_3_without_traceback_or_warning(self, tmp_path, capfd, recwarn,
                                                 h_text, s_text, where):
        with np.errstate(all="warn"):
            code = self.run_files(tmp_path, h_text, s_text)
        err = capfd.readouterr().err
        assert code == 3
        assert "error[parse]" in err and where in err and "non-finite" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
