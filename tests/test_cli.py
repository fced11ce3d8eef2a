import csv
import math
import warnings

import numpy as np
import pytest

from fermicool.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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
        assert diag[0] == ["beta", "min_eig", "trace", "commutator_norm"]
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
        # iterations with the secant start and a cold mu search, 419 now
        meta = dict(line.split(": ", 1) for line in (tmp_path / "m.meta").read_text().splitlines())
        assert 101 <= int(meta["mu_trace_scf_iterations"]) <= 450
        model = HamiltonianModel(load_system(h, s), coupling_u=0.05)
        for beta, _, mu_oracle in rows:
            cold = scf_fixed_point(model, Canonical(4.0), float(beta))
            assert abs(float(mu_oracle) - cold.mu) <= 1e-9


    def test_subnormal_entries_do_not_change_outputs(self, tmp_path):
        # the Gaussian tails of a 60-site chain hold subnormal entries;
        # the run on the file with them zeroed writes the same bytes
        from fermicool import write_matrix

        i = np.arange(60)
        d2 = (i[:, None] - i[None, :]) ** 2.0
        h = -0.35 * np.exp(-0.4 * d2)
        h[i, i] = -1.2 + 0.05 * i
        s = np.exp(-0.5 * d2)
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
    from fermicool.cli import _continuation_start

    a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
    points = [(x, a + x * b + x * x * c) for x in (0.1, 0.2, 0.35)]
    # exact on a quadratic from three points, on a line from two
    np.testing.assert_allclose(_continuation_start(points, 0.5), a + 0.5 * b + 0.25 * c,
                               atol=1e-12)
    np.testing.assert_allclose(_continuation_start([(0.1, a + 0.1 * b), (0.2, a + 0.2 * b)], 0.5),
                               a + 0.5 * b, atol=1e-12)
    np.testing.assert_array_equal(_continuation_start(points[:1], 0.5), points[0][1])
    assert _continuation_start([], 0.5) is None


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
        assert math.isnan(float(rows[1][2]))
        orders = [float(r[2]) for r in rows[2:]]
        assert all(abs(o - 1.0) < 0.2 for o in orders)

    def test_rejects_non_halving_list(self, tmp_path, capsys):
        code = main([
            "convergence", "--huckel", "6", "0", "1", "--grand",
            "--scheme", "rk4", "--beta", "1",
            "--dbeta-list", "0.1", "0.03", "0.01",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "halve" in capsys.readouterr().err


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

    @pytest.mark.parametrize("argv, code", [
        (["oracle", "--grand", "--mu", "0", "--beta", "1"], 0),
        (["oracle", "--canonical", "1", "--beta", "1"], 0),
        (["run", "--grand", "--mu", "0", "--beta", "1", "--dbeta", "0.1"], 5),
    ], ids=["oracle-grand", "oracle-canonical", "run"])
    def test_entries_near_the_largest_float(self, tmp_path, capsys, argv, code):
        big = tmp_path / "big.mat"
        big.write_text("2 2\n0 1.7e308\n1.7e308 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--files", str(big), "--out", str(tmp_path / "x.csv")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err

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
