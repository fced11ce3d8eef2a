import importlib.util
import json
from pathlib import Path

import pytest

from fermicool.cli import build_parser

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_standard_case_parses():
    # the 32 cases are valid command lines of today's CLI; nothing is solved
    tool = load_tool("standard_cases")
    cases = tool.cases(tool.bench_workloads(), Path("chain_h.mat"), Path("chain_s.mat"))
    assert len(cases) == 32 and len({name for name, _ in cases}) == 32
    parser = build_parser()
    for name, argv in cases:
        args = parser.parse_args([*argv, "--out", f"{name}.csv"])
        assert name.startswith(args.command)


def test_compare_reports_identity_and_moves(tmp_path, capsys):
    tool = load_tool("standard_cases")
    old, new = tmp_path / "old", tmp_path / "new"
    for root, value, seconds in ((old, "0.5", "1.0"), (new, "0.50000000000000011", "2.0")):
        root.mkdir()
        (root / "a.csv").write_text("index,x\n0,1\n")
        (root / "a.meta").write_text(f"command: run\nelapsed_seconds: {seconds}\n")
        (root / "b.csv").write_text(f"index,x\n0,{value}\n")
        # the scale is the largest |x| outside an index column: 0.5 here, not 7
        (root / "c.csv").write_text(f"index,x,y\n7,{value},-0.25\n")
    assert tool.compare(old, new) == 1
    out = capsys.readouterr().out
    assert "identical a.csv" in out and "identical a.meta" in out
    assert "moved     b.csv: x 1.11e-16 (2.22e-16 of scale)" in out
    assert "moved     c.csv: x 1.11e-16 (2.22e-16 of scale)" in out
    assert "2 of 4 files identical" in out
    assert tool.compare(old, old) == 0


SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment


def f(x):
    """A docstring."""
    # a comment line

    return (x +
            1)


class A:
    y = "a string, not a docstring"
'''


@pytest.mark.parametrize("source, lines", [(SOURCE, 6), ("", 0), ('"""Only a docstring."""\n', 0)])
def test_code_lines_count_code_only(source, lines):
    assert load_tool("code_lines").code_lines(source) == lines


DEFINITIONS = SOURCE + '''

@property
def g(self):
    def inner():
        return 1
    return inner
'''


def test_code_lines_by_definition(tmp_path, capsys):
    # each module-level def and class counts its code lines under the same
    # rule, from its first decorator on, nested definitions included
    tool = load_tool("code_lines")
    assert tool.by_definition(DEFINITIONS) == [("f", 3), ("A", 2), ("g", 5)]
    assert tool.by_definition("x = 1\n") == []
    path = tmp_path / "mod.py"
    path.write_text(DEFINITIONS)
    assert tool.main(["--by-definition", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     5  mod.g", "     3  mod.f", "     2  mod.A", "    11  total"]


def result_line(**values):
    # one bench/run.py result object, as its last output line
    return json.dumps({"correct": True, "attempted": 12, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}})


def test_bench_pairs_summary_arithmetic():
    tool = load_tool("bench_pairs")
    old_walls = [0.40, 0.42, 0.38, 0.41, 0.45]
    new_walls = [0.35, 0.42, 0.33, 0.36, 0.37]
    old = [tool.parse_result(f"env\n{result_line(wall_s=w, bytes=1.0)}\n")
           for w in old_walls]
    new = [tool.parse_result(result_line(wall_s=w, bytes=2.0)) for w in new_walls]
    wall, size = tool.summarize(old, new, [("wall_s", "lower"), ("bytes", "higher")])
    # inclusive quartiles of 0.38 0.40 0.41 0.42 0.45
    quartiles = (wall["old_q1"], wall["old_median"], wall["old_q3"])
    assert quartiles == pytest.approx((0.40, 0.41, 0.42))
    assert wall["iqr"] == pytest.approx(0.02)
    assert wall["new_median"] == pytest.approx(0.36)
    assert wall["change"] == pytest.approx(0.36 / 0.41 - 1.0)
    assert (wall["wins"], wall["ties"], wall["pairs"]) == (4, 1, 5)
    assert not wall["gain"]  # 4 of 5 wins is below nine in ten
    # higher is better here: every pair wins, and the parent has no spread
    assert (size["wins"], size["ties"], size["iqr"], size["gain"]) == (5, 0, 0.0, True)
    assert size["change"] == pytest.approx(1.0)
    lines = tool.format_rows([wall])
    assert lines == ["wall_s       0.41 [0.4, 0.42] IQR 0.02 (4.9%) -> 0.36 s (-12.2%); "
                     "wins 4/5, ties 1"]
    new[1] = tool.parse_result(result_line(wall_s=0.30, bytes=2.0))
    assert tool.summarize(old, new, [("wall_s", "lower")])[0]["gain"]
    assert tool.failures(old) == (0, 60)


def environment(digest):
    # one bench/run.py environment, as its record line before the result
    return {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3", "nproc": 2,
            "threads": {"OPENBLAS_NUM_THREADS": "1"}, "git_commit": "unknown",
            "source_sha256": digest, "seed": 5}


def test_bench_pairs_writes_the_bench_record():
    tool = load_tool("bench_pairs")
    stdout = f"{json.dumps({'env': environment('aa')})}\n{result_line(wall_s=0.4)}\n"
    assert tool.parse_environment(stdout) == environment("aa")
    old = [json.loads(result_line(wall_s=w)) for w in (0.40, 0.42, 0.38)]
    new = [json.loads(result_line(wall_s=w)) for w in (0.35, 0.42, 0.30)]
    old[1]["failed"] = 2
    entry = tool.workload_record(range(7, 10), old, new, [("wall_s", "lower")])
    assert entry["seeds"] == [7, 8, 9] and entry["pairs"] == 3
    assert entry["order"] == "alternating, parent first on even pair index"
    assert entry["failed_solves"] == {"parent": 2, "change": 0}
    assert entry["attempted_solves"] == {"parent": 36, "change": 36}
    wall = entry["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"] == pytest.approx({"median": 0.40, "q1": 0.39, "q3": 0.41})
    assert wall["change"] == pytest.approx({"median": 0.35, "q1": 0.325, "q3": 0.385})
    assert (wall["change_wins"], wall["change_ties"], wall["gain"]) == ("2/3", 1, False)
    assert wall["runs"] == {"parent": [0.40, 0.42, 0.38], "change": [0.35, 0.42, 0.30]}
    environments = {"parent": [environment("aa")] * 2, "change": [environment("bb")]}
    record = tool.bench_record(28, "a claim", 55.0, environments,
                               {"parent": "f503baa", "change": None}, {"ring-dense": entry})
    assert json.loads(json.dumps(record)) == record
    assert record["pr"] == 28 and record["claim"] == "a claim"
    assert record["command"] == ("python3 bench/run.py --workload W --seed S --seconds 55 "
                                 "--trace 0")
    assert record["environment"] == {
        "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3", "nproc": 2,
        "threads": {"OPENBLAS_NUM_THREADS": "1"},
        "source_sha256": {"parent": "aa", "change": "bb"}}
    assert record["git"] == {"parent": "f503baa", "change": None}
    assert record["workloads"] == {"ring-dense": entry}
    environments["change"].append(environment("cc"))
    with pytest.raises(ValueError, match="change runs read more than one source tree"):
        tool.bench_record(28, "a claim", 55.0, environments, {}, {})


def test_bench_pairs_reads_the_declared_metrics():
    names = [name for name, _ in load_tool("bench_pairs").end_to_end_metrics()]
    assert names == ["wall_s", "solve_s_p50", "setup_s", "peak_rss_mb"]


#: How far a standard-case number may move, relative to its file's scale
#: (tools/standard_cases.py, fingerprint_moves): BLAS rounding moves the
#: outputs by about 1e-15 of it, and real changes by far more than 1e-12.
RELATIVE_MOVE = 1e-12


def test_standard_case_outputs_match_the_fingerprint(tmp_path):
    # the 32 standard cases, run in process, against the committed fingerprint
    tool = load_tool("standard_cases")
    codes = tool.run_cases(tmp_path)
    moves = tool.fingerprint_moves(tool.FINGERPRINT.read_text(encoding="utf-8"),
                                   tool.fingerprint(tmp_path, codes), rel=RELATIVE_MOVE)
    assert moves == []


def test_fingerprint_bounds_each_number_by_its_file_scale(tmp_path):
    tool = load_tool("standard_cases")
    (tmp_path / "a.csv").write_text("index,x,err\n0,0.5,1e-5\n1,1,2e-5\n2,nan,0\n")
    (tmp_path / "a.meta").write_text("command: run\nmu: 0.5\nelapsed_seconds: 3.0\n")
    old = tool.fingerprint(tmp_path, {"case": 0})
    assert old.splitlines() == [
        "exit case 0",
        "column a.csv index 3 0 2 3 3",
        "column a.csv x 2 0.5 1 1.5 1.5",
        "column a.csv err 3 0 2.0000000000000002e-05 3.0000000000000004e-05 "
        "3.0000000000000004e-05",
        "meta a.meta command run",
        "meta a.meta mu 0.5",
    ]
    assert tool.fingerprint_moves(old, old, rel=1e-12) == []
    # the scale of a.csv is 1, its largest |x| outside the index: err may
    # move by 1e-12, not by 1e-12 of its own size, and its sum by 3e-12
    for err, moved in (("2.00000009e-5", False), ("2.0000002e-5", True)):
        (tmp_path / "a.csv").write_text(f"index,x,err\n0,0.5,1e-5\n1,1,{err}\n2,nan,0\n")
        moves = tool.fingerprint_moves(old, tool.fingerprint(tmp_path, {"case": 0}), rel=1e-12)
        assert (moves != []) == moved
    (tmp_path / "a.csv").write_text("index,x,err\n0,0.5,1e-5\n1,1,2e-5\n2,0,0\n")
    (tmp_path / "a.meta").write_text("command: oracle\nmu: 0.5\n")
    moves = tool.fingerprint_moves(old, tool.fingerprint(tmp_path, {"case": 2}), rel=1e-12)
    assert [move.split(":")[0] for move in moves] == [
        "exit case", "column a.csv x", "meta a.meta command"]


def test_step_bytecodes_are_whole_counts_per_step():
    # two short runs read the same whole count of each event per step, for
    # every scheme and ensemble; no count is pinned, as they depend on the
    # Python and numpy versions
    tool = load_tool("step_bytecodes")
    for ensemble in tool.ENSEMBLES:
        for scheme in tool.SCHEMES:
            counts = tool.per_step(scheme, ensemble, 10, 20)
            assert tool.per_step(scheme, ensemble, 20, 40) == counts
            assert all(count > 0 and count.is_integer() for count in counts.values()), counts
