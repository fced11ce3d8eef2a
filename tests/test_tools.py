import importlib.util
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
    assert tool.compare(old, new) == 1
    out = capsys.readouterr().out
    assert "identical a.csv" in out and "identical a.meta" in out
    assert "moved     b.csv: x 1.11e-16" in out and "2 of 3 files identical" in out
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
