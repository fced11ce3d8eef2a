import ast
from pathlib import Path

import fermicool

ROOT = Path(__file__).resolve().parents[1]

#: Exports whose only callers are the acceptance tests: criterion 3 checks the
#: single congruence steps through them.
CALLED_ONLY_BY_ACCEPTANCE = {"step_kraus1", "step_kraus2"}


def test_every_export_resolves():
    missing = [name for name in fermicool.__all__ if not hasattr(fermicool, name)]
    assert missing == []
    assert len(set(fermicool.__all__)) == len(fermicool.__all__)


def _run_path_sources():
    yield from (p for p in (ROOT / "src" / "fermicool").glob("*.py") if p.name != "__init__.py")
    yield from (ROOT / "demos").glob("*.py")
    yield from (p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def test_every_export_has_a_user():
    # a use is a load of the name or an attribute of that name; an import or
    # a def line is not one
    used = set()
    for path in _run_path_sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = set(fermicool.__all__) - used - CALLED_ONLY_BY_ACCEPTANCE
    assert sorted(unused) == []
