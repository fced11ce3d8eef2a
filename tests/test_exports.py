import ast
import inspect
import math
from pathlib import Path

import fermicool

ROOT = Path(__file__).resolve().parents[1]

#: Exports whose only callers are the acceptance tests: criterion 3 checks the
#: single congruence steps through them.
CALLED_ONLY_BY_ACCEPTANCE = {"step_kraus1", "step_kraus2"}

#: Defaulted parameters that only the acceptance tests pass: criterion 3 gives
#: the single congruence steps a known S^-1.
PASSED_ONLY_BY_ACCEPTANCE = {("step_kraus1", "s_inv"), ("step_kraus2", "s_inv")}


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


def _call_sites():
    # called name -> [(positional arguments, keyword names)]; a *args passes
    # every position and a **kwargs (keyword None) every name
    calls = {}
    for path in _run_path_sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_passed():
    # a default that no call site overrides is an option nothing uses
    calls = _call_sites()
    unpassed = []
    for name in fermicool.__all__:
        func = getattr(fermicool, name)
        if not inspect.isfunction(func):
            continue
        for i, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is param.empty or (name, param.name) in PASSED_ONLY_BY_ACCEPTANCE:
                continue
            by_position = param.kind is not param.KEYWORD_ONLY
            if not any(param.name in keywords or None in keywords or (by_position and i < n_args)
                       for n_args, keywords in calls.get(name, [])):
                unpassed.append(f"{name}({param.name}=)")
    assert unpassed == []


def _private_definitions(tree):
    # module-level statement -> the private names it defines (dunders aside)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        yield stmt, [name for name in names
                     if name.startswith("_") and not name.startswith("__")]


def _references(node):
    # names read in a subtree: loaded names and attributes; a def line, an
    # assignment target or an import is not a read
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def test_every_private_name_has_a_caller_in_src():
    # a private helper is called only from the library; one whose last
    # caller is gone is dead code, whatever the tests still do with it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "fermicool").glob("*.py")}
    reads = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    uncalled = [f"{name}.{defined}" for name, tree in trees.items()
                for stmt, names in _private_definitions(tree) for defined in names
                if not any(defined in refs for other, refs in reads if other is not stmt)]
    assert sorted(uncalled) == []
