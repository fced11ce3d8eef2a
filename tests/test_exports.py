import ast
import importlib
import inspect
import math
import re
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


#: Names that hold a part of the overlap frame, and the classes that own the
#: one decision of how S = 1 is represented.
FRAME_NAMES = {"w", "y", "z", "weight", "comm_weight", "defect_weight", "frame"}
FRAME_CLASSES = {"Frame", "IdentityFrame"}


def _is_frame_operand(node):
    # a frame name, an attribute of that name, or a subscript of a .frame
    if isinstance(node, ast.Name):
        return node.id in FRAME_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in FRAME_NAMES
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "frame")


def _frame_tests(node):
    # the frame operands under node that are compared with None or tested for
    # truth, outside the bodies of the frame classes
    if isinstance(node, ast.ClassDef) and node.name in FRAME_CLASSES:
        return
    tested = []
    if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot))
                                             for op in node.ops):
        operands = [node.left, *node.comparators]
        if any(isinstance(o, ast.Constant) and o.value is None for o in operands):
            tested = operands
    elif isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
        tested = [node.test]
    elif isinstance(node, ast.BoolOp):
        tested = node.values
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        tested = [node.operand]
    elif isinstance(node, ast.comprehension):
        tested = node.ifs
    yield from (operand for operand in tested if _is_frame_operand(operand))
    for child in ast.iter_child_nodes(node):
        yield from _frame_tests(child)


def test_no_code_outside_the_frame_classes_tests_for_the_identity_overlap():
    # S = 1 is an IdentityFrame, not a None in a tuple that every consumer
    # branches on: outside the frame classes no code compares a frame name
    # with None or tests its truth
    hits = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted((ROOT / "src" / "fermicool").glob("*.py"))
            for node in _frame_tests(ast.parse(path.read_text(encoding="utf-8")))]
    assert hits == []


#: The kernel operator's forms, and the names of the pair of forms that it
#: replaced: a matrix F beside its diagonals, picked between at each use.
OPERATOR_CLASSES = {"Dense", "Diagonals"}
OPERATOR_PAIR_NAMES = {"Diagonals", "f_diagonals"}


def _operator_form_uses(node):
    # an isinstance test of an operator class, a name of the pair, or a
    # call to .on(
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(t, "id", getattr(t, "attr", None)) in OPERATOR_CLASSES for t in types):
                yield node
        elif isinstance(func, ast.Attribute) and func.attr == "on":
            yield node
    names = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.keyword: "arg",
             ast.alias: "name"}
    if getattr(node, names.get(type(node), ""), None) in OPERATOR_PAIR_NAMES:
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _operator_form_uses(child)


def test_no_code_outside_matcore_picks_a_form_of_the_kernel_operator():
    # F is one kernel operator, dense or by its diagonals, chosen once in
    # matcore: no other module tests which form it has, names the diagonal
    # form, or passes it beside the dense matrix
    hits = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted((ROOT / "src" / "fermicool").glob("*.py"))
            if path.name != "matcore.py"
            for node in _operator_form_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert hits == []


def _is_frame(node):
    return isinstance(node, ast.Attribute) and node.attr == "frame"


def _frame_tuple_uses(node, in_frame_class=False):
    # a .frame subscripted or unpacked into a tuple anywhere, and a .y or .z
    # read outside the bodies of the frame classes
    in_frame_class = in_frame_class or (isinstance(node, ast.ClassDef)
                                        and node.name in FRAME_CLASSES)
    if isinstance(node, ast.Subscript) and _is_frame(node.value):
        yield node
    elif (isinstance(node, ast.Assign) and _is_frame(node.value)
          and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)):
        yield node
    elif isinstance(node, ast.Attribute) and node.attr in ("y", "z") and not in_frame_class:
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _frame_tuple_uses(child, in_frame_class)


def test_the_overlap_frame_is_one_object_not_a_tuple():
    # OverlapMatrix.frame is a Frame or an IdentityFrame: no code takes it
    # apart as (s, Y, Z), and only the frame classes read its Y and Z
    hits = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted((ROOT / "src" / "fermicool").glob("*.py"))
            for node in _frame_tuple_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert hits == []


#: A Sphinx cross-reference in a docstring: :func:`name`, :attr:`~path`, ...
_XREF = re.compile(r":(?:func|attr|meth|data|class):`~?([\w.]+)`")


def _docstring_references():
    # (module, docstring owner, referenced name) for every docstring of a
    # module, class or function under src/fermicool
    for path in sorted((ROOT / "src" / "fermicool").glob("*.py")):
        module = "fermicool" if path.stem == "__init__" else f"fermicool.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for name in _XREF.findall(ast.get_docstring(node) or ""):
                    yield module, getattr(node, "name", module), name


def _resolves(module_name, name):
    # a dotted name from the package root, or a name in the module, or a
    # relative name found in one of the module's classes
    if name.startswith("fermicool."):
        head, _, rest = name.rpartition(".")
        while head:
            try:
                target = importlib.import_module(head)
            except ImportError:
                head, _, part = head.rpartition(".")
                rest = f"{part}.{rest}"
                continue
            return _lookup(target, rest)
        return False
    module = importlib.import_module(module_name)
    return _lookup(module, name) or any(
        _lookup(cls, name) for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module_name)


def _lookup(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_docstring_reference_resolves():
    # a docstring that cites a deleted name sends the reader nowhere
    refs = list(_docstring_references())
    assert len(refs) >= 60
    unresolved = [f"{module}.{owner}: {name}" for module, owner, name in refs
                  if not _resolves(module, name)]
    assert unresolved == []


#: What a model brings to the frame: the model itself, and the members of
#: HamiltonianModel that refresh and respond in the frame.
MODEL_NAMES = {"model"}
MODEL_ATTRIBUTES = {"coupling_u", "frame_stagger", "frame_hamiltonian", "eigenbasis"}


def test_the_frame_module_names_no_model():
    # the toy model has one definition, the frame refresh in models; matcore's
    # frames are plain linear algebra and never see a model
    tree = ast.parse((ROOT / "src" / "fermicool" / "matcore.py").read_text(encoding="utf-8"))
    hits = [f"matcore.py:{node.lineno}: {getattr(node, 'name', None) or ast.unparse(node)}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in MODEL_NAMES)
            or (isinstance(node, ast.arg) and node.arg in MODEL_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr in MODEL_ATTRIBUTES)
            or (isinstance(node, ast.FunctionDef) and node.name in MODEL_ATTRIBUTES)]
    assert hits == []


def test_no_library_code_reads_occupations_back_from_a_density():
    # a state's occupations are read where they are made, eig(Q) in cool()
    # and N f in the oracle's evaluation; occupation_spectrum, which takes
    # them back from an S-frame density, is defined in models for users,
    # re-exported by the package, and named by no other library code
    names = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    hits = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted((ROOT / "src" / "fermicool").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if getattr(node, names.get(type(node), ""), None) == "occupation_spectrum"
            and not (path.name == "__init__.py" and isinstance(node, ast.alias))]
    assert hits == []
