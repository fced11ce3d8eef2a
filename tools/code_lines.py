"""Count code lines of Python sources: lines that hold a token of code.

    python tools/code_lines.py [--by-definition] [FILE ...]

A line counts when some token other than a comment or a line break starts
on it or runs across it, and it is not part of a docstring (the leading
string of a module, class or function).  Blank lines, comment lines and
docstrings count zero; a statement that spans several lines counts each.
With no FILE the sources are src/fermicool/*.py.  Prints one line per file
and the total.  ``--by-definition`` prints instead one line per module-level
function and class, ``module.name``, largest first: the code lines from its
first decorator to its last line, under the same rule.  The total still
counts every code line, inside a definition or not.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_line_numbers(source: str, tree) -> set:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - _docstring_lines(tree)


def code_lines(source: str) -> int:
    """The number of code lines in a Python source text."""
    return len(_code_line_numbers(source, ast.parse(source)))


def by_definition(source: str) -> list:
    """(name, code lines) of each module-level function and class, in source order."""
    tree = ast.parse(source)
    lines = _code_line_numbers(source, tree)
    rows = []
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min(d.lineno for d in [*node.decorator_list, node])
            rows.append((node.name, len(lines.intersection(range(start, node.end_lineno + 1)))))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    definitions = "--by-definition" in args
    paths = ([Path(a) for a in args if a != "--by-definition"]
             or sorted((ROOT / "src" / "fermicool").glob("*.py")))
    total, rows = 0, []
    for path in paths:
        source = path.read_text(encoding="utf-8")
        count = code_lines(source)
        total += count
        if definitions:
            rows += [(lines, f"{path.stem}.{name}") for name, lines in by_definition(source)]
        else:
            rows.append((count, str(path)))
    if definitions:
        rows.sort(key=lambda row: (-row[0], row[1]))
    for count, name in rows:
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
