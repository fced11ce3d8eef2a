"""Reader and writer for the dense matrix text format.

Format: the first non-comment line holds two positive integers ``R C``;
the following R non-comment lines each hold C whitespace-separated decimal
floats (scientific notation accepted; NaN and infinities are rejected).
Lines starting with ``#`` are comments, blank lines are ignored, encoding is
UTF-8 (undecodable bytes are a parse error).  Values are written with 17
significant digits so a write/read round trip reproduces doubles exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixParseError

_FLOAT_FORMAT = "%.17g"


def read_matrix(path) -> np.ndarray:
    """Parse a dense matrix file, reporting the offending line on failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise MatrixParseError(path, 0, f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise MatrixParseError(path, line, f"not UTF-8 text: {exc.reason}") from None

    data_lines = [
        (no, line.strip())
        for no, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not data_lines:
        raise MatrixParseError(path, len(lines), "no header line found")

    header_no, header = data_lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise MatrixParseError(
            path, header_no, f"header must be 'R C', got {len(fields)} fields"
        )
    try:
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError:
        raise MatrixParseError(path, header_no, f"non-integer header entries {fields!r}") from None
    if rows < 1 or cols < 1:
        raise MatrixParseError(path, header_no, f"dimensions must be positive, got {rows} {cols}")

    body = data_lines[1:]
    if len(body) != rows:
        raise MatrixParseError(
            path,
            body[-1][0] if body else header_no,
            f"expected {rows} data rows, found {len(body)}",
        )

    values = []
    for i, (no, line) in enumerate(body):
        tokens = line.split()
        if len(tokens) != cols:
            raise MatrixParseError(
                path, no, f"expected {cols} values in row {i + 1}, found {len(tokens)}"
            )
        for tok in tokens:
            try:
                values.append(float(tok))
            except ValueError:
                raise MatrixParseError(path, no, f"non-numeric token {tok!r}") from None
    # allocated only once every row has been checked against the header
    out = np.array(values, dtype=float).reshape(rows, cols)
    bad = ~np.isfinite(out)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise MatrixParseError(
            path, body[i][0], f"non-finite value {float(out[i, j])} in row {i + 1}"
        )
    return out


def write_matrix(path, m, comment: str | None = None) -> None:
    """Write a matrix in the dense text format with 17 significant digits."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(_FLOAT_FORMAT % v for v in row))
            fh.write("\n")
