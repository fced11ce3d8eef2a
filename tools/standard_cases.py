"""Run the standard CLI cases against a source tree, or compare two such runs.

    python tools/standard_cases.py TREE OUTDIR
    python tools/standard_cases.py --compare OLD_OUTDIR NEW_OUTDIR
    python tools/standard_cases.py --fingerprint OUTDIR

The first form imports fermicool from ``TREE/src`` and runs the 32 standard
cases (:func:`cases`) in this process with one BLAS thread, each as one
``cli.main`` call whose ``--out`` is ``OUTDIR/<case>.csv``.  The inputs are
this checkout's ``data/sample_*.mat`` and the seed-902 chain of the
benchmark's ``cli-nonorth`` workload, taken from ``bench/workloads.py``
(imported, never written) and written to ``OUTDIR/chain_h.mat`` and
``OUTDIR/chain_s.mat`` by the tree's own writer.  It prints each case's exit
code and time, and exits 1 if any case exits non-zero.

The second form compares every file of two output directories.  A file is
identical when its bytes are, a ``.meta`` with its ``elapsed_seconds`` line
dropped; for any other file it prints the largest absolute move of each
numeric column (each ``.meta`` key), and in parentheses that move over the
file's scale in the old directory, the rule by which :func:`fingerprint_moves`
bounds a move (``rel`` 1e-12).  It exits 1 unless every file is
identical.  Run both trees into fresh directories, then compare them:

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/standard_cases.py /tmp/parent /tmp/out-parent
    python tools/standard_cases.py . /tmp/out-head
    python tools/standard_cases.py --compare /tmp/out-parent /tmp/out-head

The third form runs this checkout into OUTDIR as the first does and writes
the fingerprint of the run to :data:`FINGERPRINT`, which Tier-1 holds the
outputs to (``tests/test_tools.py``).  It has one line per case with its
exit code, one per numeric column of each file with the count, min, max,
sum and sum of |x| of its non-NaN cells at 17 significant digits, and one
per ``.meta`` line but ``elapsed_seconds``.  A change that moves the outputs
on purpose rewrites it with this form and says which numbers moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_H, SAMPLE_S = ROOT / "data" / "sample_hcore.mat", ROOT / "data" / "sample_overlap.mat"
FINGERPRINT = ROOT / "tests" / "standard_cases.fingerprint"
CHAIN_SEED = 902
SCHEMES = ("kraus1", "kraus2", "rk4")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bench_workloads():
    """This checkout's ``bench/workloads.py``, imported without writing bytecode beside it.

    It imports fermicool, so the tree to run must be importable first.
    """
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write


def cases(workloads, chain_h, chain_s):
    """The standard cases as (name, argv without --out), 32 of them.

    * the two ``cli-nonorth`` runs on the chain files;
    * ``run`` on the sample files at ``--canonical 4`` and ``--grand``, each
      linear and at ``--nonlinear 0.05``, ``--beta 3 --dbeta 0.003``;
    * ``run`` on the 300-ring at ``--canonical 150`` and ``--grand``,
      ``--beta 10 --dbeta 0.5``;
    * ``run`` on the 6-ring at ``--nonlinear 0.05``, ``--canonical 3`` and
      ``--grand``, ``--beta 5 --dbeta 0.01``;
    * every ``run`` above under kraus1, kraus2 and rk4;
    * four ``oracle`` cases: the sample files at ``--canonical 4 --beta 3``,
      linear and nonlinear, the nonlinear 6-ring at ``--beta 5``, and the
      sample files at ``--nonlinear 1e200 --beta 0``;
    * two ``convergence`` cases on a 6-ring (rk4) and the sample files (kraus2).
    """
    sample = ["--files", str(SAMPLE_H), str(SAMPLE_S)]
    ring6 = ["--huckel", "6", "0.569", "0.066", "--nonlinear", "0.05"]
    out = [(f"run-chain-{case}-{scheme}",
            ["run", "--files", str(chain_h), str(chain_s), *workloads.CHAIN_ARGS, *extra])
           for case, scheme, extra in workloads.CLI_CASES]
    groups = [
        ("sample-canonical", [*sample, "--canonical", "4", "--beta", "3", "--dbeta", "0.003"]),
        ("sample-canonical-nonlinear",
         [*sample, "--canonical", "4", "--nonlinear", "0.05", "--beta", "3", "--dbeta", "0.003"]),
        ("sample-grand", [*sample, "--grand", "--beta", "3", "--dbeta", "0.003"]),
        ("sample-grand-nonlinear",
         [*sample, "--grand", "--nonlinear", "0.05", "--beta", "3", "--dbeta", "0.003"]),
        ("ring300-canonical",
         ["--huckel", "300", "0.569", "0.066", "--canonical", "150", "--beta", "10",
          "--dbeta", "0.5"]),
        ("ring300-grand",
         ["--huckel", "300", "0.569", "0.066", "--grand", "--beta", "10", "--dbeta", "0.5"]),
        ("ring6-canonical-nonlinear", [*ring6, "--canonical", "3", "--beta", "5", "--dbeta", "0.01"]),
        ("ring6-grand-nonlinear", [*ring6, "--grand", "--beta", "5", "--dbeta", "0.01"]),
    ]
    out += [(f"run-{name}-{scheme}", ["run", *argv, "--scheme", scheme])
            for name, argv in groups for scheme in SCHEMES]
    out += [
        ("oracle-sample-canonical", ["oracle", *sample, "--canonical", "4", "--beta", "3"]),
        ("oracle-sample-canonical-nonlinear",
         ["oracle", *sample, "--canonical", "4", "--nonlinear", "0.05", "--beta", "3"]),
        ("oracle-ring6-canonical-nonlinear", ["oracle", *ring6, "--canonical", "3", "--beta", "5"]),
        ("oracle-sample-beta0-u1e200",
         ["oracle", *sample, "--canonical", "4", "--nonlinear", "1e200", "--beta", "0"]),
        ("convergence-ring6-rk4",
         ["convergence", "--huckel", "6", "0", "1", "--grand", "--beta", "1", "--scheme", "rk4",
          "--dbeta-list", "0.1", "0.05", "0.025"]),
        ("convergence-sample-kraus2",
         ["convergence", *sample, "--canonical", "4", "--beta", "1", "--scheme", "kraus2",
          "--dbeta-list", "0.1", "0.05", "0.025"]),
    ]
    return out


def run_tree(tree: Path, outdir: Path):
    """Run the cases with fermicool imported from ``TREE/src`` and one BLAS
    thread; returns :func:`run_cases`'s exit codes."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import fermicool

    if Path(fermicool.__file__).resolve().parent != src / "fermicool":
        raise ImportError(f"fermicool was imported from {fermicool.__file__}, not {src}")
    return run_cases(outdir)


def run_cases(outdir: Path):
    """Run every case with the fermicool already imported; returns {case: exit code}."""
    from fermicool import cli, matio

    workloads = bench_workloads()
    outdir.mkdir(parents=True, exist_ok=True)
    h, s = workloads.chain_inputs(CHAIN_SEED)
    chain_h, chain_s = outdir / "chain_h.mat", outdir / "chain_s.mat"
    matio.write_matrix(chain_h, h, comment="benchmark chain core Hamiltonian")
    matio.write_matrix(chain_s, s, comment="benchmark chain overlap")
    codes = {}
    for name, argv in cases(workloads, chain_h, chain_s):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = cli.main([*argv, "--out", str(outdir / f"{name}.csv")])
        print(f"exit {codes[name]}  {time.perf_counter() - start:6.2f} s  {name}")
    return codes


def _meta(text):
    return {key: value for key, _, value in (line.partition(": ") for line in text.splitlines())
            if key != "elapsed_seconds"}


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _columns(path: Path, text: str):
    # column name -> list of cells; a .mat file is one column of its values
    if path.suffix == ".meta":
        return {key: [value] for key, value in _meta(text).items()}
    if path.suffix == ".mat":
        lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
        return {"values": [v for line in lines[1:] for v in line.split()]}
    header, *rows = list(csv.reader(io.StringIO(text)))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _largest_move(old_cells, new_cells):
    # the largest |new - old| over paired numeric cells; inf when the cells
    # cannot be paired or a non-number differs
    if len(old_cells) != len(new_cells):
        return math.inf
    move = 0.0
    for a, b in zip(old_cells, new_cells):
        x, y = _number(a), _number(b)
        if a == b or (x is not None and y is not None and math.isnan(x) and math.isnan(y)):
            continue
        move = max(move, abs(y - x) if x is not None and y is not None else math.inf)
    return move


def compare(old: Path, new: Path) -> int:
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    scales = _scales(*_parse_fingerprint(fingerprint(old, {}))[1:])
    same = 0
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            print(f"missing   {name}: only in {a.parent if a.is_file() else b.parent}")
            continue
        ta, tb = a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")
        if ta == tb or (a.suffix == ".meta" and _meta(ta) == _meta(tb)):
            same += 1
            print(f"identical {name}")
            continue
        ca, cb = _columns(a, ta), _columns(b, tb)
        moves = {col: _largest_move(ca.get(col, []), cb.get(col, [])) for col in {*ca, *cb}}
        scale = scales.get(name, 0.0)
        print(f"moved     {name}: " + ", ".join(
            f"{col} {move:.3g} ({move / scale if scale else math.inf:.3g} of scale)"
            for col, move in sorted(moves.items()) if move))
    print(f"{same} of {len(names)} files identical")
    return 0 if same == len(names) else 1


def fingerprint(outdir: Path, codes) -> str:
    """The fingerprint text of a run: ``codes`` and the files of ``outdir``."""
    lines = [f"exit {name} {code}" for name, code in codes.items()]
    for path in sorted(outdir.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".meta":
            lines += [f"meta {path.name} {key} {value}" for key, value in _meta(text).items()]
            continue
        for col, cells in _columns(path, text).items():
            values = [x for x in map(_number, cells) if x is not None and not math.isnan(x)]
            stats = ((min(values), max(values), math.fsum(values),
                      math.fsum(map(abs, values))) if values else (math.nan,) * 4)
            lines.append(f"column {path.name} {col} {len(values)} "
                         + " ".join(format(x, ".17g") for x in stats))
    return "".join(line + "\n" for line in lines)


def _parse_fingerprint(text):
    # {case: code}, {(file, column): (count, min, max, sum, sum|x|)}, {(file, key): value}
    exits, columns, meta = {}, {}, {}
    for line in text.splitlines():
        kind, rest = line.split(" ", 1)
        if kind == "exit":
            name, code = rest.split()
            exits[name] = int(code)
        elif kind == "column":
            name, col, count, *stats = rest.split()
            columns[name, col] = (int(count), *map(float, stats))
        else:
            name, key, value = rest.split(" ", 2)
            meta[name, key] = value
    return exits, columns, meta


def _scales(columns, meta):
    # each file's scale: the largest |x| of its numeric cells outside an index column
    scales = {}
    for (name, col), (_, low, high, *_) in columns.items():
        if col != "index":
            scales[name] = max(scales.get(name, 0.0), abs(low), abs(high))
    for (name, _), value in meta.items():
        x = _number(value)
        if x is not None:
            scales[name] = max(scales.get(name, 0.0), abs(x))
    return scales


def fingerprint_moves(expected: str, actual: str, rel: float = 1e-12):
    """What moved between two fingerprint texts, as a list of lines; empty when none did.

    The exit codes, the file and column sets, the counts and every
    non-numeric ``.meta`` value must be equal.  A number may move by ``rel``
    times its file's scale, the largest |x| of the file's numeric cells
    outside an ``index`` column in ``expected``, and a sum by ``count`` times
    that.  So a column such as ``abs_error``, a difference of occupations,
    is held to the size of the occupations, not to its own.
    """
    (exits, columns, meta), (exits_new, columns_new, meta_new) = (
        _parse_fingerprint(expected), _parse_fingerprint(actual))
    moves = [f"exit {name}: {exits.get(name)} -> {exits_new.get(name)}"
             for name in sorted({*exits, *exits_new}) if exits.get(name) != exits_new.get(name)]
    moves += [f"only in one fingerprint: {' '.join(key)}"
              for key in sorted({*columns, *meta} ^ {*columns_new, *meta_new})]
    scales = _scales(columns, meta)

    def moved(old, new, bound):
        return not (old == new or (math.isnan(old) and math.isnan(new))
                    or abs(new - old) <= bound)

    for key in sorted(columns.keys() & columns_new.keys()):
        (count, *old), (count_new, *new) = columns[key], columns_new[key]
        bounds = [rel * scales.get(key[0], 0.0) * k for k in (1, 1, count, count)]
        if count != count_new or any(map(moved, old, new, bounds)):
            moves.append(f"column {' '.join(key)}: {columns[key]} -> {columns_new[key]}")
    for key in sorted(meta.keys() & meta_new.keys()):
        old, new = _number(meta[key]), _number(meta_new[key])
        if (meta[key] != meta_new[key] if old is None or new is None
                else moved(old, new, rel * scales[key[0]])):
            moves.append(f"meta {' '.join(key)}: {meta[key]} -> {meta_new[key]}")
    return moves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare two output directories instead of running a tree")
    parser.add_argument("--fingerprint", type=Path, metavar="OUTDIR",
                        help=f"run this checkout into OUTDIR and write {FINGERPRINT.name}")
    parser.add_argument("first", type=Path, nargs="?",
                        help="TREE to run, or the old OUTDIR with --compare")
    parser.add_argument("second", type=Path, nargs="?",
                        help="OUTDIR to write, or the new one with --compare")
    args = parser.parse_args(argv)
    if args.fingerprint is not None:
        codes = run_tree(ROOT, args.fingerprint)
        FINGERPRINT.write_text(fingerprint(args.fingerprint, codes), encoding="utf-8")
        return 0
    if args.second is None:
        parser.error("TREE and OUTDIR, or --compare with two OUTDIRs, are required")
    if args.compare:
        return compare(args.first, args.second)
    return 1 if any(run_tree(args.first, args.second).values()) else 0


if __name__ == "__main__":
    sys.exit(main())
