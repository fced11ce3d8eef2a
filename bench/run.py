"""Run one benchmark workload against the fermicool sources of this checkout.

    python3 bench/run.py --workload ring-dense --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment.  A full record, including the raw
spans of one traced round, is written to ``.bench_out/`` at the checkout
root.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# One BLAS thread: with two, ring-dense's run-to-run spread was about twice
# as wide on a shared 2-core host.
BLAS_THREADS = "1"
SETUP_REPEATS = 5
CALIB_REPEATS = 30
BULKY = ("spans", "solve_s", "round_wall_s")  # in the record file, not on stdout
EXIT_NO_SOURCES = 3


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads():
    """Fix the BLAS thread count before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def import_library():
    """Import fermicool from this checkout's src/, never from elsewhere."""
    if not (SRC / "fermicool" / "__init__.py").is_file():
        raise ImportError(f"no fermicool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fermicool

    if Path(fermicool.__file__).resolve().parent != SRC / "fermicool":
        raise ImportError(f"fermicool was imported from {fermicool.__file__}, not {SRC}")
    return fermicool


def environment(np, seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "fermicool").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def gemm_ms(np):
    """Median time of one matmul at the ring-dense size, in ms."""
    from workloads import RING_N

    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, RING_N, RING_N))
    times = []
    for _ in range(CALIB_REPEATS):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def measure(workload, seed, seconds, tracer):
    """Set up, calibrate, then run rounds until ``seconds`` are used.

    With a tracer, the one set-up is traced and traced rounds alternate with
    untraced ones; the aggregate table of each traced round is kept.
    """
    import numpy as np

    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    m = {"setup_s": [], "plain": [], "traced": [], "tables": [], "spans": None}
    try:
        if tracer is not None:
            tracer.install()
            tracer.start_phase()
        for _ in range(1 if tracer else SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
            m["setup_s"].append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
            m["setup_table"] = tracer.table
        m["gemm_ms"] = gemm_ms(np)

        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            if tracer is not None and len(m["plain"]) > len(m["traced"]):
                tracer.install()
                tracer.start_phase(keep_spans=m["spans"] is None)
                try:
                    m["traced"].append(workload.run_round(state))
                finally:
                    tracer.uninstall()
                m["tables"].append(tracer.table)
                if m["spans"] is None:
                    m["spans"] = tracer.spans
            else:
                m["plain"].append(workload.run_round(state))
            now = time.perf_counter()
            enough = m["plain"] and (m["traced"] or tracer is None)
            if enough and now + (now - start) > deadline:
                return m
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(m, import_s):
    """wall_s is the median round.  solve_s_p50 is taken over the round's
    distinct solves, each at its median time across rounds, so a few slow
    rounds cannot tip a median that falls between two kinds of solve.
    """
    plain = m["plain"]
    per_solve = {}
    for r in plain:
        for solve in r.solves:
            per_solve.setdefault(solve.label, []).append(solve.seconds)
    typical = [statistics.median(v) for v in per_solve.values()]
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
        "solve_s_p50": (statistics.median(typical), "s"),
        "setup_s": (import_s + statistics.median(m["setup_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    extra = {"distinct_solves": len(typical), "round_wall_s": [r.wall_s for r in plain],
             "solve_s": per_solve}
    return metrics, extra


def per_layer(m, workload, tracer):
    from tracing import COUNT_METRICS, layer_metrics, merge

    gemm = m["gemm_ms"] if workload.gemm_calibrated else None
    per_round = [layer_metrics(merge(m["setup_table"], t), gemm) for t in m["tables"]]
    values = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    values["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in m["traced"])
        / statistics.median(r.wall_s for r in m["plain"]) - 1.0
    )
    values["calib.gemm_ms"] = m["gemm_ms"]
    extra = {
        "absent": tracer.absent,
        "counts_repeat": all(r[k] == per_round[0][k] for r in per_round for k in COUNT_METRICS),
        "spans": [list(s) for s in m["spans"] or []],
    }
    return {k: (v, unit_of(k)) for k, v in values.items()}, extra


def run(workload, seed, seconds, trace, import_s):
    """Measure one workload, write the full record, return the result line."""
    import numpy as np

    from tracing import Tracer

    tracer = Tracer() if trace else None
    m = measure(workload, seed, seconds, tracer)
    if trace:
        metrics, extra = per_layer(m, workload, tracer)
    else:
        metrics, extra = end_to_end(m, import_s)
    solves = [s for r in m["plain"] + m["traced"] for s in r.solves]
    failures = [f"{s.label}: {'; '.join(s.failures)}" for s in solves if s.failures]
    record = {
        "workload": workload.name,
        "trace": int(trace),
        "env": environment(np, seed),
        "calib.gemm_ms": m["gemm_ms"],
        "rounds": len(m["plain"]) + len(m["traced"]),
        "solves": len(solves),
        "failures": failures[:20],
    }
    record.update(extra)
    print(json.dumps({k: v for k, v in record.items() if k not in BULKY}))
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record))
    return {
        "correct": not failures,
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if ".step_us." in name:
        return "us"
    if ".gemm_equiv_per_step." in name:
        return "matmul"
    if name.endswith("bytes_read"):
        return "B"
    if name.endswith("_frac") or name.endswith("_per_call"):
        return "ratio"
    return "count"


def main(argv=None):
    pin_threads()
    try:
        import_library()
    except ImportError as exc:
        print(f"bench: cannot import fermicool: {exc}", file=sys.stderr)
        return EXIT_NO_SOURCES
    import_s = time.perf_counter() - T_START
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
