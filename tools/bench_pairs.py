"""Run alternating pairs of the benchmark on two trees and compare their end-to-end metrics.

    python tools/bench_pairs.py OLD NEW --workload W --pairs K --seconds S [--seed S0]

Pair i runs ``OLD/bench/run.py`` and ``NEW/bench/run.py``, each in its own
process with ``--workload W --seed S0+i --seconds S --trace 0``; OLD runs
first in even pairs and NEW first in odd ones.  Only the last line of each
run's standard output, its result object, is read.  For each end-to-end
metric of this checkout's ``BENCHMARK.json`` it prints OLD's median with its
quartiles and their distance (the IQR, also as a share of the median), NEW's
median, the relative change of the median, and the pairs NEW wins and ties in
the metric's better direction.  A gain holds when NEW wins at least nine
pairs in ten, ties counting for neither, and the medians differ by more than
OLD's IQR.  Nothing is written beyond what ``bench/run.py`` writes in each
tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json"):
    """(name, better) of each end-to-end metric that ``benchmark`` declares."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return [(m["name"], m.get("better", "lower")) for m in spec["end_to_end"]]


def parse_result(stdout: str) -> dict:
    """The result object of one ``bench/run.py`` run: the last line of its output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


def quartiles(values):
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(old, new, metrics):
    """One row per metric over paired result objects ``old[i]``, ``new[i]``.

    A row holds both medians, OLD's quartiles and IQR, the relative change
    of the median, the pairs NEW wins and ties, and whether the gain rule
    holds.
    """
    rows = []
    for name, better in metrics:
        a = [r["metrics"][name]["value"] for r in old]
        b = [r["metrics"][name]["value"] for r in new]
        q1, median_old, q3 = quartiles(a)
        median_new = statistics.median(b)
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (y - x) < 0.0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        rows.append({
            "metric": name, "unit": old[0]["metrics"][name]["unit"], "pairs": len(a),
            "old_median": median_old, "old_q1": q1, "old_q3": q3, "iqr": q3 - q1,
            "new_median": median_new, "change": median_new / median_old - 1.0,
            "wins": wins, "ties": ties,
            "gain": 10 * wins >= 9 * len(a) and sign * (median_new - median_old) < -(q3 - q1),
        })
    return rows


def format_rows(rows):
    lines = []
    for r in rows:
        iqr_share = r["iqr"] / r["old_median"]
        lines.append(
            f"{r['metric']:12s} {r['old_median']:.4g} [{r['old_q1']:.4g}, {r['old_q3']:.4g}] "
            f"IQR {r['iqr']:.3g} ({iqr_share:.1%}) -> {r['new_median']:.4g} {r['unit']} "
            f"({r['change']:+.1%}); wins {r['wins']}/{r['pairs']}, ties {r['ties']}"
            f"{'; gain' if r['gain'] else ''}")
    return lines


def failures(results):
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the parent tree")
    parser.add_argument("new", type=Path, help="the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    args = parser.parse_args(argv)
    old, new = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ((args.old, old), (args.new, new))
        for tree, results in order if i % 2 == 0 else order[::-1]:
            results.append(run_once(tree, args.workload, seed, args.seconds))
        print(f"pair {i} seed {seed}: "
              + ", ".join(f"{name} {old[-1]['metrics'][name]['value']:.4g} -> "
                          f"{new[-1]['metrics'][name]['value']:.4g}"
                          for name, _ in end_to_end_metrics()), flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}, OLD first in even pairs")
    for line in format_rows(summarize(old, new, end_to_end_metrics())):
        print(line)
    (old_failed, old_attempted), (new_failed, new_attempted) = failures(old), failures(new)
    print(f"failed solves: OLD {old_failed} of {old_attempted}, "
          f"NEW {new_failed} of {new_attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
