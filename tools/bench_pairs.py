"""Run alternating pairs of the benchmark on two trees and compare their end-to-end metrics.

    python tools/bench_pairs.py OLD NEW --workload W [W ...] --pairs K --seconds S
        [--seed S0] [--record PATH --pr N --claim TEXT]

Pair i of each workload runs ``OLD/bench/run.py`` and ``NEW/bench/run.py``,
each in its own process with ``--workload W --seed S0+i --seconds S
--trace 0``; OLD runs first in even pairs and NEW first in odd ones.  Only
the last two lines of each run's standard output are read: the record line
with its environment (``env``), and the result object.  For each end-to-end
metric of this checkout's ``BENCHMARK.json`` it prints OLD's median with its
quartiles and their distance (the IQR, also as a share of the median), NEW's
median, the relative change of the median, and the pairs NEW wins and ties in
the metric's better direction.  A gain holds when NEW wins at least nine
pairs in ten, ties counting for neither, and the medians differ by more than
OLD's IQR.

With ``--record`` it also writes the evidence of a claim as one JSON file
(``BENCH_<pr>.json`` at the repository root, by convention), OLD being the
parent and NEW the change:

* ``pr`` (int) and ``claim`` (text);
* ``command``: the ``bench/run.py`` command line, with W and S for the
  workload and the seed;
* ``environment``: ``python``, ``numpy``, ``blas``, ``nproc`` and
  ``threads`` as ``bench/run.py`` reports them, and ``source_sha256``
  ``{"parent", "change"}``, the digest of each tree's ``src/fermicool``;
* ``git``: ``{"parent", "change"}``, each tree's commit, or null when the
  tree is no git work tree or its ``src`` or ``bench`` differ from that
  commit;
* ``workloads``: per workload, ``seeds`` (one per pair), ``pairs``,
  ``order``, ``failed_solves`` and ``attempted_solves`` as
  ``{"parent", "change"}`` sums over the runs, and ``metrics``: per
  end-to-end metric its ``unit``, ``parent`` and ``change`` each as
  ``{"median", "q1", "q3"}`` (inclusive quartiles), ``change_wins`` as
  ``"wins/pairs"``, ``change_ties``, ``gain`` (the rule above) and ``runs``
  ``{"parent", "change"}``, the values in pair order.

Nothing else is written beyond what ``bench/run.py`` writes in each tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
ORDER = "alternating, parent first on even pair index"
ENVIRONMENT_KEYS = ("python", "numpy", "blas", "nproc", "threads")


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json"):
    """(name, better) of each end-to-end metric that ``benchmark`` declares."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return [(m["name"], m.get("better", "lower")) for m in spec["end_to_end"]]


def parse_result(stdout: str) -> dict:
    """The result object of one ``bench/run.py`` run: the last line of its output."""
    return json.loads(stdout.strip().splitlines()[-1])


def parse_environment(stdout: str) -> dict:
    """The environment of one ``bench/run.py`` run, from its record line before the result."""
    return json.loads(stdout.strip().splitlines()[-2])["env"]


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """(environment, result object) of one untraced run in ``tree``."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return parse_environment(done.stdout), parse_result(done.stdout)


def tree_commit(tree: Path):
    """The commit of a git work tree whose src and bench are that commit's, else None."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode or git("diff", "--quiet", "HEAD", "--", "src", "bench").returncode:
        return None
    return head.stdout.strip()


def quartiles(values):
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(old, new, metrics):
    """One row per metric over paired result objects ``old[i]``, ``new[i]``.

    A row holds both sides' values and quartiles, OLD's IQR, the relative
    change of the median, the pairs NEW wins and ties, and whether the gain
    rule holds.
    """
    rows = []
    for name, better in metrics:
        a = [r["metrics"][name]["value"] for r in old]
        b = [r["metrics"][name]["value"] for r in new]
        q1, median_old, q3 = quartiles(a)
        new_q1, median_new, new_q3 = quartiles(b)
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (y - x) < 0.0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        rows.append({
            "metric": name, "unit": old[0]["metrics"][name]["unit"], "pairs": len(a),
            "old": a, "new": b,
            "old_median": median_old, "old_q1": q1, "old_q3": q3, "iqr": q3 - q1,
            "new_median": median_new, "new_q1": new_q1, "new_q3": new_q3,
            "change": median_new / median_old - 1.0, "wins": wins, "ties": ties,
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


def workload_record(seeds, old, new, metrics):
    """The ``workloads`` entry of a BENCH record for paired result objects."""
    (old_failed, old_attempted), (new_failed, new_attempted) = failures(old), failures(new)
    return {
        "seeds": list(seeds), "pairs": len(old), "order": ORDER,
        "failed_solves": {"parent": old_failed, "change": new_failed},
        "attempted_solves": {"parent": old_attempted, "change": new_attempted},
        "metrics": {r["metric"]: {
            "unit": r["unit"],
            "parent": {"median": r["old_median"], "q1": r["old_q1"], "q3": r["old_q3"]},
            "change": {"median": r["new_median"], "q1": r["new_q1"], "q3": r["new_q3"]},
            "change_wins": f"{r['wins']}/{r['pairs']}", "change_ties": r["ties"],
            "gain": r["gain"], "runs": {"parent": r["old"], "change": r["new"]},
        } for r in summarize(old, new, metrics)},
    }


def bench_record(pr, claim, seconds, environments, commits, workloads):
    """A BENCH record (the module docstring's schema).

    ``environments`` holds one run's environment per side, ``commits`` each
    side's git commit or None, and ``workloads`` maps each workload to its
    :func:`workload_record`.  Runs whose sources differ from their side's
    first run raise ValueError.
    """
    digests = {}
    for side, envs in environments.items():
        digests[side] = {env["source_sha256"] for env in envs}
        if len(digests[side]) != 1:
            raise ValueError(f"the {side} runs read more than one source tree")
    environment = {key: environments["parent"][0][key] for key in ENVIRONMENT_KEYS}
    environment["source_sha256"] = {side: digests[side].pop() for side in ("parent", "change")}
    return {"pr": pr, "claim": claim, "command": COMMAND.format(seconds=seconds),
            "environment": environment, "git": dict(commits), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the parent tree")
    parser.add_argument("new", type=Path, help="the changed tree")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    parser.add_argument("--record", type=Path, help="write the BENCH record to this path")
    parser.add_argument("--pr", type=int, help="the record's pr number")
    parser.add_argument("--claim", help="the record's claim")
    args = parser.parse_args(argv)
    if args.record and (args.pr is None or args.claim is None):
        parser.error("--record needs --pr and --claim")
    metrics = end_to_end_metrics()
    environments = {"parent": [], "change": []}
    workloads = {}
    for workload in args.workload:
        old, new = [], []
        seeds = range(args.seed, args.seed + args.pairs)
        for i, seed in enumerate(seeds):
            order = ((args.old, old, "parent"), (args.new, new, "change"))
            for tree, results, side in order if i % 2 == 0 else order[::-1]:
                environment, result = run_once(tree, workload, seed, args.seconds)
                environments[side].append(environment)
                results.append(result)
            print(f"pair {i} seed {seed}: "
                  + ", ".join(f"{name} {old[-1]['metrics'][name]['value']:.4g} -> "
                              f"{new[-1]['metrics'][name]['value']:.4g}"
                              for name, _ in metrics), flush=True)
        print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s, seeds "
              f"{seeds[0]}-{seeds[-1]}, OLD first in even pairs")
        for line in format_rows(summarize(old, new, metrics)):
            print(line)
        (old_failed, old_attempted), (new_failed, new_attempted) = failures(old), failures(new)
        print(f"failed solves: OLD {old_failed} of {old_attempted}, "
              f"NEW {new_failed} of {new_attempted}", flush=True)
        workloads[workload] = workload_record(seeds, old, new, metrics)
    if args.record:
        commits = {"parent": tree_commit(args.old), "change": tree_commit(args.new)}
        record = bench_record(args.pr, args.claim, args.seconds, environments, commits,
                              workloads)
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
