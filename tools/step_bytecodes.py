"""Count the bytecodes and C calls of one cooling step at n = 1.

    python tools/step_bytecodes.py [TREE]

Imports fermicool from ``TREE/src`` (default: this checkout) and runs
``cool()`` on a 1-level system, H = [[0.066]] and S = [[1]], for each scheme
and ensemble: grand at mu = 0 and canonical at Ne = 0.5, with db = 0.01 and
no record but beta = 0 and the last step.  With the garbage collector off,
it counts the ``opcode`` events of ``sys.settrace`` and the ``c_call``
events of ``sys.setprofile`` over a 400-step and a 200-step run and prints
their difference over 200, the cost of one step with the set-up and the
records taken out.  At n = 1 a step's
cost is its Python overhead, and these counts measure it without the
host's speed; they do depend on the Python and numpy versions, so compare
two trees under one interpreter.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMES = ("kraus1", "kraus2", "rk4")
ENSEMBLES = ("grand", "canonical")
DELTA_BETA = 0.01


def step_events(scheme: str, ensemble: str, steps: int) -> Counter:
    """The ``opcode`` and ``c_call`` events of one ``cool()`` run of ``steps`` steps."""
    from fermicool import (Canonical, GrandCanonical, HamiltonianModel, HermitianMatrix,
                           OverlapMatrix, SolverConfig, SystemSpec, cool)

    model = HamiltonianModel(SystemSpec(HermitianMatrix([[0.066]]), OverlapMatrix([[1.0]])))
    chosen = GrandCanonical(0.0) if ensemble == "grand" else Canonical(0.5)
    config = SolverConfig(scheme, steps * DELTA_BETA, DELTA_BETA, record_every=steps)
    events = Counter(opcode=0, c_call=0)

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            events["opcode"] += 1
        return trace

    def profile(frame, event, arg):
        if event == "c_call":
            events["c_call"] += 1

    # a collection would count the Python code of any gc.callbacks
    outer, collecting = (sys.gettrace(), sys.getprofile()), gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        cool(model, chosen, config)
    finally:
        sys.setprofile(outer[1])
        sys.settrace(outer[0])
        if collecting:
            gc.enable()
    return events


def per_step(scheme: str, ensemble: str, short: int = 200, long: int = 400) -> dict:
    """The events of a ``long``-step run less those of a ``short``-step one,
    over ``long - short``: {"opcode": ..., "c_call": ...}, each a float."""
    more, fewer = step_events(scheme, ensemble, long), step_events(scheme, ensemble, short)
    return {key: (more[key] - fewer[key]) / (long - short) for key in more}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: python tools/step_bytecodes.py [TREE]", file=sys.stderr)
        return 2
    src = ((Path(args[0]) if args else ROOT) / "src").resolve()
    sys.path.insert(0, str(src))
    import fermicool

    if Path(fermicool.__file__).resolve().parent != src / "fermicool":
        raise ImportError(f"fermicool was imported from {fermicool.__file__}, not {src}")
    print(f"{'ensemble':<10} {'scheme':<7} {'opcode':>8} {'c_call':>7}")
    for ensemble in ENSEMBLES:
        for scheme in SCHEMES:
            counts = per_step(scheme, ensemble)
            print(f"{ensemble:<10} {scheme:<7} {counts['opcode']:8g} {counts['c_call']:7g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
