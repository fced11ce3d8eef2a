"""Span tracing of fermicool from outside the library.

The tracer replaces public functions at the module attribute each caller looks
up (``fermicool.cli.scf_fixed_point`` is the name ``cli`` calls,
``fermicool.models.generalized_eigh`` the name ``models`` calls) with a
wrapper that records one span per call: name, start, end and the enclosing
span.  Nothing inside the library is edited, and a name that no longer exists
is reported as absent instead of failing, so the benchmark keeps working when
a refactor deletes a function.

Spans are aggregated while they close into a table keyed by (span, parent
span, tag) holding the call count, inclusive time, self time (inclusive time
minus the time of the wrapped calls made inside it) and counts read from the
returned values, such as ``ScfResult.iterations``.  Raw spans are kept only
when asked for, because a round can make tens of thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

KERNEL_SPANS = frozenset({
    "solvers.step_kraus1",
    "solvers.step_kraus2",
    "solvers.step_rk4",
    "solvers.grand_rhs",
    "solvers.canonical_rhs",
    "solvers._step_kraus_canonical",
})
REFRESH_SPANS = frozenset({"models.effective_hamiltonian", "solvers.commutator_defect"})
EXACT_FD_SPANS = frozenset({"models.exact_grand_fd", "models.exact_canonical_fd"})
LAYERS = ("solvers", "models", "matcore", "matio", "cli")
SCHEMES = ("kraus1", "kraus2", "rk4")
ENSEMBLES = ("grand", "canonical")

# (module, attribute path inside it, span name).  One function may be looked
# up under several modules; each lookup site is wrapped under the same name.
SITES = (
    ("fermicool.cli", "main", "cli.main"),
    ("fermicool.cli", "_oracle_state", "cli._oracle_state"),
    ("fermicool.cli", "_write_csv", "cli._write_csv"),
    ("fermicool.cli", "_write_meta", "cli._write_meta"),
    ("fermicool.cli", "cool", "solvers.cool"),
    ("fermicool.cli", "load_system", "models.load_system"),
    ("fermicool.cli", "scf_fixed_point", "models.scf_fixed_point"),
    ("fermicool.cli", "exact_grand_fd", "models.exact_grand_fd"),
    ("fermicool.cli", "exact_canonical_fd", "models.exact_canonical_fd"),
    ("fermicool.cli", "occupation_spectrum", "models.occupation_spectrum"),
    ("fermicool.cli", "default_chemical_potential", "models.default_chemical_potential"),
    ("fermicool.solvers", "cool", "solvers.cool"),
    ("fermicool.solvers", "step_kraus1", "solvers.step_kraus1"),
    ("fermicool.solvers", "step_kraus2", "solvers.step_kraus2"),
    ("fermicool.solvers", "step_rk4", "solvers.step_rk4"),
    ("fermicool.solvers", "grand_rhs", "solvers.grand_rhs"),
    ("fermicool.solvers", "canonical_rhs", "solvers.canonical_rhs"),
    ("fermicool.solvers", "_step_kraus_canonical", "solvers._step_kraus_canonical"),
    ("fermicool.solvers", "commutator_defect", "solvers.commutator_defect"),
    ("fermicool.solvers", "effective_hamiltonian", "models.effective_hamiltonian"),
    ("fermicool.models", "effective_hamiltonian", "models.effective_hamiltonian"),
    ("fermicool.models", "load_system", "models.load_system"),
    ("fermicool.models", "scf_fixed_point", "models.scf_fixed_point"),
    ("fermicool.models", "exact_grand_fd", "models.exact_grand_fd"),
    ("fermicool.models", "exact_canonical_fd", "models.exact_canonical_fd"),
    ("fermicool.models", "occupation_spectrum", "models.occupation_spectrum"),
    ("fermicool.models", "default_chemical_potential", "models.default_chemical_potential"),
    ("fermicool.models", "generalized_eigh", "matcore.generalized_eigh"),
    ("fermicool.models", "find_mu_for_occupation", "matcore.find_mu_for_occupation"),
    ("fermicool.models", "read_matrix", "matio.read_matrix"),
    ("fermicool.matcore", "generalized_eigh", "matcore.generalized_eigh"),
    ("fermicool.matcore", "find_mu_for_occupation", "matcore.find_mu_for_occupation"),
    ("fermicool.matcore", "OverlapMatrix.__init__", "matcore.OverlapMatrix"),
    ("fermicool.matio", "read_matrix", "matio.read_matrix"),
    ("fermicool.matio", "write_matrix", "matio.write_matrix"),
)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _cool_hook(args, kwargs, result, ordinal):
    ensemble = _arg(args, kwargs, 1, "ensemble")
    config = _arg(args, kwargs, 2, "config")
    kind = "canonical" if hasattr(ensemble, "n_electrons") else "grand"
    counts = {"steps": int(getattr(config, "n_steps", 0))}
    violations = getattr(result, "positivity_violations", None)
    if violations is not None:
        counts["positivity_violations"] = len(violations)
    return f"{getattr(config, 'scheme', '?')}.{kind}", counts


def _iterations_hook(args, kwargs, result, ordinal):
    iterations = getattr(result, "iterations", None)
    return "", {} if iterations is None else {"iterations": int(iterations)}


def _read_hook(args, kwargs, result, ordinal):
    path = _arg(args, kwargs, 0, "path")
    try:
        return "", {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return "", {}


def _oracle_hook(args, kwargs, result, ordinal):
    # cmd_run calls the oracle once for the final state, then once per
    # recorded beta for the mu trace.
    return ("oracle" if ordinal == 0 else "mu_trace"), {}


HOOKS = {
    "solvers.cool": _cool_hook,
    "models.scf_fixed_point": _iterations_hook,
    "matcore.find_mu_for_occupation": _iterations_hook,
    "matio.read_matrix": _read_hook,
    "cli._oracle_state": _oracle_hook,
}


@dataclass
class Stat:
    """Aggregate of the spans sharing one (name, parent, tag) key."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, calls, total_s, self_s, errors, counts):
        self.calls += calls
        self.total_s += total_s
        self.self_s += self_s
        self.errors += errors
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_s", "child_calls")

    def __init__(self, span_id, name, start):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.child_calls = {}


class Tracer:
    """Wraps the sites, records spans, aggregates them per phase."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.absent = []
        self.table = {}
        self.spans = None
        self._stack = []
        self._patched = []
        self._next_id = 0

    def install(self):
        self.absent = []
        for module_name, path, span in self.sites:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self._wrap(original, span))
            self._patched.append((owner, attr, original, own))

    def uninstall(self):
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def start_phase(self, keep_spans=False):
        """Start a fresh aggregate table; keep raw spans if asked."""
        self.table = {}
        self.spans = [] if keep_spans else None

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            ordinal = 0
            if parent is not None:
                ordinal = parent.child_calls.get(name, 0)
                parent.child_calls[name] = ordinal + 1
            self._next_id += 1
            frame = _Frame(self._next_id, name, clock())
            stack.append(frame)
            result = None
            failed = False
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if parent is not None:
                    parent.child_s += duration
                tag, counts = ("", {})
                if hook is not None and not failed:
                    tag, counts = hook(args, kwargs, result, ordinal)
                self._close(frame, parent, tag, end, duration, failed, counts)

        return traced

    def _close(self, frame, parent, tag, end, duration, failed, counts):
        key = (frame.name, parent.name if parent is not None else "", tag)
        stat = self.table.get(key)
        if stat is None:
            stat = self.table[key] = Stat()
        stat.add(1, duration, duration - frame.child_s, int(failed), counts)
        if self.spans is not None:
            self.spans.append((
                frame.span_id, parent.span_id if parent is not None else 0,
                frame.name, tag, frame.start, end,
            ))


def merge(*tables):
    """Sum aggregate tables key by key."""
    out = {}
    for table in tables:
        for key, stat in table.items():
            acc = out.get(key)
            if acc is None:
                acc = out[key] = Stat()
            acc.add(stat.calls, stat.total_s, stat.self_s, stat.errors, stat.counts)
    return out


def _select(table, names, parent=None, tag=None, outermost=False):
    for (name, par, tg), stat in table.items():
        if name not in names:
            continue
        if parent is not None and par != parent:
            continue
        if tag is not None and tg != tag:
            continue
        if outermost and par in names:
            continue
        yield stat


def _sum(stats, what):
    """Sum one Stat field (calls, total_s, self_s, errors) or one named count."""
    if what in ("calls", "total_s", "self_s", "errors"):
        return sum(getattr(stat, what) for stat in stats)
    return sum(stat.counts.get(what, 0) for stat in stats)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table, gemm_ms=None):
    """Per-layer metrics of one aggregate table.

    ``gemm_ms`` is the time of one matmul at the solves' matrix size; when
    given, step times are also expressed in matmul equivalents.
    """
    cool = {"solvers.cool"}
    m = {}
    for scheme in SCHEMES:
        for kind in ENSEMBLES:
            tag = f"{scheme}.{kind}"
            step_us = 1e6 * _ratio(_sum(_select(table, cool, tag=tag), "total_s"),
                                   _sum(_select(table, cool, tag=tag), "steps"))
            m[f"solvers.step_us.{tag}"] = step_us
            m[f"solvers.gemm_equiv_per_step.{tag}"] = (
                step_us / (1e3 * gemm_ms) if gemm_ms else 0.0
            )
    m["solvers.cool_s"] = _sum(_select(table, cool), "total_s")
    m["solvers.steps"] = _sum(_select(table, cool), "steps")
    m["solvers.kernel_s"] = _sum(_select(table, KERNEL_SPANS, outermost=True), "total_s")
    m["solvers.refresh_s"] = _sum(_select(table, REFRESH_SPANS, parent="solvers.cool"), "total_s")
    m["solvers.cool_self_s"] = _sum(_select(table, cool), "self_s")
    m["solvers.positivity_violations"] = _sum(_select(table, cool), "positivity_violations")

    scf = {"models.scf_fixed_point"}
    m["models.scf_calls"] = _sum(_select(table, scf), "calls")
    m["models.scf_iters"] = _sum(_select(table, scf), "iterations")
    m["models.scf_iters_per_call"] = _ratio(m["models.scf_iters"], m["models.scf_calls"])
    m["models.scf_s"] = _sum(_select(table, scf), "total_s")
    m["models.scf_failures"] = _sum(_select(table, scf), "errors")
    m["models.exact_fd_calls"] = _sum(_select(table, EXACT_FD_SPANS), "calls")
    m["models.exact_fd_s"] = _sum(_select(table, EXACT_FD_SPANS), "total_s")

    eigh = {"matcore.generalized_eigh"}
    mu = {"matcore.find_mu_for_occupation"}
    m["matcore.eigh_calls"] = _sum(_select(table, eigh), "calls")
    m["matcore.eigh_s"] = _sum(_select(table, eigh), "total_s")
    m["matcore.mu_search_calls"] = _sum(_select(table, mu), "calls")
    m["matcore.mu_search_iters"] = _sum(_select(table, mu), "iterations")
    m["matcore.mu_search_s"] = _sum(_select(table, mu), "total_s")
    m["matcore.mu_search_failures"] = _sum(_select(table, mu), "errors")
    m["matcore.overlap_factor_s"] = _sum(_select(table, {"matcore.OverlapMatrix"}), "total_s")

    m["matio.read_s"] = _sum(_select(table, {"matio.read_matrix"}), "total_s")
    m["matio.bytes_read"] = _sum(_select(table, {"matio.read_matrix"}), "bytes")
    m["matio.write_s"] = _sum(_select(table, {"matio.write_matrix"}), "total_s")

    main = "cli.main"
    m["cli.load_s"] = _sum(_select(table, {"models.load_system"}, parent=main), "total_s")
    m["cli.cool_s"] = _sum(_select(table, cool, parent=main), "total_s")
    m["cli.oracle_s"] = _sum(_select(table, {"cli._oracle_state"}, tag="oracle"), "total_s")
    m["cli.mu_trace_s"] = _sum(_select(table, {"cli._oracle_state"}, tag="mu_trace"), "total_s")
    m["cli.write_s"] = _sum(_select(table, {"cli._write_csv", "cli._write_meta"}), "total_s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            stat.self_s for (name, _, _), stat in table.items()
            if name.split(".", 1)[0] == layer
        )
    return m


COUNT_METRICS = (
    "solvers.steps",
    "models.scf_iters",
    "matcore.eigh_calls",
    "matcore.mu_search_iters",
)
