"""Spans recorded around the jumploci layers from outside the package.

:func:`traced` replaces every public function and public method of the
layer modules by a wrapper that records a span, at every place the
function is bound: a module global (``snf`` is bound in both ``torus`` and
``counting``), a package re-export, or a class attribute (``normalize``,
``intersect`` and ``contains`` live on their classes).  The originals are
put back when the ``with`` block ends, even on error, so nothing of the
tracing survives into an untraced run.

Spans are kept in memory as (id, name, start, end, parent, op) and reduced
afterwards: a span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterable, Mapping, NamedTuple

LAYERS = ("torus", "counting", "model", "tower", "asymptotics", "catalog", "modelfile", "cli")

ROOT = "harness.op"

# per-layer metric name -> the spans it sums over
SPAN_GROUPS: dict[str, tuple[str, ...]] = {
    "model.validate": ("model.validate_model",),
    "model.rank_at": ("model.RankFunction.rank_at",),
    "torus.contains": ("torus.CongruenceCoset.contains",),
    "asymptotics.fit_bound": ("asymptotics.fit_bound",),
    "asymptotics.verdicts": ("asymptotics.converse_defect_witness",
                             "asymptotics.divergence_class", "asymptotics.l2_betti"),
    "torus.normalize": ("torus.CongruenceCoset.normalize",),
    "model.effective_generic": ("model.RankFunction.effective_generic_value",),
    "model.effective_strata": ("model.RankFunction.effective_strata",),
    "tower.chi_of_forms": ("tower.chi_of_forms",),
    "tower.cover_invariants": ("tower.cover_invariants",),
    "tower.rank_sum": ("tower.sheaf_rank_on_cover",),
    "torus.snf": ("torus.snf",),
    "torus.intersect": ("torus.CongruenceCoset.intersect",),
    "counting.union_count": ("counting.union_torsion_count",),
    "counting.coset_count": ("counting.coset_torsion_count",),
    "modelfile.load": ("modelfile.load_model", "modelfile.load_locus"),
    "catalog.builtin": ("catalog.builtin",),
}

# counts that must repeat exactly between two runs of one seed
REPEATED_COUNTS = ("torus.snf.calls", "counting.coset_count.calls",
                   "model.effective_generic.calls", "tower.chi_of_forms.calls")

# per-layer metric -> unit; the order is the order of the report
LAYER_METRICS: dict[str, str] = {
    "model.validate.calls": "count", "model.validate.self_s": "s", "model.validate.incl_s": "s",
    "model.rank_at.calls": "count", "model.rank_at.self_s": "s",
    "torus.contains.calls": "count", "torus.contains.self_s": "s",
    "asymptotics.fit_bound.calls": "count", "asymptotics.fit_bound.self_s": "s",
    "asymptotics.verdicts.self_s": "s",
    "torus.normalize.calls": "count", "torus.normalize.self_s": "s",
    "model.effective_generic.calls": "count", "model.effective_generic.self_s": "s",
    "model.effective_generic.per_op": "count/op",
    "model.effective_strata.calls": "count",
    "tower.chi_of_forms.calls": "count",
    "tower.cover_invariants.self_s": "s",
    "tower.rank_sum.calls": "count", "tower.rank_sum.self_s": "s",
    "torus.snf.calls": "count", "torus.snf.self_s": "s",
    "torus.intersect.calls": "count",
    "counting.union_count.calls": "count", "counting.union_count.self_s": "s",
    "counting.coset_count.calls": "count", "counting.coset_count.self_s": "s",
    "counting.coset_count.nonzero_frac": "frac",
    "modelfile.load.calls": "count", "modelfile.load.self_s": "s",
    "catalog.builtin.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}

# results worth counting as useful work: meets that contain torsion points
PROBES: dict[str, Callable[[object], bool]] = {
    "counting.coset_torsion_count": lambda result: result.value != 0,
}


class Span(NamedTuple):
    sid: int
    name: str
    start: int
    end: int
    parent: int
    op: int


class Tracer:
    """Collects spans of one traced pass; not shared between passes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.useful: Counter = Counter()
        self._stack: list[int] = []
        self._next = 0
        self._op = -1

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self._op))
        probe = PROBES.get(name)
        if probe is not None and probe(result):
            self.useful[name] += 1
        return result

    def wrap(self, fn: Callable, name: str) -> Callable:
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    def op(self, oid: int, fn: Callable, *args):
        """Run one benchmark operation under a root span tagged with its id."""
        self._op = oid
        try:
            return self._call(ROOT, fn, args, {})
        finally:
            self._op = -1


def _public_functions(layer_module) -> dict[Callable, str]:
    """Originals defined in one layer module, mapped to their span names."""
    layer = layer_module.__name__.rsplit(".", 1)[-1]
    found: dict[Callable, str] = {}
    for name, obj in vars(layer_module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != layer_module.__name__:
            continue
        if inspect.isfunction(obj):
            found[obj] = f"{layer}.{obj.__qualname__}"
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    found[member] = f"{layer}.{member.__qualname__}"
    return found


def wrap_targets(package) -> list[tuple[object, str, Callable, str]]:
    """Every (owner, attribute, original, span name) that :func:`traced` replaces."""
    modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    originals: dict[Callable, str] = {}
    for module in modules:
        originals.update(_public_functions(module))
    targets = []
    for owner in [package, *modules]:
        for attr, obj in vars(owner).items():
            if inspect.isfunction(obj) and obj in originals:
                targets.append((owner, attr, obj, originals[obj]))
    for module in modules:
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and member in originals:
                        targets.append((obj, attr, member, originals[member]))
    return targets


@contextmanager
def traced(package, tracer: Tracer):
    """Install span wrappers on the package for the duration of the block."""
    installed = []
    wrappers: dict[Callable, Callable] = {}
    try:
        for owner, attr, original, name in wrap_targets(package):
            if original not in wrappers:
                wrappers[original] = tracer.wrap(original, name)
            setattr(owner, attr, wrappers[original])
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.sid] = (s.end - s.start) - covered
    return out


class PassSummary(NamedTuple):
    calls: dict[str, int]       # span name -> calls
    self_ns: dict[str, int]     # span name -> summed self time
    incl_ns: dict[str, int]     # span name -> summed duration, children included
    ops: int                    # root spans
    unbalanced_ops: int         # ops whose self times do not add up to their wall


def summarize(spans: list[Span]) -> PassSummary:
    own = self_times(spans)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    incl_ns: Counter = Counter()
    per_op_self: Counter = Counter()
    roots = {}
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += own[s.sid]
        incl_ns[s.name] += s.end - s.start
        per_op_self[s.op] += own[s.sid]
        if s.parent < 0:
            roots[s.op] = s.end - s.start
    unbalanced = sum(1 for op, wall in roots.items() if per_op_self[op] != wall)
    unbalanced += sum(1 for op in per_op_self if op not in roots)
    return PassSummary(dict(calls), dict(self_ns), dict(incl_ns), len(roots), unbalanced)


def layer_metrics(summary: PassSummary, useful: Mapping[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the tracing overhead."""
    out: dict[str, float] = {}
    for metric, names in SPAN_GROUPS.items():
        out[f"{metric}.calls"] = sum(summary.calls.get(n, 0) for n in names)
        out[f"{metric}.self_s"] = sum(summary.self_ns.get(n, 0) for n in names) / 1e9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in summary.self_ns.items()
                                     if n.startswith(layer + ".")) / 1e9
    out["model.validate.incl_s"] = summary.incl_ns.get("model.validate_model", 0) / 1e9
    out["model.effective_generic.per_op"] = out["model.effective_generic.calls"] / max(summary.ops, 1)
    attempts = out["counting.coset_count.calls"]
    out["counting.coset_count.nonzero_frac"] = (
        useful.get("counting.coset_torsion_count", 0) / attempts if attempts else 0.0)
    return {name: out[name] for name in LAYER_METRICS if name in out}


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,op,name,start_ns,end_ns\n")
        for s in spans:
            fh.write(f"{s.sid},{s.parent},{s.op},{s.name},{s.start},{s.end}\n")
