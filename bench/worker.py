"""One benchmark process: set up a workload, then time it or trace it.

Started by ``run.py`` in a fresh interpreter for every sample, so import
time is real and peak memory belongs to one workload.  Prints one JSON
object on its last line of standard output.

    python3 bench/worker.py --root . --workload union-count --seed 1 --mode measure --seconds 30
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

import tracing

MAX_TRACE_PASSES = 5

# Timings are scaled to a host on which the reference routine takes exactly
# REFERENCE_NS.  A shared host's speed drifts by a third within minutes; the
# engine's pure-Python work and the reference routine drift together, so the
# scaled cost of one operation held within about 5 % where its wall time
# moved by 50 %.
REFERENCE_NS = 1_000_000
REFERENCE_EVERY_NS = 100_000_000


def _reference_work():
    """Fixed pure-Python work of the engine's kind: Fractions and integer rows."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7, i % 5 + 1)
    rows = [[(i * j) % 11 - 5 for j in range(8)] for i in range(30)]
    return total, sum(sum(a * b for a, b in zip(r, s)) for r in rows for s in rows[:10])


def host_speed_ns() -> int:
    """Best of three timings of the reference routine: the host's speed right now."""
    times = []
    for _ in range(3):
        start = perf_counter_ns()
        _reference_work()
        times.append(perf_counter_ns() - start)
    return min(times)


def _import_engine(root: Path):
    """Import jumploci from the checkout's own sources, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import jumploci

    if Path(jumploci.__file__).resolve().parent != src / "jumploci":
        raise ImportError(f"jumploci was imported from {jumploci.__file__}, not from {src}")
    return jumploci


def _run_op(wl, op, tracer=None):
    """Run one operation; returns (latency ns, result, error message)."""
    start = perf_counter_ns()
    try:
        result = wl.run(op) if tracer is None else tracer.op(op.oid, wl.run, op)
    except (Exception, SystemExit):
        return perf_counter_ns() - start, None, traceback.format_exc(limit=3)
    return perf_counter_ns() - start, result, None


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, wl, op, result, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                error = wl.verify(op, result)
            except Exception:
                error = "check raised:\n" + traceback.format_exc(limit=3)
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{op}: {error}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.messages}


def measure(wl, seconds: int) -> dict:
    """Closed loop: every round runs each operation once, in a fresh order."""
    tally = Tally()
    cost = {op.oid: [] for op in wl.ops}
    latency, speeds = [], []
    checked_at = -REFERENCE_EVERY_NS
    rounds = wl.rounds(seconds)
    for index in range(rounds):
        for op in wl.round_order(index):
            if perf_counter_ns() - checked_at >= REFERENCE_EVERY_NS:
                speeds.append(host_speed_ns())
                checked_at = perf_counter_ns()
            ns, result, error = _run_op(wl, op)
            latency.append(ns)
            cost[op.oid].append(ns * REFERENCE_NS / speeds[-1])
            tally.record(wl, op, result, error)
    twins = {}
    for op in wl.ops:
        if op.pair >= 0:
            twins.setdefault(op.pair, [None, None])[op.huge] = op.oid
    return dict(tally.as_dict(), rounds=rounds, cost_ns=list(cost.values()), latency_ns=latency,
                reference_ns=speeds, twins=[[cost[small], cost[huge]] for small, huge in twins.values()])


def trace(wl, seconds: int, engine, spans_path: Path) -> dict:
    """Alternate untraced and traced passes over a fixed subset of operations."""
    ops = wl.trace_ops()
    tally = Tally()
    deadline = perf_counter() + seconds
    passes = []
    spans = []
    while len(passes) < MAX_TRACE_PASSES and (len(passes) < 2 or perf_counter() < deadline):
        untraced = [_run_op(wl, op) for op in ops]
        tracer = tracing.Tracer()
        with tracing.traced(engine, tracer):
            traced = [_run_op(wl, op, tracer) for op in ops]
        for batch in (untraced, traced):
            for op, (_, result, error) in zip(ops, batch):
                tally.record(wl, op, result, error)
        summary = tracing.summarize(tracer.spans)
        metrics = tracing.layer_metrics(summary, tracer.useful)
        metrics["trace.overhead_frac"] = sum(t[0] for t in traced) / sum(u[0] for u in untraced) - 1
        passes.append({"metrics": metrics, "unbalanced_ops": summary.unbalanced_ops,
                       "spans": len(tracer.spans),
                       "harness_self_s": summary.self_ns.get(tracing.ROOT, 0) / 1e9})
        spans = tracer.spans
    tracing.write_spans(spans, spans_path)
    counts = {name: passes[0]["metrics"][name] for name in tracing.REPEATED_COUNTS}
    repeats = all(p["metrics"][name] == counts[name] for p in passes for name in counts)
    # counts repeat between passes; times take the median pass
    medians = {name: value if name.endswith(".calls") else
               statistics.median(p["metrics"][name] for p in passes)
               for name, value in passes[0]["metrics"].items()}
    return dict(tally.as_dict(), ops=len(ops), passes=len(passes), metrics=medians, counts=counts,
                counts_repeat=repeats, unbalanced_ops=sum(p["unbalanced_ops"] for p in passes),
                spans=passes[-1]["spans"], harness_self_s=passes[-1]["harness_self_s"],
                spans_file=str(spans_path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout root holding src/jumploci")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--workdir", required=True, help="scratch directory, removed on exit")
    parser.add_argument("--spans", help="spans file written by the traced run")
    args = parser.parse_args(argv)

    started = perf_counter()
    engine = _import_engine(Path(args.root))
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.setup(workdir)
        setup_s = perf_counter() - started
        out = {"setup_s": setup_s * REFERENCE_NS / host_speed_ns(), "setup_wall_s": setup_s}
        if args.mode == "measure":
            out.update(measure(wl, args.seconds))
            out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elif args.mode == "trace":
            out.update(trace(wl, args.seconds, engine, Path(args.spans)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
