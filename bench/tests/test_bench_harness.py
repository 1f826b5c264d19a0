"""The benchmark's own checks: seeded inputs, self times, clean tracing.

    PYTHONPATH=src python -m pytest bench/tests
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import jumploci
import run
import tracing
import worker
import workloads
from jumploci import counting, torus
from tracing import Span

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _written_files(wl, directory: Path) -> dict[str, str]:
    directory.mkdir()
    wl.setup(directory)
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_one_seed_and_differ_across_seeds(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(7), cls(7), cls(8)
    assert first.inputs() == again.inputs()
    assert first.inputs() != other.inputs()
    assert first.round_order(2) == again.round_order(2)
    assert first.round_order(0) != first.round_order(1)
    assert _written_files(first, tmp_path / "a") == _written_files(again, tmp_path / "b")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_huge_operation_has_a_small_twin(name):
    wl = workloads.WORKLOADS[name](1)
    pairs = {}
    for op in wl.ops:
        if op.pair >= 0:
            pairs.setdefault(op.pair, []).append(op)
    assert pairs
    for twins in pairs.values():
        assert sorted(op.huge for op in twins) == [False, True]
        small, huge = sorted(twins, key=lambda op: op.huge)
        assert replace(small, oid=0, d=0) == replace(huge, oid=0, d=0)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span(2, "torus.snf", 20, 30, 1, 0),
        Span(1, "counting.coset_torsion_count", 10, 40, 0, 0),
        Span(3, "counting.coset_torsion_count", 50, 90, 0, 0),
        Span(0, tracing.ROOT, 0, 100, -1, 0),
        Span(5, "torus.snf", 5, 15, 4, 1),
        Span(4, tracing.ROOT, 0, 20, -1, 1),
    ]
    assert tracing.self_times(spans) == {0: 30, 1: 20, 2: 10, 3: 40, 4: 10, 5: 10}
    summary = tracing.summarize(spans)
    assert summary.calls == {"torus.snf": 2, "counting.coset_torsion_count": 2, tracing.ROOT: 2}
    assert summary.self_ns == {"torus.snf": 20, "counting.coset_torsion_count": 60, tracing.ROOT: 40}
    assert summary.incl_ns == {"torus.snf": 20, "counting.coset_torsion_count": 70, tracing.ROOT: 120}
    assert (summary.ops, summary.unbalanced_ops) == (2, 0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(1, "a", 10, 50, 0, 0),
        Span(2, "b", 40, 70, 0, 0),
        Span(3, "c", 90, 120, 0, 0),
        Span(0, "root", 0, 100, -1, 0),
    ]
    # children cover [10, 70] and [90, 100] of the root
    assert tracing.self_times(spans)[0] == 100 - 60 - 10


def _attribute_snapshot():
    return [(owner, attr, original) for owner, attr, original, _ in tracing.wrap_targets(jumploci)]


def test_tracing_wraps_every_binding_and_restores_the_originals():
    snapshot = _attribute_snapshot()
    bound = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in snapshot}
    assert {("jumploci.torus", "snf"), ("jumploci.counting", "snf"),
            ("jumploci.tower", "union_torsion_count"), ("jumploci.counting", "union_torsion_count"),
            ("CongruenceCoset", "normalize"), ("CongruenceCoset", "intersect"),
            ("CongruenceCoset", "contains"), ("jumploci.cli", "validate_model")} <= bound

    with pytest.raises(RuntimeError):
        with tracing.traced(jumploci, tracing.Tracer()):
            assert counting.snf is torus.snf
            assert all(getattr(owner, attr) is not original for owner, attr, original in snapshot)
            raise RuntimeError("a failure inside the traced block")
    assert all(getattr(owner, attr) is original for owner, attr, original in snapshot)


def test_an_untraced_run_after_a_traced_one_sees_only_originals(tmp_path):
    snapshot = _attribute_snapshot()
    wl = workloads.WORKLOADS["union-count"](3)
    wl.setup(tmp_path)
    ops = sorted(wl.ops, key=lambda op: len(wl.unions[op.subject][1]))[:2]

    tracer = tracing.Tracer()
    with tracing.traced(jumploci, tracer):
        traced = [worker._run_op(wl, op, tracer) for op in ops]
    summary = tracing.summarize(tracer.spans)
    assert summary.calls["torus.snf"] > 0 and summary.calls["counting.union_torsion_count"] == 2
    assert summary.unbalanced_ops == 0

    untraced = [worker._run_op(wl, op) for op in ops]
    assert [r[1] for r in untraced] == [r[1] for r in traced]
    assert all(wl.verify(op, r[1]) is None for op, r in zip(ops, untraced))
    assert all(getattr(owner, attr) is original for owner, attr, original in snapshot)
    assert len(tracer.spans) == sum(summary.calls.values())


def test_checks_reject_a_wrong_result(tmp_path):
    wl = workloads.WORKLOADS["cover-sweep"](1)
    wl.setup(tmp_path)
    op = next(op for op in wl.ops if op.d == 3)
    inv = wl.run(op)
    grid = [list(row) for row in inv.hodge]
    grid[1][1] += 1
    assert wl.check(op, inv) is None
    assert "closed form" in wl.check(op, replace(inv, hodge=tuple(map(tuple, grid))))

    wl = workloads.WORKLOADS["union-count"](1)
    wl.setup(tmp_path)
    op = wl.ops[0]
    code, text = wl.run(op)
    value = workloads._count_value(text, op.d)
    assert wl.check(op, (code, text)) is None
    assert wl.check(op, (code, text.replace(f" {value} ", f" {value + 1} "))) is not None


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
