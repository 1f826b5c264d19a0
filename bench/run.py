"""jumploci benchmark: time the calculator end to end, or trace its layers.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-catalog --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the end-to-end metrics are measured with nothing
wrapped: set-up time (the median over several fresh processes), then a
closed loop of operations for about ``--seconds`` in one more process,
whose peak memory is reported too.  With ``--trace 1`` a separate process
wraps every layer of the package and reports per-layer call counts and
self times over a fixed, seeded subset of operations.

Earlier lines of standard output describe the run; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 2 means the benchmark could not run (for instance outside a
checkout); a wrong result is reported as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS, LAYERS
from worker import REFERENCE_NS

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cli-catalog", "cover-sweep", "union-count")
SETUP_SAMPLES = 9      # fresh processes timed for set-up, the measuring one included
TIME_BUDGET_S = 170    # every child together, below the 180 s limit
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "bigd_cost_ratio": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child(root: Path, args, mode: str, deadline: float, **extra) -> dict:
    workdir = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}-{mode}"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a benchmark process")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} process ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"the {mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _program_fingerprint(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "jumploci").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    # an operation's cost is the median over rounds of its time scaled to the
    # nominal host speed (see worker.REFERENCE_NS)
    cost = [statistics.median(op) / 1e6 for op in run["cost_ns"]]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": len(cost) / (sum(cost) / 1e3),
        "op_p50_ms": statistics.median(cost),
        "op_p90_ms": statistics.quantiles(cost, n=10)[8],
        "bigd_cost_ratio": statistics.median(statistics.median(huge) / statistics.median(small)
                                             for small, huge in run["twins"]),
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    samples = {
        "setup_s": f"{len(setups)} processes",
        "ops_per_s": f"{len(cost)} operations, median of {run['rounds']} rounds",
        "bigd_cost_ratio": f"{len(run['twins'])} twin pairs, median of {run['rounds']} rounds",
        "peak_rss_mb": "1 process",
    }
    lines = [f"{name:<16} {value:>12.6g} {END_TO_END_UNITS[name]:<6} "
             f"{samples.get(name, samples['ops_per_s'])}" for name, value in metrics.items()]
    wall = [ns / 1e6 for ns in run["latency_ns"]]
    lines.append(f"failed_frac      {run['failed'] / run['attempted']:>12.6g} frac   "
                 f"{run['attempted']} operations")
    lines.append(f"unscaled: {len(wall)} operations in {sum(wall) / 1e3:.2f} s, "
                 f"{len(wall) / (sum(wall) / 1e3):.6g} ops/s, median {statistics.median(wall):.6g} ms, "
                 f"set-up {statistics.median(s['setup_wall_s'] for s in setups):.6g} s; reference "
                 f"routine {statistics.median(run['reference_ns']) / 1e6:.4g} ms "
                 f"(nominal {REFERENCE_NS / 1e6:g} ms)")
    return metrics, lines


def per_layer(run: dict, root: Path, args) -> tuple[dict, list[str], bool]:
    """Layer metrics, plus whether the operation counts repeat exactly."""
    metrics = {name: run["metrics"][name] for name in LAYER_METRICS}
    lines = [f"traced {run['ops']} operations, {run['passes']} untraced/traced pass pairs, "
             f"{run['spans']} spans in the last pass, written to {run['spans_file']}"]
    busy = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    busy["harness"] = run["harness_self_s"]
    total = sum(busy.values()) or 1.0
    for layer, value in sorted(busy.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} self {value:10.4f} s  {100 * value / total:5.1f} %")
    lines.append("operation counts: " + ", ".join(f"{k} {v}" for k, v in run["counts"].items()))
    repeat = run["counts_repeat"]
    record = root / OUT_DIR / f"counts-{args.workload}-seed{args.seed}-{_program_fingerprint(root)}.json"
    if record.exists():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        if earlier != run["counts"]:
            lines.append(f"COUNT MISMATCH with the earlier run recorded in {record.name}: {earlier}")
            repeat = False
    else:
        record.write_text(json.dumps(run["counts"]), encoding="utf-8")
    if not run["counts_repeat"]:
        lines.append("COUNT MISMATCH between traced passes of this run")
    if run["unbalanced_ops"]:
        lines.append(f"{run['unbalanced_ops']} operations whose layer self times do not add up")
    return metrics, lines, repeat and run["unbalanced_ops"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "jumploci" / "__init__.py").is_file():
        print(f"error: {root} holds no src/jumploci; run from the root of a jumploci checkout",
              file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    deadline = perf_counter() + TIME_BUDGET_S

    try:
        if args.trace:
            spans = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            run = _child(root, args, "trace", deadline, spans=spans)
            metrics, lines, trustworthy = per_layer(run, root, args)
            units = LAYER_METRICS
        else:
            # set-up samples bracket the measurement, so that one slow stretch
            # of a shared machine does not decide setup_s
            half = (SETUP_SAMPLES - 1) // 2
            setups = [_child(root, args, "setup", deadline) for _ in range(half)]
            run = _child(root, args, "measure", deadline)
            setups += [run] + [_child(root, args, "setup", deadline) for _ in range(half)]
            metrics, lines = end_to_end(run, setups)
            trustworthy = True
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"# jumploci benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs, {platform.machine()}")
    for line in lines:
        print(f"# {line}")
    for message in run["failures"]:
        print("# FAILED " + " | ".join(message.splitlines()))
    print(json.dumps({
        "correct": run["failed"] == 0 and trustworthy,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
