"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload generates a fixed list of operations from the seed (a
"round"), writes whatever files the operations read, runs one operation
at a time and checks its result against an independent route.  Rounds
repeat the same operations in a fresh seeded order.  Every operation that
runs at a huge cover index d has a twin with the same input at a small d,
so the cost of the two can be compared.

The engine is always reached through module attributes (``cli.main``,
``tower.cover_invariants``) so that spans installed by the traced run are
seen, and so that nothing here keeps a reference to a wrapper.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from jumploci import catalog, cli, modelfile, torus, tower

import oracles

HUGE_DS = (10 ** 6, 10 ** 30)

# every operation runs at least this often; its cost is the median of its runs
MIN_ROUNDS = 3

# torus points a brute-force check may list; above this only bounds are checked
BRUTE_FORCE_CAP = 4096


@dataclass(frozen=True)
class Op:
    """One operation.  ``d`` is the cover index, or ``--d-max`` for check and tower."""

    oid: int
    kind: str
    subject: int            # index into the workload's models or unions
    d: int
    source: str = ""        # "builtin" or "file" for catalog models on the command line
    entry: tuple = ()       # (p, q) whose jump locus ``count`` reads
    pair: int = -1          # shared by a small-d operation and its huge-d twin

    @property
    def huge(self) -> bool:
        return self.d in HUGE_DS


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _params_text(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def _count_value(text: str, d: int) -> int:
    """The torsion column of the ``count`` table row for d."""
    for line in text.splitlines():
        cells = line.split()
        if len(cells) == 3 and cells[0] == str(d):
            return int(cells[1])
    raise ValueError(f"no table row for d = {d}")


def _check_count(components, d: int, value: int) -> str | None:
    ambient = components[0].ambient_dim if components else 0
    if d ** ambient <= BRUTE_FORCE_CAP:
        expected = oracles.brute_force_union_count(components, d)
        if value != expected:
            return f"count {value} at d = {d}, brute force gives {expected}"
        return None
    low, high = oracles.union_count_bounds(components, d)
    if not low <= value <= high:
        return f"count {value} at d = {d} outside [{low}, {high}]"
    return None


class Workload:
    """Shared round handling; subclasses generate, set up, run and check."""

    name = ""
    round_seconds = 1.0  # nominal time of one round; ``--seconds`` divided by it sets the rounds
    trace_stride = 1     # the traced run uses every n-th operation of round 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = self.generate(random.Random(f"{self.name}:{seed}"))
        self._verified: dict[int, object] = {}

    def generate(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def inputs(self):
        """Everything the seed determines, for comparing two generations."""
        return tuple(self.ops)

    def setup(self, workdir: Path) -> None:
        """Build models and write the files the operations read."""

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError

    def rounds(self, seconds: int) -> int:
        """Rounds in a run: fixed by ``--seconds``, never by how fast this run goes."""
        return max(MIN_ROUNDS, round(seconds / self.round_seconds))

    def round_order(self, index: int) -> list[Op]:
        order = list(self.ops)
        random.Random(f"{self.name}:{self.seed}:round{index}").shuffle(order)
        return order

    def trace_ops(self) -> list[Op]:
        return self.round_order(0)[::self.trace_stride]

    def verify(self, op: Op, result) -> str | None:
        """Check a result; a repeat must equal the first verified result."""
        if op.oid in self._verified:
            if result != self._verified[op.oid]:
                return "result differs from the verified result of the same operation"
            return None
        problem = self.check(op, result)
        if problem is None:
            self._verified[op.oid] = result
        return problem


# -- cli-catalog ------------------------------------------------------------

# catalog parameters beyond the default instances: small members of every
# family with parameters, so that a round holds more than 100 operations and
# still repeats often enough in a run
CATALOG_SWEEP: tuple[tuple[str, dict], ...] = (
    ("abelian", {"g": 1}),
    ("nondeg_line_bundle", {"g": 1, "p": 0, "chi0": 1}),
    ("nondeg_line_bundle", {"g": 1, "p": 1, "chi0": 2}),
    ("nondeg_line_bundle", {"g": 2, "p": 2, "chi0": 1}),
    ("blowup_abelian_codim", {"g": 1, "c": 1}),
    ("blowup_abelian_codim", {"g": 2, "c": 1}),
    ("blowup_abelian_codim", {"g": 2, "c": 2}),
    ("elliptic_surface_qI0", {"genus": 2, "chi": 2}),
    ("elliptic_surface_qI0", {"genus": 2, "chi": 3}),
)
CHECK_D_MAX = (4, 16)
TOWER_D_MAX = 4


class CliCatalog(Workload):
    """Interactive command-line use over every catalog entry."""

    name = "cli-catalog"
    round_seconds = 10.0
    trace_stride = 4

    def generate(self, rng: random.Random) -> list[Op]:
        self.instances = tuple(catalog.DEFAULT_INSTANCES) + CATALOG_SWEEP
        self.models = [catalog.builtin(name, **params).model for name, params in self.instances]
        ops: list[Op] = []
        source = lambda: rng.choice(("builtin", "file"))
        for i, model in enumerate(self.models):
            ops.append(Op(len(ops), "validate", i, 0, source()))
            for d_max in CHECK_D_MAX:
                ops.append(Op(len(ops), "check", i, d_max, source()))
            ops.append(Op(len(ops), "tower", i, TOWER_D_MAX, source()))
            jumps = [(p, q) for p, q in model.hodge_pairs()
                     if any(v > model.hodge[p][q].generic_value for _, v in model.hodge[p][q].strata)]
            entry = rng.choice(jumps)
            src = source()
            ops.append(Op(len(ops), "count", i, rng.choice((2, 3)), src, entry, pair=i))
            ops.append(Op(len(ops), "count", i, rng.choice(HUGE_DS), src, entry, pair=i))
        return ops

    def setup(self, workdir: Path) -> None:
        self.argv: dict[int, list[str]] = {}
        files: dict[int, str] = {}
        for op in self.ops:
            name, params = self.instances[op.subject]
            if op.source == "file":
                if op.subject not in files:
                    files[op.subject] = str(workdir / f"model{op.subject}.json")
                    modelfile.save_model(self.models[op.subject], files[op.subject])
                src = ["--model", files[op.subject]]
            else:
                src = ["--builtin", name] + (["--params", _params_text(params)] if params else [])
            if op.kind == "validate":
                argv = ["validate", *src]
            elif op.kind in ("check", "tower"):
                argv = [op.kind, *src, "--d-max", str(op.d)]
            else:
                argv = ["count", *src, "--i", "%d,%d" % op.entry, "--d", str(op.d)]
            self.argv[op.oid] = argv

    def run(self, op: Op):
        return _cli(self.argv[op.oid])

    def check(self, op: Op, result) -> str | None:
        code, text = result
        name, params = self.instances[op.subject]
        if op.kind == "validate":
            if code != 0 or not text.rstrip().endswith("model accepted") or "error:" in text:
                return f"validate exited {code}"
            return None
        if op.kind == "check":
            return self._check_check(name, params, op, code, text)
        if code != 0:
            return f"{op.kind} exited {code}"
        if op.kind == "tower":
            return self._check_tower(name, params, op, text)
        p, q = op.entry
        rf = self.models[op.subject].hodge[p][q]
        components = [c for c, v in rf.strata if v > rf.generic_value]
        return _check_count(components, op.d, _count_value(text, op.d))

    @staticmethod
    def _check_check(name: str, params: dict, op: Op, code: int, text: str) -> str | None:
        # a defect above the declared bound N = 0 must fail analytically (exit 1)
        expected = 0 if oracles.defect(name, params) == 0 else 1
        if code != expected:
            return f"check exited {code}, expected {expected}"
        machine = json.loads(text.split("-- machine readable --", 1)[1])
        n = oracles.cover_hodge(name, params, 1)[0]
        if machine["all_pass"] != (code == 0) or (machine["witness"] is None) != (code == 0):
            return "check verdict, witness and exit code disagree"
        if machine["d_max"] != op.d or len(machine["fit"]) != (n + 1) ** 2:
            return "check reports the wrong range or grid"
        if machine["divergence"]["divergent"] != oracles.irregularity_diverges(name, params):
            return "check misclassifies the cover irregularity"
        return None

    @staticmethod
    def _check_tower(name: str, params: dict, op: Op, text: str) -> str | None:
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        if len(body) != op.d:
            return f"tower printed {len(body)} rows for d-max {op.d}"
        for row in body:
            cells = dict(zip(header, row))
            d = int(cells["d"])
            n, g, hodge = oracles.cover_hodge(name, params, d)
            deg = d ** (2 * g)
            if int(cells["deg"]) != deg:
                return f"tower degree wrong at d = {d}"
            for p in range(n + 1):
                for q in range(n + 1):
                    if int(cells[f"h_{p}_{q}"]) != hodge[p][q]:
                        return f"tower h^({p},{q}) wrong at d = {d}"
                    if Fraction(cells[f"nh_{p}_{q}"]) != Fraction(hodge[p][q], deg):
                        return f"tower normalized h^({p},{q}) wrong at d = {d}"
            for k in range(2 * n + 1):
                b = sum(hodge[p][k - p] for p in range(n + 1) if 0 <= k - p <= n)
                if int(cells[f"b_{k}"]) != b:
                    return f"tower b_{k} wrong at d = {d}"
            if int(cells["q"]) != hodge[0][1]:
                return f"tower q wrong at d = {d}"
        return None


# -- cover-sweep ------------------------------------------------------------

# the catalog entries with the most strata
COVER_MODELS: tuple[tuple[str, dict], ...] = (
    ("blowup_abelian4_curve", {"genus": 2}),
    ("fibered_over_curve", {"genus": 2}),
    ("blowup_abelian_codim", {"g": 3, "c": 2}),
    ("elliptic_surface_qI0", {"genus": 2, "chi": 1}),
)
COVER_D_MAX = 24
# huge-d twins per model, uneven so that the median operation falls well
# inside one model's operations (costs differ between models, not within one)
COVER_TWINS = (4, 4, 6, 2)


class CoverSweep(Workload):
    """Library calls to ``cover_invariants``: the per-cover path of ``tower``."""

    name = "cover-sweep"
    round_seconds = 2.0

    def generate(self, rng: random.Random) -> list[Op]:
        ops: list[Op] = []
        for i in range(len(COVER_MODELS)):
            for d in range(1, COVER_D_MAX + 1):
                ops.append(Op(len(ops), "cover", i, d))
            for d in rng.sample(range(2, COVER_D_MAX + 1), COVER_TWINS[i]):
                pair = len(ops)
                ops.append(Op(len(ops), "cover", i, d, pair=pair))
                ops.append(Op(len(ops), "cover", i, rng.choice(HUGE_DS), pair=pair))
        return ops

    def setup(self, workdir: Path) -> None:
        self.models = [catalog.builtin(name, **params).model for name, params in COVER_MODELS]

    def run(self, op: Op):
        return tower.cover_invariants(self.models[op.subject], op.d)

    def check(self, op: Op, inv) -> str | None:
        name, params = COVER_MODELS[op.subject]
        n, g, hodge = oracles.cover_hodge(name, params, op.d)
        deg = op.d ** (2 * g)
        if inv.d != op.d or inv.deg != deg:
            return f"cover degree wrong at d = {op.d}"
        if inv.hodge != hodge:
            return f"cover Hodge numbers differ from the closed form at d = {op.d}"
        betti = tuple(sum(hodge[p][k - p] for p in range(n + 1) if 0 <= k - p <= n)
                      for k in range(2 * n + 1))
        if inv.betti != betti or inv.q != hodge[0][1]:
            return f"cover Betti numbers or irregularity wrong at d = {op.d}"
        for p in range(n + 1):
            if sum((-1) ** q * hodge[p][q] for q in range(n + 1)) != deg * inv.chi_p[p]:
                return f"chi(Omega^{p}) is not multiplicative at d = {op.d}"
        if inv.chi_top != sum((-1) ** p * c for p, c in enumerate(inv.chi_p)):
            return "chi_top disagrees with the row Euler characteristics"
        return None


# -- union-count ------------------------------------------------------------

# unions per size r: many small ones, few large ones, as the 2^r cost allows;
# the median and p90 operations fall well inside the sizes 7 and 9, since
# costs jump between sizes; the k-th union of a size lives in (R/Z)^4 or
# (R/Z)^6 as k is even or odd
UNION_SIZES = {6: 20, 7: 20, 8: 7, 9: 8, 10: 1, 11: 1, 12: 1}
UNION_AMBIENT = (6, 4)
ROW_TERMS = 3  # nonzero entries per row, each ±1 or ±2


def _random_coset(rng: random.Random, ambient: int, codim: int) -> tuple:
    # rows of fixed sparsity keep the Smith-form work of a union nearly the
    # same from seed to seed; dense random rows vary it by a quarter
    rows = []
    for _ in range(codim):
        row = [0] * ambient
        for j in rng.sample(range(ambient), ROW_TERMS):
            row[j] = rng.choice((-2, -1, 1, 2))
        rows.append(tuple(row))
    # translates of order 1 or 2 divide every small and huge d used here
    return tuple(rows), tuple(Fraction(rng.randint(0, 1), 2) for _ in range(codim))


class UnionCount(Workload):
    """``count --locus`` over random unions: inclusion-exclusion over 2^r - 1 subsets."""

    name = "union-count"
    round_seconds = 10.0
    trace_stride = 6

    def generate(self, rng: random.Random) -> list[Op]:
        self.unions: list[tuple[int, tuple]] = []
        ops: list[Op] = []
        for r, count in UNION_SIZES.items():
            for k in range(count):
                ambient = UNION_AMBIENT[k % 2]
                codims = [1, 2] * (r // 2) + ([rng.choice((1, 2))] if r % 2 else [])
                rng.shuffle(codims)
                u = len(self.unions)
                self.unions.append((ambient, tuple(_random_coset(rng, ambient, c) for c in codims)))
                small = rng.choice((2, 4)) if ambient == 4 else 2
                ops.append(Op(len(ops), "union", u, small, pair=u))
                ops.append(Op(len(ops), "union", u, rng.choice(HUGE_DS), pair=u))
        return ops

    def inputs(self):
        return tuple(self.ops), tuple(self.unions)

    def setup(self, workdir: Path) -> None:
        self.components = []
        self.paths = []
        for u, (ambient, cosets) in enumerate(self.unions):
            self.components.append([torus.CongruenceCoset.of(ambient, rows, rhs) for rows, rhs in cosets])
            path = workdir / f"locus{u}.json"
            path.write_text(json.dumps({
                "ambient_dim": ambient,
                "components": [{"A": [list(r) for r in rows], "b": [str(b) for b in rhs]}
                               for rows, rhs in cosets],
            }), encoding="utf-8")
            self.paths.append(str(path))

    def run(self, op: Op):
        return _cli(["count", "--locus", self.paths[op.subject], "--d", str(op.d)])

    def check(self, op: Op, result) -> str | None:
        code, text = result
        if code != 0:
            return f"count exited {code}"
        components = self.components[op.subject]
        if f": {len(components)} components," not in text.splitlines()[0]:
            return "count reports the wrong number of components"
        return _check_count(components, op.d, _count_value(text, op.d))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CliCatalog, CoverSweep, UnionCount)
}
