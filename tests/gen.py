"""Seeded random generators and a catalog sweep shared by the test modules."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

from jumploci import CongruenceCoset, RankFunction, Stratum, TorusPoint, VarietyModel

# small members of every catalog family with parameters, beyond the defaults
CATALOG_SWEEP = (
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


def random_fraction(rng: random.Random, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randrange(0, den), den)


def random_point(rng: random.Random, n: int, max_den: int = 6) -> TorusPoint:
    return TorusPoint.of([random_fraction(rng, max_den) for _ in range(n)])


def random_coset(rng: random.Random, n: int, max_rows: int = 3,
                 span: int = 4, max_den: int = 6) -> CongruenceCoset:
    k = rng.randint(0, max_rows)
    rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(k)]
    rhs = [random_fraction(rng, max_den) for _ in range(k)]
    return CongruenceCoset.of(n, rows, rhs)


def random_nonempty_coset(rng: random.Random, n: int, **kw) -> CongruenceCoset:
    """Random coset guaranteed nonempty: the right-hand side comes from a point."""
    k = rng.randint(0, kw.pop("max_rows", 3))
    span = kw.pop("span", 4)
    max_den = kw.pop("max_den", 6)
    rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(k)]
    x = random_point(rng, n, max_den)
    rhs = [sum((Fraction(a) * c for a, c in zip(row, x.coords)), Fraction(0)) % 1
           for row in rows]
    return CongruenceCoset.of(n, rows, rhs)


def random_unimodular(rng: random.Random, n: int, steps: int | None = None) -> list[list[int]]:
    """Product of elementary integer row operations: determinant ±1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if steps is not None else 3 * n):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            q = rng.randint(-2, 2)
            for c in range(n):
                m[i][c] += q * m[j][c]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            for c in range(n):
                m[i][c] = -m[i][c]
    return m


def unimodular_point(rng: random.Random, n: int, steps: int | None = None) -> CongruenceCoset:
    """The point (1/6, ..., 1/6) of (R/Z)^n, presented as W·x ≡ W·(1/6, ...)
    for a :func:`random_unimodular` W: its Hermite form is the identity, but
    an elimination that does not reduce as it goes meets large entries."""
    w = random_unimodular(rng, n, steps)
    return CongruenceCoset.of(n, w, [Fraction(sum(row), 6) % 1 for row in w])


def dense_system(rng: random.Random, n: int) -> CongruenceCoset:
    """n equations A·x ≡ (1/7, ..., 1/7) in (R/Z)^n, the entries of A drawn
    row by row from [-3, 3]: with full rank, a finite set of points."""
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return CongruenceCoset.of(n, rows, [Fraction(1, 7)] * n)


def random_connected_coset(rng: random.Random, n: int, max_den: int = 6):
    """Nonempty coset whose underlying subgroup is connected.

    Rows are taken from a unimodular matrix, so their lattice is a direct
    summand of Z^n and every invariant factor is 1; the translate point
    fixes the right-hand side.  Returns (coset, translate point).
    """
    u = random_unimodular(rng, n)
    r = rng.randint(0, n)
    rows = u[:r]
    x = random_point(rng, n, max_den)
    rhs = [sum((Fraction(a) * c for a, c in zip(row, x.coords)), Fraction(0)) % 1
           for row in rows]
    return CongruenceCoset.of(n, rows, rhs), x


def random_rank_function(rng: random.Random, n: int, max_strata: int = 3) -> RankFunction:
    generic = rng.randint(0, 2)
    strata = []
    for _ in range(rng.randint(0, max_strata)):
        coset = random_nonempty_coset(rng, n, max_rows=2, span=3, max_den=4)
        strata.append(Stratum(coset, generic + rng.randint(1, 5)))
    return RankFunction(n, generic, tuple(strata))


def negated_rank_function(rf: RankFunction) -> RankFunction:
    """α -> rf(-α), presented by the negated cosets."""
    return RankFunction(rf.ambient_dim, rf.generic_value, tuple(
        Stratum(CongruenceCoset(c.ambient_dim, c.rows, tuple(-b for b in c.rhs)), v) for c, v in rf.strata))


def random_model(rng: random.Random) -> VarietyModel:
    """A model of n, g in {1, 2} whose grid repeats entries as real ones do.

    Each entry is one of three :func:`random_rank_function` draws, itself or
    rebuilt over the same strata, and each Serre partner of an entry is, half
    the time, its negative.  h^(0,0) = h^(n,n) jumps to 1 at the origin and
    the stratification is consistent, so validation decides Serre symmetry.
    """
    n, g = rng.choice((1, 2)), rng.choice((1, 2))
    dim = 2 * g
    pool = [random_rank_function(rng, dim) for _ in range(3)]
    grid = []
    for _ in range(n + 1):
        row = []
        for _ in range(n + 1):
            rf = rng.choice(pool)
            row.append(rf if rng.random() < 0.5 else RankFunction(dim, rf.generic_value, rf.strata))
        grid.append(row)
    for p in range(n + 1):
        for q in range(n + 1):
            if (p, q) < (n - p, n - q) and rng.random() < 0.5:
                grid[n - p][n - q] = negated_rank_function(grid[p][q])
    grid[0][0] = grid[n][n] = RankFunction(dim, 0, (Stratum(CongruenceCoset.point(TorusPoint.zero(dim)), 1),))
    m = min(n, g)
    return VarietyModel(n=n, g=g, hodge=tuple(map(tuple, grid)), defect_strata=((0, m), (n - m, m)))


def _rank_entries(blob: dict) -> list[dict]:
    """Every rank function of a model dict: grid entries, then sheaf slots."""
    return blob["hodge"] + [rf for slot in (blob.get("sheaves") or {}).values() for rf in slot]


def inline_strata(blob: dict) -> dict:
    """``blob``, a model dict, in the layout earlier builds export: each
    stratum that names a coset by index states it inline, each a copy of its
    own, and the 'cosets' list goes.  Edits ``blob`` and returns it."""
    cosets = blob.pop("cosets", [])
    for entry in _rank_entries(blob):
        entry["strata"] = [dict(copy.deepcopy(cosets[s["coset"]]), value=s["value"]) if "coset" in s else s
                           for s in entry["strata"]]
    return blob


def tabled_strata(blob: dict) -> dict:
    """``blob``, a model dict, with each inline stratum's coset appended to
    its 'cosets' list and named by index, one table entry per stratum.  Edits
    ``blob`` and returns it."""
    cosets = blob.setdefault("cosets", [])
    for entry in _rank_entries(blob):
        for s in entry["strata"]:
            if "coset" not in s:
                cosets.append({"A": s.pop("A"), "b": s.pop("b")})
                s["coset"] = len(cosets) - 1
    return blob
