"""Exact torus linear algebra: Smith form, normalization, intersection."""

import ast
import copy
import dataclasses
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import jumploci
from jumploci import (
    CongruenceCoset,
    DimensionMismatch,
    NormalizedCoset,
    TorusPoint,
    coset_torsion_count,
    invariant_factors,
    snf,
)
from gen import dense_system, random_coset, random_nonempty_coset, random_point, unimodular_point
from oracles import brute_force_torsion_points, hermite_point, integer_det, smith_diagonal_by_minors


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a)))


def _eye(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _carry(a, *blocks):
    """The rows of (A | B_1 | B_2 | ...)."""
    return [list(row) + [x for b in blocks for x in b[i]] for i, row in enumerate(a)]


class TestSmithForm:
    def test_identity(self):
        eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert snf(eye) == eye
        # carrying the identity gives U, here the identity as well
        assert snf(_carry(eye, eye), 3) == tuple(r + r for r in eye)

    def test_known_invariant_factors(self):
        # gcd of entries is 2 and |det| = 8, forcing the factors (2, 4)
        assert invariant_factors([[2, 4], [6, 8]]) == (2, 4)

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [3, 4]]])
    def test_ragged_matrix_is_refused(self, rows):
        with pytest.raises(DimensionMismatch, match="^ragged matrix$"):
            snf(rows)

    def test_zero_rows_need_width(self):
        assert snf((), width=3) == ()
        assert invariant_factors((), 3) == ()
        with pytest.raises(DimensionMismatch):
            snf(())
        # the diagonalized columns cannot outrun the rows
        with pytest.raises(DimensionMismatch):
            snf([[1, 2]], width=3)
        # width 0 diagonalizes nothing: every column is carried unchanged
        assert snf([[2, 3], [4, 5]], width=0) == ((2, 3), (4, 5))

    def test_round_trip_random(self):
        # with U carried as the identity block: U is unimodular, the leading
        # block is a nonnegative divisor-chain diagonal equal to the one read
        # off the minors, and row i of U·A is s_i times an integer row (zero
        # past the rank), so U·A = S·W with W integral; equal determinantal
        # divisors then make W unimodular, i.e. U·A·V = S for V = W^(-1)
        # up to 6 rows and 7 columns, the blocks (H | nums) of a union count
        # in (R/Z)^6 that reach a Smith pass
        rng = random.Random(1905)
        for _ in range(120):
            k = rng.randint(1, 6)
            n = rng.randint(1, 7)
            a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(k))
            rows = snf(_carry(a, _eye(k)), n)
            s = tuple(r[:n] for r in rows)
            u = tuple(r[n:] for r in rows)
            assert integer_det(u) in (1, -1)
            diag = [s[i][i] for i in range(min(k, n))]
            for i in range(k):
                for j in range(n):
                    if i != j:
                        assert s[i][j] == 0
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                assert y == 0 or (x != 0 and y % x == 0)
            assert diag == smith_diagonal_by_minors(a, n)
            ua = matmul(u, a)
            for i, row in enumerate(ua):
                factor = diag[i] if i < len(diag) else 0
                if factor:
                    assert all(x % factor == 0 for x in row)
                else:
                    assert not any(row)
            assert snf(a) == s
            assert invariant_factors(a) == tuple(x for x in diag if x)

    def test_negative_pivot_flips_the_carried_columns(self):
        # the least entry of (6, -3) is swapped to the front and clears the
        # 6, leaving the pivot -3; the row negation that makes it positive
        # is a row operation, so the carried columns (here U and c) follow it
        assert snf([[6, -3, 1, 5]], 2) == ((3, 0, -1, -5),)

    def test_carried_columns_are_u_times_c(self):
        # the carried block follows the row operations only: U·C, with U the
        # carried identity, and carrying more columns changes nothing else
        rng = random.Random(3119)
        for _ in range(150):
            k = rng.randint(1, 5)
            n = rng.randint(1, 5)
            m = rng.randint(1, 3)
            a = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(k)]
            c = [[rng.randint(-30, 30) for _ in range(m)] for _ in range(k)]
            both = snf(_carry(a, _eye(k), c), n)
            u = tuple(r[n:n + k] for r in both)
            assert tuple(r[n + k:] for r in both) == matmul(u, c)
            alone = snf(_carry(a, c), n)
            assert alone == tuple(r[:n] + r[n + k:] for r in both)

    @pytest.mark.parametrize("a,diagonal", [
        # the divisibility step: a clear pivot that fails to divide the
        # block takes the offending row into its own
        ([[2, 0], [0, 3]], [1, 6]),
        ([[4, 0], [0, 6]], [2, 12]),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 2, 6]),
        # pivots that tie with other entries, the one in place among them
        ([[2, 2], [2, 4]], [2, 2]),
        ([[2, 2], [2, 2]], [2, 0]),
        ([[3, -3, 3], [-3, 3, 6]], [3, 9]),
        ([[-2, 2, 0], [2, 0, 2], [0, 2, -2]], [2, 2, 4]),
        ([[0, 5], [5, 5], [5, 0]], [5, 5]),
    ])
    def test_ties_and_the_divisibility_step(self, a, diagonal):
        # with U carried as the identity and another block C: U is
        # unimodular, C comes out as U·C, and the diagonal is the one read
        # off the minors
        k, n = len(a), len(a[0])
        c = [[3 * i - j for j in range(2)] for i in range(k)]
        rows = snf(_carry(a, _eye(k), c), n)
        u = tuple(r[n:n + k] for r in rows)
        assert integer_det(u) in (1, -1)
        assert tuple(r[n + k:] for r in rows) == matmul(u, c)
        assert [rows[i][i] for i in range(min(k, n))] == diagonal == smith_diagonal_by_minors(a, n)
        assert all(rows[i][j] == 0 for i in range(k) for j in range(n) if i != j)


class TestTorusPoint:
    def test_reduction_and_order(self):
        p = TorusPoint.of([Fraction(7, 3), Fraction(-1, 4)])
        assert p.coords == (Fraction(1, 3), Fraction(3, 4))
        assert p.order == 12

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            TorusPoint.of([0.5, 0])

    def test_negation(self):
        p = TorusPoint.of([Fraction(1, 3), 0])
        assert (-p).coords == (Fraction(2, 3), Fraction(0))

    def test_only_the_coordinates_are_stored(self):
        # order and dim are read off the coordinates, on built, negated and
        # zero points alike
        assert [f.name for f in dataclasses.fields(TorusPoint)] == ["coords"]
        rng = random.Random(2024)
        points = [(TorusPoint.zero(n), 1, n) for n in range(9)]
        for _ in range(40):
            values = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(0, 5))]
            order = math.lcm(*(v.denominator for v in values))
            p = TorusPoint.of(values)
            points += [(p, order, len(values)), (-p, order, len(values))]
        for p, order, dim in points:
            assert vars(p) == {"coords": p.coords}
            assert (p.order, p.dim) == (order, dim) == (math.lcm(*(c.denominator for c in p.coords)), len(p.coords))


class TestConstructors:
    def test_rhs_forms_give_equal_cosets(self):
        rows = [[2, -1, 0], [0, 3, 1]]
        forms = [
            [Fraction(1, 2), Fraction(2, 3)],
            [Fraction(1, 2), Fraction(-4, 3)],  # same classes mod 1, kept as given
            ["1/2", "2/3"],
        ]
        cosets = [CongruenceCoset.of(3, rows, rhs) for rhs in forms]
        assert cosets[0] == cosets[2] and hash(cosets[0]) == hash(cosets[2])
        assert all(type(b) is Fraction for c in cosets for b in c.rhs)
        ints = [CongruenceCoset.of(2, [[1, 0]], [1]), CongruenceCoset.of(2, [[1, 0]], [Fraction(1)]),
                CongruenceCoset.of(2, [[1, 0]], ["1"])]
        assert ints[0] == ints[1] == ints[2]
        assert len({hash(c) for c in ints}) == 1
        assert {c.normalize() for c in cosets} == {cosets[0].normalize()}

    def test_given_fraction_is_kept(self):
        b = Fraction(5, 7)
        assert CongruenceCoset.of(1, [[1]], [b]).rhs[0] is b

    def test_bool_entries_come_out_as_int(self):
        coset = CongruenceCoset.of(2, [[True, False], [1, True]], [0, "1/2"])
        assert coset.rows == ((1, 0), (1, 1))
        assert all(type(a) is int for row in coset.rows for a in row)

    def test_floats_raise(self):
        with pytest.raises(TypeError):
            CongruenceCoset.of(1, [[1]], [0.5])
        with pytest.raises(TypeError):
            CongruenceCoset.of(1, [[1.0]], [0])

    @pytest.mark.parametrize("bad", [2.5, Fraction(5, 2), Decimal("2.5"), "3"], ids=repr)
    def test_non_integers_are_refused_everywhere(self, bad):
        # one integer rule: no truncation to 2, no parsing of text
        with pytest.raises(TypeError):
            snf([[bad, 1], [0, 3]])
        with pytest.raises(TypeError):
            invariant_factors([[bad, 1], [0, 3]])
        with pytest.raises(TypeError):
            CongruenceCoset.of(2, [[bad, 1]], [0])
        # an integral value of another type is taken as its int
        rows = [[Fraction(4), 1], [0, Decimal(6)]]
        assert snf(rows) == snf([[4, 1], [0, 6]])
        assert invariant_factors(rows) == (1, 24)
        coset = CongruenceCoset.of(2, rows, [0, 0])
        assert coset.rows == ((4, 1), (0, 6))
        assert all(type(a) is int for row in coset.rows for a in row)

    @pytest.mark.parametrize("bad", [2.5, Fraction(5, 2)], ids=repr)
    def test_ambient_dimension_follows_the_integer_rule(self, bad):
        # a float dimension used to reach the counts: 3**2.5 points of order 3
        with pytest.raises(TypeError):
            CongruenceCoset.full_torus(bad)
        with pytest.raises(TypeError):
            CongruenceCoset.of(bad, [], [])
        coset = CongruenceCoset.full_torus(Fraction(4))
        assert coset == CongruenceCoset.full_torus(4) and type(coset.ambient_dim) is int
        assert coset_torsion_count(coset, 3).value == 81

    def test_zero_point(self):
        for n in range(9):
            zero = TorusPoint.zero(n)
            assert zero == TorusPoint.of([0] * n) and hash(zero) == hash(TorusPoint.of([0] * n))
            assert zero.order == 1
            assert all(type(c) is Fraction for c in zero.coords)


class TestNormalize:
    def test_full_torus(self):
        nc = CongruenceCoset.full_torus(2).normalize()
        assert nc.dim == 2
        assert nc.component_count == 1
        assert hermite_point(nc) == TorusPoint.zero(2)

    def test_single_point(self):
        coset = CongruenceCoset.point(TorusPoint.of([Fraction(1, 3), 0]))
        nc = coset.normalize()
        assert nc.dim == 0
        assert nc.component_count == 1
        assert hermite_point(nc) == TorusPoint.of([Fraction(1, 3), 0])

    def test_two_component_line(self):
        # 2 x1 ≡ 1/2 has the two solution lines x1 = 1/4 and x1 = 3/4
        coset = CongruenceCoset.of(2, [[2, 0]], [Fraction(1, 2)])
        nc = coset.normalize()
        assert nc.dim == 1
        assert nc.component_count == 2
        assert hermite_point(nc).coords[0] in (Fraction(1, 4), Fraction(3, 4))
        assert coset.contains(hermite_point(nc))

    def test_empty_system(self):
        coset = CongruenceCoset.of(2, [[1, 0], [1, 0]], [Fraction(1, 3), Fraction(0)])
        assert coset.normalize() is None

    @pytest.mark.parametrize("b,full", [(0, True), (3, True), (Fraction(1, 2), False)])
    def test_rows_that_are_all_zero(self, b, full):
        # 0 ≡ b holds everywhere for integral b and nowhere otherwise
        coset = CongruenceCoset.of(3, [[0, 0, 0], [0, 0, 0]], [b, b])
        nc = coset.normalize()
        if full:
            assert nc == CongruenceCoset.full_torus(3).normalize()
            assert (nc.rows, nc.nums, nc.order, nc.dim) == ((), (), 1, 3)
        else:
            assert nc is None

    def test_translate_order(self):
        coset = CongruenceCoset.pinned(3, {0: Fraction(1, 2), 2: Fraction(2, 3)})
        assert coset.normalize().order == 6

    def test_idempotent_random(self):
        rng = random.Random(7341)
        done = 0
        while done < 60:
            coset = random_coset(rng, rng.randint(1, 4))
            nc = coset.normalize()
            if nc is None:
                continue
            again = CongruenceCoset(nc.ambient_dim, nc.rows, nc.rhs).normalize()
            assert again == nc
            assert coset.contains(hermite_point(nc))
            done += 1

    def test_canonical_across_presentations(self):
        # scrambling the system by a unimodular transform and appending
        # redundant rows must not change the canonical form
        from gen import random_unimodular

        rng = random.Random(2025)
        done = 0
        while done < 40:
            n = rng.randint(1, 4)
            coset = random_nonempty_coset(rng, n)
            k = len(coset.rows)
            if k == 0:
                continue
            u = random_unimodular(rng, k)
            rows = [[sum(u[i][j] * coset.rows[j][c] for j in range(k)) for c in range(n)]
                    for i in range(k)]
            rhs = [sum((u[i][j] * coset.rhs[j] for j in range(k)), Fraction(0))
                   for i in range(k)]
            combo = [rng.randint(-2, 2) for _ in range(k)]
            rows.append([sum(combo[j] * coset.rows[j][c] for j in range(k)) for c in range(n)])
            rhs.append(sum((combo[j] * coset.rhs[j] for j in range(k)), Fraction(0)) + rng.randint(-1, 1))
            scrambled = CongruenceCoset.of(n, rows, rhs)
            assert scrambled.normalize() == coset.normalize()
            done += 1

    def test_witness_always_contained(self):
        rng = random.Random(90125)
        for _ in range(60):
            coset = random_nonempty_coset(rng, rng.randint(1, 4))
            nc = coset.normalize()
            assert nc is not None
            assert coset.contains(hermite_point(nc))

    def test_a_point_through_a_unimodular_matrix_is_the_identity(self):
        nc = unimodular_point(random.Random(32), 32, steps=640).normalize()
        assert nc.rows == tuple(map(tuple, _eye(32)))
        assert (nc.nums, nc.order) == ((1,) * 32, 6)

    def test_a_dense_full_rank_system(self):
        # H is triangular of determinant ±det A, and its back-substituted point
        # satisfies every equation of the system in exact rationals
        coset = dense_system(random.Random(1), 48)
        nc = coset.normalize()
        assert nc.dim == 0
        assert math.prod(r[c] for c, r in enumerate(nc.by_pivot)) == abs(integer_det(coset.rows)) != 0
        x = hermite_point(nc).coords
        for row, b in zip(coset.rows, coset.rhs):
            assert (sum(a * c for a, c in zip(row, x)) - b).denominator == 1


class TestIntersection:
    def test_full_torus_is_identity(self):
        rng = random.Random(404)
        for _ in range(20):
            coset = random_nonempty_coset(rng, 3)
            meet = coset.intersect(CongruenceCoset.full_torus(3))
            assert meet.normalize() == coset.normalize()

    def test_coordinate_lines_meet_in_origin(self):
        a = CongruenceCoset.of(2, [[1, 0]], [0])
        b = CongruenceCoset.of(2, [[0, 1]], [0])
        nc = a.intersect(b).normalize()
        assert nc.dim == 0
        assert hermite_point(nc) == TorusPoint.zero(2)

    def test_parallel_translates_are_disjoint(self):
        a = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 3)])
        b = CongruenceCoset.of(2, [[1, 0]], [0])
        assert a.intersect(b).normalize() is None

    def test_dimension_law(self):
        rng = random.Random(5150)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 4)
            c1 = random_nonempty_coset(rng, n)
            c2 = random_nonempty_coset(rng, n)
            meet = c1.intersect(c2).normalize()
            if meet is None:
                continue
            assert meet.dim <= min(c1.normalize().dim, c2.normalize().dim)
            checked += 1

    def test_containment_consistency(self):
        rng = random.Random(61987)
        for _ in range(120):
            n = rng.randint(1, 4)
            c1 = random_coset(rng, n)
            c2 = random_coset(rng, n)
            x = random_point(rng, n)
            both = c1.contains(x) and c2.contains(x)
            assert c1.intersect(c2).contains(x) == both

    def test_membership_examples(self):
        full = CongruenceCoset.full_torus(2)
        rng = random.Random(12)
        assert all(full.contains(random_point(rng, 2)) for _ in range(10))
        point = CongruenceCoset.point(TorusPoint.of([Fraction(1, 3), 0]))
        assert point.contains(TorusPoint.of([Fraction(1, 3), 0]))
        assert not point.contains(TorusPoint.of([Fraction(2, 3), 0]))

    def test_membership_against_fractions(self):
        # integer membership agrees with summing Fraction products, on
        # translates outside [0, 1) too, and on points put on the coset
        def by_fractions(coset, x):
            return all((sum((a * c for a, c in zip(row, x.coords)), Fraction(0)) - b).denominator == 1
                       for row, b in zip(coset.rows, coset.rhs))

        rng = random.Random(2187)
        inside = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            coset = random_coset(rng, n, max_den=12)
            coset = CongruenceCoset.of(n, coset.rows, [b + rng.randint(-3, 3) for b in coset.rhs])
            nc = coset.normalize()
            points = [random_point(rng, n, max_den=12), TorusPoint.zero(n)]
            if nc is not None:
                points.append(hermite_point(nc))
            for x in points:
                assert coset.contains(x) == by_fractions(coset, x)
                inside += coset.contains(x)
        assert inside > 300
        eye = CongruenceCoset.point(TorusPoint.zero(64))
        assert eye.contains(TorusPoint.zero(64)) and by_fractions(eye, TorusPoint.zero(64))
        off = TorusPoint.of([Fraction(1, 2)] + [0] * 63)
        assert not eye.contains(off) and not by_fractions(eye, off)
        third = CongruenceCoset.pinned(64, {5: Fraction(-2, 3)})
        assert third.contains(TorusPoint.of([0] * 5 + [Fraction(1, 3)] + [0] * 58))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            CongruenceCoset.full_torus(2).intersect(CongruenceCoset.full_torus(3))
        with pytest.raises(DimensionMismatch):
            CongruenceCoset.full_torus(2).contains(TorusPoint.zero(3))
        with pytest.raises(DimensionMismatch):
            CongruenceCoset.of(2, [[1, 0]], [0, 0])


class TestNormalizedCosetFields:
    def test_integer_translate_is_canonical(self):
        # the seeded cosets, their negations and their nonempty meets
        rng = random.Random(3301)
        seeded = []
        while len(seeded) < 80:
            nc = random_coset(rng, rng.randint(1, 4), max_den=12).normalize()
            if nc is not None:
                seeded.append(nc)
        meets = [meet for a, b in itertools.combinations(seeded, 2)
                 if a.ambient_dim == b.ambient_dim and (meet := a.meet(b)) is not None]
        assert len(meets) >= 100
        for nc in seeded + [-nc for nc in seeded] + meets:
            assert len(nc.nums) == len(nc.rows)
            assert all(0 <= m < nc.order for m in nc.nums)
            assert math.gcd(nc.order, *nc.nums) == 1
            assert nc.rhs == tuple(Fraction(m, nc.order) for m in nc.nums)
            assert all(type(m) is int for m in nc.nums)
            # the Fraction translate round-trips through a congruence system,
            # whose Hermite pass fills in what the coset holds
            fresh = CongruenceCoset(nc.ambient_dim, nc.rows, nc.rhs).normalize()
            assert fresh == nc
            assert (nc.dim, nc.by_pivot, nc._hash) == (fresh.dim, fresh.by_pivot, fresh._hash)
            assert type(nc.by_pivot) is tuple and len(nc.by_pivot) == nc.ambient_dim
            assert all(r is None or type(r) is tuple and all(type(a) is int for a in r) for r in nc.by_pivot)
            assert type(nc.rows) is tuple and all(type(r) is tuple for r in nc.rows)
            assert type(nc.nums) is tuple

    def test_negation(self):
        # negation repacks the rows by pivot: before anything reads rows or
        # nums, neither the coset nor its negative holds them
        rng = random.Random(1729)
        translated = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            coset = random_nonempty_coset(rng, n, max_den=6)
            nc = coset.normalize()
            neg = -nc
            assert not {"rows", "nums"} & (vars(nc).keys() | vars(neg).keys())
            assert neg == CongruenceCoset(n, coset.rows, tuple(-b for b in coset.rhs)).normalize()
            translated += nc.order > 1
            assert neg.rows == nc.rows and neg.order == nc.order
            assert neg.rhs == tuple(-b % 1 for b in nc.rhs)
            assert -neg == nc
            for d in (1, 2, 3, 6):
                points = brute_force_torsion_points(nc, d)
                assert brute_force_torsion_points(neg, d) == {tuple(-y % d for y in ys) for ys in points}
        assert translated >= 30

    def test_full_torus(self):
        nc = CongruenceCoset.full_torus(3).normalize()
        assert (nc.rows, nc.nums, nc.order) == ((), (), 1)

    def test_made_only_by_the_hermite_pass(self):
        # no constructor takes the fields on trust: a coset is made by
        # normalizing, meeting or negating, each packed by torus._hermite
        for fields in ((3, (), (), 1), (3, ((2, 0, 1), (0, 0, 3)), (1, 2), 5)):
            with pytest.raises(TypeError):
                NormalizedCoset(*fields)
        calls = []
        for path in sorted(Path(jumploci.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}  # each call to its innermost enclosing function; ast.walk goes outside in
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner.update((call, fn.name) for call in ast.walk(fn) if isinstance(call, ast.Call))
            calls += [(ast.unparse(call), path.name, owner.get(call))
                      for call in ast.walk(tree) if isinstance(call, ast.Call)]
        assert [where for text, *where in calls if text.startswith("NormalizedCoset(")] == []
        assert [where for text, *where in calls if text == "object.__new__(NormalizedCoset)"] == [
            ["torus.py", "_hermite"]]

    def test_copies_are_repacked(self):
        rng = random.Random(8128)
        cosets = [CongruenceCoset.full_torus(2).normalize()]
        while len(cosets) < 40:
            nc = random_coset(rng, rng.randint(1, 4), max_den=6).normalize()
            if nc is not None:
                cosets += [nc, -nc]
        assert sum(nc.dim > 0 and nc.order > 1 for nc in cosets) >= 5
        for nc in cosets:
            nc.divisibility_class  # kept on the original, recomputed on a copy
            for copied in (copy.copy(nc), copy.deepcopy(nc), pickle.loads(pickle.dumps(nc))):
                assert copied == nc and hash(copied) == hash(nc) and copied.by_pivot == nc.by_pivot
                assert sorted(vars(copied)) == ["_hash", "ambient_dim", "by_pivot", "dim", "order"]
                assert copied.divisibility_class == nc.divisibility_class and repr(copied) == repr(nc)

    def test_pickle_loads_equal_in_another_process(self):
        # the hash of a free column's None differs between processes on
        # Python 3.10 and 3.11: a loaded coset must be hashed where it is loaded
        systems = [(3, ((2, 0, 1), (0, 0, 3)), (Fraction(1, 5), Fraction(2, 5))),
                   (4, ((1, 1, 0, 0), (0, 2, 0, 2)), (Fraction(1, 2), Fraction(1, 3))),
                   (2, ((1, -1),), (Fraction(0),)), (2, (), ())]
        cosets = [CongruenceCoset(*system).normalize() for system in systems]
        assert all(None in nc.by_pivot for nc in cosets)
        probe = ("import pickle, sys\n"
                 "from jumploci import CongruenceCoset\n"
                 "loaded, systems = pickle.loads(sys.stdin.buffer.read())\n"
                 "for a, system in zip(loaded, systems):\n"
                 "    b = CongruenceCoset(*system).normalize()\n"
                 "    print(a == b, hash(a) == hash(b), len({a, b}))\n")
        src = str(Path(jumploci.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", probe], input=pickle.dumps((cosets, systems)),
                              capture_output=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().splitlines() == ["True True 1"] * len(systems)


class TestMeet:
    def test_against_enumeration(self):
        # the torsion points of a meet are the common torsion points
        rng = random.Random(8675)
        empty = nonempty = 0
        while nonempty < 80:
            n = rng.randint(1, 3)
            x = random_nonempty_coset(rng, n, max_rows=2, span=3, max_den=4).normalize()
            y = random_nonempty_coset(rng, n, max_rows=2, span=3, max_den=4).normalize()
            meet = x.meet(y)
            if meet is None:
                empty += 1
            else:
                nonempty += 1
                assert meet == CongruenceCoset(n, x.rows + y.rows, x.rhs + y.rhs).normalize()
            for d in range(1, 7):
                common = brute_force_torsion_points(x, d) & brute_force_torsion_points(y, d)
                if meet is None:
                    assert not common
                else:
                    assert brute_force_torsion_points(meet, d) == common
        assert empty > 5

    def test_symmetric_idempotent_and_full_torus_neutral(self):
        rng = random.Random(4242)
        for _ in range(80):
            n = rng.randint(1, 4)
            x = random_nonempty_coset(rng, n).normalize()
            y = random_nonempty_coset(rng, n).normalize()
            full = CongruenceCoset.full_torus(n).normalize()
            assert x.meet(y) == y.meet(x)
            assert x.meet(x) == x
            assert x.meet(full) == x
            assert full.meet(x) == x

    def test_a_meet_is_the_coset_itself_exactly_when_it_lies_inside(self):
        # x.meet(y) is x when x ⊆ y, that is when the stacked system
        # normalizes to x, and a new coset otherwise; a nonempty meet lies in
        # both factors, often of another translate order, so the rescaled
        # insertion decides the identity too
        rng = random.Random(8675)
        inside = rescaled = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            x = random_nonempty_coset(rng, n, max_rows=2, span=3, max_den=4).normalize()
            y = random_nonempty_coset(rng, n, max_rows=2, span=3, max_den=4).normalize()
            meet = x.meet(y)
            stacked = CongruenceCoset(n, x.rows + y.rows, x.rhs + y.rhs).normalize()
            assert (meet is x) == (stacked == x)
            inside += meet is x
            if meet is None:
                continue
            for factor in (x, y):
                assert meet.meet(factor) is meet
                rescaled += meet.order != factor.order
        assert inside > 20 and rescaled > 20
        line = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 2)]).normalize()
        point = CongruenceCoset.point(TorusPoint.of([Fraction(1, 2), Fraction(1, 3)])).normalize()
        assert point.meet(line) is point and line.meet(point) is not line

    def test_nested_and_disjoint(self):
        line = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 3)]).normalize()
        point = CongruenceCoset.point(TorusPoint.of([Fraction(1, 3), Fraction(1, 2)])).normalize()
        assert line.meet(point) == point and point.meet(line) == point
        other = CongruenceCoset.of(2, [[1, 0]], [Fraction(2, 3)]).normalize()
        assert line.meet(other) is None
        # 2·x0 ≡ 1/2 and x0 ≡ 1/4 meet in the line x0 = 1/4 over lcm(2, 4)
        double = CongruenceCoset.of(2, [[2, 0]], [Fraction(1, 2)]).normalize()
        quarter = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 4)]).normalize()
        assert double.meet(quarter) == quarter

    def test_stored_basis_and_hash_match_a_rescan(self):
        # normalizing and meeting hand on the rows of (H | nums) by pivot
        # column and the hash; both equal what normalizing its fields gives afresh
        def rescan(nc):
            by_pivot = [None] * nc.ambient_dim
            for r, m in zip(nc.rows, nc.nums):
                by_pivot[next(c for c, a in enumerate(r) if a)] = (*r, m)
            return tuple(by_pivot)

        def check(nc):
            assert "by_pivot" in vars(nc)  # kept from the Hermite pass
            assert nc.by_pivot == rescan(nc) and nc.dim == nc.by_pivot.count(None)
            fresh = CongruenceCoset(nc.ambient_dim, nc.rows, nc.rhs).normalize()
            assert hash(nc) == hash((nc.by_pivot, nc.order)) == hash(fresh)
            assert nc == fresh
            made.append(nc)

        rng = random.Random(6561)
        met = 0
        made = [CongruenceCoset.full_torus(3).normalize()]
        while met < 150:
            n = rng.randint(1, 4)
            x = random_nonempty_coset(rng, n, max_den=6).normalize()
            y = random_nonempty_coset(rng, n, max_den=6).normalize()
            meet = x.meet(y)
            for nc in (x, y, meet):
                if nc is not None:
                    check(nc)
            met += meet is not None and meet is not x
        # the rescaling branch: translate orders both above 1 and different,
        # in (R/Z)^4..7 with orders 2..12; x is at times a meet with y, so
        # lies inside it
        def of_order(n, order):
            point = [Fraction(rng.randrange(order), order) for _ in range(n)]
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            return CongruenceCoset.of(n, rows, [sum(a * c for a, c in zip(r, point)) for r in rows]).normalize()

        rescaled = inside = 0
        while rescaled < 40:
            n = rng.randint(4, 7)
            x, y = of_order(n, rng.randint(2, 12)), of_order(n, rng.randint(2, 12))
            if rng.random() < 0.4:
                x = y.meet(x) or x
            if not 1 < x.order != y.order > 1:
                continue
            rescaled += 1
            meet = x.meet(y)
            stacked = CongruenceCoset(n, x.rows + y.rows, x.rhs + y.rhs).normalize()
            assert meet == stacked and (meet is x) == (stacked == x)
            inside += meet is x
            for nc in (x, y, meet):
                if nc is not None:
                    check(nc)
        assert inside >= 5
        # a coset holds, from the moment it is made, the real dimension, rows
        # by pivot column and hash that the Hermite pass gives the same set:
        # seeded cosets, their negations, their meets and the full torus
        filled = ("dim", "by_pivot", "_hash")
        for nc in made:
            for built in (nc, -nc):
                hermite = CongruenceCoset(built.ambient_dim, built.rows, built.rhs).normalize()
                assert [vars(built)[k] for k in filled] == [vars(hermite)[k] for k in filled]
        # {2·x0 + x2 ≡ 1/5, 3·x2 ≡ 2/5}: one row at each pivot column, none at the free x1
        fresh = CongruenceCoset.of(3, [[2, 0, 1], [0, 0, 3]], [Fraction(1, 5), Fraction(2, 5)]).normalize()
        assert vars(fresh)["by_pivot"] == ((2, 0, 1, 1), None, (0, 0, 3, 2))
        assert repr(fresh) == "NormalizedCoset(3, ((2, 0, 1), (0, 0, 3)), (1, 2), 5)"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            CongruenceCoset.full_torus(2).normalize().meet(CongruenceCoset.full_torus(3).normalize())
