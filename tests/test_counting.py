"""Torsion counting: closed forms against brute-force enumeration."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from jumploci import (
    CapExceeded,
    ComponentBudgetExceeded,
    CongruenceCoset,
    DimensionMismatch,
    TorusPoint,
    coset_torsion_count,
    count_solutions_mod,
    enumerate_torsion,
    invariant_factors,
    union_torsion_count,
)
from jumploci.counting import CountForm
from gen import random_connected_coset, random_coset, random_nonempty_coset
from oracles import brute_force_torsion_count


class TestCountSolutionsMod:
    def test_free_system(self):
        assert count_solutions_mod((), (), 5, width=2) == 25

    def test_single_pinned_coordinate(self):
        assert count_solutions_mod([[0, 1]], [0], 3) == 3

    def test_even_coefficient(self):
        # 2 y1 ≡ 1 (mod 4) has no solution; 2 y1 ≡ 2 has y1 in {1, 3}
        assert count_solutions_mod([[2, 0]], [1], 4) == 0
        assert count_solutions_mod([[2, 0]], [2], 4) == 8

    def test_redundant_rows(self):
        # the zero row encodes a pure compatibility condition
        assert count_solutions_mod([[1, 1], [2, 2]], [1, 2], 6) == 6
        assert count_solutions_mod([[1, 1], [2, 2]], [1, 3], 6) == 0

    def test_bad_modulus(self):
        for modulus in (0, -3):
            with pytest.raises(ValueError):
                count_solutions_mod([[1, 0]], [0], modulus)

    def test_rhs_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            count_solutions_mod([[1, 0], [0, 1]], [0], 4)

    def test_width_disagrees_with_rows(self):
        with pytest.raises(DimensionMismatch):
            count_solutions_mod([[1, 0]], [0], 4, width=3)

    def test_no_rows_needs_width(self):
        with pytest.raises(DimensionMismatch):
            count_solutions_mod((), (), 4)


class TestCosetTorsionCount:
    def test_full_torus_degree(self):
        tc = coset_torsion_count(CongruenceCoset.full_torus(2), 5)
        assert (tc.d, tc.value) == (5, 25)

    def test_point_divisibility(self):
        coset = CongruenceCoset.point(TorusPoint.of([Fraction(1, 3), 0]))
        assert coset_torsion_count(coset, 6).value == 1
        assert coset_torsion_count(coset, 4).value == 0

    def test_three_pinned_of_four(self):
        coset = CongruenceCoset.of(
            4,
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [Fraction(1, 2), 0, 0])
        assert coset_torsion_count(coset, 2).value == 2

    def test_connected_dichotomy(self):
        rng = random.Random(8128)
        for _ in range(80):
            n = rng.randint(1, 4)
            coset, _ = random_connected_coset(rng, n)
            nc = coset.normalize()
            assert nc.component_count == 1
            order = nc.order
            for d in range(1, 7):
                value = coset_torsion_count(coset, d).value
                assert value in (0, d ** nc.dim)
                assert (value != 0) == (d % order == 0)


class TestNormalizedCosetCount:
    def test_emptiness_matches_normalize(self):
        # an empty coset has no point on any grid; a nonempty one has points
        # at its min_order, confirmed by enumeration when that grid is small
        rng = random.Random(5040)
        empty = witnessed = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            coset = random_coset(rng, n)
            nc = coset.normalize()
            if nc is None:
                empty += 1
                for d in range(1, 13):
                    if d ** n <= 2000:
                        assert brute_force_torsion_count([coset], d) == 0
            else:
                d = nc.min_order
                if d ** n <= 2000:
                    assert brute_force_torsion_count([coset], d) > 0
                    witnessed += 1
        assert empty > 0 and witnessed > 200

    def test_count_against_enumeration(self):
        # the closed form reads U·nums off the column the Smith pass carries;
        # every count up to d = 12 matches enumeration
        rng = random.Random(1213)
        torsion_pivots = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            coset = random_nonempty_coset(rng, n, max_rows=3, span=5, max_den=6)
            nc = coset.normalize()
            torsion_pivots += any(s > 2 for s, _ in nc.torsion)
            # the carried pivots against a separate Smith pass over the rows
            assert nc.component_count == math.prod(invariant_factors(nc.rows, n))
            for d in range(1, 13):
                assert nc.count(d) == brute_force_torsion_count([coset], d)
        assert torsion_pivots > 30

    def test_negated_count_against_enumeration(self):
        # a negated coset is built from its fields, not by the Hermite pass,
        # so its Smith pass reads a basis rebuilt from its rows
        rng = random.Random(1213)
        for _ in range(100):
            n = rng.randint(1, 3)
            coset = random_nonempty_coset(rng, n, max_rows=3, span=5, max_den=6)
            neg = -coset.normalize()
            assert "basis" not in vars(neg)
            negated = CongruenceCoset(n, coset.rows, tuple(-b for b in coset.rhs))
            for d in range(1, 9):
                assert neg.count(d) == brute_force_torsion_count([negated], d)

    def test_transformed_translate_follows_the_sign_flip(self):
        # 6·x0 − 3·x1 ≡ 1/2: the Smith pivot −3 is made positive by negating
        # its row, so U = (−1) and the carried translate is −1 ≡ 2 (mod 3)
        nc = CongruenceCoset.of(2, [[6, -3]], [Fraction(1, 2)]).normalize()
        assert (nc.rows, nc.nums, nc.order) == (((6, -3),), (1,), 2)
        assert (nc.order, nc.dim, nc.torsion) == (2, 1, ((3, 2),))

    def test_min_order_against_enumeration(self):
        # points of order dividing d exist exactly at the multiples of
        # min_order, which exceeds the translate order L when a pivot asks
        # for more (2·x ≡ 1/2 has L = 2 but only points of order 4)
        rng = random.Random(2718)
        beyond_translate_order = done = 0
        while done < 60:
            coset = random_coset(rng, rng.randint(1, 3), max_rows=2, span=4, max_den=4)
            nc = coset.normalize()
            if nc is None:
                continue
            done += 1
            for d in range(1, 2 * nc.min_order + 1):
                assert (brute_force_torsion_count([coset], d) > 0) == (d % nc.min_order == 0)
            beyond_translate_order += nc.min_order != nc.order
        assert beyond_translate_order >= 3


class TestEnumerate:
    def test_full_torus(self):
        pts = enumerate_torsion(CongruenceCoset.full_torus(2), 2)
        assert len(pts) == 4
        assert TorusPoint.of([Fraction(1, 2), Fraction(1, 2)]) in pts

    def test_translate_line(self):
        coset = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 2)])
        pts = enumerate_torsion(coset, 2)
        assert sorted(p.coords for p in pts) == [
            (Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))]

    def test_matches_closed_form(self):
        rng = random.Random(2187)
        for _ in range(60):
            n = rng.randint(1, 3)
            coset = random_coset(rng, n)
            d = rng.randint(1, 5)
            assert len(enumerate_torsion(coset, d)) == coset_torsion_count(coset, d).value

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_torsion(CongruenceCoset.full_torus(4), 100, cap=1000)


class TestUnion:
    def test_single_component(self):
        rng = random.Random(64)
        for _ in range(20):
            coset = random_coset(rng, 3)
            d = rng.randint(1, 5)
            assert union_torsion_count([coset], d) == coset_torsion_count(coset, d).value

    def test_two_coordinate_lines(self):
        a = CongruenceCoset.of(2, [[1, 0]], [0])
        b = CongruenceCoset.of(2, [[0, 1]], [0])
        assert union_torsion_count([a, b], 3) == 5

    def test_disjoint_translate_points(self):
        points = [
            CongruenceCoset.point(TorusPoint.of([Fraction(j, 6), 0]))
            for j in range(6)
        ]
        assert union_torsion_count(points, 6) == 6
        assert union_torsion_count(points, 12) == 6

    def test_empty_list(self):
        assert union_torsion_count([], 5) == 0

    def test_budget(self):
        comps = [CongruenceCoset.full_torus(2)] * 5
        with pytest.raises(ComponentBudgetExceeded):
            union_torsion_count(comps, 2, budget=4)

    def test_against_enumeration(self):
        rng = random.Random(31415)
        for _ in range(120):
            n = rng.randint(1, 4)
            comps = [random_coset(rng, n) for _ in range(rng.randint(1, 3))]
            d = rng.randint(1, 6)
            assert union_torsion_count(comps, d) == brute_force_torsion_count(comps, d)

    def test_nesting_in_divisibility(self):
        rng = random.Random(271828)
        for _ in range(60):
            coset = random_coset(rng, rng.randint(1, 4))
            d = rng.randint(1, 4)
            e = rng.randint(1, 3)
            assert coset_torsion_count(coset, d).value <= coset_torsion_count(coset, d * e).value

    def test_component_count_upper_bound(self):
        # r counts connected translates, the irreducible pieces of the union
        rng = random.Random(1729)
        for _ in range(60):
            n = rng.randint(1, 4)
            comps = [random_coset(rng, n) for _ in range(rng.randint(1, 3))]
            normalized = [nc for nc in (c.normalize() for c in comps) if nc is not None]
            if not normalized:
                continue
            top = max(nc.dim for nc in normalized)
            pieces = sum(nc.component_count for nc in normalized)
            for d in range(1, 7):
                assert union_torsion_count(comps, d) <= pieces * d ** top


def _distinct_nonempty_meets(components):
    """Normalized meet of every nonempty subset whose meet is nonempty."""
    meets = []
    for size in range(1, len(components) + 1):
        for subset in combinations(components, size):
            stacked = CongruenceCoset.of(
                components[0].ambient_dim,
                [row for c in subset for row in c.rows],
                [b for c in subset for b in c.rhs])
            nc = stacked.normalize()
            if nc is not None:
                meets.append(nc)
    return meets


def _union_terms(normalized, n):
    return CountForm.of(n, 0, [(nc, 1) for nc in normalized]).terms


class TestSignedMeets:
    """The signed sum over distinct meets against enumeration, for r = 4..8."""

    @staticmethod
    def _random_union(rng, n, r):
        # few small rows and denominators, so that meets repeat and nest
        comps = []
        for _ in range(r):
            if comps and rng.random() < 0.25:
                comps.append(rng.choice(comps))
            elif rng.random() < 0.15:
                comps.append(random_coset(rng, n, max_rows=2, span=2, max_den=2))
            else:
                comps.append(random_nonempty_coset(rng, n, max_rows=2, span=2, max_den=3))
        return comps

    def test_against_enumeration(self):
        rng = random.Random(60221)
        merged = 0
        for _ in range(40):
            n = rng.randint(1, 3)
            comps = self._random_union(rng, n, rng.randint(4, 8))
            normalized = [nc for nc in (c.normalize() for c in comps) if nc is not None]
            terms = _union_terms(normalized, n)
            meets = _distinct_nonempty_meets(comps)
            assert len(terms) <= len(set(meets)) <= len(meets) <= 2 ** len(comps) - 1
            merged += len(terms) < len(meets)
            for d in (1, 2, 3, 4, 6):
                assert union_torsion_count(comps, d) == brute_force_torsion_count(comps, d)
        assert merged > 20

    def test_duplicates_collapse(self):
        rng = random.Random(1618)
        for _ in range(10):
            nc = random_nonempty_coset(rng, 3).normalize()
            terms = _union_terms([nc] * rng.randint(2, 6), 3)
            assert terms == ((1, CongruenceCoset(nc.ambient_dim, nc.rows, nc.rhs).normalize()),)

    def test_nested_components(self):
        point = CongruenceCoset.point(TorusPoint.of([Fraction(1, 2), 0]))
        line = CongruenceCoset.of(2, [[0, 1]], [0])
        torus = CongruenceCoset.full_torus(2)
        for comps in ([point, line, torus], [torus, line, point], [line, point, line, point]):
            top = comps[-1] if comps[0] is point else comps[0]
            normalized = [c.normalize() for c in comps]
            assert _union_terms(normalized, 2) == ((1, top.normalize()),)
            for d in (1, 2, 3, 4):
                assert union_torsion_count(comps, d) == brute_force_torsion_count(comps, d)

    def test_empty_components(self):
        empty = CongruenceCoset.of(2, [[1, 1], [2, 2]], [0, Fraction(1, 2)])
        assert empty.normalize() is None
        line = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 3)])
        for comps in ([empty] * 4, [empty, line, empty, line, empty]):
            for d in (1, 3, 6):
                assert union_torsion_count(comps, d) == brute_force_torsion_count(comps, d)
        assert _union_terms([], 2) == ()


class TestLargeUnions:
    """Unions of r = 16 and 20 codimension-1 and -2 cosets of (R/Z)^4, within a
    budget of 20, against enumeration at small d."""

    @staticmethod
    def _sparse_coset(rng, n, codim):
        rows = []
        for _ in range(codim):
            row = [0] * n
            for j in rng.sample(range(n), 3):
                row[j] = rng.choice((-2, -1, 1, 2))
            rows.append(row)
        return CongruenceCoset.of(n, rows, [Fraction(rng.randint(0, 1), 2) for _ in rows])

    @pytest.mark.parametrize("r", [16, 20])
    def test_against_enumeration(self, r):
        rng = random.Random(1600 + r)
        for _ in range(2):
            comps = [self._sparse_coset(rng, 4, rng.choice((1, 2))) for _ in range(r)]
            normalized = [nc for nc in (c.normalize() for c in comps) if nc is not None]
            assert len(_union_terms(normalized, 4)) > r
            for d in (1, 2, 3, 4, 6):
                assert union_torsion_count(comps, d, budget=20) == brute_force_torsion_count(comps, d)
            with pytest.raises(ComponentBudgetExceeded):
                union_torsion_count(comps, 2, budget=r - 1)
