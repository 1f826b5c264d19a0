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
    RankFunction,
    Stratum,
    TorusPoint,
    VarietyModel,
    builtin,
    coset_torsion_count,
    enumerate_torsion,
    invariant_factors,
    union_torsion_count,
)
from jumploci.catalog import DEFAULT_INSTANCES
from jumploci.counting import DEFAULT_COMPONENT_BUDGET, CountForm, CountTable, covered
from jumploci.torus import NormalizedCoset, snf
from jumploci.tower import normalized_sequence, sheaf_rank_on_cover, value_on_cover
from gen import (random_connected_coset, random_coset, random_model, random_nonempty_coset, random_rank_function,
                 random_unimodular, sparse_coset)
from oracles import (brute_force_rank_sum, brute_force_torsion_count, brute_force_torsion_points, per_term_count,
                     smith_translates, translate_gate_count)


def _count(nc, d):
    """A normalized coset's count at d, read as every count is: a one-column
    table of the union of the coset alone."""
    return CountTable.of([[CountForm.of(nc.ambient_dim, 0, [(nc, 1)])]]).values(d)[0]


def _count_mod(width, rows, rhs, modulus):
    """|{y in (Z/m)^N : A·y ≡ c (mod m)}|: the m-torsion points on {A·x ≡ c/m}."""
    coset = CongruenceCoset.of(width, rows, [Fraction(c, modulus) for c in rhs])
    return coset_torsion_count(coset, modulus).value


class TestCountSolutionsMod:
    def test_free_system(self):
        assert _count_mod(2, (), (), 5) == 25

    def test_single_pinned_coordinate(self):
        assert _count_mod(2, [[0, 1]], [0], 3) == 3

    def test_even_coefficient(self):
        # 2 y1 ≡ 1 (mod 4) has no solution; 2 y1 ≡ 2 has y1 in {1, 3}
        assert _count_mod(2, [[2, 0]], [1], 4) == 0
        assert _count_mod(2, [[2, 0]], [2], 4) == 8

    def test_redundant_rows(self):
        # the zero row encodes a pure compatibility condition
        assert _count_mod(2, [[1, 1], [2, 2]], [1, 2], 6) == 6
        assert _count_mod(2, [[1, 1], [2, 2]], [1, 3], 6) == 0

    def test_bad_modulus(self):
        for modulus in (0, -3):
            with pytest.raises(ValueError):
                coset_torsion_count(CongruenceCoset.of(2, [[1, 0]], [0]), modulus)

    def test_rhs_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            _count_mod(2, [[1, 0], [0, 1]], [0], 4)

    def test_width_disagrees_with_rows(self):
        with pytest.raises(DimensionMismatch):
            _count_mod(3, [[1, 0]], [0], 4)


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
            torsion_pivots += any(s > 2 for s, _ in smith_translates(nc))
            # the class's f·Π s' against a separate Smith pass over the rows
            assert nc.component_count == math.prod(invariant_factors(nc.rows, n))
            for d in range(1, 13):
                assert coset_torsion_count(coset, d).value == brute_force_torsion_count([coset], d)
        assert torsion_pivots > 30

    @staticmethod
    def _negations(order_one: bool):
        """60 seeded cosets with their negatives, of translate order 1 or above
        1; once the caller has looked at a negative, its count is checked
        against enumeration."""
        rng = random.Random(1213)
        for _ in range(60):
            n = rng.randint(1, 3)
            coset = random_nonempty_coset(rng, n, max_rows=3, span=5, max_den=6)
            while (coset.normalize().order == 1) != order_one:
                coset = random_nonempty_coset(rng, n, max_rows=3, span=5, max_den=6)
            nc = coset.normalize()
            neg = -nc
            yield nc, neg
            negated = CongruenceCoset(n, coset.rows, tuple(-b for b in coset.rhs))
            for d in range(1, 9):
                assert _count(neg, d) == brute_force_torsion_count([negated], d)

    def test_negated_count_against_enumeration(self):
        # a negated coset of translate order above 1 is built from its fields,
        # not by the Hermite pass, yet holds from construction on the real
        # dimension, rows by pivot column and hash that the Hermite pass
        # gives the same set
        for nc, neg in self._negations(order_one=False):
            hermite = CongruenceCoset(neg.ambient_dim, neg.rows, neg.rhs).normalize()
            assert [vars(neg)[k] for k in ("dim", "by_pivot", "_hash")] == \
                [vars(hermite)[k] for k in ("dim", "by_pivot", "_hash")]
            assert neg.order == nc.order and neg.rows == nc.rows

    def test_negated_subgroup_is_itself(self):
        # a coset of translate order 1 is a subgroup, its own negative
        for nc, neg in self._negations(order_one=True):
            assert neg is nc

    def test_transformed_translate_follows_the_sign_flip(self):
        # (6, −3 | 1): the Smith pivot −3 is made positive by negating its
        # row, so U = (−1) and the carried translate is −1
        assert snf([(6, -3, 1)], 2) == ((3, 0, -1),)
        # 6·x0 − 3·x1 ≡ 1/2 is one row, read without a pass: its pivot is
        # the gcd 3, with U = 1, where the pass takes U = (−1); the class
        # does not see which, as gcd(3, 2) = 1 leaves the translate unread
        coset = CongruenceCoset.of(2, [[6, -3]], [Fraction(1, 2)])
        nc = coset.normalize()
        assert (nc.rows, nc.nums, nc.order) == (((6, -3),), (1,), 2)
        assert smith_translates(nc) == ((3, 2),)
        assert (nc.order, nc.dim, nc.divisibility_class) == (2, 1, (2, (3,), 1))
        for d in range(1, 13):
            assert coset_torsion_count(coset, d).value == brute_force_torsion_count([coset], d)
        # over 1/3 the translate is read: w = 1 with U = 1 and w = 2 with
        # U = (−1) both ask for 3 | d/3, so either way M = 9 and f = 3
        coset = CongruenceCoset.of(2, [[6, -3]], [Fraction(1, 3)])
        nc = coset.normalize()
        assert smith_translates(nc) == ((3, 2),)
        assert nc.divisibility_class == (9, (), 3)
        for d in range(1, 19):
            assert coset_torsion_count(coset, d).value == brute_force_torsion_count([coset], d)

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


class TestUnitPivotSplit:
    """The class read from the rows whose Hermite pivot exceeds 1 against a
    Smith pass over every row (oracles.smith_translates), for cosets with 0,
    1 and 2 or more such rows."""

    @staticmethod
    def _check_least_order(nc):
        """The least order M of the class against the oracle's gate: it has
        points at M and at no M/p, p a prime factor of M.  Points come at
        the multiples of one least order, as each pivot's test at a prime p
        holds from some valuation of d at p on."""
        m = nc.min_order
        assert translate_gate_count(nc, m) > 0
        rest, p = m, 2
        while rest > 1:
            if rest % p == 0:
                assert translate_gate_count(nc, m // p) == 0
                while rest % p == 0:
                    rest //= p
            p += 1

    def test_against_a_pass_over_every_row(self):
        rng = random.Random(4301)
        seen = {0: 0, 1: 0, 2: 0}
        enumerated = dict(seen)
        unit_rows = 0
        while min(seen.values()) < 40:
            n = rng.randint(1, 4)
            coset = random_nonempty_coset(rng, n, max_rows=n, span=4, max_den=6)
            nc = coset.normalize()
            kind = min(2, sum(r[c] > 1 for c, r in enumerate(nc.by_pivot) if r is not None))
            seen[kind] += 1
            unit_rows += kind < len(nc.rows)
            assert nc.component_count == math.prod(s for s, _ in smith_translates(nc))
            self._check_least_order(nc)
            for d in (*range(1, 25), 10 ** 6, 10 ** 30):
                assert coset_torsion_count(coset, d).value == translate_gate_count(nc, d)
            if n <= 3 and enumerated[kind] < 12:
                enumerated[kind] += 1
                for d in range(1, 13):
                    assert coset_torsion_count(coset, d).value == brute_force_torsion_count([coset], d)
        assert min(enumerated.values()) == 12 and unit_rows > 40


class TestDivisibilityClass:
    """The class (M, s', f) of a coset: least order M, Smith pivots reduced
    by M, and the factor f they lose."""

    # 2^40·3^5 divides deep into the pivots of 2 and 3 only
    GATE_DS = (*range(1, 73), 10 ** 6, 2 ** 40 * 3 ** 5)

    def test_count_against_the_translate_gate(self):
        # the class gate against the translate test of every Smith pivot
        # (oracles.translate_gate_count) on seeded cosets of dimension 1 to 6;
        # a translate drawn on its own, not from a point, is more often
        # reached only above its order
        rng = random.Random(3607)
        reduced = above_order = 0
        for i in range(2000):
            n = rng.randint(1, 6)
            coset = (random_nonempty_coset if i % 2 else random_coset)(rng, n, max_rows=5, span=4, max_den=6)
            nc = coset.normalize()
            if nc is None:
                continue
            min_order, pivots, factor = nc.divisibility_class
            reduced += len(pivots) < len(smith_translates(nc)) or factor > 1
            above_order += min_order > nc.order
            for d in self.GATE_DS:
                assert coset_torsion_count(coset, d).value == translate_gate_count(nc, d), d
        assert reduced > 200 and above_order > 60

    def test_classes_of_small_cosets(self):
        # {2x ≡ 1/2} = {1/4, 3/4}: two points from d = 4 on, no pivot left;
        # {2x ≡ 0} = {0, 1/2}: one point at odd d, two at even d
        quarter = CongruenceCoset.of(1, [[2]], [Fraction(1, 2)])
        half = CongruenceCoset.of(1, [[2]], [0])
        assert (smith_translates(quarter.normalize()), quarter.normalize().divisibility_class) == \
            (((2, 1),), (4, (), 2))
        assert (smith_translates(half.normalize()), half.normalize().divisibility_class) == \
            (((2, 0),), (1, (2,), 1))
        assert [coset_torsion_count(quarter, d).value for d in range(1, 9)] == [0, 0, 0, 2, 0, 0, 0, 2]
        assert [coset_torsion_count(half, d).value for d in range(1, 9)] == [1, 2, 1, 2, 1, 2, 1, 2]

    def test_class_ignores_a_unimodular_change_of_coordinates(self):
        # {A·x ≡ b} and {A·W·x ≡ b} are images of each other under W, so they
        # share M, s' and f, though their Smith transforms differ
        rng = random.Random(3608)
        moved_translate = 0
        for _ in range(300):
            n = rng.randint(2, 5)
            coset = random_nonempty_coset(rng, n, max_rows=4, span=4, max_den=6)
            w = random_unimodular(rng, n)
            image = CongruenceCoset.of(n, [[sum(a * w[k][j] for k, a in enumerate(row)) for j in range(n)]
                                           for row in coset.rows], coset.rhs)
            nc, moved = coset.normalize(), image.normalize()
            assert moved.divisibility_class == nc.divisibility_class
            moved_translate += smith_translates(moved) != smith_translates(nc)
        assert moved_translate > 10


class TestEnumerate:
    def test_full_torus(self):
        pts = enumerate_torsion(CongruenceCoset.full_torus(2), 2)
        assert len(pts) == 4
        assert TorusPoint.of([Fraction(1, 2), Fraction(1, 2)]) in pts
        halves = (Fraction(0), Fraction(1, 2))
        assert {p.coords for p in pts} == {(x, y) for x in halves for y in halves}

    def test_a_shared_point_is_listed_by_both_components(self):
        # {2·x0 ≡ 1/2} ∪ {x1 ≡ 0} at d = 4: (1/4, 0) and (3/4, 0) lie on
        # both, so the union has 8 + 4 - 2 = 10 distinct points
        parts = [CongruenceCoset.of(2, [[2, 0]], [Fraction(1, 2)]), CongruenceCoset.of(2, [[0, 1]], [Fraction(0)])]
        listed = [p.coords for c in parts for p in enumerate_torsion(c, 4)]
        points = set(listed)
        assert len(listed) == 12 and len(points) == 10
        quarters = [Fraction(k, 4) for k in range(4)]
        assert points == {(x, y) for x in quarters[1::2] for y in quarters} | {(x, Fraction(0)) for x in quarters}
        oracle = {tuple(Fraction(y, 4) for y in ys) for c in parts for ys in brute_force_torsion_points(c, 4)}
        assert points == oracle
        assert len(points) == union_torsion_count(parts, 4) == brute_force_torsion_count(parts, 4)

    def test_an_empty_coset_lists_no_point(self):
        empty = CongruenceCoset.of(4, [[1, 0, 0, 0], [1, 0, 0, 0]], [Fraction(0), Fraction(1, 2)])
        pinned = CongruenceCoset.of(4, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                                    [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)])
        assert enumerate_torsion(empty, 4) == [] and brute_force_torsion_points(empty, 4) == set()
        assert [p.coords for p in enumerate_torsion(pinned, 4)] == [
            (Fraction(k, 4), Fraction(0), Fraction(0), Fraction(0)) for k in (1, 3)]
        assert union_torsion_count([empty, pinned], 4) == 2

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

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_must_be_positive(self, d):
        origin = CongruenceCoset.point(TorusPoint.zero(2))
        with pytest.raises(ValueError, match="^d must be positive$"):
            enumerate_torsion(origin, d)
        with pytest.raises(ValueError, match="^d must be positive$"):
            union_torsion_count([origin], d)


class TestUnion:
    def test_single_component(self):
        rng = random.Random(64)
        for _ in range(20):
            coset = random_coset(rng, 3)
            d = rng.randint(1, 5)
            assert union_torsion_count([coset], d) == coset_torsion_count(coset, d).value

    def test_components_in_two_tori_are_refused(self):
        parts = [CongruenceCoset.point(TorusPoint.zero(2)), CongruenceCoset.point(TorusPoint.zero(4))]
        with pytest.raises(DimensionMismatch, match="^union components live in different tori$"):
            union_torsion_count(parts, 1)

    def test_budget_skips_empty_components(self):
        # {x0 ≡ 0, x0 ≡ 1/2} is empty: the pass takes in the origin alone
        origin = CongruenceCoset.point(TorusPoint.zero(2))
        empty = CongruenceCoset.of(2, [[1, 0], [1, 0]], [0, Fraction(1, 2)])
        assert empty.normalize() is None
        assert union_torsion_count([origin, empty], 2, budget=1) == 1
        with pytest.raises(ComponentBudgetExceeded, match="^2 components exceed the component budget of 1$"):
            union_torsion_count([origin, empty, CongruenceCoset.point(TorusPoint.of([Fraction(1, 2), 0]))],
                                2, budget=1)

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


def _per_threshold_terms(n, limit, strata):
    """h = limit + Σ_t (t − t_prev)·1_{h ≥ t} over the thresholds above the
    limit, each level set a union of unit value: the reference that the one
    pass of :meth:`CountForm.of` must reproduce term for term."""
    terms = {}
    prev = limit
    for t in sorted({v for _, v in strata if v > limit}):
        for c, x in _union_terms([nc for nc, v in strata if v >= t], n):
            terms[x] = terms.get(x, 0) + (t - prev) * c
        prev = t
    return {x: c for x, c in terms.items() if c}


class TestOnePassForm:
    """The one-pass form of a multi-valued rank function against the sum of
    its level sets' unions, compared as dicts."""

    @staticmethod
    def _terms(n, limit, strata):
        return {x: c for c, x in CountForm.of(n, limit, strata).terms}

    def test_random_rank_functions(self):
        rng = random.Random(31415)
        multivalued = 0
        for _ in range(120):
            n = rng.randint(2, 4)
            limit = rng.randint(0, 2)
            strata = []
            for _ in range(rng.randint(1, 7)):
                if strata and rng.random() < 0.2:
                    nc = rng.choice(strata)[0]
                else:
                    nc = random_nonempty_coset(rng, n, max_rows=2, span=2, max_den=3).normalize()
                strata.append((nc, limit + rng.randint(0, 4)))
            multivalued += len({v for _, v in strata if v > limit}) > 1
            assert self._terms(n, limit, strata) == _per_threshold_terms(n, limit, strata)
        assert multivalued > 60

    def test_equal_values(self):
        lines = [CongruenceCoset.of(2, [row], [Fraction(1, 2)]).normalize()
                 for row in ([1, 0], [0, 1], [1, 1])]
        strata = [(nc, 3) for nc in lines]
        terms = self._terms(2, 1, strata)
        assert terms == _per_threshold_terms(2, 1, strata)
        assert terms == {x: 2 * c for c, x in _union_terms(lines, 2)}

    def test_nested_strata_cancel(self):
        # the point lies on the line; below the line's value it adds nothing
        point = CongruenceCoset.point(TorusPoint.of([Fraction(1, 2), 0])).normalize()
        line = CongruenceCoset.of(2, [[0, 1]], [0]).normalize()
        for strata, expected in (([(point, 2), (line, 3)], {line: 3}),
                                 ([(line, 2), (point, 5)], {line: 2, point: 3})):
            assert self._terms(2, 0, strata) == _per_threshold_terms(2, 0, strata) == expected

    def test_full_torus_stratum_at_the_limit(self):
        torus = CongruenceCoset.full_torus(2).normalize()
        line = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 3)]).normalize()
        strata = [(torus, 2), (line, 4), (line, 2)]
        assert self._terms(2, 2, strata) == _per_threshold_terms(2, 2, strata) == {line: 2}
        column = CountTable.of([[CountForm.of(2, 2, strata)]])
        for d in (1, 3, 6):
            assert column.values(d)[0] == 2 * d ** 2 + 2 * (d if d % 3 == 0 else 0)


class TestStratumOrder:
    """Strata of equal value enter lowest dimension first; the terms do not
    depend on the order."""

    def test_permuted_strata_give_equal_terms(self):
        rng = random.Random(1729)
        for multivalued in (False, True):
            for _ in range(40):
                n = rng.randint(2, 4)
                limit = rng.randint(0, 2) if multivalued else 0
                strata = []
                for _ in range(rng.randint(2, 7)):
                    nc = random_nonempty_coset(rng, n, max_rows=2, span=2, max_den=3).normalize()
                    strata.append((nc, limit + (rng.randint(1, 3) if multivalued else 1)))
                terms = TestOnePassForm._terms(n, limit, strata)
                for _ in range(3):
                    rng.shuffle(strata)
                    assert TestOnePassForm._terms(n, limit, strata) == terms

    def test_lower_dimension_first_makes_fewer_meets(self, monkeypatch):
        rng = random.Random(5)
        comps = [sparse_coset(rng, 4, rng.choice((1, 2))) for _ in range(8)]
        highest_first = sorted((c.normalize() for c in comps), key=lambda nc: -nc.dim)
        meets = []
        real = NormalizedCoset.meet
        monkeypatch.setattr(NormalizedCoset, "meet", lambda *a: meets.append(1) or real(*a))
        union = CountForm.of(4, 0, [(nc, 1) for nc in highest_first])
        lowest_first = len(meets)
        meets.clear()
        # distinct values decreasing along the list force it in as given
        forced = CountForm.of(4, 0, [(nc, len(comps) - i) for i, nc in enumerate(highest_first)])
        assert lowest_first < len(meets)
        assert {x for _, x in union.terms} == {x for _, x in forced.terms}


class TestLargeUnions:
    """Unions of r = 16 and 20 codimension-1 and -2 cosets of (R/Z)^4 and of
    r = 16 in (R/Z)^6, the two ambient dimensions of the union-count
    benchmark, within a budget of 20, against enumeration at small d."""

    @pytest.mark.parametrize("n, r, ds", [(4, 16, (1, 2, 3, 4, 6)), (4, 20, (1, 2, 3, 4, 6)), (6, 16, (2,))],
                             ids=["16", "20", "n6-16"])
    def test_against_enumeration(self, n, r, ds):
        rng = random.Random(1600 + r + 100 * (n - 4))
        for _ in range(2):
            comps = [sparse_coset(rng, n, rng.choice((1, 2))) for _ in range(r)]
            normalized = [nc for nc in (c.normalize() for c in comps) if nc is not None]
            assert len(_union_terms(normalized, n)) > r
            for d in ds:
                assert union_torsion_count(comps, d, budget=20) == brute_force_torsion_count(comps, d)
            with pytest.raises(ComponentBudgetExceeded):
                union_torsion_count(comps, 2, budget=r - 1)

    def test_kernel_work(self, monkeypatch):
        # r = 10 cosets of (R/Z)^6: Smith passes, through the module global
        # that _smith_data calls, and packed meets, counted without a clock;
        # a term's row with an entry of ±1 splits off before any pass
        from jumploci import torus

        rng = random.Random(0)
        comps = [sparse_coset(rng, 6, rng.choice((1, 2))) for _ in range(10)]
        passes, packs = [], []
        snf_, hermite = torus.snf, torus._hermite
        monkeypatch.setattr(torus, "snf", lambda *a: passes.append(1) or snf_(*a))
        monkeypatch.setattr(torus, "_hermite", lambda *a: packs.append(1) or hermite(*a))
        assert union_torsion_count(comps, 2) == 64
        assert len(passes) <= 164
        assert len(packs) <= 373

    def test_bookkeeping(self, monkeypatch):
        # the same union: the pass keeps one dict, so each meet costs two
        # hashes, and no term, counted or not, reads its rows of H or
        # translate numerators off its rows by pivot column (2,238 hashes
        # with a delta dict, a union dict and a terms dict)
        rng = random.Random(0)
        comps = [sparse_coset(rng, 6, rng.choice((1, 2))) for _ in range(10)]
        hashes, forms = [], []
        hash_, of = NormalizedCoset.__hash__, CountForm.of
        monkeypatch.setattr(NormalizedCoset, "__hash__", lambda nc: hashes.append(1) or hash_(nc))
        monkeypatch.setattr(CountForm, "of", lambda *a: forms.append(of(*a)) or forms[-1])
        assert union_torsion_count(comps, 2) == 64
        assert len(hashes) <= 776
        (form,) = forms
        assert not any({"rows", "nums"} & set(vars(nc)) for _, nc in form.terms)


# odd d skip the classes of translate order 2; 10^6 and 10^30 are divisible
# by every small pivot of 2 and 5 only, 1000000007 is prime
CLASS_DS = (*range(1, 25), 10 ** 6, 10 ** 30, 1000000007)


def _sparse_translated_coset(rng, n, codim):
    """Rows of three entries in ±1, ±2, and a translate of order 1, 2 or 3."""
    rows = []
    for _ in range(codim):
        row = [0] * n
        for j in rng.sample(range(n), 3):
            row[j] = rng.choice((-2, -1, 1, 2))
        rows.append(row)
    den = rng.choice((2, 3))
    return CongruenceCoset.of(n, rows, [Fraction(rng.randrange(den), den) for _ in rows])


def _classes(table):
    return {(min_order, pivots) for min_order, pivots, _ in table.classes}


class TestClassEvaluation:
    """CountTable.values, one torsion gate per class (min_order, pivots)
    and one power per exponent, against the sum over each column's terms one
    by one (oracles.per_term_count), for the forms merged into one table and
    for each form read alone as a one-column table."""

    @staticmethod
    def _check(*forms):
        table = CountTable.of([[form] for form in forms])
        for d in CLASS_DS:
            assert table.values(d) == [per_term_count(form, d) for form in forms]
        for form in forms:
            column = CountTable.of([[form]])
            assert [column.values(d)[0] for d in CLASS_DS] == [per_term_count(form, d) for d in CLASS_DS]
        return _classes(table)

    def test_catalog_forms_are_one_polynomial(self):
        for name, params in DEFAULT_INSTANCES:
            model = builtin(name, **params).model
            rank_functions = [rf for row in model.hodge for rf in row]
            rank_functions += [rf for row in model.sheaves.values() for rf in row]
            rank_functions += [model.pluri_locus] if model.pluri else []
            forms = [rf.count_form(DEFAULT_COMPONENT_BUDGET) for rf in rank_functions]
            assert self._check(*forms) <= {(1, ())}

    def test_seeded_unions_and_rank_functions(self):
        rng = random.Random(1414)
        seen = set()
        for n in (4, 6):
            forms = []
            for _ in range(12):
                comps = [_sparse_translated_coset(rng, n, rng.choice((1, 2)))
                         for _ in range(rng.randint(2, 6))]
                normalized = [nc for nc in (c.normalize() for c in comps) if nc is not None]
                forms.append(CountForm.of(n, 0, [(nc, 1) for nc in normalized]))
                generic = rng.randint(0, 2)
                strata = tuple(Stratum(c, generic + rng.randint(1, 4)) for c in comps)
                forms.append(RankFunction(n, generic, strata).count_form(len(strata)))
            seen |= self._check(*forms)
        assert {2, 3} <= {min_order for min_order, _ in seen}
        assert any(pivots for _, pivots in seen)
        assert len(seen) > 10

    def test_terms_of_one_class_cancel_at_one_exponent(self):
        # two lines of translate order 2 with opposite coefficients share the
        # class (2, ()) at exponent 1; the point where they meet stays
        a = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 2)]).normalize()
        b = CongruenceCoset.of(2, [[0, 1]], [Fraction(1, 2)]).normalize()
        form = CountForm(2, 1, ((3, a), (-3, b), (5, a.meet(b))))
        column = CountTable.of([[form]])
        assert column.classes == ((1, (), ((2, ((0, 1),)),)), (2, (), ((0, ((0, 5),)),)))
        self._check(form)
        assert (column.values(3)[0], column.values(4)[0]) == (9, 16 + 5)
        cancelled = CountForm(2, 0, ((3, a), (-3, b)))
        assert CountTable.of([[cancelled]]).classes == ()
        # across columns a coefficient cancels only within its own column
        table = CountTable.of([[CountForm(2, 0, ((3, a),))], [CountForm(2, 0, ((-3, a),))]])
        assert table.classes == ((2, (), ((1, ((0, 3), (1, -3))),)),)
        assert table.values(4) == [12, -12] and table.values(3) == [0, 0]

    def test_a_form_listed_in_several_columns_is_read_once(self):
        class CountedTerms(tuple):
            reads = 0

            def __iter__(self):
                self.reads += 1
                return super().__iter__()

        a = CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 2)]).normalize()
        b = CongruenceCoset.of(2, [[0, 1]], [Fraction(1, 3)]).normalize()
        c = CongruenceCoset.of(2, [[2, 0], [0, 2]], [0, 0]).normalize()
        f = CountForm(2, 1, CountedTerms(((3, a), (-2, b), (5, c))))
        g = CountForm(2, 2, CountedTerms(((-3, a), (1, a.meet(c)))))
        table = CountTable.of([[f], [f], [f, g]])
        assert (f.terms.reads, g.terms.reads) == (1, 1)
        # the sum of f and g read as one form whose terms are both lists
        summed = CountForm(2, f.limit + g.limit, (*f.terms, *g.terms))
        expected = CountTable.of([[f], [f], [summed]])
        canonical = lambda t: (t.constants, {(m, pivots, e, column, coefficient) for m, pivots, exponents in t.classes
                                             for e, entries in exponents for column, coefficient in entries})
        assert canonical(table) == canonical(expected)
        for d in CLASS_DS:
            assert table.values(d) == expected.values(d) == [per_term_count(f, d)] * 2 + [per_term_count(summed, d)]

    @staticmethod
    def _check_hodge_table(model):
        """Every column of the model's table against per_term_count: the grid
        row-major, then b_0 … b_2n as sums over their anti-diagonals, then
        d^(2g)."""
        n = model.n
        table = model.hodge_table(DEFAULT_COMPONENT_BUDGET)
        assert len(table.constants) == (n + 1) ** 2 + (2 * n + 1) + 1
        forms = [[rf.count_form(DEFAULT_COMPONENT_BUDGET) for rf in row] for row in model.hodge]
        for d in CLASS_DS:
            grid = tuple(tuple(per_term_count(form, d) for form in row) for row in forms)
            betti = [sum(per_term_count(forms[p][k - p], d) for p in range(n + 1) if 0 <= k - p <= n)
                     for k in range(2 * n + 1)]
            values = table.values(d)
            assert values == [h for row in grid for h in row] + betti + [d ** model.torus_dim], d
            assert model.grid(values) == grid
        return _classes(table)

    def test_hodge_table_columns_on_catalog_grids(self):
        for name, params in DEFAULT_INSTANCES:
            self._check_hodge_table(builtin(name, **params).model)

    def test_hodge_table_columns_on_random_models(self):
        # translates of denominator up to 4 give classes of order 2, 3 and 4
        rng = random.Random(1616)
        seen = set()
        for _ in range(30):
            n, g = rng.choice((1, 2)), rng.choice((1, 2))
            grid = tuple(tuple(random_rank_function(rng, 2 * g) for _ in range(n + 1))
                         for _ in range(n + 1))
            seen |= self._check_hodge_table(VarietyModel(n=n, g=g, hodge=grid, defect_strata=()))
        assert {2, 3} <= {min_order for min_order, _ in seen}
        assert any(pivots for _, pivots in seen)

    @pytest.mark.parametrize("seed", [f"invariance:{k}" for k in range(20)] + [f"golden:{k}" for k in (1, 2, 5)])
    def test_hodge_table_columns_on_invariance_and_golden_models(self, seed):
        # the catalog's forms are all class (1, ()), so only these models add
        # forms of several classes into one Betti column
        self._check_hodge_table(random_model(random.Random(seed)))

    def test_hodge_table_of_a_point(self):
        # n = 0: one Betti column, b_0 = h^(0,0)
        rf = RankFunction(2, 1, (Stratum(CongruenceCoset.point(TorusPoint.of([Fraction(1, 2), 0])), 3),))
        model = VarietyModel(n=0, g=1, hodge=((rf,),), defect_strata=((0, 0),))
        self._check_hodge_table(model)
        assert model.hodge_table(DEFAULT_COMPONENT_BUDGET).values(4) == [16 + 2, 16 + 2, 16]

    @pytest.mark.parametrize("d", [0, -1, -2])
    def test_nonpositive_d_rejected(self, d):
        model = builtin("fibered_over_curve", genus=2).model
        form = model.hodge[0][1].count_form(DEFAULT_COMPONENT_BUDGET)
        assert form.terms
        point = CongruenceCoset.point(TorusPoint.of([Fraction(1, 2), 0]))
        line = CongruenceCoset.of(2, [[2, 0]], [0])
        reads = (lambda: sheaf_rank_on_cover(model.hodge[0][1], d), lambda: union_torsion_count([point, line], d),
                 lambda: model.hodge_table(DEFAULT_COMPONENT_BUDGET).values(d))
        # a selector with no rank functions sums nothing, yet d is still checked
        reads += (lambda: value_on_cover(model, ("betti", 2 * model.n + 1), d),
                  lambda: normalized_sequence(model, ("betti", -1), [d]))
        reads += tuple((lambda nc=nc: _count(nc, d)) for nc in (point.normalize(), line.normalize(),
                                                                *(nc for _, nc in form.terms)))
        reads += (lambda: coset_torsion_count(point, d),)
        for read in reads:
            with pytest.raises(ValueError, match="d must be positive"):
                read()


class TestTermByTermCount:
    """A form read alone as a one-column CountTable equals its terms read one
    by one (oracles.per_term_count) at every d of CLASS_DS, and a brute-force
    count wherever the d-torsion grid is small."""

    @staticmethod
    def _check(form, brute_force, grid_cap):
        column = CountTable.of([[form]])
        for d in CLASS_DS:
            assert column.values(d)[0] == per_term_count(form, d), d
        small = [d for d in range(1, 13) if d ** form.ambient_dim <= grid_cap]
        assert len(small) >= 2
        for d in small:
            assert column.values(d)[0] == brute_force(d), d

    def test_seeded_unions(self):
        rng = random.Random(2326)
        translated = 0
        for n in (3, 4, 6):
            for _ in range(8):
                comps = [_sparse_translated_coset(rng, n, rng.choice((1, 2)))
                         for _ in range(rng.randint(2, 6))]
                normalized = [nc for nc in (c.normalize() for c in comps) if nc is not None]
                form = CountForm.of(n, 0, [(nc, 1) for nc in normalized])
                translated += any(nc.order > 1 for _, nc in form.terms)
                self._check(form, lambda d: brute_force_torsion_count(comps, d), 4096)
        assert translated > 10

    def test_random_rank_functions(self):
        rng = random.Random(2327)
        orders = []
        for n in (1, 2, 3, 4):
            for _ in range(12):
                rf = random_rank_function(rng, n)
                form = rf.count_form(DEFAULT_COMPONENT_BUDGET)
                orders += [nc.order for _, nc in form.terms]
                self._check(form, lambda d: brute_force_rank_sum(rf, d), 256)
        assert len(orders) > 20 and {2, 3} <= set(orders)


def _union_polynomial(cosets):
    """The reference rule that :func:`covered` replaced: C lies in the union
    of V exactly when C ∪ V and V have the same count polynomial."""
    return CountForm.of(2, 0, [(nc, 1) for nc in cosets]).polynomial


def _covering_cases(rng):
    """(corpus, coset, union) in (R/Z)^2: random cosets against random
    unions, and split components, {k·x0 ≡ a} against some of its pieces
    {x0 ≡ (a + j)/k}, at times with a point on one piece or a line across
    them added, which cover no component."""
    for _ in range(60):
        coset = random_nonempty_coset(rng, 2, max_rows=2, span=2, max_den=4)
        union = [random_coset(rng, 2, max_rows=2, span=2, max_den=4) for _ in range(rng.randint(0, 4))]
        yield "random", coset, union
    for _ in range(60):
        k, a = rng.randint(2, 6), Fraction(rng.randint(0, 3), 4)
        union = [CongruenceCoset.of(2, [[1, 0]], [(a + j) / k]) for j in range(k) if rng.random() < 0.7]
        if rng.random() < 0.5:
            union.append(CongruenceCoset.of(2, [[1, 0], [0, 1]], [a / k, Fraction(rng.randint(0, 3), 4)]))
        if rng.random() < 0.3:
            union.append(CongruenceCoset.of(2, [[0, 1]], [Fraction(rng.randint(0, 3), 4)]))
        yield "split", CongruenceCoset.of(2, [[k, 0]], [a]), union


class TestCovered:
    def test_agrees_with_brute_force_and_the_union_polynomial(self):
        # at a d, a multiple of 12, where every component of the coset has
        # d^dim points, a component outside the union keeps a point that the
        # lower-dimensional pieces miss
        outcomes = {(corpus, inside): 0 for corpus in ("random", "split") for inside in (True, False)}
        for corpus, coset, union in _covering_cases(random.Random(2020)):
            nc = coset.normalize()
            pieces = [x for x in (c.normalize() for c in union) if x is not None]
            min_order, pivots, _ = nc.divisibility_class
            d = math.lcm(12, min_order * math.lcm(*pivots))
            points = brute_force_torsion_points(coset, d)
            assert len(points) == nc.component_count * d ** nc.dim
            inside = points <= set().union(*(brute_force_torsion_points(c, d) for c in union))
            assert covered(nc, pieces) == inside, (coset, union)
            assert (_union_polynomial([nc, *pieces]) == _union_polynomial(pieces)) == inside
            outcomes[corpus, inside] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_split_components(self):
        halves = [CongruenceCoset.of(2, [[1, 0]], [b]).normalize() for b in (0, Fraction(1, 2))]
        both = CongruenceCoset.of(2, [[2, 0]], [0]).normalize()
        assert covered(both, halves) and covered(both, [both]) and covered(halves[1], [both])
        assert not covered(both, halves[:1]) and not covered(both, [])
        # a point on each component is a lower-dimensional piece, which covers nothing
        points = [CongruenceCoset.of(2, [[1, 0], [0, 1]], [b, 0]).normalize() for b in (0, Fraction(1, 2))]
        assert not covered(both, [halves[0], *points])
