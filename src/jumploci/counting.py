"""Exact counts of d-torsion points on cosets and unions, and a brute-force list to check them.

A point x of order dividing d is x = y/d with y in (Z/d)^N, so membership
in {A·x ≡ b} becomes the modular system A·y ≡ d·b (mod d), which is empty
unless d·b is integral.  The count of a modular system is read off the
Smith form of A.  Neither the Smith form nor the transformed translate
depends on d, so the count of a normalized coset is a closed form in d,
read off its :attr:`~jumploci.torus.NormalizedCoset.divisibility_class`,
computed once per coset off Smith data that are not kept.

Every count is one :class:`CountForm`: a limit times d^N plus a signed sum
over distinct nonempty normalized meets (Möbius inversion over their
intersection poset).  A form only counts: no locus verdict reads it, as a
locus's degree and witness order are read off its strata.  A rank
function's form is built in one pass (:meth:`CountForm.of`) over one
running union of its strata, so a union count keeps one dict; a union of
cosets is the form of limit 0 with every value 1.  Each new stratum's
rows are inserted into a copy of the Hermite rows of every stored meet
(:meth:`~jumploci.torus.NormalizedCoset.meet`), and meets are keyed by
their integer Hermite form, hashed once, so equal meets merge and terms
that cancel are dropped.  Empty meets are never extended, so the work is
bounded by the distinct nonempty meets rather than by the 2^r subsets.

A term's count depends on d only through divisibility (Kamiya, Takemura
and Terao, 2008): f·d^dim·[M | d]·Π gcd(s', d/M) for its class (M, s', f),
M its least order, s' its Smith pivots reduced by M, whatever its
presentation (:func:`~jumploci.torus.torsion_gate`).  A :class:`CountTable`
is the one evaluator of forms: a column is a sum of forms, and each
distinct form's terms are read once into the columns that list it, keyed
by (M, s'), each class mapping each exponent to the summed f·c of its
terms; a form read alone (a union, a sheaf slot, the plurigenus locus)
keeps its one-column table (:attr:`CountForm.table`).  The class (1, ())
at exponent 0 does not depend on d, so it is summed once into a constant
per column.  Every d starts from those constants, runs one gate per other
class and one power of d per distinct exponent, then adds gate·c·d^e into
the columns.  Every number a cover reports is one table
(:meth:`~jumploci.model.VarietyModel.hodge_table`).  The limit is class
(1, ()), whose gate is 1; the catalog's forms have no other class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceeded, ComponentBudgetExceeded, DimensionMismatch
from .torus import CongruenceCoset, NormalizedCoset, TorusPoint, _check_d, _computed_once, torsion_gate
from .torus import snf  # noqa: F401  (bench/tests asserts this binding)

DEFAULT_COMPONENT_BUDGET = 12
DEFAULT_ENUM_CAP = 10_000_000


class TorsionCount(NamedTuple):  # (bench/oracles.py and bench/tracing.py read its value)
    """Exact count of the d-torsion points lying on one coset."""

    d: int
    value: int


# bench/oracles.py calls this, and bench/tracing.py spans it and reads its value
def coset_torsion_count(coset: CongruenceCoset, d: int) -> TorsionCount:
    """Number of points of order dividing d on the coset, exactly: the
    count of the union of the coset alone (:func:`union_torsion_count`), so
    zero when the coset is empty.  For a nonempty connected coset the result
    is d^dim when the translate order divides d and 0 otherwise.
    """
    return TorsionCount(d, union_torsion_count([coset], d))


def check_budget(components: int, budget: int) -> None:
    """Raise unless a count pass taking in this many nonempty components fits the budget."""
    if components > budget:
        raise ComponentBudgetExceeded(
            f"{components} components exceed the component budget of {budget}")


def _add(into: dict[NormalizedCoset, int], items: Iterable[tuple[NormalizedCoset, int]], weight: int) -> None:
    """Add weight·c at each coset x of the items into the dict, dropping zeros."""
    for x, c in items:
        if v := into.get(x, 0) + weight * c:
            into[x] = v
        else:
            del into[x]


@dataclass(frozen=True)
class CountForm:
    """A rank sum on (R/Z)^N in closed form: h(d) = limit·d^N + Σ c·count(d)
    over the terms, the distinct meets of the strata above the limit."""

    ambient_dim: int
    limit: int
    terms: tuple[tuple[int, NormalizedCoset], ...]

    @classmethod
    def of(cls, ambient_dim: int, limit: int,
           strata: Sequence[tuple[NormalizedCoset, int]]) -> "CountForm":
        """The form of h = max(limit, values of the strata containing the point).

        The strata join a running union U in decreasing value order, lowest
        dimension first among equal values (fewer meets; in any order a set S
        of strata gives its meet (−1)^(|S|+1)·(min value over S − limit)), by
        1_{U ∪ C} = 1_U + 1_C − Σ c_x·1_{x ∩ C} over the terms (c_x, x) of U.
        With U_i the union of the strata of value at least v_i,
        h = limit + Σ (v_i − v_(i+1))·1_{U_i}, v_(i+1) the next value or the
        limit: each level's union but the last joins the terms once, weighted
        by its gap, and the last is read as the terms.  Callers check the
        budget on ``len(strata)`` first (:func:`check_budget`).
        """
        ordered = [s for s in sorted(strata, key=lambda s: (-s[1], s[0].dim)) if s[1] > limit]
        union, terms = {}, {}  # terms: the unions of the levels before the last, weighted
        for i, (comp, value) in enumerate(ordered):
            delta = [(meet, -c) for x, c in union.items() if (meet := x.meet(comp)) is not None]
            delta.append((comp, 1))
            _add(union, delta, 1)
            following = ordered[i + 1][1] if i + 1 < len(ordered) else limit
            if limit < following < value:
                _add(terms, union.items(), value - following)
        gap = ordered[-1][1] - limit if ordered else 1
        if terms:
            _add(terms, union.items(), gap)
            union, gap = terms, 1
        return cls(ambient_dim, limit, tuple((gap * c, x) for x, c in union.items()))

    @property
    def polynomial(self) -> dict[int, int]:
        """The count at every sufficiently divisible d, as a polynomial.

        Once d is divisible by every translate order and every Smith pivot, a
        meet has component_count·d^dim points; the result maps each exponent
        to its nonzero coefficient.
        """
        poly = {self.ambient_dim: self.limit}
        for c, nc in self.terms:
            poly[nc.dim] = poly.get(nc.dim, 0) + c * nc.component_count
        return {e: c for e, c in poly.items() if c}

    @_computed_once
    def table(self) -> CountTable:
        """The form read alone, as a one-column table built on first use."""
        return CountTable.of([[self]])


def covered(coset: NormalizedCoset, cosets: Iterable[NormalizedCoset]) -> bool:
    """Whether the coset lies in the union of the cosets, exactly.

    A component of the coset, a translate of a connected subtorus, lies in a
    closed coset or meets it in lower dimension, a null set, and finitely
    many null sets cover no component.  So the coset is covered exactly when
    its full-dimensional meets, each a union of its components, take in all
    component_count of them: the degree-dim coefficient of their union's
    form.  No lower-dimensional meet is formed.  Unions are equal exactly
    when each covers every coset of the other.
    """
    pieces = [(m, 1) for m in (coset.meet(d) for d in cosets) if m is not None and m.dim == coset.dim]
    form = CountForm.of(coset.ambient_dim, 0, pieces)
    return form.polynomial.get(coset.dim, 0) == coset.component_count


class CountTable(NamedTuple):
    """Sums of count forms merged by divisibility class, one column per sum,
    each distinct form read once, by identity, into every column that lists
    it; the only evaluator of a form, even read alone (:attr:`CountForm.table`).

    ``constants`` holds each column's coefficient of class (1, ()) at
    exponent 0, the part of its count that no d changes, summed once here.
    ``classes`` holds the rest as (M, s', ((exponent, ((column, f·c),
    ...)), ...)): the sums over the terms of divisibility class (M, s', f)
    and that exponent, zero entries, exponents and classes dropped.  A
    form's limit is class (1, ()) at exponent N.
    """

    constants: tuple[int, ...]
    classes: tuple[tuple[int, tuple[int, ...],
                         tuple[tuple[int, tuple[tuple[int, int], ...]], ...]], ...]

    @classmethod
    def of(cls, columns: Sequence[Sequence[CountForm]]) -> "CountTable":
        uses: dict[int, tuple[CountForm, list[int]]] = {}
        for column, forms in enumerate(columns):
            for form in forms:
                uses.setdefault(id(form), (form, []))[1].append(column)
        grouped: dict[tuple[int, tuple[int, ...]], dict[int, dict[int, int]]] = {}
        for form, listed in uses.values():
            terms = [(1, (), 1, form.ambient_dim, form.limit)]
            terms += [(*nc.divisibility_class, nc.dim, c) for c, nc in form.terms]
            for min_order, pivots, factor, e, c in terms:
                vector = grouped.setdefault((min_order, pivots), {}).setdefault(e, {})
                for column in listed:
                    vector[column] = vector.get(column, 0) + factor * c
        constants = [0] * len(columns)
        for column, c in grouped.get((1, ()), {}).pop(0, {}).items():
            constants[column] = c
        classes = []
        for (min_order, pivots), by_exponent in grouped.items():
            exponents = []
            for e, vector in by_exponent.items():
                entries = tuple((column, c) for column, c in vector.items() if c)
                if entries:
                    exponents.append((e, entries))
            if exponents:
                classes.append((min_order, pivots, tuple(exponents)))
        return cls(tuple(constants), tuple(classes))

    def values(self, d: int) -> list[int]:
        """Every column's count at d: its constant, one torsion gate per
        other class, one power per exponent, and gate·c·d^e into each column."""
        _check_d(d)
        out = list(self.constants)
        powers = {0: 1}
        for min_order, pivots, exponents in self.classes:
            gate = torsion_gate(min_order, pivots, d) if min_order > 1 or pivots else 1
            if gate:
                for e, entries in exponents:
                    power = powers.get(e)
                    if power is None:
                        power = powers[e] = d ** e
                    scale = power if gate == 1 else gate * power
                    for column, c in entries:
                        # at large d each product and sum is a big integer:
                        # a coefficient of 1 adds the power itself, and a
                        # column still at 0 takes the term as it is
                        term = scale if c == 1 else c * scale
                        out[column] = out[column] + term if out[column] else term
        return out


def union_torsion_count(components: Sequence[CongruenceCoset], d: int,
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """Exact |S_d ∩ (C_1 ∪ ... ∪ C_r)| as a signed sum over distinct meets, read off
    the table of its nonempty components' form (:attr:`CountForm.table`), which the budget caps."""
    _check_d(d)
    ambient = components[0].ambient_dim if components else 0
    if any(c.ambient_dim != ambient for c in components):
        raise DimensionMismatch("union components live in different tori")
    normalized = [(nc, 1) for nc in (c.normalize() for c in components) if nc is not None]
    check_budget(len(normalized), budget)
    return CountForm.of(ambient, 0, normalized).table.values(d)[0]


def enumerate_torsion(coset: CongruenceCoset, d: int,
                      *, cap: int = DEFAULT_ENUM_CAP) -> list[TorusPoint]:
    """All d-torsion points on the coset, by direct membership testing.

    This is the slow, independent route kept for cross-checking the closed
    forms; the grid size d^N is capped.
    """
    _check_d(d)
    n = coset.ambient_dim
    if d ** n > cap:
        raise CapExceeded(f"enumerating {d}^{n} points exceeds the cap of {cap}")
    points = []
    for ys in product(range(d), repeat=n):
        p = TorusPoint.of([Fraction(y, d) for y in ys])
        if coset.contains(p):
            points.append(p)
    return points
