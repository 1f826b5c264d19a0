"""Exact counting and enumeration of d-torsion points on cosets and unions.

A point x of order dividing d is x = y/d with y in (Z/d)^N, so membership
in {A·x ≡ b} becomes the modular system A·y ≡ d·b (mod d), which is empty
unless d·b is integral.  The count of a modular system is read off the
Smith form of A.  Neither the Smith form nor the transformed translate
depends on d, so a coset is compiled once into a :class:`CompiledCoset`
whose count is a closed form in d.  Compiling is one call of
:func:`~jumploci.torus.snf` on the coset's rows of (H | L·b), the last
column carried along, so the transformed translate U·(L·b) comes out
without U or V being built; only normalized cosets are compiled.

Every count is one :class:`CountForm`: a limit times d^N plus a signed sum
over compiled distinct nonempty meets (Möbius inversion over their
intersection poset).  A rank function's form weights the union of each of
its level sets by the step to the next threshold, and a union of cosets is
the form of limit 0 with every value 1.  A union is built one component at
a time: each new component's rows are inserted into the Hermite rows of
every stored meet (:meth:`~jumploci.torus.NormalizedCoset.meet`), and meets
are keyed by their integer Hermite form, hashed once.  Each meet hands its
rows of (H | L·b) on to the next meet and to its compiled form.  Empty
meets are never extended,
so the work is bounded by the distinct nonempty meets rather than by the
2^r subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .errors import CapExceeded, ComponentBudgetExceeded, DimensionMismatch
from .torus import CongruenceCoset, NormalizedCoset, TorusPoint, snf

DEFAULT_COMPONENT_BUDGET = 12
DEFAULT_ENUM_CAP = 10_000_000


@dataclass(frozen=True)
class TorsionCount:
    """Exact count of the d-torsion points lying on one coset."""

    d: int
    value: int


@dataclass(frozen=True)
class CompiledCoset:
    """The part of the torsion count of a nonempty coset that does not depend on d.

    With U·A·V = S the Smith form of A and L the order of the translate b
    (the lcm of its denominators), the system A·y ≡ d·b (mod d) is empty
    unless L divides d, and otherwise equivalent to
    S·z ≡ (d/L)·U·(L·b) (mod d).  A diagonal entry s contributes gcd(s, d)
    solutions when that divides its transformed right-hand side, and every
    column without a pivot contributes d.  U·(L·b) is the column that the
    Smith pass carries along.
    """

    order: int                            # L
    free: int                             # columns without a pivot
    torsion: tuple[tuple[int, int], ...]  # (s, (U·L·b)_i mod s) for pivots s > 1

    @classmethod
    def of(cls, coset: NormalizedCoset) -> "CompiledCoset":
        """Compile a normalized coset.  Its rows are independent, so every
        Smith pivot is nonzero and the coset has dim free columns."""
        n = coset.ambient_dim
        # one Smith pass over the rows of (H | nums): the last column is U·nums
        torsion = tuple((r[i], r[n] % r[i]) for i, r in enumerate(snf(coset.basis.values(), n))
                        if r[i] > 1)  # a unit pivot asks nothing of d
        return cls(coset.order, coset.dim, torsion)

    def count(self, d: int) -> int:
        """Number of points of order dividing d on the coset (d positive)."""
        if d % self.order:
            return 0
        scale = d // self.order
        total = d ** self.free
        for s, w in self.torsion:
            g = math.gcd(s, d)
            if scale * w % g:
                return 0
            total *= g
        return total

    @property
    def min_order(self) -> int:
        """Smallest d at which the coset has a point.  Each pivot asks for a
        least valuation of d/L at each prime, so the coset has points exactly
        at the multiples of it, reached by multiplying in what a pivot misses."""
        d = self.order
        while True:
            for s, w in self.torsion:
                g = math.gcd(s, d)
                missing = g // math.gcd(d // self.order * w, g)
                if missing > 1:
                    d *= missing
                    break
            else:
                return d


def count_solutions_mod(rows: Sequence[Sequence[int]], rhs: Sequence[int], modulus: int,
                        *, width: int | None = None) -> int:
    """|{y in (Z/m)^N : A·y ≡ c (mod m)}|: the number of m-torsion points on
    the coset {A·x ≡ c/m}, whose ambient dimension is ``width`` when given."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if width is None:
        if not rows:
            raise DimensionMismatch("width required for a system with no rows")
        width = len(rows[0])
    coset = CongruenceCoset.of(width, rows, [Fraction(int(c), modulus) for c in rhs])
    return coset_torsion_count(coset, modulus).value


def coset_torsion_count(coset: CongruenceCoset, d: int) -> TorsionCount:
    """Number of points of order dividing d on the coset, exactly.

    Zero when the coset is empty; otherwise the closed form of its
    normalized coset.  For a nonempty connected coset the result is d^dim
    when the translate order divides d and 0 otherwise.
    """
    if d < 1:
        raise ValueError("d must be positive")
    nc = coset.normalize()
    return TorsionCount(d, CompiledCoset.of(nc).count(d) if nc is not None else 0)


def check_union(components: Sequence[CongruenceCoset], budget: int) -> None:
    """Raise unless the components share one torus and fit the budget."""
    if not components:
        return
    ambient = components[0].ambient_dim
    for c in components:
        if c.ambient_dim != ambient:
            raise DimensionMismatch("union components live in different tori")
    if len(components) > budget:
        raise ComponentBudgetExceeded(
            f"{len(components)} components exceed the component budget of {budget}")


def _signed_union(components: Sequence[NormalizedCoset]) -> dict[NormalizedCoset, int]:
    """Signed terms of a union, keyed by meet: 1_union = Σ coefficient·1_meet.

    Components are added one at a time, using
    1_{U ∪ C} = 1_U + 1_C − Σ c_x·1_{x ∩ C} for the terms (c_x, x) of U.
    Each meet inserts the component's rows into the stored meet's Hermite
    rows (:meth:`NormalizedCoset.meet`).  Meets are keyed by their integer
    Hermite form, so equal meets merge and terms whose coefficients cancel
    are dropped; an empty meet is never extended.  There is one term per
    distinct nonempty meet at most.
    """
    terms: dict[NormalizedCoset, int] = {}
    for comp in components:
        delta = {comp: 1}
        for x, c in terms.items():
            meet = x.meet(comp)
            if meet is not None:
                delta[meet] = delta.get(meet, 0) - c
        for x, c in delta.items():
            c += terms.get(x, 0)
            if c:
                terms[x] = c
            else:
                terms.pop(x, None)
    return terms


@dataclass(frozen=True)
class CountForm:
    """A rank sum on (R/Z)^N in closed form: h(d) = limit·d^N + Σ c·count(d)
    over the terms, the distinct meets of the level sets above the limit."""

    ambient_dim: int
    limit: int
    terms: tuple[tuple[int, CompiledCoset], ...]

    @classmethod
    def of(cls, ambient_dim: int, limit: int,
           strata: Sequence[tuple[NormalizedCoset, int]]) -> "CountForm":
        """The form of h = max(limit, values of the strata containing the point).

        With thresholds t above the limit in increasing order,
        h = limit + Σ_t (t − t_prev)·1_{h ≥ t}, and each level set
        {h ≥ t} is the union of the strata reaching t (:func:`_signed_union`).
        Terms are merged by Hermite form and each compiled once.  A union of
        cosets is the form of limit 0 with every value 1.  Callers run
        :func:`check_union` first.
        """
        terms: dict[NormalizedCoset, int] = {}
        prev = limit
        for t in sorted({value for _, value in strata if value > limit}):
            for x, c in _signed_union([nc for nc, value in strata if value >= t]).items():
                terms[x] = terms.get(x, 0) + (t - prev) * c
            prev = t
        return cls(ambient_dim, limit,
                   tuple((c, CompiledCoset.of(x)) for x, c in terms.items() if c))

    def count(self, d: int) -> int:
        """h summed over the points of order dividing d (d positive)."""
        return (self.limit * d ** self.ambient_dim if self.limit else 0) + \
            sum(c * compiled.count(d) for c, compiled in self.terms)

    @property
    def polynomial(self) -> dict[int, int]:
        """The count at every sufficiently divisible d, as a polynomial.

        Once d is divisible by every translate order and every Smith pivot, a
        compiled meet has Π s · d^free points, Π s being its number of
        connected components; the result maps each exponent to its nonzero
        coefficient.  For unions U ⊆ V, U = V exactly when their polynomials
        agree: a component of V not inside U meets U in lower dimension, so it
        leaves a positive leading term in the difference.
        """
        poly = {self.ambient_dim: self.limit}
        for c, compiled in self.terms:
            poly[compiled.free] = poly.get(compiled.free, 0) + \
                c * math.prod(s for s, _ in compiled.torsion)
        return {e: c for e, c in poly.items() if c}

    @property
    def top_exponent(self) -> int:
        """Largest exponent of d in the terms, -1 when there are none.  No
        level set's leading coefficient cancels, so this is the largest real
        dimension of a stratum above the limit."""
        return max((compiled.free for _, compiled in self.terms), default=-1)

    @property
    def degree(self) -> int:
        """Largest exponent of d: N when the limit is positive."""
        return self.ambient_dim if self.limit > 0 else self.top_exponent

    @property
    def witness_order(self) -> Optional[int]:
        """Smallest d at which a term of the top exponent has a point; that
        term, inside the locus, has d^top such points at each multiple of d."""
        return min((compiled.min_order for _, compiled in self.terms
                    if compiled.free == self.top_exponent), default=None)


def union_torsion_count(components: Sequence[CongruenceCoset], d: int,
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """Exact |S_d ∩ (C_1 ∪ ... ∪ C_r)| as a signed sum over distinct meets."""
    if d < 1:
        raise ValueError("d must be positive")
    comps = list(components)
    check_union(comps, budget)
    normalized = [(nc, 1) for nc in (c.normalize() for c in comps) if nc is not None]
    return CountForm.of(comps[0].ambient_dim if comps else 0, 0, normalized).count(d)


def check_enumeration(n: int, d: int, cap: int) -> None:
    """Raise unless the d-torsion grid of (R/Z)^n, d^n points, fits the cap."""
    if d ** n > cap:
        raise CapExceeded(f"enumerating {d}^{n} points exceeds the cap of {cap}")


def enumerate_torsion(coset: CongruenceCoset, d: int,
                      *, cap: int = DEFAULT_ENUM_CAP) -> list[TorusPoint]:
    """All d-torsion points on the coset, by direct membership testing.

    This is the slow, independent route kept for cross-checking the closed
    forms; the grid size d^N is capped.
    """
    if d < 1:
        raise ValueError("d must be positive")
    n = coset.ambient_dim
    check_enumeration(n, d, cap)
    points = []
    for ys in product(range(d), repeat=n):
        p = TorusPoint.of([Fraction(y, d) for y in ys])
        if coset.contains(p):
            points.append(p)
    return points
