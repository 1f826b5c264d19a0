"""Exact counting and enumeration of d-torsion points on cosets and unions.

A point x of order dividing d is x = y/d with y in (Z/d)^N, so membership
in {A·x ≡ b} becomes the modular system A·y ≡ d·b (mod d), which is empty
unless d·b is integral.  The count of a modular system is read off the
Smith form of A.  Neither the Smith form nor the transformed translate
depends on d, so a coset is compiled once into a :class:`CompiledCoset`
whose count is a closed form in d, read off one call of
:func:`~jumploci.torus.snf`.  A union is counted as a signed sum over the
distinct nonempty meets of its components (Möbius inversion over their
intersection poset), built one component at a time: each new component's
rows are inserted into the Hermite rows of every stored meet
(:meth:`~jumploci.torus.NormalizedCoset.meet`), and meets are keyed by
their integer Hermite form.  Empty meets are never extended, so the work is
bounded by the distinct nonempty meets rather than by the 2^r subsets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .errors import CapExceeded, ComponentBudgetExceeded, DimensionMismatch
from .torus import CongruenceCoset, NormalizedCoset, TorusPoint, snf

DEFAULT_COMPONENT_BUDGET = 12
DEFAULT_ENUM_CAP = 10_000_000

SignedMeets = tuple[tuple[int, "CompiledCoset"], ...]


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
    column without a nonzero pivot contributes d.  Zero pivots and rows
    beyond the diagonal impose a condition free of d, checked once when
    compiling: its failure means the coset is empty.
    """

    order: int                            # L
    free: int                             # columns without a nonzero pivot
    torsion: tuple[tuple[int, int], ...]  # (s, (U·L·b)_i mod s) for pivots s > 1

    @classmethod
    def of(cls, coset: CongruenceCoset | NormalizedCoset) -> Optional["CompiledCoset"]:
        """Compile a coset; None when it is empty (a normalized coset never is)."""
        if isinstance(coset, NormalizedCoset):
            return _compile(coset.ambient_dim, coset.rows, coset.nums, coset.order)
        order = math.lcm(*(b.denominator for b in coset.rhs))
        return _compile(coset.ambient_dim, coset.rows,
                        [b.numerator * (order // b.denominator) for b in coset.rhs], order)

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


def _compile(width: int, rows: Sequence[Sequence[int]], scaled: Sequence[int],
             order: int) -> Optional[CompiledCoset]:
    """Compile {A·x ≡ scaled/order}; ``order`` must be the exact translate
    order, the lcm of the denominators of the reduced fractions."""
    if not rows:
        return CompiledCoset(order, width, ())
    s, u, _ = snf(rows, width)
    free = width
    torsion = []
    for i, urow in enumerate(u):
        pivot = s[i][i] if i < width else 0
        if pivot == 1:  # a unit pivot asks nothing of d
            free -= 1
            continue
        w = sum(map(operator.mul, urow, scaled))
        if not pivot:
            if w % order:
                return None
        else:
            free -= 1
            torsion.append((pivot, w % pivot))
    return CompiledCoset(order, free, tuple(torsion))


def count_solutions_mod(rows: Sequence[Sequence[int]], rhs: Sequence[int], modulus: int,
                        *, width: int | None = None) -> int:
    """|{y in (Z/m)^N : A·y ≡ c (mod m)}| via the Smith form of A.

    This is the number of m-torsion points on the coset {A·x ≡ c/m}.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    k = len(rows)
    if k != len(rhs):
        raise DimensionMismatch("right-hand side length differs from the row count")
    if k == 0 and width is None:
        raise DimensionMismatch("width required for a system with no rows")
    n = len(rows[0]) if k else width
    if width is not None and width != n:
        raise DimensionMismatch("width disagrees with row length")
    scaled = [int(c) for c in rhs]
    common = math.gcd(modulus, *scaled)
    compiled = _compile(n, rows, [c // common for c in scaled], modulus // common)
    return compiled.count(modulus) if compiled else 0


def coset_torsion_count(coset: CongruenceCoset, d: int) -> TorsionCount:
    """Number of points of order dividing d on the coset, exactly.

    Zero unless d·b is integral (the only way a coset can miss the whole
    d-torsion grid); otherwise the modular count above.  For a nonempty
    connected coset the result is d^dim when the translate order divides d
    and 0 otherwise.
    """
    if d < 1:
        raise ValueError("d must be positive")
    compiled = CompiledCoset.of(coset)
    return TorsionCount(d, compiled.count(d) if compiled else 0)


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


def signed_union(components: Sequence[NormalizedCoset]) -> dict[NormalizedCoset, int]:
    """Signed terms of a union, keyed by meet: 1_union = Σ coefficient·1_meet.

    Components are added one at a time, using
    1_{U ∪ C} = 1_U + 1_C − Σ c_x·1_{x ∩ C} for the terms (c_x, x) of U.
    Each meet inserts the component's rows into the stored meet's Hermite
    rows (:meth:`NormalizedCoset.meet`).  Meets are keyed by their integer
    Hermite form, so equal meets merge and terms whose coefficients cancel
    are dropped; an empty meet is never extended.  There is one term per
    distinct nonempty meet at most.  Callers run :func:`check_union` first.
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


def union_meets(components: Sequence[NormalizedCoset]) -> SignedMeets:
    """The terms of :func:`signed_union`, each compiled once."""
    return tuple((c, CompiledCoset.of(x)) for x, c in signed_union(components).items())


def meets_count(meets: SignedMeets, d: int) -> int:
    """Signed sum of the torsion counts of compiled meets (d positive)."""
    return sum(coefficient * compiled.count(d) for coefficient, compiled in meets)


def meets_polynomial(meets: SignedMeets) -> dict[int, int]:
    """The count of a union at every sufficiently divisible d, as a polynomial.

    Once d is divisible by every translate order and every Smith pivot, a
    compiled meet has Π s · d^free points, Π s being its number of connected
    components; the result maps each exponent to its nonzero coefficient.
    For unions U ⊆ V, U = V exactly when their polynomials agree: a
    component of V not inside U meets U in lower dimension, so it leaves a
    positive leading term in the difference.
    """
    poly: dict[int, int] = {}
    for coefficient, compiled in meets:
        poly[compiled.free] = poly.get(compiled.free, 0) + \
            coefficient * math.prod(s for s, _ in compiled.torsion)
    return {e: c for e, c in poly.items() if c}


@dataclass(frozen=True)
class CountForm:
    """A rank sum on (R/Z)^N in closed form: h(d) = limit·d^N + Σ c·count(d)
    over the terms, the distinct meets of the level sets above the limit."""

    ambient_dim: int
    limit: int
    terms: SignedMeets

    def count(self, d: int) -> int:
        """h summed over the points of order dividing d (d positive)."""
        return (self.limit * d ** self.ambient_dim if self.limit else 0) + meets_count(self.terms, d)

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
    normalized = [nc for nc in (c.normalize() for c in comps) if nc is not None]
    return meets_count(union_meets(normalized), d)


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
