"""Exact counting and enumeration of d-torsion points on cosets and unions.

A point x of order dividing d is x = y/d with y in (Z/d)^N, so membership
in {A·x ≡ b} becomes the modular system A·y ≡ d·b (mod d), which is empty
unless d·b is integral.  The count of a modular system is read off the
Smith form of A.  Neither the Smith form nor the transformed translate
depends on d, so the count of a normalized coset is a closed form in d,
read off its Smith data (:attr:`~jumploci.torus.NormalizedCoset.torsion`,
computed once per coset).

Every count is one :class:`CountForm`: a limit times d^N plus a signed sum
over distinct nonempty normalized meets (Möbius inversion over their
intersection poset).  A rank function's form weights the union of each of
its level sets by the step to the next threshold, and a union of cosets is
the form of limit 0 with every value 1.  A union is built one component at
a time: each new component's rows are inserted into the Hermite rows of
every stored meet (:meth:`~jumploci.torus.NormalizedCoset.meet`), and meets
are keyed by their integer Hermite form, hashed once.  Each meet hands its
rows of (H | L·b) on to the next meet and to its Smith pass.  Empty meets
are never extended, so the work is bounded by the distinct nonempty meets
rather than by the 2^r subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .errors import CapExceeded, ComponentBudgetExceeded, DimensionMismatch
from .torus import CongruenceCoset, NormalizedCoset, TorusPoint
from .torus import snf  # noqa: F401  (bench/tests asserts this binding)

DEFAULT_COMPONENT_BUDGET = 12
DEFAULT_ENUM_CAP = 10_000_000


@dataclass(frozen=True)
class TorsionCount:
    """Exact count of the d-torsion points lying on one coset."""

    d: int
    value: int


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
    normalized coset (:meth:`NormalizedCoset.count`).  For a nonempty
    connected coset the result is d^dim when the translate order divides d
    and 0 otherwise.
    """
    if d < 1:
        raise ValueError("d must be positive")
    nc = coset.normalize()
    return TorsionCount(d, nc.count(d) if nc is not None else 0)


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
    terms: tuple[tuple[int, NormalizedCoset], ...]

    @classmethod
    def of(cls, ambient_dim: int, limit: int,
           strata: Sequence[tuple[NormalizedCoset, int]]) -> "CountForm":
        """The form of h = max(limit, values of the strata containing the point).

        With thresholds t above the limit in increasing order,
        h = limit + Σ_t (t − t_prev)·1_{h ≥ t}, and each level set
        {h ≥ t} is the union of the strata reaching t (:func:`_signed_union`).
        Terms are merged by Hermite form.  A union of cosets is the form of
        limit 0 with every value 1.  Callers run :func:`check_union` first.
        """
        terms: dict[NormalizedCoset, int] = {}
        prev = limit
        for t in sorted({value for _, value in strata if value > limit}):
            for x, c in _signed_union([nc for nc, value in strata if value >= t]).items():
                terms[x] = terms.get(x, 0) + (t - prev) * c
            prev = t
        return cls(ambient_dim, limit, tuple((c, x) for x, c in terms.items() if c))

    def count(self, d: int) -> int:
        """h summed over the points of order dividing d (d positive)."""
        return (self.limit * d ** self.ambient_dim if self.limit else 0) + \
            sum(c * nc.count(d) for c, nc in self.terms)

    @property
    def polynomial(self) -> dict[int, int]:
        """The count at every sufficiently divisible d, as a polynomial.

        Once d is divisible by every translate order and every Smith pivot, a
        meet has component_count·d^dim points; the result maps each exponent
        to its nonzero coefficient.  For unions U ⊆ V, U = V exactly when their polynomials
        agree: a component of V not inside U meets U in lower dimension, so it
        leaves a positive leading term in the difference.
        """
        poly = {self.ambient_dim: self.limit}
        for c, nc in self.terms:
            poly[nc.dim] = poly.get(nc.dim, 0) + c * nc.component_count
        return {e: c for e, c in poly.items() if c}

    @property
    def top_exponent(self) -> int:
        """Largest exponent of d in the terms, -1 when there are none.  No
        level set's leading coefficient cancels, so this is the largest real
        dimension of a stratum above the limit."""
        return max((nc.dim for _, nc in self.terms), default=-1)

    @property
    def degree(self) -> int:
        """Largest exponent of d: N when the limit is positive."""
        return self.ambient_dim if self.limit > 0 else self.top_exponent

    @property
    def witness_order(self) -> Optional[int]:
        """Smallest d at which a term of the top exponent has a point; that
        term, inside the locus, has d^top such points at each multiple of d."""
        return min((nc.min_order for _, nc in self.terms if nc.dim == self.top_exponent),
                   default=None)


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
