"""Exact linear algebra for closed cosets of the real torus (R/Z)^N.

A closed coset is carried as a rational congruence system
``{x : A·x ≡ b (mod Z^k)}`` with an integer matrix ``A`` and a rational
vector ``b``.  This representation is closed under intersection (stack the
two systems), which is what makes signed counting over the meets of a
union of cosets mechanical.  Membership, emptiness, dimension and component
structure all reduce to integer normal forms:

* :func:`snf` diagonalizes an integer matrix with unimodular transforms
  (Smith normal form), the kernel used by the torsion-counting layer.
* :func:`normalize_system` (and :meth:`CongruenceCoset.normalize`)
  row-reduces the system to a canonical Hermite form with independent
  rows and decides emptiness exactly.

Everything is exact: arbitrary-precision ``int`` and ``Fraction``
throughout, no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch

IntMatrix = tuple[tuple[int, ...], ...]


def _as_int_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    out = [list(map(int, r)) for r in rows]
    if out:
        width = len(out[0])
        for r in out:
            if len(r) != width:
                raise DimensionMismatch("ragged matrix")
    return out


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def snf(matrix: Iterable[Sequence[int]], width: Optional[int] = None):
    """Smith normal form with transforms: returns (S, U, V) with U·A·V = S.

    S is diagonal with nonnegative entries, each dividing the next; U and V
    are unimodular.  Total on integer matrices; ``width`` is only needed to
    disambiguate the column count of a matrix with zero rows.
    """
    rows = _as_int_rows(matrix)
    k = len(rows)
    if rows:
        n = len(rows[0])
        if width is not None and width != n:
            raise DimensionMismatch("width disagrees with row length")
    elif width is not None:
        n = width
    else:
        raise DimensionMismatch("width required for a matrix with no rows")

    s = [r[:] for r in rows]
    u = _identity(k)
    v = _identity(n)

    def row_sub(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        si, sj = s[i], s[j]
        for c in range(n):
            si[c] -= q * sj[c]
        ui, uj = u[i], u[j]
        for c in range(k):
            ui[c] -= q * uj[c]

    def col_sub(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for r in range(k):
            s[r][i] -= q * s[r][j]
        for r in range(n):
            v[r][i] -= q * v[r][j]

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        for r in range(k):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    limit = min(k, n)
    while t < limit:
        piv = None
        for i in range(t, k):
            for j in range(t, n):
                a = s[i][j]
                if a and (piv is None or abs(a) < abs(s[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, k):
                if s[i][t]:
                    row_sub(i, t, s[i][t] // s[t][t])
                    if s[i][t]:  # remainder beats the pivot; promote it
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if s[t][j]:
                    col_sub(j, t, s[t][j] // s[t][t])
                    if s[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            if all(s[i][t] == 0 for i in range(t + 1, k)):
                break
        # pivot must divide every remaining entry for the divisor chain
        offender = None
        for i in range(t + 1, k):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        if s[t][t] < 0:
            for c in range(n):
                s[t][c] = -s[t][c]
            for c in range(k):
                u[t][c] = -u[t][c]
        t += 1

    freeze = lambda m: tuple(tuple(r) for r in m)
    return freeze(s), freeze(u), freeze(v)


def invariant_factors(matrix: Iterable[Sequence[int]], width: Optional[int] = None) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form, in divisor-chain order."""
    rows = _as_int_rows(matrix)
    if not rows:
        return ()
    s, _, _ = snf(rows, width)
    out = []
    for i in range(min(len(s), len(s[0]) if s else 0)):
        if s[i][i]:
            out.append(s[i][i])
    return tuple(out)


def _to_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact coordinates")
    return Fraction(value)


@dataclass(frozen=True)
class TorusPoint:
    """A rational point of (R/Z)^N, stored by its representative in [0,1)^N.

    ``order`` is the smallest positive integer m with m·x integral, i.e. the
    lcm of the coordinate denominators.
    """

    coords: tuple[Fraction, ...]
    order: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        reduced = tuple(_to_fraction(c) % 1 for c in self.coords)
        object.__setattr__(self, "coords", reduced)
        object.__setattr__(self, "order", math.lcm(*(c.denominator for c in reduced)) if reduced else 1)

    @classmethod
    def of(cls, values: Iterable) -> "TorusPoint":
        return cls(tuple(_to_fraction(v) for v in values))

    @classmethod
    def zero(cls, dim: int) -> "TorusPoint":
        return cls(tuple(Fraction(0) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(tuple(-c for c in self.coords))

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class CongruenceCoset:
    """The closed coset {x in (R/Z)^N : A·x ≡ b (mod Z^k)}.

    The system may be redundant or inconsistent; :meth:`normalize` decides
    which.  An empty row list describes the full torus.
    """

    ambient_dim: int
    rows: IntMatrix
    rhs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(a) for a in r) for r in self.rows)
        rhs = tuple(_to_fraction(b) for b in self.rhs)
        if len(rows) != len(rhs):
            raise DimensionMismatch("right-hand side length differs from the row count")
        for r in rows:
            if len(r) != self.ambient_dim:
                raise DimensionMismatch("row width differs from the ambient dimension")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def full_torus(cls, ambient_dim: int) -> "CongruenceCoset":
        return cls(ambient_dim, (), ())

    @classmethod
    def of(cls, ambient_dim: int, rows: Iterable[Sequence[int]], rhs: Iterable) -> "CongruenceCoset":
        return cls(ambient_dim, tuple(tuple(r) for r in rows), tuple(rhs))

    @classmethod
    def point(cls, p: TorusPoint) -> "CongruenceCoset":
        n = p.dim
        return cls(n, tuple(tuple(_identity(n)[i]) for i in range(n)), tuple(p.coords))

    @classmethod
    def pinned(cls, ambient_dim: int, values: dict[int, Fraction]) -> "CongruenceCoset":
        """Coset fixing the listed coordinates and leaving the rest free."""
        rows = []
        rhs = []
        for idx in sorted(values):
            row = [0] * ambient_dim
            row[idx] = 1
            rows.append(tuple(row))
            rhs.append(_to_fraction(values[idx]))
        return cls(ambient_dim, tuple(rows), tuple(rhs))

    # -- operations --------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def contains(self, x: TorusPoint) -> bool:
        if x.dim != self.ambient_dim:
            raise DimensionMismatch("point and coset live in different tori")
        for row, b in zip(self.rows, self.rhs):
            acc = sum((a * c for a, c in zip(row, x.coords)), Fraction(0)) - b
            if acc.denominator != 1:
                return False
        return True

    def intersect(self, other: "CongruenceCoset") -> "CongruenceCoset":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("cannot intersect cosets of different ambient dimension")
        return CongruenceCoset(self.ambient_dim, self.rows + other.rows, self.rhs + other.rhs)

    def normalize(self) -> Optional["NormalizedCoset"]:
        """Canonical form, or None when the system is inconsistent (empty set)."""
        return normalize_system(self.ambient_dim, self.rows, self.rhs)


def normalize_system(width: int, rows: Sequence[Sequence[int]],
                     rhs: Sequence[Fraction]) -> Optional["NormalizedCoset"]:
    """Canonical form of {x in (R/Z)^width : A·x ≡ b}, or None when it is empty.

    Row-reduces (A | b) by unimodular row operations to a Hermite form
    with positive pivots and the entries above each pivot reduced into
    [0, pivot); zero rows must have integral right-hand sides, which is
    exactly the emptiness test.  The rows must already be integers and the
    right-hand side Fractions, as in a :class:`CongruenceCoset` or a
    :class:`NormalizedCoset`; nothing is coerced, so stacked normalized
    systems (the meets of a union) go straight in.
    """
    n = width
    # integer arithmetic throughout: (A | L·b) with L the common denominator
    order = math.lcm(*(b.denominator for b in rhs))
    work = [list(r) + [b.numerator * (order // b.denominator)] for r, b in zip(rows, rhs)]
    k = len(work)

    def sub(i: int, j: int, q: int) -> None:
        ri, rj = work[i], work[j]
        for c in range(n + 1):
            ri[c] -= q * rj[c]

    rank = 0
    for c in range(n):
        while True:
            piv = None
            for i in range(rank, k):
                a = work[i][c]
                if a and (piv is None or abs(a) < abs(work[piv][c])):
                    piv = i
            if piv is None:
                break
            work[rank], work[piv] = work[piv], work[rank]
            clean = True
            for i in range(rank + 1, k):
                if work[i][c]:
                    sub(i, rank, work[i][c] // work[rank][c])
                    if work[i][c]:
                        clean = False
            if clean:
                break
        if rank < k and work[rank][c]:
            if work[rank][c] < 0:
                work[rank] = [-a for a in work[rank]]
            for i in range(rank):
                q = work[i][c] // work[rank][c]
                if q:
                    sub(i, rank, q)
            rank += 1
    for i in range(rank, k):
        if work[i][n] % order:
            return None
    hrows = tuple(tuple(r[:n]) for r in work[:rank])
    hrhs = tuple(Fraction(r[n] % order, order) for r in work[:rank])
    return NormalizedCoset(ambient_dim=n, rows=hrows, rhs=hrhs)


@dataclass(frozen=True)
class NormalizedCoset:
    """Canonicalized nonempty coset: independent rows in Hermite form.

    The component count is computed on first use.
    """

    ambient_dim: int
    rows: IntMatrix
    rhs: tuple[Fraction, ...]

    @cached_property
    def component_count(self) -> int:
        """Number of connected components of the underlying subgroup {x : A·x ≡ 0}.

        This is the product of the invariant factors of A (those exceeding
        1 contribute).
        """
        return math.prod(invariant_factors(self.rows, self.ambient_dim))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.rank

    @property
    def translate_order(self) -> int:
        """Order of the translate part: the smallest m > 0 with m·b integral.

        A connected coset meets the d-torsion grid exactly when this order
        divides d, so it already determines the counting behaviour.
        """
        return math.lcm(*(b.denominator for b in self.rhs)) if self.rhs else 1

    def __neg__(self) -> "NormalizedCoset":
        """The coset {-x : x in self}: the right-hand side negates, and stays
        canonical once reduced into [0, 1)."""
        return NormalizedCoset(self.ambient_dim, self.rows, tuple(-b % 1 for b in self.rhs))
