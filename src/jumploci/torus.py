"""Exact linear algebra for closed cosets of the real torus (R/Z)^N.

A closed coset is carried as a rational congruence system
``{x : A·x ≡ b (mod Z^k)}`` with an integer matrix ``A`` and a rational
vector ``b``.  This representation is closed under intersection (stack the
two systems), which is what makes signed counting over the meets of a
union of cosets mechanical.  Membership, emptiness, dimension and component
structure all reduce to integer normal forms:

* :func:`snf` brings the leading columns of an integer matrix to Smith
  normal form by unimodular row and column operations; the columns after
  them only follow the row operations.  Carrying a translate gives ``U·b``
  without building ``U``, and neither transform is stored.
* One Hermite kernel inserts integer rows of ``(A | L·b)``, ``L`` a common
  denominator of ``b``, one at a time into an echelon basis, and reduces
  the entries above each pivot at the end.  :meth:`CongruenceCoset.normalize`
  inserts into the empty basis and decides emptiness exactly, once per
  coset; :meth:`NormalizedCoset.meet` inserts the rows of one normalized
  coset into the rows of another, so a meet costs the rows it adds, not
  the whole stacked system.

A :class:`NormalizedCoset` keeps its translate as integers ``nums`` over
its translate order, so equal cosets compare and hash as tuples of ints.
One made by the Hermite kernel also keeps its hash and the rows of
``(H | nums)`` by pivot column (:attr:`NormalizedCoset.basis`), which the
next meet inserts into.  Compiling is a property of the coset: on first
use, one :func:`snf` pass over those rows gives its Smith data
(:attr:`NormalizedCoset.torsion`), off which its component count and its
number of d-torsion points, a closed form in d, are read.  A coset that
many counts share runs that pass once.
Everything is exact: arbitrary-precision ``int`` and ``Fraction``
throughout, no floating point; membership is decided in integers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch

IntMatrix = tuple[tuple[int, ...], ...]

_INT = {int}


def _as_int_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Fresh lists of the rows: rows of ints are copied, others coerced."""
    out = [list(r) if set(map(type, r)) <= _INT else list(map(int, r)) for r in rows]
    if out:
        width = len(out[0])
        for r in out:
            if len(r) != width:
                raise DimensionMismatch("ragged matrix")
    return out


def _identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def snf(matrix: Iterable[Sequence[int]], width: Optional[int] = None) -> IntMatrix:
    """Smith form of the first ``width`` columns, the others carried along.

    For the rows of M = (A | C), A the first ``width`` columns (all of
    them by default), returns the reduced rows (S | U·C): S = U·A·V is
    diagonal with nonnegative entries, each dividing the next, for
    unimodular U and V, neither of which is built.  C only undergoes the
    row operations, so carrying a translate gives U·b and carrying the
    identity gives U.  ``width`` is required for a matrix with no rows.

    At step t the rows and columns before t are finished (zero off the
    diagonal), so row operations touch only the columns from t on and
    column operations only the rows from t on.
    """
    s = _as_int_rows(matrix)  # a fresh copy, reduced in place
    k = len(s)
    if not s:
        if width is None:
            raise DimensionMismatch("width required for a matrix with no rows")
        return ()
    total = len(s[0])
    n = total if width is None else width
    if not 0 <= n <= total:
        raise DimensionMismatch("width exceeds the row length")
    t = 0
    limit = min(k, n)
    while t < limit:
        # the first entry of least absolute value; nothing beats a unit
        piv = None
        best = 0
        for i in range(t, k):
            si = s[i]
            for j in range(t, n):
                a = si[j]
                if a and (piv is None or abs(a) < best):
                    piv, best = (i, j), abs(a)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        s[t], s[i] = s[i], s[t]
        if j != t:
            for sr in s[t:]:
                sr[t], sr[j] = sr[j], sr[t]
        while True:
            # clear column t by row operations; a remainder beating the
            # pivot is promoted to pivot row and the pass runs again
            dirty = False
            for i in range(t + 1, k):
                si = s[i]
                if si[t]:
                    st = s[t]
                    q = si[t] // st[t]
                    for c in range(t, total):
                        si[c] -= q * st[c]
                    if si[t]:
                        s[t], s[i] = si, st
                        dirty = True
            if dirty:
                continue
            # then row t by column operations, on the rows from t on
            st = s[t]
            for j in range(t + 1, n):
                if st[j]:
                    q = st[j] // st[t]
                    for sr in s[t:]:
                        sr[j] -= q * sr[t]
                    if st[j]:
                        for sr in s[t:]:
                            sr[t], sr[j] = sr[j], sr[t]
                        dirty = True
            if not dirty:  # the row pass left column t clear below the pivot
                break
        # pivot must divide every remaining entry for the divisor chain
        st = s[t]
        pivot = st[t]
        offender = None
        for i in range(t + 1, k) if abs(pivot) > 1 else ():
            si = s[i]
            for j in range(t + 1, n):
                if si[j] % pivot:
                    offender = si
                    break
            if offender is not None:
                break
        if offender is not None:  # add the offending row to the pivot row
            for c in range(t, total):
                st[c] += offender[c]
            continue
        if pivot < 0:
            for c in range(t, total):
                st[c] = -st[c]
        t += 1

    return tuple(map(tuple, s))


def invariant_factors(matrix: Iterable[Sequence[int]], width: Optional[int] = None) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form of the first ``width``
    columns (all of them by default), in divisor-chain order."""
    rows = list(matrix)
    if not rows:
        return ()
    n = len(rows[0]) if width is None else width
    return tuple(r[i] for i, r in enumerate(snf(rows, width)) if i < n and r[i])


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
        return cls(p.dim, tuple(map(tuple, _identity(p.dim))), p.coords)

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
        """Membership in integers: with m the lcm of the point's order and
        the denominators of b, each equation asks A·(m·x) ≡ m·b (mod m)."""
        if x.dim != self.ambient_dim:
            raise DimensionMismatch("point and coset live in different tori")
        m = math.lcm(x.order, *(b.denominator for b in self.rhs))
        if m == 1:  # x and b integral: every equation holds
            return True
        y = [c.numerator * (m // c.denominator) for c in x.coords]
        return all((sum(map(operator.mul, row, y)) - b.numerator * (m // b.denominator)) % m == 0
                   for row, b in zip(self.rows, self.rhs))

    def intersect(self, other: "CongruenceCoset") -> "CongruenceCoset":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("cannot intersect cosets of different ambient dimension")
        return CongruenceCoset(self.ambient_dim, self.rows + other.rows, self.rhs + other.rhs)

    def normalize(self) -> Optional["NormalizedCoset"]:
        """Canonical form, or None when the system is inconsistent (empty set).

        Computed on the first call and kept on the instance, so a coset that
        many rank functions share is normalized once.
        """
        return self._normalized

    @cached_property
    def _normalized(self) -> Optional["NormalizedCoset"]:
        """Inserts the rows of (A | L·b), L the common denominator of b, into
        the empty basis: a Hermite form with positive pivots and the entries
        above each pivot reduced into [0, pivot).  A row that reduces to zero
        must have an integral right-hand side, which is exactly the emptiness
        test."""
        order = math.lcm(*(b.denominator for b in self.rhs))
        basis: dict[int, Row] = {}
        for r, b in zip(self.rows, self.rhs):
            if _insert(basis, (*r, b.numerator * (order // b.denominator)), order) == _EMPTY:
                return None
        return _hermite(self.ambient_dim, basis, order)


Row = Sequence[int]  # (a_1, ..., a_N, L·b): one equation over a modulus L

# outcomes of inserting one row into an echelon basis
_IMPLIED, _ADDED, _EMPTY = 0, 1, 2


def _insert(basis: dict[int, Row], row: Row, modulus: int) -> int:
    """Insert one row of ``(A | L·b)`` into an echelon basis.

    ``basis`` maps each pivot column to its row; rows are never changed in
    place, so a basis may share its rows.  At the leading column of the
    row, a pivot dividing the entry clears it; otherwise Euclid against the
    pivot row leaves their gcd in a new pivot row and carries the remainder
    on.  A column without a pivot row takes the row as its pivot.  Returns
    ``_EMPTY`` when the row reduces to zero with a right-hand side nonzero
    modulo ``modulus`` (the system has no point), ``_IMPLIED`` when it
    reduces to zero leaving the basis as it was, and ``_ADDED`` otherwise.
    """
    n = len(row) - 1
    outcome = _IMPLIED
    for c in range(n):
        a = row[c]
        if not a:
            continue
        piv = basis.get(c)
        if piv is None:
            basis[c] = row
            return _ADDED
        p = piv[c]
        if a % p == 0:
            q = a // p
            row = [x - q * y for x, y in zip(row, piv)]
            continue
        while row[c]:
            q = piv[c] // row[c]
            piv, row = row, [x - q * y for x, y in zip(piv, row)]
        basis[c] = piv
        outcome = _ADDED
    return _EMPTY if row[n] % modulus else outcome


def _hermite(width: int, basis: dict[int, Row], modulus: int) -> "NormalizedCoset":
    """The canonical form of an inserted basis: rows in pivot order, positive
    pivots, entries above each pivot reduced into [0, pivot), and the
    right-hand side over its exact order.  The coset keeps the rows of
    (H | nums) by pivot column as its :attr:`NormalizedCoset.basis`."""
    cols = sorted(basis)
    rows = [basis[c] for c in cols]
    for i, c in enumerate(cols):
        r = rows[i]
        if r[c] < 0:
            r = rows[i] = [-a for a in r]
        p = r[c]
        for j in range(i):
            q = rows[j][c] // p
            if q:
                rows[j] = [a - q * b for a, b in zip(rows[j], r)]
    nums = [r[width] % modulus for r in rows]
    g = math.gcd(modulus, *nums)
    if g > 1:
        modulus //= g
        nums = [m // g for m in nums]
    # a row that came through unchanged is already (H_i | nums_i)
    aug = [r if type(r) is tuple and r[width] == m else (*r[:width], m) for r, m in zip(rows, nums)]
    fields = (width, tuple([r[:width] for r in aug]), tuple(nums), modulus)
    nc = NormalizedCoset(*fields)
    # fill the cached properties with what this pass already has
    vars(nc).update(basis=dict(zip(cols, aug)), _hash=hash(fields))
    return nc


@dataclass(frozen=True)
class NormalizedCoset:
    """Canonicalized nonempty coset {x : H·x ≡ nums/order}, H in Hermite form.

    The rows of H are independent; ``order`` is the translate order (the
    smallest m > 0 with m·b integral: a connected coset meets the d-torsion
    grid exactly when it divides d), and every entry of ``nums`` lies in
    [0, order) with gcd(order, *nums) = 1, so equal cosets have equal
    fields.  The Smith data (:attr:`torsion`) is computed on first use, and
    the component count and the count of d-torsion points are read off it.
    """

    ambient_dim: int
    rows: IntMatrix
    nums: tuple[int, ...]
    order: int

    @cached_property
    def torsion(self) -> tuple[tuple[int, int], ...]:
        """(s, (U·nums)_i mod s) for each Smith pivot s > 1 of H, U·H·V = S.

        One Smith pass over the rows of (H | nums): the last column is U·nums.
        The rows are independent, so every pivot is nonzero; a unit pivot
        asks nothing of d.  Computed once per coset, however many counts
        share it.
        """
        n = self.ambient_dim
        return tuple((r[i], r[n] % r[i]) for i, r in enumerate(snf(self.basis.values(), n))
                     if r[i] > 1)

    @cached_property
    def component_count(self) -> int:
        """Number of connected components of the underlying subgroup {x : H·x ≡ 0}:
        the product of the Smith pivots of H."""
        return math.prod(s for s, _ in self.torsion)

    def count(self, d: int) -> int:
        """Number of points of order dividing d on the coset (d positive).

        A point of order dividing d is y/d, and H·y ≡ d·nums/order (mod d)
        is empty unless ``order`` divides d, and otherwise equivalent to
        S·z ≡ (d/order)·U·nums (mod d).  A diagonal entry s contributes
        gcd(s, d) solutions when that divides its transformed right-hand
        side, and every column without a pivot contributes d.
        """
        if d % self.order:
            return 0
        scale = d // self.order
        total = d ** self.dim
        for s, w in self.torsion:
            g = math.gcd(s, d)
            if scale * w % g:
                return 0
            total *= g
        return total

    @property
    def min_order(self) -> int:
        """Smallest d at which the coset has a point.  Each pivot asks for a
        least valuation of d/order at each prime, so the coset has points
        exactly at the multiples of it, reached by multiplying in what a
        pivot misses."""
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

    @property
    def rhs(self) -> tuple[Fraction, ...]:
        """The translate as Fractions in [0, 1)."""
        return tuple(Fraction(m, self.order) for m in self.nums)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def dim(self) -> int:
        """Real dimension; cached, since every count reads it."""
        return self.ambient_dim - self.rank

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the four fields, computed once: meets are dict keys."""
        return hash((self.ambient_dim, self.rows, self.nums, self.order))

    @cached_property
    def basis(self) -> dict[int, Row]:
        """The rows of (H | nums) by pivot column: the basis a meet starts
        from, and the rows the Smith pass of :attr:`torsion` reads.  A coset
        made by normalizing or meeting gets it from the Hermite pass; one
        built from its fields (a negated coset) builds it from its rows.
        Shared between meets: never change it in place."""
        return {next(c for c, a in enumerate(r) if a): (*r, m) for r, m in zip(self.rows, self.nums)}

    def meet(self, other: "NormalizedCoset") -> Optional["NormalizedCoset"]:
        """The normalized intersection, or None when it is empty.

        The rows of ``other`` are inserted into the rows of ``self`` over the
        lcm of their orders; when every one of them is implied by ``self``,
        the meet is ``self`` itself.
        """
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("cannot intersect cosets of different ambient dimension")
        modulus = math.lcm(self.order, other.order)
        scale = modulus // self.order
        basis = dict(self.basis) if scale == 1 else \
            {c: (*r[:-1], r[-1] * scale) for c, r in self.basis.items()}
        scale = modulus // other.order
        added = False
        for r in other.basis.values():
            outcome = _insert(basis, r if scale == 1 else (*r[:-1], r[-1] * scale), modulus)
            if outcome == _EMPTY:
                return None
            added = added or outcome == _ADDED
        return _hermite(self.ambient_dim, basis, modulus) if added else self

    def __neg__(self) -> "NormalizedCoset":
        """The coset {-x : x in self}: the translate negates, and stays
        canonical once reduced into [0, order)."""
        return NormalizedCoset(self.ambient_dim, self.rows,
                               tuple(-m % self.order for m in self.nums), self.order)
