"""Exact linear algebra for closed cosets of the real torus (R/Z)^N.

A closed coset is carried as a rational congruence system
``{x : A·x ≡ b (mod Z^k)}`` with an integer matrix ``A`` and a rational
vector ``b``.  This representation is closed under intersection (stack the
two systems), which is what makes signed counting over the meets of a
union of cosets mechanical.  Membership, emptiness, dimension and component
structure all reduce to integer normal forms:

* :func:`snf` brings the leading columns of an integer matrix to Smith
  normal form by unimodular row and column operations, each pass taking
  the least entry of the block as its pivot; the columns after them only
  follow the row operations.  Carrying a translate gives ``U·b``
  without building ``U``, and neither transform is stored.
* One insertion pass meets a coset with integer rows of ``(A | L·b)``,
  ``L`` a common denominator of ``b``: it inserts them one at a time into
  a basis kept in Hermite form after every row that changes it, reduced
  again from the first pivot column that row changed, so its entries stay
  of polynomial size, and decides emptiness exactly.
  :meth:`CongruenceCoset.normalize` is the full torus meeting the coset's
  rows, once per coset; :meth:`NormalizedCoset.meet` inserts the rows of one
  normalized coset into another's, so a meet costs the rows it adds, not
  the whole stacked system, and is the coset itself when they add none.

A :class:`NormalizedCoset` holds the rows of ``(H | nums)`` once, by pivot
column, ``nums`` its translate as integers over its translate order, so
equal cosets compare and hash as tuples of ints.  A meet inserts into a
copy of them, and only the rows it changes become new tuples.  On first
use those rows give its one compiled datum, its divisibility class
(:attr:`NormalizedCoset.divisibility_class`), read off Smith data that are
not kept.  The class depends on the coset alone, not on the Smith
transform, and gives its number of d-torsion points, a closed form in d,
and its component count.  A coset that many counts share computes it once.
Only the rows of H with pivot above 1 enter: a pivot of 1 splits off as
Smith pivot 1, and so does a row with an entry of ±1, before any pass.
Everything is exact: arbitrary-precision ``int`` and ``Fraction``
throughout, no floating point; membership is decided in integers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch

IntMatrix = tuple[tuple[int, ...], ...]

_INT = {int}


def _as_int_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Fresh lists of the rows: rows of ints are copied, others pass :func:`_to_int`."""
    out = [list(r) if set(map(type, r)) <= _INT else list(map(_to_int, r)) for r in rows]
    if out:
        width = len(out[0])
        for r in out:
            if len(r) != width:
                raise DimensionMismatch("ragged matrix")
    return out


def snf(matrix: Iterable[Sequence[int]], width: Optional[int] = None) -> IntMatrix:
    """Smith form of the first ``width`` columns, the others carried along.

    For the rows of M = (A | C), A the first ``width`` columns (all of
    them by default), returns the reduced rows (S | U·C): S = U·A·V is
    diagonal with nonnegative entries, each dividing the next, for
    unimodular U and V, neither of which is built.  C only undergoes the
    row operations, so carrying a translate gives U·b and carrying the
    identity gives U.  ``width`` is required for a matrix with no rows.
    A carried column is never reduced: on raw dense rows its entries grow
    to hundreds of thousands of bits, so the engine passes only Hermite rows.

    At step t the rows and columns before t are finished.  Each pass moves
    the least entry of the block to (t, t), the pivot in place winning a
    tie, then clears column t by row operations and row t by column
    operations, which touch only the rows with an entry in column t; a
    remainder is smaller than the pivot, so the next pass takes a smaller
    one.  When row and column t are clear but the pivot fails to divide a
    row of the block, the first such row, found at its first entry the
    pivot does not divide, is added to row t, so the next pass leaves a
    remainder.  The pivot shrinks at every pass that leaves one, so step t
    ends, with a pivot that divides the block.
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
        # the first entry of least absolute value, so the pivot in place wins
        # a tie; nothing beats a unit
        best = 0
        for i in range(t, k):
            si = s[i]
            for j in range(t, n):
                a = si[j]
                if a and (not best or abs(a) < best):
                    pi, pj, best = i, j, abs(a)
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        s[t], s[pi] = s[pi], s[t]
        if pj != t:
            for sr in s[t:]:
                sr[t], sr[pj] = sr[pj], sr[t]
        st, pivot = s[t], s[t][t]
        left = False  # a remainder, smaller than the pivot, is left for the next pass
        for si in s[t + 1:]:  # row operations touch only the columns from t on
            if si[t]:
                q = si[t] // pivot
                for c in range(t, total):
                    si[c] -= q * st[c]
                left = left or si[t] != 0
        # column operations touch only the rows with an entry in column t
        rows_t = [sr for sr in s[t:] if sr[t]] if left else (st,)
        for j in range(t + 1, n):
            if st[j]:
                q = st[j] // pivot
                for sr in rows_t:
                    sr[j] -= q * sr[t]
                left = left or st[j] != 0
        if left:
            continue
        # the pivot must divide every remaining entry for the divisor chain:
        # the first row with an entry it does not divide is added to row t
        for si in s[t + 1:] if abs(pivot) > 1 else ():
            for a in si[t + 1:n]:
                if a % pivot:
                    break
            else:
                continue
            s[t] = [a + b for a, b in zip(st, si)]
            break
        else:  # the pivot divides the block: step t is done
            if pivot < 0:
                s[t] = [-a for a in st]
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
    """The value as a Fraction; a Fraction is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact coordinates")
    return Fraction(value)


def _to_int(value) -> int:
    """The value as an int, the engine's one integer rule: a float is refused,
    and so is any value whose int differs from it, as Fraction(5, 2) or "3",
    or that has no int, as Decimal("Infinity") or Decimal("NaN")."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact coefficients")
    if not isinstance(value, str):
        try:
            as_int = int(value)
        except (OverflowError, ValueError):  # a non-finite Decimal
            pass
        else:
            if as_int == value:
                return as_int
    raise TypeError(f"a {type(value).__name__} that is not an integer is not allowed in exact coefficients")


def _check_d(d) -> None:
    """Refuse a cover index that is not a positive int; a bool is not one."""
    if type(d) is not int:
        raise TypeError(f"d must be an int, not {type(d).__name__}")
    if d < 1:
        raise ValueError("d must be positive")


_ZERO = Fraction(0)


class _computed_once:
    """functools.cached_property without the lock Python 3.11 takes on each
    first read, which a count pass makes once per fresh term."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class TorusPoint:
    """A rational point of (R/Z)^N, stored by its representative in [0,1)^N.

    ``order`` is the smallest positive integer m with m·x integral, i.e. the
    lcm of the coordinate denominators.
    """

    coords: tuple[Fraction, ...]
    order: int = field(init=False, compare=False, repr=False)
    dim: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        reduced = tuple(_to_fraction(c) % 1 for c in self.coords)
        object.__setattr__(self, "coords", reduced)
        object.__setattr__(self, "order", math.lcm(*(c.denominator for c in reduced)) if reduced else 1)
        object.__setattr__(self, "dim", len(reduced))

    @classmethod
    def of(cls, values: Iterable) -> "TorusPoint":
        return cls(tuple(_to_fraction(v) for v in values))

    @classmethod
    def zero(cls, dim: int) -> "TorusPoint":
        """The origin, built as it is: its coordinates are already reduced."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", (_ZERO,) * dim)
        object.__setattr__(point, "order", 1)
        object.__setattr__(point, "dim", dim)
        return point

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(tuple(-c for c in self.coords))


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
        if type(self.ambient_dim) is not int:
            object.__setattr__(self, "ambient_dim", _to_int(self.ambient_dim))
        # a row of ints is kept as it is, as in _as_int_rows
        rows = tuple(tuple(r) if set(map(type, r)) <= _INT else tuple(map(_to_int, r))
                     for r in self.rows)
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
        return cls(p.dim, tuple((0,) * i + (1,) + (0,) * (p.dim - i - 1) for i in range(p.dim)), p.coords)

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

    @_computed_once
    def _normalized(self) -> Optional["NormalizedCoset"]:
        """The full torus meeting the rows of (A | L·b), L the common
        denominator of b: :func:`_meet_rows` inserts them into the empty basis
        and always takes the canonical form, so a system with no rows gives
        the full torus.  A row that reduces to zero must have an integral
        right-hand side, which is exactly the emptiness test."""
        order = math.lcm(*(b.denominator for b in self.rhs))
        rows = ((*r, b.numerator * (order // b.denominator)) for r, b in zip(self.rows, self.rhs))
        return _meet_rows(self.ambient_dim, [None] * self.ambient_dim, rows, order, None)


Row = Sequence[int]  # (a_1, ..., a_N, L·b): one equation over a modulus L


def _meet_rows(width: int, basis: list[Optional[Row]], rows: Iterable[Optional[Row]], modulus: int,
               kept: Optional["NormalizedCoset"]) -> Optional["NormalizedCoset"]:
    """Insert rows of ``(A | L·b)`` one at a time into a basis in Hermite form.

    ``basis`` holds each column's pivot row or None; a None row is skipped.
    At the leading column of a row, a pivot dividing the entry clears it;
    otherwise Euclid against the pivot row leaves their gcd in a new pivot
    row and carries the remainder on.  A column without a pivot row takes
    the row as its pivot.  After a row that changes the basis, one pass from
    the first pivot column it changed makes the pivots positive and reduces
    right-hand sides into [0, modulus) and the entries above each pivot into
    [0, pivot): the pivot rows left of that column are unchanged and already
    reduced, and the basis stays the Hermite form of the rows so far, of
    polynomial size (Kannan and Bachem, 1979).  Only rows built here, fresh
    lists, are changed in place; shared rows are tuples.
    Returns None when a row reduces to zero with a right-hand side nonzero
    modulo ``modulus`` (no point); ``kept``, the coset whose rows the basis
    holds, when no row changes the basis; and otherwise the coset
    :func:`_hermite` packs, always taken with no ``kept`` coset.
    """
    for row in rows:
        if row is None:
            continue
        first = None  # the first pivot column the row changes
        for c in range(width):
            a = row[c]
            if not a:
                continue
            piv = basis[c]
            if piv is None:
                basis[c] = row
                first = c if first is None else first
                break
            p = piv[c]
            if a % p == 0:
                q = a // p
                row = [x - q * y for x, y in zip(row, piv)]
                continue
            while row[c]:
                q = piv[c] // row[c]
                piv, row = row, [x - q * y for x, y in zip(piv, row)]
            basis[c] = piv
            first = c if first is None else first
        else:
            if row[width] % modulus:
                return None
        if first is not None:  # the basis no longer holds the rows of kept
            kept = None
            # the pivot rows left of the first change are unchanged and reduced
            above = [j for j in range(first) if basis[j] is not None]
            for c in range(first, width):
                r = basis[c]
                if r is None:
                    continue
                if r[c] < 0 or not 0 <= r[width] < modulus:
                    r = basis[c] = [-a for a in r] if r[c] < 0 else list(r)
                    r[width] %= modulus
                p = r[c]
                for j in above:
                    if q := basis[j][c] // p:
                        rj = basis[j] = [x - q * y for x, y in zip(basis[j], r)]
                        rj[width] %= modulus
                above.append(c)
    return _hermite(width, basis, modulus) if kept is None else kept


def _hermite(width: int, basis: list[Optional[Row]], modulus: int,
             nc: Optional["NormalizedCoset"] = None) -> "NormalizedCoset":
    """Pack the rows of (H | nums) by pivot column over ``modulus``, changed
    ones as new tuples, into ``nc``, a new coset by default, with its real dimension and hash."""
    if nc is None:
        nc = object.__new__(NormalizedCoset)
    by_pivot = tuple([tuple(r) if type(r) is list else r for r in basis])
    object.__setattr__(nc, "__dict__", {
        "ambient_dim": width, "by_pivot": by_pivot, "order": modulus,
        "dim": by_pivot.count(None), "_hash": hash((by_pivot, modulus))})
    return nc


def _smith_data(by_pivot: Sequence[Optional[Row]], width: int) -> tuple[tuple[int, int], ...]:
    """(s, (U·nums)_i mod s) for each Smith pivot s > 1 of the rows of
    (H | nums) by pivot column, H their first ``width`` columns.

    A row with Hermite pivot 1 splits off as a unit Smith pivot, and so
    does any other row u with an entry of ±1, at column j: row operations
    clear column j from the other rows, carrying their translates, and
    column operations then clear the rest of u without touching them.  A
    single row left needs no pass: its only pivot is the gcd of its entries,
    with U = 1.  More run one :func:`snf` pass, the last column carried
    along.
    """
    rows = [r for c, r in enumerate(by_pivot) if r is not None and r[c] > 1]
    while len(rows) > 1:
        # `in` finds 1 or -1 fast, perhaps only as a translate; columns decide
        units = [(u, j) for u in rows if 1 in u or -1 in u for j in range(width) if u[j] in (1, -1)]
        if not units:
            break
        u, j = units[0]
        e = u[j]
        rows = [r if not r[j] else [a - r[j] * e * b for a, b in zip(r, u)] for r in rows if r is not u]
    if not rows:
        return ()
    if len(rows) == 1:
        row = rows[0]
        g = math.gcd(*row[:width])
        return ((g, row[width] % g),) if g > 1 else ()
    return tuple((r[i], r[width] % r[i]) for i, r in enumerate(snf(rows, width)) if r[i] > 1)


def torsion_gate(min_order: int, pivots: tuple[int, ...], d: int) -> int:
    """[M | d]·Π gcd(s', d/M), the count of d-torsion points on a coset of
    divisibility class (M, s', f) over f·d^dim (d positive).

    A point of order dividing d is y/d, and H·y ≡ d·nums/order (mod d) is
    empty unless ``order`` divides d, and otherwise is S·z ≡ (d/order)·U·nums
    (mod d): a diagonal entry s gives gcd(s, d) solutions when that divides
    its right-hand side, a free column d.  The tests hold together exactly
    when M | d, and then gcd(s, d) = gcd(s, M)·gcd(s', d/M).
    """
    if d % min_order:
        return 0
    return math.prod([math.gcd(s, d // min_order) for s in pivots])


class NormalizedCoset:
    """Canonicalized nonempty coset {x : H·x ≡ nums/order}, H in Hermite form.

    The rows of H are independent; ``order`` is the translate order (the
    smallest m > 0 with m·b integral: a connected coset meets the d-torsion
    grid exactly when it divides d), and every entry of ``nums`` lies in
    [0, order) with gcd(order, *nums) = 1, so equal cosets have equal
    fields.  ``by_pivot`` holds the rows of (H | nums) once, by pivot
    column (None at a free column); meets copy them and the Smith pass
    reads them, and ``rows`` and ``nums`` are read off them on first use.
    It is immutable, with ``dim`` and the hash (meets are dict keys) set
    when made; its divisibility class is computed on first use, off Smith
    data it does not keep, since only counted cosets need it.
    """

    def __init__(self, ambient_dim: int, rows: IntMatrix, nums: tuple[int, ...], order: int) -> None:
        by_pivot = [None] * ambient_dim  # each row at the column of its pivot
        for r, m in zip(rows, nums):
            by_pivot[next(c for c, a in enumerate(r) if a)] = (*r, m)
        _hermite(ambient_dim, by_pivot, order, self)

    def __setattr__(self, name, *_):
        raise AttributeError(f"NormalizedCoset is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    @_computed_once
    def rows(self) -> IntMatrix:  # the rows of H, in pivot order
        return tuple(r[:-1] for r in self.by_pivot if r is not None)

    @_computed_once
    def nums(self) -> tuple[int, ...]:  # the translate over order, one entry per row of H
        return tuple(r[-1] for r in self.by_pivot if r is not None)

    @_computed_once
    def component_count(self) -> int:
        """Number of connected components of the underlying subgroup {x : H·x ≡ 0}:
        f·Π s' off the class, which is the product Π s of the Smith pivots of H,
        since f = Π gcd(s, M) and s' = s/gcd(s, M)."""
        _, pivots, factor = self.divisibility_class
        return factor * math.prod(pivots)

    @_computed_once
    def divisibility_class(self) -> tuple[int, tuple[int, ...], int]:
        """(M, s', f): M the least d at which the coset has a point, s' the
        Smith pivots s/gcd(s, M) above 1 and f = Π gcd(s, M), none depending
        on U; the count is f·d^dim·:func:`torsion_gate`.  Each pivot asks for
        a least valuation of d/order at each prime, reached by multiplying in
        what it misses: the one read of the translate entries of the Smith
        data, which are computed here and not kept."""
        smith = _smith_data(self.by_pivot, self.ambient_dim)
        m = order = self.order
        while True:  # until no pivot misses a prime power of m
            scale = m // order
            pivots, factor = [], 1
            for s, w in smith:
                g = math.gcd(s, m)
                missing = g // math.gcd(scale * w, g)
                if missing > 1:
                    m *= missing
                    break
                factor *= g
                if s > g:
                    pivots.append(s // g)
            else:
                return m, tuple(pivots), factor

    @property
    def min_order(self) -> int:
        """Smallest d at which the coset has a point (:attr:`divisibility_class`)."""
        return self.divisibility_class[0]

    @property
    def rhs(self) -> tuple[Fraction, ...]:
        """The translate as Fractions in [0, 1)."""
        return tuple(Fraction(m, self.order) for m in self.nums)

    def __eq__(self, other) -> bool:
        if type(other) is not NormalizedCoset:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.by_pivot == other.by_pivot
                                 and self.order == other.order)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NormalizedCoset({self.ambient_dim!r}, {self.rows!r}, {self.nums!r}, {self.order!r})"

    def meet(self, other: "NormalizedCoset") -> Optional["NormalizedCoset"]:
        """The normalized intersection, or None when it is empty.

        The rows of ``other`` are inserted into a copy of those of ``self``
        over the lcm of their orders, rescaled only when the orders differ;
        when ``self`` implies every one of them, the meet is ``self`` itself.
        """
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("cannot intersect cosets of different ambient dimension")
        if self.order == other.order:
            return _meet_rows(self.ambient_dim, list(self.by_pivot), other.by_pivot, self.order, self)
        modulus = math.lcm(self.order, other.order)
        s, t = modulus // self.order, modulus // other.order
        # only nonzero translates rescale, and a coset of order 1 has none
        basis = ([r if r is None or not r[-1] else (*r[:-1], r[-1] * s) for r in self.by_pivot]
                 if s > 1 and self.order > 1 else list(self.by_pivot))
        rows = ([r if r is None or not r[-1] else (*r[:-1], r[-1] * t) for r in other.by_pivot]
                if t > 1 and other.order > 1 else other.by_pivot)
        return _meet_rows(self.ambient_dim, basis, rows, modulus, self)

    def __neg__(self) -> "NormalizedCoset":
        """The coset {-x : x in self}: the translate negates, and stays
        canonical once reduced into [0, order).  A subgroup (order 1) is its
        own negative, and is returned as it is."""
        if self.order == 1:
            return self
        return NormalizedCoset(self.ambient_dim, self.rows,
                               tuple(-m % self.order for m in self.nums), self.order)
