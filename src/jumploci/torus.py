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
  a basis kept in Hermite form after every row that changes it, so its
  entries stay of polynomial size, and decides emptiness exactly.
  :meth:`CongruenceCoset.normalize` is the full torus meeting the coset's
  rows, once per coset; :meth:`NormalizedCoset.meet` inserts the rows of one
  normalized coset into another's, so a meet costs the rows it adds, not
  the whole stacked system, and is the coset itself when they add none.

A :class:`NormalizedCoset` keeps its translate as integers ``nums`` over
its translate order, so equal cosets compare and hash as tuples of ints.
Every one is complete when it is made: one fill sets its fields, real
dimension, hash and the rows of ``(H | nums)`` by pivot column, which the
next meet inserts into.  A coset the insertion pass makes keeps the rows
its loop built; one built from its fields finds the pivots of its own rows.
Compiling is a property of the coset, and it keeps one compiled datum: on
first use those rows give its divisibility class
(:attr:`NormalizedCoset.divisibility_class`), read off Smith data that are
not kept.  The class depends on the coset alone, not on the Smith
transform, and gives its number of d-torsion points, a closed form in d,
and its component count.  A coset that many counts share computes it once.
Only the rows of H with pivot above 1 enter: a pivot of 1 splits off as
Smith pivot 1.
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
    operations; a remainder is smaller than the pivot, so the next pass
    takes a smaller one.  When row and column t are clear but the pivot
    fails to divide a row of the block, that row is added to row t, so the
    next pass leaves a remainder.  The pivot shrinks at every pass that
    leaves one, so step t ends, with a pivot that divides the block.
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
        for j in range(t + 1, n):  # column operations only the rows from t on
            if st[j]:
                q = st[j] // pivot
                for sr in s[t:]:
                    sr[j] -= q * sr[t]
                left = left or st[j] != 0
        if left:
            continue
        # the pivot must divide every remaining entry for the divisor chain:
        # the first row with an entry it does not divide is added to row t
        for si in s[t + 1:] if abs(pivot) > 1 else ():
            if [a for a in si[t + 1:n] if a % pivot]:
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

    @cached_property
    def _normalized(self) -> Optional["NormalizedCoset"]:
        """The full torus meeting the rows of (A | L·b), L the common
        denominator of b: :func:`_meet_rows` inserts them into the empty basis
        and always takes the canonical form, so a system with no rows gives
        the full torus.  A row that reduces to zero must have an integral
        right-hand side, which is exactly the emptiness test."""
        order = math.lcm(*(b.denominator for b in self.rhs))
        rows = ((*r, b.numerator * (order // b.denominator)) for r, b in zip(self.rows, self.rhs))
        return _meet_rows(self.ambient_dim, {}, rows, order, None)


Row = Sequence[int]  # (a_1, ..., a_N, L·b): one equation over a modulus L


def _meet_rows(width: int, basis: dict[int, Row], rows: Iterable[Row], modulus: int,
               kept: Optional["NormalizedCoset"]) -> Optional["NormalizedCoset"]:
    """Insert rows of ``(A | L·b)`` one at a time into a basis in Hermite form.

    ``basis`` maps each pivot column to its row.  At the leading column of a
    row, a pivot dividing the entry clears it; otherwise Euclid against the
    pivot row leaves their gcd in a new pivot row and carries the remainder
    on.  A column without a pivot row takes the row as its pivot.  After a
    row that changes the basis, one pass in pivot order makes the pivots
    positive and reduces right-hand sides into [0, modulus) and the entries
    above each pivot into [0, pivot): the basis stays the Hermite form of the
    rows so far, of polynomial size (Kannan and Bachem, 1979).  Rows built
    here are fresh lists; shared rows are never changed in place.  Returns
    None when a row reduces to zero with a right-hand side nonzero modulo
    ``modulus`` (no point); ``kept``, the coset whose rows the basis holds,
    when no row changes the basis; and otherwise the coset :func:`_hermite`
    packs, always taken with no ``kept`` coset.
    """
    for row in rows:
        changed = False
        for c in range(width):
            a = row[c]
            if not a:
                continue
            piv = basis.get(c)
            if piv is None:
                basis[c] = row
                changed = True
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
            changed = True
        else:
            if row[width] % modulus:
                return None
        if changed:  # the basis no longer holds the rows of kept
            kept = None
            cols = sorted(basis)
            for i, c in enumerate(cols):
                r = basis[c]
                if r[c] < 0 or not 0 <= r[width] < modulus:
                    r = basis[c] = [-a for a in r] if r[c] < 0 else list(r)
                    r[width] %= modulus
                p = r[c]
                for j in cols[:i]:
                    q = basis[j][c] // p
                    if q:
                        rj = basis[j] = [x - q * y for x, y in zip(basis[j], r)]
                        rj[width] %= modulus
    return _hermite(width, basis, modulus) if kept is None else kept


def _fill(nc: "NormalizedCoset", width: int, rows: IntMatrix, nums: tuple[int, ...],
          basis: dict[int, Row], order: int) -> "NormalizedCoset":
    """Set every attribute of a coset at once: its four fields, the rows of
    (H | nums) by pivot column, its real dimension and its hash."""
    object.__setattr__(nc, "__dict__", {
        "ambient_dim": width, "rows": rows, "nums": nums, "order": order, "dim": width - len(rows),
        "basis": basis, "_hash": hash((width, rows, nums, order))})
    return nc


def _hermite(width: int, basis: dict[int, Row], modulus: int) -> "NormalizedCoset":
    """Pack a basis that :func:`_meet_rows` keeps in Hermite form: the rows of
    (H | nums) by pivot column as tuples, then H and nums over ``modulus``."""
    aug, h_rows, nums = {}, [], []
    for c in sorted(basis):
        r = aug[c] = tuple(basis[c])
        h_rows.append(r[:width])
        nums.append(r[width])
    return _fill(object.__new__(NormalizedCoset), width, tuple(h_rows), tuple(nums), aug, modulus)


def _smith_data(basis: dict[int, Row], width: int) -> tuple[tuple[int, int], ...]:
    """(s, (U·nums)_i mod s) for each Smith pivot s > 1 of the rows of
    (H | nums) by pivot column, H their first ``width`` columns.

    A row with Hermite pivot 1 splits off as a unit Smith pivot.  A single
    other row needs no pass: its only pivot is the gcd of its entries, with
    U = 1.  More run one :func:`snf` pass, the last column carried along.
    """
    rows = [r for c, r in basis.items() if r[c] > 1]
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


@dataclass(frozen=True)
class NormalizedCoset:
    """Canonicalized nonempty coset {x : H·x ≡ nums/order}, H in Hermite form.

    The rows of H are independent; ``order`` is the translate order (the
    smallest m > 0 with m·b integral: a connected coset meets the d-torsion
    grid exactly when it divides d), and every entry of ``nums`` lies in
    [0, order) with gcd(order, *nums) = 1, so equal cosets have equal
    fields.  It is made complete: ``dim``, ``_hash`` (meets are dict keys)
    and ``basis``, the rows of (H | nums) by pivot column, which a meet
    starts from and the Smith pass reads, shared between meets and never
    changed in place.  Its divisibility class is computed on first use, off
    Smith data it does not keep, since only counted cosets need it.
    """

    ambient_dim: int
    rows: IntMatrix
    nums: tuple[int, ...]
    order: int

    def __post_init__(self) -> None:  # built from its fields: find the pivot of each row
        _fill(self, self.ambient_dim, self.rows, self.nums,
              {next(c for c, a in enumerate(r) if a): (*r, m) for r, m in zip(self.rows, self.nums)}, self.order)

    @cached_property
    def component_count(self) -> int:
        """Number of connected components of the underlying subgroup {x : H·x ≡ 0}:
        f·Π s' off the class, which is the product Π s of the Smith pivots of H,
        since f = Π gcd(s, M) and s' = s/gcd(s, M)."""
        _, pivots, factor = self.divisibility_class
        return factor * math.prod(pivots)

    @cached_property
    def divisibility_class(self) -> tuple[int, tuple[int, ...], int]:
        """(M, s', f): M the least d at which the coset has a point, s' the
        Smith pivots s/gcd(s, M) above 1 and f = Π gcd(s, M), none depending
        on U; the count is f·d^dim·:func:`torsion_gate`.  Each pivot asks for
        a least valuation of d/order at each prime, reached by multiplying in
        what it misses: the one read of the translate entries of the Smith
        data, which are computed here and not kept."""
        smith = _smith_data(self.basis, self.ambient_dim)
        m = self.order
        while smith:
            scale = m // self.order
            for s, w in smith:
                g = math.gcd(s, m)
                missing = g // math.gcd(scale * w, g)
                if missing > 1:
                    m *= missing
                    break
            else:
                break
        pivots, factor = [], 1
        for s, _ in smith:
            g = math.gcd(s, m)
            factor *= g
            if s > g:
                pivots.append(s // g)
        return m, tuple(pivots), factor

    @property
    def min_order(self) -> int:
        """Smallest d at which the coset has a point (:attr:`divisibility_class`)."""
        return self.divisibility_class[0]

    @property
    def rhs(self) -> tuple[Fraction, ...]:
        """The translate as Fractions in [0, 1)."""
        return tuple(Fraction(m, self.order) for m in self.nums)

    def __hash__(self) -> int:
        return self._hash

    def meet(self, other: "NormalizedCoset") -> Optional["NormalizedCoset"]:
        """The normalized intersection, or None when it is empty.

        The rows of ``other`` are inserted into the rows of ``self`` over the
        lcm of their orders, rescaled only when the orders differ; when every
        one of them is implied by ``self``, the meet is ``self`` itself.
        """
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("cannot intersect cosets of different ambient dimension")
        if self.order == other.order:
            modulus, basis, rows = self.order, dict(self.basis), other.basis.values()
        else:
            modulus = math.lcm(self.order, other.order)
            s, t = modulus // self.order, modulus // other.order
            basis = {c: (*r[:-1], r[-1] * s) if s > 1 else r for c, r in self.basis.items()}
            rows = [(*r[:-1], r[-1] * t) if t > 1 else r for r in other.basis.values()]
        return _meet_rows(self.ambient_dim, basis, rows, modulus, self)

    def __neg__(self) -> "NormalizedCoset":
        """The coset {-x : x in self}: the translate negates, and stays
        canonical once reduced into [0, order).  A subgroup (order 1) is its
        own negative, and is returned as it is."""
        if self.order == 1:
            return self
        return NormalizedCoset(self.ambient_dim, self.rows,
                               tuple(-m % self.order for m in self.nums), self.order)
