"""Exact invariants of the abelian covers X_d and their limits.

The degree-d cover induced by multiplication by d on the Albanese torus
has degree d^(2g), and the rank of a pulled-back sheaf on it decomposes as
the sum of the twisted ranks over all d-torsion points of the dual torus.
Each rank function sums through its count form (:meth:`RankFunction.count_form`),
read by a :class:`~jumploci.counting.CountTable`: the limit contributes
limit·d^(2g), and the signed meets of its strata above the limit contribute
their exact torsion counts, one torsion gate per divisibility class of terms.
This keeps every invariant computable for d with d^(2g) far beyond machine range.

Everything that does not depend on d is kept off the per-cover path.  The
model compiles every number a cover reports once into one count table
(:meth:`VarietyModel.hodge_table`): a column per grid entry, one per Betti
number (the sum of its anti-diagonal's forms) and a last one for d^(2g);
it also keeps the rows' Euler characteristics (:attr:`VarietyModel.chi_p`).
:func:`cover_invariants` cuts one evaluation of it per cover into the grid,
the Betti numbers and deg.  Every invariant is a weighted sum of rank
functions (:func:`summands`), each read off its form's kept one-column table
(:attr:`~jumploci.counting.CountForm.table`), so its limit as value / d^(2g)
is the weighted sum of their limits: proper loci contribute nothing,
full-torus loci their constant rank, and alternating sums give the Euler
characteristics that control the middle degree.  P_m for m >= 2 is
``values[m]`` times one locus (:attr:`VarietyModel.pluri_locus`), which a
cover reads once, and only when asked for such an exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .counting import DEFAULT_COMPONENT_BUDGET
from .counting import union_torsion_count  # noqa: F401  (bench/tests asserts this binding)
from .errors import MissingPluriData, shown_int
from .model import RankFunction, VarietyModel, euler_char
from .torus import _check_d

Selector = tuple  # ("hodge", p, q) | ("betti", k) | ("irregularity",) | ("pluri", m) | ("sheaf", name, i)


@dataclass(frozen=True)
class CoverInvariants:
    """All exact invariants of one cover X_d.  ``pluri`` is a dict, so it is
    left out of the hash; equality still compares it."""

    d: int
    deg: int
    hodge: tuple[tuple[int, ...], ...]
    betti: tuple[int, ...]
    q: int
    chi_p: tuple[int, ...]
    chi_top: int
    pluri: Mapping[int, int] = field(hash=False)


def sheaf_rank_on_cover(rf: RankFunction, d: int,
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """Sum of rf over all d-torsion points, read off its count form's
    one-column table, built on first use and kept (:attr:`CountForm.table`)."""
    return rf.count_form(budget).table.values(d)[0]


def summands(model: VarietyModel, selector: Selector) -> list[tuple[int, RankFunction]]:
    """The (coefficient, rank function) pairs whose weighted sum is the
    selected invariant, on a cover and in the limit.  ``("hodge", p, q)`` is
    h^(p,q)(X_d); ``("betti", k)`` is b_k(X_d), 0 for k outside [0, 2n];
    ``("irregularity",)`` is q(X_d), 0 for a point; ``("sheaf", name, i)`` is
    the i-th rank of a named sheaf; each has coefficient 1.  ``("pluri", m)``
    is P_m(X_d): h^(n,0) for m = 1, else ``values[m]`` times the locus
    (:attr:`VarietyModel.pluri_locus`; limit: :func:`pluri_limit`).  A
    selector that names nothing in the model, or whose index, exponent or
    sheaf name has the wrong type (a bool is no int), raises one ValueError."""
    n = model.n
    kind, *args = tuple(selector) or (None,)
    if kind == "hodge" and len(args) == 2 and all(type(i) is int and 0 <= i <= n for i in args):
        p, q = args
        return [(1, model.hodge[p][q])]
    if kind == "betti" and len(args) == 1 and type(args[0]) is int:
        k = args[0]  # outside [0, 2n] no entry has p + q = k
        return [(1, model.hodge[p][k - p]) for p in range(max(0, k - n), min(k, n) + 1)]
    if kind == "irregularity" and not args:  # a point (n = 0) has no h^(0,1) entry
        return [(1, model.hodge[0][1])] if n else []
    if kind == "pluri" and len(args) == 1 and type(args[0]) is int:
        m = args[0]
        if m < 1:
            raise ValueError("m must be positive")
        return [(1, model.hodge[n][0]) if m == 1 else _pluri_summand(model, m)]
    if kind == "sheaf" and len(args) == 2 and type(args[0]) is str:
        name, i = args
        slot = model.sheaves.get(name, ())
        if type(i) is int and 0 <= i < len(slot):
            return [(1, slot[i])]
    raise ValueError(f"unknown selector {selector!r}")


def _pluri_summand(model: VarietyModel, m: int) -> tuple[int, RankFunction]:
    locus = model.pluri_locus  # a q_base outside [0, g] raises before missing data
    if locus is None or m not in model.pluri.values:
        raise MissingPluriData(f"no plurigenus data for m = {shown_int(m)}")
    return model.pluri.values[m], locus


def value_on_cover(model: VarietyModel, selector: Selector, d: int,
                   *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """The selected invariant of X_d: its :func:`summands`, each read by
    :func:`sheaf_rank_on_cover` unless its coefficient is 0.  d is checked first,
    even with nothing to sum, and the budget caps only the rank functions read."""
    _check_d(d)
    return sum(c * sheaf_rank_on_cover(rf, d, budget=budget) for c, rf in summands(model, selector) if c)


def pluri_limit(model: VarietyModel, m: int) -> Fraction:
    """Limit of P_m(X_d)/deg, exactly: P_m(X) when the Iitaka base keeps
    the whole irregularity (q(X) = q(base)), zero otherwise."""
    return symbolic_limit(model, ("pluri", m))


def pluri_bound_constant(model: VarietyModel, m: int) -> int:
    """Constant M with P_m(X_d)/deg <= M · d^(-2(g - q_base)) for all d."""
    summands(model, ("pluri", m))  # refuses an exponent that is not a positive int
    value, locus = _pluri_summand(model, m)
    return value * (locus.limit + max(1, len(model.pluri.translates)))


def cover_invariants(model: VarietyModel, d: int, pluri_ms: Iterable[int] = (),
                     *, budget: int = DEFAULT_COMPONENT_BUDGET) -> CoverInvariants:
    """Every invariant of X_d read off one evaluation of the model's table,
    cut into the grid, the Betti numbers and deg; q = h^(0,1) and P_1 = h^(n,0)
    from the grid.  Each exponent is checked once, refused as the selector
    ("pluri", m) would be, and the locus is read at most once per cover.
    ``pluri`` is new per call."""
    values = model.hodge_table(budget).values(d)
    grid = model.grid(values)
    n = model.n
    pluri, count = {}, None
    for m in pluri_ms:
        if type(m) is not int or m < 1:
            summands(model, ("pluri", m))  # raises the selector's ValueError
        if m == 1:
            pluri[m] = grid[n][0]
            continue
        c, locus = _pluri_summand(model, m)
        if c and count is None:
            count = sheaf_rank_on_cover(locus, d, budget=budget)
        pluri[m] = c * count if c else 0
    inv = object.__new__(CoverInvariants)  # frozen: fill the fields in one step
    object.__setattr__(inv, "__dict__", {
        "d": d, "deg": values[-1], "hodge": grid, "betti": tuple(values[model.betti_columns]),
        "q": grid[0][1] if n else 0, "chi_p": model.chi_p, "chi_top": model.chi_top, "pluri": pluri})
    return inv


def normalized_sequence(model: VarietyModel, selector: Selector, d_range: Iterable[int],
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> list[Fraction]:
    """value(d) / d^(2g) as exact rationals, in the order of ``d_range``."""
    return [Fraction(value_on_cover(model, selector, d, budget=budget), d ** model.torus_dim) for d in d_range]


def symbolic_limit(model: VarietyModel, selector: Selector) -> Fraction:
    """Limit of the normalized invariant, exactly: the weighted sum of the
    limits of its rank functions.  A proper locus contributes exactly 0,
    since its rank sum is O(d^degree) with degree below 2g.

    At k = n the Betti limit agrees with (-1)^n times the topological Euler
    characteristic whenever the model satisfies weak generic Nakano vanishing.
    """
    return Fraction(sum(c * rf.limit for c, rf in summands(model, selector)))


def chi_multiplicativity_check(model: VarietyModel, d: int,
                               *, budget: int = DEFAULT_COMPONENT_BUDGET) -> bool:
    """Does sum_q (-1)^q h^(p,q)(X_d) equal d^(2g)·chi(Omega^p) for all p?

    True for every model whose ranks come from an actual variety (the Euler
    characteristic is multiplicative along finite étale covers); a failure
    flags an inconsistent grid.
    """
    inv = cover_invariants(model, d, budget=budget)
    rows = list(zip(inv.hodge, inv.chi_p))
    rows += [((sheaf_rank_on_cover(rf, d, budget=budget) for rf in rfs), euler_char(rfs))
             for _, rfs in sorted(model.sheaves.items())]
    return all(sum((-1) ** i * h for i, h in enumerate(values)) == inv.deg * chi for values, chi in rows)
