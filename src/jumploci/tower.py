"""Exact invariants of the abelian covers X_d and their limits.

The degree-d cover induced by multiplication by d on the Albanese torus
has degree d^(2g), and the rank of a pulled-back sheaf on it decomposes as
the sum of the twisted ranks over all d-torsion points of the dual torus.
Each rank function sums through its count form
(:meth:`RankFunction.count_form`): the limit contributes limit·d^(2g), and
the signed meets of its strata above the limit contribute their exact
torsion counts, one divisibility test per class of terms.  This keeps
every invariant computable for d with d^(2g) far beyond machine range.

Everything that does not depend on d is kept off the per-cover path.  The
model compiles every number a cover reports once into one count table
(:meth:`VarietyModel.hodge_table`): a column per grid entry, one per Betti
number (the merged form of its anti-diagonal) and a last one for d^(2g);
it also keeps the rows' Euler characteristics (:attr:`VarietyModel.chi_p`).
Every grid number has one evaluation path: :func:`cover_invariants` cuts
one evaluation per cover into rows by one ``zip`` (:meth:`VarietyModel.grid`),
and :func:`value_on_cover` reads one column of it.  Only P_m for m >= 2 (the
model's :attr:`VarietyModel.plurigenera`) and the sheaf slots, which no table
holds, read their own forms, and a cover asked for no exponent builds no
plurigenus.

Every invariant is a sum of rank functions (:func:`summands`), so its
limit as value / d^(2g) is the sum of their limits: proper loci contribute
nothing, full-torus loci their constant rank, and alternating sums give the
Euler characteristics that control the middle degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .counting import DEFAULT_COMPONENT_BUDGET
from .counting import union_torsion_count  # noqa: F401  (bench/tests asserts this binding)
from .errors import MissingPluriData, shown_int
from .model import RankFunction, VarietyModel, euler_char

EXACT_LIMIT = "exact-limit"
UPPER_BOUND_ZERO = "upper-bound-zero"

Selector = tuple  # ("hodge", p, q) | ("betti", k) | ("irregularity",) | ("pluri", m) | ("sheaf", name, i)


@dataclass(frozen=True)
class LimitValue:
    """A limit of a normalized invariant, with how it was certified.

    ``exact-limit`` values are read off the model (a constant generic rank
    or an Euler characteristic); ``upper-bound-zero`` marks limits equal to
    zero because the relevant locus is proper, so the normalized sequence
    is dominated by a negative power of d.
    """

    value: Fraction
    kind: str


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
    """Sum of rf over all d-torsion points, read off its count form."""
    return rf.count_form(budget).count(d)


def _locate(model: VarietyModel, selector: Selector) -> tuple[list[RankFunction], Optional[int]]:
    """The selected invariant's rank functions and its column in the model's
    table, None when no table holds it: (p,q) is column p(n+1)+q, Betti k
    column (n+1)^2+k, q column 1 and P_1 column n(n+1).  A selector that
    names nothing in the model raises one ValueError that names it."""
    n = model.n
    kind, *args = tuple(selector) or (None,)
    if kind == "hodge" and len(args) == 2 and all(isinstance(i, int) and 0 <= i <= n for i in args):
        p, q = args
        return [model.hodge[p][q]], p * (n + 1) + q
    if kind == "betti" and len(args) == 1 and isinstance(args[0], int):
        k = args[0]  # outside [0, 2n] no entry has p + q = k, and no column holds it
        rfs = [model.hodge[p][k - p] for p in range(max(0, k - n), min(k, n) + 1)]
        return rfs, (n + 1) ** 2 + k if rfs else None
    if kind == "irregularity" and not args:  # a point (n = 0) has no h^(0,1) entry
        return ([model.hodge[0][1]], 1) if n else ([], None)
    if kind == "pluri" and len(args) == 1:
        m = args[0]
        if m < 1:
            raise ValueError("m must be positive")
        if m == 1:  # the geometric genus
            return [model.hodge[n][0]], n * (n + 1)
        if m not in model.plurigenera:
            raise MissingPluriData(f"no plurigenus data for m = {shown_int(m)}")
        return [model.plurigenera[m]], None
    if kind == "sheaf" and len(args) == 2:
        name, i = args
        slot = model.sheaves.get(name, ())
        if isinstance(i, int) and 0 <= i < len(slot):
            return [slot[i]], None
    raise ValueError(f"unknown selector {selector!r}")


def summands(model: VarietyModel, selector: Selector) -> list[RankFunction]:
    """The rank functions whose sum is the selected invariant; its value on
    a cover and its limit are sums over this list.  ``("hodge", p, q)`` is
    h^(p,q)(X_d); ``("betti", k)`` is b_k(X_d), 0 for k outside [0, 2n];
    ``("irregularity",)`` is q(X_d), 0 for a point; ``("sheaf", name, i)`` is
    the i-th rank of a named sheaf; ``("pluri", m)`` is the plurigenus
    P_m(X_d), the geometric genus h^(n,0) for m = 1 (limit: :func:`pluri_limit`)."""
    return _locate(model, selector)[0]


def value_on_cover(model: VarietyModel, selector: Selector, d: int,
                   *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """The selected invariant of X_d.  A grid number is a column of one
    evaluation of the model's table, whose budget covers the whole grid;
    P_m for m >= 2 and the sheaf slots sum their own forms."""
    rfs, column = _locate(model, selector)
    if column is None:
        return sum(sheaf_rank_on_cover(rf, d, budget=budget) for rf in rfs)
    return model.hodge_table(budget).values(d)[column]


def pluri_limit(model: VarietyModel, m: int) -> LimitValue:
    """Limit of P_m(X_d)/deg: P_m(X) when the Iitaka base keeps the whole
    irregularity (q(X) = q(base)), zero otherwise."""
    return symbolic_limit(model, ("pluri", m))


def pluri_bound_constant(model: VarietyModel, m: int) -> int:
    """Constant M with P_m(X_d)/deg <= M · d^(-2(g - q_base)) for all d."""
    if m not in model.plurigenera:
        raise MissingPluriData(f"no plurigenus data for m = {shown_int(m)}")
    return model.plurigenera[m].limit + max(1, len(model.pluri.translates)) * model.pluri.values[m]


def cover_invariants(model: VarietyModel, d: int, pluri_ms: Iterable[int] = (),
                     *, budget: int = DEFAULT_COMPONENT_BUDGET) -> CoverInvariants:
    """Every invariant of X_d read off one evaluation of the model's table:
    the grid from its first (n+1)^2 columns, the Betti numbers from the next
    2n+1, deg from the last, q = h^(0,1) and P_1 = h^(n,0) from the grid;
    only P_m for m >= 2 has forms of its own.  ``pluri`` is a new dict on
    every call, filled only when ``pluri_ms`` names exponents."""
    values = model.hodge_table(budget).values(d)
    grid = model.grid(values)
    n = model.n
    inv = object.__new__(CoverInvariants)  # frozen: fill the fields in one step
    object.__setattr__(inv, "__dict__", {
        "d": d, "deg": values[-1], "hodge": grid, "betti": tuple(values[(n + 1) ** 2:-1]),
        "q": grid[0][1] if n else 0, "chi_p": model.chi_p, "chi_top": model.chi_top,
        "pluri": {m: grid[n][0] if m == 1 else value_on_cover(model, ("pluri", m), d, budget=budget)
                  for m in pluri_ms} if pluri_ms else {}})
    return inv


def normalized_sequence(model: VarietyModel, selector: Selector, d_range: Iterable[int],
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> list[Fraction]:
    """value(d) / d^(2g) as exact rationals, in the order of ``d_range``."""
    deg = model.torus_dim
    return [Fraction(value_on_cover(model, selector, d, budget=budget), d ** deg)
            for d in d_range]


def symbolic_limit(model: VarietyModel, selector: Selector) -> LimitValue:
    """Limit of the normalized invariant: the sum of the limits of its rank
    functions, zero being an upper bound when one of them jumps somewhere.

    At k = n the Betti limit agrees with (-1)^n times the topological Euler
    characteristic whenever the model satisfies weak generic Nakano vanishing.
    """
    rfs = summands(model, selector)
    total = sum(rf.limit for rf in rfs)
    bound = total == 0 and any(rf.strata and not rf.limit for rf in rfs)
    return LimitValue(Fraction(total), UPPER_BOUND_ZERO if bound else EXACT_LIMIT)


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
