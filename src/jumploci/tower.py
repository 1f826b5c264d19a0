"""Exact invariants of the abelian covers X_d and their limits.

The degree-d cover induced by multiplication by d on the Albanese torus
has degree d^(2g), and the rank of a pulled-back sheaf on it decomposes as
the sum of the twisted ranks over all d-torsion points of the dual torus.
Summation is organized by level sets: the generic value contributes
d^(2g), and each threshold above it contributes the exact torsion count of
the union of strata reaching that threshold.  This keeps every invariant
computable for d with d^(2g) far beyond machine range.

Limits of the normalized invariants (value / d^(2g)) are read off the
model symbolically: proper loci contribute nothing in the limit, full-torus
loci contribute their constant rank, and alternating sums give the Euler
characteristics that control the middle degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .counting import DEFAULT_COMPONENT_BUDGET, meets_count, union_torsion_count  # noqa: F401  (kept importable from tower)
from .errors import MissingPluriData
from .model import RankFunction, VarietyModel

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
    """All exact invariants of one cover X_d."""

    d: int
    deg: int
    hodge: tuple[tuple[int, ...], ...]
    betti: tuple[int, ...]
    q: int
    chi_p: tuple[int, ...]
    chi_top: int
    pluri: Mapping[int, int]


def sheaf_rank_on_cover(rf: RankFunction, d: int,
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """Sum of rf over all d-torsion points, via level-set counting."""
    if d < 1:
        raise ValueError("d must be positive")
    total = rf.generic_value * d ** rf.ambient_dim if rf.generic_value else 0
    for step, meets in rf.compiled_level_sets(budget):
        total += step * meets_count(meets, d)
    return total


def hodge_numbers_cover(model: VarietyModel, d: int,
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sheaf_rank_on_cover(model.hodge[p][q], d, budget=budget)
              for q in range(model.n + 1))
        for p in range(model.n + 1))


def betti_cover(model: VarietyModel, d: int, k: int,
                *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    return sum(
        sheaf_rank_on_cover(model.hodge[p][k - p], d, budget=budget)
        for p in range(model.n + 1) if 0 <= k - p <= model.n)


def irregularity_cover(model: VarietyModel, d: int,
                       *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """q(X_d): the h^(0,1) rank summed over the d-torsion points."""
    return sheaf_rank_on_cover(model.hodge[0][1], d, budget=budget)


def euler_char(rank_functions: Sequence[RankFunction]) -> int:
    """Alternating sum of the generic ranks over the cohomological degrees.

    Twisting by a topologically trivial line bundle leaves the Euler
    characteristic alone, so the generic values already determine it.
    """
    return sum((-1) ** i * rf.effective_generic_value()
               for i, rf in enumerate(rank_functions))


def chi_of_forms(model: VarietyModel, p: int) -> int:
    return euler_char(model.hodge[p])


def chi_top(model: VarietyModel) -> int:
    """Topological Euler characteristic from the form rows:
    sum over p of (-1)^p chi(Omega^p)."""
    return sum((-1) ** p * chi_of_forms(model, p) for p in range(model.n + 1))


def plurigenera_cover(model: VarietyModel, d: int, m: int,
                      *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """P_m(X_d).  m = 1 is the geometric genus and lives on the (n,0) grid
    entry; higher powers need the pluricanonical datum."""
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return sheaf_rank_on_cover(model.hodge[model.n][0], d, budget=budget)
    if model.pluri is None or m not in model.pluri.values:
        raise MissingPluriData(f"no plurigenus data for m = {m}")
    rf = model.pluri.rank_function(model.torus_dim, m)
    return sheaf_rank_on_cover(rf, d, budget=budget)


def pluri_limit(model: VarietyModel, m: int) -> LimitValue:
    """Limit of P_m(X_d)/deg: P_m(X) when the Iitaka base keeps the whole
    irregularity (q(X) = q(base)), zero otherwise."""
    if m == 1:
        return symbolic_limit(model, ("hodge", model.n, 0))
    if model.pluri is None or m not in model.pluri.values:
        raise MissingPluriData(f"no plurigenus data for m = {m}")
    if model.pluri.q_base == model.g:
        return LimitValue(Fraction(int(model.pluri.values[m])), EXACT_LIMIT)
    return LimitValue(Fraction(0), UPPER_BOUND_ZERO)


def pluri_bound_constant(model: VarietyModel, m: int) -> int:
    """Constant M with P_m(X_d)/deg <= M · d^(-2(g - q_base)) for all d."""
    if model.pluri is None or m not in model.pluri.values:
        raise MissingPluriData(f"no plurigenus data for m = {m}")
    generic = int(model.pluri.generic_values.get(m, 0))
    if generic:
        return generic + len(model.pluri.translates) * int(model.pluri.values[m])
    return max(1, len(model.pluri.translates)) * int(model.pluri.values[m])


def cover_invariants(model: VarietyModel, d: int, pluri_ms: Iterable[int] = (),
                     *, budget: int = DEFAULT_COMPONENT_BUDGET) -> CoverInvariants:
    grid = hodge_numbers_cover(model, d, budget=budget)
    betti = tuple(
        sum(grid[p][k - p] for p in range(model.n + 1) if 0 <= k - p <= model.n)
        for k in range(2 * model.n + 1))
    pluri = {m: plurigenera_cover(model, d, m, budget=budget) for m in pluri_ms}
    return CoverInvariants(
        d=d,
        deg=d ** model.torus_dim,
        hodge=grid,
        betti=betti,
        q=grid[0][1],
        chi_p=tuple(chi_of_forms(model, p) for p in range(model.n + 1)),
        chi_top=chi_top(model),
        pluri=pluri,
    )


def value_on_cover(model: VarietyModel, selector: Selector, d: int,
                   *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    kind = selector[0]
    if kind == "hodge":
        _, p, q = selector
        return sheaf_rank_on_cover(model.hodge[p][q], d, budget=budget)
    if kind == "betti":
        return betti_cover(model, d, selector[1], budget=budget)
    if kind == "irregularity":
        return irregularity_cover(model, d, budget=budget)
    if kind == "pluri":
        return plurigenera_cover(model, d, selector[1], budget=budget)
    if kind == "sheaf":
        _, name, i = selector
        return sheaf_rank_on_cover(model.sheaves[name][i], d, budget=budget)
    raise ValueError(f"unknown selector {selector!r}")


def normalized_sequence(model: VarietyModel, selector: Selector, d_range: Iterable[int],
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> list[Fraction]:
    """value(d) / d^(2g) as exact rationals, in the order of ``d_range``."""
    deg = model.torus_dim
    return [Fraction(value_on_cover(model, selector, d, budget=budget), d ** deg)
            for d in d_range]


def _limit_of_rank(rf: RankFunction) -> LimitValue:
    generic = rf.effective_generic_value()
    if generic:
        return LimitValue(Fraction(generic), EXACT_LIMIT)
    kind = UPPER_BOUND_ZERO if rf.strata else EXACT_LIMIT
    return LimitValue(Fraction(0), kind)


def symbolic_limit(model: VarietyModel, selector: Selector) -> LimitValue:
    """Limit of the normalized invariant, read off the model.

    Normalized ranks converge to the (effective) generic value: strata of
    positive codimension are killed by the d^(2g) normalization.  Betti
    limits are the sums of the per-(p,q) limits; at k = n this agrees with
    (-1)^n times the topological Euler characteristic whenever the model
    satisfies weak generic Nakano vanishing.
    """
    kind = selector[0]
    if kind == "hodge":
        _, p, q = selector
        return _limit_of_rank(model.hodge[p][q])
    if kind == "irregularity":
        return _limit_of_rank(model.hodge[0][1])
    if kind == "sheaf":
        _, name, i = selector
        return _limit_of_rank(model.sheaves[name][i])
    if kind == "betti":
        k = selector[1]
        parts = [_limit_of_rank(model.hodge[p][k - p])
                 for p in range(model.n + 1) if 0 <= k - p <= model.n]
        total = sum((lv.value for lv in parts), Fraction(0))
        if total == 0 and any(lv.kind == UPPER_BOUND_ZERO for lv in parts):
            return LimitValue(Fraction(0), UPPER_BOUND_ZERO)
        return LimitValue(total, EXACT_LIMIT)
    if kind == "pluri":
        return pluri_limit(model, selector[1])
    raise ValueError(f"unknown selector {selector!r}")


def chi_multiplicativity_check(model: VarietyModel, d: int,
                               *, budget: int = DEFAULT_COMPONENT_BUDGET) -> bool:
    """Does sum_q (-1)^q h^(p,q)(X_d) equal d^(2g)·chi(Omega^p) for all p?

    True for every model whose ranks come from an actual variety (the Euler
    characteristic is multiplicative along finite étale covers); a failure
    flags an inconsistent grid.
    """
    deg = d ** model.torus_dim
    grid = hodge_numbers_cover(model, d, budget=budget)
    for p in range(model.n + 1):
        lhs = sum((-1) ** q * grid[p][q] for q in range(model.n + 1))
        if lhs != deg * chi_of_forms(model, p):
            return False
    for _, rfs in sorted(model.sheaves.items()):
        lhs = sum((-1) ** i * sheaf_rank_on_cover(rf, d, budget=budget)
                  for i, rf in enumerate(rfs))
        if lhs != deg * euler_char(rfs):
            return False
    return True
