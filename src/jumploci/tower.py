"""Exact invariants of the abelian covers X_d and their limits.

The degree-d cover induced by multiplication by d on the Albanese torus
has degree d^(2g), and the rank of a pulled-back sheaf on it decomposes as
the sum of the twisted ranks over all d-torsion points of the dual torus.
Each rank function sums through its count form
(:meth:`RankFunction.count_form`): the limit contributes limit·d^(2g), and
the signed meets of its level sets above the limit contribute
their exact torsion counts.  This keeps every invariant computable for d
with d^(2g) far beyond machine range.

Every invariant is a sum of rank functions (:func:`summands`), so its
limit as value / d^(2g) is the sum of their limits: proper loci contribute
nothing, full-torus loci their constant rank, and alternating sums give the
Euler characteristics that control the middle degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .counting import DEFAULT_COMPONENT_BUDGET
from .counting import union_torsion_count  # noqa: F401  (bench/tests asserts this binding)
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
    """Sum of rf over all d-torsion points, read off its count form."""
    if d < 1:
        raise ValueError("d must be positive")
    return rf.count_form(budget).count(d)


def hodge_numbers_cover(model: VarietyModel, d: int,
                        *, budget: int = DEFAULT_COMPONENT_BUDGET) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sheaf_rank_on_cover(model.hodge[p][q], d, budget=budget)
              for q in range(model.n + 1))
        for p in range(model.n + 1))


def summands(model: VarietyModel, selector: Selector) -> list[RankFunction]:
    """The rank functions whose sum is the selected invariant; its value on
    a cover and its limit are sums over this list."""
    kind = selector[0]
    if kind == "hodge":
        _, p, q = selector
        return [model.hodge[p][q]]
    if kind == "betti":
        k = selector[1]
        return [model.hodge[p][k - p] for p in range(model.n + 1) if 0 <= k - p <= model.n]
    if kind == "irregularity":
        return [model.hodge[0][1]]
    if kind == "sheaf":
        _, name, i = selector
        return [model.sheaves[name][i]]
    if kind == "pluri":
        m = selector[1]
        if m < 1:
            raise ValueError("m must be positive")
        if m == 1:  # the geometric genus
            return [model.hodge[model.n][0]]
        if model.pluri is None or m not in model.pluri.values:
            raise MissingPluriData(f"no plurigenus data for m = {m}")
        return [model.pluri.rank_function(model.torus_dim, m)]
    raise ValueError(f"unknown selector {selector!r}")


def value_on_cover(model: VarietyModel, selector: Selector, d: int,
                   *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    return sum(sheaf_rank_on_cover(rf, d, budget=budget) for rf in summands(model, selector))


def betti_cover(model: VarietyModel, d: int, k: int,
                *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    return value_on_cover(model, ("betti", k), d, budget=budget)


def irregularity_cover(model: VarietyModel, d: int,
                       *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """q(X_d): the h^(0,1) rank summed over the d-torsion points."""
    return value_on_cover(model, ("irregularity",), d, budget=budget)


def plurigenera_cover(model: VarietyModel, d: int, m: int,
                      *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """P_m(X_d)."""
    return value_on_cover(model, ("pluri", m), d, budget=budget)


def euler_char(rank_functions: Sequence[RankFunction]) -> int:
    """Alternating sum of the limits over the cohomological degrees.

    Twisting by a topologically trivial line bundle leaves the Euler
    characteristic alone, so the generic ranks already determine it.
    """
    return sum((-1) ** i * rf.limit for i, rf in enumerate(rank_functions))


def chi_of_forms(model: VarietyModel, p: int) -> int:
    return euler_char(model.hodge[p])


def chi_top(model: VarietyModel) -> int:
    """Topological Euler characteristic from the form rows:
    sum over p of (-1)^p chi(Omega^p)."""
    return sum((-1) ** p * chi_of_forms(model, p) for p in range(model.n + 1))


def pluri_limit(model: VarietyModel, m: int) -> LimitValue:
    """Limit of P_m(X_d)/deg: P_m(X) when the Iitaka base keeps the whole
    irregularity (q(X) = q(base)), zero otherwise."""
    return symbolic_limit(model, ("pluri", m))


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
    rows = list(model.hodge) + [rfs for _, rfs in sorted(model.sheaves.items())]
    return all(sum((-1) ** i * sheaf_rank_on_cover(rf, d, budget=budget) for i, rf in enumerate(rfs))
               == d ** model.torus_dim * euler_char(rfs) for rfs in rows)
