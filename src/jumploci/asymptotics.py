"""Decay bounds, divergence classification, and L² limits.

The decay theorem says the normalized (p,q)-rank is O(d^(-e)) with
e = 2(|n-p-q| - N) when the defect of semismallness is at most N.  The
engine checks this two ways: numerically (the exact rational sequence
B_d = normalized·d^e over a finite range) and analytically (the leading
term of the count form, of degree v, has d^v points at the multiples of the
smallest d where it has a point, so v > 2g - e forces unboundedness no
matter how a finite range looks).  A finite-range pass never overrides an
analytic failure.  That smallest d, not a stratum's translate order, is
also the divergence witness order of q(X_d).

L² Betti numbers of the infinite Albanese cover are limits of normalized
Betti numbers along the factorial subtower; since the limits of the full
sequence exist, they are computed symbolically rather than by building
covers of factorial degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .counting import DEFAULT_COMPONENT_BUDGET
from .model import VarietyModel, satisfies_weak_generic_nakano
from .torus import TorusPoint
from .tower import betti_cover, chi_of_forms, normalized_sequence, symbolic_limit


@dataclass(frozen=True)
class BoundFit:
    """Result of fitting B with normalized rank <= B · d^(-exponent)."""

    p: int
    q: int
    defect_bound: int
    exponent: int
    fitted_b: Fraction
    passes: bool
    violating_dim: Optional[int] = None  # real dimension witnessing unboundedness


@dataclass(frozen=True)
class DivergenceReport:
    """Whether the cover irregularities q(X_d) stay bounded."""

    divergent: bool
    max_stratum_dim: int          # real dimension, 0 when bounded
    # the smallest d where a top-dimensional term of h^(0,1) has a point;
    # q(X_d) >= q(X) + d^dim - 1 at all its multiples
    witness_order: Optional[int]
    base_irregularity: int


@dataclass(frozen=True)
class L2Report:
    betti: tuple[Fraction, ...]
    hodge: tuple[tuple[Fraction, ...], ...]
    nonvanishing: frozenset[int]
    weak_gnv: bool  # when False the closed form is not certified


def fit_bound(model: VarietyModel, p: int, q: int, defect_bound: int, d_max: int,
              *, budget: int = DEFAULT_COMPONENT_BUDGET) -> BoundFit:
    """Fit the decay constant for (p,q) at the declared defect bound.

    ``fitted_b`` is the exact supremum of normalized·d^e over d = 1..d_max;
    the verdict additionally applies the dimension criterion, because a
    finite range cannot see the torsion orders of a too-large stratum.
    """
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    exponent = 2 * (abs(model.n - p - q) - defect_bound)
    seq = normalized_sequence(model, ("hodge", p, q), range(1, d_max + 1), budget=budget)
    fitted = max(value * Fraction(d) ** exponent for d, value in enumerate(seq, start=1))
    leading = model.hodge[p][q].count_form(budget).degree
    bad_dim = leading if leading > model.torus_dim - exponent else None
    return BoundFit(
        p=p, q=q,
        defect_bound=defect_bound,
        exponent=exponent,
        fitted_b=fitted,
        passes=bad_dim is None,
        violating_dim=bad_dim,
    )


def converse_defect_witness(model: VarietyModel, defect_bound: int,
                            *, budget: int = DEFAULT_COMPONENT_BUDGET) -> Optional[tuple[int, int]]:
    """First (p,q) whose locus is too large for the d^(-e) decay, if any.

    A witness certifies that the defect of semismallness exceeds the
    declared bound: the leading term of its count form carries at least
    d^dim torsion points for infinitely many d, beating the claimed decay.
    """
    for p in range(model.n + 1):
        for q in range(model.n + 1):
            exponent = 2 * (abs(model.n - p - q) - defect_bound)
            if model.hodge[p][q].count_form(budget).degree > model.torus_dim - exponent:
                return (p, q)
    return None


def divergence_class(model: VarietyModel,
                     *, budget: int = DEFAULT_COMPONENT_BUDGET) -> DivergenceReport:
    """Classify the irregularity sequence q(X_d): bounded or divergent.

    Divergence happens exactly when the count form of h^(0,1) has a
    positive limit or a proper part of positive top exponent.  Along the
    multiples of the witness order, q(X_d) >= q(X) + d^dim - 1.
    """
    rf = model.hodge[0][1]
    form = rf.count_form(budget)
    origin_value = rf.rank_at(TorusPoint.zero(model.torus_dim))
    if form.limit > 0:
        return DivergenceReport(True, rf.ambient_dim, 1, origin_value)
    if form.top_exponent <= 0:
        return DivergenceReport(False, 0, None, origin_value)
    return DivergenceReport(True, form.top_exponent, form.witness_order, origin_value)


def l2_betti(model: VarietyModel) -> L2Report:
    """L² Betti and Hodge numbers of the infinite Albanese cover.

    Each entry is the limit of the corresponding normalized invariant, the
    value the approximation theorem assigns along the factorial subtower.
    Under weak generic Nakano vanishing the Betti column is zero away from
    the middle degree and equals (-1)^n·chi_top there; otherwise the same
    limits are reported with ``weak_gnv`` false, meaning the identification
    with von Neumann dimensions is not certified.
    """
    n = model.n
    return L2Report(
        betti=tuple(symbolic_limit(model, ("betti", k)).value for k in range(2 * n + 1)),
        hodge=tuple(tuple(Fraction(rf.limit) for rf in row) for row in model.hodge),
        nonvanishing=frozenset(p for p in range(n + 1) if chi_of_forms(model, p) != 0),
        weak_gnv=satisfies_weak_generic_nakano(model),
    )


def betti_deviation_constant(model: VarietyModel,
                             *, budget: int = DEFAULT_COMPONENT_BUDGET) -> int:
    """Explicit C with |b_n(X_d)/deg - limit| <= C·d^(-2) for every d.

    The deviation is the proper part of the middle-degree count forms over
    d^(2g), and a term c·count(d) is at most |c|·component_count·d^dim; so
    C is the sum of |c|·component_count over those terms (at least 1).
    Raises ValueError naming the (p,q) entry when a term has real
    dimension 2g - 1, since the deviation then decays only like d^(-1).
    """
    total = 0
    for p in range(model.n + 1):
        q = model.n - p
        for c, nc in model.hodge[p][q].count_form(budget).terms:
            if nc.dim > model.torus_dim - 2:
                raise ValueError(f"the middle-degree entry ({p},{q}) has a stratum of real dimension "
                                 f"{nc.dim} = 2g - 1; its deviation has no d^(-2) bound")
            total += abs(c) * nc.component_count
    return max(total, 1)


def l2_euler_characteristic(report: L2Report) -> Fraction:
    return sum(((-1) ** k * b for k, b in enumerate(report.betti)), Fraction(0))


def betti_limit_deviation(model: VarietyModel, d: int,
                          *, budget: int = DEFAULT_COMPONENT_BUDGET) -> Fraction:
    """|b_n(X_d)/deg - L² middle Betti number| as an exact rational."""
    limit = symbolic_limit(model, ("betti", model.n)).value
    exact = Fraction(betti_cover(model, d, model.n, budget=budget), d ** model.torus_dim)
    return abs(exact - limit)
