"""Decay bounds, divergence classification, and L² limits.

The decay theorem and its converse are one criterion: the normalized
(p,q)-rank is O(d^(-e)) with e = 2(|n-p-q| - N) exactly when no stratum
is too large for the defect bound N.  :func:`fit_bounds` reports, per
entry, the exact supremum of B_d = normalized·d^e = h(d)·d^(e-2g) over a
finite range, taken in integers from one evaluation of the model's count
table per d, and the verdict of that criterion, decided analytically
(:func:`~jumploci.model.locus_too_large`): the leading term of the rank
sum, of degree v (:attr:`~jumploci.model.RankFunction.degree`), has d^v
points at the multiples of the smallest d where it has a point, so
v > 2g - e forces unboundedness no matter how a finite range looks.  The
converse's witness (:func:`converse_defect_witness`) is the first entry
that fails it.  That smallest d is also the divergence witness order of
q(X_d), read off the strata like every verdict: none builds a count form.

L² Betti numbers of the infinite Albanese cover are limits of normalized
Betti numbers along the factorial subtower; since the limits of the full
sequence exist, they are computed symbolically rather than by building
covers of factorial degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .counting import DEFAULT_COMPONENT_BUDGET
from .model import VarietyModel, decay_exponent, locus_too_large, satisfies_weak_generic_nakano
from .tower import symbolic_limit, value_on_cover


class BoundFit(NamedTuple):
    """Result of fitting B with normalized rank <= B · d^(-exponent)."""

    p: int
    q: int
    defect_bound: int
    exponent: int
    fitted_b: Fraction
    passes: bool
    violating_dim: Optional[int] = None  # real dimension witnessing unboundedness


class DivergenceReport(NamedTuple):
    """Whether the cover irregularities q(X_d) stay bounded."""

    divergent: bool
    max_stratum_dim: int          # real dimension, 0 when bounded
    # the smallest d where a top-dimensional stratum of h^(0,1) has a point,
    # 1 for a positive limit; q(X_d) >= q(X) + d^dim - 1 at all its multiples
    witness_order: Optional[int]
    base_irregularity: int


class L2Report(NamedTuple):
    betti: tuple[Fraction, ...]
    hodge: tuple[tuple[Fraction, ...], ...]
    nonvanishing: frozenset[int]
    weak_gnv: bool  # when False the closed form is not certified


def _suprema(evaluate: Callable[[int], Sequence[int]], columns: Sequence[int],
             shifts: Sequence[int], d_max: int) -> list[Fraction]:
    """For each i, the exact supremum of evaluate(d)[columns[i]]·d^shifts[i]
    over d = 1..d_max; other columns are not read.  Each value is an
    integer pair (numerator, denominator), pairs are compared by
    cross-multiplying, and one Fraction per column is built, at the end."""
    first = evaluate(1)
    nums, dens = [first[c] for c in columns], [1] * len(columns)
    distinct = set(shifts)
    for d in range(2, d_max + 1):
        powers = {shift: d ** abs(shift) for shift in distinct}
        values = evaluate(d)
        for i, (column, shift) in enumerate(zip(columns, shifts)):
            h = values[column]
            h_num, h_den = (h * powers[shift], 1) if shift >= 0 else (h, powers[shift])
            if h_num * dens[i] > nums[i] * h_den:
                nums[i], dens[i] = h_num, h_den
    return [Fraction(num, den) for num, den in zip(nums, dens)]


def fit_bounds(model: VarietyModel, defect_bound: int, d_max: int,
               *, budget: int = DEFAULT_COMPONENT_BUDGET) -> list[BoundFit]:
    """Fit the decay constant of every grid entry, row-major, at the
    declared defect bound.

    ``fitted_b`` is the exact supremum of normalized·d^e = h(d)·d^(e-2g)
    over d = 1..d_max, with the whole grid read off one evaluation of the
    model's table per d; the verdict is the dimension criterion.  Entries
    that share a rank function (:class:`VarietyModel` shares equal ones) and
    an exponent share a supremum, so each such pair is fitted once.  The
    budget is checked over the whole grid, by the table.
    """
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    table = model.hodge_table(budget)
    entries = [(p, q, decay_exponent(model, p, q, defect_bound)) for p, q in model.hodge_pairs()]
    first: dict = {}  # (rank function, exponent) -> the first column, row-major, that has it
    for column, (p, q, e) in enumerate(entries):
        first.setdefault((id(model.hodge[p][q]), e), column)
    shifts = [entries[column][2] - model.torus_dim for column in first.values()]
    fitted = dict(zip(first, _suprema(table.values, list(first.values()), shifts, d_max)))
    fits = []
    for p, q, e in entries:
        fails = locus_too_large(model, p, q, e)
        fits.append(BoundFit(p, q, defect_bound, e, fitted[id(model.hodge[p][q]), e], not fails,
                             model.hodge[p][q].degree if fails else None))
    return fits


def converse_defect_witness(model: VarietyModel, defect_bound: int) -> Optional[tuple[int, int]]:
    """First (p,q), row-major, whose locus is too large for the d^(-e)
    decay, if any: the first failing entry of :func:`fit_bounds`.

    A witness certifies that the defect of semismallness exceeds the
    declared bound: the leading term of its rank sum carries at least
    d^degree torsion points for infinitely many d, beating the claimed decay.
    """
    return next(((p, q) for p, q in model.hodge_pairs()
                 if locus_too_large(model, p, q, decay_exponent(model, p, q, defect_bound))), None)


def divergence_class(model: VarietyModel) -> DivergenceReport:
    """Classify the irregularity sequence q(X_d): bounded or divergent.

    q(X_d) is bounded exactly when h^(0,1) has degree at most 0
    (:attr:`RankFunction.degree`); otherwise it diverges at real dimension
    the degree, and along the multiples of the witness order
    q(X_d) >= q(X) + d^dim - 1.  A positive limit has witness order 1, and
    a divergent proper locus reads its order off its top-dimensional strata
    (:attr:`RankFunction.witness_order`), with no count form and no budget.
    """
    if model.n == 0:  # a point has no h^(0,1) entry
        return DivergenceReport(False, 0, None, 0)
    rf = model.hodge[0][1]
    if rf.degree <= 0:
        return DivergenceReport(False, 0, None, rf.origin_value)
    return DivergenceReport(True, rf.degree, 1 if rf.limit > 0 else rf.witness_order, rf.origin_value)


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
        betti=tuple(symbolic_limit(model, ("betti", k)) for k in range(2 * n + 1)),
        hodge=tuple(tuple(Fraction(rf.limit) for rf in row) for row in model.hodge),
        nonvanishing=frozenset(p for p in range(n + 1) if model.chi_p[p] != 0),
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
    limit = symbolic_limit(model, ("betti", model.n))
    exact = Fraction(value_on_cover(model, ("betti", model.n), d, budget=budget), d ** model.torus_dim)
    return abs(exact - limit)
