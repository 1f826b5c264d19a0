"""Independent oracles used to cross-check the engine.

Everything here is deliberately written against the engine's public data
only (matrices, rationals, binomials) and never calls the closed-form
code paths it is checking: torsion counts come from direct residue
enumeration, Hodge numbers of covers come from classical decomposition
formulas plus Euler-characteristic multiplicativity for the covering
curves.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb


def brute_force_torsion_count(components, d: int) -> int:
    """|S_d ∩ union| by residue enumeration over (Z/d)^N, integers only."""
    if not components:
        return 0
    n = components[0].ambient_dim
    prepared = []
    for coset in components:
        rows = []
        ok = True
        for row, b in zip(coset.rows, coset.rhs):
            db = b * d
            if db.denominator != 1:
                ok = False
                break
            rows.append((row, db.numerator % d if d > 1 else 0))
        prepared.append(rows if ok else None)
    count = 0
    for ys in product(range(d), repeat=n):
        for rows in prepared:
            if rows is None:
                continue
            if all(sum(a * y for a, y in zip(row, ys)) % d == (c % d) for row, c in rows):
                count += 1
                break
    return count


def brute_force_torsion_points(coset, d: int) -> set[tuple[int, ...]]:
    """The residues y in (Z/d)^N with y/d on the coset, by enumeration."""
    n = coset.ambient_dim
    rows = []
    for row, b in zip(coset.rows, coset.rhs):
        db = b * d
        if db.denominator != 1:
            return set()
        rows.append((row, db.numerator % d))
    return {ys for ys in product(range(d), repeat=n)
            if all(sum(a * y for a, y in zip(row, ys)) % d == c for row, c in rows)}


def rank_at(rank_function, alpha) -> int:
    """The rank at one point: the largest value of a stratum whose (A, b)
    holds there, that is each entry of A·α - b an integer, else the generic
    value.  Membership is tested from (A, b) alone, in exact rationals, as
    :func:`brute_force_torsion_points` tests it in integers."""
    def holds(coset):
        return all((sum(a * x for a, x in zip(row, alpha.coords)) - b).denominator == 1
                   for row, b in zip(coset.rows, coset.rhs))

    return max([rank_function.generic_value, *(value for coset, value in rank_function.strata if holds(coset))])


def smallest_torsion_order(components) -> int:
    """Smallest d at which one of the (nonempty) cosets has a point of order
    dividing d, by enumeration at d = 1, 2, ..."""
    d = 1
    while not any(brute_force_torsion_count([c], d) for c in components):
        d += 1
    return d


def brute_force_rank_sum(rank_function, d: int) -> int:
    """Sum of the rank function over the full d-torsion grid, pointwise: at
    each y/d the largest value of a stratum whose (A, b) holds there, tested
    in integers as in :func:`brute_force_torsion_points`, else the generic
    value."""
    strata = [(brute_force_torsion_points(coset, d), value) for coset, value in rank_function.strata]
    return sum(max([rank_function.generic_value, *(value for points, value in strata if ys in points)])
               for ys in product(range(d), repeat=rank_function.ambient_dim))


def per_term_count(form, d: int) -> int:
    """A count form's value at d read term by term: limit·d^N plus each
    term's coefficient times its own count off its translate and Smith data
    (:func:`translate_gate_count`), with no divisibility class."""
    return form.limit * d ** form.ambient_dim + sum(c * translate_gate_count(nc, d) for c, nc in form.terms)


@cache
def smith_translates(nc) -> tuple[tuple[int, int], ...]:
    """(s, w) for each Smith pivot s > 1 of a normalized coset's H, w its
    transformed translate U·nums modulo s: one :func:`jumploci.torus.snf`
    pass over every row of (H | nums), none split off, the translate column
    carried along.  Kept per coset, as the oracle reads it at many d."""
    from jumploci.torus import snf

    n = nc.ambient_dim
    rows = snf([(*row, m) for row, m in zip(nc.rows, nc.nums)], n)
    return tuple((r[i], r[n] % r[i]) for i, r in enumerate(rows) if r[i] > 1)


def translate_gate_count(nc, d: int) -> int:
    """A normalized coset's count of d-torsion points read off its translate
    order and Smith data (s, w) (:func:`smith_translates`), with no
    divisibility class: 0 unless the order divides d and gcd(s, d) divides
    (d/order)·w for every pivot, else d^dim·Π gcd(s, d)."""
    from math import gcd

    if d % nc.order:
        return 0
    scale, gate = d // nc.order, 1
    for s, w in smith_translates(nc):
        g = gcd(s, d)
        if scale * w % g:
            return 0
        gate *= g
    return gate * d ** nc.dim


def summed_count(model, selector, d: int) -> int:
    """A selected invariant of X_d as the weighted sum of the counts of the
    rank functions it names, picked here from the grid, the sheaf slots and
    the plurigenus data (:func:`pluri_locus_function`), never through the
    engine's selectors or its table; each is read by :func:`per_term_count`."""
    kind, *args = selector
    n = model.n
    if kind == "hodge":
        picked = [(1, model.hodge[args[0]][args[1]])]
    elif kind == "betti":
        picked = [(1, model.hodge[p][args[0] - p]) for p in range(n + 1) if 0 <= args[0] - p <= n]
    elif kind == "irregularity":
        picked = [(1, model.hodge[0][1])] if n else []
    elif kind == "pluri":
        m = args[0]
        picked = [(1, model.hodge[n][0]) if m == 1 else (model.pluri.values[m], pluri_locus_function(model))]
    else:
        picked = [(1, model.sheaves[args[0]][args[1]])]
    return sum(c * per_term_count(rf.count_form(12), d) for c, rf in picked)


def pluri_locus_function(model):
    """The rank function of value 1 on the plurigenus locus, built here from
    the model's ``PluriData``: each translate pinned off the leading
    2·q_base coordinates, 0 elsewhere."""
    from jumploci import CongruenceCoset, RankFunction, Stratum

    dim, head = 2 * model.g, 2 * model.pluri.q_base
    return RankFunction(dim, 0, tuple(Stratum(CongruenceCoset.pinned(dim, {i: t.coords[i] for i in range(head, dim)}), 1)
                                      for t in model.pluri.translates))


def brute_force_plurigenera(pluri, d: int) -> dict[int, int]:
    """P_m(X_d) for every m of the plurigenus data, from the data alone:
    ``values[m]`` times the residues y in (Z/d)^(2g) with y/d equal to some
    translate t off the leading 2·q_base coordinates, that is y_i ≡ d·t_i
    (mod d) with d·t_i an integer for every later i, by enumeration."""
    head = 2 * pluri.q_base
    tails = set()
    for t in pluri.translates:
        scaled = [c * d for c in t.coords[head:]]
        if all(c.denominator == 1 for c in scaled):
            tails.add(tuple(c.numerator % d for c in scaled))
    dim = len(pluri.translates[0].coords) if pluri.translates else 0
    count = sum(ys[head:] in tails for ys in product(range(d), repeat=dim))
    return {m: value * count for m, value in pluri.values.items()}


def row_euler_characteristic(model, p: int) -> int:
    """chi(Omega^p) as the alternating sum over q of the limits of row p:
    twisting leaves the Euler characteristic alone."""
    return sum((-1) ** q * rf.limit for q, rf in enumerate(model.hodge[p]))


def top_euler_characteristic(model) -> int:
    """chi_top as the alternating sum over p of the row Euler characteristics."""
    return sum((-1) ** p * row_euler_characteristic(model, p) for p in range(model.n + 1))


def hermite_point(nc):
    """One point of a normalized coset: back-substitute its Hermite rows
    H·x = b with every non-pivot coordinate 0 (exact rationals)."""
    from fractions import Fraction

    from jumploci import TorusPoint

    x = [Fraction(0)] * nc.ambient_dim
    for row, b in reversed(list(zip(nc.rows, nc.rhs))):
        j = next(c for c, a in enumerate(row) if a)
        x[j] = (b - sum(row[c] * x[c] for c in range(j + 1, nc.ambient_dim))) / row[j]
    return TorusPoint.of(x)


def smith_diagonal_by_minors(matrix, width: int) -> list[int]:
    """The Smith diagonal of a k x width integer matrix from its
    determinantal divisors: s_i = D_i / D_(i-1) for i = 1..min(k, width),
    D_i the gcd of the i x i minors (0, and every later s_i 0, when they all
    vanish).  Minors by :func:`integer_det`; no elimination is shared with
    the engine."""
    from itertools import combinations
    from math import gcd

    k = len(matrix)
    diag = []
    prev = 1
    for i in range(1, min(k, width) + 1):
        divisor = 0
        for rs in combinations(range(k), i):
            for cs in combinations(range(width), i):
                divisor = gcd(divisor, integer_det([[matrix[r][c] for c in cs] for r in rs]))
        diag.append(divisor // prev if prev else 0)
        prev = divisor
    return diag


def integer_det(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- cover Hodge numbers from classical geometry ----------------------------


def abelian_cover_hodge(g: int, d: int, p: int, q: int) -> int:
    """Every cover of an abelian variety is the same abelian variety."""
    return comb(g, p) * comb(g, q)


def _curve_hodge(genus: int, a: int, b: int) -> int:
    if (a, b) in ((0, 0), (1, 1)):
        return 1
    if (a, b) in ((0, 1), (1, 0)):
        return genus
    return 0


def blowup4_cover_hodge(genus: int, d: int, p: int, q: int) -> int:
    """Blowup of an abelian fourfold along a curve: H^k(X) = H^k(A) +
    H^(k-2)(C) + H^(k-4)(C), and the cover curve is the degree-d^8 étale
    cover, of genus d^8(genus-1)+1 by multiplicativity of chi_top."""
    genus_d = d ** 8 * (genus - 1) + 1
    return (comb(4, p) * comb(4, q)
            + _curve_hodge(genus_d, p - 1, q - 1)
            + _curve_hodge(genus_d, p - 2, q - 2))


def blowup_codim_cover_hodge(g: int, c: int, d: int, p: int, q: int) -> int:
    """Blowup along an abelian subvariety of codimension c (a point when
    c = g): the preimage of the center under multiplication by d consists
    of d^(2c) disjoint translates of the center."""
    center = g - c
    exceptional = sum(
        comb(center, p - i) * comb(center, q - i)
        for i in range(1, c)
        if 0 <= p - i <= center and 0 <= q - i <= center)
    return comb(g, p) * comb(g, q) + d ** (2 * c) * exceptional


def product_cover_hodge(genus: int, d: int, p: int, q: int) -> int:
    """(curve x elliptic) covers are (cover curve x elliptic), so Künneth
    with the cover genus d^(2·genus)(genus-1)+1."""
    gd = d ** (2 * genus) * (genus - 1) + 1
    elliptic = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    total = 0
    for pa in range(0, 2):
        for qa in range(0, 2):
            pb, qb = p - pa, q - qa
            total += _curve_hodge(gd, pa, qa) * elliptic.get((pb, qb), 0)
    return total


def elliptic_surface_cover_hodge(genus: int, chi: int, d: int, p: int, q: int) -> int:
    """Elliptic surface over a genus-g base: the cover is the elliptic
    surface over the cover curve, with chi(O) multiplied by the degree."""
    gd = d ** (2 * genus) * (genus - 1) + 1
    ed = d ** (2 * genus) * chi
    table = {
        (0, 0): 1, (0, 1): gd, (0, 2): gd - 1 + ed,
        (1, 0): gd, (1, 1): 10 * ed + 2 * gd, (1, 2): gd,
        (2, 0): gd - 1 + ed, (2, 1): gd, (2, 2): 1,
    }
    return table[(p, q)]


def cartwright_steger_cover_hodge(d: int, p: int, q: int) -> int:
    """All jumps sit at the trivial twist; off it the ranks are the
    constant generic values fixed by chi(O) = 1, chi(Omega^1) = -1."""
    generic = {(0, 2): 1, (1, 1): 1, (2, 0): 1}
    origin = {
        (0, 0): 1, (0, 1): 1, (0, 2): 1,
        (1, 0): 1, (1, 1): 3, (1, 2): 1,
        (2, 0): 1, (2, 1): 1, (2, 2): 1,
    }
    gv = generic.get((p, q), 0)
    return gv * (d ** 2 - 1) + origin[(p, q)]


COVER_ORACLES = {
    "abelian": lambda params, d, p, q: abelian_cover_hodge(params["g"], d, p, q),
    "nondeg_line_bundle": lambda params, d, p, q: abelian_cover_hodge(params["g"], d, p, q),
    "blowup_abelian4_curve": lambda params, d, p, q: blowup4_cover_hodge(params["genus"], d, p, q),
    "blowup_abelian_codim": lambda params, d, p, q: blowup_codim_cover_hodge(params["g"], params["c"], d, p, q),
    "elliptic_surface_qI0": lambda params, d, p, q: elliptic_surface_cover_hodge(params["genus"], params["chi"], d, p, q),
    "fibered_over_curve": lambda params, d, p, q: product_cover_hodge(params["genus"], d, p, q),
    "cartwright_steger_like": lambda params, d, p, q: cartwright_steger_cover_hodge(d, p, q),
}
