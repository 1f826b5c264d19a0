"""Independent oracles used to cross-check the engine.

Everything here is deliberately written against the engine's public data
only (matrices, rationals, binomials) and never calls the closed-form
code paths it is checking: torsion counts come from direct residue
enumeration, Hodge numbers of covers come from classical decomposition
formulas plus Euler-characteristic multiplicativity for the covering
curves.
"""

from __future__ import annotations

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


def smallest_torsion_order(components) -> int:
    """Smallest d at which one of the (nonempty) cosets has a point of order
    dividing d, by enumeration at d = 1, 2, ..."""
    d = 1
    while not any(brute_force_torsion_count([c], d) for c in components):
        d += 1
    return d


def brute_force_rank_sum(rank_function, d: int) -> int:
    """Sum of the rank function over the full d-torsion grid, pointwise."""
    from fractions import Fraction

    from jumploci import TorusPoint

    n = rank_function.ambient_dim
    total = 0
    for ys in product(range(d), repeat=n):
        total += rank_function.rank_at(TorusPoint.of([Fraction(y, d) for y in ys]))
    return total


def per_term_count(form, d: int) -> int:
    """A count form's value at d read term by term: limit·d^N plus each
    term's coefficient times its own closed-form count, with no grouping of
    the terms by divisibility class."""
    return form.limit * d ** form.ambient_dim + sum(c * nc.count(d) for c, nc in form.terms)


def summed_count(model, selector, d: int) -> int:
    """A selected invariant of X_d as the sum of its rank functions' counts,
    each read by :func:`per_term_count`, never through the model's table."""
    from jumploci.tower import summands

    return sum(per_term_count(rf.count_form(12), d) for rf in summands(model, selector))


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
