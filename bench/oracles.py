"""Independent answers that the benchmark checks each operation against.

Nothing here calls the engine's counting or tower code.  Cover Hodge
numbers come from the classical geometry each catalog entry documents
(blowup decompositions, Künneth, Riemann-Roch on a base curve and
multiplicativity of Euler characteristics along étale covers); the
defect of semismallness comes from the fiber dimensions of the Albanese
map.  Brute-force torsion counts use the engine's enumeration route,
which tests membership point by point and shares no code with the Smith
form counting it checks.
"""

from __future__ import annotations

from math import comb

from jumploci import counting


def _curve(genus: int, a: int, b: int) -> int:
    if (a, b) in ((0, 0), (1, 1)):
        return 1
    if (a, b) in ((0, 1), (1, 0)):
        return genus
    return 0


def _abelian(params: dict, d: int):
    g = params["g"]
    return g, g, lambda p, q: comb(g, p) * comb(g, q)


def _blowup4(params: dict, d: int):
    # H^k(X_d) = H^k(A) + H^(k-2)(C_d) + H^(k-4)(C_d), C_d étale of degree d^8
    genus_d = d ** 8 * (params["genus"] - 1) + 1
    return 4, 4, lambda p, q: (comb(4, p) * comb(4, q) + _curve(genus_d, p - 1, q - 1)
                               + _curve(genus_d, p - 2, q - 2))


def _blowup_codim(params: dict, d: int):
    # the cover blows up d^(2c) disjoint translates of the center
    g, c = params["g"], params["c"]
    center = g - c

    def h(p: int, q: int) -> int:
        exceptional = sum(comb(center, p - i) * comb(center, q - i) for i in range(1, c)
                          if 0 <= p - i <= center and 0 <= q - i <= center)
        return comb(g, p) * comb(g, q) + d ** (2 * c) * exceptional

    return g, g, h


def _elliptic_surface(params: dict, d: int):
    # elliptic surface over the cover curve, chi(O) multiplied by the degree
    genus, chi = params["genus"], params["chi"]
    gd = d ** (2 * genus) * (genus - 1) + 1
    ed = d ** (2 * genus) * chi
    pg = gd - 1 + ed
    table = ((1, gd, pg), (gd, 10 * ed + 2 * gd, gd), (pg, gd, 1))
    return 2, genus, lambda p, q: table[p][q]


def _curve_times_elliptic(params: dict, d: int):
    # Künneth with the cover curve of genus d^(2g)(g-1)+1
    genus = params["genus"]
    gd = d ** (2 * genus) * (genus - 1) + 1

    def h(p: int, q: int) -> int:
        return sum(_curve(gd, a, b) for a in (0, 1) for b in (0, 1)
                   if 0 <= p - a <= 1 and 0 <= q - b <= 1)

    return 2, genus + 1, h


def _ball_quotient_shadow(params: dict, d: int):
    # q(X_d) = 1, chi(O_{X_d}) = d^2, chi_top(X_d) = 3d^2
    pg = d ** 2
    h11 = (3 * d ** 2 - 2 + 4) - 2 * pg
    table = ((1, 1, pg), (1, h11, 1), (pg, 1, 1))
    return 2, 1, lambda p, q: table[p][q]


_COVER_HODGE = {
    "abelian": _abelian,
    "nondeg_line_bundle": _abelian,
    "blowup_abelian4_curve": _blowup4,
    "blowup_abelian_codim": _blowup_codim,
    "elliptic_surface_qI0": _elliptic_surface,
    "fibered_over_curve": _curve_times_elliptic,
    "cartwright_steger_like": _ball_quotient_shadow,
}


def cover_hodge(name: str, params: dict, d: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(n, irregularity, Hodge grid of X_d) for a catalog entry."""
    n, g, h = _COVER_HODGE[name](params, d)
    return n, g, tuple(tuple(h(p, q) for q in range(n + 1)) for p in range(n + 1))


def defect(name: str, params: dict) -> int:
    """Defect of semismallness of the Albanese map, from its fiber dimensions."""
    if name == "blowup_abelian4_curve":
        return 1  # P^2 fibers over a curve in a fourfold: 2·2 - 4 + 1
    if name == "blowup_abelian_codim":
        return max(0, params["c"] - 2)  # P^(c-1) fibers over a (g-c)-fold
    if name in ("elliptic_surface_qI0", "cartwright_steger_like"):
        return 1  # curve fibers over a curve in a surface: 2·1 - 2 + 1
    return 0  # isomorphisms and embeddings


def irregularity_diverges(name: str, params: dict) -> bool:
    """Does q(X_d) grow with d?  Read off the closed-form h^(0,1)."""
    return cover_hodge(name, params, 2)[2][0][1] > cover_hodge(name, params, 1)[2][0][1]


def brute_force_union_count(components, d: int) -> int:
    """|S_d ∩ union| by listing every d-torsion point on every component."""
    points = set()
    for coset in components:
        points.update(pt.coords for pt in counting.enumerate_torsion(coset, d))
    return len(points)


def union_count_bounds(components, d: int) -> tuple[int, int]:
    """(largest component count, sum of component counts) at d."""
    counts = [counting.coset_torsion_count(c, d).value for c in components]
    return (max(counts), sum(counts)) if counts else (0, 0)
