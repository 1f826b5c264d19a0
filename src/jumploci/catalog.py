"""Built-in variety models with closed-form ground truth.

Every entry's rank grid is populated from classical geometry that can be
recomputed independently (and is, in the test suite):

* abelian varieties: h^(p,q) = C(g,p)·C(g,q), all twisted cohomology of a
  nontrivial topologically trivial line bundle vanishes;
* blowups along smooth centers: H^k picks up shifted copies of the center's
  cohomology, and the preimage of the center under multiplication by d is
  an étale cover whose invariants follow from Euler-characteristic
  multiplicativity;
* products curve x elliptic curve via the Künneth formula;
* elliptic surfaces over a curve via the canonical bundle formula and
  Riemann-Roch on the base;
* a ball-quotient-like surface carrying only the finite jump data needed
  for bounded cover irregularity, with Euler characteristics matching
  chi(O) = 1, chi_top = 3.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from .errors import BadParams, UnknownName, shown
from .model import (
    PluriData,
    RankFunction,
    Stratum,
    VarietyModel,
    constant_rank,
)
from .modelfile import MAX_G, MAX_N
from .torus import CongruenceCoset, TorusPoint


class CatalogEntry(NamedTuple):
    name: str
    parameters: dict
    model: VarietyModel
    oracle_notes: str


def _origin_grid(n: int, torus_dim: int, origin_value: Callable[[int, int], int],
                 generic_value: Callable[[int, int], int] = lambda p, q: 0):
    """The grid of rank functions that jump only at the origin, as
    :func:`~jumploci.model.origin_jump` builds one, and are constant where
    the origin value does not exceed the generic one.  Every entry shares
    one origin coset, which would otherwise be coerced and normalized per
    entry, so the model maps equal entries to one function."""
    origin = CongruenceCoset.point(TorusPoint.zero(torus_dim))

    def rank(generic: int, at_origin: int) -> RankFunction:
        strata = (Stratum(origin, at_origin),) if at_origin > generic else ()
        return RankFunction(torus_dim, generic, strata)

    return tuple(tuple(rank(generic_value(p, q), origin_value(p, q)) for q in range(n + 1))
                 for p in range(n + 1))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BadParams(message)


def _size_text(x: int) -> str:
    # a parameter of thousands of digits is named by its size, not printed
    return str(x) if abs(x) < 10 ** 20 else "at least 10^20"


def _require_size(family: str, n: int, g: int) -> None:
    _require(n <= MAX_N and g <= MAX_G, f"{family}: n = {_size_text(n)}, g = {_size_text(g)} "
                                        f"exceed the caps n, g <= {MAX_N}, {MAX_G}")


def abelian(g: int = 1) -> CatalogEntry:
    _require(g >= 1, "abelian: g must be at least 1")
    _require_size("abelian", g, g)
    torus = 2 * g
    model = VarietyModel(
        n=g,
        g=g,
        hodge=_origin_grid(g, torus, lambda p, q: comb(g, p) * comb(g, q)),
        defect_strata=((0, g),),
        pluri=PluriData(
            q_base=0,
            translates=(TorusPoint.zero(torus),),
            values={m: 1 for m in range(2, 7)},
        ),
        name=f"abelian({g})",
    )
    notes = ("Abelian g-fold under the identity map: h^(p,q) = C(g,p)C(g,q) at the "
             "trivial twist, every nontrivial twist kills all cohomology, so every "
             "cover has the same Hodge numbers.  The canonical bundle is trivial, "
             "so P_m counts exactly the d-torsion hit at the origin: P_m(X_d) = 1.")
    return CatalogEntry("abelian", {"g": g}, model, notes)


def nondeg_line_bundle(g: int = 2, p: int = 0, chi0: int = 1) -> CatalogEntry:
    _require(g >= 1, "nondeg_line_bundle: g must be at least 1")
    _require(0 <= p <= g, "nondeg_line_bundle: the index p must lie in [0, g]")
    _require(chi0 >= 1, "nondeg_line_bundle: chi0 must be a positive integer")
    _require_size("nondeg_line_bundle", g, g)
    base = abelian(g)
    torus = 2 * g
    slot = tuple(
        constant_rank(torus, chi0 if i == p else 0)
        for i in range(g + 1))
    model = VarietyModel(
        n=g,
        g=g,
        hodge=base.model.hodge,
        defect_strata=base.model.defect_strata,
        pluri=base.model.pluri,
        sheaves={"line_bundle": slot},
        name=f"nondeg_line_bundle({g},{p},{chi0})",
    )
    notes = ("A nondegenerate line bundle on an abelian g-fold has cohomology "
             "concentrated in one degree p with constant twisted rank chi0 = "
             "|self-intersection / g!|; its rank on the degree-d cover is therefore "
             "exactly chi0·d^(2g), and the normalized sequence is the constant chi0.  "
             "Signs: the Euler characteristic of the slot is (-1)^p·chi0.")
    return CatalogEntry("nondeg_line_bundle", {"g": g, "p": p, "chi0": chi0}, model, notes)


_BLOWUP4_GENERIC = {(1, 2), (2, 1), (2, 3), (3, 2)}


def blowup_abelian4_curve(genus: int = 2) -> CatalogEntry:
    _require(genus >= 2, "blowup_abelian4_curve: the curve genus must be at least 2")
    n = 4
    torus = 8

    def curve_h(a: int, b: int) -> int:
        if (a, b) in ((0, 0), (1, 1)):
            return 1
        if (a, b) in ((0, 1), (1, 0)):
            return genus
        return 0

    def origin_value(p: int, q: int) -> int:
        return comb(4, p) * comb(4, q) + curve_h(p - 1, q - 1) + curve_h(p - 2, q - 2)

    def generic_value(p: int, q: int) -> int:
        return genus - 1 if (p, q) in _BLOWUP4_GENERIC else 0

    model = VarietyModel(
        n=n,
        g=4,
        hodge=_origin_grid(n, torus, origin_value, generic_value),
        defect_strata=((0, 4), (2, 1)),
        name=f"blowup_abelian4_curve({genus})",
    )
    notes = ("Blowup of an abelian fourfold along a smooth curve of the given genus "
             "whose twisted cohomology jumps only at the trivial twist.  Ground truth "
             "from the blowup decomposition H^k(X) = H^k(A) + H^(k-2)(C) + H^(k-4)(C): "
             "the degree-d cover blows up the preimage curve, an étale cover of C of "
             "degree d^8 and genus d^8(genus-1)+1.  The defect of the Albanese map is 1 "
             "(fibers P^2 over the curve), so this is the standard non-semismall example: "
             "the normalized h^(1,2) tends to genus-1, not 0.")
    return CatalogEntry("blowup_abelian4_curve", {"genus": genus}, model, notes)


def blowup_abelian_codim(g: int = 3, c: int = 2) -> CatalogEntry:
    _require(g >= 1, "blowup_abelian_codim: g must be at least 1")
    _require(1 <= c <= g, "blowup_abelian_codim: the codimension c must lie in [1, g]")
    _require_size("blowup_abelian_codim", g, g)
    n = g
    torus = 2 * g
    center_dim = g - c

    def exceptional(p: int, q: int) -> int:
        return sum(
            comb(center_dim, p - i) * comb(center_dim, q - i)
            for i in range(1, c)
            if 0 <= p - i <= center_dim and 0 <= q - i <= center_dim)

    origin = CongruenceCoset.point(TorusPoint.zero(torus))
    # twists trivial on the center: the annihilator of the center's dual block
    kernel = CongruenceCoset.pinned(torus, {i: Fraction(0) for i in range(2 * center_dim)})

    def rank(exc: int, on_abelian: int) -> RankFunction:
        total = on_abelian + exc
        if c == g:
            # center is a point; every twist restricts trivially to it
            return RankFunction(torus, exc, (Stratum(origin, total),))
        strata = [Stratum(origin, total)]
        if exc > 0:
            strata.append(Stratum(kernel, exc))
        return RankFunction(torus, 0, tuple(strata))

    rows = tuple(tuple(rank(exceptional(p, q), comb(g, p) * comb(g, q)) for q in range(n + 1)) for p in range(n + 1))

    defect_strata = [(0, g)]
    if c >= 2:
        defect_strata.append((c - 1, g - c))
    model = VarietyModel(
        n=n,
        g=g,
        hodge=rows,
        defect_strata=tuple(defect_strata),
        name=f"blowup_abelian_codim({g},{c})",
    )
    notes = ("Blowup of an abelian g-fold along an abelian subvariety of codimension c "
             "(a point when c = g).  Twists jump on the rank-2(g-c) coordinate block "
             "annihilating the center; the degree-d cover blows up the d^(2c) disjoint "
             "translates of the center, giving h^(p,q)(X_d) = C(g,p)C(g,q) + "
             "d^(2c)·sum_i C(g-c,p-i)C(g-c,q-i).  Exceptional fibers are P^(c-1), so the "
             "defect is max(0, c-2) and the Albanese map is semismall exactly when c <= 2.")
    return CatalogEntry("blowup_abelian_codim", {"g": g, "c": c}, model, notes)


def elliptic_surface_qI0(genus: int = 2, chi: int = 1) -> CatalogEntry:
    _require(genus >= 2, "elliptic_surface_qI0: the base genus must be at least 2")
    _require(chi >= 1, "elliptic_surface_qI0: chi(O) must be a positive integer")
    _require_size("elliptic_surface_qI0", 2, genus)
    gb, e = genus, chi
    torus = 2 * gb
    generic = ((0, gb - 1, gb - 1 + e), (gb - 1, 2 * (gb - 1) + 10 * e, gb - 1), (gb - 1 + e, gb - 1, 0))
    at_origin = ((1, gb, gb - 1 + e), (gb, 2 * gb + 10 * e, gb), (gb - 1 + e, gb, 1))
    model = VarietyModel(
        n=2,
        g=gb,
        hodge=_origin_grid(2, torus, lambda p, q: at_origin[p][q], lambda p, q: generic[p][q]),
        defect_strata=((0, 1), (1, 1)),
        pluri=PluriData(
            q_base=gb,
            translates=(TorusPoint.zero(torus),),
            values={m: m * (2 * gb - 2 + e) + 1 - gb for m in range(2, 7)},
        ),
        name=f"elliptic_surface_qI0({gb},{e})",
    )
    notes = ("Non-isotrivial elliptic surface without multiple fibers over a curve of "
             "genus >= 2, chi(O) = chi.  The Albanese torus is the base Jacobian, so the "
             "Iitaka base keeps the whole irregularity and plurigenera are multiplicative "
             "along the covers.  Canonical bundle formula: K = pullback of a base divisor "
             "of degree 2·genus-2+chi, so P_m = m(2·genus-2+chi)+1-genus by Riemann-Roch; "
             "twisted ranks are constant in the twist for the same reason.  chi_top = 12·chi.")
    return CatalogEntry("elliptic_surface_qI0", {"genus": genus, "chi": chi}, model, notes)


def fibered_over_curve(genus: int = 2) -> CatalogEntry:
    _require(genus >= 2, "fibered_over_curve: the base genus must be at least 2")
    _require_size("fibered_over_curve", 2, genus + 1)
    gb = genus
    torus = 2 * (gb + 1)
    # twists pulled back from the base curve: the elliptic block is pinned to zero
    curve_block = CongruenceCoset.pinned(torus, {2 * gb: Fraction(0), 2 * gb + 1: Fraction(0)})
    origin = CongruenceCoset.point(TorusPoint.zero(torus))

    def rf(on_block: int, at_origin: int) -> RankFunction:
        strata = []
        if on_block > 0:
            strata.append(Stratum(curve_block, on_block))
        if at_origin > max(on_block, 0):
            strata.append(Stratum(origin, at_origin))
        return RankFunction(torus, 0, tuple(strata))

    grid = (
        (rf(0, 1), rf(gb - 1, gb + 1), rf(gb - 1, gb)),
        (rf(gb - 1, gb + 1), rf(2 * (gb - 1), 2 * gb + 2), rf(gb - 1, gb + 1)),
        (rf(gb - 1, gb), rf(gb - 1, gb + 1), rf(0, 1)),
    )
    model = VarietyModel(
        n=2,
        g=gb + 1,
        hodge=grid,
        defect_strata=((0, 2),),
        name=f"fibered_over_curve({gb})",
    )
    notes = ("Product of a genus-g curve with an elliptic curve; the Albanese map is an "
             "embedding, hence semismall.  Künneth gives every twisted rank; twists jump "
             "exactly on the curve's dual block (real dimension 2g).  The degree-d cover "
             "is (curve of genus d^(2g)(g-1)+1) x elliptic, so q(X_d) = d^(2g)(g-1) + 2 "
             "diverges: the standard unbounded-irregularity example.")
    return CatalogEntry("fibered_over_curve", {"genus": genus}, model, notes)


def cartwright_steger_like() -> CatalogEntry:
    torus = 2
    generic = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    at_origin = ((1, 1, 1), (1, 3, 1), (1, 1, 1))
    model = VarietyModel(
        n=2,
        g=1,
        hodge=_origin_grid(2, torus, lambda p, q: at_origin[p][q], lambda p, q: generic[p][q]),
        defect_strata=((0, 1), (1, 1)),
        pluri=PluriData(
            q_base=1,
            translates=(TorusPoint.zero(torus),),
            values={m: 1 + 9 * m * (m - 1) // 2 for m in range(2, 7)},
        ),
        name="cartwright_steger_like",
    )
    notes = ("Minimal jump-locus shadow of a ball-quotient surface with q = 1, chi(O) = 1, "
             "chi_top = 3, K^2 = 9: every h^(0,1) jump sits at the trivial twist, so the "
             "cover irregularity is the constant 1 and the sequence is bounded.  The finite "
             "jump set beyond the origin is not pinned down by the source geometry; this "
             "entry ships the minimal version.  Generic ranks are chosen so the row Euler "
             "characteristics are the true ones (1, -1, 1), giving middle L² Betti number 3.  "
             "General type, so plurigenera follow P_m = chi(O) + m(m-1)/2·K^2.")
    return CatalogEntry("cartwright_steger_like", {}, model, notes)


_BUILTINS: dict[str, Callable[..., CatalogEntry]] = {
    "abelian": abelian,
    "nondeg_line_bundle": nondeg_line_bundle,
    "blowup_abelian4_curve": blowup_abelian4_curve,
    "blowup_abelian_codim": blowup_abelian_codim,
    "elliptic_surface_qI0": elliptic_surface_qI0,
    "fibered_over_curve": fibered_over_curve,
    "cartwright_steger_like": cartwright_steger_like,
}

# one representative instantiation per entry, used by tests and the CLI listing
DEFAULT_INSTANCES: tuple[tuple[str, dict], ...] = (
    ("abelian", {"g": 2}),
    ("nondeg_line_bundle", {"g": 2, "p": 0, "chi0": 3}),
    ("blowup_abelian4_curve", {"genus": 2}),
    ("blowup_abelian_codim", {"g": 3, "c": 2}),
    ("blowup_abelian_codim", {"g": 4, "c": 3}),
    ("elliptic_surface_qI0", {"genus": 2, "chi": 1}),
    ("fibered_over_curve", {"genus": 2}),
    ("cartwright_steger_like", {}),
)


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin(name: str, **params) -> CatalogEntry:
    """Construct a catalog entry by name; UnknownName / BadParams on misuse."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownName(f"no catalog entry named {shown(name)!r}; "
                          f"known: {', '.join(builtin_names())}") from None
    try:
        return factory(**params)
    except TypeError as exc:
        known = inspect.signature(factory).parameters
        unknown = [key for key in params if key not in known]
        if unknown:  # Python's own message would quote the key in full
            raise BadParams(f"{name}: {factory.__name__}() got an unexpected keyword "
                            f"argument {shown(unknown[0])!r}") from None
        raise BadParams(f"{name}: {exc}") from None
