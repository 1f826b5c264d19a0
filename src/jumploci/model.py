"""Declarative model of an irregular variety through its jump loci.

A :class:`RankFunction` records, for one sheaf and one cohomology degree,
the rank h(α) as a function of the twisting point α on the dual torus: a
generic value off a finite union of coset strata, and on each stratum the
(larger) jumped value.  Overlaps resolve by maximum, the unique monotone
rule compatible with semicontinuity when strata are the level sets.

A :class:`VarietyModel` bundles the full (p,q) grid of rank functions for
the bundles of holomorphic p-forms, the fiber-dimension stratification of
the Albanese map (from which the defect of semismallness is computed),
optional plurigenus data for the pluricanonical series, and optional extra
named sheaf slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Optional

from .counting import DEFAULT_COMPONENT_BUDGET, CountForm, check_union
from .errors import ComponentBudgetExceeded, DimensionMismatch, MissingStratification
from .torus import CongruenceCoset, NormalizedCoset, TorusPoint


class Stratum(NamedTuple):
    coset: CongruenceCoset
    value: int


@dataclass(frozen=True)
class RankFunction:
    """Rank of one cohomology group as a function of the twisting point.

    Everything that does not depend on the cover index d is computed on
    first use and kept on the instance: the normalized strata, the limit
    and the compiled count form that every d reads.
    """

    ambient_dim: int
    generic_value: int
    strata: tuple[Stratum, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "strata",
            tuple(Stratum(c, int(v)) for c, v in self.strata))

    @cached_property
    def normalized_strata(self) -> tuple[Optional[NormalizedCoset], ...]:
        """The normalized coset of each stratum, None when it is empty."""
        return tuple(coset.normalize() for coset, _ in self.strata)

    @cached_property
    def limit(self) -> int:
        """The d^(2g) coefficient of the rank sum: the generic value with any
        stratum spanning the whole torus folded in.  It needs no Smith form."""
        best = self.generic_value
        for (_, value), nc in zip(self.strata, self.normalized_strata):
            if value > best and nc is not None and nc.dim == self.ambient_dim:
                best = value
        return best

    @cached_property
    def _count_form(self) -> CountForm:
        return CountForm.of(self.ambient_dim, self.limit, self.effective_strata())

    def count_form(self, budget: int) -> CountForm:
        """The limit and the signed meets of the level sets above it,
        weighted by their steps and merged by Hermite form.  The budget caps
        the strata above the limit; it is checked on every call."""
        check_union([coset for coset, value in self.strata if value > self.limit], budget)
        return self._count_form

    def rank_at(self, alpha: TorusPoint) -> int:
        """max(generic value, values of the strata containing the point)."""
        if alpha.dim != self.ambient_dim:
            raise DimensionMismatch("point dimension differs from the dual-torus dimension")
        best = self.generic_value
        for coset, value in self.strata:
            if value > best and coset.contains(alpha):
                best = value
        return best

    def is_proper(self) -> bool:
        """True when the non-vanishing locus is a proper subset of the torus."""
        return self.limit == 0

    def effective_strata(self) -> list[tuple[NormalizedCoset, int]]:
        """Nonempty, non-full strata whose value exceeds the limit."""
        return [(nc, value) for (_, value), nc in zip(self.strata, self.normalized_strata)
                if value > self.limit and nc is not None and nc.dim < self.ambient_dim]


def constant_rank(ambient_dim: int, value: int) -> RankFunction:
    return RankFunction(ambient_dim, value, ())


def origin_jump(ambient_dim: int, generic: int, origin_value: int) -> RankFunction:
    """Rank function jumping only at the origin (the most common shape)."""
    origin = CongruenceCoset.point(TorusPoint.zero(ambient_dim))
    strata = (Stratum(origin, origin_value),) if origin_value > generic else ()
    return RankFunction(ambient_dim, generic, strata)


@dataclass(frozen=True)
class PluriData:
    """Inputs for the pluricanonical series h^0(ω^m ⊗ α).

    The non-vanishing locus of every power m ≥ 2 is the same finite union
    of translates of one subtorus of complex dimension ``q_base`` (the
    irregularity of the Iitaka base); the subtorus is taken to be the block
    of the leading 2·q_base coordinates.  ``values[m]`` is the constant
    rank on the locus and ``generic_values[m]`` the rank off it (zero
    whenever the locus is proper, which :func:`validate_model` checks).
    """

    q_base: int
    translates: tuple[TorusPoint, ...]
    values: Mapping[int, int]
    generic_values: Mapping[int, int]

    def locus_coset(self, ambient_dim: int, translate: TorusPoint) -> CongruenceCoset:
        pinned = {i: translate.coords[i] for i in range(2 * self.q_base, ambient_dim)}
        return CongruenceCoset.pinned(ambient_dim, pinned)

    @cached_property
    def _rank_functions(self) -> dict[tuple[int, int], RankFunction]:
        return {}

    def rank_function(self, ambient_dim: int, m: int) -> RankFunction:
        """The rank function of ω^m, built once per (ambient_dim, m) so that
        every cover reads the same compiled form."""
        key = (ambient_dim, m)
        if key not in self._rank_functions:
            generic = int(self.generic_values.get(m, 0))
            value = int(self.values[m])
            strata = tuple(Stratum(self.locus_coset(ambient_dim, t), value)
                           for t in self.translates) if value > generic else ()
            self._rank_functions[key] = RankFunction(ambient_dim, generic, strata)
        return self._rank_functions[key]


@dataclass(frozen=True)
class VarietyModel:
    """n, irregularity g, the (n+1)x(n+1) grid of rank functions, and extras."""

    n: int
    g: int
    hodge: tuple[tuple[RankFunction, ...], ...]
    defect_strata: tuple[tuple[int, int], ...]
    pluri: Optional[PluriData] = None
    sheaves: Mapping[str, tuple[RankFunction, ...]] = field(default_factory=dict)
    semismall: bool = False
    serre_check: bool = True
    name: str = ""

    @property
    def torus_dim(self) -> int:
        return 2 * self.g

    def hodge_pairs(self) -> Iterable[tuple[int, int]]:
        return product(range(self.n + 1), repeat=2)


class Finding(NamedTuple):
    severity: str  # "error" | "warning"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]
    weak_gv_table: Mapping[int, frozenset[int]]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


def defect(model: VarietyModel) -> int:
    """Defect of semismallness: max over strata (l, dim V_l) of 2l - n + dim V_l.

    ``dim V_l`` is the complex dimension of the locus of points whose fiber
    has dimension at least l; the stratification must include l = 0.
    """
    if not model.defect_strata:
        raise MissingStratification("the fiber-dimension stratification is empty")
    if all(l != 0 for l, _ in model.defect_strata):
        raise MissingStratification("the stratification must include the l = 0 stratum")
    return max(2 * l - model.n + dim for l, dim in model.defect_strata)


def classify_weak_gv(model: VarietyModel, p: int) -> Optional[int]:
    """Index q* such that the loci of row p are proper away from q*.

    Returns the unique degree whose locus fills the torus, the declared
    index n - p when every locus is proper, or None when two degrees have
    full loci (no single index works).
    """
    full = [q for q in range(model.n + 1) if not model.hodge[p][q].is_proper()]
    if len(full) > 1:
        return None
    if len(full) == 1:
        return full[0]
    return model.n - p


def satisfies_weak_generic_nakano(model: VarietyModel) -> bool:
    """True when every p-form row is weak-GV with index exactly n - p."""
    return all(classify_weak_gv(model, p) == model.n - p for p in range(model.n + 1))


def _level_components(rf: RankFunction, t: int) -> frozenset[NormalizedCoset]:
    """Normalized cosets whose union is {rf >= t}: the full torus at or
    below the generic value, else the nonempty strata reaching t."""
    if t <= rf.generic_value:
        return frozenset({NormalizedCoset(rf.ambient_dim, (), (), 1)})
    return frozenset(nc for (_, value), nc in zip(rf.strata, rf.normalized_strata)
                     if value >= t and nc is not None)


def _level_polynomial(rf: RankFunction, t: int, budget: int) -> dict[int, int]:
    """Count polynomial of {rf >= t}."""
    if t <= rf.generic_value:
        return {rf.ambient_dim: 1}
    check_union([coset for coset, value in rf.strata if value >= t], budget)
    return CountForm.of(rf.ambient_dim, 0, [(nc, 1) for nc in _level_components(rf, t)]).polynomial


def _serre_mismatch(f: RankFunction, g: RankFunction, budget: int) -> Optional[int]:
    """Smallest threshold t at which {f >= t} and -{g >= t} differ; None
    when f(α) = g(-α) at every point α.

    Both functions take only their generic and stratum values, so these
    thresholds decide it.  Equal sets of normalized cosets are equal level
    sets.  Otherwise U = {f >= t} and V = -{g >= t} are equal exactly when
    U, V and U ∪ V have the same count polynomial (:attr:`CountForm.polynomial`):
    U ⊆ U ∪ V, so equal polynomials make them equal, and likewise for V.
    U ∪ V has at most |U| + |V| components.  Raises
    ComponentBudgetExceeded when a level set to be counted exceeds the
    budget.
    """
    values = {f.generic_value, g.generic_value}
    values.update(value for _, value in f.strata + g.strata)
    for t in sorted(values):
        u = _level_components(f, t)
        v = frozenset(-nc for nc in _level_components(g, t))
        if u == v:
            continue
        poly = _level_polynomial(f, t, budget)
        if poly != _level_polynomial(g, t, budget):
            return t
        if CountForm.of(f.ambient_dim, 0, [(nc, 1) for nc in u | v]).polynomial != poly:
            return t
    return None


def validate_model(model: VarietyModel) -> ValidationReport:
    """Structural validation; report-valued, never raises on bad content.

    Serre symmetry h^(p,q)(α) = h^(n-p,n-q)(-α) is decided exactly, level
    set by level set (:func:`_serre_mismatch`).  A pair whose level sets
    must be counted but exceed the default component budget gets a warning
    that it was not decided.
    """
    findings: list[Finding] = []
    err = lambda msg: findings.append(Finding("error", msg))
    warn = lambda msg: findings.append(Finding("warning", msg))

    n, g = model.n, model.g
    if n < 0 or g < 0:
        err("dimension and irregularity must be nonnegative")
    if len(model.hodge) != n + 1 or any(len(row) != n + 1 for row in model.hodge):
        err("the rank grid must be (n+1) x (n+1)")
        return ValidationReport(tuple(findings), {})

    for p, q in model.hodge_pairs():
        rf = model.hodge[p][q]
        if rf.ambient_dim != model.torus_dim:
            err(f"rank function ({p},{q}) has ambient dimension {rf.ambient_dim}, expected {model.torus_dim}")
            continue
        for idx, ((coset, value), nc) in enumerate(zip(rf.strata, rf.normalized_strata)):
            if coset.ambient_dim != model.torus_dim:
                err(f"stratum {idx} of ({p},{q}) lives in dimension {coset.ambient_dim}")
                continue
            if value <= rf.generic_value:
                err(f"stratum {idx} of ({p},{q}) has value {value} not above the generic {rf.generic_value}")
            if nc is None:
                warn(f"stratum {idx} of ({p},{q}) is empty and unreachable")
            else:
                if nc.dim % 2 == 1:
                    warn(f"stratum {idx} of ({p},{q}) has odd real dimension {nc.dim}")
                if nc.dim == model.torus_dim:
                    warn(f"stratum {idx} of ({p},{q}) spans the whole torus; it overrides the generic value")
        # overlapping strata with neither containing the other: the max rule decides
        effective = rf.effective_strata()
        for a in range(len(effective)):
            for b in range(a + 1, len(effective)):
                (nca, va), (ncb, vb) = effective[a], effective[b]
                if va == vb:
                    continue
                meet = nca.meet(ncb)
                if meet is not None and meet != nca and meet != ncb:
                    warn(f"strata of ({p},{q}) with values {va} and {vb} overlap partially; "
                         "ranks on the overlap follow the max rule")

    origin = TorusPoint.zero(model.torus_dim)
    if model.hodge[0][0].ambient_dim == model.torus_dim and model.hodge[0][0].rank_at(origin) != 1:
        err("the (0,0) rank at the origin must be 1")
    if n >= 1 and model.hodge[1][0].ambient_dim == model.torus_dim and model.hodge[1][0].rank_at(origin) != g:
        warn(f"the (1,0) rank at the origin is {model.hodge[1][0].rank_at(origin)}, "
             f"not the irregularity {g}; the model does not present its own Albanese torus")

    try:
        delta = defect(model)
    except MissingStratification as exc:
        err(str(exc))
        delta = None
    if delta is not None:
        if delta < 0:
            err(f"the stratification implies a negative defect {delta}, which no morphism attains")
        for l, dim in model.defect_strata:
            if l < 0 or dim < 0:
                err(f"stratum ({l},{dim}) has negative entries")
            elif l + dim > n:
                err(f"stratum ({l},{dim}) cannot fit in a variety of dimension {n}")
            elif dim > g:
                err(f"stratum ({l},{dim}) exceeds the Albanese dimension {g}")
        if model.semismall and delta != 0:
            err(f"the model is flagged semismall but its defect is {delta}")

    if model.semismall:
        for p, q in model.hodge_pairs():
            if not model.hodge[p][q].is_proper() and p + q != n:
                warn(f"locus ({p},{q}) fills the torus although p+q differs from n; "
                     "a semismall model cannot do that")

    if model.pluri is not None:
        if not (0 <= model.pluri.q_base <= g):
            err(f"the Iitaka-base irregularity {model.pluri.q_base} must lie in [0, {g}]")
        for t in model.pluri.translates:
            if t.dim != model.torus_dim:
                err("a pluricanonical translate lives in the wrong torus")
        for m, v in model.pluri.values.items():
            if m < 2:
                err(f"plurigenus data for m = {m}; only m >= 2 belongs here")
            gv = model.pluri.generic_values.get(m, 0)
            if gv > v:
                err(f"generic plurigenus value {gv} exceeds the locus value {v} for m = {m}")
            if 2 * model.pluri.q_base == model.torus_dim and gv != v:
                err(f"for a full-torus pluricanonical locus the generic and locus values must agree (m = {m})")
            if model.pluri.q_base < g and gv:
                err(f"the pluricanonical locus is proper (q_base < g), so its generic value for m = {m} must be 0")

    for name, rfs in sorted(model.sheaves.items()):
        for i, rf in enumerate(rfs):
            if rf.ambient_dim != model.torus_dim:
                err(f"sheaf slot {name!r} degree {i} has the wrong ambient dimension")
            for idx, (coset, value) in enumerate(rf.strata):
                if value <= rf.generic_value:
                    err(f"sheaf slot {name!r} degree {i} stratum {idx} does not jump above the generic value")

    if model.serre_check and not any(f.severity == "error" for f in findings):
        for p, q in model.hodge_pairs():
            pd, qd = n - p, n - q
            if (pd, qd) < (p, q):
                continue  # each unordered pair once
            try:
                t = _serre_mismatch(model.hodge[p][q], model.hodge[pd][qd], DEFAULT_COMPONENT_BUDGET)
            except ComponentBudgetExceeded as exc:
                warn(f"Serre symmetry of ({p},{q}) and ({pd},{qd}) was not decided: {exc}")
                continue
            if t is not None:
                warn(f"ranks at ({p},{q}) and ({pd},{qd}) are not Serre-symmetric: "
                     f"{{h^({p},{q}) >= {t}}} and -{{h^({pd},{qd}) >= {t}}} differ")

    table = {
        p: frozenset(q for q in range(n + 1) if model.hodge[p][q].is_proper())
        for p in range(n + 1)
    }
    return ValidationReport(tuple(findings), table)
