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
named sheaf slots; construction checks its shape, and :func:`validate_model`
its content.  Equal grid entries are one object, so what a rank function
derives is derived once per distinct function.  Everything that does not
depend on the cover is kept on the model once built: the grid's count
forms compiled into one count table (:meth:`VarietyModel.hodge_table`),
each Betti number a sum of them, that every cover and every decay fit
reads, the rows' Euler characteristics (:attr:`VarietyModel.chi_p`,
:attr:`VarietyModel.chi_top`) that the tower and the L² report read, and
the one locus of every ω^m, m >= 2 (:attr:`VarietyModel.pluri_locus`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .counting import DEFAULT_COMPONENT_BUDGET, CountForm, CountTable, check_budget, covered
from .errors import ComponentBudgetExceeded, DimensionMismatch, MissingStratification, shown_int
from .torus import CongruenceCoset, NormalizedCoset, TorusPoint, _computed_once, _to_int


class Stratum(NamedTuple):
    coset: CongruenceCoset
    value: int


@dataclass(frozen=True)
class RankFunction:
    """Rank of one cohomology group as a function of the twisting point.

    Construction refuses a generic or stratum value that is not an integer
    (TypeError) and a stratum in another torus (DimensionMismatch); what the
    values mean, such as a negative rank, is left to :func:`validate_model`.

    Everything that does not depend on the cover index d is computed on
    first use, off the normalized strata, and kept on the instance: the
    limit, the origin value, the degree, the witness order and the count
    form that every d reads.
    """

    ambient_dim: int
    generic_value: int
    strata: tuple[Stratum, ...] = ()

    def __post_init__(self) -> None:
        if type(self.ambient_dim) is not int:
            object.__setattr__(self, "ambient_dim", _to_int(self.ambient_dim))
        if type(self.generic_value) is not int:
            object.__setattr__(self, "generic_value", _to_int(self.generic_value))
        strata = []  # one loop, no generator: every catalog model builds many of these
        for stratum in self.strata:
            coset, value = stratum
            if coset.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(f"a stratum lives outside the dual torus of dimension {self.ambient_dim}")
            # a Stratum of an int value is kept as it is; others are built once here
            strata.append(stratum if type(value) is int and type(stratum) is Stratum
                          else Stratum(coset, _to_int(value)))
        object.__setattr__(self, "strata", tuple(strata))

    @_computed_once
    def normalized_strata(self) -> tuple[tuple[NormalizedCoset, int], ...]:
        """(normalized coset, value) of each nonempty stratum, in order; an
        empty stratum is dropped here, and only validation names it."""
        return tuple((nc, value) for coset, value in self.strata if (nc := coset.normalize()) is not None)

    @_computed_once
    def limit(self) -> int:
        """The d^(2g) coefficient of the rank sum: the generic value with any
        stratum spanning the whole torus folded in.  It needs no Smith form."""
        best = self.generic_value
        for nc, value in self.normalized_strata:
            if value > best and nc.dim == self.ambient_dim:
                best = value
        return best

    @_computed_once
    def origin_value(self) -> int:
        """h(0): the largest of the generic value and the values of the
        nonempty strata of translate order 1, the only normalized cosets
        through the origin, since a translate is kept reduced over its order."""
        return max([self.generic_value, *(value for nc, value in self.normalized_strata if nc.order == 1)])

    @_computed_once
    def _count_form(self) -> CountForm:
        return CountForm.of(self.ambient_dim, self.limit, self.effective_strata())

    def count_form(self, budget: int) -> CountForm:
        """The limit and the signed meets of the strata above it, merged by
        Hermite form (:meth:`CountForm.of`).  The budget caps how many
        :meth:`effective_strata` the pass takes in, counted on every call."""
        check_budget(len(self.effective_strata()), budget)
        return self._count_form

    @_computed_once
    def degree(self) -> int:
        """The exponent of d in the rank sum: 2g when the limit is positive,
        else the largest real dimension of a stratum above it, -1 when there
        is none.  It is the count form's degree, since no level set's leading
        coefficient cancels, yet needs no meet, Smith form or budget."""
        if self.limit > 0:
            return self.ambient_dim
        return max((nc.dim for nc, _ in self.effective_strata()), default=-1)

    @_computed_once
    def witness_order(self) -> Optional[int]:
        """The least :attr:`~jumploci.torus.NormalizedCoset.min_order` of the
        strata above the limit of the largest real dimension, None if none:
        the smallest d where a top term of the rank sum has a point, no meet made."""
        strata = [nc for nc, _ in self.effective_strata()]
        top = max((nc.dim for nc in strata), default=-1)
        return min((nc.min_order for nc in strata if nc.dim == top), default=None)

    def is_proper(self) -> bool:
        """True when the non-vanishing locus is a proper subset of the torus."""
        return self.limit == 0

    def effective_strata(self) -> list[tuple[NormalizedCoset, int]]:
        """Nonempty, non-full strata whose value exceeds the limit."""
        return [(nc, value) for nc, value in self.normalized_strata
                if value > self.limit and nc.dim < self.ambient_dim]


def euler_char(rank_functions: Sequence[RankFunction]) -> int:
    """Alternating sum of the limits over the cohomological degrees.

    Twisting by a topologically trivial line bundle leaves the Euler
    characteristic alone, so the generic ranks already determine it.
    """
    return sum((-1) ** i * rf.limit for i, rf in enumerate(rank_functions))


def constant_rank(ambient_dim: int, value: int) -> RankFunction:
    return RankFunction(ambient_dim, value, ())


def origin_jump(ambient_dim: int, generic: int, origin_value: int) -> RankFunction:
    """Rank function jumping only at the origin (the most common shape);
    constant when the origin value does not exceed the generic one.  Each
    call builds its own origin coset, and a model maps equal entries to one
    function only over shared cosets; the catalog builds each grid around one."""
    if origin_value <= generic:
        return constant_rank(ambient_dim, generic)
    origin = CongruenceCoset.point(TorusPoint.zero(ambient_dim))
    return RankFunction(ambient_dim, generic, (Stratum(origin, origin_value),))


@dataclass(frozen=True)
class PluriData:
    """Inputs for the pluricanonical series h^0(ω^m ⊗ α).

    The non-vanishing locus of every power m ≥ 2 is the same finite union
    of translates of one subtorus of complex dimension ``q_base`` (the
    irregularity of the Iitaka base); the subtorus is taken to be the block
    of the leading 2·q_base coordinates (:attr:`VarietyModel.pluri_locus`).
    ``values[m]`` is the constant rank on the locus, so P_m(X_d) is values[m]
    times its count; the rank off it, 0, is derived, not stated, and an
    older model file's ``generic_values`` must agree with it.  Construction
    refuses a ``q_base``, exponent or value that is not an integer
    (TypeError); their ranges are left to :func:`validate_model`, and the
    locus refuses a ``q_base`` outside [0, g], which names no block.
    """

    q_base: int
    translates: tuple[TorusPoint, ...]
    values: Mapping[int, int]

    def __post_init__(self) -> None:
        if type(self.q_base) is not int:
            object.__setattr__(self, "q_base", _to_int(self.q_base))
        if not {int}.issuperset(map(type, (*self.values, *self.values.values()))):
            object.__setattr__(self, "values", {_to_int(m): _to_int(v) for m, v in self.values.items()})


@dataclass(frozen=True)
class VarietyModel:
    """n, irregularity g, the (n+1)x(n+1) grid of rank functions, and extras.
    Construction refuses an n, g or defect-stratum entry that is not an
    integer (TypeError), an n or g that is negative (ValueError), a grid of
    another shape, and a grid entry, sheaf slot or pluricanonical translate
    outside the 2g-torus (DimensionMismatch).

    Hodge symmetry and Serre duality repeat most entries of a grid, so
    construction maps grid entries with the same generic value and the same
    strata (the same coset objects with the same values) to one
    :class:`RankFunction`; its normalized strata, limit and count form are
    then derived once, and validation, the table and the decay fit read
    them per distinct function.  The grid stays equal by value to the one
    given, and nothing is shared between models.  Whether the Albanese map is
    semismall is not stated but derived: it is, exactly when :func:`defect` is 0,
    and :func:`validate_model` checks generic vanishing at that defect."""

    n: int
    g: int
    hodge: tuple[tuple[RankFunction, ...], ...]
    defect_strata: tuple[tuple[int, int], ...]
    pluri: Optional[PluriData] = None
    sheaves: Mapping[str, tuple[RankFunction, ...]] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.g) is not int:
            object.__setattr__(self, "n", _to_int(self.n))
            object.__setattr__(self, "g", _to_int(self.g))
        if not {int}.issuperset(map(type, chain(*self.defect_strata))):
            object.__setattr__(self, "defect_strata", tuple((_to_int(l), _to_int(dim))
                                                            for l, dim in self.defect_strata))
        n, dim = self.n, self.torus_dim
        if n < 0 or dim < 0:
            raise ValueError("dimension and irregularity must be nonnegative")
        if len(self.hodge) != n + 1 or any(len(row) != n + 1 for row in self.hodge):
            raise DimensionMismatch(f"the rank grid must be {n + 1} x {n + 1}")
        for rf in chain(*self.hodge, *self.sheaves.values()):
            if rf.ambient_dim != dim:
                raise DimensionMismatch(f"a rank function has ambient dimension {rf.ambient_dim}, expected {dim}")
        # equal entries become one object: the key is the generic value and each
        # stratum's coset, by identity, with its value, so no coset is hashed
        shared: dict = {}
        grid = []
        for row in self.hodge:
            entries = []
            for rf in row:
                key = [rf.generic_value]
                for coset, value in rf.strata:
                    key += (id(coset), value)
                entries.append(shared.setdefault(tuple(key), rf))
            grid.append(tuple(entries))
        object.__setattr__(self, "hodge", tuple(grid))
        if self.pluri is not None and any(t.dim != dim for t in self.pluri.translates):
            raise DimensionMismatch(f"a pluricanonical translate lives outside the dual torus of dimension {dim}")

    @property
    def torus_dim(self) -> int:
        return 2 * self.g

    def hodge_pairs(self) -> Iterable[tuple[int, int]]:
        return product(range(self.n + 1), repeat=2)

    @_computed_once
    def _most_strata(self) -> int:
        """The most strata any grid entry's count pass takes in."""
        return max(len(rf.effective_strata()) for rf in chain(*self.hodge))

    @_computed_once
    def _hodge_table(self) -> CountTable:
        n = self.n
        columns = [[rf._count_form] for row in self.hodge for rf in row]
        columns += [[self.hodge[p][k - p]._count_form for p in range(max(0, k - n), min(k, n) + 1)]
                    for k in range(2 * n + 1)]
        columns.append([CountForm(self.torus_dim, 1, ())])
        return CountTable.of(columns)

    def hodge_table(self, budget: int) -> CountTable:
        """Every number a cover reports in one table, built on first use and
        kept: a column per grid entry, row-major, then one per Betti number
        b_0 … b_2n (the sum of the forms of the entries with p + q = k, each
        distinct form read once per table), then one for d^(2g), the form of
        limit 1 and no terms; :meth:`cut` splits an evaluation.  The budget
        caps each entry's :meth:`~RankFunction.effective_strata`; it is
        checked on every call against the largest such count, and the first
        entry over it, row-major, raises before any form is built."""
        if self._most_strata > budget:
            for rf in chain(*self.hodge):
                check_budget(len(rf.effective_strata()), budget)
        return self._hodge_table

    def cut(self, values: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
        """One evaluation of :meth:`hodge_table` cut into (grid, betti, deg):
        the first (n + 1)² values, cut into rows of n + 1 by one ``zip`` of
        n + 1 references to one iterator, then b_0 … b_2n, then d^(2g)."""
        w = self.n + 1
        return tuple(zip(*(iter(values[:w * w]),) * w)), tuple(values[w * w:-1]), values[-1]

    @_computed_once
    def pluri_locus(self) -> Optional[RankFunction]:
        """The locus of every ω^m, m >= 2, built once (None without data): 1 on
        the translates pinned in this torus off the leading 2·q_base
        coordinates, 0 elsewhere.  ω^m is ``values[m]`` on it and 0 off it, and
        its limit is 1 exactly when it fills the torus (q_base = g).  A
        ``q_base`` outside [0, g] has no such block and raises ValueError."""
        pluri, dim = self.pluri, self.torus_dim
        if pluri is None:
            return None
        if not 0 <= pluri.q_base <= self.g:
            raise ValueError(f"q_base {shown_int(pluri.q_base)} lies outside [0, g] = [0, {self.g}]")
        return RankFunction(dim, 0, tuple(
            Stratum(CongruenceCoset.pinned(dim, {i: t.coords[i] for i in range(2 * pluri.q_base, dim)}), 1)
            for t in pluri.translates))

    @_computed_once
    def chi_p(self) -> tuple[int, ...]:
        """chi(Omega^p) of each row p (:func:`euler_char`); no cover changes it."""
        return tuple(euler_char(row) for row in self.hodge)

    @_computed_once
    def chi_top(self) -> int:
        """The topological Euler characteristic: sum over p of (-1)^p chi(Omega^p)."""
        return sum((-1) ** p * chi for p, chi in enumerate(self.chi_p))


class Finding(NamedTuple):
    severity: str  # "error" | "warning"
    message: str


class ValidationReport(NamedTuple):
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
    """True when every p-form row is weak-GV with index exactly n - p, that
    is, when no locus off p + q = n fills the torus."""
    return all(model.hodge[p][q].is_proper() or p + q == model.n for p, q in model.hodge_pairs())


def decay_exponent(model: VarietyModel, p: int, q: int, defect_bound: int) -> int:
    """The exponent e of the decay normalized h^(p,q) = O(d^(-e)) at defect
    bound N: e = 2(|n-p-q| - N), by generic vanishing, codim V^q(Ω^p) >=
    |p+q-n| - N.  It holds unless :func:`locus_too_large`.  The bound is an
    int, a bool is not, since it sets an exponent of d."""
    if type(defect_bound) is not int:
        raise TypeError(f"the defect bound must be an int, not {type(defect_bound).__name__}")
    return 2 * (abs(model.n - p - q) - defect_bound)


def locus_too_large(model: VarietyModel, p: int, q: int, exponent: int) -> bool:
    """The dimension criterion of the d^(-e) decay: the locus of (p,q) is
    too large exactly when its real dimension (:attr:`RankFunction.degree`)
    exceeds 2g - e.  The leading term then has d^degree points at every
    multiple of its witness order, which no finite range of d can rule out."""
    return model.hodge[p][q].degree > model.torus_dim - exponent


def _serre_mismatch(f: RankFunction, g: RankFunction, budget: int) -> Optional[int]:
    """Smallest threshold t at which {f >= t} and -{g >= t} differ; None
    when f(α) = g(-α) at every point α.

    Both functions take only their generic and stratum values, so these
    thresholds decide it.  Each level set is a set of normalized cosets:
    the full torus at or below the generic value, else the nonempty strata
    reaching t, g's negated once.  Equal sets of cosets are equal level
    sets, so presentations that mirror (equal generic values, the same
    (coset, value) pairs up to negation) agree at every threshold with no
    coset met.  Otherwise U = {f >= t} and V = -{g >= t} are equal exactly
    when V covers each coset of U and U each coset of V (:func:`covered`),
    and no form spans U ∪ V.  Where one side is the full torus, the other
    equals it exactly when it holds a coset of full dimension, the torus
    itself, since proper cosets are null: no coset is met or built.
    Raises ComponentBudgetExceeded when U or V, short of the full torus, has
    more cosets than the budget, checked for U, then V, before either test,
    so also where the other side is the full torus.
    """
    g_strata = [(-nc, value) for nc, value in g.normalized_strata]
    values = {f.generic_value, g.generic_value}
    values.update(value for _, value in f.strata + g.strata)
    for t in sorted(values):
        u = None if t <= f.generic_value else frozenset(nc for nc, value in f.normalized_strata if value >= t)
        v = None if t <= g.generic_value else frozenset(nc for nc, value in g_strata if value >= t)
        if u == v:
            continue
        for level in (u, v):
            if level is not None:
                check_budget(len(level), budget)
        if None in (u, v):
            if not any(nc.dim == f.ambient_dim for nc in (v if u is None else u)):
                return t
        elif not all(covered(x, v) for x in u) or not all(covered(y, u) for y in v):
            return t
    return None


def validate_model(model: VarietyModel, *, budget: int = DEFAULT_COMPONENT_BUDGET) -> ValidationReport:
    """The findings on the content of a well-formed model (construction
    checked its shape); report-valued, never raises on bad content.

    Serre symmetry h^(p,q)(α) = h^(n-p,n-q)(-α) is decided exactly, level
    set by level set (:func:`_serre_mismatch`), unless there are errors.  A
    pair whose level sets must be counted but hold more cosets than
    ``budget`` gets a warning that it was not decided.  Each distinct rank
    function is judged, and each distinct pair of functions decided, once
    per call; the findings are then named at every place that holds them,
    so they read as if each were checked there.

    When the stratification raises no error, generic vanishing is checked
    at the model's own defect δ: a locus of real dimension above
    2g - 2(|p+q-n| - δ) (:func:`locus_too_large`) gets a warning naming
    (p,q), that dimension, the maximum and δ.  At δ = 0 (semismall) this
    covers every locus off p + q = n that fills the torus.  The (0,0) rank,
    and for n >= 1 the (n,n) rank, is 1 at the origin (h^(n,n)(0) =
    h^0(O_X) by Serre duality).  Every cover is connected, so for n, g >= 1
    the (0,0) and (n,n) ranks must vanish off the origin.
    """
    findings: list[Finding] = []
    err = lambda msg: findings.append(Finding("error", msg))
    warn = lambda msg: findings.append(Finding("warning", msg))

    def judge(rf: RankFunction) -> list[tuple[str, Optional[str], str]]:
        """The findings on one rank function as (severity, opening, rest),
        its place to go between them; the opening None stands for the kind
        of place, which opens a finding on the whole function."""
        found = []
        if rf.generic_value < 0:
            found.append(("error", None, f" has negative generic value {shown_int(rf.generic_value)}"))
        for idx, (coset, value) in enumerate(rf.strata):
            opening, nc = f"stratum {idx} of ", coset.normalize()
            if value <= rf.generic_value:
                found.append(("error", opening, f" has value {shown_int(value)} not above the generic "
                                                f"{shown_int(rf.generic_value)}"))
            if nc is None:
                found.append(("warning", opening, " is empty and unreachable"))
            else:
                if nc.dim % 2 == 1:
                    found.append(("warning", opening, f" has odd real dimension {nc.dim}"))
                if nc.dim == model.torus_dim:
                    found.append(("warning", opening, " spans the whole torus; it overrides the generic value"))
        # overlapping strata with neither containing the other: the max rule decides
        for (nca, va), (ncb, vb) in combinations(rf.effective_strata(), 2):
            meet = nca.meet(ncb) if va != vb else None
            if meet is not None and meet != nca and meet != ncb:
                found.append(("warning", "strata of ", f" with values {shown_int(va)} and {shown_int(vb)} "
                                                       "overlap partially; ranks on the overlap follow the max rule"))
        return found

    judged: dict[int, list] = {}  # each distinct function is judged once, then named at each place

    def check_rank_function(rf: RankFunction, place: str, kind: str = "") -> None:
        """The findings on a grid entry or a sheaf slot, named ``place``; a
        finding on the whole function opens with ``kind`` before it."""
        if id(rf) not in judged:
            judged[id(rf)] = judge(rf)
        for severity, opening, rest in judged[id(rf)]:
            findings.append(Finding(severity, f"{kind if opening is None else opening}{place}{rest}"))

    n, g = model.n, model.g
    for p, q in model.hodge_pairs():
        check_rank_function(model.hodge[p][q], f"({p},{q})", "rank function ")

    for p in (0, n) if n else (0,):  # h^(n,n)(0) = h^0(O_X) = 1 by Serre duality
        if model.hodge[p][p].origin_value != 1:
            err(f"the ({p},{p}) rank at the origin must be 1")
    if n >= 1 and g >= 1:
        # every X_d is connected: h^(0,0)(α) = [α = 0], and h^(n,n) by Serre duality
        for p in (0, n):
            rf = model.hodge[p][p]
            if rf.generic_value or any(value > 0 and (nc.dim or nc.divisibility_class != (1, (), 1))
                                       for nc, value in rf.normalized_strata):
                err(f"the ({p},{p}) rank must vanish off the origin, since every cover X_d is connected")
    if n >= 1 and model.hodge[1][0].origin_value != g:
        warn(f"the (1,0) rank at the origin is {shown_int(model.hodge[1][0].origin_value)}, "
             f"not the irregularity {g}; the model does not present its own Albanese torus")
    if n == 0 and g > 0:
        warn(f"a point's Albanese torus is trivial, not of irregularity {g}; "
             "the model does not present its own Albanese torus")

    before = len(findings)  # the stratification adds errors only
    try:
        delta = defect(model)
    except MissingStratification as exc:
        err(str(exc))
        delta = None
    if delta is not None:
        if delta < 0:
            err(f"the stratification implies a negative defect {shown_int(delta)}, which no morphism attains")
        for l, dim in model.defect_strata:
            if l < 0 or dim < 0:
                err(f"stratum ({shown_int(l)},{shown_int(dim)}) has negative entries")
            elif l + dim > n:
                err(f"stratum ({shown_int(l)},{shown_int(dim)}) cannot fit in a variety of dimension {n}")
            elif dim > g:
                err(f"stratum ({shown_int(l)},{shown_int(dim)}) exceeds the Albanese dimension {g}")
        # the general fiber has dimension k = n - dim V_0; V_l shrinks as l grows, and is V_0 for l <= k
        if len(findings) == before:
            k = n - next(dim for l, dim in model.defect_strata if l == 0)
            for l, dim in model.defect_strata:
                if l <= k and dim != n - k:
                    err(f"stratum ({l},{dim}) contradicts V_0 of dimension {n - k}: the general fiber "
                        f"has dimension {k}, so V_l = V_0 for every l <= {k}")
                elif any(other < l and below < dim for other, below in model.defect_strata):
                    err(f"stratum ({l},{dim}) is larger than a stratum of smaller l; V_l cannot grow as l grows")

    if len(findings) == before:
        # generic vanishing at the model's own defect: codim V^q(Ω^p) >= |p+q-n| - delta
        for p, q in model.hodge_pairs():
            e = decay_exponent(model, p, q, delta)
            if locus_too_large(model, p, q, e):
                warn(f"locus ({p},{q}) has real dimension {model.hodge[p][q].degree}; generic vanishing "
                     f"at defect {delta} allows at most {model.torus_dim - e}")

    if model.pluri is not None:
        if not (0 <= model.pluri.q_base <= g):
            err(f"the Iitaka-base irregularity {shown_int(model.pluri.q_base)} must lie in [0, {g}]")
        for m, v in model.pluri.values.items():
            if v < 0:
                err(f"plurigenus value {shown_int(v)} for m = {shown_int(m)} is negative")
            if m < 2:
                err(f"plurigenus data for m = {shown_int(m)}; only m >= 2 belongs here")

    for name, rfs in sorted(model.sheaves.items()):
        for i, rf in enumerate(rfs):
            check_rank_function(rf, f"sheaf slot {name!r} degree {i}")

    if not any(f.severity == "error" for f in findings):
        decided: dict = {}  # each distinct pair of functions once: its threshold or its budget error
        for p, q in model.hodge_pairs():
            pd, qd = n - p, n - q
            if (pd, qd) < (p, q):
                continue  # each unordered pair once
            f, h = model.hodge[p][q], model.hodge[pd][qd]
            key = (id(f), id(h))
            if key not in decided:
                try:
                    decided[key] = _serre_mismatch(f, h, budget)
                except ComponentBudgetExceeded as exc:
                    decided[key] = exc
            t = decided[key]
            if isinstance(t, ComponentBudgetExceeded):
                warn(f"Serre symmetry of ({p},{q}) and ({pd},{qd}) was not decided: {t}")
            elif t is not None:
                warn(f"ranks at ({p},{q}) and ({pd},{qd}) are not Serre-symmetric: "
                     f"{{h^({p},{q}) >= {shown_int(t)}}} and -{{h^({pd},{qd}) >= {shown_int(t)}}} differ")

    table = {p: frozenset(q for q in range(n + 1) if model.hodge[p][q].is_proper()) for p in range(n + 1)}
    return ValidationReport(tuple(findings), table)
