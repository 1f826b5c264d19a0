"""Rank functions, validation, weak-GV classification, defect."""

import dataclasses
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import chain, product

import pytest

from jumploci import (
    DEFAULT_INSTANCES,
    CongruenceCoset,
    DimensionMismatch,
    MissingStratification,
    NormalizedCoset,
    PluriData,
    RankFunction,
    Stratum,
    TorusPoint,
    VarietyModel,
    builtin,
    builtin_names,
    classify_weak_gv,
    constant_rank,
    defect,
    origin_jump,
    satisfies_weak_generic_nakano,
    save_model,
    validate_model,
)
from jumploci.counting import DEFAULT_COMPONENT_BUDGET
from jumploci.errors import ECHO_CHARS
from jumploci.asymptotics import converse_defect_witness, divergence_class, fit_bounds
from jumploci.cli import main
from jumploci.model import _serre_mismatch
from jumploci.modelfile import model_to_dict
from jumploci.tower import sheaf_rank_on_cover, summands, value_on_cover
from gen import CATALOG_SWEEP, random_coset, random_fraction, random_model, random_point
from oracles import rank_at


def origin_coset(n):
    return CongruenceCoset.point(TorusPoint.zero(n))


class TestRankAt:
    """The engine reads a rank function at the origin only (origin_value);
    other points are read by the oracle, off each stratum's (A, b)."""

    def test_constant(self):
        rf = constant_rank(2, 1)
        assert rank_at(rf, TorusPoint.zero(2)) == rf.origin_value == 1
        assert rank_at(rf, TorusPoint.of([Fraction(1, 3), 0])) == 1

    def test_origin_jump(self):
        rf = origin_jump(2, 0, 4)
        assert rank_at(rf, TorusPoint.zero(2)) == rf.origin_value == 4
        assert rank_at(rf, TorusPoint.of([Fraction(1, 2), 0])) == 0

    def test_overlap_takes_max(self):
        line = CongruenceCoset.of(2, [[0, 1]], [0])
        rf = RankFunction(2, 0, (Stratum(line, 2), Stratum(origin_coset(2), 5)))
        assert rank_at(rf, TorusPoint.zero(2)) == rf.origin_value == 5
        assert rank_at(rf, TorusPoint.of([Fraction(1, 3), 0])) == 2

    def test_origin_value_matches_the_oracle(self):
        # every catalog instance, invariance model and golden model, and 80
        # seeded functions whose strata may be empty, fill the torus, or pass
        # through the origin or off it, where one may top every value at it
        models = [builtin(name, **params).model for name, params in (*DEFAULT_INSTANCES, *CATALOG_SWEEP)]
        models += [random_model(random.Random(f"invariance:{seed}")) for seed in range(20)]
        models += [random_model(random.Random(f"golden:{k}")) for k in (1, 2, 5)]
        functions = [rf for model in models for rf in chain(*model.hodge, *model.sheaves.values())]
        rng = random.Random(1313)
        for _ in range(80):
            dim = rng.choice((2, 4))
            strata = [Stratum(random_coset(rng, dim, max_rows=2), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.3:
                strata.append(Stratum(CongruenceCoset.full_torus(dim), rng.randint(1, 6)))
            if rng.random() < 0.3:  # x0 ≡ b and x0 ≡ b + 1/2 hold nowhere
                b = random_fraction(rng)
                strata.append(Stratum(CongruenceCoset.of(dim, [[1] + [0] * (dim - 1)] * 2, [b, b + Fraction(1, 2)]),
                                      rng.randint(1, 6)))
            functions.append(RankFunction(dim, rng.randint(0, 2), tuple(strata)))
        kinds = Counter()
        for rf in functions:
            origin = TorusPoint.zero(rf.ambient_dim)
            assert rf.origin_value == rank_at(rf, origin)
            for coset, value in rf.strata:
                nc = coset.normalize()
                through = rank_at(RankFunction(rf.ambient_dim, 0, (Stratum(coset, 1),)), origin) == 1
                kinds["empty"] += nc is None
                kinds["full"] += nc is not None and nc.dim == rf.ambient_dim
                kinds["through the origin"] += through
                kinds["off the origin, above every value at it"] += nc is not None and not through and value > rf.origin_value
        assert len(kinds) == 4 and min(kinds.values()) >= 10, kinds

    def test_effective_generic_folds_full_torus(self):
        rf = RankFunction(2, 1, (Stratum(CongruenceCoset.full_torus(2), 3),))
        assert rf.limit == 3
        assert not rf.is_proper()

    def test_level_sets_are_unions_of_strata(self):
        # semicontinuity by construction: {rank >= t} is the union of the
        # strata reaching t, for every threshold above the generic value
        rng = random.Random(777)
        from gen import random_rank_function
        for _ in range(30):
            rf = random_rank_function(rng, rng.choice((2, 3)))
            values = sorted({v for _, v in rf.strata if v > rf.generic_value})
            for t in values:
                level = [c for c, v in rf.strata if v >= t]
                for _ in range(8):
                    x = random_point(rng, rf.ambient_dim, 4)
                    assert (rank_at(rf, x) >= t) == any(c.contains(x) for c in level)

    def test_classification_stable_under_permutation(self):
        # the order of the strata changes nothing that is read off them
        rng = random.Random(333)
        entry = builtin("fibered_over_curve", genus=2)
        model = entry.model
        for p in range(model.n + 1):
            for q in range(model.n + 1):
                rf = model.hodge[p][q]
                shuffled = list(rf.strata)
                rng.shuffle(shuffled)
                permuted = RankFunction(rf.ambient_dim, rf.generic_value, tuple(shuffled))
                read = lambda f: (f.origin_value, f.limit, f.degree, f.witness_order,
                                  f.count_form(DEFAULT_COMPONENT_BUDGET).polynomial,
                                  [sheaf_rank_on_cover(f, d) for d in range(1, 5)])
                assert read(permuted) == read(rf)
                for _ in range(10):
                    x = random_point(rng, model.torus_dim, 4)
                    assert rank_at(permuted, x) == rank_at(rf, x)


class TestValueTypes:
    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), Decimal("1.5"), "1"], ids=repr)
    def test_rank_function_refuses_non_integers(self, bad):
        with pytest.raises(TypeError):
            RankFunction(2, bad)
        with pytest.raises(TypeError):
            RankFunction(2, 0, (Stratum(origin_coset(2), bad),))

    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN", "sNaN"])
    def test_rank_function_refuses_non_finite_decimals(self, bad):
        # int() raises OverflowError or ValueError for these; the rule says TypeError
        with pytest.raises(TypeError):
            RankFunction(2, Decimal(bad))
        with pytest.raises(TypeError):
            RankFunction(2, 0, (Stratum(origin_coset(2), Decimal(bad)),))

    @pytest.mark.parametrize("bad", [2.5, Fraction(5, 2)], ids=repr)
    def test_rank_function_refuses_a_non_integral_ambient_dimension(self, bad):
        # a float dimension used to reach the counts: sheaf_rank_on_cover gave 32.0
        with pytest.raises(TypeError):
            RankFunction(bad, 1, ())
        rf = RankFunction(Fraction(4), 1, ())
        assert rf == RankFunction(4, 1, ()) and type(rf.ambient_dim) is int
        assert sheaf_rank_on_cover(rf, 4) == 4 ** 4

    def test_rank_function_takes_integral_values_as_ints(self):
        rf = RankFunction(2, Fraction(1), (Stratum(origin_coset(2), Decimal(3)),))
        assert rf == RankFunction(2, 1, (Stratum(origin_coset(2), 3),))
        assert type(rf.generic_value) is int and type(rf.strata[0].value) is int

    def test_rank_function_refuses_a_stratum_in_another_torus(self):
        # such a stratum never meets the d-torsion points of (R/Z)^2: its counts read 0
        with pytest.raises(DimensionMismatch):
            RankFunction(2, 0, (Stratum(origin_coset(4), 1),))

    def test_pluri_data_refuses_non_integers(self):
        point = (TorusPoint.zero(2),)
        for bad in ({2: 2.5}, {2: Fraction(5, 2)}, {Fraction(5, 2): 1}, {2: "2"}):
            with pytest.raises(TypeError):
                PluriData(1, point, bad)
        with pytest.raises(TypeError):
            PluriData(0.5, point, {2: 3})
        pluri = PluriData(Fraction(1), point, {Decimal(2): Fraction(3)})
        assert pluri == PluriData(1, point, {2: 3})
        assert [type(x) for x in (pluri.q_base, *pluri.values, *pluri.values.values())] == [int] * 3

    def test_model_refuses_non_integral_n_and_g(self):
        base = builtin("abelian", g=1).model
        for change in ({"n": 1.0}, {"g": Fraction(1, 2)}, {"g": "1"}):
            with pytest.raises(TypeError):
                dataclasses.replace(base, **change)
        assert dataclasses.replace(base, n=Fraction(1), g=Decimal(1)) == base

    def test_model_refuses_non_integral_defect_strata(self):
        base = builtin("abelian", g=1).model
        for bad in (((0, 1.0),), ((Fraction(1, 2), 1),), ((0, "1"),)):
            with pytest.raises(TypeError):
                dataclasses.replace(base, defect_strata=bad)
        model = dataclasses.replace(base, defect_strata=((Fraction(0), Decimal(1)),))
        assert model == base and [type(x) for x in model.defect_strata[0]] == [int, int]

    def test_model_refuses_a_malformed_shape(self):
        # each of these used to build, and a library reader met the shape
        # later: a count in the wrong torus, an IndexError, or ignored coordinates
        point = lambda dim: ((constant_rank(dim, 1),),)
        with pytest.raises(ValueError, match="^dimension and irregularity must be nonnegative$"):
            VarietyModel(n=-1, g=1, hodge=(), defect_strata=())
        with pytest.raises(ValueError, match="^dimension and irregularity must be nonnegative$"):
            VarietyModel(n=0, g=-1, hodge=point(0), defect_strata=((0, 0),))
        with pytest.raises(DimensionMismatch, match="^the rank grid must be 2 x 2$"):
            VarietyModel(n=1, g=1, hodge=point(2), defect_strata=((0, 1),))
        ragged = ((constant_rank(2, 1), constant_rank(2, 1)), (constant_rank(2, 1),))
        with pytest.raises(DimensionMismatch, match="^the rank grid must be 2 x 2$"):
            VarietyModel(n=1, g=1, hodge=ragged, defect_strata=((0, 1),))
        # cover_invariants read this as a point with h^(0,0)(X_3) = 81 beside deg = 9
        with pytest.raises(DimensionMismatch, match="^a rank function has ambient dimension 4, expected 2$"):
            VarietyModel(n=0, g=1, hodge=point(4), defect_strata=((0, 0),))
        with pytest.raises(DimensionMismatch, match="^a rank function has ambient dimension 4, expected 2$"):
            VarietyModel(n=0, g=1, hodge=point(2), defect_strata=((0, 0),), sheaves={"L": (constant_rank(4, 0),)})
        base = builtin("abelian", g=1).model
        for coords in ([0], [0, 0, 0, 0]):  # too short: IndexError; too long: extra coordinates ignored
            pluri = PluriData(0, (TorusPoint.of(coords),), {2: 1})
            with pytest.raises(DimensionMismatch, match="^a pluricanonical translate lives outside the dual "
                                                        "torus of dimension 2$"):
                dataclasses.replace(base, pluri=pluri)


class TestValidation:
    def test_abelian_clean(self):
        report = validate_model(builtin("abelian", g=2).model)
        assert report.ok
        assert not report.findings

    def test_stratum_not_above_generic_is_error(self):
        grid = ((RankFunction(2, 1, (Stratum(origin_coset(2), 1),)),),)
        model = VarietyModel(n=0, g=1, hodge=grid, defect_strata=((0, 0),))
        report = validate_model(model)
        assert any("not above the generic" in f.message for f in report.errors)

    def test_negative_ranks_are_errors(self):
        base = builtin("abelian", g=1).model
        grid = [list(row) for row in base.hodge]
        grid[1][0] = RankFunction(2, -3, grid[1][0].strata)
        model = dataclasses.replace(base, hodge=tuple(map(tuple, grid)))
        assert [f.message for f in validate_model(model).errors] == [
            "rank function (1,0) has negative generic value -3"]
        sheaf = dataclasses.replace(base, sheaves={"L": (constant_rank(2, 0), constant_rank(2, -1))})
        assert [f.message for f in validate_model(sheaf).errors] == [
            "sheaf slot 'L' degree 1 has negative generic value -1"]
        pluri = PluriData(q_base=1, translates=(TorusPoint.zero(2),), values={2: -2, 3: -1})
        assert [f.message for f in validate_model(dataclasses.replace(base, pluri=pluri)).errors] == [
            "plurigenus value -2 for m = 2 is negative",
            "plurigenus value -1 for m = 3 is negative"]

    def test_huge_model_integers_are_quoted_short(self):
        # str() refuses an int past the interpreter's digit cap (4300 by
        # default): validation reported with a ValueError, or quoted in full
        huge = 10 ** 5000 - 1
        cut, neg = "9" * ECHO_CHARS + "...", "-" + "9" * (ECHO_CHARS - 1) + "..."
        base = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        pluri = PluriData(huge, base.pluri.translates, {2: huge, 3: -huge, -huge: 1})
        messages = [f.message for f in validate_model(dataclasses.replace(base, pluri=pluri)).errors]
        assert messages == [
            f"the Iitaka-base irregularity {cut} must lie in [0, 2]",
            f"plurigenus value {neg} for m = 3 is negative",
            f"plurigenus data for m = {neg}; only m >= 2 belongs here"]
        grid = [list(row) for row in base.hodge]
        grid[0][1] = RankFunction(4, -huge, (Stratum(origin_coset(4), -huge),))
        grid[1][0] = RankFunction(4, huge, (Stratum(origin_coset(4), huge),))
        model = dataclasses.replace(base, hodge=tuple(map(tuple, grid)), defect_strata=((0, 1), (huge, -huge)))
        messages = [f.message for f in validate_model(model).findings]
        assert f"rank function (0,1) has negative generic value {neg}" in messages
        assert f"stratum 0 of (0,1) has value {neg} not above the generic {neg}" in messages
        assert f"stratum 0 of (1,0) has value {cut} not above the generic {cut}" in messages
        assert f"the (1,0) rank at the origin is {cut}, not the irregularity 2; " \
               "the model does not present its own Albanese torus" in messages
        assert f"stratum ({cut},{neg}) has negative entries" in messages
        assert max(map(len, messages)) < 300

    def test_sheaf_slots_get_the_grid_findings(self):
        # one validator for both: the same rank function gets the same
        # findings at a grid entry and in a sheaf slot, in its own wording
        base = builtin("abelian", g=1).model
        empty = CongruenceCoset.of(2, [[1, 0], [1, 0]], [0, Fraction(1, 2)])
        line = lambda i, b: CongruenceCoset.pinned(2, {i: b})
        cases = [
            (RankFunction(2, 0, (Stratum(empty, 1),)),
             [("warning", "stratum 0 of {} is empty and unreachable")]),
            (RankFunction(2, 1, (Stratum(origin_coset(2), 1),)),
             [("error", "stratum 0 of {} has value 1 not above the generic 1")]),
            (RankFunction(2, 0, (Stratum(line(0, 0), 1), Stratum(line(1, 0), 2))),
             [("warning", "stratum 0 of {} has odd real dimension 1"),
              ("warning", "stratum 1 of {} has odd real dimension 1"),
              ("warning", "strata of {} with values 1 and 2 overlap partially; "
                          "ranks on the overlap follow the max rule")]),
        ]
        for rf, expected in cases:
            grid = [list(row) for row in base.hodge]
            grid[0][1] = rf
            at_grid = validate_model(dataclasses.replace(base, hodge=tuple(map(tuple, grid))))
            in_slot = validate_model(dataclasses.replace(base, sheaves={"L": (constant_rank(2, 0), rf)}))
            own = [tuple(f) for f in at_grid.findings if f.message.startswith(("rank function", "strat"))]
            assert own == [(severity, message.format("(0,1)")) for severity, message in expected]
            assert [tuple(f) for f in in_slot.findings] == [
                (severity, message.format("sheaf slot 'L' degree 1")) for severity, message in expected]
        # a rank function in another torus is refused at construction, in either place
        grid = [list(row) for row in base.hodge]
        grid[0][1] = constant_rank(4, 0)
        with pytest.raises(DimensionMismatch, match="ambient dimension 4, expected 2"):
            dataclasses.replace(base, hodge=tuple(map(tuple, grid)))
        with pytest.raises(DimensionMismatch, match="ambient dimension 4, expected 2"):
            dataclasses.replace(base, sheaves={"L": (constant_rank(2, 0), constant_rank(4, 0))})

    def test_proper_pluri_locus_needs_zero_generic_value(self):
        # q_base = 0 < g: the rank of ω^2 is 3 at the origin and is derived
        # to be 0 off it, so P_2 and pluri_limit agree
        base = builtin("abelian", g=2).model
        pluri = PluriData(q_base=0, translates=(TorusPoint.zero(4),), values={2: 3})
        model = dataclasses.replace(base, pluri=pluri)
        assert validate_model(model).ok
        (c, rf), = summands(model, ("pluri", 2))
        assert (c, rf) == (3, model.pluri_locus)
        assert (rf.generic_value, rf.limit) == (0, 0)
        assert [c * rank_at(rf, TorusPoint.of(x)) for x in ([0] * 4, [Fraction(1, 2), 0, 0, 0])] == [3, 0]
        assert [value_on_cover(model, ("pluri", 2), d) for d in (1, 2, 3)] == [3, 3, 3]

    def test_stratification_that_contradicts_itself_is_error(self):
        # dim V_0 = 1 < n = 2: the general fiber is a curve, so V_1 = V_0
        base = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        report = validate_model(dataclasses.replace(base, defect_strata=((0, 1), (1, 0))))
        assert [f.message for f in report.errors] == [
            "stratum (1,0) contradicts V_0 of dimension 1: the general fiber has dimension 1, "
            "so V_l = V_0 for every l <= 1"]
        base = builtin("blowup_abelian4_curve", genus=2).model
        report = validate_model(dataclasses.replace(base, defect_strata=((0, 4), (1, 1), (2, 2))))
        assert [f.message for f in report.errors] == [
            "stratum (2,2) is larger than a stratum of smaller l; V_l cannot grow as l grows"]
        # past the general fiber dimension V_l is proper, which l + dim V_l <= n already demands
        report = validate_model(dataclasses.replace(base, defect_strata=((0, 3), (2, 3))))
        assert [f.message for f in report.errors] == ["stratum (2,3) cannot fit in a variety of dimension 4"]
        for name, params in (*DEFAULT_INSTANCES, *CATALOG_SWEEP):
            assert validate_model(builtin(name, **params).model).ok

    def test_defect_zero_is_semismall(self):
        # no flag states it: at defect 0 generic vanishing allows no full locus off p + q = n
        base = builtin("blowup_abelian_codim", g=2, c=2).model
        grid = [list(row) for row in base.hodge]
        for p, q in ((0, 1), (2, 1)):  # a Serre pair
            grid[p][q] = RankFunction(4, 1, grid[p][q].strata)
        model = dataclasses.replace(base, hodge=tuple(map(tuple, grid)))
        semismall = [f"locus ({p},{q}) has real dimension 4; generic vanishing at defect 0 allows at most 2"
                     for p, q in ((0, 1), (2, 1))]
        report = validate_model(model)
        assert defect(model) == 0 and report.ok
        assert [f.message for f in report.warnings] == semismall
        positive = dataclasses.replace(model, defect_strata=((0, 2), (1, 1)))
        assert defect(positive) == 1 and not validate_model(positive).findings
        contradicted = dataclasses.replace(model, defect_strata=((0, 2), (0, 1)))
        report = validate_model(contradicted)
        assert defect(contradicted) == 0 and not report.warnings
        assert [f.message for f in report.errors] == [
            "stratum (0,1) contradicts V_0 of dimension 2: the general fiber has dimension 0, "
            "so V_l = V_0 for every l <= 0"]

    def test_every_cover_is_connected(self):
        # h^(0,0)(α) = [α = 0], and h^(n,n) likewise: with another point the
        # cover X_3 of the first case would have h^(0,0) = 2
        base = builtin("abelian", g=1).model
        third = CongruenceCoset.point(TorusPoint.of([Fraction(1, 3), 0]))
        two_torsion = CongruenceCoset.of(2, [[2, 0], [0, 2]], [0, 0])  # dimension 0, order 1, Smith data
        cases = [
            RankFunction(2, 0, (Stratum(origin_coset(2), 1), Stratum(third, 1))),
            RankFunction(2, 0, (Stratum(origin_coset(2), 1), Stratum(two_torsion, 1))),
            RankFunction(2, 0, (Stratum(CongruenceCoset.pinned(2, {0: 0}), 1),)),
            RankFunction(2, 1, ()),
        ]
        for rf in cases:
            for p in (0, 1):
                grid = [list(row) for row in base.hodge]
                grid[p][p] = rf
                report = validate_model(dataclasses.replace(base, hodge=tuple(map(tuple, grid))))
                errors = [f.message for f in report.errors]
                assert errors == [f"the ({p},{p}) rank must vanish off the origin, since every cover X_d is connected"]
        # the origin written with other rows, and an empty stratum, are the origin
        origin = CongruenceCoset.of(2, [[1, 1], [0, 1]], [0, 0])
        empty = CongruenceCoset.of(2, [[1, 0], [1, 0]], [0, Fraction(1, 2)])
        grid = [list(row) for row in base.hodge]
        grid[0][0] = grid[1][1] = RankFunction(2, 0, (Stratum(origin, 1), Stratum(empty, 1)))
        assert validate_model(dataclasses.replace(base, hodge=tuple(map(tuple, grid)))).ok
        # a torus of dimension 0 is its origin, and a point n = 0 keeps its own warning
        flat = VarietyModel(n=1, g=0, hodge=((constant_rank(0, 1),) * 2,) * 2, defect_strata=((0, 0), (1, 0)))
        assert validate_model(flat).ok
        point = VarietyModel(n=0, g=1, hodge=((constant_rank(2, 1),),), defect_strata=((0, 0),))
        assert [tuple(f) for f in validate_model(point).findings] == [
            ("warning", "a point's Albanese torus is trivial, not of irregularity 1; "
                        "the model does not present its own Albanese torus")]

    def test_top_rank_at_the_origin_is_one(self):
        # h^(n,n)(0) = h^0(O_X) = 1 by Serre duality; with 2 there, tower
        # printed h_1_1 = b_2 = 2 on every cover of this would-be curve
        grid = ((origin_jump(2, 0, 1),) * 2, (origin_jump(2, 0, 1), origin_jump(2, 0, 2)))
        curve = VarietyModel(n=1, g=1, hodge=grid, defect_strata=((0, 1),))
        assert [f.message for f in validate_model(curve).errors] == ["the (1,1) rank at the origin must be 1"]
        base = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        for value in (0, 2):
            grid = [list(row) for row in base.hodge]
            grid[2][2] = origin_jump(base.torus_dim, 0, value)
            report = validate_model(dataclasses.replace(base, hodge=tuple(map(tuple, grid))))
            assert [f.message for f in report.errors] == ["the (2,2) rank at the origin must be 1"]
        # a point's (0,0) entry is its (n,n) entry: one error, not two
        point = VarietyModel(n=0, g=0, hodge=((constant_rank(0, 2),),), defect_strata=((0, 0),))
        assert [f.message for f in validate_model(point).errors] == ["the (0,0) rank at the origin must be 1"]

    def test_serre_asymmetry_warns(self):
        # a surface-shaped grid with h^(0,1) and h^(1,0) disagreeing at the origin
        g = 1
        grid = (
            (origin_jump(2, 0, 1), origin_jump(2, 0, 2), origin_jump(2, 0, 1)),
            (origin_jump(2, 0, 1), origin_jump(2, 0, 3), origin_jump(2, 0, 1)),
            (origin_jump(2, 0, 1), origin_jump(2, 0, 1), origin_jump(2, 0, 1)),
        )
        model = VarietyModel(n=2, g=g, hodge=grid, defect_strata=((0, 1), (1, 1)))
        report = validate_model(model)
        assert any("Serre" in f.message for f in report.warnings)

    def test_odd_dimension_warns(self):
        line = CongruenceCoset.of(2, [[0, 1]], [0])
        grid = (
            (origin_jump(2, 0, 1), RankFunction(2, 0, (Stratum(line, 1),))),
            (origin_jump(2, 0, 1), origin_jump(2, 0, 1)),
        )
        model = VarietyModel(n=1, g=1, hodge=grid, defect_strata=((0, 1),))
        report = validate_model(model)
        assert any("odd real dimension" in f.message for f in report.warnings)

    def test_blowup_serre_clean(self):
        report = validate_model(builtin("blowup_abelian4_curve", genus=3).model)
        assert report.ok
        assert not report.warnings

    def test_shared_origin_coset_is_normalized_once(self, monkeypatch):
        # every entry of the g = 32 grid jumps on one shared 64 x 64 origin
        # coset; validating normalizes it once, and the report equals that
        # of a copy whose entries each hold their own coset
        from jumploci import torus

        model = builtin("abelian", g=32).model
        origin = model.hodge[0][0].strata[0].coset
        assert all(rf.strata[0].coset is origin for row in model.hodge for rf in row)
        built = []
        hermite = torus._hermite

        def recording_hermite(*args):
            built.append(hermite(*args))
            return built[-1]

        monkeypatch.setattr(torus, "_hermite", recording_hermite)
        report = validate_model(model)
        assert built == [origin.normalize()] and built[0] is origin.normalize()
        monkeypatch.undo()

        def own_cosets(rf):
            return RankFunction(rf.ambient_dim, rf.generic_value, tuple(
                Stratum(CongruenceCoset(c.ambient_dim, c.rows, c.rhs), v) for c, v in rf.strata))

        copy = dataclasses.replace(model, hodge=tuple(tuple(map(own_cosets, row)) for row in model.hodge))
        assert validate_model(copy) == report
        assert report.ok and not report.findings

    def test_weak_gv_table(self):
        report = validate_model(builtin("blowup_abelian4_curve", genus=2).model)
        assert report.weak_gv_table[1] == frozenset({0, 1, 3, 4})
        assert report.weak_gv_table[0] == frozenset({0, 1, 2, 3, 4})


def curve_grid(h01, h10):
    """n = g = 1 grid with origin jumps on the diagonal and the given off-diagonal."""
    return VarietyModel(n=1, g=1, hodge=((origin_jump(2, 0, 1), h01), (h10, origin_jump(2, 0, 1))),
                        defect_strata=((0, 1),))


def jump(rows, rhs, value=1):
    return RankFunction(2, 0, (Stratum(CongruenceCoset.of(2, rows, rhs), value),))


def serre_warnings(model):
    return [f.message for f in validate_model(model).warnings if "Serre" in f.message]


# rows whose 2x2 minors all divide 4 and translates with denominators dividing
# 6: every point of every stratum and of every meet then has order dividing
# 24, and every line component has 24 points of order dividing 24, more than
# the other strata can cut out of it, so the 24-torsion grid meets every cell
# of the arrangement and decides symmetry by brute force
SERRE_ROWS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2))
SERRE_RHS = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
SERRE_D = 24


def negated(stratum):
    coset, value = stratum
    return Stratum(CongruenceCoset.of(2, coset.rows, [-b for b in coset.rhs]), value)


def mirrored_pair(rng):
    """A random rank function f and g = -f, changed at random.

    A bumped value, a shifted translate or a dropped stratum usually breaks
    the symmetry.  A disconnected stratum split into its two components, or
    a smaller stratum nested in a larger one at no higher value (also the
    fallback when there is nothing to split), keeps the level sets but
    presents them by other cosets, so only counting can tell.
    """
    generic = rng.randint(0, 1)
    strata = []
    for _ in range(rng.randint(1, 3)):
        rows = rng.sample(SERRE_ROWS, rng.randint(1, 2))
        coset = CongruenceCoset.of(2, rows, [rng.choice(SERRE_RHS) for _ in rows])
        strata.append(Stratum(coset, generic + rng.randint(1, 3)))
    mirror = [negated(s) for s in strata]
    rng.shuffle(mirror)
    i = rng.randrange(len(mirror))
    coset, value = mirror[i]
    kind = rng.choice(("same", "bump", "shift", "drop", "split", "nest"))
    if kind == "same":
        pass
    elif kind == "bump":
        mirror[i] = Stratum(coset, value + 1)
    elif kind == "shift":
        rhs = list(coset.rhs)
        rhs[0] += rng.choice((Fraction(1, 2), Fraction(1, 3)))
        mirror[i] = Stratum(CongruenceCoset.of(2, coset.rows, rhs), value)
    elif kind == "drop":
        del mirror[i]
    elif kind == "split" and (2, 0) in coset.rows:
        # {2·x0 ≡ b} is the union of {x0 ≡ b/2} and {x0 ≡ b/2 + 1/2}
        k = coset.rows.index((2, 0))
        for half in (0, Fraction(1, 2)):
            rows = coset.rows[:k] + ((1, 0),) + coset.rows[k + 1:]
            rhs = coset.rhs[:k] + (coset.rhs[k] / 2 + half,) + coset.rhs[k + 1:]
            mirror.append(Stratum(CongruenceCoset.of(2, rows, rhs), value))
        del mirror[i]
    else:
        row = rng.choice(SERRE_ROWS)
        for c in rng.sample(SERRE_RHS, len(SERRE_RHS)):  # prefer a nonempty one
            inner = CongruenceCoset.of(2, coset.rows + (row,), coset.rhs + (c,))
            if inner.normalize() is not None:
                break
        mirror.append(Stratum(inner, rng.randint(generic + 1, value)))
    return RankFunction(2, generic, tuple(strata)), RankFunction(2, generic, tuple(mirror))


def presented(rf):
    """The nonempty normalized strata of a rank function, with their values."""
    return {(nc, v) for c, v in rf.strata if (nc := c.normalize()) is not None}


def mirrors(f, g):
    """Whether the presentations of f and -g are the same: equal generic
    values and the same nonempty normalized strata with their values."""
    return f.generic_value == g.generic_value and presented(f) == {(-nc, v) for nc, v in presented(g)}


def with_nested_stratum(g, f, rng):
    """g with one more stratum, nested in a nonempty one of g's own at no
    higher value, so the same function, drawn so that its presentation does
    not mirror f's; None when there is none.  Its value is g's generic value
    or one that f or g already takes, so the thresholds, and the smallest
    one at which the level sets differ, stay the same."""
    values = {g.generic_value, *(value for _, value in f.strata + g.strata)}
    candidates = [(c, row, b, w) for c, v in g.strata if c.normalize() is not None
                  for row in SERRE_ROWS for b in SERRE_RHS for w in values if g.generic_value <= w <= v]
    rng.shuffle(candidates)
    candidates.sort(key=lambda candidate: candidate[-1] == g.generic_value)  # a jumped value first
    for coset, row, b, w in candidates:
        inner = CongruenceCoset.of(2, coset.rows + (row,), coset.rhs + (b,))
        nested = RankFunction(2, g.generic_value, (*g.strata, Stratum(inner, w)))
        if inner.normalize() is not None and not mirrors(f, nested):
            return nested
    return None


def brute_mismatch(f, g, d):
    """Smallest threshold t where {f >= t} and -{g >= t} differ on the d-torsion grid."""
    values = sorted({f.generic_value, g.generic_value} | {v for _, v in f.strata + g.strata})
    found = None
    for ys in product(range(d), repeat=2):
        alpha = TorusPoint.of([Fraction(y, d) for y in ys])
        a, b = rank_at(f, alpha), rank_at(g, -alpha)
        if a != b:
            t = min(v for v in values if v > min(a, b))
            found = t if found is None else min(found, t)
    return found


class TestSerreSymmetry:
    def test_roadmap_counterexample_warns(self):
        # h^(0,1) jumps on {x0 = 1/3}, h^(1,0) at (2/3, 0): the two agree at
        # every sampled 2-torsion point and stratum witness, yet differ
        model = curve_grid(jump([[1, 0]], [Fraction(1, 3)]),
                           jump([[1, 0], [0, 1]], [Fraction(2, 3), 0]))
        assert serre_warnings(model) == [
            "ranks at (0,1) and (1,0) are not Serre-symmetric: "
            "{h^(0,1) >= 1} and -{h^(1,0) >= 1} differ"]

    def test_disconnected_coset_against_one_component(self):
        both = jump([[2, 0]], [0])
        assert serre_warnings(curve_grid(both, jump([[1, 0]], [0])))
        assert serre_warnings(curve_grid(jump([[1, 0]], [Fraction(1, 2)]), both))
        # the two components together are the disconnected coset
        split = RankFunction(2, 0, (Stratum(CongruenceCoset.of(2, [[1, 0]], [0]), 1),
                                    Stratum(CongruenceCoset.of(2, [[1, 0]], [Fraction(1, 2)]), 1)))
        assert _serre_mismatch(both, split, DEFAULT_COMPONENT_BUDGET) is None
        assert not serre_warnings(curve_grid(both, split))

    def test_agrees_with_brute_force(self):
        rng = random.Random(4242)
        outcomes = {"asymmetric": 0, "same strata": 0, "other strata": 0}
        for _ in range(60):
            f, g = mirrored_pair(rng)
            t = _serre_mismatch(f, g, DEFAULT_COMPONENT_BUDGET)
            assert t == brute_mismatch(f, g, SERRE_D)
            assert _serre_mismatch(g, f, DEFAULT_COMPONENT_BUDGET) == t
            if t is not None:
                outcomes["asymmetric"] += 1
            else:
                # symmetric pairs presented by other cosets must be counted
                neg = RankFunction(2, g.generic_value, tuple(negated(s) for s in g.strata))
                outcomes["same strata" if presented(f) == presented(neg) else "other strata"] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_presentations_agree_with_level_sets(self):
        # mirrored presentations return before any level set; that verdict
        # must be the level sets' own (checked against brute force in
        # test_agrees_with_brute_force).  The level sets decide the same pair
        # once g (or f, when g has no nonempty stratum) carries a redundant
        # stratum nested in one of its own: the same function, whose
        # presentation no longer mirrors the other's
        rng = random.Random(2626)
        outcomes = {"mirrored": 0, "mirrored with translates of order 2 or 3": 0,
                    "other presentations, symmetric": 0, "asymmetric": 0}
        for _ in range(120):
            f, g = mirrored_pair(rng)
            verdict = _serre_mismatch(f, g, DEFAULT_COMPONENT_BUDGET)
            nested = with_nested_stratum(g, f, rng)
            pair = (f, nested) if nested is not None else (with_nested_stratum(f, g, rng), g)
            assert not mirrors(*pair)
            levels = _serre_mismatch(*pair, DEFAULT_COMPONENT_BUDGET)
            assert verdict == levels
            if mirrors(f, g):
                assert levels is None
                # the same strata over another generic value do not mirror
                bumped = RankFunction(2, g.generic_value + 1, g.strata)
                assert _serre_mismatch(f, bumped, DEFAULT_COMPONENT_BUDGET) == g.generic_value + 1
                outcomes["mirrored"] += 1
                outcomes["mirrored with translates of order 2 or 3"] += any(nc.order in (2, 3) for nc, _ in presented(f))
            else:
                outcomes["asymmetric" if levels is not None else "other presentations, symmetric"] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_each_stratum_of_g_is_negated_once(self, monkeypatch):
        negations = []
        neg = NormalizedCoset.__neg__

        def recording_neg(nc):
            negations.append(nc)
            return neg(nc)

        monkeypatch.setattr(NormalizedCoset, "__neg__", recording_neg)
        rng = random.Random(4242)
        thresholds = 0
        for _ in range(60):
            f, g = mirrored_pair(rng)
            negations.clear()
            _serre_mismatch(f, g, DEFAULT_COMPONENT_BUDGET)
            assert negations == [nc for nc, _ in g.normalized_strata if nc is not None]
            thresholds = max(thresholds, len({v for _, v in f.strata + g.strata}))
        assert thresholds >= 3  # so that a per-threshold negation would show

    @pytest.mark.parametrize("name,params", list(DEFAULT_INSTANCES) + [(n, {}) for n in builtin_names()])
    def test_catalog_has_no_serre_finding(self, name, params):
        assert not serre_warnings(builtin(name, **params).model)

    def test_over_budget_is_not_decided(self):
        points = [Stratum(CongruenceCoset.point(TorusPoint.of([Fraction(k, 17), 0])), 1)
                  for k in range(DEFAULT_COMPONENT_BUDGET + 1)]
        many = RankFunction(2, 0, tuple(points))
        # one point fewer: the level sets differ, but deciding it means counting
        report = validate_model(curve_grid(many, RankFunction(2, 0, tuple(points[1:]))))
        assert [f.message for f in report.warnings if "Serre" in f.message] == [
            "Serre symmetry of (0,1) and (1,0) was not decided: "
            f"{DEFAULT_COMPONENT_BUDGET + 1} components exceed the component budget of "
            f"{DEFAULT_COMPONENT_BUDGET}"]
        assert report.ok
        # equal sets of cosets need no counting, so the verdict stays exact
        mirror = RankFunction(2, 0, tuple(negated(s) for s in points))
        assert not serre_warnings(curve_grid(many, mirror))

    def test_budget_skips_empty_strata(self):
        # 12 points and the empty {x0 ≡ 0, x0 ≡ 1/2} against 12 other points:
        # each level set to count holds 12 cosets
        point = lambda x, y: Stratum(CongruenceCoset.point(TorusPoint.of([x, y])), 1)
        empty = Stratum(CongruenceCoset.of(2, [[1, 0], [1, 0]], [0, Fraction(1, 2)]), 1)
        model = curve_grid(RankFunction(2, 0, (*(point(Fraction(k, 12), 0) for k in range(12)), empty)),
                           RankFunction(2, 0, tuple(point(Fraction(k, 12), Fraction(1, 2)) for k in range(12))))
        serre = lambda budget: [f.message for f in validate_model(model, budget=budget).warnings
                                if "Serre" in f.message]
        assert serre(12) == ["ranks at (0,1) and (1,0) are not Serre-symmetric: "
                             "{h^(0,1) >= 1} and -{h^(1,0) >= 1} differ"]
        assert serre(11) == ["Serre symmetry of (0,1) and (1,0) was not decided: "
                             "12 components exceed the component budget of 11"]

    def test_validate_reads_the_budget(self, tmp_path, capsys):
        # one function presented two ways: {2x ≡ 0, y ≡ 0} and 12 points of
        # order 17, against the points 0 and 1/2 and the 12 negated points
        point = lambda x: Stratum(CongruenceCoset.point(TorusPoint.of([x, 0])), 1)
        points = [point(Fraction(k, 17)) for k in range(1, 13)]
        halves = Stratum(CongruenceCoset.of(2, [[2, 0], [0, 1]], [0, 0]), 1)
        model = curve_grid(RankFunction(2, 0, (halves, *points)),
                           RankFunction(2, 0, (point(0), point(Fraction(1, 2)), *map(negated, points))))
        save_model(model, tmp_path / "b.json")
        undecided = ["Serre symmetry of (0,1) and (1,0) was not decided: "
                     "13 components exceed the component budget of 12"]
        assert serre_warnings(model) == undecided and not validate_model(model, budget=14).findings
        for budget, warnings in (([], undecided), (["--budget", "20"], [])):
            assert main([*budget, "validate", "--model", str(tmp_path / "b.json")]) == 0
            assert [line for line in capsys.readouterr().out.splitlines() if "Serre" in line] == [
                f"warning: {w}" for w in warnings]

    def test_generic_pair_makes_few_meets(self, monkeypatch):
        # 11 generic cosets of codimension at most 2 in (R/Z)^16 against their
        # negatives and one redundant meet of two of them: the same function,
        # presented so that it does not mirror.  Each coset of a level set is
        # met with each of the other's once, and no form spans the union
        rng = random.Random(11)
        n, cosets = 16, []
        for _ in range(11):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 2))]
            cosets.append(CongruenceCoset.of(n, rows, [Fraction(rng.randint(0, 3), 4) for _ in rows]))
        negatives = [CongruenceCoset.of(n, c.rows, [-b for b in c.rhs]) for c in cosets]
        f = RankFunction(n, 0, tuple(Stratum(c, 1) for c in cosets))
        g = RankFunction(n, 0, tuple(Stratum(c, 1) for c in (*negatives, negatives[0].intersect(negatives[1]))))
        asymmetric = RankFunction(n, 0, g.strata[1:])  # the first coset is covered no more
        meets = []
        meet = NormalizedCoset.meet

        def counted_meet(nc, other):
            meets.append(nc)
            return meet(nc, other)

        monkeypatch.setattr(NormalizedCoset, "meet", counted_meet)
        for h, verdict in ((g, None), (asymmetric, 1)):
            meets.clear()
            assert _serre_mismatch(f, h, DEFAULT_COMPONENT_BUDGET) == verdict
            assert 0 < len(meets) <= (len(f.strata) + len(h.strata)) ** 2


def fresh_grid(model):
    """A fresh copy of every grid entry and of its cosets, so that
    construction can share no entry that has strata."""
    def fresh(rf):
        return RankFunction(rf.ambient_dim, rf.generic_value, tuple(
            Stratum(CongruenceCoset(c.ambient_dim, c.rows, c.rhs), v) for c, v in rf.strata))
    return tuple(tuple(map(fresh, row)) for row in model.hodge)


def fresh_copy(model):
    return dataclasses.replace(model, hodge=fresh_grid(model))


def distinct_entries(model):
    return len({id(rf) for row in model.hodge for rf in row})


SHARING_MODELS = ([builtin(name, **params).model for name, params in (*DEFAULT_INSTANCES, *CATALOG_SWEEP)]
                  + [random_model(random.Random(f"sharing:{i}")) for i in range(30)])


class TestSharedEntries:
    """Equal grid entries are one rank function, and no output shows it."""

    def test_equal_entries_share_one_function(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert distinct_entries(model) == len({rf for row in model.hodge for rf in row}) == 7
        assert distinct_entries(fresh_copy(model)) > 7
        # sharing lives in one model: a second build shares nothing with the first
        again = builtin("blowup_abelian4_curve", genus=2).model
        assert again == model
        assert not {id(rf) for row in again.hodge for rf in row} & {id(rf) for row in model.hodge for rf in row}

    def test_entries_over_one_coset_object_share(self):
        origin = origin_coset(2)
        a, b = RankFunction(2, 0, (Stratum(origin, 3),)), RankFunction(2, 0, (Stratum(origin, 3),))
        other = RankFunction(2, 0, (Stratum(origin_coset(2), 3),))  # an equal coset, another object
        grid = ((a, b, other), (RankFunction(2, 1, (Stratum(origin, 3),)), RankFunction(2, 0, (Stratum(origin, 2),)),
                                constant_rank(2, 0)),
                (constant_rank(2, 1), constant_rank(2, 0), constant_rank(2, 1)))
        model = VarietyModel(n=2, g=1, hodge=grid, defect_strata=((0, 1),))
        assert model.hodge == grid
        assert model.hodge[0][0] is model.hodge[0][1] is a
        assert model.hodge[2][0] is model.hodge[2][2] and model.hodge[1][2] is model.hodge[2][1]
        # another coset object, generic value or stratum value is another function
        assert distinct_entries(model) == 6

    def test_random_grids_share(self):
        shared = sum(distinct_entries(m) < distinct_entries(fresh_copy(m)) for m in SHARING_MODELS[-30:])
        assert shared >= 20

    @pytest.mark.parametrize("index", range(len(SHARING_MODELS)))
    def test_sharing_is_invisible(self, index):
        model = SHARING_MODELS[index]
        grid = fresh_grid(model)
        copy = dataclasses.replace(model, hodge=grid)
        assert copy.hodge == grid and copy == model
        assert validate_model(copy).findings == validate_model(model).findings
        assert model_to_dict(copy) == model_to_dict(model)
        for d in (*range(1, 13), 10 ** 6, 10 ** 30):
            assert (copy.hodge_table(DEFAULT_COMPONENT_BUDGET).values(d)
                    == model.hodge_table(DEFAULT_COMPONENT_BUDGET).values(d))
        for bound in range(model.n + 1):
            assert fit_bounds(copy, bound, 8) == fit_bounds(model, bound, 8)
        assert divergence_class(copy) == divergence_class(model)


class TestClassifyWeakGV:
    def test_abelian_vacuous_index(self):
        model = builtin("abelian", g=3).model
        for p in range(4):
            assert classify_weak_gv(model, p) == 3 - p

    def test_blowup_row_index_two(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert classify_weak_gv(model, 1) == 2
        assert not satisfies_weak_generic_nakano(model)

    def test_two_full_rows_fail(self):
        grid = (
            (constant_rank(2, 1), constant_rank(2, 2)),
            (origin_jump(2, 0, 1), origin_jump(2, 0, 1)),
        )
        model = VarietyModel(n=1, g=1, hodge=grid, defect_strata=((0, 1),))
        assert classify_weak_gv(model, 0) is None

    def test_weak_gnv_catalog(self):
        assert satisfies_weak_generic_nakano(builtin("cartwright_steger_like").model)
        assert satisfies_weak_generic_nakano(builtin("fibered_over_curve", genus=2).model)
        assert not satisfies_weak_generic_nakano(builtin("elliptic_surface_qI0", genus=2, chi=1).model)


class TestDefect:
    def test_isomorphism(self):
        model = builtin("abelian", g=3).model
        assert defect(model) == 0

    def test_blowup_codim_formula(self):
        for g in range(2, 7):
            for c in range(1, g + 1):
                model = builtin("blowup_abelian_codim", g=g, c=c).model
                assert defect(model) == max(0, c - 2)

    def test_curve_in_fourfold(self):
        assert defect(builtin("blowup_abelian4_curve", genus=2).model) == 1

    def test_reorder_and_dominated_strata(self):
        base = builtin("blowup_abelian4_curve", genus=2).model
        reordered = dataclasses.replace(base, defect_strata=((2, 1), (0, 4)))
        assert defect(reordered) == defect(base)
        dominated = dataclasses.replace(base, defect_strata=base.defect_strata + ((1, 2),))
        assert defect(dominated) == defect(base)

    def test_missing_stratification(self):
        model = dataclasses.replace(builtin("abelian", g=1).model, defect_strata=())
        with pytest.raises(MissingStratification):
            defect(model)
        model = dataclasses.replace(builtin("abelian", g=1).model, defect_strata=((1, 0),))
        with pytest.raises(MissingStratification):
            defect(model)

    def test_generic_vanishing_at_the_declared_defect(self):
        # the (1,1) locus of the blown-up abelian fourfold (c = 3) is proper, of
        # real dimension 6: allowed at its defect 1, too large at a declared defect 0
        model = builtin("blowup_abelian_codim", g=4, c=3).model
        assert defect(model) == 1 and not validate_model(model).findings
        semismall = dataclasses.replace(model, defect_strata=((0, 4),))
        report = validate_model(semismall)
        assert defect(semismall) == 0 and report.ok
        assert [f.message for f in report.warnings] == [
            f"locus ({p},{q}) has real dimension 6; generic vanishing at defect 0 allows at most 4"
            for p, q in ((1, 1), (3, 3))]
        assert model.hodge[1][1].is_proper() and converse_defect_witness(semismall, 0) == (1, 1)

    def test_validated_semismall_models_have_defect_zero(self):
        for name, params in (("abelian", {"g": 2}), ("blowup_abelian_codim", {"g": 4, "c": 2}),
                             ("fibered_over_curve", {"genus": 3})):
            model = builtin(name, **params).model
            assert validate_model(model).ok
            assert defect(model) == 0
