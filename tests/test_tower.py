"""Cover invariants: level-set sums against pointwise brute force."""

import dataclasses
import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from jumploci import (
    ComponentBudgetExceeded,
    CongruenceCoset,
    DivergenceReport,
    MissingPluriData,
    PluriData,
    RankFunction,
    Stratum,
    TorusPoint,
    builtin,
    chi_multiplicativity_check,
    constant_rank,
    cover_invariants,
    divergence_class,
    euler_char,
    normalized_sequence,
    origin_jump,
    pluri_limit,
    sheaf_rank_on_cover,
    symbolic_limit,
    validate_model,
    value_on_cover,
    VarietyModel,
)
from jumploci import cli, counting, torus, tower
from jumploci import model as model_module
from jumploci.catalog import DEFAULT_INSTANCES
from jumploci.counting import DEFAULT_COMPONENT_BUDGET
from gen import CATALOG_SWEEP, random_rank_function
from oracles import (
    brute_force_rank_sum,
    row_euler_characteristic,
    smallest_torsion_order,
    summed_count,
    top_euler_characteristic,
)


def count_calls(monkeypatch, *targets) -> list:
    """One log shared by the named functions: an entry per call of any."""
    calls = []
    for owner, name in targets:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    return calls


class TestSheafRankOnCover:
    def test_origin_only(self):
        rf = origin_jump(2, 0, 4)
        for d in (1, 2, 7, 30):
            assert sheaf_rank_on_cover(rf, d) == 4

    def test_constant_generic(self):
        rf = constant_rank(8, 1)
        assert sheaf_rank_on_cover(rf, 3) == 3 ** 8

    def test_blowup_entry(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert sheaf_rank_on_cover(model.hodge[1][2], 2) == 2 ** 8 + 25

    def test_matches_pointwise_sum(self):
        # the count form against brute force: its value at every d <= 5, its
        # top exponent and its witness order
        rng = random.Random(6174)
        witnessed = 0
        for _ in range(40):
            g = rng.randint(1, 2)
            rf = random_rank_function(rng, 2 * g)
            for d in range(1, 6):
                assert sheaf_rank_on_cover(rf, d) == brute_force_rank_sum(rf, d)
            form = rf.count_form(DEFAULT_COMPONENT_BUDGET)
            assert form.limit == rf.limit
            assert form.top_exponent == max((nc.dim for nc, _ in rf.effective_strata()), default=-1)
            top = [coset for (coset, value), nc in zip(rf.strata, rf.normalized_strata)
                   if value > rf.limit and nc is not None and nc.dim == form.top_exponent]
            assert form.witness_order == (smallest_torsion_order(top) if top else None)
            witnessed += bool(top)
        assert witnessed >= 10

    def test_one_object_serves_every_d(self):
        # the compiled form is built at the first d and reused, in any order
        rng = random.Random(9973)
        for _ in range(20):
            g = rng.randint(1, 2)
            rf = random_rank_function(rng, 2 * g)
            small = list(range(1, 6 if g == 1 else 5))
            rng.shuffle(small)
            expected = {d: brute_force_rank_sum(rf, d) for d in small}
            for d in small:
                assert sheaf_rank_on_cover(rf, d) == expected[d]
            assert sheaf_rank_on_cover(rf, 10 ** 30) >= rf.generic_value * 10 ** (30 * 2 * g)
            for d in reversed(small):
                assert sheaf_rank_on_cover(rf, d) == expected[d]

    def test_budget_checked_on_every_call(self):
        strata = tuple(Stratum(CongruenceCoset.of(2, [[1, 0]], [Fraction(j, 5)]), 1)
                       for j in range(5))
        rf = RankFunction(2, 0, strata)
        with pytest.raises(ComponentBudgetExceeded):
            sheaf_rank_on_cover(rf, 5, budget=4)
        assert sheaf_rank_on_cover(rf, 5, budget=5) == 25
        with pytest.raises(ComponentBudgetExceeded):
            sheaf_rank_on_cover(rf, 5, budget=4)
        for budget in (12, 3, 5, 4):
            if budget < 5:
                with pytest.raises(ComponentBudgetExceeded,
                                   match="^5 components exceed the component budget of "):
                    rf.count_form(budget)
            else:
                assert rf.count_form(budget).count(5) == 25

    @pytest.mark.parametrize("d", [0, -2])
    def test_nonpositive_d_rejected(self, d):
        rng = random.Random(d)
        rank_functions = [constant_rank(3, 2), origin_jump(2, 0, 4), RankFunction(2, 1, ()),
                          random_rank_function(rng, 2)]
        for rf in rank_functions:
            with pytest.raises(ValueError):
                sheaf_rank_on_cover(rf, d)
        with pytest.raises(ValueError):
            cover_invariants(builtin("abelian", g=1).model, d)

    def test_monotone_in_divisibility(self):
        rng = random.Random(4096)
        for _ in range(30):
            rf = random_rank_function(rng, rng.choice((2, 4)))
            d = rng.randint(1, 4)
            e = rng.randint(1, 3)
            assert sheaf_rank_on_cover(rf, d) <= sheaf_rank_on_cover(rf, d * e)


class TestHodgeAndBetti:
    def test_elliptic_curve_covers(self):
        model = builtin("abelian", g=1).model
        grid = cover_invariants(model, 3).hodge
        assert grid[0][0] == 1
        assert grid[1][0] == 1

    def test_blowup_base_and_stable_entry(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert value_on_cover(model, ("hodge", 1, 2), 1) == 26
        for d in range(1, 5):
            assert value_on_cover(model, ("hodge", 0, 3), d) == 4

    def test_blowup_b3(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        for d in range(1, 5):
            assert value_on_cover(model, ("betti", 3), d) == 2 * d ** 8 + 58

    def test_abelian_betti_binomial(self):
        model = builtin("abelian", g=2).model
        for d in (1, 2, 3):
            for k in range(5):
                assert value_on_cover(model, ("betti", k), d) == comb(4, k)

    def test_shared_origin_runs_one_smith_pass(self, monkeypatch):
        # all 289 rank functions of the grid jump on one origin coset, whose
        # Smith data every count form reads; the origin's Hermite pivots are
        # all 1, so computing it runs no snf pass
        smith = count_calls(monkeypatch, (torus, "_smith_data"))
        passes = count_calls(monkeypatch, (torus, "snf"), (counting, "snf"))
        grid = cover_invariants(builtin("abelian", g=16).model, 2).hodge
        assert grid[16][16] == 1
        assert len(smith) == 1
        assert len(passes) == 0

    def test_plurigenus_exponents_share_their_locus(self, monkeypatch, capsys):
        # Smith data once for the grid's origin and once for the pinned locus
        # that every exponent m reads; both have unit pivots only
        smith = count_calls(monkeypatch, (torus, "_smith_data"))
        passes = count_calls(monkeypatch, (torus, "snf"), (counting, "snf"))
        assert cli.main(["tower", "--builtin", "abelian", "--params", "g=32", "--d-max", "2",
                         "--pluri", "2,3,4,5,6"]) == 0
        assert capsys.readouterr().out.count("\n") == 3
        assert len(smith) == 2
        assert len(passes) == 0

    def test_b0_is_one(self):
        for name, params in (("abelian", {"g": 2}), ("cartwright_steger_like", {}),
                             ("fibered_over_curve", {"genus": 2})):
            model = builtin(name, **params).model
            assert value_on_cover(model, ("betti", 0), 3) == 1


class TestEulerCharacteristics:
    def test_abelian_rows_vanish(self):
        model = builtin("abelian", g=3).model
        assert model.chi_p == (0, 0, 0, 0)

    def test_blowup_one_forms(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert model.chi_p[1] == 1

    def test_line_bundle_slot_sign(self):
        for p, chi0 in ((0, 3), (1, 2), (2, 5)):
            model = builtin("nondeg_line_bundle", g=2, p=p, chi0=chi0).model
            assert euler_char(model.sheaves["line_bundle"]) == (-1) ** p * chi0

    def test_chi_top_values(self):
        assert builtin("abelian", g=2).model.chi_top == 0
        assert builtin("blowup_abelian4_curve", genus=2).model.chi_top == -4
        assert builtin("cartwright_steger_like").model.chi_top == 3
        assert builtin("elliptic_surface_qI0", genus=2, chi=1).model.chi_top == 12

    def test_chi_top_matches_alternating_identity(self):
        # (-1)^n chi_top = sum_p (-1)^(n-p) chi(Omega^p), both read off the rows
        for name, params in (("blowup_abelian4_curve", {"genus": 3}),
                             ("fibered_over_curve", {"genus": 2})):
            model = builtin(name, **params).model
            n = model.n
            assert model.chi_p == tuple(row_euler_characteristic(model, p) for p in range(n + 1))
            lhs = (-1) ** n * model.chi_top
            rhs = sum((-1) ** (n - p) * row_euler_characteristic(model, p) for p in range(n + 1))
            assert lhs == rhs


class TestNormalizedAndLimits:
    def test_blowup_normalized_h12(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        seq = normalized_sequence(model, ("hodge", 1, 2), range(1, 5))
        assert seq == [1 + Fraction(25, d ** 8) for d in range(1, 5)]

    def test_abelian_normalized_decays(self):
        model = builtin("abelian", g=2).model
        seq = normalized_sequence(model, ("hodge", 1, 1), range(1, 5))
        assert seq == [Fraction(4, d ** 4) for d in range(1, 5)]

    def test_line_bundle_constant_sequence(self):
        model = builtin("nondeg_line_bundle", g=2, p=1, chi0=2).model
        seq = normalized_sequence(model, ("sheaf", "line_bundle", 1), range(1, 6))
        assert seq == [Fraction(2)] * 5

    def test_symbolic_limits_blowup(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert symbolic_limit(model, ("hodge", 1, 2)).value == 1
        assert symbolic_limit(model, ("betti", 3)).value == 2

    def test_semismall_off_middle_limits_vanish(self):
        model = builtin("blowup_abelian_codim", g=3, c=2).model
        for p in range(model.n + 1):
            for q in range(model.n + 1):
                if p + q != model.n:
                    lv = symbolic_limit(model, ("hodge", p, q))
                    assert lv.value == 0
                    assert lv.kind == "upper-bound-zero"

    def test_limit_consistency_along_factorials(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        limit = symbolic_limit(model, ("hodge", 1, 2)).value
        gaps = [abs(normalized_sequence(model, ("hodge", 1, 2), [factorial(k)])[0] - limit)
                for k in range(1, 5)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= Fraction(25, 24 ** 8)

    def test_proper_locus_decay_rate(self):
        # deviation <= (#connected pieces · top value) · d^(dim - 2g) for
        # every proper locus in the catalog
        from jumploci import DEFAULT_INSTANCES

        for name, params in DEFAULT_INSTANCES:
            model = builtin(name, **params).model
            for p in range(model.n + 1):
                for q in range(model.n + 1):
                    rf = model.hodge[p][q]
                    pieces = rf.effective_strata()
                    if not rf.is_proper() or not pieces:
                        continue
                    c = sum(nc.component_count for nc, _ in pieces) * max(v for _, v in pieces)
                    dim = max(nc.dim for nc, _ in pieces)
                    for d in range(1, 6):
                        value = normalized_sequence(model, ("hodge", p, q), [d])[0]
                        assert value <= Fraction(c) * Fraction(d) ** (dim - model.torus_dim)

    def test_huge_degree_cover_stays_exact(self):
        # level-set counting is polynomial in the system sizes, so a cover
        # of degree 10^48 is as cheap and as exact as degree 1
        model = builtin("blowup_abelian4_curve", genus=2).model
        d = 10 ** 6
        assert sheaf_rank_on_cover(model.hodge[1][2], d) == d ** 8 + 25
        assert value_on_cover(model, ("betti", 3), d) == 2 * d ** 8 + 58
        assert value_on_cover(builtin("fibered_over_curve", genus=2).model, ("irregularity",), d) == d ** 4 + 2


class TestPlurigenera:
    def test_full_irregularity_base_is_multiplicative(self):
        base = builtin("abelian", g=1).model
        pluri = PluriData(
            q_base=1,
            translates=(TorusPoint.zero(2),),
            values={2: 7},
        )
        model = dataclasses.replace(base, pluri=pluri)
        assert value_on_cover(model, ("pluri", 2), 3) == 9 * 7
        assert pluri_limit(model, 2).value == 7

    @pytest.mark.parametrize("q_base", [2, -1])
    def test_q_base_outside_the_torus_is_refused(self, q_base):
        # the locus block of 2·q_base coordinates does not fit a g = 1 torus:
        # q_base = 2 read as the full torus (d^2) and q_base = -1 as the
        # origin (1), since the pins at coordinates -2 and -1 alias 0 and 1
        base = builtin("abelian", g=1).model
        model = dataclasses.replace(base, pluri=PluriData(q_base, (TorusPoint.zero(2),), {2: 1}))
        for read in (lambda: model.plurigenera, lambda: value_on_cover(model, ("pluri", 2), 2)):
            with pytest.raises(ValueError, match=rf"^q_base {q_base} lies outside \[0, g\] = \[0, 1\]$"):
                read()
        assert any("Iitaka-base irregularity" in f.message for f in validate_model(model).errors)

    def test_point_locus_stays_constant(self):
        model = builtin("abelian", g=2).model
        for d in range(1, 5):
            assert value_on_cover(model, ("pluri", 2), d) == 1
        lv = pluri_limit(model, 2)
        assert lv.value == 0
        assert lv.kind == "upper-bound-zero"

    def test_rank_function_built_once(self):
        # one per m: the model has one torus, which every m's locus lives in
        model = builtin("abelian", g=2).model
        rf = model.plurigenera[2]
        assert model.plurigenera is model.plurigenera
        assert model.plurigenera[2] is rf
        assert model.plurigenera[3] is not rf
        assert tower.summands(model, ("pluri", 2)) == [rf]

    def test_exponents_share_one_normalized_locus(self, monkeypatch):
        # three translates of the subtorus x2 = x3 = 0; every m reads the
        # same three coset objects, each normalized once
        translates = tuple(TorusPoint.of([0, 0, Fraction(k, 3), 0]) for k in range(3))
        pluri = PluriData(q_base=1, translates=translates,
                          values={m: m for m in range(2, 7)})
        model = dataclasses.replace(builtin("abelian", g=2).model, pluri=pluri)
        built = []
        hermite = torus._hermite

        def recording_hermite(*args):
            built.append(hermite(*args))
            return built[-1]

        monkeypatch.setattr(torus, "_hermite", recording_hermite)
        # 9 points of order dividing 3 on each translate
        assert [value_on_cover(model, ("pluri", m), 3) for m in range(2, 7)] == [27 * m for m in range(2, 7)]
        cosets = [c for c, _ in model.plurigenera[2].strata]
        assert len(set(cosets)) == 3
        for rf in model.plurigenera.values():
            assert all(c is locus for (c, _), locus in zip(rf.strata, cosets, strict=True))
        assert len(built) == 3
        assert set(built) == {c.normalize() for c in cosets}

    def test_geometric_genus_routes_through_grid(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        for d in (1, 2, 3):
            assert value_on_cover(model, ("pluri", 1), d) == sheaf_rank_on_cover(model.hodge[4][0], d)

    def test_missing_data(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        with pytest.raises(MissingPluriData):
            value_on_cover(model, ("pluri", 3), 2)
        with pytest.raises(MissingPluriData):
            symbolic_limit(model, ("pluri", 3))

    def test_bad_selectors(self):
        model = builtin("abelian", g=1).model
        for m in (0, -1):
            with pytest.raises(ValueError, match="^m must be positive$"):
                tower.summands(model, ("pluri", m))
        with pytest.raises(ValueError, match=r"^unknown selector \('chi',\)$"):
            tower.summands(model, ("chi",))

    def test_bound_constant_with_a_positive_generic_value(self):
        # q_base = g: the locus is the whole torus, and the generic value counts once
        model = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        assert [model.plurigenera[m].limit for m in (2, 3)] == [5, 8]
        assert [tower.pluri_bound_constant(model, m) for m in (2, 3)] == [5 + 5, 8 + 8]

    def test_missing_data_for_a_huge_exponent(self):
        # past the interpreter's cap on the digits of an int turned into text
        model = builtin("abelian", g=1).model
        for call in (lambda model, d, m: value_on_cover(model, ("pluri", m), d),
                     lambda model, _, m: tower.pluri_bound_constant(model, m)):
            with pytest.raises(MissingPluriData, match=r"m = 10{59}\.\.\.$"):
                call(model, 1, 10 ** 5000)


class TestSelectors:
    """A selector that names nothing in the model is refused with one
    ValueError that names it, by every reader of a selector."""

    @staticmethod
    def assert_refused(model, selector):
        readers = (lambda: value_on_cover(model, selector, 2), lambda: tower.summands(model, selector),
                   lambda: symbolic_limit(model, selector),
                   lambda: normalized_sequence(model, selector, range(1, 3)))
        for read in readers:
            with pytest.raises(ValueError, match=f"^unknown selector {re.escape(repr(selector))}$"):
                read()

    def test_hodge_index_outside_the_grid(self):
        # a negative index must not wrap around to another entry or column
        model = builtin("blowup_abelian4_curve", genus=2).model
        for selector in (("hodge", -1, 0), ("hodge", 5, 0), ("hodge", 0, -1), ("hodge", 0, 5),
                         ("hodge", 1.0, 2)):
            self.assert_refused(model, selector)

    def test_sheaf_slot_outside_the_model(self):
        model = builtin("nondeg_line_bundle", g=2, p=1, chi0=2).model
        assert len(model.sheaves["line_bundle"]) == 3
        for selector in (("sheaf", "line_bundle", -1), ("sheaf", "line_bundle", 3), ("sheaf", "nope", 0)):
            self.assert_refused(model, selector)

    def test_wrong_number_of_arguments(self):
        model = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        for selector in (("betti",), ("pluri",), ("irregularity", 1), ("hodge", 1), ("betti", 1, 2),
                         ("pluri", 2, 3), ("sheaf", "line_bundle"), ()):
            self.assert_refused(model, selector)

    def test_betti_degree_outside_the_range_is_zero(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        for k in (-1, 2 * model.n + 1, 10 ** 30):
            assert tower.summands(model, ("betti", k)) == []
            assert [value_on_cover(model, ("betti", k), d) for d in (1, 2, 10 ** 30)] == [0, 0, 0]
            assert symbolic_limit(model, ("betti", k)) == tower.LimitValue(Fraction(0), "exact-limit")


class TestIrregularity:
    def test_fibered_sequence(self):
        model = builtin("fibered_over_curve", genus=2).model
        for d in range(1, 5):
            assert value_on_cover(model, ("irregularity",), d) == d ** 4 + 2

    def test_finite_locus_constant(self):
        model = builtin("cartwright_steger_like").model
        assert [value_on_cover(model, ("irregularity",), d) for d in range(1, 7)] == [1] * 6

    def test_abelian_constant(self):
        model = builtin("abelian", g=3).model
        assert all(value_on_cover(model, ("irregularity",), d) == 3 for d in (1, 2, 4))

    @pytest.mark.parametrize("g", [0, 1])
    def test_point_has_none(self, g):
        # n = 0: the grid is the one entry (0,0), with no h^(0,1) to sum
        model = VarietyModel(n=0, g=g, hodge=((constant_rank(2 * g, 1),),), defect_strata=((0, 0),))
        assert tower.summands(model, ("irregularity",)) == []
        assert symbolic_limit(model, ("irregularity",)).value == 0
        assert divergence_class(model) == DivergenceReport(False, 0, None, 0)
        for d in (1, 2, 5):
            inv = cover_invariants(model, d)
            assert value_on_cover(model, ("irregularity",), d) == inv.q == 0
            assert inv.hodge == ((d ** (2 * g),),) and inv.betti == (d ** (2 * g),)
            assert (inv.chi_p, inv.chi_top) == ((1,), 1)
            assert chi_multiplicativity_check(model, d)


class TestChiMultiplicativity:
    def test_abelian(self):
        model = builtin("abelian", g=2).model
        assert chi_multiplicativity_check(model, 3)

    def test_blowup_row_sum(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        grid = cover_invariants(model, 2).hodge
        assert sum((-1) ** q * grid[1][q] for q in range(5)) == 2 ** 8 * 1
        assert chi_multiplicativity_check(model, 2)

    def test_corrupted_model_detected(self):
        base = builtin("abelian", g=2).model
        rows = [list(r) for r in base.hodge]
        rows[0][0] = origin_jump(4, 0, 2)  # h^(0,0) at the origin bumped by one
        broken = dataclasses.replace(base, hodge=tuple(tuple(r) for r in rows))
        assert not chi_multiplicativity_check(broken, 2)


class TestCoverInvariants:
    def test_bundle_consistency(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        inv = cover_invariants(model, 2)
        assert inv.deg == 2 ** 8
        assert inv.q == inv.hodge[0][1]
        for k in range(2 * model.n + 1):
            assert inv.betti[k] == sum(
                inv.hodge[p][k - p] for p in range(model.n + 1) if 0 <= k - p <= model.n)

    @pytest.mark.parametrize("name,params", DEFAULT_INSTANCES)
    def test_one_euler_characteristic_per_row(self, monkeypatch, name, params):
        # the row Euler characteristics are kept on the model: the first
        # cover computes one per row, and no later cover computes any
        model = builtin(name, **params).model
        calls = count_calls(monkeypatch, (model_module, "euler_char"), (tower, "euler_char"))
        first = cover_invariants(model, 2)
        assert len(calls) == model.n + 1
        calls.clear()
        for d in (3, 4, 10 ** 30):
            inv = cover_invariants(model, d)
            assert inv.chi_p == first.chi_p
        assert len(calls) == 0
        assert inv.chi_p == tuple(row_euler_characteristic(model, p) for p in range(model.n + 1))
        assert inv.chi_top == top_euler_characteristic(model)

    @pytest.mark.parametrize("name,params", DEFAULT_INSTANCES)
    def test_one_table_evaluation_per_cover(self, monkeypatch, name, params):
        model = builtin(name, **params).model
        pluri_ms = [1] + sorted(model.pluri.values if model.pluri else ())
        expected = {d: (tuple(tuple(summed_count(model, ("hodge", p, q), d) for q in range(model.n + 1))
                              for p in range(model.n + 1)),
                        tuple(summed_count(model, ("betti", k), d) for k in range(2 * model.n + 1)),
                        {m: summed_count(model, ("pluri", m), d) for m in pluri_ms}) for d in (1, 2, 3)}
        values = count_calls(monkeypatch, (counting.CountTable, "values"))
        counts = count_calls(monkeypatch, (counting.CountForm, "count"))
        forms = count_calls(monkeypatch, (RankFunction, "count_form"))
        for d in (1, 2, 3):
            for ms in ((), pluri_ms):
                values.clear()
                counts.clear()
                forms.clear()
                inv = cover_invariants(model, d, ms)
                # one table evaluation for the grid, the Betti numbers and
                # deg, one form count per plurigenus exponent m >= 2
                assert len(values) == 1
                assert len(counts) == len(forms) == max(0, len(ms) - 1)
                assert (inv.hodge, inv.betti) == expected[d][:2]
            assert inv.pluri == expected[d][2]
            assert inv.pluri[1] == inv.hodge[model.n][0]

    def test_table_budget_checked_on_every_call(self):
        # parallel circles of translate order 5: four at (0,1), five at (1,0),
        # so the first entry over the budget, row-major, depends on the budget
        base = builtin("abelian", g=1).model
        circles = tuple(Stratum(CongruenceCoset.of(2, [[1, 0]], [Fraction(j, 5)]), 2) for j in range(5))
        rows = [list(row) for row in base.hodge]
        rows[0][1], rows[1][0] = RankFunction(2, 1, circles[:4]), RankFunction(2, 1, circles)
        model = dataclasses.replace(base, hodge=tuple(map(tuple, rows)))
        # a single number reads the whole table, so its budget covers the whole
        # grid: even (1,1), which has no strata, is refused over the budget
        calls = (lambda b: model.hodge_table(b), lambda b: cover_invariants(model, 5, budget=b),
                 lambda b: value_on_cover(model, ("hodge", 1, 0), 5, budget=b),
                 lambda b: value_on_cover(model, ("hodge", 1, 1), 5, budget=b))
        for budget in (12, 3, 5, 4, 12, 3):
            if budget < 5:
                strata = 4 if budget < 4 else 5
                for call in calls:
                    with pytest.raises(ComponentBudgetExceeded,
                                       match=f"^{strata} components exceed the component budget of {budget}$"):
                        call(budget)
            else:
                assert cover_invariants(model, 5, budget=budget).hodge == ((1, 25 + 20), (25 + 25, 1))

    @staticmethod
    def _models():
        """Every default instance, the catalog sweep, 30 seeded random grids
        (translates of order 2 and 3, Smith data) and a point."""
        models = [builtin(name, **params).model for name, params in (*DEFAULT_INSTANCES, *CATALOG_SWEEP)]
        rng = random.Random(2424)
        for _ in range(30):
            n, g = rng.choice((1, 2)), rng.choice((1, 2))
            grid = tuple(tuple(random_rank_function(rng, 2 * g) for _ in range(n + 1)) for _ in range(n + 1))
            models.append(VarietyModel(n=n, g=g, hodge=grid, defect_strata=()))
        point = RankFunction(2, 1, (Stratum(CongruenceCoset.point(TorusPoint.of([Fraction(1, 3), 0])), 2),))
        models.append(VarietyModel(n=0, g=1, hodge=((point,),), defect_strata=((0, 0),)))
        return models

    def test_model_corpus_has_torsion_classes(self):
        terms = [nc for model in self._models() for row in model.hodge for rf in row
                 for _, nc in rf.count_form(DEFAULT_COMPONENT_BUDGET).terms]
        assert {2, 3} <= {nc.order for nc in terms}
        assert any(nc.torsion for nc in terms)

    @pytest.mark.parametrize("d", [1, 2, 3, 24, 10 ** 30])
    def test_bundle_matches_the_single_invariants(self, d):
        for model in self._models():
            inv = cover_invariants(model, d)
            assert inv.d == d
            assert inv.deg == d ** model.torus_dim
            n = model.n
            assert inv.hodge == tuple(tuple(summed_count(model, ("hodge", p, q), d) for q in range(n + 1))
                                      for p in range(n + 1))
            assert inv.betti == tuple(summed_count(model, ("betti", k), d) for k in range(2 * n + 1))
            assert inv.q == summed_count(model, ("irregularity",), d)
            assert inv.chi_p == tuple(row_euler_characteristic(model, p) for p in range(model.n + 1))
            assert inv.chi_top == top_euler_characteristic(model)
            assert inv.pluri == {}

    @pytest.mark.parametrize("d", [1, 2, 3, 24, 10 ** 30])
    def test_every_selector_reads_its_summed_counts(self, d):
        # value_on_cover against the count of each summand's form read term
        # by term, for every kind of selector; a grid number reads the table
        kinds = set()
        for model in self._models():
            n = model.n
            selectors = [("hodge", p, q) for p, q in model.hodge_pairs()]
            selectors += [("betti", k) for k in range(-1, 2 * n + 2)]
            selectors += [("irregularity",), ("pluri", 1)] + [("pluri", m) for m in model.plurigenera]
            selectors += [("sheaf", name, i) for name, slot in model.sheaves.items() for i in range(len(slot))]
            for selector in selectors:
                assert value_on_cover(model, selector, d) == summed_count(model, selector, d), selector
                kinds.add(selector[0])
        assert kinds == {"hodge", "betti", "irregularity", "pluri", "sheaf"}

    def test_grid_is_the_row_slices_of_the_values(self):
        # n runs from 0 to 4 over the corpus; the values run on past the grid
        # into the Betti numbers and d^(2g), which the grid must not take
        models = self._models()
        assert {model.n for model in models} == {0, 1, 2, 3, 4}
        for model in models:
            w = model.n + 1
            for d in (1, 6, 10 ** 30):
                values = model.hodge_table(DEFAULT_COMPONENT_BUDGET).values(d)
                grid = model.grid(values)
                assert grid == tuple(tuple(values[i:i + w]) for i in range(0, w * w, w))
                assert type(grid) is tuple and all(type(row) is tuple for row in grid)

    def test_exponents_given_as_any_iterable(self):
        model = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        for d in (1, 2, 3, 10 ** 30):
            bare = cover_invariants(model, d)
            assert bare.pluri == {}
            for empty in ((), [], range(0), iter(())):
                assert cover_invariants(model, d, empty) == bare
            inv = cover_invariants(model, d, iter([1, 2]))  # read once
            assert inv.pluri == {1: bare.hodge[model.n][0], 2: summed_count(model, ("pluri", 2), d)}
            assert dataclasses.replace(inv, pluri={}) == bare

    @pytest.mark.parametrize("ms", [(), [1, 2]])
    def test_every_cover_has_its_own_pluri_dict(self, ms):
        model = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        first = cover_invariants(model, 2, ms)
        expected = dict(first.pluri)
        first.pluri[7] = 0
        second = cover_invariants(model, 2, ms)
        assert second.pluri == expected and second.pluri is not first.pluri
        assert cover_invariants(model, 3, ms).pluri is not second.pluri

    def test_point_has_one_betti_number(self):
        point = self._models()[-1]
        inv = cover_invariants(point, 3, [1])
        assert (inv.hodge, inv.betti, inv.q, inv.deg, inv.pluri) == (((9 + 1,),), (9 + 1,), 0, 9, {1: 9 + 1})

    def test_bundle_is_a_frozen_dataclass(self):
        model = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        inv = cover_invariants(model, 2, [1, 2])
        built = tower.CoverInvariants(**{f.name: getattr(inv, f.name) for f in dataclasses.fields(inv)})
        assert inv == built and built == inv and repr(inv) == repr(built)
        assert inv != cover_invariants(model, 3, [1, 2])
        changed = dataclasses.replace(inv, hodge=((0,),))
        assert changed.hodge == ((0,),) and changed.betti == inv.betti and changed != inv
        assert dataclasses.replace(inv) == inv
        with pytest.raises(dataclasses.FrozenInstanceError):
            inv.d = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del inv.betti
        assert inv.d == 2 and inv.betti == built.betti

    def test_bundle_hashes(self):
        # pluri is a dict: it stays out of the hash, and in equality
        model = builtin("abelian", g=1).model
        inv = cover_invariants(model, 2)
        assert isinstance(hash(inv), int)
        again = cover_invariants(model, 2)
        assert again == inv and hash(again) == hash(inv)
        with_pluri = cover_invariants(model, 2, [2])
        assert with_pluri != inv and hash(with_pluri) == hash(inv)
        changed = dataclasses.replace(inv, hodge=((0,),))
        assert changed != inv and hash(changed) != hash(inv) and hash(dataclasses.replace(inv)) == hash(inv)
