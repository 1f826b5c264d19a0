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
from jumploci import asymptotics, cli, counting, torus, tower
from jumploci import model as model_module
from jumploci.catalog import DEFAULT_INSTANCES
from jumploci.counting import DEFAULT_COMPONENT_BUDGET
from jumploci.errors import shown_int
from gen import CATALOG_SWEEP, random_model, random_rank_function
from oracles import (
    brute_force_plurigenera,
    brute_force_rank_sum,
    per_term_count,
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
        # the count form against brute force: its value at every d <= 5 and
        # its top exponent; the witness order, read off the strata, against
        # the smallest torsion order of the top-dimensional strata
        rng = random.Random(6174)
        witnessed = 0
        for _ in range(40):
            g = rng.randint(1, 2)
            rf = random_rank_function(rng, 2 * g)
            for d in range(1, 6):
                assert sheaf_rank_on_cover(rf, d) == brute_force_rank_sum(rf, d)
            form = rf.count_form(DEFAULT_COMPONENT_BUDGET)
            assert form.limit == rf.limit
            top_exponent = max((nc.dim for _, nc in form.terms), default=-1)
            assert top_exponent == max((nc.dim for nc, _ in rf.effective_strata()), default=-1)
            top = [coset for coset, value in rf.strata
                   if value > rf.limit and (nc := coset.normalize()) is not None and nc.dim == top_exponent]
            assert rf.witness_order == (smallest_torsion_order(top) if top else None)
            assert rf.degree == max(form.polynomial, default=-1)
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

    def test_budget_skips_empty_strata(self):
        # {x0 ≡ 0, x0 ≡ 1/2} is empty: the pass takes in the origin alone
        origin = CongruenceCoset.point(TorusPoint.zero(2))
        empty = CongruenceCoset.of(2, [[1, 0], [1, 0]], [0, Fraction(1, 2)])
        rf = RankFunction(2, 0, (Stratum(origin, 2), Stratum(empty, 3)))
        assert len(rf.count_form(1).terms) == 1
        for d in range(1, 5):
            assert sheaf_rank_on_cover(rf, d, budget=1) == brute_force_rank_sum(rf, d) == 2

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
                assert sheaf_rank_on_cover(rf, 5, budget=budget) == 25

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

    def test_cover_reads_each_exponent_without_a_selector(self, monkeypatch):
        # a cover checks each exponent once and reads values[m] and the locus
        # itself; P_m agrees with the selector's path, and a bad exponent is
        # refused with the selector's message
        points = tuple(TorusPoint.of([0, Fraction(j, 13)]) for j in range(3))
        proper = dataclasses.replace(builtin("abelian", g=1).model,
                                     pluri=PluriData(0, points, {m: 3 * m - 4 for m in range(2, 7)}))
        for model in (builtin("elliptic_surface_qI0", genus=2, chi=1).model, proper):
            selected = count_calls(monkeypatch, (tower, "summands"))
            covers = {d: cover_invariants(model, d, range(1, 7)).pluri for d in (1, 2, 13, 10 ** 30)}
            assert not selected
            for d, pluri in covers.items():
                assert pluri == {m: value_on_cover(model, ("pluri", m), d) for m in range(1, 7)}
            for m in (0, -1, True, 2.0):
                with pytest.raises(ValueError) as refused:
                    tower.summands(model, ("pluri", m))
                with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
                    cover_invariants(model, 2, [2, m])

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
        # the pullback to X_d has d^(2g)·chi0 in its one nonzero degree p
        for p, chi0 in ((1, 2), (0, 3)):
            model = builtin("nondeg_line_bundle", g=2, p=p, chi0=chi0).model
            seq = normalized_sequence(model, ("sheaf", "line_bundle", p), range(1, 6))
            assert seq == [Fraction(chi0)] * 5

    def test_symbolic_limits_blowup(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert symbolic_limit(model, ("hodge", 1, 2)) == 1
        assert symbolic_limit(model, ("betti", 3)) == 2

    def test_semismall_off_middle_limits_vanish(self):
        # each 0 is exact: every summand's rank sum has degree below 2g
        model = builtin("blowup_abelian_codim", g=3, c=2).model
        for p in range(model.n + 1):
            for q in range(model.n + 1):
                if p + q != model.n:
                    assert symbolic_limit(model, ("hodge", p, q)) == 0
                    assert all(rf.degree < model.torus_dim for _, rf in tower.summands(model, ("hodge", p, q)))

    def test_limit_consistency_along_factorials(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        limit = symbolic_limit(model, ("hodge", 1, 2))
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
        assert pluri_limit(model, 2) == 7 and type(pluri_limit(model, 2)) is Fraction

    @pytest.mark.parametrize("q_base", [2, -1])
    def test_q_base_outside_the_torus_is_refused(self, q_base):
        # the locus block of 2·q_base coordinates does not fit a g = 1 torus:
        # q_base = 2 read as the full torus (d^2) and q_base = -1 as the
        # origin (1), since the pins at coordinates -2 and -1 alias 0 and 1
        base = builtin("abelian", g=1).model
        model = dataclasses.replace(base, pluri=PluriData(q_base, (TorusPoint.zero(2),), {2: 1}))
        for read in (lambda: model.pluri_locus, lambda: value_on_cover(model, ("pluri", 2), 2)):
            with pytest.raises(ValueError, match=rf"^q_base {q_base} lies outside \[0, g\] = \[0, 1\]$"):
                read()
        assert any("Iitaka-base irregularity" in f.message for f in validate_model(model).errors)

    def test_point_locus_stays_constant(self):
        model = builtin("abelian", g=2).model
        for d in range(1, 5):
            assert value_on_cover(model, ("pluri", 2), d) == 1
        assert pluri_limit(model, 2) == 0
        assert all(rf.degree < model.torus_dim for _, rf in tower.summands(model, ("pluri", 2)))

    def test_rank_function_built_once(self):
        # one locus for every m, each m its value on it
        model = builtin("abelian", g=2).model
        locus = model.pluri_locus
        assert model.pluri_locus is locus
        assert [tower.summands(model, ("pluri", m)) for m in (2, 3)] == [[(1, locus)], [(1, locus)]]
        assert all(rf is locus for m in range(2, 7) for _, rf in tower.summands(model, ("pluri", m)))
        assert [value for _, value in locus.strata] == [1]

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
        cosets = [c for c, _ in model.pluri_locus.strata]
        assert len(set(cosets)) == 3
        for m in range(2, 7):
            assert tower.summands(model, ("pluri", m)) == [(m, model.pluri_locus)]
        assert len(built) == 3
        assert set(built) == {c.normalize() for c in cosets}

    def test_against_enumeration(self):
        # every reader of P_m, m >= 2, against the plurigenus data read
        # point by point, on the catalog's four models with data and on
        # seeded data: q_base 0..g, up to four translates, repeated or
        # agreeing off the head, of orders up to 6, and a value-0 exponent
        models = [builtin(name, **params).model for name, params in DEFAULT_INSTANCES]
        models = [model for model in models if model.pluri]
        assert len(models) == 4
        rng = random.Random(4141)
        for _ in range(16):
            base = builtin("abelian", g=rng.choice((1, 2))).model
            dim = base.torus_dim
            points = [TorusPoint.of([Fraction(rng.randrange(k), k) for k in rng.choices((1, 2, 3, 4, 6), k=dim)])
                      for _ in range(rng.randint(1, 4))]
            points.append(rng.choice(points))
            values = {m: rng.randint(1, 9) for m in range(2, rng.randint(3, 6))}
            values[rng.choice(list(values))] = 0
            models.append(dataclasses.replace(base, pluri=PluriData(rng.randint(0, base.g), tuple(points), values)))
        assert {(model.pluri.q_base, model.g) for model in models} == {(0, 1), (1, 1), (0, 2), (1, 2), (2, 2)}
        for model in models:
            ms = sorted(model.pluri.values)
            for d in range(1, 13):
                expected = brute_force_plurigenera(model.pluri, d)
                assert cover_invariants(model, d, ms).pluri == expected
                assert {m: value_on_cover(model, ("pluri", m), d) for m in ms} == expected
            full = model.pluri.q_base == model.g and bool(model.pluri.translates)
            for m in ms:
                value = model.pluri.values[m]
                assert pluri_limit(model, m) == value * full
                assert tower.pluri_bound_constant(model, m) == value * (full + len(model.pluri.translates))

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
        assert model.pluri_locus.limit == 1
        assert [symbolic_limit(model, ("pluri", m)) for m in (2, 3)] == [5, 8]
        assert [tower.pluri_bound_constant(model, m) for m in (2, 3)] == [5 + 5, 8 + 8]

    def test_missing_data_for_a_huge_exponent(self):
        # past the interpreter's cap on the digits of an int turned into text
        model = builtin("abelian", g=1).model
        for call in (lambda model, d, m: value_on_cover(model, ("pluri", m), d),
                     lambda model, _, m: tower.pluri_bound_constant(model, m)):
            with pytest.raises(MissingPluriData, match=r"m = 10{59}\.\.\.$"):
                call(model, 1, 10 ** 5000)


class TestPluriEdgeCases:
    """What every plurigenus reader does at the edges of its data, read only
    through the public readers: a value-0 exponent, a ``q_base`` outside
    [0, g], an exponent with no data and a locus over the budget."""

    READERS = {
        "value_on_cover": lambda model, m, budget: value_on_cover(model, ("pluri", m), 5, budget=budget),
        "cover_invariants": lambda model, m, budget: cover_invariants(model, 5, [m], budget=budget).pluri[m],
        "pluri_limit": lambda model, m, budget: pluri_limit(model, m),
        "pluri_bound_constant": lambda model, m, budget: tower.pluri_bound_constant(model, m),
    }

    @staticmethod
    def _model(q_base, translates, values):
        """``abelian(g=1)`` with its plurigenus data replaced; the translates
        are points of order 13 on the circle x_0 = 0."""
        points = tuple(TorusPoint.of([0, Fraction(j, 13)]) for j in range(translates))
        return dataclasses.replace(builtin("abelian", g=1).model, pluri=PluriData(q_base, points, values))

    @pytest.mark.parametrize("q_base", [0, 1])
    def test_value_zero_reads_zero_over_any_locus(self, q_base):
        # 13 translates exceed the default budget of 12, yet ω^2 of rank 0
        # everywhere has nothing to count, at any budget
        model = self._model(q_base, 13, {2: 0, 3: 4})
        for budget in (1, 12):
            assert [read(model, 2, budget) for read in self.READERS.values()] == [0, 0, 0, 0]
        assert normalized_sequence(model, ("pluri", 2), [1, 2, 10 ** 30], budget=1) == [0, 0, 0]

    def test_budget_caps_the_locus_translates(self):
        # q_base = 0: 13 proper translates, one point each at d = 13
        model = self._model(0, 13, {2: 0, 3: 4})
        for budget in (1, 12):
            for read in ("value_on_cover", "cover_invariants"):
                with pytest.raises(ComponentBudgetExceeded,
                                   match=f"^13 components exceed the component budget of {budget}$"):
                    self.READERS[read](model, 3, budget)
        assert value_on_cover(model, ("pluri", 3), 13, budget=13) == 4 * 13
        assert value_on_cover(model, ("pluri", 3), 5, budget=13) == 4
        # the limit and the bound constant read no locus count
        assert (pluri_limit(model, 3), tower.pluri_bound_constant(model, 3)) == (0, 4 * 13)
        # q_base = g: the locus fills the torus, and no translate lies above it
        full = self._model(1, 13, {2: 0, 3: 4})
        assert [read(full, 3, 1) for read in self.READERS.values()] == [4 * 25, 4 * 25, 4, 4 * (1 + 13)]

    @pytest.mark.parametrize("q_base", [0, 1])
    def test_no_translates(self, q_base):
        # an empty locus: P_m is 0 on every cover, yet the bound constant
        # counts one translate
        model = self._model(q_base, 0, {2: 3, 3: 0})
        assert [read(model, 2, 12) for read in self.READERS.values()] == [0, 0, 0, 3]
        assert [read(model, 3, 12) for read in self.READERS.values()] == [0, 0, 0, 0]

    @pytest.mark.parametrize("q_base", [2, -1, 10 ** 5000], ids=["2", "-1", "10^5000"])
    def test_q_base_outside_the_torus_at_every_exponent(self, q_base):
        # a value-0 exponent and an exponent with no data are refused alike;
        # P_1 is the grid's h^(n,0) and reads as it does without the data
        model = self._model(q_base, 1, {2: 0, 3: 4})
        message = rf"^q_base {re.escape(shown_int(q_base))} lies outside \[0, g\] = \[0, 1\]$"
        for m in (2, 3, 4):
            for read in self.READERS.values():
                with pytest.raises(ValueError, match=message):
                    read(model, m, 12)
        with pytest.raises(ValueError, match=message):
            tower.pluri_bound_constant(model, 1)
        assert value_on_cover(model, ("pluri", 1), 5) == cover_invariants(model, 5, [1]).pluri[1] == 1

    def test_missing_data(self):
        # no exponent 1 in the data: P_1 reads off the grid, yet has no bound constant
        for model in (builtin("elliptic_surface_qI0", genus=2, chi=1).model,
                      builtin("blowup_abelian4_curve", genus=2).model, self._model(0, 2, {2: 3})):
            assert model.pluri is None or 1 not in model.pluri.values
            for m in (1, 7):
                with pytest.raises(MissingPluriData, match=f"^no plurigenus data for m = {m}$"):
                    tower.pluri_bound_constant(model, m)
            for read in ("value_on_cover", "cover_invariants", "pluri_limit"):
                with pytest.raises(MissingPluriData, match="^no plurigenus data for m = 7$"):
                    self.READERS[read](model, 7, 12)
            assert value_on_cover(model, ("pluri", 1), 2) == cover_invariants(model, 2).hodge[model.n][0]


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

    def test_an_index_of_the_wrong_type(self):
        # a bool is not read as 0 or 1, a float exponent is not read as an
        # int, and a string exponent or a list name is not compared or hashed
        model = builtin("elliptic_surface_qI0", genus=2, chi=1).model
        assert 2 in model.pluri.values
        for selector in (("hodge", True, 0), ("hodge", 0, False), ("betti", True), ("pluri", True),
                         ("pluri", 2.0), ("pluri", "2")):
            self.assert_refused(model, selector)
        model = builtin("nondeg_line_bundle", g=2, p=1, chi0=2).model
        for selector in (("sheaf", "line_bundle", True), ("sheaf", "line_bundle", 1.0),
                         ("sheaf", ["line_bundle"], 0), ("sheaf", None, 0)):
            self.assert_refused(model, selector)

    def test_betti_degree_outside_the_range_is_zero(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        for k in (-1, 2 * model.n + 1, 10 ** 30):
            assert tower.summands(model, ("betti", k)) == []
            assert [value_on_cover(model, ("betti", k), d) for d in (1, 2, 10 ** 30)] == [0, 0, 0]
            limit = symbolic_limit(model, ("betti", k))
            assert type(limit) is Fraction and limit == 0


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
        assert symbolic_limit(model, ("irregularity",)) == 0
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

    @pytest.mark.parametrize("name,params", [*DEFAULT_INSTANCES, *(pytest.param(seed, None, id=seed) for seed in (
        "golden:1", "golden:2", "golden:5", "invariance:0", "invariance:17"))])
    def test_one_table_evaluation_per_cover(self, monkeypatch, name, params):
        # the catalog entries, and seeded models with gates and several
        # divisibility classes: once the first cover has compiled its table,
        # no cover, however large d, runs a Smith form, a Hermite reduction or
        # a meet, so its cost does not grow with d
        model = random_model(random.Random(name)) if params is None else builtin(name, **params).model
        pluri_ms = [1] + sorted(model.pluri.values if model.pluri else ())
        ds = (*range(1, 25), 10 ** 30)
        expected = {d: (tuple(tuple(summed_count(model, ("hodge", p, q), d) for q in range(model.n + 1))
                              for p in range(model.n + 1)),
                        tuple(summed_count(model, ("betti", k), d) for k in range(2 * model.n + 1)),
                        {m: summed_count(model, ("pluri", m), d) for m in pluri_ms}) for d in ds}
        values = count_calls(monkeypatch, (counting.CountTable, "values"))
        forms = count_calls(monkeypatch, (RankFunction, "count_form"))
        tables = count_calls(monkeypatch, (counting.CountTable, "of"))
        built = count_calls(monkeypatch, (torus, "snf"), (counting, "snf"), (torus, "_hermite"),
                            (torus, "_smith_data"), (torus.NormalizedCoset, "meet"))
        cover_invariants(model, 4, pluri_ms)  # the first cover compiles what it reads, once
        assert len(tables) <= 1 + (model.pluri is not None) <= 2
        tables.clear()
        built.clear()
        for d in ds:
            for ms in ((), pluri_ms):
                values.clear()
                forms.clear()
                inv = cover_invariants(model, d, ms)
                # one table evaluation for the grid, the Betti numbers and
                # deg, and one read of the locus's kept table for every m >= 2
                assert len(values) == 1 + (len(ms) > 1)
                assert len(forms) == (len(ms) > 1)
                assert (inv.hodge, inv.betti) == expected[d][:2]
            assert inv.pluri == expected[d][2]
            assert inv.pluri[1] == inv.hodge[model.n][0]
            for m, value in (model.pluri.values.items() if model.pluri else ()):
                assert value * sheaf_rank_on_cover(model.pluri_locus, d) == inv.pluri[m]
            assert built == [], d
        # no later cover or read of a plurigenus compiles a table
        assert tables == []

    def test_table_budget_checked_on_every_call(self):
        # parallel circles of translate order 5: four at (0,1), five at (1,0),
        # so the first entry over the budget, row-major, depends on the budget
        base = builtin("abelian", g=1).model
        circles = tuple(Stratum(CongruenceCoset.of(2, [[1, 0]], [Fraction(j, 5)]), 2) for j in range(5))
        rows = [list(row) for row in base.hodge]
        rows[0][1], rows[1][0] = RankFunction(2, 1, circles[:4]), RankFunction(2, 1, circles)
        model = dataclasses.replace(base, hodge=tuple(map(tuple, rows)))
        # the table and a whole cover read every entry, so their budget covers
        # the whole grid; a single number reads only its own rank functions,
        # so its budget caps those alone: (1,1), which has no strata, always reads
        grid = (lambda b: model.hodge_table(b), lambda b: cover_invariants(model, 5, budget=b))
        single = {(1, 0): 5, (0, 1): 4, (1, 1): 0}
        for budget in (12, 3, 5, 4, 12, 3):
            if budget < 5:
                strata = 4 if budget < 4 else 5
                for call in grid:
                    with pytest.raises(ComponentBudgetExceeded,
                                       match=f"^{strata} components exceed the component budget of {budget}$"):
                        call(budget)
            else:
                assert cover_invariants(model, 5, budget=budget).hodge == ((1, 25 + 20), (25 + 25, 1))
            for (p, q), strata in single.items():
                if strata > budget:
                    with pytest.raises(ComponentBudgetExceeded,
                                       match=f"^{strata} components exceed the component budget of {budget}$"):
                        value_on_cover(model, ("hodge", p, q), 5, budget=budget)
                else:
                    assert value_on_cover(model, ("hodge", p, q), 5, budget=budget) == model.cut(
                        model.hodge_table(12).values(5))[0][p][q]

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

    def test_degree_is_the_top_exponent_of_the_count(self):
        # read off the normalized strata, the degree equals the count form's
        # polynomial's top exponent: no leading coefficient cancels
        rank_functions = [rf for model in self._models()
                          for rf in (*(rf for row in model.hodge for rf in row), *[model.pluri_locus] * bool(model.pluri),
                                     *(rf for slot in model.sheaves.values() for rf in slot))]
        for rf in rank_functions:
            assert rf.degree == max(rf.count_form(12).polynomial, default=-1)
        assert {-1, 0} < {rf.degree for rf in rank_functions}

    def test_model_corpus_has_torsion_classes(self):
        terms = [nc for model in self._models() for row in model.hodge for rf in row
                 for _, nc in rf.count_form(DEFAULT_COMPONENT_BUDGET).terms]
        assert {2, 3} <= {nc.order for nc in terms}
        assert any(nc.component_count > 1 for nc in terms)

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

    @staticmethod
    def _selected(model, selector):
        """The (coefficient, rank function) pairs a selector names, picked
        from the model here rather than by :func:`tower.summands`."""
        kind, *args = selector
        if kind == "hodge":
            return [(1, model.hodge[args[0]][args[1]])]
        if kind == "betti":
            return [(1, model.hodge[p][q]) for p, q in model.hodge_pairs() if p + q == args[0]]
        if kind == "irregularity":
            return [(1, model.hodge[0][1])] if model.n else []
        if kind == "pluri":
            m = args[0]
            return [(1, model.hodge[model.n][0]) if m == 1 else (model.pluri.values[m], model.pluri_locus)]
        return [(1, model.sheaves[args[0]][args[1]])]

    @pytest.mark.parametrize("d", [*range(1, 13), 24, 10 ** 6, 10 ** 30])
    def test_every_selector_reads_its_summed_counts(self, d):
        # value_on_cover against the forms of the rank functions the selector
        # names, picked here and read term by term with no table, for every
        # kind of selector, Betti degrees outside [0, 2n] too; over the
        # corpus, the 20 invariance and the 3 golden models
        models = self._models() + [random_model(random.Random(f"invariance:{seed}")) for seed in range(20)]
        models += [random_model(random.Random(f"golden:{k}")) for k in (1, 2, 5)]
        kinds = set()
        for model in models:
            n = model.n
            selectors = [("hodge", p, q) for p, q in model.hodge_pairs()]
            selectors += [("betti", k) for k in range(-1, 2 * n + 2)]
            selectors += [("irregularity",), ("pluri", 1)] + [("pluri", m) for m in (model.pluri.values if model.pluri else ())]
            selectors += [("sheaf", name, i) for name, slot in model.sheaves.items() for i in range(len(slot))]
            for selector in selectors:
                rfs = self._selected(model, selector)
                expected = sum(c * per_term_count(rf.count_form(12), d) for c, rf in rfs)
                assert value_on_cover(model, selector, d) == expected == summed_count(model, selector, d), selector
                kinds.add((selector[0], bool(rfs)))
        assert kinds == {("hodge", True), ("betti", True), ("betti", False), ("irregularity", True),
                         ("irregularity", False), ("pluri", True), ("sheaf", True)}
        assert any(model.pluri and model.pluri.values for model in models)  # P_m for m >= 2 too

    def test_grid_is_the_row_slices_of_the_values(self):
        # n runs from 0 to 4 over the corpus; the values run on past the grid
        # into the Betti numbers and d^(2g), which the grid must not take
        models = self._models()
        assert {model.n for model in models} == {0, 1, 2, 3, 4}
        for model in models:
            w = model.n + 1
            for d in (1, 6, 10 ** 30):
                values = model.hodge_table(DEFAULT_COMPONENT_BUDGET).values(d)
                grid = model.cut(values)[0]
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


_QI0 = builtin("elliptic_surface_qI0", genus=2, chi=1).model
_HALF = CongruenceCoset.of(2, [[1, 0]], ["1/2"])
# every public reader of a cover index, with its value at d = 2
_D_READERS = {
    "coset_torsion_count": (lambda d: counting.coset_torsion_count(_HALF, d).value, 2),
    "union_torsion_count": (lambda d: counting.union_torsion_count([_HALF], d), 2),
    "enumerate_torsion": (lambda d: len(counting.enumerate_torsion(_HALF, d)), 2),
    "CountTable.values": (lambda d: _QI0.hodge_table(DEFAULT_COMPONENT_BUDGET).values(d),
                          [1, 17, 32, 17, 194, 17, 32, 17, 1, 1, 34, 258, 34, 1, 16]),
    "sheaf_rank_on_cover": (lambda d: sheaf_rank_on_cover(_QI0.pluri_locus, d), 16),
    "value_on_cover": (lambda d: value_on_cover(_QI0, ("hodge", 1, 1), d), 194),
    "value_on_cover, no summands": (lambda d: value_on_cover(_QI0, ("betti", 7), d), 0),
    "cover_invariants": (lambda d: cover_invariants(_QI0, d).hodge[0][1], 17),
    "chi_multiplicativity_check": (lambda d: chi_multiplicativity_check(_QI0, d), True),
    "normalized_sequence": (lambda d: normalized_sequence(_QI0, ("hodge", 1, 1), [d]), [Fraction(97, 8)]),
    "normalized_sequence, no summands": (lambda d: normalized_sequence(_QI0, ("betti", -1), [d]), [0]),
    "betti_limit_deviation": (lambda d: asymptotics.betti_limit_deviation(_QI0, d), Fraction(1, 8)),
}


class TestIntegerParameters:
    """A cover index, a plurigenus exponent and a defect bound are ints: a
    float, a bool, a Fraction or a text is refused by every public reader,
    which never computes in floats, and an int reads as it always has."""

    @pytest.mark.parametrize("reader", sorted(_D_READERS))
    @pytest.mark.parametrize("d", [2.0, True, Fraction(2), "2"], ids=repr)
    def test_cover_index_must_be_an_int(self, reader, d):
        read, _ = _D_READERS[reader]
        with pytest.raises(TypeError, match=f"^d must be an int, not {type(d).__name__}$"):
            read(d)

    @pytest.mark.parametrize("reader", sorted(_D_READERS))
    def test_an_int_cover_index_reads_as_before(self, reader):
        read, expected = _D_READERS[reader]
        assert read(2) == expected

    @pytest.mark.parametrize("m", [1.0, 2.0, True])
    def test_plurigenus_exponent_must_be_an_int(self, m):
        # one ValueError for an exponent that is not an int, from every reader
        for read in (lambda: cover_invariants(_QI0, 2, [m]), lambda: cover_invariants(_QI0, 2, [1, m]),
                     lambda: tower.pluri_bound_constant(_QI0, m),
                     lambda: value_on_cover(_QI0, ("pluri", m), 2)):
            with pytest.raises(ValueError, match=re.escape(f"unknown selector ('pluri', {m!r})")):
                read()
        assert cover_invariants(_QI0, 2, [1, 2]).pluri == {1: 32, 2: 80}
        assert tower.pluri_bound_constant(_QI0, 2) == 10
        with pytest.raises(MissingPluriData, match="^no plurigenus data for m = 1$"):
            tower.pluri_bound_constant(_QI0, 1)
        with pytest.raises(ValueError, match="^m must be positive$"):
            tower.pluri_bound_constant(_QI0, 0)

    @pytest.mark.parametrize("bound", [0.0, True, 0.5])
    def test_defect_bound_must_be_an_int(self, bound):
        model = builtin("blowup_abelian4_curve", genus=2).model
        for read in (lambda: asymptotics.fit_bounds(model, bound, 4),
                     lambda: asymptotics.converse_defect_witness(model, bound),
                     lambda: model_module.decay_exponent(model, 0, 0, bound)):
            with pytest.raises(TypeError, match=f"^the defect bound must be an int, not {type(bound).__name__}$"):
                read()
        assert [fit.exponent for fit in asymptotics.fit_bounds(model, 0, 4)[:3]] == [8, 6, 4]
        assert asymptotics.converse_defect_witness(model, 0) == (1, 2)
        assert asymptotics.converse_defect_witness(model, 1) is None
