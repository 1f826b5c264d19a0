"""Cover invariants: level-set sums against pointwise brute force."""

import dataclasses
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from jumploci import (
    ComponentBudgetExceeded,
    CongruenceCoset,
    MissingPluriData,
    PluriData,
    RankFunction,
    Stratum,
    TorusPoint,
    betti_cover,
    builtin,
    chi_multiplicativity_check,
    chi_of_forms,
    chi_top,
    constant_rank,
    cover_invariants,
    euler_char,
    hodge_numbers_cover,
    irregularity_cover,
    normalized_sequence,
    origin_jump,
    plurigenera_cover,
    pluri_limit,
    sheaf_rank_on_cover,
    symbolic_limit,
)
from jumploci import counting, torus
from jumploci.counting import DEFAULT_COMPONENT_BUDGET
from gen import random_rank_function
from oracles import brute_force_rank_sum, smallest_torsion_order


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
        grid = hodge_numbers_cover(model, 3)
        assert grid[0][0] == 1
        assert grid[1][0] == 1

    def test_blowup_base_and_stable_entry(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert hodge_numbers_cover(model, 1)[1][2] == 26
        for d in range(1, 5):
            assert hodge_numbers_cover(model, d)[0][3] == 4

    def test_blowup_b3(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        for d in range(1, 5):
            assert betti_cover(model, d, 3) == 2 * d ** 8 + 58

    def test_abelian_betti_binomial(self):
        model = builtin("abelian", g=2).model
        for d in (1, 2, 3):
            for k in range(5):
                assert betti_cover(model, d, k) == comb(4, k)

    def test_shared_origin_runs_one_smith_pass(self, monkeypatch):
        # all 289 rank functions of the grid jump on one origin coset, whose
        # Smith data every count form reads
        calls = []
        for module in (torus, counting):
            real = module.snf
            monkeypatch.setattr(module, "snf", lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        grid = hodge_numbers_cover(builtin("abelian", g=16).model, 2)
        assert grid[16][16] == 1
        assert len(calls) == 1

    def test_b0_is_one(self):
        for name, params in (("abelian", {"g": 2}), ("cartwright_steger_like", {}),
                             ("fibered_over_curve", {"genus": 2})):
            model = builtin(name, **params).model
            assert betti_cover(model, 3, 0) == 1


class TestEulerCharacteristics:
    def test_abelian_rows_vanish(self):
        model = builtin("abelian", g=3).model
        for p in range(4):
            assert chi_of_forms(model, p) == 0

    def test_blowup_one_forms(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert chi_of_forms(model, 1) == 1

    def test_line_bundle_slot_sign(self):
        for p, chi0 in ((0, 3), (1, 2), (2, 5)):
            model = builtin("nondeg_line_bundle", g=2, p=p, chi0=chi0).model
            assert euler_char(model.sheaves["line_bundle"]) == (-1) ** p * chi0

    def test_chi_top_values(self):
        assert chi_top(builtin("abelian", g=2).model) == 0
        assert chi_top(builtin("blowup_abelian4_curve", genus=2).model) == -4
        assert chi_top(builtin("cartwright_steger_like").model) == 3
        assert chi_top(builtin("elliptic_surface_qI0", genus=2, chi=1).model) == 12

    def test_chi_top_matches_alternating_identity(self):
        # (-1)^n chi_top = sum_p (-1)^(n-p) chi(Omega^p), both read off the rows
        for name, params in (("blowup_abelian4_curve", {"genus": 3}),
                             ("fibered_over_curve", {"genus": 2})):
            model = builtin(name, **params).model
            n = model.n
            lhs = (-1) ** n * chi_top(model)
            rhs = sum((-1) ** (n - p) * chi_of_forms(model, p) for p in range(n + 1))
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
        assert betti_cover(model, d, 3) == 2 * d ** 8 + 58
        assert irregularity_cover(builtin("fibered_over_curve", genus=2).model, d) == d ** 4 + 2


class TestPlurigenera:
    def test_full_irregularity_base_is_multiplicative(self):
        base = builtin("abelian", g=1).model
        pluri = PluriData(
            q_base=1,
            translates=(TorusPoint.zero(2),),
            values={2: 7},
            generic_values={2: 7},
        )
        model = dataclasses.replace(base, pluri=pluri)
        assert plurigenera_cover(model, 3, 2) == 9 * 7
        assert pluri_limit(model, 2).value == 7

    def test_point_locus_stays_constant(self):
        model = builtin("abelian", g=2).model
        for d in range(1, 5):
            assert plurigenera_cover(model, d, 2) == 1
        lv = pluri_limit(model, 2)
        assert lv.value == 0
        assert lv.kind == "upper-bound-zero"

    def test_rank_function_built_once(self):
        pluri = builtin("abelian", g=2).model.pluri
        rf = pluri.rank_function(4, 2)
        assert pluri.rank_function(4, 2) is rf
        assert pluri.rank_function(4, 3) is not rf
        assert pluri.rank_function(2, 2) is not rf

    def test_geometric_genus_routes_through_grid(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        for d in (1, 2, 3):
            assert plurigenera_cover(model, d, 1) == sheaf_rank_on_cover(model.hodge[4][0], d)

    def test_missing_data(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        with pytest.raises(MissingPluriData):
            plurigenera_cover(model, 2, 3)


class TestIrregularity:
    def test_fibered_sequence(self):
        model = builtin("fibered_over_curve", genus=2).model
        for d in range(1, 5):
            assert irregularity_cover(model, d) == d ** 4 + 2

    def test_finite_locus_constant(self):
        model = builtin("cartwright_steger_like").model
        assert [irregularity_cover(model, d) for d in range(1, 7)] == [1] * 6

    def test_abelian_constant(self):
        model = builtin("abelian", g=3).model
        assert all(irregularity_cover(model, d) == 3 for d in (1, 2, 4))


class TestChiMultiplicativity:
    def test_abelian(self):
        model = builtin("abelian", g=2).model
        assert chi_multiplicativity_check(model, 3)

    def test_blowup_row_sum(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        grid = hodge_numbers_cover(model, 2)
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
