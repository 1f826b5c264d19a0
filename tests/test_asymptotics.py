"""Decay bounds, divergence classification, L² limits."""

import dataclasses
import random
from fractions import Fraction

import pytest

from jumploci import (
    CongruenceCoset,
    RankFunction,
    Stratum,
    betti_deviation_constant,
    betti_limit_deviation,
    builtin,
    constant_rank,
    converse_defect_witness,
    divergence_class,
    DivergenceReport,
    fit_bounds,
    l2_betti,
    l2_euler_characteristic,
    normalized_sequence,
    satisfies_weak_generic_nakano,
    value_on_cover,
    VarietyModel,
    DEFAULT_INSTANCES,
)
from jumploci import counting, model as model_module
from gen import random_rank_function
from oracles import top_euler_characteristic


def with_hodge(model, p, q, rf):
    rows = [list(row) for row in model.hodge]
    rows[p][q] = rf
    return dataclasses.replace(model, hodge=tuple(tuple(row) for row in rows))


def dimension_route(model, p, q, defect_bound):
    """Second route for a fit's exponent and verdict: compare the largest
    real dimension of the locus with 2g - e, stratum by stratum.  Returns
    the exponent e and the violating dimension (None when it passes)."""
    rf = model.hodge[p][q]
    exponent = 2 * (abs(model.n - p - q) - defect_bound)
    dims = [model.torus_dim] if rf.limit > 0 else [nc.dim for nc, _ in rf.effective_strata()]
    top = max(dims, default=-1)
    return exponent, top if top > model.torus_dim - exponent else None


def fit_at(model, p, q, defect_bound, d_max):
    """The (p,q) entry of the row-major grid of fits."""
    fit = fit_bounds(model, defect_bound, d_max)[p * (model.n + 1) + q]
    assert (fit.p, fit.q, fit.defect_bound) == (p, q, defect_bound)
    return fit


class TestFitBound:
    def test_semismall_codim_two_passes(self):
        for g in (3, 4):
            model = builtin("blowup_abelian_codim", g=g, c=2).model
            fits = fit_bounds(model, 0, 4)
            assert len(fits) == (model.n + 1) ** 2
            assert all(f.passes for f in fits)

    def test_blowup_fourfold_fails_at_zero(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        fit = fit_at(model, 1, 2, 0, 4)
        assert not fit.passes
        assert fit.exponent == 2
        assert fit.violating_dim == 8  # the locus fills the torus
        # over d = 1..4 the supremum of (1 + 25/d^8)·d^2 sits at d = 1
        assert fit.fitted_b == 26

    def test_blowup_fourfold_passes_at_one(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        fits = fit_bounds(model, 1, 4)
        assert len(fits) == 25
        assert all(f.passes for f in fits)

    def test_agrees_with_dimension_criterion(self):
        for model in fit_corpus():
            for bound in (0, 1, 2):
                fits = fit_bounds(model, bound, 3)
                assert [(f.p, f.q) for f in fits] == list(model.hodge_pairs())
                for f in fits:
                    exponent, bad_dim = dimension_route(model, f.p, f.q, bound)
                    assert (f.exponent, f.violating_dim) == (exponent, bad_dim), (model.name, f)
                    assert f.passes == (bad_dim is None)

    def test_failures_confirmed_numerically(self):
        # every analytic failure must show actual growth past the fitted range
        for name, params in DEFAULT_INSTANCES:
            model = builtin(name, **params).model
            for bound in (0, 1):
                for fit in fit_bounds(model, bound, 4):
                    if fit.passes:
                        continue
                    p, q = fit.p, fit.q
                    orders = [nc.order for nc, _ in model.hodge[p][q].effective_strata()]
                    step = max(orders, default=1)
                    ds = [8 * step, 16 * step]
                    seq = normalized_sequence(model, ("hodge", p, q), ds)
                    b8, b16 = (v * Fraction(d) ** fit.exponent for v, d in zip(seq, ds))
                    assert b16 > b8
                    assert b16 > fit.fitted_b


# small members of the catalog families beyond the default instances
CATALOG_SMALL = (
    ("abelian", {"g": 1}),
    ("nondeg_line_bundle", {"g": 1, "p": 0, "chi0": 1}),
    ("nondeg_line_bundle", {"g": 1, "p": 1, "chi0": 2}),
    ("nondeg_line_bundle", {"g": 2, "p": 2, "chi0": 1}),
    ("blowup_abelian_codim", {"g": 1, "c": 1}),
    ("blowup_abelian_codim", {"g": 2, "c": 1}),
    ("blowup_abelian_codim", {"g": 2, "c": 2}),
    ("elliptic_surface_qI0", {"genus": 2, "chi": 2}),
    ("elliptic_surface_qI0", {"genus": 2, "chi": 3}),
)


def fit_corpus():
    """Every catalog instance above, then seeded random models with n, g in {1, 2}."""
    models = [builtin(name, **params).model for name, params in DEFAULT_INSTANCES + CATALOG_SMALL]
    rng = random.Random(4457)
    for _ in range(60):
        n, g = rng.choice((1, 2)), rng.choice((1, 2))
        grid = tuple(tuple(random_rank_function(rng, 2 * g) for _ in range(n + 1))
                     for _ in range(n + 1))
        models.append(VarietyModel(n=n, g=g, hodge=grid, defect_strata=()))
    return models


class TestIntegerFit:
    """fit_bounds' integer suprema against the per-d Fraction route."""

    def test_equals_the_normalized_sequence_supremum(self):
        for model in fit_corpus():
            seqs = {(p, q): normalized_sequence(model, ("hodge", p, q), range(1, 41))
                    for p, q in model.hodge_pairs()}
            for bound in range(model.n + 1):
                for d_max in (2, 4, 16, 40):
                    for fit in fit_bounds(model, bound, d_max):
                        e = 2 * (abs(model.n - fit.p - fit.q) - bound)
                        expected = max(v * Fraction(d) ** e
                                       for d, v in enumerate(seqs[fit.p, fit.q][:d_max], 1))
                        assert type(fit.fitted_b) is Fraction
                        assert fit.fitted_b == expected, (model.name, fit, d_max)
                        assert str(fit.fitted_b) == str(expected)

    def test_no_form_read_and_one_count_per_d(self, monkeypatch):
        calls = {"count_form": 0, "values": 0}
        count_form, values = model_module.RankFunction.count_form, counting.CountTable.values

        def spy_count_form(self, budget):
            calls["count_form"] += 1
            return count_form(self, budget)

        def spy_values(self, d):
            calls["values"] += 1
            return values(self, d)

        monkeypatch.setattr(model_module.RankFunction, "count_form", spy_count_form)
        monkeypatch.setattr(counting.CountTable, "values", spy_values)
        model = builtin("blowup_abelian4_curve", genus=2).model
        for d_max in (2, 16):
            # the whole grid from one evaluation of the model's table per d;
            # each verdict reads the rank function's degree, so no form is read
            calls.update(count_form=0, values=0)
            fits = fit_bounds(model, 0, d_max)
            assert not all(f.passes for f in fits)
            assert calls == {"count_form": 0, "values": d_max}
        # neither does the converse, nor a bounded divergence class
        assert converse_defect_witness(model, 0) == (1, 2)
        assert not divergence_class(model).divergent
        assert calls == {"count_form": 0, "values": 16}

    def test_fit_bounds_rejects_a_short_range(self):
        with pytest.raises(ValueError, match="d_max must be at least 2"):
            fit_bounds(builtin("abelian", g=1).model, 0, 1)


class TestConverseWitness:
    def test_blowup_fourfold_witness(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        assert converse_defect_witness(model, 0) == (1, 2)
        assert converse_defect_witness(model, 1) is None

    def test_semismall_has_none(self):
        model = builtin("blowup_abelian_codim", g=4, c=2).model
        assert converse_defect_witness(model, 0) is None

    def test_abelian_has_none(self):
        model = builtin("abelian", g=3).model
        for bound in (0, 1, 2):
            assert converse_defect_witness(model, bound) is None

    def test_point_blowup_witness_matches_defect(self):
        model = builtin("blowup_abelian_codim", g=4, c=4).model  # defect 2
        assert converse_defect_witness(model, 1) is not None
        assert converse_defect_witness(model, 2) is None

    def test_is_the_first_failing_fit(self):
        # check reads its witness off the fits, so the two must agree
        found = 0
        for model in fit_corpus():
            for bound in range(model.n + 1):
                first = next(((f.p, f.q) for f in fit_bounds(model, bound, 2) if not f.passes), None)
                assert converse_defect_witness(model, bound) == first, (model.name, bound)
                found += first is not None
        assert found > 10


class TestDivergence:
    def test_fibered_diverges(self):
        model = builtin("fibered_over_curve", genus=2).model
        report = divergence_class(model)
        assert report.divergent
        assert report.max_stratum_dim == 4
        assert report.witness_order == 1
        assert report.base_irregularity == 3

    def test_bounded_cases(self):
        assert not divergence_class(builtin("cartwright_steger_like").model).divergent
        assert not divergence_class(builtin("abelian", g=2).model).divergent

    def test_lower_bound_along_witness_orders(self):
        model = builtin("fibered_over_curve", genus=2).model
        report = divergence_class(model)
        q0 = report.base_irregularity
        for j in range(1, 5):
            d = report.witness_order * j
            assert value_on_cover(model, ("irregularity",), d) >= q0 + d ** report.max_stratum_dim - 1

    def test_disconnected_stratum_witness_order(self):
        # {2·x0 ≡ 1/2, x1 ≡ 0} has translate order 2 but only points of order 4
        base = builtin("abelian", g=2).model
        coset = CongruenceCoset.of(4, [[2, 0, 0, 0], [0, 1, 0, 0]], [Fraction(1, 2), 0])
        h01 = RankFunction(4, 0, base.hodge[0][1].strata + (Stratum(coset, 1),))
        model = with_hodge(base, 0, 1, h01)
        report = divergence_class(model)
        assert (report.divergent, report.max_stratum_dim, report.witness_order) == (True, 2, 4)
        q0 = report.base_irregularity
        assert value_on_cover(model, ("irregularity",), 2) == q0 == 2
        for j in range(1, 4):
            d = 4 * j
            assert value_on_cover(model, ("irregularity",), d) >= q0 + d ** 2 - 1

    def test_more_strata_than_the_budget_are_classified(self):
        # 14 strata above the limit, over the component budget of 12: the
        # witness order is read off the strata, so no budget applies; the
        # stratum at k = 7, {x0 ≡ 1/2, x1 ≡ 0}, has its first point at d = 2
        base = builtin("abelian", g=2).model
        extra = tuple(Stratum(CongruenceCoset.of(4, [[1, 0, 0, 0], [0, 1, 0, 0]], [Fraction(k, 14), 0]), 1)
                      for k in range(1, 14))
        h01 = RankFunction(4, 0, base.hodge[0][1].strata + extra)
        assert h01._strata_above_limit == 14 > counting.DEFAULT_COMPONENT_BUDGET
        assert divergence_class(with_hodge(base, 0, 1, h01)) == DivergenceReport(True, 2, 2, 2)

    def test_classification_matches_sequence_growth(self):
        for name, params in DEFAULT_INSTANCES:
            model = builtin(name, **params).model
            report = divergence_class(model)
            step = report.witness_order or 1
            seq = [value_on_cover(model, ("irregularity",), step * j) for j in (1, 2, 3)]
            if report.divergent:
                assert seq[0] < seq[1] < seq[2]
            else:
                assert seq[0] == seq[1] == seq[2]


class TestL2:
    def test_semismall_blowup_closed_form(self):
        model = builtin("blowup_abelian_codim", g=3, c=2).model
        report = l2_betti(model)
        assert report.weak_gnv
        assert all(b == 0 for k, b in enumerate(report.betti) if k != model.n)
        assert report.betti[model.n] == (-1) ** model.n * top_euler_characteristic(model)

    def test_abelian_all_zero(self):
        report = l2_betti(builtin("abelian", g=2).model)
        assert all(b == 0 for b in report.betti)
        assert report.nonvanishing == frozenset()

    def test_ball_quotient_middle_value(self):
        model = builtin("cartwright_steger_like").model
        report = l2_betti(model)
        assert report.weak_gnv
        assert report.betti == (0, 0, 3, 0, 0)
        assert report.nonvanishing == frozenset({0, 1, 2})

    def test_non_weak_gnv_is_flagged(self):
        model = builtin("blowup_abelian4_curve", genus=2).model
        report = l2_betti(model)
        assert not report.weak_gnv
        assert report.hodge[1][2] == 1  # nonzero away from the middle degree

    def test_l2_euler_characteristic_identity(self):
        for name, params in DEFAULT_INSTANCES:
            model = builtin(name, **params).model
            report = l2_betti(model)
            assert l2_euler_characteristic(report) == model.chi_top == top_euler_characteristic(model)

    def test_deviation_constant_counts_components(self):
        # g = n = 1: h^(1,0) goes from 1 to 2 on the nine points {3·x ≡ 0}
        nine_points = CongruenceCoset.of(2, [[3, 0], [0, 3]], [0, 0])
        base = builtin("abelian", g=1).model
        model = with_hodge(with_hodge(base, 0, 1, constant_rank(2, 1)), 1, 0,
                           RankFunction(2, 1, (Stratum(nine_points, 2),)))
        c = betti_deviation_constant(model)
        assert betti_limit_deviation(model, 3) == 1
        for d in range(1, 13):
            assert betti_limit_deviation(model, d) <= Fraction(c, d ** 2)

    def test_deviation_constant_refuses_codimension_one(self):
        # a stratum of real dimension 2g - 1 = 1 decays only like d^(-1)
        line = CongruenceCoset.of(2, [[1, 0]], [0])
        model = with_hodge(builtin("abelian", g=1).model, 1, 0,
                           RankFunction(2, 0, (Stratum(line, 1),)))
        with pytest.raises(ValueError, match=r"\(1,0\) has a stratum of real dimension 1"):
            betti_deviation_constant(model)

    def test_middle_betti_deviation_bound(self):
        for name, params in DEFAULT_INSTANCES:
            model = builtin(name, **params).model
            if not satisfies_weak_generic_nakano(model):
                continue
            report = l2_betti(model)
            c = betti_deviation_constant(model)
            for d in range(1, 5):
                exact = Fraction(value_on_cover(model, ("betti", model.n), d), d ** model.torus_dim)
                assert abs(exact - report.betti[model.n]) <= Fraction(c, d ** 2)
