"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each criterion asserts exact equalities (the underlying statements are
exact, so there are no tolerances to tune).
"""

import random
from fractions import Fraction

from jumploci import (
    betti_deviation_constant,
    builtin,
    cover_invariants,
    converse_defect_witness,
    defect,
    divergence_class,
    fit_bounds,
    l2_betti,
    normalized_sequence,
    pluri_bound_constant,
    satisfies_weak_generic_nakano,
    symbolic_limit,
    union_torsion_count,
    value_on_cover,
    DEFAULT_INSTANCES,
)
from gen import random_connected_coset, random_coset
from oracles import (
    blowup4_cover_hodge,
    brute_force_torsion_count,
    row_euler_characteristic,
    top_euler_characteristic,
)


class _Criterion:
    def __init__(self, num: int, desc: str):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:02d} [{status}] {self.desc}")
        return False


def test_criterion_01_torsion_count_oracle():
    with _Criterion(1, "union torsion counts equal brute-force enumeration (1000 cases)"):
        rng = random.Random(20260809)
        for _ in range(1000):
            n = rng.randint(1, 4)
            d = rng.randint(1, 6)
            comps = [random_coset(rng, n) for _ in range(rng.randint(1, 3))]
            assert union_torsion_count(comps, d) == brute_force_torsion_count(comps, d)


def test_criterion_02_connected_coset_dichotomy():
    with _Criterion(2, "connected cosets carry 0 or d^dim torsion points, 0 iff order does not divide d"):
        rng = random.Random(515)
        for _ in range(200):
            n = rng.randint(1, 4)
            coset, _ = random_connected_coset(rng, n)
            nc = coset.normalize()
            assert nc is not None and nc.component_count == 1
            for d in range(1, 7):
                value = union_torsion_count([coset], d)
                assert value in (0, d ** nc.dim)
                assert (value > 0) == (d % nc.order == 0)


def test_criterion_03_blowup_fourfold_values():
    with _Criterion(3, "blowup of an abelian fourfold: h^(1,2), b_3 and their limits"):
        model = builtin("blowup_abelian4_curve", genus=2).model
        for d in range(1, 5):
            h12 = cover_invariants(model, d).hodge[1][2]
            assert h12 == d ** 8 + 25
            assert h12 == blowup4_cover_hodge(2, d, 1, 2)
            assert value_on_cover(model, ("betti", 3), d) == 2 * d ** 8 + 58
        assert symbolic_limit(model, ("hodge", 1, 2)) == Fraction(1)
        assert symbolic_limit(model, ("betti", 3)) == Fraction(2)


def test_criterion_04_decay_bound_forward_and_converse():
    with _Criterion(4, "decay bounds: codim-2 blowups pass at N=0; the fourfold fails with witness (1,2), passes at N=1"):
        for g in (3, 4):
            semismall = builtin("blowup_abelian_codim", g=g, c=2).model
            fits = fit_bounds(semismall, 0, 4)
            assert len(fits) == (semismall.n + 1) ** 2 and all(f.passes for f in fits)
        model = builtin("blowup_abelian4_curve", genus=2).model
        failing = [(f.p, f.q) for f in fit_bounds(model, 0, 4) if not f.passes]
        assert (1, 2) in failing
        assert converse_defect_witness(model, 0) == failing[0] == (1, 2)
        fits = fit_bounds(model, 1, 4)
        assert len(fits) == 25 and all(f.passes for f in fits)
        assert converse_defect_witness(model, 1) is None


def test_criterion_05_defect_formula():
    with _Criterion(5, "defect of codim-c blowups equals max(0, c-2)"):
        for g in range(1, 7):
            for c in range(1, min(g, 5) + 1):
                model = builtin("blowup_abelian_codim", g=g, c=c).model
                assert defect(model) == max(0, c - 2)
        assert defect(builtin("blowup_abelian_codim", g=4, c=3).model) == 1


def test_criterion_06_chi_multiplicativity():
    with _Criterion(6, "row Euler characteristics scale exactly by the cover degree"):
        for name, params in DEFAULT_INSTANCES:
            model = builtin(name, **params).model
            for d in range(1, 5):
                deg = d ** model.torus_dim
                grid = cover_invariants(model, d).hodge
                for p in range(model.n + 1):
                    lhs = sum((-1) ** q * grid[p][q] for q in range(model.n + 1))
                    assert lhs == deg * model.chi_p[p] == deg * row_euler_characteristic(model, p), (name, d, p)


def test_criterion_07_line_bundle_constant_sequence():
    with _Criterion(7, "nondegenerate line bundle: normalized rank is the exact constant chi0"):
        for g, p, chi0 in ((1, 0, 2), (2, 0, 3), (2, 1, 2), (3, 2, 5)):
            model = builtin("nondeg_line_bundle", g=g, p=p, chi0=chi0).model
            seq = normalized_sequence(model, ("sheaf", "line_bundle", p), range(1, 6))
            assert seq == [Fraction(chi0)] * 5
            assert symbolic_limit(model, ("sheaf", "line_bundle", p)) == chi0


def test_criterion_08_plurigenus_multiplicativity_and_bound():
    with _Criterion(8, "plurigenera: multiplicative when the Iitaka base keeps q, bounded by M·d^(-2q(I)) otherwise"):
        for name, params in (("elliptic_surface_qI0", {"genus": 2, "chi": 1}),
                             ("cartwright_steger_like", {})):
            model = builtin(name, **params).model
            assert model.pluri.q_base == model.g  # q(I) = 0
            for m in range(2, 6):
                base = value_on_cover(model, ("pluri", m), 1)
                for d in range(1, 5):
                    assert value_on_cover(model, ("pluri", m), d) == d ** model.torus_dim * base
        for g in (1, 2):
            model = builtin("abelian", g=g).model
            q_iitaka = model.g - model.pluri.q_base
            assert q_iitaka > 0
            for m in range(2, 6):
                bound_m = pluri_bound_constant(model, m)
                for d in range(1, 5):
                    normalized = Fraction(value_on_cover(model, ("pluri", m), d), d ** model.torus_dim)
                    assert normalized <= bound_m * Fraction(1, d ** (2 * q_iitaka))


def test_criterion_09_irregularity_divergence():
    with _Criterion(9, "cover irregularity: d^4 + 2 and divergent for the product, constant and bounded for the ball quotient"):
        fibered = builtin("fibered_over_curve", genus=2).model
        for d in range(1, 5):
            assert value_on_cover(fibered, ("irregularity",), d) == d ** 4 + 2
        report = divergence_class(fibered)
        assert report.divergent and report.max_stratum_dim == 4
        ball = builtin("cartwright_steger_like").model
        assert [value_on_cover(ball, ("irregularity",), d) for d in range(1, 7)] == [1] * 6
        assert not divergence_class(ball).divergent


def test_criterion_10_l2_betti_numbers():
    with _Criterion(10, "L²: zero off the middle degree, (-1)^n·chi_top there, with d^(-2) convergence"):
        checked = 0
        for name, params in DEFAULT_INSTANCES:
            model = builtin(name, **params).model
            if not satisfies_weak_generic_nakano(model):
                continue
            checked += 1
            report = l2_betti(model)
            assert report.weak_gnv
            for k, b in enumerate(report.betti):
                if k != model.n:
                    assert b == 0
            assert report.betti[model.n] == (-1) ** model.n * model.chi_top
            assert model.chi_top == top_euler_characteristic(model)
            c = betti_deviation_constant(model)
            for d in range(1, 5):
                exact = Fraction(value_on_cover(model, ("betti", model.n), d), d ** model.torus_dim)
                assert abs(exact - report.betti[model.n]) <= Fraction(c, d ** 2)
        assert checked >= 5  # the weak-GNV part of the catalog is nonempty
