"""Every output depends on the rank functions, not on how they are presented.

A unimodular W is an automorphism x -> W·x of the torus (R/Z)^N: it maps
the d-torsion points onto themselves, fixes the origin and commutes with
negation.  It maps the coset {x : A·x ≡ b} onto {y : A·W⁻¹·y ≡ b}, so
replacing every stratum's rows A by A·W⁻¹ moves each rank function by an
automorphism, and no invariant of the covers, limit, decay fit, witness or
validation finding may change.  The models have several divisibility
classes (translates of order 2 to 4, Smith pivots above 1), so the torsion
gates of the count table are exercised, not only its limits.
"""

import random
from fractions import Fraction

import pytest

from jumploci import CongruenceCoset, RankFunction, Stratum, validate_model
from jumploci.asymptotics import divergence_class, fit_bounds
from jumploci.counting import DEFAULT_COMPONENT_BUDGET
from jumploci.tower import cover_invariants
from gen import random_model, random_unimodular

DS = (*range(1, 13), 30, 10 ** 6, 10 ** 30)


def inverse(matrix):
    """The inverse of a unimodular integer matrix, by Gauss-Jordan over Fractions."""
    n = len(matrix)
    rows = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [a / rows[col][col] for a in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    out = [row[n:] for row in rows]
    assert all(a.denominator == 1 for row in out for a in row)
    return [[int(a) for a in row] for row in out]


def moved(model, w):
    """The model with every stratum's rows A replaced by A·W⁻¹; a coset
    that several strata share stays one object."""
    w_inv = inverse(w)
    n = len(w)
    images = {}

    def image(coset):
        if id(coset) not in images:
            rows = [[sum(row[k] * w_inv[k][j] for k in range(n)) for j in range(n)] for row in coset.rows]
            images[id(coset)] = CongruenceCoset.of(n, rows, coset.rhs)
        return images[id(coset)]

    def move(rf):
        return RankFunction(rf.ambient_dim, rf.generic_value, tuple(Stratum(image(c), v) for c, v in rf.strata))

    return type(model)(n=model.n, g=model.g, hodge=tuple(tuple(map(move, row)) for row in model.hodge),
                       defect_strata=model.defect_strata)


def outputs(model):
    budget = DEFAULT_COMPONENT_BUDGET
    return {
        "covers": [cover_invariants(model, d) for d in DS],
        "fits": [fit_bounds(model, bound, 8) for bound in range(model.n + 1)],
        "divergence": divergence_class(model),
        "witness orders": [[rf.count_form(budget).witness_order for rf in row] for row in model.hodge],
        "findings": [f.message for f in validate_model(model).findings],
    }


@pytest.mark.parametrize("seed", range(20))
def test_outputs_are_invariant_under_a_unimodular_change_of_coordinates(seed):
    rng = random.Random(f"invariance:{seed}")
    model = random_model(rng)
    w = random_unimodular(rng, model.torus_dim, steps=4 * model.torus_dim)
    image = moved(model, w)
    assert image != model  # W moves some stratum's rows
    assert outputs(image) == outputs(model)


def test_the_models_have_several_divisibility_classes():
    classes = set()
    for seed in range(20):
        model = random_model(random.Random(f"invariance:{seed}"))
        for order, torsion, _ in model.hodge_table(DEFAULT_COMPONENT_BUDGET).classes:
            classes.add((order, torsion))
    assert len({order for order, _ in classes}) >= 3
    assert any(torsion for _, torsion in classes)
