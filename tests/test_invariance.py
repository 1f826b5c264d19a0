"""Every output depends on the rank functions, not on how they are presented.

A unimodular W is an automorphism x -> W·x of the torus (R/Z)^N: it maps
the d-torsion points onto themselves, fixes the origin and commutes with
negation.  It maps the coset {x : A·x ≡ b} onto {y : A·W⁻¹·y ≡ b}, so
replacing every stratum's rows A by A·W⁻¹ moves each rank function by an
automorphism, and no invariant of the covers, limit, decay fit, witness or
validation finding may change.

Two more relations hold for the covers.  Translating by a point t of order
k maps the d-torsion points onto themselves whenever k divides d, and maps
{x : A·x ≡ b} onto {y : A·y ≡ b + A·t}; so translating every stratum by t
leaves every cover X_d with k | d unchanged.  And a stratum contained in
another one of at least its value changes no rank under the max rule, so
adding one changes no cover, decay fit or divergence verdict.

Last, one rank function has many presentations: the stratum
{2A·x ≡ 2b} is the union of the 2^k cosets {A·x ≡ b + j/2}, j in {0,1}^k,
k the number of rows of A, so it can be given as one stratum or as those
pieces at the same value.  Both give the same rank at every point, and so
every output except the findings that name strata by index.

The models have several divisibility classes (least orders 2 to 4,
reduced Smith pivots above 1), so the torsion gates of the count table are
exercised, not only its limits, and a model and its image under W have
the same table, class for class.
"""

import itertools
import random
from fractions import Fraction

import pytest

from jumploci import CongruenceCoset, RankFunction, Stratum, TorusPoint, validate_model
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


def remapped(model, move):
    """The model with every rank function replaced by ``move`` of it."""
    return type(model)(n=model.n, g=model.g, hodge=tuple(tuple(map(move, row)) for row in model.hodge),
                       defect_strata=model.defect_strata)


def with_cosets(model, image):
    """The model with every stratum's coset replaced by ``image`` of it; a
    coset that several strata share stays one object."""
    images = {}

    def move(rf):
        strata = []
        for coset, value in rf.strata:
            if id(coset) not in images:
                images[id(coset)] = image(coset)
            strata.append(Stratum(images[id(coset)], value))
        return RankFunction(rf.ambient_dim, rf.generic_value, tuple(strata))

    return remapped(model, move)


def moved(model, w):
    """The model with every stratum's rows A replaced by A·W⁻¹."""
    w_inv = inverse(w)
    n = len(w)
    return with_cosets(model, lambda coset: CongruenceCoset.of(
        n, [[sum(row[k] * w_inv[k][j] for k in range(n)) for j in range(n)] for row in coset.rows], coset.rhs))


def translated(model, t):
    """The model with every stratum translated by the point t."""
    return with_cosets(model, lambda coset: CongruenceCoset.of(
        coset.ambient_dim, coset.rows, [b + sum(a * c for a, c in zip(row, t.coords))
                                        for row, b in zip(coset.rows, coset.rhs)]))


def point_of(coset):
    """A point of a nonempty coset: H·x = nums/order solved exactly over Q by
    back substitution on its Hermite rows, the free coordinates set to 0."""
    nc = coset.normalize()
    x = [Fraction(0)] * nc.ambient_dim
    for row, num in reversed(list(zip(nc.rows, nc.nums))):
        pivot = next(c for c, a in enumerate(row) if a)
        x[pivot] = (Fraction(num, nc.order) - sum(a * c for a, c in zip(row, x))) / row[pivot]
    point = TorusPoint.of(x)
    assert coset.contains(point)
    return point


def with_dominated_strata(model, rng):
    """The model with, in each grid entry that has strata, one more stratum
    inside one of them, cut by a random row through a point of it, with a
    value from above the generic one up to that stratum's."""
    def move(rf):
        if not rf.strata:
            return rf
        coset, value = rng.choice(rf.strata)
        x = point_of(coset)
        row = [rng.randint(-3, 3) for _ in range(rf.ambient_dim)]
        inner = CongruenceCoset.of(rf.ambient_dim, [*coset.rows, row],
                                   [*coset.rhs, sum(a * c for a, c in zip(row, x.coords))])
        return RankFunction(rf.ambient_dim, rf.generic_value,
                            (*rf.strata, Stratum(inner, rng.randint(rf.generic_value + 1, value))))

    return remapped(model, move)


def degrees(model):
    return [[rf.degree for rf in row] for row in model.hodge]


def outputs(model):
    return {
        "degrees": degrees(model),
        "covers": [cover_invariants(model, d) for d in DS],
        "fits": [fit_bounds(model, bound, 8) for bound in range(model.n + 1)],
        "divergence": divergence_class(model),
        "witness orders": [[rf.witness_order for rf in row] for row in model.hodge],
        "findings": [f.message for f in validate_model(model).findings],
    }


def split(model, rng):
    """Two presentations of the same rank functions: in each distinct grid
    function but the origin jump, one stratum {A·x ≡ b} of 1 or 2 rows is
    replaced by {2A·x ≡ 2b} in the first, and by its pieces {A·x ≡ b + j/2}
    at the same value in the second.  Also returns the pieces."""
    images, pieces = {}, []
    for rf in (rf for row in model.hodge for rf in row):
        candidates = [i for i, (coset, _) in enumerate(rf.strata) if 1 <= len(coset.rows) <= 2]
        if rf in images or rf == model.hodge[0][0] or not candidates:
            continue
        i = rng.choice(candidates)
        (coset, value), before, after = rf.strata[i], rf.strata[:i], rf.strata[i + 1:]
        parts = [CongruenceCoset.of(rf.ambient_dim, coset.rows, [b + Fraction(j, 2) for b, j in zip(coset.rhs, js)])
                 for js in itertools.product((0, 1), repeat=len(coset.rows))]
        pieces.append(parts)
        doubled = CongruenceCoset.of(rf.ambient_dim, [[2 * a for a in row] for row in coset.rows],
                                     [2 * b for b in coset.rhs])
        images[rf] = tuple(RankFunction(rf.ambient_dim, rf.generic_value, (*before, *strata, *after))
                           for strata in ([Stratum(doubled, value)], [Stratum(c, value) for c in parts]))
    one = remapped(model, lambda rf: images.get(rf, (rf, rf))[0])
    many = remapped(model, lambda rf: images.get(rf, (rf, rf))[1])
    return one, many, pieces


@pytest.mark.parametrize("seed", range(20))
def test_outputs_ignore_how_a_stratum_splits_into_components(seed):
    model = random_model(random.Random(f"invariance:{seed}"))
    one, many, pieces = split(model, random.Random(f"splitting:{seed}"))
    # no pieces when only the origin jump has a stratum of 1 or 2 rows
    assert (one != many) == bool(pieces)
    got = [outputs(one), outputs(many)]
    for key in ("degrees", "covers", "fits", "divergence", "witness orders"):
        assert got[0][key] == got[1][key]
    assert validate_model(one).ok == validate_model(many).ok


def test_some_split_has_several_components_of_translate_order_two():
    nonempty, orders, splitting = [], set(), 0
    for seed in range(20):
        _, _, pieces = split(random_model(random.Random(f"invariance:{seed}")), random.Random(f"splitting:{seed}"))
        splitting += bool(pieces)
        for parts in pieces:
            normalized = [nc for nc in (c.normalize() for c in parts) if nc is not None]
            nonempty.append(len(normalized))
            orders.update(nc.order for nc in normalized)
    assert splitting >= 17
    assert max(nonempty) >= 2
    assert 2 in orders


@pytest.mark.parametrize("seed", range(20))
def test_outputs_are_invariant_under_a_unimodular_change_of_coordinates(seed):
    rng = random.Random(f"invariance:{seed}")
    model = random_model(rng)
    w = random_unimodular(rng, model.torus_dim, steps=4 * model.torus_dim)
    image = moved(model, w)
    assert image != model  # W moves some stratum's rows
    assert outputs(image) == outputs(model)


def table(model):
    """The model's count table, blind to the order of its classes, exponents
    and columns."""
    t = model.hodge_table(DEFAULT_COMPONENT_BUDGET)
    return t.constants, {(m, pivots): {e: dict(entries) for e, entries in exponents}
                         for m, pivots, exponents in t.classes}


@pytest.mark.parametrize("seed", range(20))
def test_tables_are_identical_under_a_unimodular_change_of_coordinates(seed):
    # a term's class (least order, reduced Smith pivots) belongs to its coset,
    # not to the Smith transform, so W maps each class onto itself; component
    # splitting keeps the values but not the classes: {2x ≡ 0} is class
    # (1, (2,)), its pieces (1, ()) and (2, ())
    rng = random.Random(f"invariance:{seed}")
    model = random_model(rng)
    w = random_unimodular(rng, model.torus_dim, steps=4 * model.torus_dim)
    assert table(moved(model, w)) == table(model)


def test_the_models_have_several_divisibility_classes():
    classes = set()
    for seed in range(20):
        model = random_model(random.Random(f"invariance:{seed}"))
        for min_order, pivots, _ in model.hodge_table(DEFAULT_COMPONENT_BUDGET).classes:
            classes.add((min_order, pivots))
    assert len({min_order for min_order, _ in classes}) >= 3
    assert any(pivots for _, pivots in classes)


@pytest.mark.parametrize("seed", range(20))
def test_covers_are_invariant_under_a_torsion_translation(seed):
    rng = random.Random(f"invariance:{seed}")
    model = random_model(rng)
    k = rng.randint(2, 6)
    t = TorusPoint.of([Fraction(1, k)] + [Fraction(rng.randrange(k), k) for _ in range(model.torus_dim - 1)])
    image = translated(model, t)
    assert image != model
    for d in (k, 2 * k, 6 * k, k * (10 ** 30 // k)):
        assert cover_invariants(image, d) == cover_invariants(model, d)
    assert degrees(image) == degrees(model)


@pytest.mark.parametrize("seed", range(20))
def test_covers_fits_and_verdict_ignore_a_dominated_stratum(seed):
    rng = random.Random(f"invariance:{seed}")
    model = random_model(rng)
    wider = with_dominated_strata(model, rng)
    assert wider != model
    assert [cover_invariants(wider, d) for d in DS] == [cover_invariants(model, d) for d in DS]
    assert [fit_bounds(wider, bound, 8) for bound in range(model.n + 1)] == \
        [fit_bounds(model, bound, 8) for bound in range(model.n + 1)]
    assert divergence_class(wider) == divergence_class(model)
    assert degrees(wider) == degrees(model)
