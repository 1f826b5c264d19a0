"""Property test: the signed sum over distinct meets equals enumeration."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from jumploci import CongruenceCoset, union_torsion_count
from oracles import brute_force_torsion_count


@st.composite
def unions(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rhs = st.builds(lambda den, num: Fraction(num % den, den), st.integers(1, 4), st.integers(0, 3))
    coset = st.integers(0, 2).flatmap(
        lambda k: st.tuples(st.lists(row, min_size=k, max_size=k), st.lists(rhs, min_size=k, max_size=k)))
    comps = draw(st.lists(coset, min_size=1, max_size=7))
    # repeat some components so that equal meets must merge
    comps += draw(st.lists(st.sampled_from(comps), max_size=2))
    return [CongruenceCoset.of(n, rows, b) for rows, b in comps]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(unions(), st.integers(1, 6))
def test_union_count_matches_enumeration(components, d):
    assert union_torsion_count(components, d) == brute_force_torsion_count(components, d)
