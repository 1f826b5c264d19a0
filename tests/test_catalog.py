"""Catalog entries against their closed-form oracles."""

from math import comb

import pytest

from jumploci import (
    BadParams,
    TorusPoint,
    UnknownName,
    builtin,
    builtin_names,
    cover_invariants,
    defect,
    sheaf_rank_on_cover,
    validate_model,
    DEFAULT_INSTANCES,
)
from jumploci.modelfile import MAX_G, MAX_N
from oracles import COVER_ORACLES


def test_every_entry_validates_cleanly():
    for name, params in DEFAULT_INSTANCES:
        entry = builtin(name, **params)
        report = validate_model(entry.model)
        assert report.ok, (entry.model.name, [f.message for f in report.errors])
        assert not report.warnings, (entry.model.name, [f.message for f in report.warnings])
        assert entry.oracle_notes


def test_oracle_notes_name_their_derivation():
    entry = builtin("blowup_abelian4_curve", genus=2)
    assert "blowup decomposition" in entry.oracle_notes


@pytest.mark.parametrize("name,params", DEFAULT_INSTANCES)
def test_cover_grids_match_oracles(name, params):
    entry = builtin(name, **params)
    oracle = COVER_ORACLES[name]
    model = entry.model
    for d in range(1, 5):
        grid = cover_invariants(model, d).hodge
        for p in range(model.n + 1):
            for q in range(model.n + 1):
                assert grid[p][q] == oracle(params, d, p, q), (name, d, p, q)


def test_abelian_grid_values():
    model = builtin("abelian", g=2).model
    for p in range(3):
        for q in range(3):
            rf = model.hodge[p][q]
            assert rf.generic_value == 0
            assert rf.rank_at(TorusPoint.zero(4)) == comb(2, p) * comb(2, q)


def test_blowup4_key_entries():
    model = builtin("blowup_abelian4_curve", genus=2).model
    origin = TorusPoint.zero(8)
    assert model.hodge[1][2].generic_value == 1
    assert model.hodge[1][2].rank_at(origin) == 26
    assert model.hodge[0][3].generic_value == 0
    assert model.hodge[0][3].rank_at(origin) == 4
    assert defect(model) == 1


def test_line_bundle_slot_rank():
    model = builtin("nondeg_line_bundle", g=2, p=1, chi0=2).model
    slot = model.sheaves["line_bundle"]
    assert sheaf_rank_on_cover(slot[1], 3) == 2 * 3 ** 4
    assert sheaf_rank_on_cover(slot[0], 3) == 0


def test_cartwright_steger_min_version():
    model = builtin("cartwright_steger_like").model
    assert model.g == 1
    rf = model.hodge[0][1]
    assert rf.generic_value == 0
    assert [s.coset.normalize().dim for s in rf.strata] == [0]


def test_defect_formula_all_codims():
    for g in range(1, 7):
        for c in range(1, g + 1):
            assert defect(builtin("blowup_abelian_codim", g=g, c=c).model) == max(0, c - 2)


def test_unknown_name():
    with pytest.raises(UnknownName):
        builtin("no_such_model")
    assert "abelian" in builtin_names()


@pytest.mark.parametrize("name,params", [
    ("abelian", {"g": 0}),
    ("nondeg_line_bundle", {"g": 2, "p": 3, "chi0": 1}),
    ("nondeg_line_bundle", {"g": 2, "p": 1, "chi0": 0}),
    ("blowup_abelian4_curve", {"genus": 1}),
    ("blowup_abelian_codim", {"g": 3, "c": 4}),
    ("blowup_abelian_codim", {"g": 3, "c": 0}),
    ("elliptic_surface_qI0", {"genus": 1, "chi": 1}),
    ("fibered_over_curve", {"genus": 1}),
    ("abelian", {"h": 1}),
    # one past the model-file caps, rejected before any grid is built
    ("abelian", {"g": MAX_G + 1}),
    ("nondeg_line_bundle", {"g": MAX_G + 1}),
    ("blowup_abelian_codim", {"g": MAX_N + 1, "c": 1}),
    ("elliptic_surface_qI0", {"genus": MAX_G + 1}),
    ("fibered_over_curve", {"genus": MAX_G}),
])
def test_bad_params(name, params):
    with pytest.raises(BadParams):
        builtin(name, **params)


def test_a_parameter_of_the_wrong_type_is_bad_params():
    # the factory's own TypeError comes out as BadParams, not as a traceback
    with pytest.raises(BadParams, match="^abelian: '>=' not supported between instances of 'NoneType' and 'int'$"):
        builtin("abelian", g=None)
