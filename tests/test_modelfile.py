"""Model file round trips and format errors."""

import dataclasses
import json
from fractions import Fraction

import pytest

from jumploci import (
    CongruenceCoset,
    ModelFormatError,
    RankFunction,
    Stratum,
    builtin,
    dumps_model,
    load_locus,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    validate_model,
    DEFAULT_INSTANCES,
    defect,
)
from jumploci.cli import main
from jumploci.errors import ECHO_CHARS
from jumploci.modelfile import MAX_G, MAX_N
from gen import CATALOG_SWEEP, inline_strata, tabled_strata
from test_golden import MODEL_SEEDS, seeded_model

# the two ways a stratum states its coset: inline, as earlier builds export,
# and by index into the 'cosets' list, as export writes now
LAYOUTS = pytest.mark.parametrize("layout", [inline_strata, tabled_strata], ids=["inline", "table"])


def _coset_of(blob, stratum):
    """The object that states ``stratum``'s coset in ``blob``: the stratum
    itself, or the 'cosets' entry it names."""
    return blob["cosets"][stratum["coset"]] if "coset" in stratum else stratum


def _first_coset(blob):
    return _coset_of(blob, blob["hodge"][0]["strata"][0])


@pytest.mark.parametrize("name,params", DEFAULT_INSTANCES)
def test_round_trip_equality(name, params):
    model = builtin(name, **params).model
    assert model_from_dict(model_to_dict(model)) == model


def test_file_round_trip(tmp_path):
    model = builtin("blowup_abelian4_curve", genus=2).model
    path = tmp_path / "blowup.json"
    save_model(model, path)
    assert load_model(path) == model


def test_dumps_deterministic():
    model = builtin("fibered_over_curve", genus=2).model
    assert dumps_model(model) == dumps_model(model)


def test_rationals_survive_as_strings():
    model = builtin("cartwright_steger_like").model
    blob = dumps_model(model)
    assert '"0"' in blob  # origin coordinates serialized exactly
    parsed = json.loads(blob)
    assert parsed["schema_version"] == 1


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(schema_version=99), "schema_version"),
    (lambda d: d.pop("n"), "must be present"),
    (lambda d: d["hodge"].append({"p": 9, "q": 0, "generic": 1}), "outside"),
    (lambda d: d["hodge"][0]["strata"].append({"A": [[1]], "b": ["1/2"]}), "value"),
    (lambda d: d["hodge"][0]["strata"].append({"coset": 0}), "value"),
])
@LAYOUTS
def test_malformed_models(mutate, message, layout):
    base = model_to_dict(builtin("blowup_abelian4_curve", genus=2).model)
    blob = layout(json.loads(json.dumps(base)))
    mutate(blob)
    with pytest.raises(ModelFormatError, match=message):
        model_from_dict(blob)


@LAYOUTS
def test_float_rationals_rejected(layout):
    blob = layout(model_to_dict(builtin("abelian", g=1).model))
    _first_coset(blob)["b"] = [0.5, 0.0]
    with pytest.raises(ModelFormatError):
        model_from_dict(blob)


# exponent notation, decimals, signs other than a leading "-", padding,
# underscores and non-ASCII digits, all of which Fraction would read;
# "1e100000000" would take it past the interpreter's digit cap for minutes
_BAD_RATIONALS = ["1e10000000", "1e100000000", "1E2", "2e-1", "0.5", ".5", "+1/2", "+1", " 1/2", "1/2 ",
                  "1 / 2", "1/+2", "1/-2", "--1", "1_000", "\u0661", "\uff11/2", "", "/2", "1/", "1/0", "1/2/3"]


class TestRationalFormat:
    """A rational is a JSON integer or an ASCII "num" or "num/den" string,
    num optionally signed "-", as export writes it: in the strata, the pluri
    translates and a locus file alike, anything else is a bad rational."""

    @pytest.mark.parametrize("bad", _BAD_RATIONALS)
    @LAYOUTS
    def test_stratum_translate(self, bad, layout, tmp_path, capsys):
        blob = layout(model_to_dict(builtin("abelian", g=1).model))
        _first_coset(blob)["b"][0] = bad
        with pytest.raises(ModelFormatError, match="^bad coset: bad rational "):
            model_from_dict(blob)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert main(["validate", "--model", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad coset: bad rational ")

    @pytest.mark.parametrize("bad", _BAD_RATIONALS)
    def test_pluri_translate(self, bad, tmp_path, capsys):
        blob = model_to_dict(builtin("abelian", g=1).model)
        blob["pluri"]["translates"][0][0] = bad
        with pytest.raises(ModelFormatError, match="^bad rational "):
            model_from_dict(blob)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert main(["tower", "--model", str(path), "--d-max", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: bad rational ")

    @pytest.mark.parametrize("bad", _BAD_RATIONALS)
    def test_locus_file(self, bad, tmp_path, capsys):
        path = tmp_path / "locus.json"
        path.write_text(json.dumps({"ambient_dim": 1, "components": [{"A": [[1]], "b": [bad]}]}),
                        encoding="utf-8")
        with pytest.raises(ModelFormatError, match="^bad coset: bad rational "):
            load_locus(path)
        assert main(["count", "--locus", str(path), "--d", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad coset: bad rational ")

    def test_what_export_writes_loads(self, tmp_path):
        # integers, signed or not, with leading zeros, and "num/den" strings
        path = tmp_path / "locus.json"
        path.write_text(json.dumps({"ambient_dim": 1, "components": [
            {"A": [[1]], "b": [b]} for b in (3, -2, "-3/4", "0", "-0", "007", "6/8", "12/004")]}),
            encoding="utf-8")
        assert [c.rhs[0] for c in load_locus(path)] == [3, -2, Fraction(-3, 4), 0, 0, 7, Fraction(3, 4), 3]


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3"])
@pytest.mark.parametrize("field", ["value", "A"])
@LAYOUTS
def test_non_integers_rejected(field, bad, layout, tmp_path):
    blob = layout(model_to_dict(builtin("abelian", g=1).model))
    stratum = blob["hodge"][0]["strata"][0]
    if field == "value":
        stratum["value"] = bad
    else:
        _coset_of(blob, stratum)["A"][0][0] = bad
    with pytest.raises(ModelFormatError):
        model_from_dict(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2


def test_load_locus(tmp_path):
    path = tmp_path / "locus.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "components": [{"A": [[1, 0]], "b": ["1/2"]}, {"A": [], "b": []}],
    }), encoding="utf-8")
    comps = load_locus(path)
    assert len(comps) == 2
    assert comps[0].normalize().dim == 1
    assert comps[1].normalize().dim == 2


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["hodge"][0]["strata"].append(1), "a stratum must be a JSON object"),
    (lambda d: d.update(sheaves=[1]), "'sheaves' must be a JSON object"),
    (lambda d: d.update(schema_version=True), "schema_version"),
    (lambda d: d.update(schema_version=1.0), "schema_version"),
    (lambda d: d.update(name=5), "'name' must be a string"),
    (lambda d: d.update(n=1.5), "'n' must be an integer"),
    (lambda d: d.update(g=True), "'g' must be an integer"),
    (lambda d: d.update(n=-1), "'n' must be nonnegative"),
    (lambda d: d["hodge"][0].update(p="0"), "'p' must be an integer"),
    (lambda d: d["hodge"][0].update(q=0.0), "'q' must be an integer"),
    (lambda d: d.update(defect_strata=[[0, 1.0]]), "a defect 'dim' must be an integer"),
    (lambda d: d["pluri"].update(q_base=0.5), "'q_base' must be an integer"),
    (lambda d: d["pluri"]["values"].update({"2": 1.5}), "an entry of 'values' must be an integer"),
    (lambda d: d["pluri"].update(generic_values={"2": True}),
     "an entry of 'generic_values' must be an integer"),
    (lambda d: d["pluri"]["values"].update({"two": 1}), "'values' keys must be integers"),
    (lambda d: d.update(n=MAX_N + 1), "largest supported dimension"),
    (lambda d: d.update(g=MAX_G + 1), "largest supported irregularity"),
])
@LAYOUTS
def test_bad_fields_rejected(mutate, message, layout, tmp_path):
    blob = layout(model_to_dict(builtin("abelian", g=1).model))
    mutate(blob)
    with pytest.raises(ModelFormatError, match=message):
        model_from_dict(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2


def _pluri_blob(key):
    blob = model_to_dict(builtin("cartwright_steger_like").model)
    blob["pluri"]["values"] = {key: 1}
    return blob


@pytest.mark.parametrize("key", [" +0002", "02", "+2", " 2", "2 ", "-0", "\uff12"])
def test_noncanonical_pluri_keys_rejected(key, tmp_path, capsys):
    blob = _pluri_blob(key)
    with pytest.raises(ModelFormatError, match="keys must be integers in plain decimal"):
        model_from_dict(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert "plain decimal" in capsys.readouterr().err


@pytest.mark.parametrize("block", ["values", "generic_values"])
def test_a_pluri_key_none_is_refused(block, tmp_path, capsys):
    # int("None") fails, and the key must not pass as the text of None
    blob = model_to_dict(builtin("cartwright_steger_like").model)
    blob["pluri"][block] = {**blob["pluri"].get(block, {}), "None": 2}
    with pytest.raises(ModelFormatError, match="keys must be integers in plain decimal, got 'None'"):
        model_from_dict(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert "plain decimal" in capsys.readouterr().err


def test_plain_pluri_key_loads():
    assert model_from_dict(_pluri_blob("2")).pluri.values == {2: 1}


def test_largest_n_and_g_load():
    blob = model_to_dict(builtin("abelian", g=1).model)
    blob.update(n=MAX_N, g=MAX_G, hodge=[], cosets=[], defect_strata=[[0, MAX_G]], pluri=None)
    model = model_from_dict(blob)
    assert (model.n, model.g, len(model.hodge)) == (MAX_N, MAX_G, MAX_N + 1)


def test_negative_generic_rank_exits_2(tmp_path, capsys):
    blob = model_to_dict(builtin("abelian", g=1).model)
    blob["hodge"][2]["generic"] = -3
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    out = capsys.readouterr().out
    assert "error: rank function (1,0) has negative generic value -3" in out
    assert out.endswith("model rejected\n")


def test_a_repeated_hodge_entry_exits_2(tmp_path, capsys):
    # (0,0) jumps to 1 at the origin, then is listed again with generic value 5;
    # keeping either one would judge a grid the file does not state
    blob = model_to_dict(builtin("abelian", g=1).model)
    assert (blob["hodge"][0]["p"], blob["hodge"][0]["q"], blob["hodge"][0]["strata"][0]["value"]) == (0, 0, 1)
    blob["hodge"].append({"p": 0, "q": 0, "generic": 5})
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(blob)
    assert str(exc.value) == "hodge entry (0,0) appears more than once"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == "error: hodge entry (0,0) appears more than once\n"


def test_locus_at_the_torus_cap_loads(tmp_path, capsys):
    n = 2 * MAX_G
    path = tmp_path / "locus.json"
    path.write_text(json.dumps({
        "ambient_dim": n,
        "components": [{"A": [[1] + [0] * (n - 1)], "b": ["1/2"]}],
    }), encoding="utf-8")
    assert load_locus(path)[0].normalize().dim == n - 1
    assert main(["count", "--locus", str(path), "--d", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["2", str(2 ** (n - 1)), str(2 ** (n - 1))]


_MISSING = object()  # a field left out of the file


@pytest.mark.parametrize("field,bad,message", [
    ("ambient_dim", 2.7, "'ambient_dim' must be an integer"),
    ("ambient_dim", True, "'ambient_dim' must be an integer"),
    ("ambient_dim", "2", "'ambient_dim' must be an integer"),
    ("ambient_dim", -1, "'ambient_dim' must be nonnegative"),
    ("components", {"A": [[1, 0]], "b": ["1/2"]}, "'components' must be a list"),
    ("components", "none", "'components' must be a list"),
    ("ambient_dim", 2 * MAX_G + 1, "exceeds the largest supported torus dimension 128"),
    ("components", _MISSING, "a locus file needs 'ambient_dim' and 'components'"),
    ("ambient_dim", _MISSING, "a locus file needs 'ambient_dim' and 'components'"),
    (None, [{"ambient_dim": 2, "components": []}], "a locus file needs 'ambient_dim' and 'components'"),
])
def test_bad_locus_rejected(field, bad, message, tmp_path, capsys):
    """A field set to a bad value or left out (``_MISSING``), or, with no
    field named, a bad top-level value in place of the whole object."""
    blob = {"ambient_dim": 2, "components": [{"A": [[1, 0]], "b": ["1/2"]}]}
    if field is None:
        blob = bad
    elif bad is _MISSING:
        del blob[field]
    else:
        blob[field] = bad
    path = tmp_path / "locus.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=message):
        load_locus(path)
    assert main(["count", "--locus", str(path), "--d", "2"]) == 2
    assert message in capsys.readouterr().err


def test_missing_file():
    with pytest.raises(ModelFormatError):
        load_model("/nonexistent/model.json")


def _cosets(model):
    """Every stratum's coset in the order export meets them: grid row-major,
    then sheaf slots by name."""
    rfs = [rf for row in model.hodge for rf in row] + [rf for _, slot in sorted(model.sheaves.items()) for rf in slot]
    return [coset for rf in rfs for coset, _ in rf.strata]


class TestOneCosetPerLoad:
    """Strata written with the same coset share one object within a load."""

    def test_each_distinct_coset_is_built_once(self, tmp_path):
        model = builtin("blowup_abelian4_curve", genus=2).model
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded == model
        cosets = _cosets(loaded)
        assert len(cosets) == 25
        assert len({id(c) for c in cosets}) == len(set(cosets)) == 1
        assert len(json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["cosets"]) == 1

    @pytest.mark.parametrize("name,params", [("blowup_abelian4_curve", {"genus": 2}),
                                             ("blowup_abelian_codim", {"g": 3, "c": 2})])
    def test_validation_normalizes_each_distinct_coset_once(self, name, params, tmp_path, monkeypatch):
        from jumploci import torus

        save_model(builtin(name, **params).model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        built = []
        hermite = torus._hermite

        def recording_hermite(*args):
            built.append(hermite(*args))
            return built[-1]

        monkeypatch.setattr(torus, "_hermite", recording_hermite)
        assert validate_model(loaded).ok
        distinct = set(_cosets(loaded))
        assert len(built) == len(distinct) < len(_cosets(loaded))
        assert set(built) == {c.normalize() for c in distinct}

    def test_a_keyed_matrix_is_not_checked_again(self, monkeypatch):
        # the key's type test already proves every entry of 'A' an exact int
        from jumploci import modelfile

        checked = []
        integer = modelfile._integer
        monkeypatch.setattr(modelfile, "_integer", lambda x, what: checked.append(what) or integer(x, what))
        model = builtin("blowup_abelian_codim", g=3, c=2).model
        assert model_from_dict(model_to_dict(model)) == model
        assert checked and "an entry of 'A'" not in checked

    def test_two_loads_share_nothing(self, tmp_path):
        save_model(builtin("blowup_abelian4_curve", genus=2).model, tmp_path / "m.json")
        first, second = load_model(tmp_path / "m.json"), load_model(tmp_path / "m.json")
        assert first == second
        assert not {id(c) for c in _cosets(first)} & {id(c) for c in _cosets(second)}

    @pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=repr)
    @LAYOUTS
    def test_a_repeat_in_a_wrong_type_is_refused(self, bad, layout, tmp_path):
        # True == 1.0 == 1 with equal hashes: a key of raw values would take
        # the later stratum for the earlier coset and accept it; in the table
        # layout, each stratum names a 'cosets' entry of its own
        blob = layout(inline_strata(model_to_dict(builtin("blowup_abelian4_curve", genus=2).model)))
        strata = [_coset_of(blob, s) for entry in blob["hodge"] for s in entry["strata"]]
        assert strata[0]["A"][0][0] == 1 and all(s["A"] == strata[0]["A"] for s in strata)
        strata[-1]["A"][0][0] = bad
        with pytest.raises(ModelFormatError, match="an entry of 'A' must be an integer"):
            model_from_dict(blob)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert main(["validate", "--model", str(path)]) == 2

    @pytest.mark.parametrize("bad", [False, 0.0], ids=repr)
    @LAYOUTS
    def test_a_repeat_with_a_wrong_type_in_b_is_refused(self, bad, layout):
        blob = layout(inline_strata(model_to_dict(builtin("blowup_abelian4_curve", genus=2).model)))
        strata = [_coset_of(blob, s) for entry in blob["hodge"] for s in entry["strata"]]
        for s in strata:
            s["b"] = [0] * len(s["b"])  # integers, which a raw key would match to False and 0.0
        assert model_from_dict(blob) == builtin("blowup_abelian4_curve", genus=2).model
        strata[-1]["b"][0] = bad
        with pytest.raises(ModelFormatError, match="rationals must be strings or integers"):
            model_from_dict(blob)

    def test_locus_files_share_repeated_components(self, tmp_path):
        path = tmp_path / "locus.json"
        component = {"A": [[1, 0]], "b": ["1/2"]}
        path.write_text(json.dumps({"ambient_dim": 2, "components": [component, {"A": [], "b": []}, component]}),
                        encoding="utf-8")
        comps = load_locus(path)
        assert comps[0] is comps[2] and comps[0] != comps[1]
        assert load_locus(path)[0] is not comps[0]


class TestOneRankFunctionPerLoad:
    """Entries written the same way share one rank function within a load:
    their cosets are one object, so the model shares them."""

    def test_equal_entries_are_one_function(self, tmp_path):
        model = builtin("blowup_abelian4_curve", genus=2).model
        save_model(model, tmp_path / "m.json")
        first, second = load_model(tmp_path / "m.json"), load_model(tmp_path / "m.json")
        assert first == second == model
        entries = [rf for row in first.hodge for rf in row]
        assert len({id(rf) for rf in entries}) == len(set(entries)) == 7
        assert not {id(rf) for rf in entries} & {id(rf) for row in second.hodge for rf in row}

    @pytest.mark.parametrize("key,good,bad", [("value", 1, True), ("generic", 1, 1.0), ("generic", 0, False)],
                             ids=repr)
    def test_a_repeat_in_another_json_type_is_refused(self, key, good, bad):
        # 1 == True == 1.0 as values and as keys: a repeat is told apart by
        # its JSON type, and takes the refusal it would take alone
        def entry(p, q, x):
            stratum = {"A": [[1, 0], [0, 1]], "b": ["0", "0"], "value": 3}
            rf = {"p": p, "q": q, "generic": 0, "strata": [stratum]}
            (stratum if key == "value" else rf)[key] = x
            return rf

        with pytest.raises(ModelFormatError, match="must be an integer") as alone:
            model_from_dict(dict(_abelian_blob(), hodge=[entry(1, 0, bad)]))
        for pair in ((entry(0, 1, good), entry(1, 0, bad)), (entry(1, 0, bad), entry(0, 1, good))):
            with pytest.raises(ModelFormatError) as refused:
                model_from_dict(dict(_abelian_blob(), hodge=list(pair)))
            assert str(refused.value) == str(alone.value)
        accepted = model_from_dict(dict(_abelian_blob(), hodge=[entry(0, 1, good), entry(1, 0, good)]))
        assert accepted.hodge[0][1] is accepted.hodge[1][0]


@pytest.mark.parametrize("rows", [["", {}], [""], [5], [[0], "0"]], ids=repr)
def test_a_row_that_is_not_a_list_is_refused(rows, tmp_path, capsys):
    # a string or an object iterates like a row of no entries; it must not
    # load as one
    point = {"schema_version": 1, "n": 0, "g": 0, "defect_strata": [[0, 0]],
             "hodge": [{"p": 0, "q": 0, "generic": 1, "strata": [{"A": rows, "b": ["0"] * len(rows), "value": 2}]}]}
    with pytest.raises(ModelFormatError, match="each row of 'A' must be a list of integers"):
        model_from_dict(point)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(point), encoding="utf-8")
    assert main(["validate", "--model", str(model_path)]) == 2
    assert "each row of 'A' must be a list of integers" in capsys.readouterr().err
    locus_path = tmp_path / "locus.json"
    locus_path.write_text(json.dumps({"ambient_dim": 0, "components": [{"A": rows, "b": ["0"] * len(rows)}]}),
                          encoding="utf-8")
    with pytest.raises(ModelFormatError, match="each row of 'A' must be a list of integers"):
        load_locus(locus_path)
    assert main(["count", "--locus", str(locus_path), "--d", "2"]) == 2
    assert "each row of 'A'" in capsys.readouterr().err


def test_export_writes_no_serre_check_flag():
    # Serre symmetry is always decided, so no flag switches it off; nor is
    # semismallness a flag, since the defect decides it
    for name, params in DEFAULT_INSTANCES:
        blob = model_to_dict(builtin(name, **params).model)
        assert "flags" not in blob and "generic_values" not in (blob.get("pluri") or {})
    assert "serre_check" not in dumps_model(builtin("abelian", g=1).model)


# h^(0,1) jumps on {x0 ≡ 1/3} and h^(1,0) at (2/3, 0): the two agree at every
# 2-torsion point, yet are not Serre-symmetric
SERRE_COUNTEREXAMPLE = {
    "schema_version": 1, "n": 1, "g": 1, "defect_strata": [[0, 1]],
    "hodge": [
        {"p": 0, "q": 0, "strata": [{"A": [[1, 0], [0, 1]], "b": ["0", "0"], "value": 1}]},
        {"p": 1, "q": 1, "strata": [{"A": [[1, 0], [0, 1]], "b": ["0", "0"], "value": 1}]},
        {"p": 0, "q": 1, "strata": [{"A": [[1, 0]], "b": ["1/3"], "value": 1}]},
        {"p": 1, "q": 0, "strata": [{"A": [[1, 0], [0, 1]], "b": ["2/3", "0"], "value": 1}]},
    ],
}


def test_serre_check_flag_switches_nothing_off(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(SERRE_COUNTEREXAMPLE, flags={"serre_check": False})), encoding="utf-8")
    assert load_model(path) == model_from_dict(SERRE_COUNTEREXAMPLE)
    assert main(["validate", "--model", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert ("warning: ranks at (0,1) and (1,0) are not Serre-symmetric: "
            "{h^(0,1) >= 1} and -{h^(1,0) >= 1} differ") in out
    assert out[-1] == "model accepted"


def test_identically_zero_entry_is_omitted_and_restored():
    # the counterexample without its (1,0) entry, which loads as the zero function
    model = model_from_dict(dict(SERRE_COUNTEREXAMPLE, hodge=SERRE_COUNTEREXAMPLE["hodge"][:3]))
    assert model.hodge[1][0] == RankFunction(2, 0, ())
    exported = model_to_dict(model)
    assert [(e["p"], e["q"]) for e in exported["hodge"]] == [(0, 0), (0, 1), (1, 1)]
    assert model_from_dict(exported) == model != model_from_dict(SERRE_COUNTEREXAMPLE)


@pytest.mark.parametrize("command", ["validate --model", "count --d 2 --locus"])
def test_a_file_that_is_not_utf8_names_the_file(command, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ModelFormatError):
        (load_model if command.startswith("validate") else load_locus)(path)
    assert main([*command.split(), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"


def _abelian_blob():
    return model_to_dict(builtin("abelian", g=1).model)


def _pluri(q_base, values):
    return lambda d: d.update(pluri={"q_base": q_base, "translates": [["0", "0"]], "values": values})


def _full_torus_stratum(d):
    for entry in d["hodge"]:
        if entry["p"] != entry["q"]:
            entry["strata"].append({"A": [], "b": [], "value": 1})


@pytest.mark.parametrize("mutate,findings", [
    (lambda d: d.update(defect_strata=[]), ["error: the fiber-dimension stratification is empty"]),
    (lambda d: d.update(defect_strata=[[1, 0]]), ["error: the stratification must include the l = 0 stratum"]),
    (lambda d: d.update(defect_strata=[[0, 0]]),
     ["error: the stratification implies a negative defect -1, which no morphism attains"]),
    (lambda d: d.update(defect_strata=[[0, 1], [-1, 0]]), ["error: stratum (-1,0) has negative entries"]),
    (lambda d: d.update(defect_strata=[[0, 1], [1, 1]]),
     ["error: stratum (1,1) cannot fit in a variety of dimension 1"]),
    (lambda d: d.update(g=0, defect_strata=[[0, 1]], pluri=None, cosets=[], hodge=[
        {"p": p, "q": q, "generic": 1} for p in range(2) for q in range(2)]),
     ["warning: the (1,0) rank at the origin is 1, not the irregularity 0; "
      "the model does not present its own Albanese torus",
      "error: stratum (0,1) exceeds the Albanese dimension 0"]),
    (_pluri(2, {"2": 1}), ["error: the Iitaka-base irregularity 2 must lie in [0, 1]"]),
    (_pluri(0, {"1": 1}), ["error: plurigenus data for m = 1; only m >= 2 belongs here"]),
    (_full_torus_stratum,
     ["warning: stratum 1 of (0,1) spans the whole torus; it overrides the generic value",
      "warning: stratum 1 of (1,0) spans the whole torus; it overrides the generic value"]),
], ids=["no strata", "no l = 0", "negative defect", "negative entry", "l + dim > n", "dim > g",
        "q_base > g", "m < 2", "stratum with no rows"])
def test_content_findings_through_validate(mutate, findings, tmp_path, capsys):
    blob = _abelian_blob()
    mutate(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code = main(["validate", "--model", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith(("error:", "warning:"))] == findings
    assert (code, out[-1]) == ((2, "model rejected") if findings[-1].startswith("error") else (0, "model accepted"))


def _first_layout(model):
    """The model as export wrote it before semismallness and the generic
    plurigenera were derived: with ``flags`` and ``generic_values``."""
    blob = dict(model_to_dict(model), flags={"semismall": defect(model) == 0})
    if model.pluri is not None:
        full = model.pluri.q_base == model.g
        blob["pluri"]["generic_values"] = {m: v if full else 0 for m, v in blob["pluri"]["values"].items()}
    return blob


@pytest.mark.parametrize("name,params", DEFAULT_INSTANCES + CATALOG_SWEEP)
def test_files_of_the_first_layout_load_unchanged(name, params):
    model = builtin(name, **params).model
    assert model_from_dict(_first_layout(model)) == model


@pytest.mark.parametrize("flags", [[1], "yes", {"semismall": "yes"}, {"semismall": True}, {"serre_check": False}])
def test_flags_of_any_shape_are_ignored(flags, tmp_path, capsys):
    # semismall: true beside a positive defect, too: the stratification decides
    model = builtin("blowup_abelian4_curve", genus=2).model
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(model_to_dict(model), flags=flags)), encoding="utf-8")
    assert load_model(path) == model
    assert main(["validate", "--model", str(path)]) == 0
    assert capsys.readouterr().out == "".join(
        f"proper loci for p={p}: q in {sorted(q)}\n" for p, q in sorted(validate_model(model).weak_gv_table.items())
    ) + "model accepted\n"


@pytest.mark.parametrize("q_base,values,declared,derived", [
    (1, {"2": 1}, {"2": 2}, 1),
    (1, {"2": 2}, {"2": 1}, 2),
    (0, {"2": 3}, {"2": 1}, 0),
], ids=["generic above locus", "full locus, two values", "proper locus"])
def test_contradicting_generic_values_refused_at_load(q_base, values, declared, derived, tmp_path, capsys):
    blob = _abelian_blob()
    blob["pluri"] = {"q_base": q_base, "translates": [["0", "0"]], "values": values, "generic_values": declared}
    message = (f"'generic_values' gives {declared['2']} for m = 2, but the model derives {derived}: "
               "the locus value when q_base = g, else 0")
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(blob)
    assert str(exc.value) == message
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_generic_values_with_nothing_derived_are_not_read():
    # an exponent without a locus value, and a q_base that names no block,
    # leave nothing to compare; validation then judges q_base
    blob = _abelian_blob()
    blob["pluri"] = {"q_base": 1, "translates": [["0", "0"]], "values": {"2": 1}, "generic_values": {"2": 1, "3": 7}}
    assert model_from_dict(blob).pluri.values == {2: 1}
    blob["pluri"].update(q_base=2, generic_values={"2": 5})
    assert [f.message for f in validate_model(model_from_dict(blob)).errors] == [
        "the Iitaka-base irregularity 2 must lie in [0, 1]"]


@pytest.mark.parametrize("mutate,message", [
    (lambda d: _first_coset(d).pop("A"), "a coset needs 'A' (integer rows) and 'b' (rationals)"),
    (lambda d: _first_coset(d).pop("b"), "a coset needs 'A' (integer rows) and 'b' (rationals)"),
    (lambda d: _first_coset(d).update(A="1"), "'A' must be a list of rows and 'b' a list of rationals"),
    (lambda d: _first_coset(d).update(b="0"), "'A' must be a list of rows and 'b' a list of rationals"),
    (lambda d: d["pluri"]["translates"].append(["0"]), "a torus point must be a list of 2 rationals"),
    (lambda d: d["hodge"][0].pop("q"), "every hodge entry needs integer 'p' and 'q'"),
    (lambda d: d.update(defect_strata=[[0, 1, 0]]), "'defect_strata' entries are [l, dim] pairs"),
    (lambda d: d.update(defect_strata=[0]), "'defect_strata' entries are [l, dim] pairs"),
    (lambda d: d["pluri"].pop("q_base"), "bad pluri block: it needs 'q_base' and 'translates'"),
    (lambda d: d["pluri"].pop("translates"), "bad pluri block: it needs 'q_base' and 'translates'"),
    (lambda d: d.update(sheaves={"L": {"generic": 1}}), "sheaf slot 'L' must be a list of rank functions"),
])
@LAYOUTS
def test_schema_errors_exit_2(mutate, message, layout, tmp_path, capsys):
    blob = layout(model_to_dict(builtin("abelian", g=1).model))
    mutate(blob)
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(blob)
    assert str(exc.value) == message
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_file_holding_a_list_exits_2(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text("[]", encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == "error: a model file must contain a JSON object\n"


def _first_stratum(blob):
    return blob["hodge"][0]["strata"][0]


def _past_the_end(bad):
    return f"a stratum's 'coset' must be an index below 1, the length of 'cosets', got {bad}"


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(cosets={}), "'cosets' must be a list, got {}"),
    (lambda d: d.update(cosets=None), "'cosets' must be a list, got None"),
    (lambda d: d.update(cosets="x" * 500), f"'cosets' must be a list, got '{'x' * (ECHO_CHARS - 1)}..."),
    (lambda d: _first_stratum(d).update(coset=True), _past_the_end("True")),
    (lambda d: _first_stratum(d).update(coset=0.0), _past_the_end("0.0")),
    (lambda d: _first_stratum(d).update(coset="0"), _past_the_end("'0'")),
    (lambda d: _first_stratum(d).update(coset=-1), _past_the_end("-1")),
    (lambda d: _first_stratum(d).update(coset=1), _past_the_end("1")),
    (lambda d: _first_stratum(d).update(coset=None), _past_the_end("None")),
    (lambda d: _first_stratum(d).update(coset=10 ** 500), _past_the_end("1" + "0" * (ECHO_CHARS - 1) + "...")),
    (lambda d: _first_stratum(d).update(coset="9" * 500), _past_the_end(f"'{'9' * (ECHO_CHARS - 1)}...")),
    (lambda d: d.pop("cosets"), "a stratum names coset 0, but the file has no 'cosets' list"),
    (lambda d: _first_stratum(d).update(A=[[1, 0], [0, 1]]),
     "a stratum names its coset either by 'coset' or by 'A' and 'b', not both"),
    (lambda d: _first_stratum(d).update(b=["0", "0"]),
     "a stratum names its coset either by 'coset' or by 'A' and 'b', not both"),
    (lambda d: d["cosets"].append(1), "a coset needs 'A' (integer rows) and 'b' (rationals)"),
    (lambda d: d["cosets"].append({"A": [[1, 0]]}), "a coset needs 'A' (integer rows) and 'b' (rationals)"),
    (lambda d: d["cosets"].append({"A": [[1, 0]], "b": "0"}),
     "'A' must be a list of rows and 'b' a list of rationals"),
    (lambda d: d["cosets"].append({"A": ["10"], "b": ["0"]}), "each row of 'A' must be a list of integers"),
    (lambda d: d["cosets"].append({"A": [[1, 0.5]], "b": ["0"]}),
     "bad coset: an entry of 'A' must be an integer, got 0.5"),
    (lambda d: d["cosets"].append({"A": [[1, 0]], "b": ["1e5"]}), "bad coset: bad rational '1e5'"),
    (lambda d: d["cosets"].append({"A": [[1, 0, 0]], "b": ["0"]}),
     "bad coset: row width differs from the ambient dimension"),
], ids=["cosets object", "cosets null", "cosets long string", "index bool", "index float", "index string",
        "index negative", "index past the end", "index null", "index huge", "index long string", "no cosets",
        "index and A", "index and b", "entry not an object", "entry without b",
        "entry b not a list", "entry row not a list", "entry float in A", "entry bad rational", "entry too wide"])
def test_malformed_references_exit_2(mutate, message, tmp_path, capsys):
    # a table entry no stratum names is still read, and refused alike
    blob = model_to_dict(builtin("abelian", g=1).model)
    assert len(blob["cosets"]) == 1 and _first_stratum(blob)["coset"] == 0
    mutate(blob)
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(blob)
    assert str(exc.value) == message
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# every model the tests build: the default and swept catalog entries and the golden seeded models
CORPUS = ([pytest.param(lambda name=name, params=params: builtin(name, **params).model,
                        id=f"{name}({','.join(f'{k}={v}' for k, v in params.items())})")
           for name, params in DEFAULT_INSTANCES + CATALOG_SWEEP]
          + [pytest.param(lambda k=k: seeded_model(k), id=f"golden:{k}") for k in MODEL_SEEDS])


@pytest.mark.parametrize("make", CORPUS)
def test_both_layouts_load_to_one_model_and_one_export(make):
    model = make()
    table, inline = model_to_dict(model), inline_strata(model_to_dict(model))
    assert "cosets" in table and "cosets" not in inline
    assert model_from_dict(table) == model_from_dict(inline) == model
    assert dumps_model(model_from_dict(table)) == dumps_model(model_from_dict(inline)) == dumps_model(model)


def _unshared(model):
    """``model`` with a coset object of its own in every stratum."""
    def fresh(rf):
        return RankFunction(rf.ambient_dim, rf.generic_value, tuple(
            Stratum(CongruenceCoset(c.ambient_dim, c.rows, c.rhs), v) for c, v in rf.strata))

    return dataclasses.replace(model, hodge=tuple(tuple(map(fresh, row)) for row in model.hodge),
                               sheaves={name: tuple(map(fresh, slot)) for name, slot in model.sheaves.items()})


@pytest.mark.parametrize("make", CORPUS)
def test_export_lists_each_distinct_coset_once(make):
    # by value, in first-appearance order: grid row-major, then sheaf slots by name
    model = make()
    unshared = _unshared(model)
    assert len({id(c) for c in _cosets(unshared)}) == len(_cosets(unshared))
    blob = model_to_dict(unshared)
    assert blob == model_to_dict(model)
    assert blob["cosets"] == [{"A": [list(r) for r in c.rows], "b": [str(b) for b in c.rhs]}
                              for c in dict.fromkeys(_cosets(model))]
    assert model_from_dict(blob) == model


@pytest.mark.parametrize("make", [pytest.param(lambda: builtin("abelian", g=8).model, id="abelian(g=8)"), *CORPUS])
def test_export_hashes_each_coset_object_once(make, monkeypatch):
    # a coset met again is looked up by identity, not hashed again by value
    model = make()
    hashed = []
    hash_by_value = CongruenceCoset.__hash__

    def recording_hash(coset):
        hashed.append(coset)
        return hash_by_value(coset)

    monkeypatch.setattr(CongruenceCoset, "__hash__", recording_hash)
    model_to_dict(model)
    assert len(hashed) <= len({id(c) for c in _cosets(model)})
