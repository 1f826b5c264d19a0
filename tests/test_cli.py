"""Command line behaviour: tables, CSV determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import jumploci
from jumploci import (CongruenceCoset, RankFunction, Stratum, TorusPoint, VarietyModel, asymptotics, builtin,
                      catalog, constant_rank, dumps_model, load_model, modelfile, origin_jump)
from jumploci.cli import _int_text_of_any_size, main
from jumploci.errors import ECHO_CHARS, shown, shown_int
from jumploci.tower import value_on_cover
from gen import random_model
from test_console import cli_process


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_list(capsys):
    code, out = run_cli(capsys, "catalog-list")
    assert code == 0
    assert "blowup_abelian4_curve(genus=2)" in out
    assert "cartwright_steger_like()" in out


def test_closed_pipe_exits_quietly():
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process("catalog-list", stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


class TestCount:
    def test_huge_counts_print_every_digit(self, capsys):
        # 10^40 on a locus of real dimension 126: d^126 has 5041 digits,
        # beyond the interpreter's default cap on int-to-text conversion
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out = run_cli(capsys, "count", "--builtin", "fibered_over_curve", "--params", "genus=63",
                            "--i", "0,1", "--d", "2,1" + "0" * 40)
        assert code == 0
        big = "1" + "0" * (40 * 126)
        assert out.splitlines()[-1].split() == ["1" + "0" * 40, big, big]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_d_beyond_the_int_text_digit_cap(self, capsys):
        # 4301 digits exceed the interpreter's default cap on text-to-int
        # conversion, which parsing lifts as printing does
        big = "1" + "0" * 4300
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out = run_cli(capsys, "count", "--builtin", "abelian", "--params", "g=1",
                            "--i", "0,0", "--d", "1," + big)
        assert code == 0
        assert out.splitlines()[-1].split() == [big, "1", "1"]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_interpreter_without_a_digit_cap(self, monkeypatch, capsys):
        # Python 3.10.0 to 3.10.6 have no digit cap and neither function: the
        # context manager then yields without touching them, and count prints
        # the same table
        argv = ["count", "--builtin", "fibered_over_curve", "--params", "genus=2", "--i", "0,1",
                "--d", "1,2,1" + "0" * 30]
        assert main(argv) == 0
        table = capsys.readouterr().out
        for name in ("set_int_max_str_digits", "get_int_max_str_digits"):
            monkeypatch.delattr(sys, name, raising=False)
        with _int_text_of_any_size():
            pass
        assert main(argv) == 0
        assert capsys.readouterr().out == table
        assert table.splitlines()[-1].split()[1:] == ["1" + "0" * 120] * 2

    def test_blowup_origin_only_locus(self, capsys):
        code, out = run_cli(capsys, "count", "--builtin", "blowup_abelian4_curve",
                            "--params", "genus=2", "--i", "1,2", "--d", "1,2,3")
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[0] == ["d", "torsion", "d^dim"]
        assert [r[1] for r in rows[1:]] == ["1", "1", "1"]

    def test_fibered_positive_dimensional(self, capsys):
        code, out = run_cli(capsys, "count", "--builtin", "fibered_over_curve",
                            "--params", "genus=2", "--i", "0,1", "--d", "2")
        assert code == 0
        data_line = [l for l in out.splitlines() if l.strip().startswith("2")][0]
        assert data_line.split()[1] == "16"

    def test_full_torus_locus_file(self, tmp_path, capsys):
        locus = tmp_path / "locus.json"
        locus.write_text(json.dumps({"ambient_dim": 2, "components": [{"A": [], "b": []}]}))
        code, out = run_cli(capsys, "count", "--locus", str(locus), "--d", "2")
        assert code == 0
        line = [l for l in out.splitlines() if l.strip().startswith("2 ")][0]
        assert line.split()[1] == "4"

    def test_a_shared_point_is_counted_once(self, tmp_path, capsys):
        # {2·x0 ≡ 1/2} ∪ {x1 ≡ 0} at d = 4: (1/4, 0) and (3/4, 0) lie on both
        # components, so the torsion column is 8 + 4 - 2 = 10
        locus = tmp_path / "union.json"
        locus.write_text(json.dumps({"ambient_dim": 2, "components": [
            {"A": [[2, 0]], "b": ["1/2"]}, {"A": [[0, 1]], "b": ["0"]}]}))
        code, out = run_cli(capsys, "count", "--locus", str(locus), "--d", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[2].split() == ["4", "10", "4"]

    def test_an_empty_component_counts_nothing(self, tmp_path, capsys):
        # {x0 ≡ 0, x0 ≡ 1/2} is empty: it adds no point, yet the header still
        # counts both presented components
        empty = {"A": [[1, 0, 0, 0], [1, 0, 0, 0]], "b": ["0", "1/2"]}
        pinned = {"A": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "b": ["1/2", "0", "0", "0"]}
        locus = tmp_path / "empty.json"
        locus.write_text(json.dumps({"ambient_dim": 4, "components": [empty, pinned]}))
        code, out = run_cli(capsys, "count", "--locus", str(locus), "--d", "12,2")
        assert code == 0
        assert out == (f"# {locus}: 2 components, top dimension 0\n"
                       "     d        torsion          d^dim\n"
                       "    12              2              1\n"
                       "     2              0              1\n")

    def test_point_listing_flags_are_unrecognized(self, capsys):
        # count prints exact counts only: --enumerate and --enum-cap are gone
        count = ["count", "--builtin", "abelian", "--i", "0,1", "--d", "2"]
        for argv in ([*count, "--enumerate"], ["--enum-cap", "5", *count]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: jumploci ")
        for argv in (["--help"], ["count", "--help"]):
            helped = cli_process(*argv, capture_output=True, text=True, check=True).stdout
            assert helped.startswith("usage: jumploci ") and "--enum" not in helped

    def test_invalid_arguments(self, capsys):
        assert main(["count", "--builtin", "abelian", "--d", "2"]) == 2
        assert main(["count", "--builtin", "abelian", "--params", "g=zero",
                     "--i", "0,1", "--d", "2"]) == 2


    @pytest.mark.parametrize("entry,message", [
        ("9,9", "outside the 2x2 grid"),
        ("-1,0", "outside the 2x2 grid"),
        ("1", "two comma-separated integers"),
        ("a,b", "two comma-separated integers"),
    ])
    def test_bad_grid_entry(self, capsys, entry, message):
        code = main(["count", "--builtin", "abelian", f"--i={entry}", "--d", "2"])
        assert code == 2
        assert message in capsys.readouterr().err


class TestTower:
    def test_blowup_row_values(self, capsys):
        code, out = run_cli(capsys, "tower", "--builtin", "blowup_abelian4_curve",
                            "--params", "genus=2", "--d-max", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        d2 = next(r for r in rows if r["d"] == "2")
        assert d2["h_1_2"] == "281"
        assert d2["b_3"] == "570"
        assert d2["nh_1_2"] == "281/256"
        assert d2["schema"] == "1"

    def test_abelian_constant_rows(self, capsys):
        code, out = run_cli(capsys, "tower", "--builtin", "abelian", "--params", "g=1",
                            "--d-max", "5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert {r["h_1_1"] for r in rows} == {"1"}
        assert {r["q"] for r in rows} == {"1"}

    def test_pluri_column_multiplicative(self, capsys):
        code, out = run_cli(capsys, "tower", "--builtin", "elliptic_surface_qI0",
                            "--params", "genus=2,chi=1", "--d-max", "2", "--pluri", "2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        p2 = {r["d"]: int(r["P_2"]) for r in rows}
        assert p2["2"] == 2 ** 4 * p2["1"]

    @pytest.mark.parametrize("name,params,digest", [
        ("abelian", "g=2", "f48c69fd4814b66843c01187713655969b15d316489aa6fe235cfb3c19407d3e"),
        ("nondeg_line_bundle", "g=2,p=0,chi0=3",
         "f48c69fd4814b66843c01187713655969b15d316489aa6fe235cfb3c19407d3e"),
        ("elliptic_surface_qI0", "genus=2,chi=1",
         "7bdc3e280dab083a1318ca238378e95f33f971d1ab148c766ed777f8a2fde226"),
        ("cartwright_steger_like", "", "df3c72adffc2ab170dbb0b03456d31fa4dca88e173012b29223828f544323c96"),
    ])
    def test_pluri_csv_unchanged(self, capsys, name, params, digest):
        # digests of the CSV written before pluricanonical rank functions were cached
        code, out = run_cli(capsys, "tower", "--builtin", name, "--params", params,
                            "--d-max", "8", "--pluri", "2,3,4,5,6")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name,params", [("elliptic_surface_qI0", "genus=30,chi=1"), ("abelian", "g=40")])
    def test_normalized_cells_past_float_range(self, capsys, name, params):
        # deg reaches 3^60 and 3^80, far past 2^53: each nh_/nb_ cell is the
        # reduced v/deg and its float, for v and deg read off the same row
        code, out = run_cli(capsys, "tower", "--builtin", name, "--params", params, "--d-max", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3 and int(rows[-1]["deg"]) >= 3 ** 60
        for row in rows:
            deg = int(row["deg"])
            keys = [key[1:] for key in row if key.startswith(("nh_", "nb_")) and not key.endswith("_approx")]
            assert len(keys) == sum(key.startswith(("h_", "b_")) for key in row) > 0
            for key in keys:
                x = Fraction(int(row[key]), deg)
                assert row[f"n{key}"] == str(x)
                assert row[f"n{key}_approx"] == f"{float(x):.12g}"

    def test_byte_identical_output(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            assert main(["tower", "--builtin", "blowup_abelian4_curve",
                         "--params", "genus=2", "--d-max", "2", "--out", str(path)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCheck:
    def test_blowup_fails_at_zero(self, capsys):
        code, out = run_cli(capsys, "check", "--builtin", "blowup_abelian4_curve",
                            "--params", "genus=2", "--defect-bound", "0")
        assert code == 1
        machine = json.loads(out.split("-- machine readable --")[1])
        assert machine["witness"] == [1, 2]
        assert machine["all_pass"] is False

    def test_blowup_passes_at_one(self, capsys):
        code, out = run_cli(capsys, "check", "--builtin", "blowup_abelian4_curve",
                            "--params", "genus=2", "--defect-bound", "1")
        assert code == 0
        machine = json.loads(out.split("-- machine readable --")[1])
        assert machine["witness"] is None
        assert machine["l2"]["weak_gnv"] is False

    def test_ball_quotient_report(self, capsys):
        code, out = run_cli(capsys, "check", "--builtin", "cartwright_steger_like",
                            "--defect-bound", "1")
        assert code == 0
        machine = json.loads(out.split("-- machine readable --")[1])
        assert machine["divergence"]["divergent"] is False
        assert machine["l2"]["betti"] == ["0", "0", "3", "0", "0"]

    def test_budget_reaches_every_verdict(self, tmp_path, capsys):
        # 13 torsion points on h^(0,1), mirrored on h^(1,0): over the default
        # budget of 12, within --budget 20 for the fits, the converse witness
        # and the divergence class alike
        def points(sign):
            return tuple(Stratum(CongruenceCoset.point(TorusPoint.of([Fraction(sign * k, 17), 0])), 1)
                         for k in range(13))
        h01, h10 = RankFunction(2, 0, points(1)), RankFunction(2, 0, points(-1))
        model = VarietyModel(n=1, g=1, hodge=((origin_jump(2, 0, 1), h01), (h10, origin_jump(2, 0, 1))),
                             defect_strata=((0, 1),))
        path = tmp_path / "points.json"
        path.write_text(dumps_model(model))
        assert main(["check", "--model", str(path)]) == 2
        assert "exceed the component budget of 12" in capsys.readouterr().err
        code, out = run_cli(capsys, "--budget", "20", "check", "--model", str(path))
        assert code == 0
        assert "cover irregularity bounded at 13" in out

    def test_bounded_irregularity_is_the_supremum(self, tmp_path, capsys):
        # h^(0,1) and h^(1,0) are 1 at the origin and at (1/2, 0): q(X) = 1,
        # yet q(X_d) = 2 at every even d, and check prints that supremum
        two_points = RankFunction(2, 0, tuple(Stratum(CongruenceCoset.point(TorusPoint.of([x, 0])), 1)
                                              for x in (0, Fraction(1, 2))))
        model = VarietyModel(n=1, g=1, hodge=((origin_jump(2, 0, 1), two_points), (two_points, origin_jump(2, 0, 1))),
                             defect_strata=((0, 1),))
        assert [value_on_cover(model, ("irregularity",), d) for d in range(1, 7)] == [1, 2, 1, 2, 1, 2]
        path = tmp_path / "two_points.json"
        path.write_text(dumps_model(model))
        code, out = run_cli(capsys, "validate", "--model", str(path))
        assert (code, out.splitlines()[0]) == (0, "proper loci for p=0: q in [0, 1]")
        code, out = run_cli(capsys, "check", "--model", str(path))
        assert code == 0
        assert "# cover irregularity bounded at 2\n" in out
        assert json.loads(out.split("-- machine readable --")[1])["divergence"]["base_irregularity"] == 1


    @pytest.mark.parametrize("name,params,bound,witness", [
        ("blowup_abelian4_curve", {"genus": 2}, 0, [1, 2]),
        ("cartwright_steger_like", {}, 1, None),
        ("fibered_over_curve", {"genus": 2}, 0, None),
        # a seeded model read from a file: its h^(0,1) is a divergent proper locus
        ("golden:1", None, 1, None),
    ])
    def test_witness_is_read_off_the_fits(self, monkeypatch, capsys, tmp_path, name, params, bound, witness):
        # the fits apply the decay criterion once per distinct entry; the witness is
        # the first failing fit, so no second pass over the grid is made
        def refuse(*args, **kwargs):
            raise AssertionError("check made a second witness pass")

        forms = []
        count_form = RankFunction.count_form
        monkeypatch.setattr(asymptotics, "converse_defect_witness", refuse)
        monkeypatch.setattr(RankFunction, "count_form", lambda rf, budget: forms.append(rf) or count_form(rf, budget))
        if params is None:
            model = random_model(random.Random(name))
            path = tmp_path / "seeded.json"
            path.write_text(dumps_model(model))
            source = ["--model", str(path)]
        else:
            model = builtin(name, **params).model
            source = ["--builtin", name, "--params", ",".join(f"{k}={v}" for k, v in params.items())]
        code, out = run_cli(capsys, "check", *source, "--defect-bound", str(bound))
        assert code == (0 if witness is None else 1)
        machine = json.loads(out.split("-- machine readable --")[1])
        assert machine["witness"] == witness
        assert machine["divergence"]["witness_order"] == {"fibered_over_curve": 1, "golden:1": 6}.get(name)
        # the fits read degrees and the divergence class reads h^(0,1)'s
        # degree and witness order, off the strata: no verdict builds a form.
        # A bounded q(X_d) is printed off h^(0,1)'s form, which the table holds
        assert forms == ([] if machine["divergence"]["divergent"] else [model.hodge[0][1]])


class TestPointModel:
    """n = 0: the grid is the one entry (0,0), so there is no h^(0,1)."""

    @pytest.mark.parametrize("g", [0, 1])
    @pytest.mark.parametrize("source", ["written", "exported"])
    def test_check_and_tower_exit_0(self, tmp_path, capsys, source, g):
        # the same checks run on a hand-written file and on the model's own export
        model = VarietyModel(n=0, g=g, hodge=((constant_rank(2 * g, 1),),), defect_strata=((0, 0),))
        path = tmp_path / "point.json"
        if source == "written":
            path.write_text(json.dumps({"schema_version": 1, "n": 0, "g": g,
                                        "hodge": [{"p": 0, "q": 0, "generic": 1}], "defect_strata": [[0, 0]]}))
        else:
            path.write_text(dumps_model(model))
        assert load_model(path) == model
        code, out = run_cli(capsys, "validate", "--model", str(path))
        assert (code, out.splitlines()[-1]) == (0, "model accepted")
        warning = (f"warning: a point's Albanese torus is trivial, not of irregularity {g}; "
                   "the model does not present its own Albanese torus")
        assert out.splitlines()[:-2] == ([warning] if g else [])
        code, out = run_cli(capsys, "check", "--model", str(path))
        assert code == 0
        assert "# cover irregularity bounded at 0\n" in out
        assert json.loads(out.split("-- machine readable --")[1])["divergence"]["base_irregularity"] == 0
        code, out = run_cli(capsys, "tower", "--model", str(path), "--d-max", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["deg"], row["h_0_0"], row["q"]) for row in rows] == [
            (str(d ** (2 * g)), str(d ** (2 * g)), "0") for d in (1, 2, 3)]
        deg = 3 ** (2 * g)
        assert out.splitlines()[-1] == f"1,3,{deg},{deg},{deg},0,1,1,1,1"


class TestGenusZero:
    """g = 0: the dual torus is a point, so h^(0,1) is a constant and q(X_d) cannot grow."""

    def test_check_agrees_with_tower(self, tmp_path, capsys):
        blob = {"schema_version": 1, "n": 1, "g": 0,
                "hodge": [{"p": p, "q": q, "generic": 1} for p in (0, 1) for q in (0, 1)],
                "defect_strata": [[0, 0], [1, 0]]}
        path = tmp_path / "g0.json"
        path.write_text(json.dumps(blob))
        report = asymptotics.divergence_class(load_model(path))
        assert (report.divergent, report.max_stratum_dim, report.witness_order,
                report.base_irregularity) == (False, 0, None, 1)
        code, out = run_cli(capsys, "check", "--model", str(path), "--defect-bound", "1")
        assert code == 0
        assert "# cover irregularity bounded at 1\n" in out
        code, out = run_cli(capsys, "tower", "--model", str(path), "--d-max", "3")
        assert code == 0
        assert [row["q"] for row in csv.DictReader(io.StringIO(out))] == ["1", "1", "1"]


class TestBadFlags:
    """Every flag value outside its range ends in exit 2 with a message naming the flag."""

    @pytest.mark.parametrize("d_max", ["0", "-3"])
    def test_tower_d_max(self, capsys, d_max):
        assert main(["tower", "--builtin", "abelian", "--d-max", d_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--d-max must be a positive integer, got {d_max}" in captured.err

    @pytest.mark.parametrize("bound", ["-1", "2"])
    def test_defect_bound_outside_zero_to_n(self, capsys, bound):
        assert main(["check", "--builtin", "abelian", "--params", "g=1",
                     "--defect-bound", bound]) == 2
        assert f"--defect-bound {bound} lies outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["count", "--builtin", "abelian", "--i", "0,1", "--d", "x"], "--d"),
        (["count", "--builtin", "abelian", "--i", "0,1", "--d", "2,0"], "--d"),
        (["tower", "--builtin", "abelian", "--pluri", "a"], "--pluri"),
        (["tower", "--builtin", "abelian", "--pluri", "2,-1"], "--pluri"),
        (["count", "--builtin", "abelian", "--i", "0,1", "--d", ""], "--d"),
        (["tower", "--builtin", "abelian", "--pluri", ""], "--pluri"),
        (["tower", "--builtin", "abelian", "--pluri", ","], "--pluri"),
    ])
    def test_integer_lists(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} needs a comma list of positive integers" in captured.err
        assert "invalid literal" not in captured.err

    def test_long_bad_list_is_echoed_short(self, capsys):
        text = "x" * 10_000
        assert main(["count", "--builtin", "abelian", "--i", "0,1", "--d", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --d needs a comma list of positive integers, got 'xxx")
        assert len(captured.err) < 200

    @pytest.mark.parametrize("extra", [
        ["--params", "g=1", "--i", "0," + "1" * 5000],
        ["--params", "g=1", "--i", "0," + "1" * 4000],
        ["--params", "g=" + "1" * 5000, "--i", "0,0"],
        ["--params", "g" * 6000, "--i", "0,0"],
        ["--params", "g=" + "1" * 4000, "--i", "0,0"],
        ["--params", "g=1", "--i", "x" * 6000],
    ])
    def test_long_arguments_are_echoed_short(self, capsys, extra):
        assert main(["count", "--builtin", "abelian", *extra, "--d", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.encode()) < 300

    @pytest.mark.parametrize("argv,start", [
        (["--builtin", "x" * 6000], "error: no catalog entry named 'xxx"),
        (["--builtin", "abelian", "--params", "g" * 6000 + "=1"],
         "error: abelian: abelian() got an unexpected keyword argument 'ggg"),
    ])
    def test_long_catalog_name_or_key_is_echoed_short(self, capsys, argv, start):
        assert main(["validate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(start)
        assert len(captured.err.encode()) < 300

    def test_long_grid_entry_lies_outside_the_grid(self, capsys):
        argv = ["count", "--builtin", "abelian", "--params", "g=1", "--i", "0," + "1" * 5000, "--d", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --i 0,111")
        assert "lies outside the 2x2 grid of a model with n = 1" in err

    def test_huge_catalog_parameters_name_the_caps(self, capsys):
        assert main(["validate", "--builtin", "abelian", "--params", "g=" + "1" * 5000]) == 2
        assert capsys.readouterr().err == \
            "error: abelian: n = at least 10^20, g = at least 10^20 exceed the caps n, g <= 64, 64\n"

    def test_pluri_beyond_the_data_writes_nothing(self, tmp_path, capsys):
        # abelian pluri data stop at m = 6
        target = tmp_path / "tower.csv"
        for extra in ([], ["--out", str(target)]):
            assert main(["tower", "--builtin", "abelian", "--pluri", "2,7", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--pluri 7: no plurigenus data for m = 7" in captured.err
        assert not target.exists()
        assert main(["tower", "--builtin", "abelian", "--pluri", "6", "--out", str(target)]) == 0
        assert target.read_text().startswith("schema,d,deg,")

    def test_huge_pluri_exponent_is_named_and_capped(self, capsys):
        for digits in (100, 5000):
            m = "9" * digits
            assert main(["tower", "--builtin", "abelian", "--params", "g=1", "--pluri", f"2,{m}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            shown = "9" * ECHO_CHARS + "..."
            assert captured.err == f"error: --pluri {shown}: no plurigenus data for m = {shown}\n"

    def test_shown_int_matches_shown_text(self):
        values = [0, 7, -7, 10 ** 59, 10 ** 60 - 1, 10 ** 60, -10 ** 60, 2 ** 200, -(3 ** 150),
                  10 ** 5000, -(7 * 10 ** 5000 + 1), 2 ** 100_000 - 1]
        texts = [shown_int(v) for v in values]  # the interpreter's digit cap in force
        with _int_text_of_any_size():
            assert texts == [shown(str(v)) for v in values]

    def test_repeated_pluri_exponent_writes_nothing(self, tmp_path, capsys):
        target = tmp_path / "tower.csv"
        huge = "9" * 5000
        for pluri, repeated in (("1,1", "1"), ("2,1,2", "2"), ("3,2,2,3", "2"),
                                (f"{huge},{huge}", "9" * ECHO_CHARS + "...")):
            for extra in ([], ["--out", str(target)]):
                argv = ["tower", "--builtin", "cartwright_steger_like", "--d-max", "2", "--pluri", pluri]
                assert main(argv + extra) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: --pluri lists {repeated} more than once\n"
        assert not target.exists()

    @pytest.mark.parametrize("name,params", [("abelian", "g=2"), ("fibered_over_curve", "genus=2")])
    def test_pluri_one_is_the_geometric_genus(self, capsys, name, params):
        # m = 1 needs no pluri data: fibered_over_curve carries none
        argv = ["tower", "--builtin", name, "--params", params, "--d-max", "3", "--pluri", "1"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        n = builtin(name, **{k: int(v) for k, v in [params.split("=")]}).model.n
        assert len(rows) == 3
        assert all(row["P_1"] == row[f"h_{n}_0"] for row in rows)

    def test_count_failures_write_nothing(self, capsys):
        argv = ["count", "--builtin", "blowup_abelian_codim", "--i", "1,1", "--d", "2"]
        assert main(["--budget", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2 components exceed the component budget of 1" in captured.err
        assert main(["--budget", "2", *argv]) == 0

    def test_budget_counts_what_each_command_reads(self, tmp_path, capsys):
        # (0,1) and (1,0) are 1 on the whole torus and 2 at (1/2, 0): count --i
        # caps the jump locus, both strata above the generic value 0, while
        # tower folds the stratum that fills the torus into the limit 1 and
        # caps the one stratum above it
        blob = json.loads(dumps_model(builtin("abelian", g=1).model))
        for entry in blob["hodge"]:
            if {entry["p"], entry["q"]} == {0, 1}:
                entry["strata"] = [{"A": [], "b": [], "value": 1},
                                   {"A": [[1, 0], [0, 1]], "b": ["1/2", "0"], "value": 2}]
        path = tmp_path / "full.json"
        path.write_text(json.dumps(blob))
        assert main(["--budget", "1", "count", "--model", str(path), "--i", "0,1", "--d", "2"]) == 2
        assert capsys.readouterr() == ("", "error: 2 components exceed the component budget of 1\n")
        assert main(["--budget", "2", "count", "--model", str(path), "--i", "0,1", "--d", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split() == ["2", "4", "4"]
        assert main(["--budget", "1", "tower", "--model", str(path), "--d-max", "2"]) == 0
        assert [row["h_0_1"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))] == ["1", "5"]

    def test_budget_skips_empty_components(self, tmp_path, capsys):
        # {x0 ≡ 0, x0 ≡ 1/2} is empty: every count takes in the origin alone,
        # while count's header still counts the presented components
        origin = {"A": [[1, 0], [0, 1]], "b": ["0", "0"]}
        empty = {"A": [[1, 0], [1, 0]], "b": ["0", "1/2"]}
        rows = []
        for name, components in (("both", [origin, empty]), ("origin", [origin])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"ambient_dim": 2, "components": components}))
            assert main(["--budget", "1", "count", "--locus", str(path), "--d", "2"]) == 0
            header, _, row = capsys.readouterr().out.splitlines()
            assert header == f"# {path}: {len(components)} components, top dimension 0"
            rows.append(row)
        assert rows[0] == rows[1]
        # (0,1) and (1,0) are 1 at the origin and 2 on the empty stratum
        blob = json.loads(dumps_model(builtin("abelian", g=1).model))
        for entry in blob["hodge"]:
            if {entry["p"], entry["q"]} == {0, 1}:
                entry["strata"] = [{**origin, "value": 1}, {**empty, "value": 2}]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(blob))
        assert main(["--budget", "1", "count", "--model", str(path), "--i", "0,1", "--d", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "# jump locus of (0,1): 2 components, top dimension 0", f"{'d':>6} {'torsion':>14} {'d^dim':>14}",
            f"{2:>6} {1:>14} {1:>14}"]
        assert main(["--budget", "1", "tower", "--model", str(path), "--d-max", "2"]) == 0
        assert [row["h_0_1"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))] == ["1", "1"]

    def test_check_d_max_below_two(self, capsys):
        assert main(["check", "--builtin", "abelian", "--d-max", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--d-max must be at least 2, got 1" in captured.err
        assert main(["check", "--builtin", "abelian", "--d-max", "2"]) == 0

    @pytest.mark.parametrize("flag,value", [("--budget", "0"), ("--budget", "-1")])
    def test_global_caps_below_one(self, capsys, flag, value):
        argv = [flag, value, "count", "--builtin", "abelian", "--i", "0,0", "--d", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} must be a positive integer, got {value}" in captured.err
        assert main([flag, "1", *argv[2:]]) == 0

    def test_unwritable_out(self, tmp_path, capsys):
        for argv in (["tower", "--builtin", "abelian"], ["export", "--builtin", "abelian"]):
            assert main([*argv, "--out", str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"cannot write {tmp_path}" in captured.err

    def test_catalog_parameters_capped(self, capsys):
        assert main(["validate", "--builtin", "abelian", "--params", "g=65"]) == 2
        assert "abelian: n = 65, g = 65 exceed the caps" in capsys.readouterr().err

    def test_proper_pluri_locus_with_generic_value(self, tmp_path, capsys):
        # a file of the first layout that states a rank off a proper locus is
        # refused at load: the model derives 0 there
        blob = json.loads(dumps_model(builtin("abelian", g=2).model))
        blob["pluri"]["values"] = {"2": 3}
        blob["pluri"]["generic_values"] = {"2": 1}
        path = tmp_path / "pluri.json"
        path.write_text(json.dumps(blob))
        message = ("error: 'generic_values' gives 1 for m = 2, but the model derives 0: "
                   "the locus value when q_base = g, else 0\n")
        for argv in (["validate"], ["tower", "--pluri", "2"]):
            assert main([*argv, "--model", str(path)]) == 2
            assert capsys.readouterr() == ("", message)


class TestValidateExport:
    def test_empty_parameter_items_are_skipped(self, capsys):
        code, out = run_cli(capsys, "validate", "--builtin", "abelian", "--params", "g=2,,")
        assert (code, out) == run_cli(capsys, "validate", "--builtin", "abelian", "--params", "g=2")
        assert code == 0 and out.endswith("model accepted\n")

    @pytest.mark.parametrize("params", ["g=2,g=3", "g=2, g=3", " g =2,g=2"])
    def test_repeated_params_exit_2(self, capsys, params):
        # the later value would silently win, as --pluri refuses to let it
        assert main(["validate", "--builtin", "abelian", "--params", params]) == 2
        assert capsys.readouterr().err == "error: --params names 'g' more than once\n"

    def test_impossible_models_exit_2(self, tmp_path, capsys):
        # a stratification that contradicts itself, which check --defect-bound 0
        # failed on, covers that are not connected (h^(0,0)(X_3) = 2 in tower),
        strata = json.loads(dumps_model(builtin("elliptic_surface_qI0", genus=2, chi=1).model))
        strata["defect_strata"] = [[0, 1], [1, 0]]
        points = lambda *xs: [{"A": [[1, 0], [0, 1]], "b": [x, "0"], "value": 1} for x in ("0", *xs)]
        disconnected = {"schema_version": 1, "n": 1, "g": 1, "defect_strata": [[0, 1]], "hodge": [
            {"p": p, "q": q, "strata": points("1/3" if p == 0 else "2/3")} for p in range(2) for q in range(2)]}
        # and h^(1,1)(0) = 2, which tower printed as h_1_1 = b_2 = 2 on every cover
        top = {**disconnected, "hodge": [{"p": p, "q": q, "strata": [{**points()[0], "value": 1 + p * q}]}
                                         for p in range(2) for q in range(2)]}
        cases = [(strata, ["error: stratum (1,0) contradicts V_0 of dimension 1: the general fiber has "
                           "dimension 1, so V_l = V_0 for every l <= 1"]),
                 (disconnected, [f"error: the ({p},{p}) rank must vanish off the origin, since every cover "
                                 "X_d is connected" for p in (0, 1)]),
                 (top, ["error: the (1,1) rank at the origin must be 1"])]
        for blob, errors in cases:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(blob))
            code, out = run_cli(capsys, "validate", "--model", str(path))
            assert code == 2 and [line for line in out.splitlines() if line.startswith("error")] == errors
            assert out.endswith("model rejected\n")
            for argv in (["check", "--defect-bound", "0"], ["tower", "--d-max", "3"]):
                assert main([*argv, "--model", str(path)]) == 2
                assert capsys.readouterr() == ("".join(f"{e}\n" for e in errors),
                                               "error: the model does not validate\n")

    def test_validate_accepts_catalog(self, capsys):
        code, out = run_cli(capsys, "validate", "--builtin", "fibered_over_curve",
                            "--params", "genus=2")
        assert code == 0
        assert "model accepted" in out

    def test_validate_rejects_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        blob = json.loads(
            __import__("jumploci").dumps_model(builtin("abelian", g=1).model))
        blob["hodge"][0]["strata"][0]["value"] = 0  # no longer above the generic value
        bad.write_text(json.dumps(blob))
        code, out = run_cli(capsys, "validate", "--model", str(bad))
        assert code == 2
        assert "model rejected" in out

    def test_export_import_round_trip(self, tmp_path, capsys):
        target = tmp_path / "model.json"
        assert main(["export", "--builtin", "blowup_abelian_codim",
                     "--params", "g=3,c=2", "--out", str(target)]) == 0
        assert load_model(target) == builtin("blowup_abelian_codim", g=3, c=2).model

    def test_missing_source(self, capsys):
        assert main(["export"]) == 2


class TestOneSource:
    """A flag that the chosen input would ignore exits 2 with one message
    that names the flags, and nothing is loaded or printed."""

    @pytest.fixture(autouse=True)
    def refuse_loads(self, monkeypatch):
        def load(*args, **kwargs):
            raise AssertionError("an input was loaded")
        for module, name in ((modelfile, "load_model"), (modelfile, "load_locus"), (catalog, "builtin")):
            monkeypatch.setattr(module, name, load)

    @pytest.mark.parametrize("command", [["validate"], ["check"], ["tower"], ["export"],
                                         ["count", "--i", "0,0", "--d", "2"]])
    @pytest.mark.parametrize("flags, ignored", [
        (["--builtin", "abelian"], "--builtin"),
        (["--params", "g=2"], "--params"),
        (["--builtin", "abelian", "--params", "g=2"], "--builtin, --params"),
    ])
    def test_model_file_with_a_catalog_flag(self, capsys, command, flags, ignored):
        assert main([*command, "--model", "m.json", *flags]) == 2
        assert capsys.readouterr() == ("", f"error: --model cannot be combined with {ignored}\n")

    @pytest.mark.parametrize("flags, ignored", [
        (["--i", "0,0"], "--i"),
        (["--model", "m.json"], "--model"),
        (["--builtin", "abelian", "--params", "g=2"], "--builtin, --params"),
        (["--i", "0,0", "--model", "m.json", "--builtin", "abelian", "--params", "g=2"],
         "--i, --model, --builtin, --params"),
    ])
    def test_locus_with_a_model_flag(self, capsys, flags, ignored):
        assert main(["count", "--locus", "union.json", *flags, "--d", "2"]) == 2
        assert capsys.readouterr() == ("", f"error: --locus cannot be combined with {ignored}\n")


_POINT = {"schema_version": 1, "n": 0, "g": 1, "hodge": [{"p": 0, "q": 0, "generic": 1}],
          "defect_strata": [[0, 0]]}
_LONG_B = {"A": [[1, 0]], "b": ["x" * 5000]}


class TestFileTextIsEchoedShort:
    """Model- and locus-file messages quote user text capped at ECHO_CHARS."""

    @pytest.mark.parametrize("command,text", [
        ("validate --model", json.dumps(dict(_POINT, hodge=[{"p": 0, "q": 0, "generic": 1,
                                                            "strata": [dict(_LONG_B, value=2)]}]))),
        ("count --d 2 --locus", json.dumps({"ambient_dim": 2, "components": [_LONG_B]})),
        ("validate --model", json.dumps(dict(_POINT, pluri={"q_base": 0, "translates": [["0", "0"]],
                                                            "generic_values": {"x" * 5000: 0}}))),
        ("validate --model", json.dumps(_POINT).replace('"generic": 1', '"generic": ' + "9" * 5000)),
    ], ids=["model b", "locus b", "generic_values key", "digits"])
    def test_exit_2_with_a_short_message(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main([*command.split(), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 300
        assert "x" * (ECHO_CHARS + 1) not in captured.err
        if "9" * 5000 in text:  # past the interpreter's digit cap: the message names the file
            assert captured.err == f"error: {path} holds an integer with too many digits to read\n"

    def test_validation_quotes_a_long_model_integer_short(self, tmp_path, capsys):
        # a 4000-digit q_base reads (below the interpreter's digit cap) and
        # fails validation: its finding quotes ECHO_CHARS digits, not 4000
        blob = json.loads(jumploci.dumps_model(builtin("elliptic_surface_qI0", genus=2, chi=1).model))
        blob["pluri"]["q_base"] = int("9" * 4000)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(blob))
        assert main(["validate", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if "Iitaka-base" in line]
        assert lines == [f"error: the Iitaka-base irregularity {'9' * ECHO_CHARS}... must lie in [0, 2]"]
        assert len(lines[0].encode()) < 300
        assert captured.out.endswith("model rejected\n")
