"""The console checks that need no installed entry point, run in-process.

Each case runs ``cli.main`` with the argv a shell user types, in a fresh
directory holding the input files it names, and checks the exit code, the
printed text and the error message; a case bound in time runs ``python -m
jumploci.cli`` as a process.  The library case reads the paper's plurigenus
dichotomy.  The other console checks sit with the code they test, in
``test_cli``, ``test_modelfile``, ``test_model`` and the golden table.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import jumploci
from jumploci import builtin, catalog, load_model, value_on_cover
from jumploci.cli import main
from gen import dense_system, unimodular_point
from test_golden import TABLE, digest, key

QI0 = ("--builtin", "elliptic_surface_qI0", "--params", "genus=2,chi=1")
QI0_ROW = "1,2,16,1,17,32,17,194,17,32,17,1,1,34,258,34,1,17,32,80,"
BLOWUP = ("--builtin", "blowup_abelian4_curve", "--params", "genus=2")


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """Runs ``main(argv)`` in ``tmp_path``: (exit code, stdout, stderr)."""
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def cli_process(*argv, **kwargs) -> subprocess.CompletedProcess:
    """Runs ``python -m jumploci.cli`` as a process, with this checkout's
    ``src`` first on its path."""
    src = str(Path(jumploci.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "jumploci.cli", *argv], env=env, **kwargs)


def has_line_with(text: str, fragment: str) -> bool:
    return any(fragment in line for line in text.splitlines())


def edit_json(path, edit) -> None:
    """Loads a JSON file, applies ``edit`` to it and writes it back."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


@pytest.mark.parametrize("argv,row", [
    ((*QI0, "--d-max", "2", "--pluri", "1,2"), QI0_ROW),
    (("--builtin", "abelian", "--params", "g=2", "--d-max", "2", "--pluri", "2,6"),
     "1,2,16,1,2,1,2,4,2,1,2,1,1,4,6,4,1,2,1,1,"),
], ids=["elliptic_surface_qI0", "abelian"])
def test_tower_prints_plurigenus_columns(run, argv, row):
    code, out, err = run("tower", *argv)
    assert (code, err) == (0, "")
    assert has_line_with(out, row)


@pytest.mark.parametrize("argv,message", [
    (("--builtin", "cartwright_steger_like", "--d-max", "2", "--pluri", "1,1"), "--pluri lists 1 more than once"),
    (("--builtin", "abelian", "--params", "g=1", "--pluri", "2," + "9" * 5000), "--pluri"),
], ids=["repeated", "huge"])
def test_tower_refuses_a_bad_exponent_list(run, argv, message):
    # nothing is printed, and a huge exponent is quoted short
    code, out, err = run("tower", *argv)
    assert (code, out) == (2, "")
    assert message in err
    assert len(err.encode()) < 300


def test_huge_q_base_is_quoted_short(run):
    assert run("export", *QI0, "--out", "qbase.json")[0] == 0
    edit_json("qbase.json", lambda m: m["pluri"].update(q_base=int("9" * 4000)))
    code, out, _ = run("validate", "--model", "qbase.json")
    assert code == 2
    lines = [line for line in out.splitlines() if "Iitaka-base" in line]
    assert len(lines) == 1
    assert len(lines[0].encode()) + 1 < 300


def test_older_file_generic_values(run):
    # an older file states the rank off the locus: read when it is the
    # derived one, refused when it is not
    assert run("export", *QI0, "--out", "old.json")[0] == 0

    def older(m):
        m["flags"] = {"semismall": False}
        m["pluri"]["generic_values"] = m["pluri"]["values"]

    edit_json("old.json", older)
    code, out, err = run("tower", "--model", "old.json", "--d-max", "2", "--pluri", "1,2")
    assert (code, err) == (0, "")
    assert has_line_with(out, QI0_ROW)
    edit_json("old.json", lambda m: m["pluri"].update(generic_values={"2": 0}))
    code, out, err = run("tower", "--model", "old.json", "--d-max", "2", "--pluri", "1,2")
    assert (code, out) == (2, "")
    assert "'generic_values' gives 0 for m = 2" in err


def test_exponent_key_in_plain_decimal(run):
    assert run("export", "--builtin", "abelian", "--params", "g=1", "--out", "none.json")[0] == 0
    edit_json("none.json", lambda m: m["pluri"]["values"].update({"None": 2}))
    code, _, err = run("validate", "--model", "none.json")
    assert code == 2
    assert "plain decimal" in err


def test_plurigenus_dichotomy():
    # q_base = g: P_2 = 5·d^4; q_base = 0: P_3 stays at its value on the origin
    qI0, abelian = builtin("elliptic_surface_qI0", genus=2, chi=1).model, builtin("abelian", g=2).model
    assert [value_on_cover(qI0, ("pluri", 2), d) for d in range(1, 5)] == [5, 80, 405, 1280]
    assert [value_on_cover(abelian, ("pluri", 3), d) for d in range(1, 5)] == [1, 1, 1, 1]


def test_exported_model_gives_the_golden_output(run):
    # rows do not depend on --d-max, so the golden tower pins the d = 2 row
    assert run("export", *BLOWUP, "--out", "m.json")[0] == 0
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    for command, *rest in (["validate"], ["tower", "--d-max", "8"], ["check", "--d-max", "16"]):
        assert digest([command, "--model", "m.json", *rest]) == golden[key([command, *BLOWUP, *rest])]
    assert run("tower", *BLOWUP, "--d-max", "8")[1].startswith(run("tower", *BLOWUP, "--d-max", "2")[1])


def test_generic_vanishing_warning_at_a_declared_defect(run):
    assert run("export", "--builtin", "blowup_abelian_codim", "--params", "g=4,c=3", "--out", "gv.json")[0] == 0
    edit_json("gv.json", lambda m: m.update(defect_strata=[[0, 4]]))
    code, out, err = run("validate", "--model", "gv.json")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "warning: locus (1,1) has real dimension 6; generic vanishing at defect 0 allows at most 4" in lines
    assert lines[-1] == "model accepted"


@pytest.mark.parametrize("name,locus,ds,rows", [
    ("union.json", {"ambient_dim": 2, "components": [{"A": [[2, 0]], "b": ["1/2"]}, {"A": [[0, 1]], "b": ["0"]}]},
     "2,4,1000000", [["2", "2", "2"], ["4", "10", "4"], ["1000000", "2999998", "1000000"]]),
    ("quarter.json", {"ambient_dim": 1, "components": [{"A": [[2]], "b": ["1/2"]}]},
     "2,4,8", [["2", "0", "1"], ["4", "2", "1"], ["8", "2", "1"]]),
], ids=["union", "quarter"])
def test_locus_counts(run, tmp_path, name, locus, ds, rows):
    (tmp_path / name).write_text(json.dumps(locus), encoding="utf-8")
    code, out, err = run("count", "--locus", name, "--d", ds)
    assert (code, err) == (0, "")
    assert [line.split() for line in out.splitlines()[2:]] == rows


def test_a_huge_exponent_is_refused_within_seconds(tmp_path):
    # Fraction would take minutes over "1e100000000"; the process exits 2 inside 10 s
    (tmp_path / "exponent.json").write_text(
        json.dumps({"ambient_dim": 1, "components": [{"A": [[1]], "b": ["1e100000000"]}]}), encoding="utf-8")
    proc = cli_process("count", "--locus", "exponent.json", "--d", "2",
                       cwd=tmp_path, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "bad rational" in proc.stderr


def test_the_largest_model_is_exported_within_seconds(tmp_path):
    # abelian(64) has one coset, the origin, in each of its 65² grid entries:
    # the file states the 128 × 128 matrix once, where inline it would repeat it
    proc = cli_process("export", "--builtin", "abelian", "--params", "g=64", "--out", "big.json",
                       cwd=tmp_path, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (tmp_path / "big.json").stat().st_size < 2_000_000
    assert load_model(tmp_path / "big.json") == catalog.builtin("abelian", g=64).model


# torsion counts at d = 1, 6, 7, 12: the point (1/6, ...) lies on the 6- and
# 12-torsion grids; a dense system with b = 1/7 and 7 ∤ det A has one 7-torsion
# point and none at a d that 7 does not divide
POINT, DENSE = ["0", "1", "0", "1"], ["0", "0", "1", "0"]


@pytest.mark.parametrize("make,counts", [
    (lambda: unimodular_point(random.Random(32), 32, steps=640), POINT),
    (lambda: dense_system(random.Random(1), 48), DENSE),
    (lambda: unimodular_point(random.Random(128), 128, steps=2560), POINT),
    (lambda: dense_system(random.Random(128), 128), DENSE),
], ids=["point-32", "dense-48", "point-128", "dense-128"])
def test_a_high_dimensional_locus_is_counted_within_seconds(tmp_path, make, counts):
    # an elimination that reduces only at the end takes 50 s or more on the
    # N = 32 point and the N = 48 system; the process ends inside 10 s
    coset = make()
    (tmp_path / "locus.json").write_text(json.dumps({"ambient_dim": coset.ambient_dim, "components": [
        {"A": [list(r) for r in coset.rows], "b": [str(b) for b in coset.rhs]}]}), encoding="utf-8")
    proc = cli_process("count", "--locus", "locus.json", "--d", "1,6,7,12",
                       cwd=tmp_path, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split() for line in proc.stdout.splitlines()[2:]] == [
        [d, n, "1"] for d, n in zip(["1", "6", "7", "12"], counts)]
