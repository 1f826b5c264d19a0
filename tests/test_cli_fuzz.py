"""Property test: every argv over the subcommands and flags ends in exit 0, 1 or 2.

Sizes stay small so that no example allocates a large grid: catalog
entries with n, g <= 3, ``--d`` up to 50 and ``--d-max`` up to 6.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from jumploci import builtin, dumps_model
from jumploci.cli import main
from gen import inline_strata

# catalog entries with n, g <= 3 and parameter values around their ranges
SMALL_BUILTINS = {
    "abelian": {"g": range(-1, 4)},
    "nondeg_line_bundle": {"g": range(0, 4), "p": range(-1, 4), "chi0": range(0, 3)},
    "blowup_abelian_codim": {"g": range(0, 4), "c": range(0, 4)},
    "elliptic_surface_qI0": {"genus": range(1, 4), "chi": range(0, 3)},
    "fibered_over_curve": {"genus": range(1, 3)},
    "cartwright_steger_like": {},
}

GARBAGE = st.sampled_from(["", "x", "1.5", "-", "2,", ",", "1e3", " 3"])


def mostly(common, rare):
    """``common`` seven times in eight, so that most argvs get past parsing."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else common)


def ints(lo, hi):
    return mostly(st.integers(lo, hi).map(str), GARBAGE)


def int_lists(lo, hi):
    return mostly(st.lists(st.integers(lo, hi), min_size=1, max_size=4)
                  .map(lambda xs: ",".join(map(str, xs))), GARBAGE)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model = root / "model.json"
    model.write_text(dumps_model(builtin("abelian", g=1).model))
    broken = inline_strata(json.loads(dumps_model(builtin("abelian", g=1).model)))
    broken["hodge"][0]["strata"][0]["value"] = 0
    (root / "broken.json").write_text(json.dumps(broken))
    (root / "garbage.json").write_text("{not json")
    (root / "locus.json").write_text(json.dumps({"ambient_dim": 2, "components": [
        {"A": [[1, 0]], "b": ["1/2"]}, {"A": [[1, 1]], "b": ["0"]}, {"A": [[2, 0]], "b": ["1/3"]}]}))
    return root


@st.composite
def builtin_source(draw):
    name = draw(mostly(st.sampled_from(sorted(SMALL_BUILTINS)), st.just("nope")))
    params = [f"{key}={draw(st.sampled_from(list(values)))}"
              for key, values in SMALL_BUILTINS.get(name, {}).items() if draw(st.booleans())]
    params_text = draw(mostly(st.just(",".join(params)), st.sampled_from(["g", "g=x", "zz=1"])))
    return ["--builtin", name] + (["--params", params_text] if params_text else [])


def file_source(flag, names):
    return st.sampled_from(names).map(lambda name: [flag, "{root}/" + name])


MODEL_FILES = ["model.json", "broken.json", "garbage.json", "locus.json", "missing.json"]
OUT_PATHS = ["{root}/out.txt", "{root}", "{root}/missing/out.txt"]


def source():
    return mostly(st.one_of(builtin_source(), builtin_source(), file_source("--model", MODEL_FILES)),
                  st.just([]))


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def usually(flag, values):
    return mostly(values.map(lambda v: [flag, v]), st.just([]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["count", "tower", "check", "validate", "export", "catalog-list"]))
    groups = []
    if command == "count":
        groups.append(draw(st.one_of(source(), file_source("--locus", ["locus.json", "model.json", "missing.json"]))))
        groups.append(draw(usually("--i", mostly(
            st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda pq: f"{pq[0]},{pq[1]}"), GARBAGE))))
        groups.append(draw(usually("--d", int_lists(-1, 50))))
    elif command == "tower":
        groups.append(draw(source()))
        groups.append(draw(optional("--d-max", ints(-1, 6))))
        groups.append(draw(optional("--pluri", int_lists(-1, 8))))
        groups.append(draw(optional("--out", st.sampled_from(OUT_PATHS))))
    elif command == "check":
        groups.append(draw(source()))
        groups.append(draw(optional("--defect-bound", ints(-1, 4))))
        groups.append(draw(optional("--d-max", ints(-1, 6))))
    elif command in ("validate", "export"):
        groups.append(draw(source()))
        if command == "export":
            groups.append(draw(optional("--out", st.sampled_from(OUT_PATHS))))
    groups = draw(st.permutations(groups))
    head = draw(optional("--budget", ints(-1, 20)))
    return head + [command] + [token for group in groups for token in group]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(argvs())
def test_every_argv_ends_in_an_exit_code(files, argv):
    argv = [token.replace("{root}", str(files)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error: ") or "model rejected" in out.getvalue(), argv
