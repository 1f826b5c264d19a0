"""The package imports nothing outside the standard library and itself, and
a command imports only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jumploci
from jumploci import asymptotics, catalog, save_model

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jumploci"


def test_imports_are_standard_library_or_relative():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


# the modules that only some commands run
DEFERRED = ("jumploci.asymptotics", "jumploci.catalog", "csv")

# runs a command in a fresh interpreter; prints its exit code and which
# deferred modules it loaded
PROBE = f"""
import contextlib, io, json, sys
import jumploci
code = None
if len(sys.argv) > 1:
    from jumploci.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([code, [name for name in {DEFERRED!r} if name in sys.modules]]))
"""

BUILTIN = ("--builtin", "blowup_abelian4_curve", "--params", "genus=2")

# argv, exit code, the deferred modules loaded
COMMANDS = [
    ((), None, []),
    (("count", "--locus", "locus.json", "--d", "1,2,6"), 0, []),
    (("validate", "--model", "m.json"), 0, []),
    (("count", "--model", "m.json", "--i", "1,2", "--d", "1,2"), 0, []),
    (("export", "--model", "m.json"), 0, []),
    (("check", "--model", "m.json", "--d-max", "16"), 1, ["jumploci.asymptotics"]),
    (("tower", "--model", "m.json", "--d-max", "2"), 0, ["csv"]),
    (("validate", *BUILTIN), 0, ["jumploci.catalog"]),
    (("count", *BUILTIN, "--i", "1,2", "--d", "2"), 0, ["jumploci.catalog"]),
    (("export", *BUILTIN), 0, ["jumploci.catalog"]),
    (("tower", *BUILTIN, "--d-max", "2"), 0, ["jumploci.catalog", "csv"]),
    (("check", *BUILTIN, "--d-max", "16"), 1, ["jumploci.asymptotics", "jumploci.catalog"]),
    (("catalog-list",), 0, ["jumploci.catalog"]),
]


@pytest.mark.parametrize("argv,code,loaded", COMMANDS, ids=[" ".join(argv) or "import" for argv, *_ in COMMANDS])
def test_a_command_imports_only_the_modules_it_runs(argv, code, loaded, tmp_path):
    save_model(catalog.builtin("blowup_abelian4_curve", genus=2).model, tmp_path / "m.json")
    locus = {"ambient_dim": 2, "components": [{"A": [[1, 0]], "b": ["1/2"]}, {"A": [[0, 2]], "b": ["0"]}]}
    (tmp_path / "locus.json").write_text(json.dumps(locus), encoding="utf-8")
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    assert json.loads(done.stdout) == [code, loaded]


def test_the_deferred_names_are_their_modules_objects():
    assert jumploci.__all__ == [
        "BadParams", "BoundFit", "CapExceeded", "CatalogEntry", "ComponentBudgetExceeded", "CongruenceCoset",
        "CoverInvariants", "DEFAULT_INSTANCES", "DimensionMismatch", "DivergenceReport", "EngineError",
        "L2Report", "MissingPluriData", "MissingStratification", "ModelFormatError", "NormalizedCoset",
        "PluriData", "RankFunction", "Stratum", "TorsionCount", "TorusPoint", "UnknownName",
        "ValidationReport", "VarietyModel", "asymptotics", "betti_deviation_constant", "betti_limit_deviation",
        "builtin", "builtin_names", "catalog", "chi_multiplicativity_check", "classify_weak_gv",
        "constant_rank", "converse_defect_witness", "coset_torsion_count", "counting", "cover_invariants",
        "defect", "divergence_class", "dumps_model", "enumerate_torsion", "errors", "euler_char", "fit_bounds",
        "invariant_factors", "l2_betti", "l2_euler_characteristic", "load_locus", "load_model", "model",
        "model_from_dict", "model_to_dict", "modelfile", "normalized_sequence", "origin_jump",
        "pluri_bound_constant", "pluri_limit", "satisfies_weak_generic_nakano", "save_model",
        "sheaf_rank_on_cover", "snf", "symbolic_limit", "torus", "tower", "union_torsion_count",
        "validate_model", "value_on_cover"]
    assert jumploci.asymptotics is asymptotics and jumploci.catalog is catalog
    for module, names in (
            (asymptotics, ("BoundFit", "DivergenceReport", "L2Report", "betti_deviation_constant",
                           "betti_limit_deviation", "converse_defect_witness", "divergence_class", "fit_bounds",
                           "l2_betti", "l2_euler_characteristic")),
            (catalog, ("CatalogEntry", "DEFAULT_INSTANCES", "builtin", "builtin_names"))):
        for name in names:
            assert getattr(jumploci, name) is getattr(module, name)
            assert name not in vars(jumploci)  # resolved on each use, never stored
    assert set(jumploci.__all__) <= set(dir(jumploci))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jumploci.no_such_name
