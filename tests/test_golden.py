"""Golden outputs: the exit code, stdout and stderr of ``cli.main`` on a fixed
corpus, hashed and compared with the checked-in table ``golden.json``.

The table changes only with a deliberate output change, listed with the
invocations it affects.  ``python tests/test_golden.py`` (with ``src`` on
the path) prints the table of the current code; no test writes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from jumploci import builtin, cli, save_model
from jumploci.catalog import DEFAULT_INSTANCES
from gen import CATALOG_SWEEP, random_model

TABLE = Path(__file__).with_name("golden.json")

INSTANCES = tuple(DEFAULT_INSTANCES) + CATALOG_SWEEP
COUNT_DS = "1,2,3,5,12,1000000007"
LOCUS_DS = "1,2,3,4,6,1000000007"
LOCUS_SEED = 2016
LOCUS_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 8, 9)
# seeded random models with several divisibility classes: translates of
# order up to 12 and Smith pivots above 1, so the torsion gates are pinned
MODEL_SEEDS = (1, 2, 5)


def instance_invocations(name: str, params: dict, model_file: str | None = None) -> list[list[str]]:
    """validate, check, tower (plain and with every plurigenus exponent that
    has data) and count on every grid entry, for one catalog instance, read
    with --builtin or, given ``model_file``, with --model."""
    source = ["--builtin", name]
    if params:
        source += ["--params", ",".join(f"{k}={v}" for k, v in params.items())]
    if model_file is not None:
        source = ["--model", model_file]
    model = builtin(name, **params).model
    exponents = [1] + sorted(model.pluri.values if model.pluri else ())
    argvs = [["validate", *source]]
    argvs += [["check", *source, "--d-max", d_max] for d_max in ("4", "16")]
    argvs.append(["tower", *source, "--d-max", "8"])
    argvs.append(["tower", *source, "--d-max", "8", "--pluri", ",".join(map(str, exponents))])
    argvs += [["count", *source, "--i", f"{p},{q}", "--d", COUNT_DS] for p, q in model.hodge_pairs()]
    return argvs


def seeded_model(k: int):
    return random_model(random.Random(f"golden:{k}"))


def model_invocations() -> list[list[str]]:
    """validate, check, tower and count on every grid entry, for each seeded
    model read with --model."""
    argvs = []
    for k in MODEL_SEEDS:
        source = ["--model", f"model{k}.json"]
        argvs += [["validate", *source], ["check", *source, "--d-max", "16"], ["tower", *source, "--d-max", "4"]]
        argvs += [["count", *source, "--i", f"{p},{q}", "--d", COUNT_DS] for p, q in seeded_model(k).hodge_pairs()]
    return argvs


def write_models(directory: Path) -> None:
    for k in MODEL_SEEDS:
        save_model(seeded_model(k), directory / f"model{k}.json")


def locus_invocations() -> list[list[str]]:
    return [["count", "--locus", f"locus{k}.json", "--d", LOCUS_DS] for k in range(len(LOCUS_SIZES))]


def write_loci(directory: Path) -> None:
    """Seeded unions in (R/Z)^4 and (R/Z)^6: sparse rows with entries ±1, ±2
    and translates of order 1, 2 or 3."""
    rng = random.Random(LOCUS_SEED)
    for k, r in enumerate(LOCUS_SIZES):
        ambient = (4, 6)[k % 2]
        components = []
        for _ in range(r):
            rows = []
            for _ in range(rng.choice((1, 2))):
                row = [0] * ambient
                for j in rng.sample(range(ambient), 3):
                    row[j] = rng.choice((-2, -1, 1, 2))
                rows.append(row)
            den = rng.choice((1, 2, 3))
            components.append({"A": rows, "b": [str(Fraction(rng.randrange(den), den)) for _ in rows]})
        (directory / f"locus{k}.json").write_text(
            json.dumps({"ambient_dim": ambient, "components": components}), encoding="utf-8")


def digest(argv: list[str]) -> str:
    """SHA-256 of (exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def key(argv: list[str]) -> str:
    return " ".join(argv)


def all_invocations() -> list[list[str]]:
    argvs = [argv for name, params in INSTANCES for argv in instance_invocations(name, params)]
    return argvs + locus_invocations() + model_invocations()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,params", INSTANCES,
                         ids=[f"{n}-{'-'.join(map(str, p.values()))}" for n, p in INSTANCES])
def test_catalog_outputs(golden, name, params):
    argvs = instance_invocations(name, params)
    assert [key(a) for a in argvs if golden.get(key(a)) != digest(a)] == []


@pytest.mark.parametrize("name,params", INSTANCES,
                         ids=[f"{n}-{'-'.join(map(str, p.values()))}" for n, p in INSTANCES])
def test_model_file_outputs(golden, name, params, tmp_path, monkeypatch):
    # the exported model, read back with --model, gives the golden output of
    # the same invocation with --builtin
    monkeypatch.chdir(tmp_path)
    save_model(builtin(name, **params).model, "model.json")
    pairs = zip(instance_invocations(name, params), instance_invocations(name, params, "model.json"))
    assert [key(a) for a, b in pairs if golden.get(key(a)) != digest(b)] == []


def test_locus_outputs(golden, tmp_path, monkeypatch):
    # relative paths, so the output does not depend on the directory
    monkeypatch.chdir(tmp_path)
    write_loci(tmp_path)
    argvs = locus_invocations()
    assert [key(a) for a in argvs if golden.get(key(a)) != digest(a)] == []


def test_seeded_model_outputs(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_models(tmp_path)
    argvs = model_invocations()
    assert [key(a) for a in argvs if golden.get(key(a)) != digest(a)] == []


def test_table_names_exactly_the_corpus(golden):
    argvs = all_invocations()
    assert len({key(a) for a in argvs}) == len(argvs)
    assert set(golden) == {key(a) for a in argvs}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_loci(Path(tmp))
        write_models(Path(tmp))
        table = {key(a): digest(a) for a in all_invocations()}
    print(json.dumps(table, indent=1, sort_keys=True))
