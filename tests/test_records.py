"""Which types are dataclasses and which are plain records.

A type is a frozen dataclass only when it needs what only a dataclass
gives: a ``__post_init__`` check, a ``cached_property``, or copies made
with ``dataclasses.replace``.  Every other record is a ``typing.NamedTuple``,
which is several times cheaper to define at import and keeps the field
names, the field-wise equality and hash, the repr and the immutability.
Unlike the dataclass, it also equals a plain tuple of the same values and
can be unpacked and indexed; callers read records by attribute.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from jumploci import builtin, coset_torsion_count, divergence_class, fit_bounds, l2_betti, validate_model
from jumploci.torus import CongruenceCoset, TorusPoint

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jumploci"

DATACLASSES = {
    "torus.TorusPoint", "torus.CongruenceCoset",                            # __post_init__
    "model.RankFunction", "model.PluriData", "counting.CountForm",          # __post_init__ or cached_property
    "model.VarietyModel", "tower.CoverInvariants",                          # copied with dataclasses.replace
}

# qualified name -> (fields in order, defaults)
RECORDS = {
    "asymptotics.BoundFit": (("p", "q", "defect_bound", "exponent", "fitted_b", "passes", "violating_dim"),
                             {"violating_dim": None}),
    "asymptotics.DivergenceReport": (("divergent", "max_stratum_dim", "witness_order", "base_irregularity"), {}),
    "asymptotics.L2Report": (("betti", "hodge", "nonvanishing", "weak_gnv"), {}),
    "catalog.CatalogEntry": (("name", "parameters", "model", "oracle_notes"), {}),
    "counting.TorsionCount": (("d", "value"), {}),
    "counting.CountTable": (("constants", "classes"), {}),
    "model.ValidationReport": (("findings", "weak_gv_table"), {}),
}


def _modules():
    return {path.stem: importlib.import_module(f"jumploci.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _defined_classes():
    return {f"{name}.{cls.__name__}": cls for name, module in _modules().items()
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__}


def _samples():
    """One record of each kind, as the engine builds it."""
    entry = builtin("blowup_abelian4_curve", genus=2)
    model = entry.model
    return {
        "asymptotics.BoundFit": fit_bounds(model, 0, 4)[-1],
        "asymptotics.DivergenceReport": divergence_class(model),
        "asymptotics.L2Report": l2_betti(model),
        "catalog.CatalogEntry": entry,
        "counting.TorsionCount": coset_torsion_count(CongruenceCoset.point(TorusPoint.zero(2)), 3),
        "counting.CountTable": model.hodge_table(12),
        "model.ValidationReport": validate_model(model),
    }


def test_the_dataclasses_are_exactly_those_that_need_one():
    classes = _defined_classes()
    assert {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)} == DATACLASSES


def test_only_modules_with_a_dataclass_import_dataclasses():
    importing = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"):
                importing.add(path.stem)
    assert importing == {name.split(".")[0] for name in DATACLASSES}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_and_defaults(name):
    cls = _defined_classes()[name]
    fields, defaults = RECORDS[name]
    assert (cls._fields, cls._field_defaults) == (fields, defaults)


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_hash_and_print_by_fields(name):
    record = _samples()[name]
    fields = RECORDS[name][0]
    values = [getattr(record, f) for f in fields]
    cls = type(record)
    copy = cls(**dict(zip(fields, values)))
    assert copy == record and copy is not record
    assert cls(*values[:-1], "changed") != record
    try:
        expected = hash(tuple(values))
    except TypeError:  # a dict field, as a frozen dataclass would refuse it too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(copy) == expected
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, values[0])
