"""Model file format: versioned UTF-8 JSON with exact rationals.

Rationals are serialized as "num/den" strings (plain integers allowed on
input) so that nothing is lost to floating point; on input a rational is a
JSON integer or an ASCII "num" or "num/den" string, "num" optionally
signed "-", and nothing else.  Rank-grid entries that are identically zero
are omitted on export and filled back in on import, making export/import a
round trip up to equality of models.

Export states each distinct coset once, in a top-level ``cosets`` list in
first-appearance order (grid row-major, then sheaf slots by name), and a
stratum names its coset by index: ``{"coset": i, "value": v}``.  A stratum
may instead state its coset inline, ``{"A": ..., "b": ..., "value": v}``,
as hand-written files and earlier exports do; a file may mix both forms.
Within one load, strata with the same coset (the origin point repeats in
most grid entries), named by index or written out alike, share one
:class:`CongruenceCoset`, so its rationals are parsed, and the coset built
and normalized, once.  Entries with the same generic value over those
shared cosets (Serre duality and Hodge symmetry repeat most of a grid) then
become one :class:`RankFunction` when the :class:`VarietyModel` is built.
The dictionary that finds the repeats lives for that load only; nothing is
kept between loads.

A file states only what a model cannot derive, so export writes no
``flags`` (semismall means defect 0) and no pluri ``generic_values`` (0 off
the locus, which fills the torus exactly when q_base = g).  Files with
either key still load: ``flags`` is ignored, and a ``generic_values`` entry
that contradicts the derived value is refused, never read another way.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from typing import Any

from .errors import ModelFormatError, shown, shown_int
from .model import PluriData, RankFunction, Stratum, VarietyModel
from .torus import CongruenceCoset, TorusPoint

SCHEMA_VERSION = 1

# Largest dimension n and irregularity g a model file or a catalog
# parameter may declare, checked before the (n+1)x(n+1) rank grid is
# allocated; a locus file's torus obeys the same cap, 2·MAX_G.  Both sit
# far above the default catalog instances (n, g <= 4).
MAX_N = 64
MAX_G = 64


def _quoted(x: Any) -> str:
    """A value from the file as a message quotes it: its repr, capped."""
    return shown_int(x) if type(x) is int else shown(repr(x))


# what export writes; Fraction would also read exponent notation, whose
# digits escape the interpreter's digit cap ("1e100000000")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _fraction_from_str(s: Any) -> Fraction:
    """A rational from its JSON form; a string's checking match also parses it."""
    if isinstance(s, bool) or isinstance(s, float):
        raise ModelFormatError(f"rationals must be strings or integers, got {_quoted(s)}")
    try:
        if not isinstance(s, str):
            return Fraction(s)
        match = _RATIONAL.fullmatch(s)
        if not match:
            raise ValueError
        num, den = match.groups()  # int() refuses digits past the interpreter's cap
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except (ValueError, TypeError, ZeroDivisionError):
        raise ModelFormatError(f"bad rational {_quoted(s)}") from None


def _integer(x: Any, what: str) -> int:
    """A JSON integer; floats, booleans and strings are refused, never coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ModelFormatError(f"{what} must be an integer, got {_quoted(x)}")
    return x


def _natural(x: Any, what: str) -> int:
    """A nonnegative JSON integer."""
    value = _integer(x, what)
    if value < 0:
        raise ModelFormatError(f"{what} must be nonnegative, got {_quoted(value)}")
    return value


def _object(x: Any, what: str) -> dict:
    if not isinstance(x, dict):
        raise ModelFormatError(f"{what} must be a JSON object, got {_quoted(x)}")
    return x


def _list(x: Any, what: str) -> list:
    if not isinstance(x, list):
        raise ModelFormatError(f"{what} must be a list, got {_quoted(x)}")
    return x


def _coset_to_dict(coset: CongruenceCoset) -> dict:
    return {
        "A": [list(row) for row in coset.rows],
        "b": [str(b) for b in coset.rhs],
    }


_INT = {int}
_INT_OR_STR = {int, str}


def _coset_from_dict(obj: Any, ambient_dim: int, built: dict) -> CongruenceCoset:
    """The coset of ``obj``; one written the same way earlier in the load
    returns the coset already in ``built``, a table that lives for one load.
    Only entries of the JSON types a coset allows (int in 'A'; str or int in
    'b') are keyed, so true or 1.0, which equal 1 as keys, are never matched
    to an earlier coset: they take the checks below and are refused."""
    if not isinstance(obj, dict) or "A" not in obj or "b" not in obj:
        raise ModelFormatError("a coset needs 'A' (integer rows) and 'b' (rationals)")
    rows = obj["A"]
    rhs = obj["b"]
    if not isinstance(rows, list) or not isinstance(rhs, list):
        raise ModelFormatError("'A' must be a list of rows and 'b' a list of rationals")
    if not all(map(isinstance, rows, repeat(list))):
        raise ModelFormatError("each row of 'A' must be a list of integers")
    key = None
    if set(map(type, rhs)) <= _INT_OR_STR and set(map(type, chain.from_iterable(rows))) <= _INT:
        key = (tuple(map(tuple, rows)), tuple(rhs))
        if key in built:
            return built[key]
    try:
        # a keyed matrix holds exact ints only, so its rows go on as they are
        matrix = key[0] if key is not None else [[_integer(a, "an entry of 'A'") for a in row] for row in rows]
        coset = CongruenceCoset(ambient_dim, matrix, [_fraction_from_str(b) for b in rhs])
    except Exception as exc:
        raise ModelFormatError(f"bad coset: {exc}") from None
    if key is not None:
        built[key] = coset
    return coset


def _rank_to_dict(rf: RankFunction, cosets: dict, seen: dict) -> dict:
    """The entry of ``rf``, its strata naming cosets by their index in
    ``cosets``, which takes in each coset not seen before.  ``seen`` maps
    each coset object's id to its index, so an object is hashed once."""
    for c, _ in rf.strata:
        if id(c) not in seen:
            seen[id(c)] = cosets.setdefault(c, len(cosets))
    return {"generic": rf.generic_value, "strata": [{"coset": seen[id(c)], "value": v} for c, v in rf.strata]}


def _coset_at(index: Any, table: list | None) -> CongruenceCoset:
    """The coset a stratum names by its index in the file's 'cosets' list."""
    if table is None:
        raise ModelFormatError(f"a stratum names coset {_quoted(index)}, but the file has no 'cosets' list")
    if type(index) is not int or not 0 <= index < len(table):
        raise ModelFormatError(f"a stratum's 'coset' must be an index below {len(table)}, "
                               f"the length of 'cosets', got {_quoted(index)}")
    return table[index]


def _rank_from_dict(obj: Any, ambient_dim: int, built: dict, table: list | None) -> RankFunction:
    obj = _object(obj, "a rank function")
    generic = _integer(obj.get("generic", 0), "'generic'")
    strata = []
    for s in _list(obj.get("strata", []), "'strata'"):
        if "value" not in _object(s, "a stratum"):
            raise ModelFormatError("a stratum needs a 'value'")
        value = _integer(s["value"], "a stratum 'value'")
        if "coset" not in s:
            coset = _coset_from_dict(s, ambient_dim, built)
        elif "A" in s or "b" in s:
            raise ModelFormatError("a stratum names its coset either by 'coset' or by 'A' and 'b', not both")
        else:
            coset = _coset_at(s["coset"], table)
        strata.append(Stratum(coset, value))
    return RankFunction(ambient_dim, generic, tuple(strata))


def _point_from_list(obj: Any, ambient_dim: int) -> TorusPoint:
    if not isinstance(obj, list) or len(obj) != ambient_dim:
        raise ModelFormatError(f"a torus point must be a list of {ambient_dim} rationals")
    return TorusPoint.of([_fraction_from_str(c) for c in obj])


def model_to_dict(model: VarietyModel) -> dict:
    cosets: dict = {}  # each distinct coset, by value, to its index in first-appearance order
    seen: dict = {}  # each coset object, by id, to the same index
    hodge = []
    for p in range(model.n + 1):
        for q in range(model.n + 1):
            rf = model.hodge[p][q]
            if rf.generic_value == 0 and not rf.strata:
                continue
            hodge.append(dict({"p": p, "q": q}, **_rank_to_dict(rf, cosets, seen)))
    out: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": model.name,
        "n": model.n,
        "g": model.g,
        "hodge": hodge,
        "defect_strata": [list(s) for s in model.defect_strata],
    }
    if model.pluri is not None:
        out["pluri"] = {
            "q_base": model.pluri.q_base,
            "translates": [[str(c) for c in t.coords] for t in model.pluri.translates],
            "values": {str(m): v for m, v in sorted(model.pluri.values.items())},
        }
    if model.sheaves:
        out["sheaves"] = {
            name: [_rank_to_dict(rf, cosets, seen) for rf in rfs]
            for name, rfs in sorted(model.sheaves.items())
        }
    out["cosets"] = [_coset_to_dict(c) for c in cosets]
    return out


def _power_table(obj: Any, what: str) -> dict[int, int]:
    """A pluri table: JSON object keys are the exponents m written in plain
    decimal, as export writes them ("2", never "02" or " +2")."""
    table = {}
    for m, v in _object(obj, what).items():
        try:
            key = int(m)
        except ValueError:
            key = None
        if key is None or m != str(key):
            raise ModelFormatError(f"{what} keys must be integers in plain decimal, got {_quoted(m)}")
        table[key] = _integer(v, f"an entry of {what}")
    return table


def model_from_dict(obj: Any) -> VarietyModel:
    if not isinstance(obj, dict):
        raise ModelFormatError("a model file must contain a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported schema_version {_quoted(version)}; this build reads {SCHEMA_VERSION}")
    if "n" not in obj or "g" not in obj:
        raise ModelFormatError("'n' and 'g' must be present integers")
    n = _natural(obj["n"], "'n'")
    g = _natural(obj["g"], "'g'")
    if n > MAX_N:
        raise ModelFormatError(f"'n' = {_quoted(n)} exceeds the largest supported dimension {MAX_N}")
    if g > MAX_G:
        raise ModelFormatError(f"'g' = {_quoted(g)} exceeds the largest supported irregularity {MAX_G}")
    torus = 2 * g
    built: dict = {}  # the cosets of this load, by their JSON content
    table = None  # the file's 'cosets' list, parsed, when it has one
    if "cosets" in obj:
        table = [_coset_from_dict(c, torus, built) for c in _list(obj["cosets"], "'cosets'")]

    zero = RankFunction(torus, 0, ())  # every entry the file omits
    grid = [[zero] * (n + 1) for _ in range(n + 1)]
    for entry in _list(obj.get("hodge", []), "'hodge'"):
        if "p" not in _object(entry, "a hodge entry") or "q" not in entry:
            raise ModelFormatError("every hodge entry needs integer 'p' and 'q'")
        p, q = _integer(entry["p"], "'p'"), _integer(entry["q"], "'q'")
        if not (0 <= p <= n and 0 <= q <= n):
            raise ModelFormatError(f"hodge entry ({_quoted(p)},{_quoted(q)}) outside the (n+1)x(n+1) grid")
        if grid[p][q] is not zero:
            raise ModelFormatError(f"hodge entry ({p},{q}) appears more than once")
        grid[p][q] = _rank_from_dict(entry, torus, built, table)

    strata = []
    for pair in _list(obj.get("defect_strata", []), "'defect_strata'"):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ModelFormatError("'defect_strata' entries are [l, dim] pairs")
        strata.append((_integer(pair[0], "a defect 'l'"), _integer(pair[1], "a defect 'dim'")))

    pluri, declared = None, {}
    if obj.get("pluri") is not None:
        pd = _object(obj["pluri"], "'pluri'")
        if "q_base" not in pd or "translates" not in pd:
            raise ModelFormatError("bad pluri block: it needs 'q_base' and 'translates'")
        pluri = PluriData(
            q_base=_integer(pd["q_base"], "'q_base'"),
            translates=tuple(_point_from_list(t, torus) for t in _list(pd["translates"], "'translates'")),
            values=_power_table(pd.get("values", {}), "'values'"),
        )
        declared = _power_table(pd.get("generic_values", {}), "'generic_values'")

    sheaves = {}
    for name, rfs in _object(obj.get("sheaves", {}), "'sheaves'").items():
        if not isinstance(rfs, list):
            raise ModelFormatError(f"sheaf slot {_quoted(name)} must be a list of rank functions")
        sheaves[name] = tuple(_rank_from_dict(rf, torus, built, table) for rf in rfs)

    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ModelFormatError(f"'name' must be a string, got {_quoted(name)}")
    model = VarietyModel(
        n=n,
        g=g,
        hodge=tuple(tuple(row) for row in grid),
        defect_strata=tuple(strata),
        pluri=pluri,
        sheaves=sheaves,
        name=name,
    )
    if declared and 0 <= pluri.q_base <= g:  # an older file's generic values must be the derived ones
        for m, value in declared.items():
            if m in pluri.values and value != pluri.values[m] * model.pluri_locus.limit:
                raise ModelFormatError(
                    f"'generic_values' gives {_quoted(value)} for m = {_quoted(m)}, but the model derives "
                    f"{_quoted(pluri.values[m] * model.pluri_locus.limit)}: the locus value when q_base = g, else 0")
    return model


def dumps_model(model: VarietyModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"


def save_model(model: VarietyModel, path: str | Path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


def _load_json(path: str | Path) -> Any:
    """The JSON value of a file; every failure names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:  # an integer past the interpreter's digit cap, which json.loads refuses
        raise ModelFormatError(f"{path} holds an integer with too many digits to read") from None


def load_model(path: str | Path) -> VarietyModel:
    return model_from_dict(_load_json(path))


def load_locus(path: str | Path) -> list[CongruenceCoset]:
    """Read a standalone locus file: an ambient dimension plus components."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or not {"ambient_dim", "components"} <= obj.keys():
        raise ModelFormatError("a locus file needs 'ambient_dim' and 'components'")
    ambient = _natural(obj["ambient_dim"], "'ambient_dim'")
    if ambient > 2 * MAX_G:
        raise ModelFormatError(f"'ambient_dim' = {_quoted(ambient)} exceeds the largest supported "
                               f"torus dimension {2 * MAX_G}")
    built: dict = {}
    return [_coset_from_dict(c, ambient, built) for c in _list(obj["components"], "'components'")]
