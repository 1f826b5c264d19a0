"""Command line front end.

Subcommands:

* ``count``        torsion counts of a jump locus over a list of d
* ``tower``        CSV of exact cover invariants and normalized values
* ``check``        decay-bound grid, converse witness, divergence, L² report
* ``validate``     run model validation and print the findings
* ``export``       write a catalog entry to a model file
* ``catalog-list`` list the built-in models

Exit codes: 0 pass, 1 analytic fail (``check`` only), 2 invalid input,
141 (128 + SIGPIPE) when standard output is closed before everything is
written, as by ``jumploci catalog-list | head -1``; nothing goes to
standard error then.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import asymptotics, catalog, counting, modelfile, tower
from .errors import EngineError, MissingPluriData, shown, shown_int
from .model import VarietyModel, validate_model

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_CLOSED_PIPE = 141


def _parse_params(text: Optional[str]) -> dict:
    params: dict = {}
    if not text:
        return params
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise EngineError(f"bad parameter {shown(item)!r}; expected name=value")
        key, value = item.split("=", 1)
        if key.strip() in params:
            raise EngineError(f"--params names {shown(key.strip())!r} more than once")
        try:
            with _int_text_of_any_size():
                params[key.strip()] = int(value)
        except ValueError:
            raise EngineError(f"parameter {shown(key)!r} must be an integer, got {shown(value)!r}") from None
    return params


def _check_sources(args) -> None:
    """Refuse, before anything is loaded, a flag that the chosen input would
    ignore: --locus takes no model flag, and --model no --builtin or --params."""
    given = [name for name in ("locus", "i", "model", "builtin", "params") if getattr(args, name, None) is not None]
    source = next((name for name in ("locus", "model") if name in given), None)
    ignored = [f"--{name}" for name in given if name != source and (source, name) != ("model", "i")]
    if source and ignored:
        raise EngineError(f"--{source} cannot be combined with {', '.join(ignored)}")


def _load_model(args) -> VarietyModel:
    if args.builtin:
        return catalog.builtin(args.builtin, **_parse_params(args.params)).model
    if args.model:
        return modelfile.load_model(args.model)
    raise EngineError("provide --model FILE or --builtin NAME")


def _validated_model(args) -> VarietyModel:
    model = _load_model(args)
    report = validate_model(model, budget=args.budget)
    if not report.ok:
        for finding in report.errors:
            print(f"error: {finding.message}")
        raise EngineError("the model does not validate")
    return model


def _add_model_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="path to a model file")
    parser.add_argument("--builtin", help="name of a catalog entry")
    parser.add_argument("--params", help="catalog parameters, e.g. g=4,c=3")


def _positive_ints(text: str, flag: str) -> list[int]:
    try:
        with _int_text_of_any_size():
            values = [int(t) for t in text.split(",") if t]
    except ValueError:
        values = []
    if not values or any(v < 1 for v in values):
        raise EngineError(f"{flag} needs a comma list of positive integers, got {shown(text)!r}")
    return values


@contextlib.contextmanager
def _int_text_of_any_size():
    """Lifts the interpreter's cap on the digits of an int turned into text
    (4300 by default, and no cap before Python 3.10.7), then restores it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def cmd_count(args) -> int:
    ds = _positive_ints(args.d, "--d")
    if args.locus:
        components = modelfile.load_locus(args.locus)
        label = args.locus
    else:
        if not args.i:
            raise EngineError("provide --i P,Q or --locus FILE")
        try:
            with _int_text_of_any_size():
                p, q = (int(t) for t in args.i.split(","))
        except ValueError:
            raise EngineError(f"--i needs two comma-separated integers P,Q, got {shown(args.i)!r}") from None
        model = _validated_model(args)
        if not (0 <= p <= model.n and 0 <= q <= model.n):
            raise EngineError(f"--i {shown(args.i)} lies outside the {model.n + 1}x{model.n + 1} grid "
                              f"of a model with n = {model.n}")
        rf = model.hodge[p][q]
        components = [c for c, v in rf.strata if v > rf.generic_value]
        label = f"jump locus of ({p},{q})"
    dims = [nc.dim for nc in (c.normalize() for c in components) if nc is not None]
    top = max(dims) if dims else 0
    # what could fail partway is checked first, so the table streams and a
    # failure leaves no partial table
    counting.check_budget(len(dims), args.budget)
    print(f"# {label}: {len(components)} components, top dimension {top}")
    print(f"{'d':>6} {'torsion':>14} {'d^dim':>14}")
    # counts are exact, so a huge d prints every digit
    with _int_text_of_any_size():
        for d in ds:
            value = counting.union_torsion_count(components, d, budget=args.budget)
            print(f"{d:>6} {value:>14} {d ** top:>14}")
    return EXIT_OK


def _tower_rows(model: VarietyModel, d_max: int, ms: list[int], budget: int):
    n = model.n
    header = ["schema", "d", "deg"]
    header += [f"h_{p}_{q}" for p in range(n + 1) for q in range(n + 1)]
    header += [f"b_{k}" for k in range(2 * n + 1)]
    header += ["q"]
    header += [f"P_{m}" for m in ms]
    header += [f"nh_{p}_{q}" for p in range(n + 1) for q in range(n + 1)]
    header += [f"nh_{p}_{q}_approx" for p in range(n + 1) for q in range(n + 1)]
    header += [f"nb_{k}" for k in range(2 * n + 1)]
    header += [f"nb_{k}_approx" for k in range(2 * n + 1)]
    yield header
    for d in range(1, d_max + 1):
        inv = tower.cover_invariants(model, d, ms, budget=budget)
        flat = [inv.hodge[p][q] for p in range(n + 1) for q in range(n + 1)]
        row = [modelfile.SCHEMA_VERSION, d, inv.deg]
        row += flat
        row += list(inv.betti)
        row += [inv.q]
        row += [inv.pluri[m] for m in ms]
        deg = inv.deg
        for values in (flat, inv.betti):  # v/deg in lowest terms, then as float text
            for v in values:
                g = math.gcd(v, deg)
                row.append(f"{v // g}" if g == deg else f"{v // g}/{deg // g}")
            row += [f"{v / deg:.12g}" for v in values]
        yield row


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise EngineError(f"cannot write {path}: {exc}") from None


def cmd_tower(args) -> int:
    if args.d_max < 1:
        raise EngineError(f"--d-max must be a positive integer, got {args.d_max}")
    model = _validated_model(args)
    ms = [] if args.pluri is None else _positive_ints(args.pluri, "--pluri")
    seen: set[int] = set()
    for m in ms:
        if m in seen:  # a CSV header with two P_m columns loses one to readers keyed on it
            raise EngineError(f"--pluri lists {shown_int(m)} more than once")
        seen.add(m)
    for m in ms:
        try:
            tower.summands(model, ("pluri", m))
        except MissingPluriData as exc:
            raise EngineError(f"--pluri {shown_int(m)}: {exc}") from None
    # every row is computed before anything is written, so a failure leaves no output
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(_tower_rows(model, args.d_max, ms, args.budget))
    if args.out:
        _write_file(args.out, buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
    return EXIT_OK


def cmd_check(args) -> int:
    if args.d_max < 2:
        raise EngineError(f"--d-max must be at least 2, got {args.d_max}")
    model = _validated_model(args)
    n = model.n
    if not 0 <= args.defect_bound <= n:
        raise EngineError(f"--defect-bound {args.defect_bound} lies outside [0, {n}], "
                          f"the range of the defect of a model with n = {n}")
    fits = asymptotics.fit_bounds(model, args.defect_bound, args.d_max, budget=args.budget)
    witness = next(((f.p, f.q) for f in fits if not f.passes), None)  # the converse: first failing fit
    divergence = asymptotics.divergence_class(model)
    l2 = asymptotics.l2_betti(model)
    all_pass = all(f.passes for f in fits)

    print(f"# decay bounds at defect bound N = {args.defect_bound}, d <= {args.d_max}")
    print(f"{'p':>3} {'q':>3} {'exponent':>9} {'fitted_B':>14} verdict")
    for f in fits:
        verdict = "pass" if f.passes else f"FAIL (dim {f.violating_dim})"
        print(f"{f.p:>3} {f.q:>3} {f.exponent:>9} {str(f.fitted_b):>14} {verdict}")
    if witness is None:
        print("# no witness pair: the declared defect bound is consistent")
    else:
        print(f"# witness pair violating the bound: {witness}")
    if divergence.divergent:
        print(f"# cover irregularity diverges: stratum of real dimension {divergence.max_stratum_dim}, "
              f"witness order {divergence.witness_order}")
    else:  # the supremum of q(X_d): its count at every d that all jump orders divide
        bound = model.hodge[0][1].count_form(args.budget).polynomial.get(0, 0) if n else 0
        print(f"# cover irregularity bounded at {bound}")
    caveat = "" if l2.weak_gnv else " (weak generic Nakano vanishing fails; closed form not certified)"
    print(f"# L2 Betti numbers{caveat}: {[str(b) for b in l2.betti]}")
    print(f"# nonvanishing middle L2 Hodge rows: {sorted(l2.nonvanishing)}")

    machine = {
        "schema_version": modelfile.SCHEMA_VERSION,
        "model": model.name,
        "defect_bound": args.defect_bound,
        "d_max": args.d_max,
        "fit": [
            {"p": f.p, "q": f.q, "exponent": f.exponent,
             "fitted_b": str(f.fitted_b), "passes": f.passes,
             "violating_dim": f.violating_dim}
            for f in fits
        ],
        "witness": list(witness) if witness else None,
        "divergence": {
            "divergent": divergence.divergent,
            "max_stratum_dim": divergence.max_stratum_dim,
            "witness_order": divergence.witness_order,
            "base_irregularity": divergence.base_irregularity,
        },
        "l2": {
            "betti": [str(b) for b in l2.betti],
            "weak_gnv": l2.weak_gnv,
            "nonvanishing": sorted(l2.nonvanishing),
        },
        "all_pass": all_pass,
    }
    print("-- machine readable --")
    print(json.dumps(machine, indent=2, sort_keys=True))
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_validate(args) -> int:
    model = _load_model(args)
    report = validate_model(model, budget=args.budget)
    for finding in report.findings:
        print(f"{finding.severity}: {finding.message}")
    for p in sorted(report.weak_gv_table):
        proper = sorted(report.weak_gv_table[p])
        print(f"proper loci for p={p}: q in {proper}")
    if not report.ok:
        print("model rejected")
        return EXIT_INVALID
    print("model accepted")
    return EXIT_OK


def cmd_export(args) -> int:
    model = _load_model(args)
    if args.out:
        _write_file(args.out, modelfile.dumps_model(model))
    else:
        sys.stdout.write(modelfile.dumps_model(model))
    return EXIT_OK


def cmd_catalog_list(args) -> int:
    for name, params in catalog.DEFAULT_INSTANCES:
        entry = catalog.builtin(name, **params)
        args_text = ",".join(f"{k}={v}" for k, v in params.items())
        print(f"{name}({args_text})")
        print(f"    {entry.oracle_notes.splitlines()[0]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="Exact invariants of abelian-cover towers from jump-locus models.")
    parser.add_argument("--budget", type=int, default=counting.DEFAULT_COMPONENT_BUDGET,
                        help="cap on the nonempty strata one count pass takes in: each grid entry's "
                             "strata above its limit (tower, check), its jump locus above the generic value, "
                             "a stratum filling the torus included (count --i), a locus file's components "
                             "(count --locus), each Serre level set (validate)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="torsion counts of a jump locus")
    _add_model_source(p_count)
    p_count.add_argument("--i", help="grid entry P,Q whose jump locus to count")
    p_count.add_argument("--locus", help="standalone locus file")
    p_count.add_argument("--d", required=True, help="comma list of cover indices")

    p_tower = sub.add_parser("tower", help="CSV of exact cover invariants")
    _add_model_source(p_tower)
    p_tower.add_argument("--d-max", type=int, default=4, dest="d_max")
    p_tower.add_argument("--pluri", help="comma list of plurigenus exponents to include")
    p_tower.add_argument("--out", help="CSV output path (default: stdout)")

    p_check = sub.add_parser("check", help="decay bounds, divergence, L2 report")
    _add_model_source(p_check)
    p_check.add_argument("--defect-bound", type=int, default=0, dest="defect_bound")
    p_check.add_argument("--d-max", type=int, default=4, dest="d_max")

    p_val = sub.add_parser("validate", help="validate a model and print findings")
    _add_model_source(p_val)

    p_exp = sub.add_parser("export", help="write a model to a model file")
    _add_model_source(p_exp)
    p_exp.add_argument("--out", help="output path (default: stdout)")

    p_list = sub.add_parser("catalog-list", help="list built-in models")
    return parser


_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.budget < 1:
            raise EngineError(f"--budget must be a positive integer, got {args.budget}")
        _check_sources(args)
        # looked up by name on each call, so a wrapper installed on the module is called
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except (EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to the null device,
        # so the flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
