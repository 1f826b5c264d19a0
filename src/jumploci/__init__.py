"""Exact calculator for cohomological jump loci and abelian-cover towers."""

from .counting import (
    TorsionCount,
    coset_torsion_count,
    enumerate_torsion,
    union_torsion_count,
)
from .errors import (
    BadParams,
    CapExceeded,
    ComponentBudgetExceeded,
    DimensionMismatch,
    EngineError,
    MissingPluriData,
    MissingStratification,
    ModelFormatError,
    UnknownName,
)
from .model import (
    PluriData,
    RankFunction,
    Stratum,
    ValidationReport,
    VarietyModel,
    classify_weak_gv,
    constant_rank,
    defect,
    origin_jump,
    satisfies_weak_generic_nakano,
    validate_model,
)
from .modelfile import dumps_model, load_locus, load_model, model_from_dict, model_to_dict, save_model
from .torus import CongruenceCoset, NormalizedCoset, TorusPoint, invariant_factors, snf
from .tower import (
    CoverInvariants,
    chi_multiplicativity_check,
    cover_invariants,
    euler_char,
    normalized_sequence,
    pluri_bound_constant,
    pluri_limit,
    sheaf_rank_on_cover,
    symbolic_limit,
    value_on_cover,
)

# Names of the modules that only some commands run, imported on first use:
# name -> home module.  Nothing is stored here once resolved, so a name is
# always its home module's current attribute.
_LAZY = {
    **dict.fromkeys(("asymptotics", "BoundFit", "DivergenceReport", "L2Report", "betti_deviation_constant",
                     "betti_limit_deviation", "converse_defect_witness", "divergence_class", "fit_bounds",
                     "l2_betti", "l2_euler_characteristic"), "asymptotics"),
    **dict.fromkeys(("catalog", "CatalogEntry", "DEFAULT_INSTANCES", "builtin", "builtin_names"), "catalog"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = sorted({*_LAZY, *(name for name in dir() if not name.startswith("_"))})
__version__ = "0.1.0"
