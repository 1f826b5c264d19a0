"""Exact calculator for cohomological jump loci and abelian-cover towers."""

from .asymptotics import (
    BoundFit,
    DivergenceReport,
    L2Report,
    betti_deviation_constant,
    betti_limit_deviation,
    converse_defect_witness,
    divergence_class,
    fit_bounds,
    l2_betti,
    l2_euler_characteristic,
)
from .catalog import CatalogEntry, DEFAULT_INSTANCES, builtin, builtin_names
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
    LimitValue,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
