"""Exact logarithmic derivation modules of hyperplane multiarrangements.

Everything is rational arithmetic: freeness and exponents through Saito's
criterion, graded pieces of D(A, m), universal derivations, the rank-2
exponent-gap lattice, Euler restrictions with their boundary polynomials, and
supersolvable exponent formulas.  Randomized shortcuts are seeded and always
backed by an exact certificate.

`import multider` loads only modules that need no numpy: `arrangement`, the
integer elimination of `exact`, and the rank-2 lattice of `rank2`.  The
names of `graded`, `logder`, `multirestrict` and `sweep`, and those modules
themselves, load on first access, and with them numpy.
"""

import sys as _sys
from importlib import import_module as _import_module

from . import arrangement, cache, errors, exact, polyring, rank2
from .arrangement import (
    Arrangement,
    Flat,
    Multiarrangement,
    catalog,
    catalog_filtration,
    defining_polynomial,
    delete,
    dump_multiarrangement,
    essentialize,
    flat_of,
    irreducible_component_count,
    is_essential,
    load_multiarrangement,
    localize,
    multiarrangement_from_dict,
    multiarrangement_to_dict,
    rank2_flats,
)
from .errors import (
    ArrangementError,
    FiltrationError,
    HypothesisError,
    InternalCheckError,
    MembershipError,
    MultiderError,
)
from .polyring import LinearForm, Poly
from .rank2 import (
    ComponentClassification,
    DeltaValue,
    classify_component,
    classify_universal_rank2,
    delta,
    is_balanced,
    lattice_distance,
    wakamiko_exponents,
)

# Every other export, by home module, resolved on first access (PEP 562):
# these modules load numpy and the graded engine.
_LAZY_HOMES = {
    "graded": ("graded_basis_vectors", "graded_dimension", "hilbert_dims", "solve_routes"),
    "logder": (
        "DEFAULT_SEED", "Derivation", "FreenessCertificate", "GradedPiece", "covariant_derivative",
        "derivation_from_dict", "derivation_from_vector", "derivation_to_dict", "euler_derivation",
        "exponents", "find_free_basis", "find_universal", "graded_piece", "is_k_critical",
        "is_universal", "membership", "saito_check", "saito_determinant",
    ),
    "multirestrict": (
        "BPolynomialData", "EulerRestriction", "Filtration", "ObstructionReport", "b_polynomial",
        "check_supersolvable", "euler_multiplicity", "filtration_from_dict", "filtration_to_dict",
        "load_filtration", "noncritical_criterion", "special_rank2_basis",
        "supersolvable_exponents", "universal_obstruction_report",
    ),
    "sweep": ("index_symmetries", "run_sweep"),
}
_LAZY = {name: home for home, names in _LAZY_HOMES.items() for name in names}
_SUBMODULES = ("graded", "linalg", "logder", "multirestrict", "sweep")

__all__ = [
    "arrangement", "cache", "errors", "polyring", "rank2", *_SUBMODULES,
    "Arrangement", "Flat", "Multiarrangement", "catalog", "catalog_filtration",
    "defining_polynomial", "delete", "dump_multiarrangement", "essentialize", "flat_of",
    "irreducible_component_count", "is_essential", "load_multiarrangement", "localize",
    "multiarrangement_from_dict", "multiarrangement_to_dict", "rank2_flats",
    "ArrangementError", "FiltrationError", "HypothesisError", "InternalCheckError",
    "MembershipError", "MultiderError",
    "LinearForm", "Poly",
    *rank2.__all__,
    *_LAZY,
    "clear_caches",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def clear_caches() -> None:
    """Empty the store of templates, graded and order bases (`cache.store`) and
    every functools cache, and reset `solve_routes`.  An engine module not
    loaded yet has nothing cached, so it is left unloaded."""
    cache.store.clear()
    graded = _sys.modules.get(f"{__name__}.graded")
    if graded is not None:
        graded._coordinate_columns.cache_clear()
        graded._routes.clear()
    arrangement._sub.cache_clear()
    polyring.monomial_exponents.cache_clear()
    polyring.monomial_index.cache_clear()
