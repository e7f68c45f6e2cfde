"""Exact logarithmic derivation modules of hyperplane multiarrangements.

Everything is rational arithmetic: freeness and exponents through Saito's
criterion, graded pieces of D(A, m), universal derivations, the rank-2
exponent-gap lattice, Euler restrictions with their boundary polynomials, and
supersolvable exponent formulas.  Randomized shortcuts are seeded and always
backed by an exact certificate.
"""

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
from . import arrangement, cache, graded, polyring
from .graded import graded_basis_vectors, graded_dimension, hilbert_dims, solve_routes
from .logder import (
    DEFAULT_SEED,
    Derivation,
    FreenessCertificate,
    GradedPiece,
    covariant_derivative,
    derivation_from_dict,
    derivation_from_vector,
    derivation_to_dict,
    euler_derivation,
    exponents,
    find_free_basis,
    find_universal,
    graded_piece,
    is_k_critical,
    is_universal,
    membership,
    saito_check,
    saito_determinant,
)
from .multirestrict import (
    BPolynomialData,
    EulerRestriction,
    Filtration,
    ObstructionReport,
    b_polynomial,
    check_supersolvable,
    euler_multiplicity,
    filtration_from_dict,
    filtration_to_dict,
    load_filtration,
    noncritical_criterion,
    special_rank2_basis,
    supersolvable_exponents,
    universal_obstruction_report,
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
from .sweep import index_symmetries, run_sweep

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the store of templates, graded and order bases (`cache.store`) and
    every functools cache, and reset `solve_routes`."""
    cache.store.clear()
    graded._coordinate_columns.cache_clear()
    graded._routes.clear()
    arrangement._sub.cache_clear()
    polyring.monomial_exponents.cache_clear()
    polyring.monomial_index.cache_clear()
