"""What `import multider` loads: the rank-2 side without numpy, the rest on demand."""

import subprocess
import sys

import multider

# Every name the package exported before its engine loaded lazily, by the
# module that defines it.
SURFACE = {
    "arrangement": (
        "Arrangement", "Flat", "Multiarrangement", "catalog", "catalog_filtration",
        "defining_polynomial", "delete", "dump_multiarrangement", "essentialize", "flat_of",
        "irreducible_component_count", "is_essential", "load_multiarrangement", "localize",
        "multiarrangement_from_dict", "multiarrangement_to_dict", "rank2_flats",
    ),
    "errors": (
        "ArrangementError", "FiltrationError", "HypothesisError", "InternalCheckError",
        "MembershipError", "MultiderError",
    ),
    "polyring": ("LinearForm", "Poly"),
    "rank2": (
        "ComponentClassification", "DeltaValue", "classify_component", "classify_universal_rank2",
        "delta", "is_balanced", "lattice_distance", "wakamiko_exponents",
    ),
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
SUBMODULES = ("arrangement", "cache", "errors", "graded", "linalg", "logder", "multirestrict",
              "polyring", "rank2", "sweep")


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter; its assertions fail the process."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_neither_numpy_nor_the_graded_engine():
    # the rank-2 lattice is pure Python, and clear_caches empties only the
    # modules that are loaded
    _fresh(
        "import sys, multider\n"
        "def unloaded():\n"
        "    return 'numpy' not in sys.modules and 'multider.graded' not in sys.modules\n"
        "assert unloaded()\n"
        "multider.clear_caches()\n"
        "assert unloaded()\n"
        "b2 = multider.catalog('B2', (3, 4, 2, 2))\n"
        "assert multider.delta(b2).pair == (5, 6)\n"
        "assert multider.classify_component(b2).peak == (3, 5, 2, 2)\n"
        "assert unloaded()\n"
    )


def test_the_public_surface_is_unchanged():
    names = {name for names in SURFACE.values() for name in names}
    assert set(multider.__all__) == names | set(SUBMODULES) | {"clear_caches"}
    assert len(multider.__all__) == len(set(multider.__all__))
    assert set(multider.__all__) <= set(dir(multider))


def test_star_import_binds_every_name_to_its_home_module_object():
    # in a fresh interpreter, so that every lazy name and submodule resolves
    # for the first time through the star import or the attribute access
    _fresh(
        "import sys\n"
        "from importlib import import_module\n"
        "from multider import *\n"
        "import multider\n"
        f"surface = {SURFACE!r}\n"
        "for home, names in surface.items():\n"
        "    module = import_module('multider.' + home)\n"
        "    for name in names:\n"
        "        assert globals()[name] is getattr(module, name), name\n"
        "        assert getattr(multider, name) is getattr(module, name), name\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert globals()[name] is sys.modules['multider.' + name], name\n"
        "assert clear_caches is multider.clear_caches\n"
    )
    _fresh(
        "import sys, multider\n"
        "for name in ('graded', 'logder', 'linalg', 'multirestrict', 'sweep'):\n"
        "    assert getattr(multider, name) is sys.modules['multider.' + name], name\n"
    )


def test_cli_loads_every_module_the_traced_benchmark_wraps():
    """`import multider.cli` loads the whole engine, eagerly.

    The traced benchmark run (`bench/spans.py`, `Tracer.install`) imports
    `multider.cli` and then looks these eight modules up in `sys.modules`
    to wrap their layer boundaries, so a lazier CLI would crash it.  A
    serial sweep still leaves `multiprocessing` unloaded: only the parallel
    branch of `run_sweep` imports it.
    """
    _fresh(
        "import sys\n"
        "import multider.cli\n"
        "for name in ('cli', 'logder', 'sweep', 'rank2', 'graded', 'linalg', 'polyring',\n"
        "             'arrangement'):\n"
        "    assert 'multider.' + name in sys.modules, name\n"
        "from multider.sweep import parse_ranges, run_sweep\n"
        "rows = run_sweep('A2', parse_ranges('a=1..2,b=1,c=1'), predicates=('free',), jobs=1)\n"
        "assert len(rows) == 2\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
