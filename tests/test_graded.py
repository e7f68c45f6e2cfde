"""Graded dimensions and bases against the from-scratch oracle in conftest."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multider import (
    Arrangement,
    ArrangementError,
    catalog,
    clear_caches,
    delete,
    derivation_from_vector,
    euler_multiplicity,
    graded_basis_vectors,
    graded_dimension,
    graded_piece,
    hilbert_dims,
    membership,
    solve_routes,
)
from multider.arrangement import _sub
from multider.graded import (
    _ENGINE_CACHE_LIMIT,
    _OBJECT_ENTRY_BYTES,
    _divisible_rows,
    _engine,
    _template,
    _template_bytes,
)
from multider.linalg import _INT64_SAFE
from multider.polyring import LinearForm, Poly, monomial_exponents, monomial_index

from conftest import oracle_graded_dimension

CASES = [
    ("A2", (1, 1, 1), 4),
    ("A2", (3, 2, 2), 5),
    ("A2", (1, 1, 5), 6),
    ("B2", (3, 5, 2, 2), 6),
    ("B2", (2, 4, 1, 1), 5),
    ("maehara4", (2, 1, 1, 2), 5),
    ("A3", (1, 1, 1, 1, 1, 1), 4),
    ("A3", (2, 1, 2, 1, 2, 1), 4),
    ("deletedA3", (2, 2, 3, 2, 2), 4),
    ("X3", (2, 2, 2, 1, 1, 1), 4),
    ("B3", (1, 1, 1, 1, 1, 1, 1, 1, 1), 3),
]


@pytest.mark.parametrize("name,mult,kmax", CASES)
def test_dimensions_match_oracle(name, mult, kmax):
    ma = catalog(name, mult)
    dims = hilbert_dims(ma, kmax)
    assert len(dims) == kmax + 1
    for k in range(kmax + 1):
        assert dims[k] == oracle_graded_dimension(ma, k)
        assert dims[k] == graded_dimension(ma, k)


@given(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.integers(0, 5),
)
@settings(max_examples=25, deadline=None)
def test_random_a2_dimensions_match_oracle(mult, k):
    ma = catalog("A2", mult)
    assert graded_dimension(ma, k) == oracle_graded_dimension(ma, k)


def test_zero_multiplicity_gives_all_derivations():
    ma = catalog("A3", (0, 0, 0, 0, 0, 0))
    for k in range(4):
        assert graded_dimension(ma, k) == 3 * math.comb(k + 2, 2)


def test_negative_degree_and_degree_zero():
    ma = catalog("A2", (1, 1, 1))
    assert graded_piece(ma, -1).basis == ()
    assert graded_dimension(ma, 0) == 0
    assert graded_dimension(catalog("A2", (0, 0, 0)), 0) == 2


def test_basis_vectors_are_genuine_members():
    ma = catalog("B2", (3, 5, 2, 2))
    for k in range(4, 7):
        vectors = graded_basis_vectors(ma, k)
        assert len(vectors) == graded_dimension(ma, k)
        for vec in vectors:
            theta = derivation_from_vector(ma.nvars, k, vec)
            assert membership(theta, ma)
            assert theta.homogeneous_degree() == k or not theta


def test_basis_is_linearly_independent():
    from conftest import fraction_rank

    ma = catalog("A3", (1, 1, 1, 1, 1, 1))
    vectors = graded_basis_vectors(ma, 3)
    from fractions import Fraction

    rows = [[Fraction(v) for v in vec] for vec in vectors]
    assert fraction_rank(rows) == len(vectors)


def test_graded_piece_element_combination():
    ma = catalog("A2", (1, 1, 1))
    piece = graded_piece(ma, 2)
    assert piece.dimension() == len(piece.basis) == len(piece)
    combo = piece.element([1] * piece.dimension())
    assert membership(combo, ma)
    with pytest.raises(ValueError):
        piece.element([1])


def test_dimension_monotone_in_multiplicity():
    # raising one multiplicity can only cut the module down
    base = catalog("B2", (1, 2, 1, 1))
    bumped = base.plus_delta(1)
    for k in range(6):
        assert graded_dimension(bumped, k) <= graded_dimension(base, k)


def test_results_survive_cache_clearing():
    ma = catalog("deletedA3", (1, 1, 2, 1, 1))
    before = hilbert_dims(ma, 4)
    vectors_before = graded_basis_vectors(ma, 3)
    clear_caches()
    assert hilbert_dims(ma, 4) == before
    assert graded_basis_vectors(ma, 3) == vectors_before


def test_clear_caches_empties_the_monomial_tables():
    graded_basis_vectors(catalog("A3", (1, 1, 1, 1, 1, 1)), 3)
    monomial_index(3, 2)
    assert monomial_exponents.cache_info().currsize and monomial_index.cache_info().currsize
    clear_caches()
    assert monomial_exponents.cache_info().currsize == 0
    assert monomial_index.cache_info().currsize == 0


def test_clear_caches_empties_the_shared_sub_arrangements():
    ma = catalog("A3", (2, 1, 1, 1, 1, 1))
    euler_multiplicity(ma, 0)
    delete(ma.with_mult((1, 1, 1, 1, 1, 1)), 0)
    assert _sub.cache_info().currsize
    clear_caches()
    assert _sub.cache_info().currsize == 0


def test_equal_value_arrangements_share_results():
    a = catalog("A2", (2, 2, 2))
    b = Arrangement(2, [(3, 0), (0, 7), (-2, 2)]).with_multiplicity((2, 2, 2))
    assert a.arrangement == b.arrangement
    assert hash(a.arrangement) == hash(b.arrangement)
    assert _engine(a.arrangement) is _engine(b.arrangement)
    assert hilbert_dims(a, 5) == hilbert_dims(b, 5)


def test_engine_and_template_caches_stay_bounded(monkeypatch):
    # one engine per slope, and six (x - t y, degree) templates per slope; the
    # templates get room for 40 KB, far less than 200 slopes need
    budget = 40_000
    monkeypatch.setattr("multider.graded._TEMPLATE_CACHE_BYTES", budget)
    clear_caches()
    first = catalog("maehara4", (2, 1, 1, 2), t=2)
    evicted = _engine(first.arrangement)
    dims = hilbert_dims(first, 5)
    bases = [graded_basis_vectors(first, k) for k in range(6)]
    slope_form = first.forms[3].primitive
    template = _template(slope_form, 5)
    for t in range(3, 203):
        hilbert_dims(catalog("maehara4", (2, 1, 1, 2), t=t), 5)
        assert _engine.cache_info().currsize <= _ENGINE_CACHE_LIMIT
        assert _template.nbytes <= budget
        assert _template.nbytes == sum(_template_bytes(rows) for rows, _, _ in
                                       _template.entries.values())
    assert _engine.cache_info().currsize == _ENGINE_CACHE_LIMIT
    assert len(_template.entries) < 6 * 200
    # the first engine and its slope's templates were dropped; rebuilds answer the same
    assert (slope_form, 5) not in _template.entries
    assert _engine(first.arrangement) is not evicted
    assert _template(slope_form, 5) is not template
    rows, starts, maxes = _template(slope_form, 5)
    assert (rows == template[0]).all() and (starts, maxes) == template[1:]
    assert hilbert_dims(first, 5) == dims
    assert [graded_basis_vectors(first, k) for k in range(6)] == bases
    # an object template counts a fixed size per entry, not its pointers
    big = _template((1, 2**40), 4)[0]
    assert big.dtype == object and _template_bytes(big) == big.size * _OBJECT_ENTRY_BYTES
    clear_caches()
    assert _engine.cache_info().currsize == len(_template.entries) == _template.nbytes == 0


def test_basis_cache_stays_bounded_and_is_the_only_store(monkeypatch):
    # a B2 grid walk with room for 12 bases: pieces are evicted and solved again
    limit = 12
    monkeypatch.setattr("multider.graded._BASIS_CACHE_LIMIT", limit)
    clear_caches()
    eng = _engine(catalog("B2").arrangement)
    grid = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 5]
    first = {}
    for m in grid:
        ma = catalog("B2", m)
        for k in range(4):
            first[m, k] = (graded_dimension(ma, k), graded_basis_vectors(ma, k))
            assert len(eng.bases) <= limit
    assert len(eng.bases) == limit
    assert set(vars(eng)) == {"arrangement", "nvars", "prims", "bases"}
    assert isinstance(eng.prims, list) and len(eng.prims) == 4
    solves = sum(solve_routes().values())
    for (m, k), (dim, basis) in first.items():
        ma = catalog("B2", m)
        assert graded_dimension(ma, k) == dim == len(basis)
        assert graded_basis_vectors(ma, k) == basis
        assert len(eng.bases) <= limit
    # the evicted pieces were solved again, not remembered elsewhere
    assert sum(solve_routes().values()) > solves
    clear_caches()


def test_non_catalog_fraction_coefficients():
    from fractions import Fraction

    arr = Arrangement(2, [(1, 0), (0, 1), (1, Fraction(-7, 3))])
    ma = arr.with_multiplicity((2, 1, 2))
    for k in range(5):
        assert graded_dimension(ma, k) == oracle_graded_dimension(ma, k)


ROUTE_CASES = [
    ("A3", (2, 1, 2, 1, 2, 1), 4),
    ("X3", (2, 2, 2, 1, 1, 1), 4),
    ("A3", (0, 0, 0, 0, 0, 0), 2),
    ("deletedA3", (2, 0, 3, 0, 1), 3),
]


def _bases_by_route(monkeypatch, failing_moduli):
    """Graded bases of ROUTE_CASES with the lift failing for the given moduli.

    Returns the bases, how many mod-p eliminations and Bareiss runs the
    solves took, and the moduli lifted.
    """
    with monkeypatch.context() as patch:
        calls = _count_kernel_calls(patch)
        lifted = _fail_lift(patch, failing_moduli)
        clear_caches()
        bases = [graded_basis_vectors(catalog(name, mult), k)
                 for name, mult, kmax in ROUTE_CASES for k in range(kmax + 1)]
    clear_caches()
    return bases, calls, lifted


def _count_kernel_calls(patch):
    """Count mod-p eliminations and Bareiss runs; both run only inside linalg."""
    from multider import linalg

    calls = {"kernel_mod": 0, "bareiss_kernel": 0}
    for name in calls:
        original = getattr(linalg, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        patch.setattr(linalg, name, wrapper)
    return calls


def _fail_lift(patch, failing_moduli):
    """Make the residue lift fail for the moduli the predicate picks.

    Returns the set of moduli the lift ran for and did not fail.  The lift
    is patched in every module that imports it; graded must not.
    """
    from multider import graded, linalg

    lift = linalg.lift_residue_vector
    lifted = set()

    def failing(residues, modulus):
        if failing_moduli(modulus):
            return None
        lifted.add(modulus)
        return lift(residues, modulus)

    for module in (linalg, graded):
        if hasattr(module, "lift_residue_vector"):
            patch.setattr(module, "lift_residue_vector", failing)
    return lifted


def test_escalation_routes_give_identical_bases(monkeypatch):
    from multider.linalg import PRIMES

    solves = sum(kmax + 1 for _, _, kmax in ROUTE_CASES)
    one_prime, calls, lifted = _bases_by_route(monkeypatch, lambda modulus: False)
    assert calls == {"kernel_mod": solves, "bareiss_kernel": 0}
    assert lifted == {PRIMES[0]}
    # a solve with a trivial kernel lifts nothing, so it never escalates
    escalated = solves - sum(1 for basis in one_prime if not basis)
    # failing below the product of two primes fails PRIMES[0] alone; each rung
    # adds one prime's kernel and reuses the ones before it
    for primes in (2, 3):
        modulus = math.prod(PRIMES[:primes])
        bases, calls, lifted = _bases_by_route(monkeypatch, lambda m: m < modulus)
        assert bases == one_prime
        assert calls == {"kernel_mod": solves + (primes - 1) * escalated, "bareiss_kernel": 0}
        assert lifted == {modulus}
    bareiss, calls, lifted = _bases_by_route(monkeypatch, lambda modulus: True)
    assert calls == {"kernel_mod": solves + 2 * escalated, "bareiss_kernel": escalated}
    assert bareiss == one_prime and lifted == set()
    assert any(one_prime) and not all(one_prime)


def _template_by_substitution(primitive, k):
    """`_template`'s rows, starts and block maxima from `Poly.substitute`, one block per e."""
    n = len(primitive)
    pivot = next(i for i, a in enumerate(primitive) if a)
    # x_pivot -> y_0 - sum a_j y_c(j) and x_j -> lead * y_c(j), c numbering j != pivot from 1
    matrix = [[0] * n for _ in range(n)]
    matrix[pivot][0] = 1
    for c, j in enumerate((j for j in range(n) if j != pivot), 1):
        matrix[pivot][c] = -primitive[j]
        matrix[j][c] = primitive[pivot]
    monos = monomial_exponents(n, k)
    images = [Poly.monomial(n, a).substitute(matrix) for a in monos]
    rows, starts, maxes = [], [0], []
    for e in range(k + 1):
        block = [[int(image.terms.get(y, 0)) for image in images] for y in monos if y[0] == e]
        rows += block
        starts.append(len(rows))
        maxes.append(max((abs(v) for row in block for v in row), default=0))
    return rows, tuple(starts), tuple(maxes)


def _assert_template_matches_substitution(primitive, k):
    rows, starts, maxes = _template(primitive, k)
    want_rows, want_starts, want_maxes = _template_by_substitution(primitive, k)
    assert rows.tolist() == want_rows
    assert (starts, maxes) == (want_starts, want_maxes)
    assert rows.dtype == (np.int64 if max(want_maxes) < _INT64_SAFE else object)


def test_template_blocks_and_maxima_match_a_per_block_rebuild():
    forms = {f.primitive for name in ("A3", "B3", "X3") for f in catalog(name).forms}
    # degree-1 entries just below and at the int64 bound
    forms |= {(1, _INT64_SAFE - 1, 0), (1, 0, _INT64_SAFE)}
    for primitive in sorted(forms):
        for k in range(9):
            _assert_template_matches_substitution(primitive, k)


@given(
    st.lists(st.integers(-6, 6) | st.just(2**40), min_size=1, max_size=4)
    .filter(lambda coeffs: any(coeffs) and coeffs.count(2**40) <= 1),
    st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
def test_template_matches_substitution_on_random_forms(coeffs, k):
    _assert_template_matches_substitution(LinearForm(coeffs).primitive, k)


def test_multiplicity_rows_are_prefix_views_of_one_matrix_per_degree():
    from multider.linalg import PRIMES, kernel_mod

    for primitive, fits in [((1, -1, 2), True), ((1, 2**40, 0), False)]:
        clear_caches()
        eng = _engine(Arrangement(3, [primitive]))
        for k in range(5):
            matrix_k, starts, maxes = _template(primitive, k)
            for cap in range(1, k + 3):
                rows, max_abs = _divisible_rows(primitive, k, cap)
                blocks = [matrix_k[starts[e]:starts[e + 1]] for e in range(min(cap, k + 1))]
                assert (rows == np.concatenate(blocks, axis=0)).all()
                assert max_abs == max(maxes[:min(cap, k + 1)])
                # no copy: a view of the degree's matrix, stored as int64
                # unless an entry outgrows it (from degree 2 on for 2**40)
                assert np.shares_memory(rows, matrix_k)
                assert (rows.dtype == np.int64) == (fits or k < 2)
                # the solve's one exact matrix: column block i is the rows
                # times coordinate i, int64 while entry times coordinate fits
                matrix = eng._matrix([0], (cap,), k)
                n = rows.shape[1]
                assert matrix.shape == (rows.shape[0], 3 * n)
                assert all((matrix[:, i * n:(i + 1) * n] == rows.astype(object) * a).all()
                           for i, a in enumerate(primitive))
                assert (matrix.dtype == np.int64) == (fits or k == 0)
                # kernel_mod reads it as it is, whatever its dtype
                reduced = np.mod(matrix, PRIMES[0]).astype(np.int64)
                got, want = kernel_mod(matrix, PRIMES[0]), kernel_mod(reduced, PRIMES[0])
                assert (got[0] == want[0]).all() and got[1:] == want[1:]
    clear_caches()


def test_no_support_gives_the_identity_basis():
    # no positive multiplicity assembles a 0-row matrix: every derivation is a member
    ma = catalog("A3", (0, 0, 0, 0, 0, 0))
    for k in range(3):
        n = 3 * math.comb(k + 2, 2)
        assert graded_basis_vectors(ma, k) == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))


# Divisibility entries outgrow int64 from degree 1 on: a template entry of
# 2**40 (or 2**33) times the coordinate 2**40 (or 2**33) of the same form.
BIG = Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2**40, 0), (1, 1, 2**33)])


def test_big_coefficients_take_one_object_matrix_per_solve(monkeypatch):
    from multider.graded import _Engine

    build = _Engine._matrix
    for mult in [(1, 1, 1, 1, 1), (2, 1, 1, 2, 1), (0, 0, 1, 3, 2)]:
        ma = BIG.with_multiplicity(mult)
        for k in range(4):
            built = []
            with monkeypatch.context() as patch:
                patch.setattr(_Engine, "_matrix", lambda self, *args: built.append(
                    build(self, *args)) or built[-1])
                clear_caches()
                basis = graded_basis_vectors(ma, k)
                _fail_lift(patch, lambda modulus: True)
                clear_caches()
                bareiss = graded_basis_vectors(ma, k)
            clear_caches()
            # one full solve each, so one matrix each; Bareiss reads the same one
            assert [m.dtype == object for m in built] == [k > 0] * 2
            assert basis == bareiss
            assert len(basis) == oracle_graded_dimension(ma, k)


@pytest.mark.parametrize("name,params", [
    ("A2", {}), ("B2", {}), ("maehara4", {"t": "7/3"}), ("A3", {}), ("B3", {}),
    ("deletedA3", {}), ("X3", {}), ("fan2d", {"h": 2, "slopes": [2, "-1/3"]}),
])
def test_catalog_matrices_stay_int64(name, params):
    arr = catalog(name, **params).arrangement
    eng = _engine(arr)
    mult = (4,) * len(arr.forms)
    for k in range(10):
        assert eng._matrix(list(range(len(mult))), mult, k).dtype == np.int64
    clear_caches()


# -- the restriction route -------------------------------------------------

WALK_NAMES = ("A3", "X3", "B3", "deletedA3")


def _walk(name, start, steps, k):
    """Bases along a walk of single-hyperplane steps at degree k, warm caches.

    Each step that would make a multiplicity negative is skipped; returns the
    visited multiplicities and their bases.
    """
    mult = tuple(start)
    visited = [mult]
    for idx, up in steps:
        idx %= len(mult)
        if up or mult[idx]:
            mult = mult[:idx] + (mult[idx] + (1 if up else -1),) + mult[idx + 1:]
            visited.append(mult)
    return visited, [graded_basis_vectors(catalog(name, m), k) for m in visited]


def _cold_bases(name, visited, k):
    """The same bases, each from the full solve on cleared caches."""
    cold = []
    for m in visited:
        clear_caches()
        cold.append(graded_basis_vectors(catalog(name, m), k))
        assert solve_routes() == {"unchanged": 0, "restricted": 0, "full": 1}
    return cold


@st.composite
def walks(draw):
    name = draw(st.sampled_from(WALK_NAMES))
    n = len(catalog(name).forms)
    start = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=8))
    return name, start, steps, draw(st.integers(0, 6))


@given(walks())
@settings(max_examples=60, deadline=None)
def test_cache_state_never_changes_the_bases(walk):
    name, start, steps, k = walk
    clear_caches()
    visited, warm = _walk(name, start, steps, k)
    assert warm == _cold_bases(name, visited, k)
    clear_caches()


# Up-steps on A3 from m = 0, at degrees 0 and 2.  At degree 0 the walk meets
# all three routes: hyperplanes 3, 4, 5 meet in a line, so the constant
# derivation along it survives the third step unchanged (block 0 vanishes on
# it), and the fourth step asks for block 1, which degree 0 does not have.
FIXED_WALK = ("A3", (0, 0, 0, 0, 0, 0), [(4, True), (5, True), (3, True), (3, True), (0, True),
                                         (1, True), (1, True), (2, True)])


def test_fixed_walk_takes_every_route():
    name, start, steps = FIXED_WALK
    clear_caches()
    visited = []
    for k in (0, 2):
        points, warm = _walk(name, start, steps, k)
        visited.append((k, points, warm))
    routes = solve_routes()
    assert routes["full"] == 2
    assert routes["unchanged"] and routes["restricted"]
    assert sum(routes.values()) == sum(len(points) for _, points, _ in visited)
    for k, points, warm in visited:
        assert warm == _cold_bases(name, points, k)
    clear_caches()
    assert solve_routes() == dict.fromkeys(routes, 0)


def _fixed_walk_under(monkeypatch, failing_moduli):
    """FIXED_WALK at degree 2, with the lift failing for the given moduli.

    Returns the bases, the routes, the mod-p elimination and Bareiss counts
    (`calls`), the multiplicities `_matrix` built the divisibility matrix for
    (`assembled`) and those matrices (`built`), the matrices the exact check
    `linalg._annihilates` was handed (`checked`), the matrices Bareiss
    eliminated (`eliminated`) and the moduli lifted (`lifted`).
    """
    from types import SimpleNamespace

    from multider import linalg
    from multider.graded import _Engine

    name, start, steps = FIXED_WALK
    run = SimpleNamespace(assembled=[], built=[], checked=[], eliminated=[])
    build, annihilates = _Engine._matrix, linalg._annihilates

    def building(self, support, mult, k):
        run.assembled.append(mult)
        run.built.append(build(self, support, mult, k))
        return run.built[-1]

    with monkeypatch.context() as patch:
        run.calls = _count_kernel_calls(patch)
        counted_bareiss = linalg.bareiss_kernel
        patch.setattr(linalg, "bareiss_kernel",
                      lambda matrix: run.eliminated.append(matrix) or counted_bareiss(matrix))
        patch.setattr(_Engine, "_matrix", building)
        patch.setattr(linalg, "_annihilates",
                      lambda matrix, vectors: run.checked.append(matrix) or annihilates(matrix, vectors))
        run.lifted = _fail_lift(patch, failing_moduli)
        clear_caches()
        _, run.bases = _walk(name, start, steps, 2)
        run.routes = solve_routes()
    clear_caches()
    return run


def _is_one_of(matrix, matrices):
    return any(matrix is other for other in matrices)


def test_restriction_escalates_to_crt_without_the_full_matrix(monkeypatch):
    from multider.linalg import PRIMES

    name, start, _ = FIXED_WALK
    one_prime = _fixed_walk_under(monkeypatch, lambda m: False)
    routes = one_prime.routes
    assert routes["restricted"] and routes["full"] == 1
    escalated = routes["restricted"] + routes["full"] - sum(1 for basis in one_prime.bases if not basis)
    for primes in (2, 3):
        modulus = math.prod(PRIMES[:primes])
        run = _fixed_walk_under(monkeypatch, lambda m: m < modulus)
        assert run.bases == one_prime.bases
        # every restriction still counts as one, certified by combining the
        # kernels of its small image mod the first `primes` primes
        assert run.routes == routes
        assert run.lifted == {modulus}
        assert run.calls["kernel_mod"] == one_prime.calls["kernel_mod"] + (primes - 1) * escalated
        # only the walk's start assembles the whole matrix, once for every prime
        assert run.assembled == [tuple(start)]
        assert run.calls["bareiss_kernel"] == 0


@pytest.mark.parametrize("failing", [lambda modulus: False, lambda modulus: True])
def test_restricted_solves_check_only_their_image(monkeypatch, failing):
    # with one prime and with every lift failing down to Bareiss, each solve
    # runs its exact check once, against the one matrix it eliminated: the
    # walk's start against its divisibility matrix, the one matrix built,
    # and each restricted solve against its image alone
    name, start, _ = FIXED_WALK
    run = _fixed_walk_under(monkeypatch, failing)
    assert run.routes["restricted"] >= 5 and run.routes["full"] == 1
    assert run.assembled == [tuple(start)]
    assert [_is_one_of(matrix, run.built) for matrix in run.checked] == [True] + [False] * run.routes["restricted"]
    n = 3 * math.comb(2 + 2, 2)
    assert all(image.shape[0] < n for image in run.checked[1:])


def test_failed_lifts_reach_bareiss_on_the_image(monkeypatch):
    expected = _fixed_walk_under(monkeypatch, lambda modulus: False)
    run = _fixed_walk_under(monkeypatch, lambda modulus: True)
    assert run.bases == expected.bases
    assert run.routes == expected.routes
    # one Bareiss run per solve that eliminates and has a nonzero kernel
    # (a trivial kernel lifts nothing, so it never escalates)
    assert run.calls["bareiss_kernel"] == len(run.eliminated) == (
        run.routes["restricted"] + run.routes["full"] - sum(1 for basis in expected.bases if not basis))
    # the walk's start eliminates its divisibility matrix; every later run
    # eliminates the image its restricted solve checked
    assert run.assembled == [FIXED_WALK[1]]
    assert _is_one_of(run.eliminated[0], run.built)
    assert all(_is_one_of(matrix, run.checked[1:]) for matrix in run.eliminated[1:])


def _assert_standard_basis(basis):
    """Primitive vectors, strictly ascending last nonzero columns, each zero at the others'."""
    lasts = [max(i for i, v in enumerate(vec) if v) for vec in basis]
    assert lasts == sorted(set(lasts))
    for vec, last in zip(basis, lasts):
        assert math.gcd(*vec) == 1 and next(v for v in vec if v) > 0
        assert all(vec[c] == 0 for c in lasts if c != last)


@given(walks())
@settings(max_examples=40, deadline=None)
def test_every_stored_basis_is_the_standard_primitive_one(walk):
    # what makes the rows of K V the child's basis: the parent is standard
    name, start, steps, k = walk
    clear_caches()
    _walk(name, start, steps, k)
    stored = _engine(catalog(name).arrangement).bases
    assert stored
    for basis in stored.values():
        _assert_standard_basis(basis)
    clear_caches()


@pytest.mark.parametrize("name,mult,idx,k", [
    ("A3", (2, 1, 2, 1, 2, 1), 0, 4),
    ("X3", (2, 2, 2, 1, 1, 1), 3, 4),
    ("B3", (1, 1, 1, 1, 1, 1, 1, 1, 2), 8, 4),
])
def test_restriction_depends_only_on_the_span_of_the_parent(name, mult, idx, k):
    # a planted parent in no standard form leaves K V out of it too; the
    # rows are reduced exactly, so any basis of the parent piece gives the
    # same vectors
    parent = mult[:idx] + (mult[idx] - 1,) + mult[idx + 1:]
    clear_caches()
    expected = graded_basis_vectors(catalog(name, mult), k)
    clear_caches()
    basis = graded_basis_vectors(catalog(name, parent), k)
    assert len(basis) >= 2 and len(expected) < len(basis)
    mixed = [tuple(a + b for a, b in zip(basis[0], v)) for v in basis[1:]]
    _engine(catalog(name).arrangement).bases[(parent, k)] = tuple(reversed(mixed)) + (basis[0],)
    assert graded_basis_vectors(catalog(name, mult), k) == expected
    assert solve_routes() == {"unchanged": 0, "restricted": 1, "full": 1}
    clear_caches()


@pytest.mark.parametrize("name,mult,idx,k", [
    ("A3", (2, 1, 2, 1, 2, 1), 0, 4),
    ("X3", (2, 2, 2, 1, 1, 1), 3, 4),
])
def test_restriction_rank_drop_mod_p_fails_the_prime(monkeypatch, name, mult, idx, k):
    # a parent vector that vanishes mod PRIMES[0] makes its column of the
    # image vanish there, so the image's kernel mod that prime is too large
    # and every pass through the prime fails; Bareiss on the image answers,
    # and K V made primitive is the same basis
    from multider.linalg import PRIMES

    parent = mult[:idx] + (mult[idx] - 1,) + mult[idx + 1:]
    clear_caches()
    expected = graded_basis_vectors(catalog(name, mult), k)
    clear_caches()
    basis = graded_basis_vectors(catalog(name, parent), k)
    planted = (tuple(PRIMES[0] * v for v in basis[0]),) + basis[1:]
    _engine(catalog(name).arrangement).bases[(parent, k)] = planted
    with monkeypatch.context() as patch:
        calls = _count_kernel_calls(patch)
        assert graded_basis_vectors(catalog(name, mult), k) == expected
    assert solve_routes() == {"unchanged": 0, "restricted": 1, "full": 1}
    assert calls["bareiss_kernel"] == 1
    clear_caches()


def test_failed_reference_elimination_names_the_solve(monkeypatch):
    from multider import InternalCheckError, linalg

    name, mult = "A3", (2, 1, 2, 1, 2, 1)
    child = (3,) + mult[1:]
    prims = [f.primitive for f in catalog(name).forms]
    clear_caches()
    graded_basis_vectors(catalog(name, mult), 4)
    # the exact check of both routes: the image, and the divisibility matrix
    monkeypatch.setattr(linalg, "_annihilates", lambda matrix, vectors: False)
    for target, route in ((child, "restricted"), ((1,) * 6, "full")):
        with pytest.raises(InternalCheckError) as info:
            graded_basis_vectors(catalog(name, target), 4)
        message = str(info.value)
        assert "reference elimination produced a non-member" in message
        assert str(prims) in message and f"multiplicity {target}" in message
        assert "degree 4" in message and f"{route} route" in message
    clear_caches()
