"""Graded dimensions and bases against the from-scratch oracle in conftest."""

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
    derivation_from_vector,
    graded_basis_vectors,
    graded_dimension,
    graded_piece,
    hilbert_dims,
    membership,
    solve_routes,
)
from multider.graded import _engine

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


def test_equal_value_arrangements_share_results():
    a = catalog("A2", (2, 2, 2))
    b = Arrangement(2, [(3, 0), (0, 7), (-2, 2)]).with_multiplicity((2, 2, 2))
    assert a.arrangement == b.arrangement
    assert hash(a.arrangement) == hash(b.arrangement)
    assert _engine(a.arrangement) is _engine(b.arrangement)
    assert hilbert_dims(a, 5) == hilbert_dims(b, 5)


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

    Returns the bases and how many mod-p eliminations and Bareiss runs the
    solves took.
    """
    with monkeypatch.context() as patch:
        calls = _count_kernel_calls(patch)
        _fail_lift(patch, failing_moduli)
        clear_caches()
        bases = [graded_basis_vectors(catalog(name, mult), k)
                 for name, mult, kmax in ROUTE_CASES for k in range(kmax + 1)]
    clear_caches()
    return bases, calls


def _count_kernel_calls(patch):
    """Count mod-p eliminations and Bareiss runs, wherever they are called from.

    `kernel_mod` runs in linalg's own namespace and, for both per-prime
    kernels, in graded's; `bareiss_kernel` runs only inside linalg.
    """
    from multider import graded, linalg

    calls = {"kernel_mod": 0, "bareiss_kernel": 0}
    for name, modules in (("kernel_mod", (linalg, graded)), ("bareiss_kernel", (linalg,))):
        original = getattr(linalg, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in modules:
            patch.setattr(module, name, wrapper)
    return calls


def _fail_lift(patch, failing_moduli):
    """Make the residue lift fail for the moduli the predicate picks.

    The lift is patched in every module that imports it; graded must not.
    """
    from multider import graded, linalg

    lift = linalg.lift_residue_vector
    failing = lambda residues, modulus: None if failing_moduli(modulus) else lift(residues, modulus)
    for module in (linalg, graded):
        if hasattr(module, "lift_residue_vector"):
            patch.setattr(module, "lift_residue_vector", failing)


def test_escalation_routes_give_identical_bases(monkeypatch):
    from multider.linalg import PRIMES

    solves = sum(kmax + 1 for _, _, kmax in ROUTE_CASES)
    one_prime, calls = _bases_by_route(monkeypatch, lambda modulus: False)
    assert calls == {"kernel_mod": solves, "bareiss_kernel": 0}
    crt, calls = _bases_by_route(monkeypatch, lambda modulus: modulus == PRIMES[0])
    # a solve with a trivial kernel lifts nothing, so it never escalates
    trivial = sum(1 for basis in one_prime if not basis)
    # the three-prime pass reuses the first prime's kernel: two more per escalation
    assert calls == {"kernel_mod": solves + 2 * (solves - trivial), "bareiss_kernel": 0}
    bareiss, calls = _bases_by_route(monkeypatch, lambda modulus: True)
    assert calls["bareiss_kernel"] == solves - trivial
    assert one_prime == crt == bareiss
    assert any(one_prime) and not all(one_prime)


def _blocks_one_e_at_a_time(tmpl, k):
    """Divisibility blocks rebuilt from a degree-k expansion, one walk per e."""
    from multider.polyring import monomial_exponents

    monos = monomial_exponents(tmpl.nvars, k)
    blocks = []
    for e in range(k + 1):
        rows = [m for m in monos if m[0] == e]
        mat = np.zeros((len(rows), len(monos)), dtype=object)
        for col, mono in enumerate(monos):
            for ymono, coef in tmpl._expansion[mono].items():
                if ymono[0] == e:
                    mat[rows.index(ymono), col] = coef
        blocks.append(mat)
    return blocks


def test_template_blocks_and_maxima_match_a_per_block_rebuild():
    from multider.graded import _FormTemplate

    forms = {f.primitive for name in ("A3", "B3", "X3") for f in catalog(name).forms}
    for primitive in sorted(forms):
        for k in range(9):
            tmpl = _FormTemplate(3, primitive)
            tmpl._expand_to(k)
            expected = _blocks_one_e_at_a_time(tmpl, k)
            got = tmpl._blocks[k]
            assert [b.shape for b in got] == [b.shape for b in expected]
            assert all((g == x).all() for g, x in zip(got, expected))
            assert tmpl._block_maxes[k] == [max((abs(v) for v in b.flat), default=0)
                                            for b in expected]


def test_multiplicity_rows_are_prefix_views_of_one_matrix_per_degree():
    from multider.linalg import PRIMES, kernel_mod

    for primitive, fits in [((1, -1, 2), True), ((1, 2**40, 0), False)]:
        clear_caches()
        eng = _engine(Arrangement(3, [primitive]))
        tmpl = eng.templates[0]
        for k in range(5):
            for cap in range(1, k + 3):
                rows, max_abs = tmpl.rows_exact(k, cap)
                blocks = tmpl._blocks[k][:min(cap, k + 1)]
                assert (rows == np.concatenate(blocks, axis=0)).all()
                assert max_abs == max(tmpl._block_maxes[k][:min(cap, k + 1)])
                # no copy: a view of the degree's matrix, stored as int64
                # unless an entry outgrows it (from degree 2 on for 2**40)
                assert np.shares_memory(rows, tmpl._rows[k])
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

    Returns the bases, the routes, the mod-p elimination and Bareiss counts,
    the multiplicities `_matrix` built the divisibility matrix for, and the
    moduli lifted.
    """
    from multider import linalg
    from multider.graded import _Engine

    name, start, steps = FIXED_WALK
    assembled, lifted = [], []
    build, lift = _Engine._matrix, linalg.lift_residue_vector
    with monkeypatch.context() as patch:
        calls = _count_kernel_calls(patch)
        patch.setattr(_Engine, "_matrix",
                      lambda self, support, mult, k: assembled.append(mult)
                      or build(self, support, mult, k))
        patch.setattr(linalg, "lift_residue_vector",
                      lambda residues, modulus: lifted.append(modulus) or lift(residues, modulus))
        _fail_lift(patch, failing_moduli)
        clear_caches()
        _, bases = _walk(name, start, steps, 2)
        routes = solve_routes()
    clear_caches()
    return bases, routes, calls, assembled, set(lifted)


def test_restriction_escalates_to_crt_without_the_full_matrix(monkeypatch):
    from multider.linalg import PRIMES

    name, start, _ = FIXED_WALK
    expected, routes, _, _, _ = _fixed_walk_under(monkeypatch, lambda modulus: False)
    assert routes["restricted"] and routes["full"] == 1
    bases, crt_routes, calls, assembled, lifted = _fixed_walk_under(
        monkeypatch, lambda modulus: modulus == PRIMES[0])
    assert bases == expected
    # every restriction still counts as one, certified by the three-prime CRT
    # of its small product; only the walk's start assembles the whole matrix
    assert crt_routes == routes
    assert math.prod(PRIMES[:3]) in lifted
    # and builds its exact matrix once, for all three primes
    assert assembled == [tuple(start)]
    assert calls["bareiss_kernel"] == 0


def test_failed_lifts_reach_bareiss_on_the_full_rows(monkeypatch):
    expected, routes, _, _, _ = _fixed_walk_under(monkeypatch, lambda modulus: False)
    bases, bareiss_routes, calls, assembled, _ = _fixed_walk_under(
        monkeypatch, lambda modulus: True)
    assert bases == expected
    assert bareiss_routes == routes
    # one Bareiss run per solve that eliminates and has a nonzero kernel
    # (a trivial kernel lifts nothing, so it never escalates)
    assert calls["bareiss_kernel"] == routes["restricted"] + routes["full"] - sum(
        1 for basis in expected if not basis)
    # each run reads its solve's exact matrix, built once for that solve
    assert len(assembled) == len(set(assembled)) == calls["bareiss_kernel"]


@pytest.mark.parametrize("name,mult,idx,k", [
    ("A3", (2, 1, 2, 1, 2, 1), 0, 4),
    ("X3", (2, 2, 2, 1, 1, 1), 3, 4),
    ("B3", (1, 1, 1, 1, 1, 1, 1, 1, 2), 8, 4),
])
def test_restriction_depends_only_on_the_span_of_the_parent(name, mult, idx, k):
    # the reversed-column echelon form makes the answer a function of the
    # subspace: any other basis of the parent piece gives the same vectors
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
    # a parent vector that vanishes mod PRIMES[0] makes the mapped-back span
    # lose rank there, so every pass through that prime fails and Bareiss on
    # the full exact rows answers; the basis is unchanged
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
    from multider import InternalCheckError
    from multider.graded import _Engine

    name, mult = "A3", (2, 1, 2, 1, 2, 1)
    child = (3,) + mult[1:]
    prims = [f.primitive for f in catalog(name).forms]
    clear_caches()
    graded_basis_vectors(catalog(name, mult), 4)
    monkeypatch.setattr(_Engine, "_verify_exact", lambda self, support, mult, k, vectors: False)
    for target, route in ((child, "restricted"), ((1,) * 6, "full")):
        with pytest.raises(InternalCheckError) as info:
            graded_basis_vectors(catalog(name, target), 4)
        message = str(info.value)
        assert "reference elimination produced a non-member" in message
        assert str(prims) in message and f"multiplicity {target}" in message
        assert "degree 4" in message and f"{route} route" in message
    clear_caches()
