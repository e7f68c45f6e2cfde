"""Coordinate hyperplanes in closed form, against the template assembly of every hyperplane.

The oracle `_template_matrix` is the whole divisibility matrix: every
hyperplane of the support, coordinates included, through its substitution
template on every column.  The engine leaves the coordinate hyperplanes out
(their conditions force columns to zero), so its bases must equal the
certified kernel of the oracle matrix, byte for byte.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multider import (
    Arrangement,
    catalog,
    clear_caches,
    graded_basis_vectors,
    graded_dimension,
    hilbert_dims,
    solve_routes,
)
from multider.graded import _Engine, _build_template, graded_member
from multider.linalg import _INT64_SAFE, certified_kernel
from multider.polyring import monomial_count
from multider.sweep import run_sweep

from conftest import oracle_graded_dimension
from test_graded import BIG


def _template_matrix(arrangement, mult, k):
    """The divisibility matrix of (m, k) with every hyperplane of the support through its template."""
    prims = [f.primitive for f in arrangement.forms]
    parts = []
    for prim, m in zip(prims, mult):
        if m > 0:
            rows, starts, maxes = _build_template(prim, k)
            m = min(m, k + 1)
            parts.append((rows[:starts[m]], max(maxes[:m]), prim))
    fits = all(max_abs * max(map(abs, prim)) < _INT64_SAFE for _, max_abs, prim in parts)
    dtype = np.int64 if fits else object
    n = monomial_count(arrangement.nvars, k)
    matrix = np.empty((sum(len(rows) for rows, _, _ in parts), arrangement.nvars * n), dtype)
    start = 0
    for rows, _, prim in parts:
        rows = rows.astype(dtype, copy=False)
        for i, a in enumerate(prim):
            matrix[start:start + len(rows), i * n:(i + 1) * n] = rows * a
        start += len(rows)
    return matrix


def _oracle_basis(ma, k):
    return tuple(tuple(v) for v in certified_kernel(_template_matrix(ma.arrangement, ma.mult, k)))


def _is_coordinate(form):
    return sum(map(abs, form)) == 1


@st.composite
def coordinate_multiarrangements(draw):
    """Rank 2 or 3, 0-3 coordinate hyperplanes, 0-3 others, multiplicities 0-4, degree 0-5."""
    nvars = draw(st.sampled_from((2, 3)))
    axes = draw(st.lists(st.integers(0, nvars - 1), unique=True, max_size=nvars))
    forms = [tuple(int(i == axis) for i in range(nvars)) for axis in axes]
    others = draw(st.lists(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)
                           .filter(lambda f: sum(1 for v in f if v) >= 2),
                           min_size=0 if forms else 1, max_size=3))
    for form in others:
        # keep one form per hyperplane
        if all(np.linalg.matrix_rank(np.array([form, prim])) == 2 for prim in forms):
            forms.append(tuple(form))
    mult = draw(st.lists(st.integers(0, 4), min_size=len(forms), max_size=len(forms)))
    k = draw(st.integers(0, 5))
    return Arrangement(nvars, forms).with_multiplicity(mult), k


@given(coordinate_multiarrangements(), st.data())
@settings(max_examples=60, deadline=None)
def test_bases_match_the_template_assembly(case, data):
    ma, k = case
    expected = _oracle_basis(ma, k)
    assert len(expected) == oracle_graded_dimension(ma, k)
    # fresh: one full solve
    clear_caches()
    assert graded_basis_vectors(ma, k) == expected
    assert graded_dimension(ma, k) == len(expected)
    assert solve_routes() == {"unchanged": 0, "restricted": 0, "full": 1}
    # warm: a cached D(A, m - delta_H)_k, restricted by H's block
    support = [i for i, m in enumerate(ma.mult) if m]
    if support:
        idx = data.draw(st.sampled_from(support))
        parent = ma.mult[:idx] + (ma.mult[idx] - 1,) + ma.mult[idx + 1:]
        clear_caches()
        parent_ma = ma.arrangement.with_multiplicity(parent)
        assert graded_basis_vectors(parent_ma, k) == _oracle_basis(parent_ma, k)
        assert graded_basis_vectors(ma, k) == expected
        assert solve_routes()["full"] == 1
    clear_caches()


# B2 under the coordinate change [[2, 1], [3, 2]] (determinant 1): x, y, x - y
# and x + y become forms with no coordinate hyperplane among them
B2_MOVED = Arrangement(2, [(2, 1), (3, 2), (1, 1), (5, 3)])
# X3 under the coordinate change sending e_1, e_2, e_3 to (1, 1, 1), (1, 2, 3), (1, 3, 6)
X3_MOVED = Arrangement(3, [(1, 1, 1), (1, 2, 3), (1, 3, 6), (2, 3, 4), (2, 5, 9), (2, 4, 7)])


def test_coordinate_change_keeps_the_hilbert_function():
    assert not any(_is_coordinate(f.primitive) for f in B2_MOVED.forms + X3_MOVED.forms)
    clear_caches()
    for mult in itertools.product(range(4), repeat=4):
        assert hilbert_dims(catalog("B2", mult), 6) == hilbert_dims(B2_MOVED.with_multiplicity(mult), 6)
    x3 = hilbert_dims(catalog("X3", (2,) * 6), 8)
    assert x3 == hilbert_dims(X3_MOVED.with_multiplicity((2,) * 6), 8) == (0, 0, 0, 0, 1, 6, 15, 27, 42)
    clear_caches()


def test_no_template_is_built_for_a_coordinate_hyperplane(monkeypatch):
    from multider import graded

    built = []
    build = graded._build_template
    monkeypatch.setattr(graded, "_build_template",
                        lambda primitive, k: built.append(primitive) or build(primitive, k))
    clear_caches()
    # a B2 walk over a grid, full and restricted solves
    for mult in itertools.product(range(4), repeat=4):
        if sum(mult) <= 7:
            hilbert_dims(catalog("B2", mult), 5)
    routes = solve_routes()
    assert routes["full"] and routes["restricted"] and routes["unchanged"]
    # a slice of the X3 sweep
    rows = run_sweep("X3", [(name, range(1, 3)) for name in "abcdef"], max_total=8, dedupe=True)
    assert rows
    # membership of every basis vector and of a non-member
    ma = catalog("X3", (2, 1, 3, 1, 1, 2))
    basis = graded_basis_vectors(ma, 5)
    assert basis and all(graded_member(ma, 5, v) for v in basis)
    assert not graded_member(ma, 5, [1] * len(basis[0]))
    assert built and not any(_is_coordinate(primitive) for primitive in built)
    clear_caches()


def test_graded_member_matches_the_template_rows():
    # a vector is a member exactly when the whole divisibility matrix annihilates it
    ma = catalog("B3", (2, 1, 1, 1, 3, 1, 1, 1, 1))
    k = 3
    matrix = _template_matrix(ma.arrangement, ma.mult, k)
    n = matrix.shape[1]
    vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    vectors += list(graded_basis_vectors(ma, k))
    vectors += [tuple(a + b for a, b in zip(u, v)) for u, v in zip(vectors, vectors[n:])]
    for v in vectors:
        assert graded_member(ma, k, v) == (not (matrix @ np.array(v)).any())
    clear_caches()


def test_coordinate_support_alone_gives_the_live_unit_vectors():
    # x^2 | theta_x and y | theta_y: the unit vectors off the forced columns
    ma = catalog("X3", (2, 1, 0, 0, 0, 0))
    for k in range(5):
        clear_caches()
        matrix, live = _Engine(ma.arrangement)._matrix([0, 1], ma.mult, k)
        assert matrix.shape == (0, live.sum())
        n = math.comb(k + 2, 2)
        assert live.sum() == 3 * n - (n - math.comb(k, 2)) - (n - math.comb(k + 1, 2))
        basis = graded_basis_vectors(ma, k)
        assert basis == tuple(tuple(int(c == j) for c in range(3 * n)) for j in np.flatnonzero(live))
        assert basis == _oracle_basis(ma, k)
    clear_caches()


@pytest.mark.parametrize("others", [0, 1])
def test_every_column_forced_gives_the_empty_basis(others):
    # x^(k+1), y^(k+1), z^(k+1) force every degree-k column, with or without other rows
    for k in range(4):
        mult = (k + 1,) * 3 + (others,) * 3
        ma = catalog("X3", mult)
        clear_caches()
        matrix, live = _Engine(ma.arrangement)._matrix([i for i, m in enumerate(mult) if m], mult, k)
        assert not live.any() and matrix.shape[1] == 0 and bool(len(matrix)) == bool(others)
        assert graded_basis_vectors(ma, k) == () == _oracle_basis(ma, k)
    clear_caches()


def test_big_coefficients_match_the_template_assembly():
    # the object-dtype matrices of BIG, with its coordinate hyperplanes x, y, z
    for mult in [(1, 1, 1, 1, 1), (2, 1, 1, 2, 1), (0, 0, 1, 3, 2), (3, 2, 0, 1, 0), (2, 2, 2, 0, 0)]:
        ma = BIG.with_multiplicity(mult)
        for k in range(4):
            expected = _oracle_basis(ma, k)
            assert len(expected) == oracle_graded_dimension(ma, k)
            clear_caches()
            matrix, _ = _Engine(BIG)._matrix([i for i, m in enumerate(mult) if m], mult, k)
            assert (matrix.dtype == object) == (k > 0 and any(mult[3:]))
            assert graded_basis_vectors(ma, k) == expected
            # warm, through a restriction from each hyperplane of the support
            for idx in (i for i, m in enumerate(mult) if m):
                clear_caches()
                graded_basis_vectors(BIG.with_multiplicity(mult[:idx] + (mult[idx] - 1,) + mult[idx + 1:]), k)
                assert graded_basis_vectors(ma, k) == expected
    clear_caches()
