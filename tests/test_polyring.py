"""Exact polynomial ring: arithmetic laws, division, substitution, determinants."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multider import LinearForm, Poly
from multider.polyring import (
    determinant,
    divides_power,
    grlex_key,
    monomial_count,
    monomial_exponents,
    product_of_forms,
    proportional,
    try_divide_linear,
    variable_names,
)

scalars = st.integers(-4, 4).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def polys(nvars=2, max_degree=3):
    exps = [
        e
        for d in range(max_degree + 1)
        for e in monomial_exponents(nvars, d)
    ]
    return st.dictionaries(st.sampled_from(exps), scalars, max_size=5).map(
        lambda terms: Poly(nvars, terms)
    )


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(2) == p
    assert p * Poly.constant(2, 1) == p
    assert p - p == Poly.zero(2)


@given(polys(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_power_is_repeated_product(p, n):
    expected = Poly.constant(2, 1)
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


@given(polys(), polys(), st.tuples(scalars, scalars))
@settings(max_examples=40, deadline=None)
def test_evaluate_is_a_homomorphism(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_partial_satisfies_leibniz(p, q):
    for i in range(2):
        lhs = (p * q).partial(i)
        rhs = p.partial(i) * q + p * q.partial(i)
        assert lhs == rhs


@given(polys())
@settings(max_examples=40, deadline=None)
def test_substitute_composes(p):
    a = [[1, 2], [0, 1]]
    b = [[1, 0], [-3, 1]]
    ab = [
        [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert p.substitute(a).substitute(b) == p.substitute(ab)


@given(polys(), st.tuples(scalars, scalars))
@settings(max_examples=40, deadline=None)
def test_substitute_matches_evaluation(p, point):
    m = [[Fraction(2), Fraction(1)], [Fraction(-1), Fraction(3)]]
    moved = p.substitute(m)
    image = [sum(m[i][j] * point[j] for j in range(2)) for i in range(2)]
    assert moved.evaluate(point) == p.evaluate(image)


def test_constructor_drops_zero_terms():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): 2})
    assert p == Poly.variable(2, 1) * 2
    assert (0, 1) in p.terms and (1, 0) not in p.terms


def test_grlex_ordering():
    exps = [(2, 0), (0, 1), (1, 1), (0, 0), (0, 2), (1, 0)]
    ordered = sorted(exps, key=grlex_key)
    # leading term first: degree descending, then lexicographic within a degree
    assert ordered == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    p = Poly(2, {e: 1 for e in exps})
    assert [e for e, _ in p.sorted_terms()] == ordered
    assert p.sorted_terms()[0] == ((2, 0), 1)


def test_monomial_bookkeeping():
    for nvars, degree in [(1, 4), (2, 3), (3, 5)]:
        exps = monomial_exponents(nvars, degree)
        assert len(exps) == monomial_count(nvars, degree)
        assert len(exps) == math.comb(degree + nvars - 1, nvars - 1)
        assert all(sum(e) == degree for e in exps)
        assert list(exps) == sorted(exps, key=grlex_key)


def test_coefficient_vector_round_trip():
    p = Poly(3, {(2, 0, 0): Fraction(1, 3), (1, 1, 0): -2, (0, 0, 2): 5})
    vec = p.coefficient_vector(2)
    assert Poly.from_coefficient_vector(3, 2, vec) == p


def test_degree_and_homogeneity():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert (x * x + y).degree() == 2
    assert not (x * x + y).is_homogeneous()
    h = x * x - 3 * x * y
    assert h.is_homogeneous() and h.homogeneous_degree() == 2
    assert Poly.zero(2).homogeneous_degree() is None


def test_render():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = 3 * x * x - y * Fraction(1, 2) + 1
    assert p.render() == "3*x^2 - 1/2*y + 1"
    assert Poly.zero(2).render() == "0"
    assert (x * y).render(["u", "v"]) == "u*v"
    assert variable_names(5) == ("x1", "x2", "x3", "x4", "x5")


def test_linear_form_normalization():
    f = LinearForm([2, -4])
    assert f.coeffs == (Fraction(1), Fraction(-2))
    assert f.primitive == (1, -2)
    g = LinearForm([Fraction(-1, 3), Fraction(2, 3)])
    assert proportional(f, g)
    assert not proportional(f, LinearForm([1, 1]))
    with pytest.raises(ValueError):
        LinearForm([0, 0])


def test_kernel_point_2d():
    for coeffs in [(1, -2), (3, 5), (0, 1), (7, 0)]:
        f = LinearForm(coeffs)
        w = f.kernel_point_2d()
        assert any(w)
        assert f.evaluate(w) == 0


@given(polys(), st.sampled_from([(1, 0), (0, 1), (1, -1), (2, 3)]))
@settings(max_examples=40, deadline=None)
def test_divide_round_trip(q, coeffs):
    form = LinearForm(coeffs)
    product = q * form.as_poly()
    back = try_divide_linear(product, form)
    assert back == q


def test_divide_rejects_nonmultiples():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert try_divide_linear(x * x + y * y, LinearForm([1, -1])) is None
    assert try_divide_linear(Poly.zero(2), LinearForm([1, -1])) == Poly.zero(2)


def test_divides_power():
    f = LinearForm([1, -1])
    p = f.as_poly() ** 3 * Poly.variable(2, 0)
    assert divides_power(p, f, 3)
    assert not divides_power(p, f, 4)
    assert divides_power(Poly.zero(2), f, 10)


def test_product_of_forms():
    x = LinearForm([1, 0])
    y = LinearForm([0, 1])
    d = LinearForm([1, -1])
    q = product_of_forms([(x, 2), (y, 1), (d, 1)])
    px, py = Poly.variable(2, 0), Poly.variable(2, 1)
    assert q == px * px * py * (px - py)
    assert product_of_forms([(x, 0), (y, 2)]) == py * py
    with pytest.raises(ValueError):
        product_of_forms([])
    with pytest.raises(ValueError):
        product_of_forms([(x, -1)])


def _permutation_determinant(rows):
    n = len(rows)
    nvars = rows[0][0].nvars
    total = Poly.zero(nvars)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly.constant(nvars, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def test_determinant_matches_permutation_expansion():
    x, y, z = (Poly.variable(3, i) for i in range(3))
    rows = [
        [x, y, z],
        [x * x, y * y, z * z],
        [Poly.constant(3, 1), Poly.constant(3, 2), x + y],
    ]
    reference = _permutation_determinant(rows)
    assert determinant(rows) == reference


@pytest.mark.parametrize(
    "rows,message",
    [
        ([], "empty matrix"),
        ([[Poly.variable(2, 0), Poly.variable(2, 1)], [Poly.variable(2, 0)]], "ragged matrix"),
        ([[Poly.variable(2, 0), Poly.variable(3, 1)], [Poly.variable(2, 0)] * 2],
         "mixed variable counts"),
        ([[Poly.variable(2, 0), Poly.variable(2, 1)]], "determinant of a non-square matrix"),
    ],
    ids=["empty", "ragged", "mixed-nvars", "non-square"],
)
def test_determinant_rejects_malformed_matrices(rows, message):
    with pytest.raises(ValueError, match=message):
        determinant(rows)


def test_determinant_row_swap_flips_sign():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    rows = [[x, y], [x * x, y + x]]
    swapped = [rows[1], rows[0]]
    assert determinant(swapped) == -determinant(rows)


def test_vandermonde_determinant():
    one = Poly.constant(2, 1)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    rows = [[one, one], [x, y]]
    assert determinant(rows) == y - x
