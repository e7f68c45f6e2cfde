"""Derivation modules: membership, covariant derivatives, freeness, universality."""

import ast
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multider import (
    Arrangement,
    ArrangementError,
    Derivation,
    Poly,
    catalog,
    covariant_derivative,
    defining_polynomial,
    derivation_from_dict,
    derivation_from_vector,
    derivation_to_dict,
    euler_derivation,
    exponents,
    find_free_basis,
    find_universal,
    graded_dimension,
    graded_piece,
    hilbert_dims,
    is_k_critical,
    is_universal,
    localize,
    membership,
    rank2_flats,
    saito_check,
    saito_determinant,
)
from multider import logder
from multider.graded import _divisible_rows, graded_basis_vectors
from multider.linalg import _INT64_SAFE, echelon, primitive_integer_vector, rank
from multider.logder import FreenessCertificate, GradedPiece, _member
from multider.polyring import monomial_exponents
from multider.rank2 import delta

from test_rank2 import _LINE, _direction

scalars = st.integers(-3, 3).map(Fraction)


def polys(nvars, max_degree=2):
    exps = [
        e
        for d in range(max_degree + 1)
        for e in monomial_exponents(nvars, d)
    ]
    return st.dictionaries(st.sampled_from(exps), scalars, max_size=4).map(
        lambda terms: Poly(nvars, terms)
    )


def derivations(nvars, max_degree=2):
    return st.tuples(*[polys(nvars, max_degree)] * nvars).map(Derivation)


# -- Derivation basics -----------------------------------------------------


def test_derivation_constructor_validation():
    x = Poly.variable(2, 0)
    with pytest.raises(ValueError):
        Derivation([])
    with pytest.raises(ValueError):
        Derivation([x])  # one coefficient for two variables
    with pytest.raises(ValueError):
        Derivation([x, Poly.variable(3, 0)])
    with pytest.raises(ValueError):
        Derivation([x, x], degree_tag=2)
    tagged = Derivation([Poly.zero(2), Poly.zero(2)], degree_tag=4)
    assert tagged.degree() == 4 and not tagged


@given(derivations(2), derivations(2), polys(2), polys(2))
@settings(max_examples=40, deadline=None)
def test_apply_is_a_derivation(theta, eta, p, q):
    assert theta.apply(p * q) == theta.apply(p) * q + p * theta.apply(q)
    assert theta.apply(p + q) == theta.apply(p) + theta.apply(q)
    assert (theta + eta).apply(p) == theta.apply(p) + eta.apply(p)


def test_apply_form_matches_apply():
    ma = catalog("B2")
    theta = Derivation([Poly.variable(2, 0) ** 2, Poly.variable(2, 0) * Poly.variable(2, 1)])
    for form in ma.forms:
        assert theta.apply_form(form) == theta.apply(form.as_poly())


@given(polys(3))
@settings(max_examples=30, deadline=None)
def test_euler_identity(p):
    e = euler_derivation(3)
    parts = {}
    for exp, c in p.terms.items():
        parts.setdefault(sum(exp), {})[exp] = c
    expected = Poly.zero(3)
    for d, terms in parts.items():
        expected = expected + Poly(3, terms) * d
    assert e.apply(p) == expected


# -- covariant derivative --------------------------------------------------


@given(derivations(2), derivations(2))
@settings(max_examples=40, deadline=None)
def test_covariant_evaluation_identity(phi, theta):
    # (nabla_phi theta)(alpha) = phi(theta(alpha)) for linear alpha
    from multider import LinearForm

    for coeffs in [(1, 0), (0, 1), (1, -1), (2, 3)]:
        alpha = LinearForm(coeffs)
        lhs = covariant_derivative(phi, theta).apply_form(alpha)
        rhs = phi.apply(theta.apply_form(alpha))
        assert lhs == rhs


@given(derivations(2), derivations(2), derivations(2))
@settings(max_examples=30, deadline=None)
def test_covariant_derivative_is_bilinear(phi, psi, theta):
    lhs = covariant_derivative(phi + psi, theta)
    rhs = covariant_derivative(phi, theta) + covariant_derivative(psi, theta)
    assert lhs == rhs
    lhs = covariant_derivative(phi, psi + theta)
    rhs = covariant_derivative(phi, psi) + covariant_derivative(phi, theta)
    assert lhs == rhs


@given(derivations(2), derivations(2), polys(2))
@settings(max_examples=30, deadline=None)
def test_covariant_derivative_leibniz_in_second_slot(phi, theta, g):
    scaled = Derivation(g * f for f in theta.coeffs)
    lhs = covariant_derivative(phi, scaled)
    rhs = Derivation(phi.apply(g) * f for f in theta.coeffs) + Derivation(
        g * f for f in covariant_derivative(phi, theta).coeffs
    )
    assert lhs == rhs


def test_covariant_derivative_degree_law():
    phi = Derivation([Poly.variable(2, 0) ** 2, Poly.variable(2, 1) ** 2])
    theta = Derivation(
        [Poly.variable(2, 0) ** 3, Poly.variable(2, 0) * Poly.variable(2, 1) ** 2]
    )
    out = covariant_derivative(phi, theta)
    assert out.homogeneous_degree() == 2 + 3 - 1
    assert covariant_derivative(phi, theta).degree_tag == 4


# -- membership ------------------------------------------------------------


def test_euler_lies_in_simple_module():
    for name in ("A2", "B2", "A3", "B3", "deletedA3", "X3"):
        ma = catalog(name)
        assert membership(euler_derivation(ma.nvars), ma)


def test_q_times_coordinate_fields_lie_in_module():
    ma = catalog("A2", (2, 1, 3))
    q = defining_polynomial(ma)
    for i in range(ma.nvars):
        coeffs = [Poly.zero(ma.nvars) for _ in range(ma.nvars)]
        coeffs[i] = q
        assert membership(Derivation(coeffs), ma)


def test_membership_rejects_outsiders():
    ma = catalog("A2", (1, 1, 1))
    assert not membership(Derivation([Poly.constant(2, 1), Poly.zero(2)]), ma)
    x = Poly.variable(2, 0)
    assert not membership(Derivation([x, Poly.zero(2)]), ma)


# a rank-2 arrangement whose template rows outgrow int64 from degree 2 on, so
# every membership check against it takes the object-dtype branch of `_exact_product`
HUGE = Arrangement(2, [(1, 0), (0, 1), (1, 2**40), (3, -5)])
MEMBER_ARRANGEMENTS = [
    catalog(name).arrangement for name in ("A2", "B2", "A3", "deletedA3", "X3")
] + [HUGE]
huge_ints = st.integers(2**62, 2**80)
weights = st.one_of(scalars, st.fractions(-50, 50, max_denominator=9), huge_ints)


@st.composite
def member_cases(draw):
    """(theta, ma): sums of graded-piece members of several degrees, at times
    plus an arbitrary derivation, with rational or huge weights."""
    arr = draw(st.sampled_from(MEMBER_ARRANGEMENTS))
    n, l = len(arr.forms), arr.nvars
    ma = arr.with_multiplicity(tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    theta = Derivation([Poly.zero(l)] * l)
    for k in draw(st.sets(st.integers(0, 4), max_size=3)):
        piece = graded_piece(ma, k)
        if piece.basis:
            w = draw(st.lists(weights, min_size=len(piece), max_size=len(piece)))
            theta = theta + piece.element(w)
    if draw(st.booleans()):
        theta = theta + draw(derivations(l, max_degree=3)) * draw(weights)
    return theta, ma


@given(member_cases())
@settings(max_examples=150, deadline=None)
def test_member_agrees_with_division_membership(case):
    theta, ma = case
    assert _member(theta, ma) == membership(theta, ma)


def test_member_edge_cases_agree_with_division_membership():
    zero = Derivation([Poly.zero(2)] * 2)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    outsider = Derivation([x, Poly.zero(2)])
    for mult in [(0, 0, 0, 0), (1, 3, 0, 0), (0, 2, 0, 1), (3, 1, 2, 2)]:
        ma = HUGE.with_multiplicity(mult)
        # theta = 0 is a member of every module; zero multiplicities ask nothing
        assert _member(zero, ma) and membership(zero, ma)
        # x d_x sends x to x, y to 0 and the other two forms to multiples of x
        expected = mult[0] <= 1 and mult[2] == mult[3] == 0
        assert _member(outsider, ma) == membership(outsider, ma) == expected
    # the rows of the (1, 2**40) form no longer fit int64 at degree 2
    assert _divisible_rows(HUGE.forms[2].primitive, 2, 3)[1] >= _INT64_SAFE
    # a non-homogeneous member with huge rational coefficients and a term of
    # every degree 1..4 (vector entries far beyond int64)
    ma = HUGE.with_multiplicity((1, 1, 1, 1))
    parts = [graded_piece(ma, k) for k in range(1, 5)]
    theta = sum((piece.element([2**70 + i + Fraction(1, 3)] * len(piece))
                 for i, piece in enumerate(parts)), zero)
    assert max(abs(c) for p in theta.coeffs for c in p.terms.values()) > _INT64_SAFE
    assert _member(theta, ma) and membership(theta, ma)
    broken = theta + Derivation([x**3, y**2]) * 2**70
    assert not _member(broken, ma) and not membership(broken, ma)
    with pytest.raises(ArrangementError):
        _member(euler_derivation(3), ma)


# -- freeness and Saito ----------------------------------------------------


def _binomials_for(exps, nvars, k):
    return sum(math.comb(k - d + nvars - 1, nvars - 1) for d in exps if k >= d)


def _sampled_multiplicities(seed, draws):
    sizes = {"A2": 3, "B2": 4, "A3": 6, "X3": 6, "deletedA3": 5, "B3": 9}
    rng = random.Random(seed)
    return [
        (name, tuple(rng.randint(0, 4) for _ in range(sizes[name])))
        for name, count in draws
        for _ in range(count)
    ]


FREE_CASES = [
    ("A2", (3, 2, 2)),
    ("A2", (1, 1, 5)),
    ("B2", (3, 5, 2, 2)),
    ("A3", (1, 1, 1, 1, 1, 1)),
    ("A3", (3, 3, 3, 3, 3, 3)),
    ("deletedA3", (2, 2, 3, 2, 2)),
    ("X3", (2, 2, 2, 1, 1, 1)),
]
# the known free instances first, then a seeded sample of multiplicities 0..4
SAITO_CASES = FREE_CASES + _sampled_multiplicities(
    2026, [("A2", 6), ("B2", 6), ("A3", 12), ("X3", 12), ("deletedA3", 10), ("B3", 6)]
)


@pytest.mark.parametrize("name,mult", SAITO_CASES)
def test_free_certificates_verify_saito(name, mult):
    # find_free_basis certifies from one evaluated determinant; saito_check and
    # membership are the independent oracle for everything it claims
    ma = catalog(name, mult)
    cert = find_free_basis(ma)
    if not cert.free:
        assert (name, mult) not in FREE_CASES
        assert name not in ("A2", "B2"), "rank-2 multiarrangements are free"
        assert cert.basis == () and cert.constant is None and cert.refutation
        return
    assert bool(cert)
    assert len(cert.basis) == ma.nvars
    assert sum(cert.exponents) == ma.order()
    assert cert.exponents == tuple(sorted(cert.exponents))
    # re-verify everything the certificate claims, from scratch
    for theta in cert.basis:
        assert membership(theta, ma)
    det = saito_determinant(cert.basis)
    assert det == defining_polynomial(ma) * cert.constant
    ok, const = saito_check(cert.basis, ma)
    assert ok and const == cert.constant and const != 0
    # the graded dimensions are exactly the free-module binomial counts
    kmax = max(cert.exponents) + 1
    dims = hilbert_dims(ma, kmax)
    for k in range(kmax + 1):
        assert dims[k] == _binomials_for(cert.exponents, ma.nvars, k)
    assert any(line.startswith("degree ") for line in cert.search_log)


PURE_SELECTION_CASES = [
    ("A2", (3, 2, 2)),
    ("B2", (3, 5, 2, 2)),
    ("A3", (1, 1, 1, 1, 1, 1)),
    ("A3", (2, 2, 2, 2, 2, 2)),
    ("deletedA3", (2, 2, 3, 2, 2)),
    ("X3", (2, 2, 2, 1, 1, 1)),
    ("X3", (4, 4, 4, 1, 1, 1)),
    ("B3", (1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("B3", (1, 1, 1, 1, 2, 1, 1, 1, 1)),
]


@pytest.mark.parametrize("name,mult", PURE_SELECTION_CASES)
def test_pure_selection_certificates_verify_saito(monkeypatch, name, mult):
    ma = catalog(name, mult)
    randomized = find_free_basis(ma)
    monkeypatch.setattr("multider.logder.RANDOM_REPS", 0)
    cert = find_free_basis(ma)
    assert cert.free and cert.search_log[-1].startswith("free: pure selection")
    assert cert.exponents == randomized.exponents
    for theta in cert.basis:
        assert membership(theta, ma)
    ok, const = saito_check(cert.basis, ma)
    assert ok and const == cert.constant and const != 0
    assert saito_determinant(cert.basis) == defining_polynomial(ma) * cert.constant


def fraction_find_free_basis(ma, seed=logder.DEFAULT_SEED):
    """The rational route of `find_free_basis`: the oracle for its integer one.

    The same Hilbert scan and random draws, but every candidate is built from
    `graded_piece`, evaluated by `Poly.evaluate` in `Fraction`s and combined by
    `GradedPiece.element`; the determinant clears one common denominator D and
    reads det = sign * last pivot / D^l off `echelon`.
    """
    l = ma.nvars
    total = ma.order()
    log, hist, counts, found, weight = [], [], {}, 0, 0
    for k in range(total + 1):
        h = graded_dimension(ma, k)
        hist.append(h)
        c = sum((-1) ** j * math.comb(l, j) * hist[k - j] for j in range(min(k, l) + 1))
        log.append(f"degree {k}: dim {h}, numerator coefficient {c}")
        if c < 0:
            return logder._not_free(log, f"Hilbert numerator negative at degree {k}")
        if c:
            counts[k] = c
            found += c
            weight += c * k
            if found > l:
                return logder._not_free(log, f"more than {l} generator slots by degree {k}")
            if weight > total:
                return logder._not_free(log, f"generator degrees exceed |m| by degree {k}")
        if found == l:
            if weight < total:
                return logder._not_free(log, "generator degrees sum below |m|")
            break
    else:
        return logder._not_free(log, f"fewer than {l} generator slots up to degree |m|")
    degrees = tuple(sorted(d for d, c in counts.items() for _ in range(c)))
    log.append(f"candidate exponents {degrees}")
    pieces = {d: graded_piece(ma, d) for d in counts}
    rng = random.Random(seed)
    reps = logder.RANDOM_REPS

    def evaluate(point):
        return {d: [[p.evaluate(point) for p in theta.coeffs] for theta in piece]
                for d, piece in pieces.items()}

    def candidates():
        for rep in range(reps):
            point = logder._random_point(rng, l)
            weights = [[rng.randint(-9, 9) for _ in pieces[d]] for d in degrees]
            yield point, evaluate(point), weights, f"free: randomized combination succeeded at repetition {rep + 1}"
        log.append(f"randomized test vanished for {reps} repetitions; expanding all selections")
        point = logder._random_point(rng, l, [f for f, m in zip(ma.forms, ma.mult) if m])
        evaluated = evaluate(point)
        for selection in itertools.product(*(range(len(pieces[d])) for d in degrees)):
            units = [[int(i == j) for i in range(len(pieces[d]))] for d, j in zip(degrees, selection)]
            yield point, evaluated, units, f"free: pure selection {selection} has nonzero determinant"

    for point, evaluated, weights, note in candidates():
        rows = [[sum(wj * vec[i] for wj, vec in zip(w, evaluated[d]) if wj) for i in range(l)]
                for d, w in zip(degrees, weights)]
        denom = math.lcm(*(v.denominator for row in rows for v in row))
        ech, pivots, sign = echelon([[int(v * denom) for v in row] for row in rows])
        if len(pivots) == l:
            det = Fraction(sign * ech[-1][-1], denom**l)
            q = math.prod(f.evaluate(point) ** m for f, m in zip(ma.forms, ma.mult))
            basis = tuple(pieces[d].element(w) for d, w in zip(degrees, weights))
            log.append(note)
            return FreenessCertificate(True, basis, degrees, det / q, tuple(log), None)
    return logder._not_free(
        log, f"determinant vanishes identically ({reps} randomized repetitions, then every pure basis selection)")


@pytest.mark.parametrize("name,mult", SAITO_CASES)
def test_integer_certificates_equal_the_fraction_route(name, mult):
    ma = catalog(name, mult)
    for seed in (logder.DEFAULT_SEED, 5):
        assert find_free_basis(ma, seed=seed) == fraction_find_free_basis(ma, seed=seed)


@pytest.mark.parametrize("name,mult", PURE_SELECTION_CASES)
def test_pure_selection_certificates_equal_the_fraction_route(monkeypatch, name, mult):
    monkeypatch.setattr("multider.logder.RANDOM_REPS", 0)
    ma = catalog(name, mult)
    assert find_free_basis(ma) == fraction_find_free_basis(ma)


def fraction_is_universal(theta, ma_base):
    """`is_universal` with the gradients evaluated by `Poly.evaluate`; its oracle."""
    l = ma_base.nvars
    deg = theta.homogeneous_degree()
    if not theta or l * (deg - 1) != ma_base.order() or not membership(theta, ma_base.plus_ones()):
        return False
    weighted = [f for f, m in zip(ma_base.forms, ma_base.mult) if m]
    point = logder._random_point(random.Random(logder.DEFAULT_SEED), l, weighted)
    rows = [[f.partial(i).evaluate(point) for f in theta.coeffs] for i in range(l)]
    return rank([primitive_integer_vector(row) for row in rows]) == l


@pytest.mark.parametrize("name,mult,universal", [
    ("A2", (1, 1, 2), True),
    ("A2", (2, 2, 2), True),
    ("B2", (2, 4, 1, 1), True),
    ("A3", (2, 2, 2, 2, 2, 2), True),
    # exponents (2, 4): a degree-4 member of D(A, m + 1) whose gradients drop rank
    ("A2", (1, 1, 4), False),
])
def test_is_universal_agrees_with_the_fraction_route(name, mult, universal):
    base = catalog(name, mult)
    l = base.nvars
    deg = base.order() // l + 1
    members = [derivation_from_vector(l, deg, v) for v in graded_basis_vectors(base.plus_ones(), deg)]
    x0 = Poly.variable(l, 0)
    candidates = members + [theta * Fraction(-2, 3) for theta in members]
    candidates += [sum(members[1:], members[0]), euler_derivation(l) * x0 ** (deg - 1)]
    verdicts = [is_universal(theta, base) for theta in candidates]
    assert verdicts == [fraction_is_universal(theta, base) for theta in candidates]
    assert any(verdicts) == universal == (find_universal(base) is not None)


@pytest.mark.parametrize("reps", [None, 0])
def test_find_free_basis_does_not_call_the_symbolic_oracle(monkeypatch, reps):
    def oracle_called(*args):
        raise AssertionError("a certificate used the symbolic Saito route or Fraction polynomials")

    for name in ("saito_check", "saito_determinant", "membership", "defining_polynomial",
                 "graded_piece"):
        monkeypatch.setattr(f"multider.logder.{name}", oracle_called)
    monkeypatch.setattr(GradedPiece, "element", oracle_called)
    monkeypatch.setattr(Poly, "evaluate", oracle_called)
    if reps is not None:
        monkeypatch.setattr("multider.logder.RANDOM_REPS", reps)
    assert find_free_basis(catalog("A3", (2, 2, 2, 2, 2, 2))).free
    assert not find_free_basis(catalog("X3", (1, 1, 1, 0, 4, 2))).free
    assert find_universal(catalog("B2", (2, 4, 1, 1))) is not None
    assert find_universal(catalog("A2", (2, 2, 2))) is not None
    assert find_universal(catalog("B2", (1, 3, 1, 1))) is None


def test_vanishing_determinant_refutation_matches_symbolic_determinants():
    ma = catalog("X3", (1, 1, 1, 0, 4, 2))
    cert = find_free_basis(ma)
    assert not cert.free
    assert cert.refutation.startswith("determinant vanishes identically")
    line = next(s for s in cert.search_log if s.startswith("candidate exponents "))
    degrees = ast.literal_eval(line[len("candidate exponents "):])
    pieces = {d: graded_piece(ma, d) for d in degrees}
    selections = list(itertools.product(*(range(len(pieces[d])) for d in degrees)))
    assert len(selections) > 1
    for selection in selections:
        basis = [pieces[d].basis[j] for d, j in zip(degrees, selection)]
        assert saito_determinant(basis) == Poly.zero(3)


RANK3_SIZES = {"A3": 6, "X3": 6, "deletedA3": 5, "B3": 9}


@st.composite
def rank3_multiplicities(draw):
    name = draw(st.sampled_from(sorted(RANK3_SIZES)))
    top = 2 if name == "B3" else 3
    size = RANK3_SIZES[name]
    return name, tuple(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)))


def local_exponent_sum(ma):
    """Sum over the rank-2 flats X of d1^X * d2^X, the localizations' exponent products."""
    return sum(math.prod(delta(localize(ma, x)).pair) for x in rank2_flats(ma.arrangement))


@given(rank3_multiplicities())
@settings(max_examples=120, deadline=None)
def test_free_rank3_certificates_satisfy_the_local_exponent_identity(case):
    # Abe, Terao and Wakefield (Adv. Math. 2007): a free 3-multiarrangement
    # with exponents (d1, d2, d3) has d1 d2 + d1 d3 + d2 d3 equal to the sum of
    # d1^X d2^X over its rank-2 flats X; nothing is shared with the determinant
    ma = catalog(*case)
    cert = find_free_basis(ma)
    if cert.free:
        d1, d2, d3 = cert.exponents
        assert d1 * d2 + d1 * d3 + d2 * d3 == local_exponent_sum(ma), case


def test_known_exponents():
    assert exponents(catalog("B2", (3, 5, 2, 2))) == (5, 7)
    assert exponents(catalog("B2", (2, 4, 1, 1))) == (4, 4)
    assert exponents(catalog("A3", (3, 3, 3, 3, 3, 3))) == (5, 6, 7)
    assert exponents(catalog("A2", (1, 1, 5))) == (2, 5)


def test_non_free_certificate():
    ma = catalog("X3", (2, 2, 2, 2, 2, 2))
    cert = find_free_basis(ma)
    assert not cert.free and not bool(cert)
    assert cert.basis == () and cert.exponents is None and cert.constant is None
    assert cert.refutation
    assert exponents(ma) is None


def test_saito_check_refuses_non_members():
    from multider import MembershipError

    ma = catalog("A2", (1, 1, 1))
    cert = find_free_basis(ma)
    # against a bigger multiplicity the inputs are not even members: that is
    # an ill-posed question and raises rather than reporting "not a basis"
    with pytest.raises(MembershipError):
        saito_check(cert.basis, catalog("A2", (2, 1, 1)))


def test_saito_check_false_on_dependent_members():
    ma = catalog("A2", (1, 1, 1))
    theta = find_free_basis(ma).basis[0]
    scaled = Derivation(Poly.variable(2, 0) * p for p in theta.coeffs)
    ok, const = saito_check([theta, scaled], ma)
    assert not ok and const is None
    assert saito_determinant([theta, scaled]) == Poly.zero(2)


def test_find_free_basis_is_deterministic():
    ma = catalog("deletedA3", (2, 2, 3, 2, 2))
    a = find_free_basis(ma)
    b = find_free_basis(ma)
    assert a.basis == b.basis and a.constant == b.constant
    c = find_free_basis(ma, seed=99)
    assert c.free and c.exponents == a.exponents


# -- criticality and universality ------------------------------------------


def test_is_k_critical():
    lifted = catalog("B2", (3, 5, 2, 2))
    assert is_k_critical(lifted, 5)
    assert not is_k_critical(lifted, 4)
    assert not is_k_critical(lifted, 6)
    assert graded_dimension(lifted, 4) == 0
    assert graded_dimension(lifted, 5) > 0


def _is_k_critical_degree_by_degree(ma, k):
    """The former `is_k_critical`: every piece below k checked on its own."""
    return (k >= 0 and not any(graded_dimension(ma, j) for j in range(k))
            and bool(graded_dimension(ma, k))
            and not any(graded_dimension(ma.plus_delta(i), k) for i in range(len(ma.forms))))


@pytest.mark.parametrize("name,mult", [
    ("B2", (3, 5, 2, 2)), ("B2", (0, 0, 1, 3)), ("A2", (2, 2, 2)), ("A2", (3, 3, 3)),
    ("A2", (0, 0, 0)), ("X3", (3, 3, 3, 2, 2, 2)), ("deletedA3", (2, 2, 3, 2, 2)),
])
def test_is_k_critical_matches_the_degree_by_degree_scan(name, mult):
    ma = catalog(name, mult)
    verdicts = [is_k_critical(ma, k) for k in range(-1, 9)]
    assert verdicts == [_is_k_critical_degree_by_degree(ma, k) for k in range(-1, 9)]


def _criticality_route(ma):
    """The former `find_universal`, kept as its oracle: exponents all |m|/l,
    then (|m|/l + 1)-criticality of m+1, then that piece's first vector."""
    l, total = ma.nvars, ma.order()
    if total % l:
        return None
    d = total // l
    cert = find_free_basis(ma)
    if not cert.free or cert.exponents != (d,) * l:
        return None
    lifted = ma.plus_ones()
    if not is_k_critical(lifted, d + 1):
        return None
    return derivation_from_vector(l, d + 1, graded_basis_vectors(lifted, d + 1)[0])


@st.composite
def rank2_universality_cases(draw):
    """Essential rank-2 multiarrangements of 3-6 lines with multiplicities 0-6.

    Three lines are the one size where balance (2 max m <= |m|) decides
    universality, so half of those draws are built on a chosen side of it.
    """
    lines = draw(st.lists(_LINE, min_size=3, max_size=6, unique_by=_direction))
    n = len(lines)
    if n == 3 and draw(st.booleans()):
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        if draw(st.booleans()):
            c = draw(st.integers(abs(a - b), a + b))
        else:
            c = draw(st.integers(a + b + 1, 6))
        mult = draw(st.permutations((a, b, c)))
    else:
        mult = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return Arrangement(2, lines).with_multiplicity(tuple(mult))


@given(rank2_universality_cases())
@example(catalog("A2", (1, 1, 2)))
@example(catalog("A2", (1, 1, 4)))
@example(catalog("B2", (2, 4, 1, 1)))
@example(catalog("B2", (1, 3, 1, 1)))
@settings(max_examples=150, deadline=None)
def test_find_universal_matches_the_criticality_route_in_rank_two(ma):
    assert find_universal(ma) == _criticality_route(ma), ma.mult


@st.composite
def universality_cases(draw, names=("A3", "X3", "deletedA3")):
    """A catalog arrangement of `names` with multiplicities 0-3, half of them
    within one of a constant, where the universal ones lie."""
    name = draw(st.sampled_from(names))
    size = {"B2": 4, **RANK3_SIZES}[name]
    if draw(st.booleans()):
        base = draw(st.integers(0, 2))
        mult = [base + draw(st.integers(0, 1)) for _ in range(size)]
    else:
        mult = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    return catalog(name, tuple(mult))


@given(universality_cases())
@example(catalog("A3", (2, 2, 2, 2, 2, 2)))
@example(catalog("A3", (1, 1, 1, 0, 0, 0)))
@example(catalog("deletedA3", (1, 1, 2, 1, 1)))
@example(catalog("X3", (2, 2, 2, 1, 1, 1)))
@settings(max_examples=100, deadline=None)
def test_find_universal_matches_the_criticality_route_in_rank_three(ma):
    assert find_universal(ma) == _criticality_route(ma), (ma.mult, ma.forms)


def test_find_universal_needs_neither_exponents_nor_criticality(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("find_universal ran the criticality route")

    monkeypatch.setattr("multider.logder.find_free_basis", refuse)
    monkeypatch.setattr("multider.logder.is_k_critical", refuse)
    base = catalog("B2", (2, 4, 1, 1))
    theta = find_universal(base)
    assert theta is not None and theta.homogeneous_degree() == 5 and is_universal(theta, base)
    # exponents (3, 3, 3), but D(A, m+1)_4 = 0
    assert find_universal(catalog("X3", (2, 2, 2, 1, 1, 1))) is None
    assert find_universal(catalog("B2", (1, 3, 1, 1))) is None


def _is_universal_route(ma):
    """The former `find_universal`, kept as its oracle: the one basis vector
    of D(A, m+1)_{|m|/l+1} as a `Derivation`, decided by `is_universal`."""
    l, total = ma.nvars, ma.order()
    if total % l:
        return None
    vectors = graded_basis_vectors(ma.plus_ones(), total // l + 1)
    if len(vectors) != 1:
        return None
    theta = derivation_from_vector(l, total // l + 1, vectors[0])
    return theta if is_universal(theta, ma) else None


@given(universality_cases(("A3", "B2", "deletedA3", "X3")))
@example(catalog("deletedA3", (1, 1, 2, 1, 1)))
@example(catalog("B2", (2, 4, 1, 1)))
@example(catalog("A3", (1, 1, 1, 0, 0, 0)))
@example(catalog("X3", (2, 2, 2, 1, 1, 1)))
# D(A, m+1)_{|m|/l+1} is a line, but its gradients drop rank
@example(catalog("deletedA3", (1, 1, 3, 1, 3)))
@example(catalog("A3", (0, 0, 0, 2, 2, 2)))
@settings(max_examples=100, deadline=None)
def test_find_universal_matches_the_is_universal_route(ma):
    assert find_universal(ma) == _is_universal_route(ma), (ma.forms, ma.mult)


def test_find_universal_decides_on_the_certified_vector(monkeypatch):
    # the graded solver certified the vector, so it is not checked again
    cases = [catalog("deletedA3", (1, 1, 2, 1, 1)), catalog("B2", (2, 4, 1, 1)),
             catalog("A3", (2, 2, 2, 2, 2, 2)), catalog("B2", (1, 3, 1, 1)),
             catalog("deletedA3", (1, 1, 3, 1, 3))]
    expected = [_is_universal_route(ma) for ma in cases]
    assert [theta is not None for theta in expected] == [True, True, True, False, False]

    def refuse(*args, **kwargs):
        raise AssertionError("find_universal checked the certified vector again")

    for name in ("is_universal", "_member", "graded_member"):
        monkeypatch.setattr(f"multider.logder.{name}", refuse)
    assert [find_universal(ma) for ma in cases] == expected


def test_find_universal_takes_no_seed():
    with pytest.raises(TypeError):
        find_universal(catalog("B2", (2, 4, 1, 1)), seed=1)


def test_find_universal_b2():
    base = catalog("B2", (2, 4, 1, 1))
    theta = find_universal(base)
    assert theta is not None
    assert theta.homogeneous_degree() == 5
    assert is_universal(theta, base)
    assert membership(theta, base.plus_ones())


def test_find_universal_small_a2():
    base = catalog("A2", (1, 1, 2))
    theta = find_universal(base)
    assert theta is not None and theta.homogeneous_degree() == 3
    assert is_universal(theta, base)


def test_find_universal_returns_none_on_odd_total():
    assert find_universal(catalog("A2", (1, 1, 1))) is None
    assert find_universal(catalog("B2", (1, 1, 1, 2))) is None


def test_find_universal_returns_none_without_equal_exponents():
    assert find_universal(catalog("B2", (1, 3, 1, 1))) is None
    assert find_universal(catalog("X3", (2, 2, 2, 1, 1, 1))) is None


def test_universal_requires_essential_irreducible_input():
    from multider import Arrangement

    cross = Arrangement(2, [(1, 0), (0, 1)]).with_multiplicity((1, 1))
    with pytest.raises(ArrangementError):
        find_universal(cross)
    tall = Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0)]).with_multiplicity((1, 1, 1))
    with pytest.raises(ArrangementError):
        find_universal(tall)


def test_equal_exponents_make_a2_constant_multiplicity_universal():
    base = catalog("A2", (2, 2, 2))
    assert exponents(base) == (3, 3)
    assert is_k_critical(base.plus_ones(), 4)
    theta = find_universal(base)
    assert theta is not None and theta.homogeneous_degree() == 4


def test_is_universal_rejects_non_universal_members():
    base = catalog("A2", (2, 2, 2))
    theta = find_universal(base)
    # a polynomial multiple is still a member of D(A, m+1) but has the wrong
    # degree, so it cannot induce the isomorphism
    scaled = Derivation(Poly.variable(2, 0) * p for p in theta.coeffs)
    assert membership(scaled, base.plus_ones())
    assert not is_universal(scaled, base)


def test_equal_exponents_without_criticality_fail():
    base = catalog("X3", (2, 2, 2, 1, 1, 1))
    assert exponents(base) == (3, 3, 3)
    assert not is_k_critical(base.plus_ones(), 4)
    assert find_universal(base) is None
    lifted = base.plus_ones()
    k = 0
    while not graded_piece(lifted, k).basis:
        k += 1
    assert not is_universal(graded_piece(lifted, k).basis[0], base)


def test_universal_transport_shifts_zero_one_multiplicities():
    # for universal theta and mu in {0,1}^n, psi -> nabla_psi theta carries
    # D(A, mu) isomorphically onto D(A, m + mu)
    base = catalog("B2", (2, 4, 1, 1))
    theta = find_universal(base)
    for mu in [(1, 0, 1, 1), (0, 1, 0, 0), (1, 1, 1, 1)]:
        source = catalog("B2", mu)
        target = catalog("B2", tuple(a + b for a, b in zip(mu, base.mult)))
        for k in range(3):
            for psi in graded_piece(source, k).basis:
                image = covariant_derivative(psi, theta)
                assert membership(image, target)
        cert = find_free_basis(source)
        images = [covariant_derivative(psi, theta) for psi in cert.basis]
        ok, const = saito_check(images, target)
        assert ok and const != 0


# -- serialization ---------------------------------------------------------


def test_derivation_dict_round_trip():
    theta = Derivation(
        [
            Poly(2, {(2, 0): Fraction(1, 3), (0, 2): -2}),
            Poly(2, {(1, 1): 5}),
        ]
    )
    data = derivation_to_dict(theta)
    assert derivation_from_dict(data) == theta
    import json

    assert derivation_from_dict(json.loads(json.dumps(data))) == theta


def test_derivation_dict_rejects_malformed():
    with pytest.raises(ValueError):
        derivation_from_dict({})
    with pytest.raises(ValueError):
        derivation_from_dict({"coefficients": []})
    with pytest.raises(ValueError):
        derivation_from_dict({"coefficients": [{"0,0": "x"}, {}]})
    with pytest.raises(ValueError):
        derivation_from_dict({"coefficients": [{"0": 1}, {"0,0": 1}]})
    # "01,0" is x too; reading both would silently drop one coefficient
    with pytest.raises(ValueError):
        derivation_from_dict({"coefficients": [{"1,0": 1, "01,0": 2}, {"0,1": 1}]})


def test_derivation_vector_round_trip():
    theta = Derivation(
        [Poly(2, {(2, 0): 3, (1, 1): -1}), Poly(2, {(0, 2): Fraction(1, 2)})]
    )
    vec = theta.coefficient_vector(2)
    assert derivation_from_vector(2, 2, vec) == theta


# -- universality without division ------------------------------------------


def _is_universal_by_division(theta, ma):
    """The slow oracle: l + 1 division memberships and the symbolic determinant."""
    l = ma.nvars
    if l * (theta.homogeneous_degree() - 1) != ma.order():
        return False
    if not membership(theta, ma.plus_ones()):
        return False
    gradients = []
    for i in range(l):
        unit = [Poly.zero(l)] * l
        unit[i] = Poly.constant(l, 1)
        gradients.append(covariant_derivative(Derivation(unit), theta))
    if not all(membership(g, ma) for g in gradients):
        return False
    return bool(saito_determinant(gradients))


UNIVERSALITY_BASES = [
    ("A2", (1, 1, 2)), ("A2", (2, 2, 2)), ("A2", (0, 0, 2)), ("A2", (0, 1, 1)),
    ("A2", (3, 1, 2)), ("A2", (1, 1, 4)), ("A2", (2, 1, 1)), ("A2", (3, 3, 2)),
    ("A2", (4, 1, 1)), ("A2", (2, 2, 4)), ("A2", (0, 0, 4)), ("A2", (0, 2, 4)),
    ("B2", (2, 4, 1, 1)), ("B2", (1, 3, 1, 1)), ("B2", (2, 2, 1, 1)), ("B2", (0, 0, 1, 1)),
    ("B2", (3, 3, 1, 1)), ("B2", (1, 1, 1, 1)), ("B2", (2, 2, 2, 2)), ("B2", (4, 1, 1, 0)),
    ("B2", (1, 1, 2, 2)), ("B2", (3, 1, 1, 1)), ("B2", (0, 0, 0, 2)), ("B2", (0, 0, 2, 2)),
    ("A3", (1, 1, 1, 0, 0, 0)), ("A3", (2, 2, 2, 2, 2, 2)), ("A3", (1, 1, 1, 1, 1, 1)),
    ("A3", (0, 0, 1, 0, 1, 1)), ("A3", (2, 1, 2, 1, 2, 1)), ("A3", (3, 0, 0, 0, 0, 0)),
    ("A3", (0, 0, 0, 0, 0, 6)),
    ("B3", (2, 2, 2, 2, 2, 2, 2, 2, 2)), ("B3", (1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("B3", (1, 1, 1, 1, 1, 1, 0, 0, 0)), ("B3", (0, 0, 0, 0, 0, 0, 0, 0, 3)),
    ("deletedA3", (0, 0, 1, 1, 1)), ("deletedA3", (1, 1, 1, 0, 0)), ("deletedA3", (1, 1, 1, 1, 2)),
    ("deletedA3", (2, 2, 2, 2, 1)), ("deletedA3", (1, 1, 2, 1, 1)),
    ("X3", (0, 0, 0, 0, 0, 0)), ("X3", (2, 2, 2, 1, 1, 1)), ("X3", (1, 1, 1, 1, 1, 1)),
    ("X3", (2, 2, 2, 0, 0, 0)), ("X3", (1, 1, 1, 0, 0, 0)), ("X3", (3, 3, 3, 0, 0, 0)),
]


def _universality_candidates():
    """(m, theta): universal derivations, their multiples of the wrong degree,
    every basis element of D(A, m+1) in the universal degree, and the lowest
    piece of D(A, m+1); in the universal degree also an element of D(A, m)
    and sum_i x_i^deg d/dx_i, whose gradients are independent."""
    out = []
    for name, mult in UNIVERSALITY_BASES:
        ma = catalog(name, mult)
        lifted = ma.plus_ones()
        thetas = []
        found = find_universal(ma)
        if found is not None:
            thetas += [found, found * Poly.variable(ma.nvars, 0),
                       found * Poly.variable(ma.nvars, ma.nvars - 1) ** 2]
        if ma.order() % ma.nvars == 0:
            deg = ma.order() // ma.nvars + 1
            piece = graded_piece(lifted, deg)
            thetas += piece.basis
            if len(piece) > 1:
                thetas.append(piece.element([1] * len(piece)))
            thetas += graded_piece(ma, deg).basis[-1:]
            thetas.append(Derivation(Poly.variable(ma.nvars, i) ** deg for i in range(ma.nvars)))
        k = 0
        while not graded_dimension(lifted, k):
            k += 1
        thetas.append(graded_piece(lifted, k).basis[0])
        out += [(ma, theta) for theta in dict.fromkeys(thetas)]
    return out


def test_is_universal_matches_the_division_oracle(monkeypatch):
    candidates = _universality_candidates()
    assert len(candidates) >= 60
    expected = [_is_universal_by_division(theta, ma) for ma, theta in candidates]
    assert sum(expected) >= 15
    # many negatives reach the determinant: right degree, member of D(A, m+1)
    assert sum(
        not verdict and ma.nvars * (theta.homogeneous_degree() - 1) == ma.order()
        and membership(theta, ma.plus_ones())
        for (ma, theta), verdict in zip(candidates, expected)
    ) >= 10
    # the verdict does not depend on the evaluation point the seed draws
    for seed in (1729, 1, 2):
        monkeypatch.setattr("multider.logder.DEFAULT_SEED", seed)
        assert [is_universal(theta, ma) for ma, theta in candidates] == expected


def test_universality_routes_use_no_division(monkeypatch):
    import multider.logder
    import multider.rank2
    from multider import classify_universal_rank2

    def refuse(*args, **kwargs):
        raise AssertionError("an internal route used division or a symbolic determinant")

    for target in ("multider.logder.membership", "multider.logder.divides_power",
                   "multider.logder.saito_determinant", "multider.polyring.divides_power",
                   "multider.polyring.try_divide_linear"):
        monkeypatch.setattr(target, refuse)
    assert not hasattr(multider.rank2, "membership")
    assert not hasattr(multider.logder, "_coordinate_derivation")
    base = catalog("B2", (2, 4, 1, 1))
    theta = find_universal(base)
    assert theta is not None and is_universal(theta, base)
    assert classify_universal_rank2(base, theta)
    assert not is_universal(theta * Poly.variable(2, 0), base)
    assert find_universal(catalog("A3", (2, 2, 2, 2, 2, 2))) is not None
    assert find_universal(catalog("X3", (2, 2, 2, 1, 1, 1))) is None
