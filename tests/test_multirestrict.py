"""Filtrations, Euler restrictions, the boundary polynomial, supersolvability."""

import itertools
import json
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multider.multirestrict as multirestrict_module
from multider import (
    Arrangement,
    ArrangementError,
    Derivation,
    Filtration,
    FiltrationError,
    HypothesisError,
    InternalCheckError,
    LinearForm,
    Poly,
    b_polynomial,
    catalog,
    catalog_filtration,
    check_supersolvable,
    delta,
    essentialize,
    euler_multiplicity,
    filtration_from_dict,
    filtration_to_dict,
    find_free_basis,
    find_universal,
    graded_dimension,
    graded_piece,
    load_filtration,
    localize,
    membership,
    noncritical_criterion,
    rank2_flats,
    saito_check,
    special_rank2_basis,
    supersolvable_exponents,
    universal_obstruction_report,
)
from multider.polyring import try_divide_linear
from test_rank2 import essential_rank2


# -- filtrations -----------------------------------------------------------


def test_catalog_filtrations_validate():
    for name in ("A3", "B3", "deletedA3", "deletedA3-alt"):
        filt = catalog_filtration(name)
        assert filt.rank == 3
        assert set(filt.levels[-1]) == set(range(len(filt.arrangement.forms)))
    fan = catalog_filtration("fan2d", h=4, slopes=(1, 2, 3, 4))
    assert fan.levels[1] == (0, 1, 2)
    assert set(fan.levels[2]) - set(fan.levels[1]) == {3, 4, 5, 6}


def test_filtration_rejects_bad_levels():
    arr = catalog("A3").arrangement
    with pytest.raises(FiltrationError):
        Filtration(arr, ())
    with pytest.raises(FiltrationError):
        Filtration(arr, ((0,), (0, 9), tuple(range(6))))
    with pytest.raises(FiltrationError):
        Filtration(arr, ((0,), (1, 3), tuple(range(6))))  # not nested
    with pytest.raises(FiltrationError):
        # levels must gain exactly one rank each
        Filtration(arr, ((0,), (0, 1, 2), tuple(range(6))))
    with pytest.raises(FiltrationError):
        Filtration(arr, ((0,), (0, 1)))  # last level incomplete
    with pytest.raises(FiltrationError):
        # hyperplanes y and z appear fresh at the top but meet outside level 2
        Filtration(arr, ((0,), (0, 1), tuple(range(6))))


def test_filtration_accessors():
    filt = catalog_filtration("A3")
    assert filt.levels == ((0,), (0, 1, 3), (0, 1, 2, 3, 4, 5))
    # the hyperplanes new at each level
    levels = [set(), *map(set, filt.levels)]
    assert [new - old for old, new in zip(levels, levels[1:])] == [{0}, {1, 3}, {2, 4, 5}]
    ma = catalog("A3", (2, 2, 2, 1, 1, 1))
    sub = filt.sub_multiarrangement(ma, 2)
    assert sub.mult == (2, 2, 1)
    assert filt.level_order(ma, 2) == 5
    assert filt.level_order(ma, 3) == 9
    with pytest.raises(FiltrationError):
        filt.sub_multiarrangement(catalog("B3"), 2)


def test_filtration_json_round_trip(tmp_path):
    filt = catalog_filtration("deletedA3")
    data = filtration_to_dict(filt)
    assert data == {"filtration": [[3], [1, 2, 3], [0, 1, 2, 3, 4]]}
    assert filtration_from_dict(filt.arrangement, data) == filt
    path = tmp_path / "filt.json"
    path.write_text(json.dumps(data))
    assert load_filtration(filt.arrangement, str(path)) == filt
    with pytest.raises(FiltrationError):
        filtration_from_dict(filt.arrangement, {})
    with pytest.raises(FiltrationError):
        filtration_from_dict(filt.arrangement, {"filtration": "nope"})


# -- special rank-2 basis and Euler multiplicities -------------------------


def _residue_special_basis(ma, alpha0):
    """(theta, psi) from residues on the line alpha0 = 0: the oracle for `special_rank2_basis`.

    Takes the Saito search's free basis (b1, b2), degrees d1 <= d2, on the
    essential model and evaluates both at the point w spanning alpha0 = 0.  A
    basis element with zero residue is already divisible by alpha0;
    otherwise the residues are parallel, r2 = lam r1, and
    b2 - lam (x_j / w_j)^(d2 - d1) b1, with x_j a variable nonzero at w,
    vanishes at w.  Exact division certifies psi; theta must keep a
    coefficient alpha0 does not divide.
    """
    ess, change = essentialize(ma)
    a0 = change.map_form(alpha0)
    cert = find_free_basis(ess)
    assert cert.free
    (b1, b2), (d1, d2) = cert.basis, cert.exponents
    w = a0.kernel_point_2d()
    r1 = tuple(p.evaluate(w) for p in b1.coeffs)
    r2 = tuple(p.evaluate(w) for p in b2.coeffs)
    if not any(r2):
        theta, psi = b1, b2
    elif not any(r1):
        theta, psi = b2, b1
    else:
        assert r1[0] * r2[1] == r1[1] * r2[0], "independent residues leave no special basis"
        i = 0 if r1[0] else 1
        j = next(k for k, v in enumerate(w) if v)
        g = (Poly.variable(2, j) * Fraction(1, w[j])) ** (d2 - d1) * (r2[i] / r1[i])
        theta, psi = b1, b2 - Derivation(g * p for p in b1.coeffs)
    assert all((not p) or try_divide_linear(p, a0) is not None for p in psi.coeffs)
    assert any(p and try_divide_linear(p, a0) is None for p in theta.coeffs)
    return theta, psi


@st.composite
def catalog_localizations(draw):
    """A rank-2 localization of A3, B3 or deletedA3 with multiplicities 0-6."""
    name = draw(st.sampled_from(["A3", "B3", "deletedA3"]))
    n = len(catalog(name).forms)
    ma = catalog(name, tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))))
    return localize(ma, draw(st.sampled_from(rank2_flats(ma.arrangement))))


@settings(max_examples=50, deadline=None)
@given(st.one_of(essential_rank2(), catalog_localizations()))
@example(catalog("A2", (2, 1, 2)))
@example(Arrangement(2, [(1, 0), (0, 1)]).with_multiplicity((3, 0)))
def test_special_rank2_basis_matches_the_residue_oracle(ma):
    ess, change = essentialize(ma)
    for alpha0, m0 in zip(ma.forms, ma.mult):
        if not m0:
            continue
        theta, psi = special_rank2_basis(ma, alpha0)
        expected = _residue_special_basis(ma, alpha0)
        assert (theta.homogeneous_degree(), psi.homogeneous_degree()) == tuple(
            d.homogeneous_degree() for d in expected)
        a0 = change.map_form(alpha0)
        assert all((not p) or try_divide_linear(p, a0) is not None for p in psi.coeffs)
        assert any(p and try_divide_linear(p, a0) is None for p in theta.coeffs)
        ok, const = saito_check([theta, psi], ess)
        assert ok and const != 0


def test_special_rank2_basis_division_certificates():
    ma = catalog("A2", (2, 1, 2))
    alpha0 = ma.forms[0]
    theta, psi = special_rank2_basis(ma, alpha0)
    # psi lands in alpha0 * Der, theta does not
    assert all(
        (not p) or try_divide_linear(p, alpha0) is not None for p in psi.coeffs
    )
    assert any(
        p and try_divide_linear(p, alpha0) is None for p in theta.coeffs
    )
    # together they still form a Saito basis
    ok, const = saito_check([theta, psi], ma)
    assert ok and const != 0
    assert theta.homogeneous_degree() + psi.homogeneous_degree() == ma.order()


def test_special_rank2_basis_on_localizations():
    ma = catalog("A3", (2, 1, 2, 1, 2, 1))
    for fl in rank2_flats(ma.arrangement):
        if 2 not in fl.indices:
            continue
        local = localize(ma, fl)
        theta, psi = special_rank2_basis(local, ma.forms[2])
        ess, change = essentialize(local)
        a0 = change.map_form(ma.forms[2])
        assert all(
            (not p) or try_divide_linear(p, a0) is not None for p in psi.coeffs
        )
        assert membership(theta, ess) and membership(psi, ess)


def test_special_rank2_basis_errors_name_the_instance(monkeypatch):
    # theta is certified by a coefficient nonzero on alpha0 = 0; a step
    # returning psi twice fails that certificate
    real = multirestrict_module._special_basis

    def psi_twice(ma, h):
        _, psi = real(ma, h)
        return psi, psi

    monkeypatch.setattr(multirestrict_module, "_special_basis", psi_twice)
    ma = catalog("B2", (3, 1, 4, 2))
    expected = (r"both basis elements are divisible by the boundary form for forms "
                + re.escape(str([f.primitive for f in ma.forms]))
                + r" with multiplicity \(3, 1, 4, 2\), boundary form \(0, 1\)")
    with pytest.raises(InternalCheckError, match=expected):
        special_rank2_basis(ma, ma.forms[1])


def test_special_rank2_basis_input_validation():
    ma = catalog("A2", (1, 1, 1))
    with pytest.raises(ArrangementError):
        special_rank2_basis(ma, LinearForm((1, 5)))
    with pytest.raises(ArrangementError):
        special_rank2_basis(catalog("A3"), catalog("A3").forms[0])


def test_euler_multiplicity_a3_example():
    ma = catalog("A3", (2, 2, 2, 1, 1, 1)).plus_delta(2)
    out = euler_multiplicity(ma, 2)
    assert out.mu_values() == (3, 3, 1)
    assert out.order() == 7
    assert [fr.flat.indices for fr in out.flats] == [(0, 2, 4), (1, 2, 5), (2, 3)]


@st.composite
def restriction_instances(draw):
    name = draw(st.sampled_from(["A3", "X3", "deletedA3", "B3"]))
    n = len(catalog(name).forms)
    mult = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    h0 = draw(st.integers(0, n - 1))
    mult[h0] = max(mult[h0], 1)
    return catalog(name, tuple(mult)), h0


@given(restriction_instances())
@settings(max_examples=100, deadline=None)
def test_euler_multiplicity_matches_special_basis_degrees(instance):
    # the order-basis step against the residue construction of the witnesses
    ma, h0 = instance
    out = euler_multiplicity(ma, h0)
    assert [fr.flat.indices for fr in out.flats] == [
        fl.indices for fl in rank2_flats(ma.arrangement) if h0 in fl.indices]
    for fr in out.flats:
        local = localize(ma, fr.flat)
        theta, psi = _residue_special_basis(local, ma.forms[h0])
        assert fr.local_order == local.order()
        assert fr.mu == theta.homogeneous_degree()
        assert fr.local_order - fr.mu == psi.homogeneous_degree()


def test_zero_multiplicity_at_the_restriction_hyperplane_is_a_hypothesis_error():
    # Q(A, m) is then nonzero on alpha0 = 0, so no basis element divides
    ma = catalog("A2", (0, 1, 1))
    with pytest.raises(HypothesisError):
        euler_multiplicity(ma, 0)
    with pytest.raises(HypothesisError):
        special_rank2_basis(ma, ma.forms[0])
    assert euler_multiplicity(ma, 1).mu_values() == (1,)


def test_restriction_paths_read_exponent_pairs_only(monkeypatch):
    # the restriction paths read the degrees of the order-basis step and
    # build no derivations from it, and the criterion's only basis search is
    # the rank-3 one for its exponents
    def forbidden(*args, **kwargs):
        raise AssertionError("special_rank2_basis called")

    searches = []
    real = multirestrict_module.find_free_basis

    def counted(ma, *args, **kwargs):
        searches.append(ma.mult)
        return real(ma, *args, **kwargs)

    def no_delta(*args, **kwargs):
        raise AssertionError("delta called")

    monkeypatch.setattr(multirestrict_module, "special_rank2_basis", forbidden)
    monkeypatch.setattr(multirestrict_module, "find_free_basis", counted)
    monkeypatch.setattr(multirestrict_module, "delta", no_delta)
    ma = catalog("A3", (2, 2, 2, 1, 1, 1))
    assert euler_multiplicity(ma.plus_delta(2), 2).mu_values() == (3, 3, 1)
    assert b_polynomial(ma, 2).m0 == 3
    # the witnesses themselves come from the same step, with no basis search
    special_rank2_basis(localize(ma, rank2_flats(ma.arrangement)[0]), ma.forms[0])
    assert searches == []
    fan = catalog("fan2d", (4, 2, 1, 1, 1, 1, 1), h=4, slopes=(1, 2, 3, 4))
    assert noncritical_criterion(fan, 3)
    assert searches == [fan.mult]


def test_euler_multiplicity_index_validation():
    with pytest.raises(ArrangementError):
        euler_multiplicity(catalog("A2"), 5)


def _euler_restriction(ma, h0):
    """(A'', m*): each flat through H0 as a line of H0, with its Euler multiplicity.

    Coordinates on H0 = ker alpha0 are the integer kernel vectors
    alpha0_i e_j - alpha0_j e_i for the first nonzero coordinate i and each
    j != i; a flat's line is any other hyperplane through it, restricted.
    """
    alpha0 = ma.forms[h0].primitive
    i = next(j for j, a in enumerate(alpha0) if a)
    frame = [[alpha0[i] * (c == j) - alpha0[j] * (c == i) for c in range(len(alpha0))]
             for j in range(len(alpha0)) if j != i]
    restriction = euler_multiplicity(ma, h0)
    lines = []
    for fr in restriction.flats:
        form = ma.forms[next(idx for idx in fr.flat.indices if idx != h0)].primitive
        lines.append([sum(a * u for a, u in zip(form, vec)) for vec in frame])
    return Arrangement(2, lines).with_multiplicity(restriction.mu_values())


@st.composite
def addition_deletion_points(draw):
    name = draw(st.sampled_from(["A3", "X3", "deletedA3", "B3"]))
    n = len(catalog(name).forms)
    top = 2 if name == "B3" else 3
    return catalog(name, tuple(draw(st.lists(st.integers(0, top), min_size=n, max_size=n))))


@given(addition_deletion_points())
@settings(max_examples=60, deadline=None)
def test_addition_deletion_decides_freeness_of_the_raised_multiplicity(ma):
    # Abe-Terao-Wakefield addition-deletion (J. London Math. Soc. 2008): with
    # m - delta_0 free with exponents E' and the Euler restriction free with
    # exponents E'', m is free with exponents E'' + {x + 1} when E'' is E'
    # less one exponent x, and not free otherwise.  Caches stay warm from
    # one H0 to the next, so the graded solves cross the restricted route.
    free = find_free_basis(ma)
    for h0, m0 in enumerate(ma.mult):
        if not m0:
            continue
        lowered = find_free_basis(ma.with_mult(ma.mult[:h0] + (m0 - 1,) + ma.mult[h0 + 1:]))
        if not lowered.free:
            continue
        restricted = delta(_euler_restriction(ma, h0)).pair
        left = Counter(lowered.exponents) - Counter(restricted)
        if sum(left.values()) == 1 and not Counter(restricted) - Counter(lowered.exponents):
            (x,) = left
            assert free.free and free.exponents == tuple(sorted((*restricted, x + 1)))
        else:
            assert not free.free


# -- boundary polynomial ---------------------------------------------------


def _quotient_remainder_test(ma, h0, bdata, theta):
    """theta(alpha0) in (alpha0^{m0}, B), checked by hand in the quotient ring."""
    alpha0 = ma.forms[h0]
    value = theta.apply_form(alpha0)
    # divide out the guaranteed alpha0^{m0-1}
    q = value
    for _ in range(bdata.m0 - 1):
        q = try_divide_linear(q, alpha0)
        assert q is not None
    # reduce modulo alpha0 by substituting out the pivot variable
    l = q.nvars
    pivot = next(i for i, c in enumerate(alpha0.coeffs) if c)
    matrix = [
        [1 if r == c else 0 for c in range(l)] for r in range(l)
    ]
    for j in range(l):
        matrix[pivot][j] = 0 if j == pivot else -alpha0.coeffs[j]
    qbar = q.substitute(matrix)
    # membership now means the product of restricted factor forms divides qbar
    for factor in bdata.factors:
        form = ma.forms[factor.chosen]
        restricted = form.as_poly().substitute(matrix)
        coeffs = [restricted.terms.get(tuple(1 if k == j else 0 for k in range(l)), 0) for j in range(l)]
        rform = LinearForm(coeffs)
        for _ in range(factor.d_x - bdata.m0):
            if not qbar:
                break
            qbar = try_divide_linear(qbar, rform)
            if qbar is None:
                return False
    return True


@pytest.mark.parametrize(
    "name,mult,h0",
    [
        ("A3", (2, 2, 2, 1, 1, 1), 2),
        ("A3", (1, 1, 1, 1, 1, 1), 0),
        ("deletedA3", (1, 1, 2, 1, 1), 2),
    ],
)
def test_boundary_polynomial_gates_module_values(name, mult, h0):
    ma = catalog(name, mult)
    bdata = b_polynomial(ma, h0)
    assert bdata.m0 == mult[h0] + 1
    assert bdata.polynomial.homogeneous_degree() == bdata.degree()
    checked = 0
    for k in range(bdata.degree() + 2):
        for theta in graded_piece(ma, k).basis:
            assert _quotient_remainder_test(ma, h0, bdata, theta)
            checked += 1
    assert checked > 0


def test_boundary_degree_gate_forces_next_membership():
    # any member of degree below deg B already lies in the raised module;
    # the concentrated multiplicity leaves plenty of low-degree members
    ma = catalog("A3", (1, 1, 5, 1, 1, 1))
    h0 = 2
    bdata = b_polynomial(ma, h0)
    bumped = ma.plus_delta(h0)
    found = 0
    for k in range(bdata.degree()):
        for theta in graded_piece(ma, k).basis:
            assert membership(theta, bumped)
            found += 1
    assert found > 0


def test_local_exponents_match_saito_search():
    # `delta` reads each localization's pair off an order basis; the basis
    # search on the essentialized localization must agree
    for name, mult in [("A3", (2, 2, 2, 1, 1, 1)), ("deletedA3", (1, 1, 2, 1, 1)),
                       ("B3", (1, 2, 3, 1, 0, 2, 1, 1, 1))]:
        ma = catalog(name, mult)
        for fl in rank2_flats(ma.arrangement):
            cert = find_free_basis(essentialize(localize(ma, fl))[0])
            assert delta(localize(ma, fl)).pair == cert.exponents, (name, fl.indices)


def test_boundary_factor_identity():
    # each factor exponent is the degree of psi in the special basis of the
    # raised localization, built independently from residues
    ma = catalog("A3", (2, 2, 2, 1, 1, 1))
    h0 = 2
    bdata = b_polynomial(ma, h0)
    bumped = ma.plus_delta(h0)
    flats = [fl for fl in rank2_flats(ma.arrangement) if h0 in fl.indices]
    assert [f.flat for f in bdata.factors] == flats
    for factor in bdata.factors:
        theta, psi = _residue_special_basis(localize(bumped, factor.flat), ma.forms[h0])
        assert factor.d_x == psi.homogeneous_degree()
        local_total = sum(bumped.mult[i] for i in factor.flat.indices)
        assert factor.d_x + theta.homogeneous_degree() == local_total


# -- non-criticality -------------------------------------------------------


def test_noncritical_criterion_fan():
    ma = catalog("fan2d", (4, 2, 1, 1, 1, 1, 1), h=4, slopes=(1, 2, 3, 4))
    cert = find_free_basis(ma)
    assert cert.free
    d1 = cert.exponents[0]
    for h in range(3, 7):
        assert noncritical_criterion(ma, h)
        # the criterion promises a surviving low-degree element
        assert graded_dimension(ma.plus_delta(h), d1) > 0


def test_noncritical_criterion_false_case():
    ma = catalog("fan2d", (6, 3, 3, 1, 1, 1, 1), h=4, slopes=(1, 2, 3, 4))
    assert not noncritical_criterion(ma, 3)


def test_noncritical_criterion_hypotheses():
    with pytest.raises(HypothesisError):
        noncritical_criterion(catalog("B2"), 0)
    with pytest.raises(HypothesisError):
        noncritical_criterion(catalog("X3", (2, 2, 2, 2, 2, 2)), 0)


# -- supersolvable formula and obstructions --------------------------------


def test_check_supersolvable():
    filt = catalog_filtration("A3")
    assert check_supersolvable(catalog("A3", (2, 2, 2, 1, 1, 1)), filt)
    assert check_supersolvable(catalog("A3"), filt)
    fan_filt = catalog_filtration("fan2d", h=4, slopes=(1, 2, 3, 4))
    fan_ok = catalog("fan2d", (4, 2, 1, 1, 1, 1, 1), h=4, slopes=(1, 2, 3, 4))
    fan_bad = catalog("fan2d", (2, 2, 1, 1, 1, 1, 1), h=4, slopes=(1, 2, 3, 4))
    assert check_supersolvable(fan_ok, fan_filt)
    assert not check_supersolvable(fan_bad, fan_filt)
    # a flat with three hyperplanes fresh at the top level needs the older
    # member to carry multiplicity at least two
    assert not check_supersolvable(catalog("B3"), catalog_filtration("B3"))
    assert check_supersolvable(
        catalog("B3", (2, 2, 2, 2, 1, 1, 1, 1, 1)), catalog_filtration("B3")
    )
    with pytest.raises(FiltrationError):
        check_supersolvable(catalog("B3"), filt)


def test_supersolvable_exponents_match_saito_search():
    cases = [
        ("A3", (2, 2, 2, 1, 1, 1), {}),
        ("A3", (1, 1, 1, 1, 1, 1), {}),
        ("B3", (2, 2, 2, 2, 1, 1, 1, 1, 1), {}),
        ("fan2d", (4, 2, 1, 1, 1, 1, 1), dict(h=4, slopes=(1, 2, 3, 4))),
        ("fan2d", (6, 3, 3, 1, 1, 1, 1), dict(h=4, slopes=(1, 2, 3, 4))),
    ]
    for name, mult, params in cases:
        ma = catalog(name, mult, **params)
        filt = catalog_filtration(name, **params)
        formula = supersolvable_exponents(ma, filt)
        cert = find_free_basis(ma)
        assert cert.free
        assert sorted(formula) == list(cert.exponents)


def test_supersolvable_exponents_a3_example():
    ma = catalog("A3", (2, 2, 2, 1, 1, 1))
    assert supersolvable_exponents(ma, catalog_filtration("A3")) == (2, 3, 4)


def test_supersolvable_exponents_rejects_failing_multiplicity():
    fan_filt = catalog_filtration("fan2d", h=4, slopes=(1, 2, 3, 4))
    fan_bad = catalog("fan2d", (2, 2, 1, 1, 1, 1, 1), h=4, slopes=(1, 2, 3, 4))
    with pytest.raises(FiltrationError):
        supersolvable_exponents(fan_bad, fan_filt)


def test_obstruction_report_passing_point():
    ma = catalog("A3", (2, 2, 2, 1, 1, 1))
    report = universal_obstruction_report(ma, catalog_filtration("A3"))
    assert report.passes() and report.failed() == ()
    assert report.universal is not None
    assert report.universal.homogeneous_degree() == 2
    theta = find_universal(catalog("A3", (1, 1, 1, 0, 0, 0)))
    assert theta == report.universal


def test_obstruction_report_failing_points():
    filt = catalog_filtration("A3")
    ma = catalog("A3", (2, 2, 1, 1, 1, 1))
    report = universal_obstruction_report(ma, filt)
    assert not report.passes()
    assert report.failed()
    assert report.universal is None
    # a failing report really means no universal derivation for the base
    base = catalog("A3", tuple(v - 1 for v in ma.mult))
    assert find_universal(base) is None


def test_obstruction_report_takes_no_seed():
    with pytest.raises(TypeError):
        universal_obstruction_report(catalog("A3", (2, 2, 2, 1, 1, 1)), catalog_filtration("A3"), seed=1)


def test_obstruction_report_requires_positive_input():
    filt = catalog_filtration("A3")
    with pytest.raises(ArrangementError):
        universal_obstruction_report(catalog("A3", (1, 1, 1, 0, 0, 0)), filt)


def test_obstruction_report_b3_never_passes_simple():
    ma = catalog("B3", (2, 2, 2, 2, 1, 1, 1, 1, 1))
    filt = catalog_filtration("B3")
    assert check_supersolvable(ma, filt)
    report = universal_obstruction_report(ma, filt)
    assert not report.passes()
    assert "rank2_equal" in report.failed()
