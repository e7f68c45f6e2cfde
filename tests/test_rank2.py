"""Rank-two lattice: exponent gaps, peak points, closed forms, universality."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multider import (
    Arrangement,
    ArrangementError,
    HypothesisError,
    InternalCheckError,
    Multiarrangement,
    catalog,
    classify_component,
    classify_universal_rank2,
    clear_caches,
    delta,
    essentialize,
    find_free_basis,
    find_universal,
    graded_dimension,
    graded_piece,
    is_balanced,
    lattice_distance,
    localize,
    rank2_flats,
    saito_determinant,
    wakamiko_exponents,
)
from multider import cache
from multider.cache import rows_bytes, store

from conftest import basis_getsizeof, stored_sizes


def test_is_balanced():
    assert not is_balanced(catalog("A2", (1, 1, 5)))
    assert is_balanced(catalog("B2", (3, 5, 2, 2)))
    assert is_balanced(catalog("A2", (0, 0, 0)))
    assert is_balanced(catalog("A2", (1, 1, 2)))
    assert not is_balanced(catalog("A2", (1, 1, 3)))


def test_delta_known_pairs():
    assert delta(catalog("A2", (1, 1, 1))).pair == (1, 2)
    assert delta(catalog("A2", (2, 2, 2))).delta == 0
    assert delta(catalog("A2", (1, 1, 5))).pair == (2, 5)
    dv = delta(catalog("B2", (3, 5, 2, 2)))
    assert dv.pair == (5, 7) and dv.delta == 2 and dv.order() == 12


def test_delta_accepts_embedded_rank2():
    tall = Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0)]).with_multiplicity(
        (1, 1, 1)
    )
    assert delta(tall).pair == (1, 2)
    with pytest.raises(ArrangementError):
        delta(catalog("A3"))


def test_delta_value_validates_order():
    from multider import DeltaValue

    with pytest.raises(ValueError):
        DeltaValue(3, 1)


def test_wakamiko_closed_form():
    assert wakamiko_exponents(2, 2, 2) == (3, 3)
    assert wakamiko_exponents(1, 1, 5) == (2, 5)
    assert wakamiko_exponents(2, 2, 3) == (3, 4)
    assert wakamiko_exponents(0, 0, 0) == (0, 0)
    with pytest.raises(HypothesisError):
        wakamiko_exponents(3, 1, 2)
    with pytest.raises(HypothesisError):
        wakamiko_exponents(-1, 0, 0)


def test_wakamiko_matches_linear_algebra_small():
    # the three lines of A2 are permuted by linear maps, so the pair depends
    # only on the sorted multiplicities
    for mult in itertools.product(range(7), repeat=3):
        closed = wakamiko_exponents(*sorted(mult))
        assert closed == delta(catalog("A2", mult)).pair, mult


def _direction(v):
    g = math.gcd(*v)
    prim = tuple(c // g for c in v)
    return max(prim, tuple(-c for c in prim))


def _independent(u, v):
    return any(u[i] * v[j] != u[j] * v[i] for i, j in itertools.combinations(range(len(u)), 2))


_LINE = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)


@st.composite
def rank2_multiarrangements(draw, nvars):
    """Rank-2 multiarrangements with 2-6 lines, written in `nvars` variables.

    With three variables the lines live on a random plane: each form a*u + b*v
    for an independent pair u, v, so `delta` has to essentialize first.
    """
    lines = draw(st.lists(_LINE, min_size=2, max_size=6, unique_by=_direction))
    n = len(lines)
    shape = draw(st.sampled_from(("any", "zero", "single")))
    if shape == "any":
        mult = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    else:
        mult = [0] * n
        if shape == "single":
            mult[draw(st.integers(0, n - 1))] = draw(st.integers(1, 6))
    if nvars == 2:
        forms = lines
    else:
        vec = st.tuples(*[st.integers(-2, 2)] * nvars)
        u = draw(vec.filter(any))
        v = draw(vec.filter(lambda w: _independent(u, w)))
        forms = [tuple(a * x + b * y for x, y in zip(u, v)) for a, b in lines]
    return Arrangement(nvars, forms).with_multiplicity(mult)


@settings(max_examples=90, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(rank2_multiarrangements))
@example(Arrangement(2, [(1, 0), (0, 1)]).with_multiplicity((0, 0)))
@example(Arrangement(2, [(1, 0), (0, 1), (1, 1)]).with_multiplicity((0, 5, 0)))
def test_delta_matches_saito_search(ma):
    cert = find_free_basis(essentialize(ma)[0])
    assert cert.free
    assert delta(ma).pair == cert.exponents


def _graded_delta(ma):
    """The exponent pair from one exact graded dimension: the oracle for `delta`.

    D(A, m) is free with exponents d1 <= d2 summing to |m|, so at
    k = ceil(|m|/2) - 1 only d1 contributes and dim D(A, m)_k = ceil(|m|/2) - d1.
    """
    ess = essentialize(ma)[0]
    total = ess.order()
    half = (total + 1) // 2
    d1 = half - graded_dimension(ess, half - 1)
    return (d1, total - d1)


def test_delta_runs_no_graded_solve_and_no_basis_search(monkeypatch):
    import multider.graded
    import multider.logder
    import multider.rank2

    def forbidden(*args, **kwargs):
        raise AssertionError("delta reached the graded engine or a Saito basis search")

    clear_caches()
    monkeypatch.setattr(multider.graded._Engine, "basis", forbidden)
    monkeypatch.setattr(multider.graded, "graded_dimension", forbidden)
    monkeypatch.setattr(multider.logder, "graded_dimension", forbidden)
    monkeypatch.setattr(multider.logder, "find_free_basis", forbidden)
    assert delta(catalog("B2", (3, 5, 2, 2))).pair == (5, 7)
    assert delta(catalog("A2", (1, 1, 5))).pair == (2, 5)
    # the walk reads order bases of multiplicity tuples: no delta call and
    # no Multiarrangement per neighbour
    start = catalog("B2", (3, 4, 2, 2))
    built = []
    real_init = Multiarrangement.__init__
    monkeypatch.setattr(multider.rank2, "delta", forbidden)
    monkeypatch.setattr(Multiarrangement, "__init__",
                        lambda self, *args: built.append(args) or real_init(self, *args))
    assert classify_component(start).peak == (3, 5, 2, 2)
    assert built == []


def test_delta_rejects_impossible_exponents(monkeypatch):
    import multider.rank2

    # a step value that never vanishes always multiplies the lower element,
    # so the degrees stay balanced, d1 = floor(|m|/2); a dominated
    # multiplicity has exponents (|m| - m(H), m(H)), so d1 = |m| - m(H) is
    # the only value the range check lets through
    monkeypatch.setattr(multider.rank2, "_step_value", lambda theta, form, j: 1)
    for mult, lo in (((1, 1, 5), 2), ((1, 5, 1), 2), ((7, 1, 2, 2), 5)):
        clear_caches()
        name = "A2" if len(mult) == 3 else "B2"
        with pytest.raises(InternalCheckError, match=rf"outside \[{lo}, {lo}\]"):
            delta(catalog(name, mult))
    clear_caches()


def test_both_vanishing_step_values_name_the_step(monkeypatch):
    import multider.rank2

    clear_caches()
    monkeypatch.setattr(multider.rank2, "_step_value", lambda theta, form, j: 0)
    with pytest.raises(InternalCheckError) as info:
        delta(catalog("B2", (0, 0, 1, 0)))
    message = str(info.value)
    assert "degrees [0, 0]" in message
    assert "stepping hyperplane 2 from multiplicity (0, 0, 0, 0)" in message
    assert str([f.primitive for f in catalog("B2").forms]) in message
    clear_caches()


@st.composite
def essential_rank2(draw):
    """Three to six lines a x + b y with a, b in -5..5 and multiplicities 0-8."""
    line = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any)
    lines = draw(st.lists(line, min_size=3, max_size=6, unique_by=_direction))
    mult = draw(st.lists(st.integers(0, 8), min_size=len(lines), max_size=len(lines)))
    return Arrangement(2, lines).with_multiplicity(mult)


@settings(max_examples=40, deadline=None)
@given(essential_rank2())
@example(Arrangement(2, [(1, 0), (0, 1), (1, 1)]).with_multiplicity((0, 8, 0)))
@example(Arrangement(2, [(3, -5), (1, 4), (2, 5), (0, 1)]).with_multiplicity((8, 0, 0, 1)))
def test_delta_matches_the_graded_route(ma):
    clear_caches()
    assert delta(ma).pair == _graded_delta(ma)
    # warm: the box one below m in grid order, each point stepping from cached
    # neighbours
    clear_caches()
    box = [range(max(v - 1, 0), v + 1) for v in ma.mult]
    for mult in itertools.product(*box):
        point = ma.with_mult(mult)
        assert delta(point).pair == _graded_delta(point), mult


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("A3", "B3", "deletedA3")).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(st.integers(0, 8), min_size=len(catalog(name).forms),
                                                   max_size=len(catalog(name).forms)))))
def test_delta_matches_the_graded_route_on_localizations(case):
    name, mult = case
    ma = catalog(name, mult)
    clear_caches()
    for flat in rank2_flats(ma.arrangement):
        local = essentialize(localize(ma, flat))[0]
        assert delta(local).pair == _graded_delta(local), flat.indices


def test_steps_past_the_degree_read_zero(monkeypatch):
    import multider.rank2

    real = multider.rank2._step_value
    past = []

    def spy(theta, form, j):
        value = real(theta, form, j)
        if j > len(theta[0]) - 1:
            past.append(value)
        return value

    monkeypatch.setattr(multider.rank2, "_step_value", spy)
    clear_caches()
    for mult in ((0, 8, 0), (2, 8, 1), (8, 0, 0)):
        ma = catalog("A2", mult)
        assert delta(ma).pair == _graded_delta(ma)
    # theta(alpha) of degree below j is divisible by alpha^j only as zero
    assert past and not any(past)


def test_queries_step_from_cached_neighbours(monkeypatch):
    import multider.rank2

    steps = []
    real = multider.rank2._step

    def counted(basis, forms, mult, h):
        steps.append((mult, h))
        return real(basis, forms, mult, h)

    monkeypatch.setattr(multider.rank2, "_step", counted)
    clear_caches()
    # cold: one chain up from zero, every point on it cached
    assert delta(catalog("B2", (3, 1, 2, 2))).pair == (3, 5)
    assert len(steps) == len(store) == 8
    steps.clear()
    # (3, 1, 3, 2) - delta_2 is cached: one step, and a repeat takes none
    assert delta(catalog("B2", (3, 1, 3, 2))).pair == (4, 5)
    assert delta(catalog("B2", (3, 1, 3, 2))).pair == (4, 5)
    assert steps == [((3, 1, 2, 2), 2)]
    clear_caches()


def test_order_basis_cache_stays_bounded(monkeypatch):
    # the B2 grid with |m| <= 20 holds 10,625 bases of about 16 MiB, the A2
    # chain to (400, 400, 401) 1,201 of more than 64 MiB; under an 8 MiB
    # budget each must be evicted down to it, newest kept
    budget = 8 * 2**20
    monkeypatch.setattr(cache, "_CACHE_BYTES", budget)
    for name, grid in (("B2", [m for m in itertools.product(range(21), repeat=4) if sum(m) <= 20]),
                       ("A2", [(400, 400, 401)])):
        clear_caches()
        for mult in grid:
            delta(catalog(name, mult))
        assert store.nbytes == sum(stored_sizes())
        assert budget - 2**20 < store.nbytes <= budget
        assert list(store)[-1] == (catalog(name).arrangement, grid[-1])
    # the size counted is at least what sys.getsizeof reports
    for key in store:
        first, second = store.peek(key)
        assert rows_bytes(first + second) >= basis_getsizeof(first + second)
    clear_caches()
    assert len(store) == store.nbytes == 0


def test_long_chains_need_no_recursion():
    # a cold query walks 1,201 steps up from zero in one loop
    clear_caches()
    assert delta(catalog("A2", (400, 400, 401))).pair == (600, 601) == wakamiko_exponents(400, 400, 401)
    clear_caches()


def test_special_basis_needs_a_positive_multiplicity():
    # m - delta_h would have a negative entry, from which the order-basis
    # walk never reaches zero
    from multider.rank2 import _special_basis

    clear_caches()
    for mult, h in (((0, 1, 1), 0), ((2, 0, 3), 1)):
        with pytest.raises(HypothesisError, match=f"hyperplane {h} needs m"):
            _special_basis(catalog("A2", mult), h)
    assert len(store) == 0
    theta, psi = _special_basis(catalog("A2", (2, 1, 3)), 1)
    assert len(theta[0]) + len(psi[0]) - 2 == 6
    clear_caches()


def test_lattice_distance():
    assert lattice_distance((1, 2, 3), (1, 2, 3)) == 0
    assert lattice_distance((3, 5, 2, 2), (2, 4, 1, 1)) == 4
    m = (2, 4, 1, 1)
    plus_ones = tuple(v + 1 for v in m)
    plus_delta = (3, 4, 1, 1)
    assert lattice_distance(plus_ones, plus_delta) == len(m) - 1
    with pytest.raises(ArrangementError):
        lattice_distance((1, 2), (1, 2, 3))


def test_classify_component_unbalanced_ray():
    out = classify_component(catalog("A2", (1, 1, 5)))
    assert out.infinite and out.dominant == 2
    assert out.peak is None and out.path == ((1, 1, 5),)


def test_classify_component_peaks():
    out = classify_component(catalog("A2", (3, 2, 2)))
    assert not out.infinite
    assert out.peak == (3, 2, 2) and out.peak_delta == 1 and out.distance == 0
    out = classify_component(catalog("B2", (3, 5, 2, 2)))
    assert out.peak == (3, 5, 2, 2) and out.peak_delta == 2 and out.distance == 0


def test_classify_component_gap_jump_names_the_step(gap_jumps):
    start = (3, 4, 2, 2)
    gap_jumps(start)
    with pytest.raises(InternalCheckError) as info:
        classify_component(catalog("B2", start))
    message = str(info.value)
    # the first balanced neighbour, (4, 4, 2, 2), jumps from gap 1 to gap 5
    assert "gap moved by more than one step" in message
    assert "from 1 at multiplicity (3, 4, 2, 2) to 5 at (4, 4, 2, 2)" in message
    assert str([f.primitive for f in catalog("B2").forms]) in message


def test_classify_component_walks_uphill():
    out = classify_component(catalog("B2", (3, 4, 2, 2)))
    assert not out.infinite
    assert out.peak == (3, 5, 2, 2) and out.peak_delta == 2
    assert out.path[0] == (3, 4, 2, 2) and out.path[-1] == out.peak
    assert len(out.path) == out.distance + 1 == 2
    start_delta = delta(catalog("B2", (3, 4, 2, 2))).delta
    assert start_delta == out.peak_delta - out.distance
    # every step of the witness path moves distance 1 and raises the gap by 1
    for a, b in zip(out.path, out.path[1:]):
        assert lattice_distance(a, b) == 1
        assert delta(catalog("B2", b)).delta == delta(catalog("B2", a)).delta + 1


def test_classify_component_rejects_zero_gap():
    with pytest.raises(HypothesisError):
        classify_component(catalog("A2", (2, 2, 2)))


def test_balanced_bound_and_step_law_small_grid():
    n = 3
    cache = {}

    def gap(mult):
        if mult not in cache:
            cache[mult] = delta(catalog("A2", mult)).delta
        return cache[mult]

    for mult in itertools.product(range(4), repeat=n):
        g = gap(mult)
        if is_balanced(catalog("A2", mult)):
            assert g <= n - 2
        for i in range(n):
            bumped = tuple(v + (1 if j == i else 0) for j, v in enumerate(mult))
            assert abs(gap(bumped) - g) == 1


def test_unbalanced_exponents_closed_form():
    for mult in [(1, 1, 5), (0, 2, 7), (6, 1, 2, 2), (1, 8, 2, 3)]:
        name = "A2" if len(mult) == 3 else "B2"
        ma = catalog(name, mult)
        if is_balanced(ma):
            continue
        m0 = max(mult)
        assert delta(ma).pair == (sum(mult) - m0, m0)


def test_lower_element_kill():
    # balanced with a gap: the low-degree basis element vanishes nowhere;
    # unbalanced: it vanishes exactly on the dominating form
    for name, mult in [("A2", (3, 2, 2)), ("B2", (3, 5, 2, 2)), ("B2", (3, 4, 2, 2))]:
        ma = catalog(name, mult)
        assert is_balanced(ma) and delta(ma).delta != 0
        cert = find_free_basis(ma)
        low = cert.basis[0]
        assert all(low.apply_form(f) for f in ma.forms)
    for name, mult in [("A2", (1, 1, 5)), ("B2", (6, 1, 2, 2))]:
        ma = catalog(name, mult)
        assert not is_balanced(ma)
        cert = find_free_basis(ma)
        low = cert.basis[0]
        dom = max(range(len(mult)), key=lambda i: mult[i])
        assert not low.apply_form(ma.forms[dom])


def test_lower_elements_of_distinct_components_are_independent():
    # peaks at lattice distance two live in different components; their
    # low-degree elements are independent over the polynomial ring
    a = classify_component(catalog("A2", (3, 2, 2)))
    b = classify_component(catalog("A2", (2, 3, 2)))
    assert a.peak != b.peak
    assert lattice_distance(a.peak, b.peak) == 2
    low_a = find_free_basis(catalog("A2", a.peak)).basis[0]
    low_b = find_free_basis(catalog("A2", b.peak)).basis[0]
    assert saito_determinant([low_a, low_b])


def test_component_law_with_sampling():
    rng = random.Random(7)
    for name, mult in [("B2", (3, 5, 2, 2)), ("B2", (3, 4, 2, 2)), ("A2", (3, 2, 2))]:
        out = classify_component(catalog(name, mult))
        assert not out.infinite
        peak, peak_delta = out.peak, out.peak_delta
        assert delta(catalog(name, mult)).delta == peak_delta - out.distance
        n = len(peak)
        for _ in range(5):
            budget = rng.randrange(peak_delta)
            point = list(peak)
            spent = 0
            while spent < budget:
                i = rng.randrange(n)
                step = rng.choice((1, -1))
                if point[i] + step < 0:
                    continue
                point[i] += step
                spent += 1
            moved = lattice_distance(peak, tuple(point))
            if moved == 0:
                continue
            got = delta(catalog(name, tuple(point))).delta
            assert got == peak_delta - moved


def test_classify_universal_examples():
    base = catalog("B2", (2, 4, 1, 1))
    theta = find_universal(base)
    assert classify_universal_rank2(base, theta)
    # odd total: the lowest-degree element never attains the exponent gap
    odd_base = catalog("B2", (2, 3, 1, 1))
    lifted = odd_base.plus_ones()
    k = 0
    while not graded_piece(lifted, k).basis:
        k += 1
    low = graded_piece(lifted, k).basis[0]
    assert not classify_universal_rank2(odd_base, low)


def test_classify_universal_agrees_with_direct_check():
    from multider import is_universal

    for mult in itertools.product(range(3), repeat=3):
        ma = catalog("A2", mult)
        if not is_balanced(ma):
            continue
        lifted = ma.plus_ones()
        k = 0
        while not graded_piece(lifted, k).basis:
            k += 1
        low = graded_piece(lifted, k).basis[0]
        assert classify_universal_rank2(ma, low) == is_universal(low, ma)


def test_classify_universal_hypothesis_errors():
    from multider import MembershipError, euler_derivation

    with pytest.raises(HypothesisError):
        classify_universal_rank2(catalog("A3"), euler_derivation(3))
    with pytest.raises(HypothesisError):
        # three lines with an unbalanced base is outside the theorem
        ma = catalog("A2", (1, 1, 5))
        classify_universal_rank2(ma, euler_derivation(2))
    cross = Arrangement(2, [(1, 0), (0, 1)]).with_multiplicity((1, 1))
    with pytest.raises(HypothesisError):
        classify_universal_rank2(cross, euler_derivation(2))
    with pytest.raises(MembershipError):
        ma = catalog("B2", (2, 4, 1, 1))
        bad = graded_piece(ma.plus_ones(), 5)
        from multider import Derivation, Poly

        outsider = Derivation([Poly.constant(2, 1), Poly.zero(2)])
        classify_universal_rank2(ma, outsider)
