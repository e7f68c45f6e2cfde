"""Arrangements, flats, localization, essentialization, catalog, JSON I/O."""

import dataclasses
import functools
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multider.arrangement as arrangement_module
import multider.linalg as linalg_module
import multider.sweep as sweep_module
from multider import (
    Arrangement,
    ArrangementError,
    Flat,
    LinearForm,
    Multiarrangement,
    Poly,
    catalog,
    defining_polynomial,
    delete,
    dump_multiarrangement,
    essentialize,
    flat_of,
    index_symmetries,
    irreducible_component_count,
    is_essential,
    load_multiarrangement,
    localize,
    multiarrangement_from_dict,
    multiarrangement_to_dict,
    rank2_flats,
)
from multider.linalg import primitive_integer_vector

from test_linalg import _fraction_rank, oracle_rref

CATALOG_SIZES = {
    "A2": (2, 3),
    "B2": (2, 4),
    "A3": (3, 6),
    "B3": (3, 9),
    "deletedA3": (3, 5),
    "X3": (3, 6),
}


def test_catalog_entries_are_essential():
    for name, (nvars, count) in CATALOG_SIZES.items():
        ma = catalog(name)
        assert ma.nvars == nvars
        assert len(ma.forms) == count
        assert ma.mult == (1,) * count
        assert is_essential(ma.arrangement)


def test_catalog_parameterized_entries():
    fan = catalog("fan2d", h=3, slopes=(1, 2, 3))
    assert len(fan.forms) == 6 and fan.nvars == 3
    mae = catalog("maehara4")
    assert len(mae.forms) == 4 and mae.nvars == 2
    with pytest.raises(ArrangementError):
        catalog("fan2d", h=2, slopes=(1,))
    with pytest.raises(ArrangementError):
        catalog("fan2d", h=2, slopes=(1, 1))
    with pytest.raises(ArrangementError):
        catalog("maehara4", t=1)
    with pytest.raises(ArrangementError):
        catalog("nosuch")
    # one slope may be given bare; values are parsed before the cache lookup
    assert catalog("fan2d", h=1, slopes=1).arrangement is catalog("fan2d", h=1, slopes=(1,)).arrangement
    assert catalog("maehara4", t="7/3").arrangement is catalog("maehara4", t=Fraction(7, 3)).arrangement
    assert catalog("maehara4", t="7/3").arrangement == mae.arrangement
    for name, params in [("fan2d", {"h": Fraction(5, 2), "slopes": (1, 2)}),
                         ("fan2d", {"h": True, "slopes": 1}),
                         ("fan2d", {"h": 1, "slopes": (None,)}),
                         ("maehara4", {"t": (1, 2)}),
                         ("maehara4", {"t": "2/0"}),
                         ("maehara4", {"h": 4}),
                         ("A2", {"t": 2})]:
        with pytest.raises(ArrangementError):
            catalog(name, **params)


def test_catalog_multiplicity_argument():
    ma = catalog("B2", (3, 5, 2, 2))
    assert ma.mult == (3, 5, 2, 2)
    with pytest.raises(ArrangementError):
        catalog("B2", (1, 2, 3))


def test_catalog_shares_one_arrangement_per_entry():
    a3 = catalog("A3").arrangement
    assert catalog("A3", (2, 1, 2, 1, 2, 1)).arrangement is a3
    assert catalog("B2").arrangement is not catalog("A2").arrangement
    fan = catalog("fan2d", h=2, slopes=[1, 2]).arrangement
    assert catalog("fan2d", h=2, slopes=(1, 2)).arrangement is fan
    other_fan = catalog("fan2d", h=2, slopes=(1, 3)).arrangement
    assert other_fan is not fan and other_fan != fan
    mae = catalog("maehara4", t=5).arrangement
    assert catalog("maehara4", t=5).arrangement is mae
    other_mae = catalog("maehara4", t=6).arrangement
    assert other_mae is not mae and other_mae != mae
    # sharing changes neither ==, hash nor repr
    fresh = Arrangement(3, [(1, -1, 0), (1, 0, -1), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 0, 1)])
    assert fresh == a3 and hash(fresh) == hash(a3) and repr(fresh) == repr(a3)


def test_catalog_cache_is_bounded():
    cached = arrangement_module._catalog_arrangement
    limit = arrangement_module._CATALOG_CACHE_LIMIT
    assert cached.cache_info().maxsize == limit
    first = catalog("maehara4", t=2).arrangement
    for t in range(3, 3 + 2 * limit):
        catalog("maehara4", t=t)
    assert cached.cache_info().currsize <= limit
    # an evicted entry is rebuilt equal, as a new object
    again = catalog("maehara4", t=2).arrangement
    assert again == first and again is not first


def test_arrangement_rejects_bad_input():
    with pytest.raises(ArrangementError):
        Arrangement(2, [])
    with pytest.raises(ArrangementError):
        Arrangement(2, [(1, 0), (2, 0)])  # proportional
    with pytest.raises(ArrangementError):
        Arrangement(2, [(1, 0, 0)])
    with pytest.raises(ArrangementError):
        Multiarrangement(catalog("A2").arrangement, (1, 1))
    with pytest.raises(ArrangementError):
        Multiarrangement(catalog("A2").arrangement, (1, 1, -1))


def test_multiplicity_helpers():
    ma = catalog("A2", (1, 2, 3))
    assert ma.order() == 6
    assert ma.plus_ones().mult == (2, 3, 4)
    assert ma.plus_delta(1).mult == (1, 3, 3)
    assert ma.with_mult((0, 0, 1)).mult == (0, 0, 1)
    with pytest.raises(ArrangementError):
        ma.plus_delta(3)


def test_arrangement_value_equality():
    a = catalog("A2").arrangement
    b = Arrangement(2, [(2, 0), (0, 5), (3, -3)])  # same canonical forms
    assert a == b
    assert hash(a) == hash(b)


def test_rank_and_hash_are_computed_once(monkeypatch):
    a = Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert a.rank() == 2 and not is_essential(a)
    assert hash(a) == hash((a.nvars, a.forms))
    # cached values are not dataclass fields: equality and repr ignore them
    assert [f.name for f in dataclasses.fields(a)] == ["nvars", "forms"]
    assert "_rank" not in repr(a) and "_hash" not in repr(a)

    def no_elimination(rows):
        raise AssertionError("rank recomputed")

    monkeypatch.setattr(linalg_module, "echelon", no_elimination)
    for _ in range(3):
        assert a.rank() == 2 and hash(a) == hash((a.nvars, a.forms))


GEOMETRY_CATALOG = [(name, {}) for name in CATALOG_SIZES] + [
    ("fan2d", {"h": 3, "slopes": (1, 2, Fraction(-1, 3))}),
    ("maehara4", {"t": Fraction(7, 3)}),
]


# -- the Fraction reference ---------------------------------------------------
# The construction the package used before the integer lattice: every flat is
# named by the reduced row echelon form of two of its forms, and membership is
# a rank test against those rows, all by Gauss-Jordan in Fractions.


def _span_key(forms):
    return tuple(tuple(row) for row in oracle_rref([f.primitive for f in forms])[0])


def _in_span(form, basis):
    return _fraction_rank([primitive_integer_vector(r) for r in basis] + [form.primitive]) == len(basis)


def _reference_flats(a):
    """Sorted member tuples of the rank-2 flats, keyed by their Fraction RREF."""
    seen = {}
    for i, j in itertools.combinations(range(len(a.forms)), 2):
        key = _span_key([a.forms[i], a.forms[j]])
        if key not in seen:
            seen[key] = tuple(k for k, f in enumerate(a.forms) if _in_span(f, key))
    return sorted(seen.values())


def _reference_flat_of(a, indices):
    key = _span_key([a.forms[i] for i in indices])
    assert len(key) == 2
    return tuple(k for k, f in enumerate(a.forms) if _in_span(f, key))


def _reference_localize(ma, members):
    key = _span_key([ma.forms[i] for i in members])
    assert len(key) == 2 and all(_in_span(ma.forms[i], key) for i in members)
    assert not any(_in_span(f, key) for k, f in enumerate(ma.forms) if k not in members)
    return tuple(ma.forms[i] for i in members), tuple(ma.mult[i] for i in members)


def _reference_essentialize(ma):
    """Essential forms, multiplicity, RREF rows and pivots."""
    reduced, pivots = oracle_rref([f.primitive for f in ma.forms])
    forms = tuple(LinearForm([f.coeffs[p] for p in pivots]) for f in ma.forms)
    return forms, ma.mult, tuple(map(tuple, reduced)), tuple(pivots)


def _probe_forms(a):
    """The forms, their pairwise sums and the coordinate forms: in and out of the span."""
    sums = [[x + y for x, y in zip(f.coeffs, g.coeffs)] for f, g in itertools.combinations(a.forms, 2)]
    units = [[int(i == j) for j in range(a.nvars)] for i in range(a.nvars)]
    return list(a.forms) + [LinearForm(v) for v in sums + units if any(v)]


def _geometry(ma):
    """Flats, flat_of on every member pair, localizations, essentialization
    and map_form verdicts, as the package computes them."""
    a = ma.arrangement
    flats = [fl.indices for fl in rank2_flats(a)]
    ess, change = essentialize(ma)
    mapped = []
    for form in _probe_forms(a):
        try:
            mapped.append(change.map_form(form))
        except ArrangementError:
            mapped.append(None)
    return (flats,
            [[flat_of(a, pair).indices for pair in itertools.combinations(fl, 2)] for fl in flats],
            [(loc.forms, loc.mult) for loc in (localize(ma, Flat(fl)) for fl in flats)],
            (ess.forms, ess.mult, change.pivots),
            mapped)


def _reference_geometry(ma):
    a = ma.arrangement
    flats = _reference_flats(a)
    forms, mult, basis, pivots = _reference_essentialize(ma)
    mapped = [LinearForm([f.coeffs[p] for p in pivots]) if _in_span(f, basis) else None
              for f in _probe_forms(a)]
    return (flats,
            [[_reference_flat_of(a, pair) for pair in itertools.combinations(fl, 2)] for fl in flats],
            [_reference_localize(ma, fl) for fl in flats],
            (forms, mult, pivots),
            mapped)


def _lifted(ma):
    """A non-essential copy one variable up, with a mixed coordinate in front
    of the old second one, so the pivots are not a prefix of the identity."""
    lifted = Arrangement(ma.nvars + 1, [(c[0], 2 * c[0] - 3 * c[1], *c[1:]) for c in
                                        (f.coeffs for f in ma.forms)])
    return lifted.with_multiplicity(ma.mult)


@pytest.mark.parametrize("name, params", GEOMETRY_CATALOG, ids=[n for n, _ in GEOMETRY_CATALOG])
def test_geometry_matches_the_fraction_reference(monkeypatch, name, params):
    """Flats, localizations and essentialization equal the Fraction reference,
    on each catalog entry and on a non-essential copy of it; index symmetries
    equal those found with Gauss-Jordan in Fractions."""
    base = catalog(name, **params)
    ma = base.with_mult([1 + i % 3 for i in range(len(base.forms))])
    for case in (ma, _lifted(ma)):
        assert _geometry(case) == _reference_geometry(case)
        assert case.arrangement.rank() == _fraction_rank([f.primitive for f in case.forms])
    symmetries = index_symmetries(ma.arrangement)
    monkeypatch.setattr(sweep_module, "rref", oracle_rref)
    monkeypatch.setattr(sweep_module, "rank", _fraction_rank)
    assert index_symmetries(ma.arrangement) == symmetries


@st.composite
def integer_arrangements(draw):
    """3-7 pairwise non-proportional integer forms in 2-4 variables, drawn as
    combinations of a random spanning set, so many are not essential."""
    nvars = draw(st.integers(2, 4))
    span = draw(st.lists(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars),
                         min_size=2, max_size=nvars))
    forms = {}
    for coeffs in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(span), max_size=len(span)),
                                min_size=3, max_size=12)):
        row = [sum(c * s[j] for c, s in zip(coeffs, span)) for j in range(nvars)]
        if any(row):
            forms.setdefault(LinearForm(row).coeffs, row)
    rows = list(forms.values())[:7]
    assume(len(rows) >= 3)
    mult = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    return Arrangement(nvars, rows).with_multiplicity(mult)


@given(integer_arrangements())
@settings(max_examples=120, deadline=None)
def test_integer_lattice_matches_the_fraction_reference(ma):
    assert _geometry(ma) == _reference_geometry(ma)


def test_defining_polynomial():
    ma = catalog("A2", (2, 1, 1))
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert defining_polynomial(ma) == x * x * y * (x - y)
    assert defining_polynomial(ma).homogeneous_degree() == ma.order()


def test_rank2_flats_partition_pairs():
    for name in CATALOG_SIZES:
        a = catalog(name).arrangement
        flats = rank2_flats(a)
        n = len(a.forms)
        seen_pairs = set()
        for fl in flats:
            assert linalg_module.rank([a.forms[i].primitive for i in fl.indices]) == 2
            assert list(fl.indices) == sorted(fl.indices)
            for i in fl.indices:
                for j in fl.indices:
                    if i < j:
                        seen_pairs.add((i, j))
        # every pair of hyperplanes lies in exactly one rank-2 flat
        assert seen_pairs == {(i, j) for i in range(n) for j in range(i + 1, n)}
        counted = sum(
            len(fl.indices) * (len(fl.indices) - 1) // 2 for fl in flats
        )
        assert counted == n * (n - 1) // 2


def test_a3_flat_structure():
    # the braid arrangement has four triple points and three simple ones
    flats = rank2_flats(catalog("A3").arrangement)
    sizes = sorted(len(fl.indices) for fl in flats)
    assert sizes == [2, 2, 2, 3, 3, 3, 3]


def test_flat_of_and_localize():
    ma = catalog("A3", (1, 2, 3, 4, 5, 6))
    fl = flat_of(ma.arrangement, (0, 2))
    assert fl.indices == (0, 2, 4)  # x-y, x, y share the flat x=y=0
    loc = localize(ma, fl)
    assert loc.forms == tuple(ma.forms[i] for i in fl.indices)
    assert loc.mult == (1, 3, 5)
    with pytest.raises(ArrangementError):
        flat_of(ma.arrangement, (0,))
    # a tampered flat with a missing member is rejected
    with pytest.raises(ArrangementError):
        localize(ma, Flat((0, 2)))


def test_flat_of_rejects_out_of_range_indices():
    a = catalog("A3").arrangement
    for indices in [(0, 9), (-1, 2), (0, 6), (0, 2, 6)]:
        with pytest.raises(ArrangementError, match="flat index out of range"):
            flat_of(a, indices)
    with pytest.raises(ArrangementError, match="do not span a codimension-2 flat"):
        flat_of(a, (0, 2, 5))


def test_flats_are_found_once_per_arrangement(monkeypatch):
    """A grid of Euler multiplicities builds the lattice of each arrangement
    once, and two multiplicities localize to the same sub-arrangement."""
    from multider import euler_multiplicity

    built = []
    real = Arrangement._flats.func

    def counting(self):
        built.append(self)
        return real(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(Arrangement, "_flats")
    monkeypatch.setattr(Arrangement, "_flats", counted)
    a = Arrangement(3, [(1, -1, 0), (1, 0, -1), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 0, 1)])
    for mult in itertools.product((1, 2), repeat=6):
        for h0 in range(6):
            euler_multiplicity(a.with_multiplicity(mult), h0)
    assert built == [a]
    fl = flat_of(a, (0, 2))
    assert localize(a.with_multiplicity((1,) * 6), fl).arrangement is \
        localize(a.with_multiplicity((3, 1, 2, 1, 1, 1)), fl).arrangement


def test_delete():
    ma = catalog("A2", (2, 1, 1))
    dropped = delete(ma, 0)
    assert dropped.mult == (1, 1, 1)
    assert len(dropped.forms) == 3
    gone = delete(dropped, 0)
    assert len(gone.forms) == 2
    assert gone.forms == ma.forms[1:]
    with pytest.raises(ArrangementError):
        delete(ma.with_mult((0, 1, 1)), 0)


def test_essentialize():
    # three parallel-axis planes in 3-space depending only on x and y
    arr = Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0)])
    ma = arr.with_multiplicity((1, 2, 3))
    assert not is_essential(arr)
    ess, change = essentialize(ma)
    assert ess.nvars == 2
    assert ess.mult == ma.mult
    assert is_essential(ess.arrangement)
    for old, new in zip(ma.forms, ess.forms):
        assert change.map_form(old) == new
    with pytest.raises(ArrangementError):
        change.map_form(LinearForm((0, 0, 1)))


def test_essentialize_is_identity_on_essential_input():
    ma = catalog("B2", (1, 2, 3, 4))
    ess, _ = essentialize(ma)
    assert ess.nvars == 2
    assert len(ess.forms) == 4
    assert ess.mult == ma.mult


def test_irreducible_component_count():
    assert irreducible_component_count(catalog("A2").arrangement) == 1
    assert irreducible_component_count(catalog("B2").arrangement) == 1
    assert irreducible_component_count(catalog("A3").arrangement) == 1
    # a coordinate cross splits into two rank-1 factors
    cross = Arrangement(2, [(1, 0), (0, 1)])
    assert irreducible_component_count(cross) == 2
    boolean3 = Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert irreducible_component_count(boolean3) == 3
    # A1 x A2: a rank-1 factor times an irreducible rank-2 factor
    split = Arrangement(3, [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, -1, 0)])
    assert irreducible_component_count(split) == 2
    with pytest.raises(ArrangementError):
        irreducible_component_count(Arrangement(3, [(1, 0, 0), (0, 1, 0)]))


def test_json_round_trip(tmp_path):
    ma = catalog("maehara4", (2, 0, 1, 3))
    data = multiarrangement_to_dict(ma)
    assert multiarrangement_from_dict(data) == ma
    text = json.dumps(data)
    assert multiarrangement_from_dict(json.loads(text)) == ma
    path = tmp_path / "arr.json"
    dump_multiarrangement(ma, str(path))
    assert load_multiarrangement(str(path)) == ma


def test_json_fraction_coefficients():
    data = {
        "variables": ["x", "y"],
        "hyperplanes": [
            {"form": [1, 0], "multiplicity": 2},
            {"form": ["1/2", "-3/2"], "multiplicity": 1},
        ],
    }
    ma = multiarrangement_from_dict(data)
    assert ma.forms[1] == LinearForm((1, -3))
    assert ma.mult == (2, 1)
    back = multiarrangement_to_dict(ma)
    assert back["hyperplanes"][1]["form"] == [1, -3]


def test_json_rejects_malformed_input():
    with pytest.raises(ArrangementError):
        multiarrangement_from_dict({"variables": ["x", "y"]})
    with pytest.raises(ArrangementError):
        multiarrangement_from_dict(
            {"variables": ["x"], "hyperplanes": [{"form": [1, 2]}]}
        )
    with pytest.raises(ArrangementError):
        multiarrangement_from_dict(
            {
                "variables": ["x", "y"],
                "hyperplanes": [{"form": [1, 0], "multiplicity": -2}],
            }
        )
    with pytest.raises(ArrangementError):
        multiarrangement_from_dict(
            {
                "variables": ["x", "y"],
                "hyperplanes": [{"form": [1, True]}],
            }
        )
