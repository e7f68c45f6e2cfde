"""Grid sweeps: symmetry dedupe, determinism, and table formatting."""

import zlib
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multider import (
    Arrangement,
    ArrangementError,
    LinearForm,
    catalog,
    find_free_basis,
    index_symmetries,
    run_sweep,
)
from multider.sweep import (
    evaluate_point,
    format_tsv,
    grid_points,
    orbit_canonical,
    parse_ranges,
    row_seed,
)

from test_linalg import _fraction_rank, oracle_rref


def test_parse_ranges():
    parsed = parse_ranges("a=1..4,b=2, c =0..1")
    assert parsed == [("a", range(1, 5)), ("b", range(2, 3)), ("c", range(0, 2))]
    for bad in ("a", "=3", "a=", "a=4..1", "a=-1..2", "a=x..y"):
        with pytest.raises(ArrangementError):
            parse_ranges(bad)


def test_symmetry_group_orders():
    assert len(index_symmetries(catalog("A2").arrangement)) == 6
    assert len(index_symmetries(catalog("B2").arrangement)) == 8
    assert len(index_symmetries(catalog("X3").arrangement)) == 6


def test_symmetry_group_is_a_group():
    group = set(index_symmetries(catalog("B2").arrangement))
    n = len(catalog("B2").forms)
    assert tuple(range(n)) in group
    for p in group:
        for q in group:
            assert tuple(p[i] for i in q) in group


# -- the Fraction reference ---------------------------------------------------
# The symmetry search the package ran before integer frame coordinates: each
# form is expressed in a basis by Gauss-Jordan in Fractions, and the map from
# the base frame to each ordered target frame is assembled from the scales
# its unit forces.


def _express(form, basis):
    """Coefficients lam with form = sum lam_i basis_i, None if not in span."""
    n = len(basis)
    reduced, pivots = oracle_rref(list(zip(*(b.coeffs for b in basis), form.coeffs)))
    lam = [Fraction(0)] * n
    for row, p in zip(reduced, pivots):
        if p == n:
            return None  # pivot in the right-hand side: outside the span
        lam[p] = row[n]
    return tuple(lam)


def _frame(a):
    """The first l+1 hyperplanes with every l of them independent, or None."""
    n, l = len(a.forms), a.nvars
    for combo in combinations(range(n), l + 1):
        if all(_fraction_rank([a.forms[i].coeffs for i in sub]) == l for sub in combinations(combo, l)):
            return combo
    return None


def fraction_symmetries(a):
    """`index_symmetries` by the Fraction search (the oracle)."""
    n, l = len(a.forms), a.nvars
    identity = tuple(range(n))
    if _fraction_rank([f.coeffs for f in a.forms]) < l:
        return (identity,)
    if n == l:
        return tuple(sorted(permutations(range(n))))
    frame = _frame(a)
    if frame is None:
        return (identity,)
    base = [a.forms[i] for i in frame[:l]]
    lam = _express(a.forms[frame[l]], base)
    canon = {f.coeffs: i for i, f in enumerate(a.forms)}
    coords = [_express(f, base) for f in a.forms]
    found = {identity}
    # whether l forms are independent does not depend on their order
    independent = cache(lambda subset: _fraction_rank([a.forms[i].coeffs for i in subset]) == l)
    for targets in permutations(range(n), l + 1):
        tbase = [a.forms[i] for i in targets[:l]]
        if not independent(frozenset(targets[:l])):
            continue
        mu = _express(a.forms[targets[l]], tbase)
        if mu is None or not all(mu):
            continue
        scale = [m / v for m, v in zip(mu, lam)]
        perm = []
        for vec in coords:
            image = [Fraction(0)] * l
            for i in range(l):
                if vec[i]:
                    sv = vec[i] * scale[i]
                    for c, coeff in enumerate(tbase[i].coeffs):
                        image[c] += sv * coeff
            lead = next((v for v in image if v), None)
            hit = None if lead is None else canon.get(tuple(v / lead for v in image))
            if hit is None:
                break
            perm.append(hit)
        else:
            if len(set(perm)) == n:
                found.add(tuple(perm))
    return tuple(sorted(found))


@st.composite
def small_arrangements(draw):
    """l = 2..4 variables and l to l+3 distinct forms with entries in -2..2.

    For l >= 3, half of the draws take every form from the span of l - 1
    random vectors, so the arrangement is not essential.  Small entries make
    tuples that are not frames, arrangements with no frame at all and
    nontrivial symmetries likely.
    """
    nvars = draw(st.integers(2, 4))
    count = draw(st.integers(nvars, nvars + 3))
    entries = st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars)
    rows = draw(st.lists(entries, min_size=count, max_size=3 * count))
    if nvars >= 3 and draw(st.booleans()):
        span = draw(st.lists(entries, min_size=nvars - 1, max_size=nvars - 1))
        rows = [[sum(c * v[j] for c, v in zip(row, span)) for j in range(nvars)] for row in rows]
    forms = {}
    for row in rows:
        if any(row):
            forms.setdefault(LinearForm(row).coeffs, row)
    assume(len(forms) >= count)
    return Arrangement(nvars, list(forms.values())[:count])


@given(small_arrangements())
@settings(max_examples=30, deadline=None)
def test_index_symmetries_match_the_fraction_search(a):
    assert index_symmetries(a) == fraction_symmetries(a)


def test_symmetries_preserve_exponents():
    # soundness: permuting an asymmetric multiplicity along any reported
    # symmetry cannot change the (sorted) exponents
    group = index_symmetries(catalog("A2").arrangement)
    mult = (1, 2, 3)
    base = find_free_basis(catalog("A2", mult)).exponents
    for perm in group:
        permuted = tuple(mult[p] for p in perm)
        assert find_free_basis(catalog("A2", permuted)).exponents == base


def test_orbit_canonical():
    group = index_symmetries(catalog("A2").arrangement)
    assert orbit_canonical((3, 1, 2), group) == (1, 2, 3)
    for mult in ((0, 0, 0), (2, 1, 1), (1, 0, 2)):
        canon = orbit_canonical(mult, group)
        assert canon <= mult
        assert orbit_canonical(canon, group) == canon


def test_row_seed_matches_crc_and_varies():
    assert row_seed(1729, (2, 4, 1, 1)) == zlib.crc32(b"1729|2,4,1,1") & 0x7FFFFFFF
    seeds = {row_seed(1729, m) for m in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]}
    assert len(seeds) == 3
    assert row_seed(1, (2, 2)) != row_seed(2, (2, 2))


def test_evaluate_point_fields():
    row = evaluate_point(catalog("B2", (3, 5, 2, 2)), ("free", "exponents", "universal"), 7)
    assert row.mult == (3, 5, 2, 2)
    assert row.seed == 7
    assert row.free and row.exponents == (5, 7)
    assert row.universal_degree is None
    base = evaluate_point(catalog("B2", (2, 4, 1, 1)), ("universal",), 7)
    assert base.universal_degree == 5
    assert base.free is None and base.exponents is None


def test_run_sweep_serial_matches_parallel():
    ranges = parse_ranges("a=0..2,b=0..2,c=0..2")
    serial = run_sweep("A2", ranges, seed=11, jobs=1)
    parallel = run_sweep("A2", ranges, seed=11, jobs=2)
    assert serial == parallel
    names = [n for n, _ in ranges]
    assert format_tsv(names, ("free", "exponents", "universal"), serial) == format_tsv(
        names, ("free", "exponents", "universal"), parallel
    )
    assert len(serial) == 27
    assert [r.mult for r in serial] == sorted(r.mult for r in serial)
    for row in serial:
        assert row.seed == row_seed(11, row.mult)


def test_run_sweep_requests_the_spawn_start_method(monkeypatch):
    # fork is unsafe with threads on macOS and no longer the default from 3.14
    from multider import sweep

    requested = []
    sizes = []
    real = sweep.get_context

    class Recording:
        def __init__(self, method):
            self.ctx = real(method)

        def Pool(self, processes):
            sizes.append(processes)
            return self.ctx.Pool(processes)

    def recording(method=None):
        requested.append(method)
        return Recording(method)

    monkeypatch.setattr(sweep, "get_context", recording)
    # enough CPUs that the row count, not the host, sets the pool size
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
    ranges = parse_ranges("a=1..2,b=1,c=1")
    # more jobs than rows: one worker per row, no idle interpreters
    assert run_sweep("A2", ranges, predicates=("free",), jobs=8) == run_sweep(
        "A2", ranges, predicates=("free",), jobs=1)
    assert requested == ["spawn"]
    assert sizes == [2]


@pytest.mark.parametrize("cpus, jobs, workers", [
    (2, 10_000, 2),   # never more workers than CPUs
    (None, 10_000, 0),  # an unknown CPU count counts as one: serial
    (1, 8, 0),        # one CPU: serial
    (64, 10_000, 8),  # never more workers than rows
    (64, 3, 3),
])
def test_run_sweep_caps_its_pool_at_the_cpu_count(monkeypatch, cpus, jobs, workers):
    # a fake context whose pool starts no process and maps in this one
    from multider import sweep

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks, chunksize=1):
            return map(func, tasks)

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(sweep, "get_context", lambda method=None: FakeContext())
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    ranges = parse_ranges("a=1..2,b=1..2,c=1..2")
    rows = run_sweep("A2", ranges, predicates=("free",), jobs=jobs)
    assert sizes == ([workers] if workers else [])
    assert rows == run_sweep("A2", ranges, predicates=("free",), jobs=1)


def test_evaluate_point_runs_find_free_basis_once(monkeypatch):
    from multider import logder, sweep

    calls = []
    real = logder.find_free_basis

    def counted(ma, seed):
        calls.append((ma.mult, seed))
        return real(ma, seed=seed)

    expected = evaluate_point(catalog("A2", (2, 2, 2)), ("free", "exponents", "universal"), 5)
    assert expected.universal_degree == 4
    monkeypatch.setattr(sweep, "find_free_basis", counted)
    monkeypatch.setattr(logder, "find_free_basis", counted)
    row = evaluate_point(catalog("A2", (2, 2, 2)), ("free", "exponents", "universal"), 5)
    assert row == expected and calls == [((2, 2, 2), 5)]
    # without a certificate, the universality test computes none
    calls.clear()
    row = evaluate_point(catalog("A2", (2, 2, 2)), ("universal",), 5)
    assert row.universal_degree == 4 and calls == []


@pytest.mark.parametrize("name,spec,max_total,universal_rows", [
    ("A3", "a=0..2,b=0..2,c=0..2,d=0..2,e=0..2,f=0..2", 8, 15),
    ("deletedA3", "a=0..2,b=0..2,c=0..3,d=0..2,e=0..2", None, 18),
])
def test_certificate_gate_keeps_the_universal_column(monkeypatch, name, spec, max_total,
                                                     universal_rows):
    # a row that is not free with equal exponents skips find_universal; the
    # universal-only sweep has no certificate and runs it on every row
    from multider import sweep

    calls = []
    real = sweep.find_universal

    def counted(ma):
        calls.append(ma.mult)
        return real(ma)

    monkeypatch.setattr(sweep, "find_universal", counted)
    ranges = parse_ranges(spec)
    full = run_sweep(name, ranges, max_total=max_total)
    gated = [r.mult for r in full if r.free and len(set(r.exponents)) == 1]
    assert calls == gated and len(gated) < len(full) / 2
    calls.clear()
    alone = run_sweep(name, ranges, predicates=("universal",), max_total=max_total)
    assert len(calls) == len(alone)
    assert [r.mult for r in alone] == [r.mult for r in full]
    assert [r.universal_degree for r in alone] == [r.universal_degree for r in full]
    assert sum(r.universal_degree is not None for r in full) == universal_rows


def test_run_sweep_max_total_and_dedupe():
    ranges = parse_ranges("a=0..2,b=0..2,c=0..2")
    capped = run_sweep("A2", ranges, predicates=("free",), max_total=3)
    assert all(sum(r.mult) <= 3 for r in capped)
    assert len(capped) == sum(
        1 for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 3
    )
    group = index_symmetries(catalog("A2").arrangement)
    deduped = run_sweep("A2", ranges, predicates=("free",), dedupe=True)
    assert len(deduped) == 10  # multisets of size 3 over {0,1,2}
    for row in deduped:
        assert orbit_canonical(row.mult, group) == row.mult


def test_max_total_prunes_instead_of_walking_the_box():
    # nine 0..20 ranges make a 21**9 box; only the compositions of <= 2 are walked
    wide = parse_ranges(",".join(f"h{i}=0..20" for i in range(9)))
    narrow = parse_ranges(",".join(f"h{i}=0..2" for i in range(9)))
    rows = run_sweep("B3", wide, max_total=2)
    assert len(rows) == 55
    assert rows == run_sweep("B3", narrow, max_total=2)
    assert len(run_sweep("B3", wide, max_total=2, dedupe=True)) == 10


boxes = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda t: range(t[0], t[0] + t[1])),
    max_size=4,
)


@given(boxes, st.none() | st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_grid_points_match_filtered_product(ranges, max_total):
    expected = [m for m in product(*ranges) if max_total is None or sum(m) <= max_total]
    assert list(grid_points(ranges, max_total)) == expected


def test_run_sweep_argument_validation():
    with pytest.raises(ArrangementError):
        run_sweep("A2", parse_ranges("a=0..1"))
    with pytest.raises(ArrangementError):
        run_sweep("A2", parse_ranges("a=0..1,b=0..1,c=0..1"), predicates=("shiny",))
    # no predicate, no verdict column
    with pytest.raises(ArrangementError, match="at least one predicate"):
        run_sweep("A2", parse_ranges("a=0..1,b=0..1,c=0..1"), predicates=())


def test_format_tsv_shapes():
    ranges = parse_ranges("a=1..1,b=1..2,c=1..1")
    rows = run_sweep("A2", ranges, seed=5)
    text = format_tsv(["a", "b", "c"], ("free", "exponents", "universal"), rows)
    lines = text.splitlines()
    assert lines[0] == "a\tb\tc\ttotal\tfree\texponents\tuniversal_degree\tseed"
    assert len(lines) == 3
    first = lines[1].split("\t")
    assert first[:4] == ["1", "1", "1", "3"]
    assert first[4] == "1" and first[5] == "1,2"
    assert text.endswith("\n")
    bare = format_tsv(["a", "b", "c"], ("free",), rows)
    assert bare.splitlines()[0] == "a\tb\tc\ttotal\tfree\tseed"


def test_fan_sweep_with_params():
    ranges = parse_ranges("a=1..2,b=1..1,c=1..1,d=1..1,e=1..1")
    rows = run_sweep(
        "fan2d", ranges, predicates=("free", "exponents"), params={"h": 2, "slopes": (1, 2)}
    )
    assert len(rows) == 2
    assert all(r.free is not None for r in rows)
