"""Exact elimination: the fraction-free pass against a Fraction reference, and
kernels, the modular fast path against fraction-free elimination."""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multider import Poly, linalg
from multider.errors import InternalCheckError
from multider.linalg import (
    _INT64_SAFE,
    _SMALL_CELLS,
    PRIMES,
    _annihilates,
    bareiss_kernel,
    certified_kernel,
    echelon,
    kernel_mod,
    lift_residue_vector,
    primitive_integer_vector,
    rank,
    rational_reconstruction,
    rref,
    rref_mod,
)
from multider.polyring import determinant


def _rref_fraction(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; tiny matrices only."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][c]
        mat[r] = [v / lead for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def oracle_rref(rows):
    """The Fraction reference on any exact rows: Gauss-Jordan with division."""
    return _rref_fraction([[Fraction(v) for v in row] for row in rows])


def _fraction_rank(rows):
    return len(oracle_rref(rows)[1])


def _determinant(rows):
    """det of a square rational matrix as `find_free_basis` reads it: one common
    denominator D, then the signed last pivot of `echelon` over D^l."""
    denom = math.lcm(*(Fraction(v).denominator for row in rows for v in row))
    ech, pivots, sign = echelon([[int(v * denom) for v in row] for row in rows])
    return Fraction(sign * ech[-1][-1], denom ** len(rows)) if len(pivots) == len(rows) else 0


# small entries make zero rows, repeated columns and row swaps likely; the
# wide ones pass 2**63
exact_entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2]),
    st.integers(-2**70, 2**70),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


@st.composite
def exact_matrices(draw, square=False):
    nrows = draw(st.integers(0 if not square else 1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    rows = [[draw(exact_entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        # overwrite one row by a combination of two others: rank deficient
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(exact_entries), draw(exact_entries)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


@given(exact_matrices())
@settings(max_examples=200, deadline=None)
def test_echelon_rank_and_rref_match_the_fraction_reference(rows):
    expected, expected_pivots = oracle_rref(rows)
    ints = [primitive_integer_vector(row) for row in rows]
    reduced, pivots, d = rref(ints)
    # d RREF over the integers: divided by d it is the Fraction reference
    assert pivots == expected_pivots
    assert [[Fraction(v, d) for v in row] for row in reduced] == expected
    assert all(type(v) is int for row in reduced for v in row) and type(d) is int
    # d is echelon's last pivot, 1 at rank 0
    ech = echelon(ints)[0]
    assert d == (ech[-1][pivots[-1]] if pivots else 1) and d != 0
    for i, c in enumerate(pivots):
        assert [row[c] for row in reduced] == [d if j == i else 0 for j in range(len(pivots))]
    assert rank(ints) == len(expected_pivots) == len(ech)
    if not pivots:
        assert (reduced, pivots, d) == ([], [], 1)


@given(exact_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_echelon_determinant_matches_polyring(rows):
    constant = [[Poly.constant(1, v) for v in row] for row in rows]
    assert determinant(constant) == _determinant(rows)


def test_echelon_edge_cases():
    assert echelon([]) == ([], [], 1)
    assert rref([]) == ([], [], 1) and rank([]) == 0
    assert rref([[0, 0], [0, 0]]) == ([], [], 1)
    assert echelon([[0, 0], [0, 0]]) == ([], [], 1)
    assert rank([[0, 0, 0], [1, 2, 3], [2, 4, 6]]) == 1
    # one swap flips the sign, two restore it
    assert _determinant([[0, 1], [1, 0]]) == -1
    assert echelon([[0, 0, 1], [1, 0, 0], [0, 1, 0]])[2] == 1
    assert _determinant([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1
    big = 2**64 + 13
    assert _determinant([[big, 1], [1, big]]) == big * big - 1
    assert _determinant([[Fraction(1, 2), Fraction(1, 3)], [1, 1]]) == Fraction(1, 6)
    # a zero column between pivots: rref skips it and pivots stay in order;
    # d = 6 is echelon's last pivot and the rows are 6 times [0, 1, 0, 2]
    # and [0, 0, 1, 1]
    assert rref([[0, 2, 0, 4], [0, 1, 3, 5]]) == (
        [[0, 6, 0, 12], [0, 0, 6, 6]], [1, 2], 6)
    # a negative d: the pivot columns hold it, the others divide exactly
    assert rref([[1, 1, 1], [1, -1, 0]]) == ([[-2, 0, -1], [0, -2, -1]], [0, 1], -2)


def _in_span(vec, basis):
    if not basis:
        return not any(vec)
    return _fraction_rank(basis) == _fraction_rank(basis + [list(vec)])


def _certified(matrix):
    """`certified_kernel` of a plain integer matrix, handed over as Python integers."""
    if not len(matrix) or not len(matrix[0]):
        return []
    return certified_kernel(np.array([[int(v) for v in row] for row in matrix], dtype=object))


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(matrices)
@settings(max_examples=80, deadline=None)
def test_bareiss_and_certified_agree(matrix):
    b = bareiss_kernel(matrix)
    c = _certified(matrix)
    assert b == c  # both use the standard free-column normal form
    n = len(matrix[0])
    expected_nullity = n - _fraction_rank(matrix)
    assert len(b) == expected_nullity
    for vec in b:
        assert all(
            sum(row[j] * vec[j] for j in range(n)) == 0 for row in matrix
        )
        assert math.gcd(*vec) in (0, 1)
        lead = next((v for v in vec if v), 0)
        assert lead >= 0


def _oracle_kernel(rows):
    """Standard kernel basis read off the Fraction reference, one vector per free column."""
    ncols = len(rows[0])
    reduced, pivots = oracle_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(int(c == f)) for c in range(ncols)]
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        basis.append(vec)
    return free, basis


@given(exact_matrices())
@settings(max_examples=200, deadline=None)
def test_bareiss_kernel_matches_the_fraction_reference(rows):
    # rows scaled to primitive integers: entries past 2**63, zero and dependent rows
    ints = [primitive_integer_vector(row) for row in rows]
    ncols = len(rows[0]) if rows else 1
    kernel = bareiss_kernel(ints if ints else np.zeros((0, ncols), dtype=object))
    free, expected = _oracle_kernel(ints if ints else [[0] * ncols])
    assert len(kernel) == len(expected)
    for vec, want, f in zip(kernel, expected, free):
        # the same free column, the same vector up to a positive scale
        assert all(type(v) is int for v in vec)
        assert [v for v in vec if v][0] > 0
        assert [Fraction(v, vec[f]) for v in vec] == want
        assert primitive_integer_vector(want) == vec
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in ints)


def test_rref_mod_structure():
    p = PRIMES[0]
    a = np.array([[2, 4, 6], [1, 2, 4], [3, 6, 10]], dtype=np.int64)
    rref, pivots = rref_mod(a, p)
    assert pivots == [0, 2]
    assert rref.shape == (2, 3)
    for r, c in enumerate(pivots):
        assert rref[r, c] == 1
        assert all(rref[i, c] == 0 for i in range(len(pivots)) if i != r)


def test_rref_mod_leaves_its_input_unchanged():
    p = PRIMES[0]
    rng = np.random.default_rng(3)
    for a in (rng.integers(-5, 5, size=(6, 8)), rng.integers(0, p, size=(4, 4)),
              np.array([[p + 3, -1, 2 * p], [1, 1, 1]], dtype=np.int64)):
        a = a.astype(np.int64)
        before = a.copy()
        rref, pivots = rref_mod(a, p)
        assert (a == before).all()
        assert not np.shares_memory(rref, a)
        assert (rref == rref_mod(before, p)[0]).all() and pivots == rref_mod(before, p)[1]


def test_kernel_mod_annihilates():
    p = PRIMES[1]
    rng = random.Random(5)
    a = np.array(
        [[rng.randrange(-20, 20) for _ in range(5)] for _ in range(3)],
        dtype=np.int64,
    )
    basis, free = kernel_mod(a, p)
    assert basis.shape == (len(free), 5)
    prod = (basis.astype(object) @ a.T.astype(object)) % p
    assert not prod.any()


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """The residue mod m1 * m2 that is r1 mod m1 and r2 mod m2 (per-entry oracle)."""
    inv = pow(m1 % m2, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return r1 + m1 * t, m1 * m2


def test_crt_pair():
    r, m = crt_pair(2, 7, 3, 11)
    assert m == 77 and r % 7 == 2 and r % 11 == 3
    r2, m2 = crt_pair(r, m, 1, 13)
    assert m2 == 1001 and r2 % 13 == 1 and r2 % 77 == r % 77


@st.composite
def prime_kernels(draw):
    """Residue kernels for all ten primes, with the same free columns, and their column count.

    Kernels may be empty; residues 0 and p - 1 are drawn often.
    """
    ncols = draw(st.integers(1, 6))
    free = sorted(draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=4)))
    nvectors = len(free)
    kernels = {}
    for p in PRIMES:
        entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        rows = [[draw(entry) for _ in range(ncols)] for _ in range(nvectors)]
        kernels[p] = (np.array(rows, dtype=np.int64).reshape(nvectors, ncols), free)
    return kernels, ncols


@given(prime_kernels())
@settings(max_examples=150, deadline=None)
def test_garner_over_whole_kernels_matches_the_crt_pair_fold(case):
    # `certified_kernel` is handed every prime's kernel already computed, so
    # no matrix is reduced; the lift is replaced by the identity and the
    # exact check rejects every rung, so each rung's running combination is
    # recorded, and Bareiss on the zero matrix fails the check too.  From
    # three primes on the product passes 2**62 and the combination takes
    # Python integers.
    kernels, ncols = case
    lifted = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "kernel_mod", lambda matrix, p: kernels[p])
        patch.setattr(linalg, "lift_residue_vector",
                      lambda residues, modulus: lifted.append((residues, modulus)) or residues)
        patch.setattr(linalg, "_annihilates", lambda matrix, vectors: False)
        with pytest.raises(InternalCheckError):
            certified_kernel(np.zeros((_SMALL_CELLS // ncols + 1, ncols), dtype=np.int64))
    # the oracle: a per-entry crt_pair fold over the rows of the first k primes
    expected, fold, modulus = [], kernels[PRIMES[0]][0].tolist(), 1
    for k, p in enumerate(PRIMES):
        if k:
            fold = [[crt_pair(a, modulus, b, p)[0] for a, b in zip(old, new)]
                    for old, new in zip(fold, kernels[p][0].tolist())]
        modulus *= p
        expected += [(row, modulus) for row in fold]
    assert lifted == expected
    assert all(type(v) is int and 0 <= v < modulus for row, modulus in lifted for v in row)


@given(st.integers(-50, 50), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_rational_reconstruction_round_trip(num, den):
    g = math.gcd(num, den)
    num //= g
    den //= g
    p = PRIMES[0]
    residue = (num * pow(den, -1, p)) % p
    assert rational_reconstruction(residue, p) == (num, den)


def test_rational_reconstruction_respects_bounds():
    p = 101  # bound is isqrt(50) = 7
    for a in range(p):
        rec = rational_reconstruction(a, p)
        if rec is None:
            continue
        num, den = rec
        assert abs(num) <= 7 and 1 <= den <= 7
        assert (a * den - num) % p == 0


def _residues(values, modulus):
    return [(v.numerator * pow(v.denominator, -1, modulus)) % modulus for v in values]


def test_lift_residue_vector_shares_denominators():
    p = PRIMES[0]
    values = [Fraction(1, 3), Fraction(-2, 3), Fraction(5), Fraction(7, 6)]
    # the denominator grows from 3 to 6 at the last entry, rescaling the others
    assert lift_residue_vector(_residues(values, p), p) == [2, -4, 30, 7]
    assert lift_residue_vector(_residues([Fraction(-1, 2), Fraction(3)], p), p) == [1, -6]
    # a denominator beyond sqrt(p/2) cannot be lifted from one prime
    assert lift_residue_vector(_residues([Fraction(1, 40000)], p), p) is None


small_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@given(st.lists(small_fractions, min_size=1, max_size=8), st.sampled_from([1, 2, 3]))
@settings(max_examples=80, deadline=None)
def test_integer_lift_matches_rational_reference(values, prime_count):
    modulus = math.prod(PRIMES[:prime_count])
    assert lift_residue_vector(_residues(values, modulus), modulus) == (
        primitive_integer_vector(values)
    )


@pytest.mark.parametrize("dtype,scale", [(np.int64, 2**60), (object, 2**64)])
def test_bareiss_kernel_reads_arrays_of_either_dtype(dtype, scale):
    # int64 entries up to about 2**62 and object entries past 2**63 give the
    # kernel of the same rows as Python lists, in Python integers
    rng = random.Random(7)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.choice((0, 1, -1, 3)) * scale + rng.randint(-5, 5) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows >= 2:
            rows[-1] = rows[0][:]
        array = np.array(rows, dtype=dtype)
        assert array.dtype == dtype
        kernel = bareiss_kernel(array)
        assert kernel == bareiss_kernel(rows)
        assert all(type(v) is int for vec in kernel for v in vec)
        free, expected = _oracle_kernel(rows)
        assert len(kernel) == len(expected)
        for vec, want, f in zip(kernel, expected, free):
            assert [Fraction(v, vec[f]) for v in vec] == want
    # an array with no rows keeps its column count: the unit vectors
    for ncols in (0, 1, 3):
        assert bareiss_kernel(np.zeros((0, ncols), dtype=dtype)) == [
            [int(c == f) for c in range(ncols)] for f in range(ncols)]


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(2, 3), Fraction(-4, 3)]) == [1, -2]
    assert primitive_integer_vector([Fraction(-2), Fraction(4)]) == [1, -2]
    assert primitive_integer_vector([Fraction(0), Fraction(0)]) == [0, 0]
    vec = primitive_integer_vector([Fraction(6), Fraction(10), Fraction(-4)])
    assert vec == [3, 5, -2]


def test_zero_and_identity_edge_cases():
    assert bareiss_kernel([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert _certified([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert bareiss_kernel([[1, 0], [0, 1]]) == []
    assert _certified([[1, 0], [0, 1]]) == []


def test_wide_matrix_with_large_entries():
    # entries big enough that naive int64 products would overflow mid-run
    base = 10**12
    matrix = [[base, -base, 0, 1], [0, base, -base, 1]]
    kernel = _certified(matrix)
    assert len(kernel) == 2
    for vec in kernel:
        assert all(sum(r[j] * vec[j] for j in range(4)) == 0 for r in matrix)


def test_certified_kernel_rejects_a_bad_reference_basis(monkeypatch):
    monkeypatch.setattr(linalg, "_annihilates", lambda matrix, vectors: False)
    with pytest.raises(InternalCheckError):
        certified_kernel(np.array([[1, 2, 3], [2, 4, 7]], dtype=np.int64))


# the kernel vector (10**18, 10**9, 1, 0) outgrows a three-prime lift, so
# certification needs four primes; (10**12, 10**6, 1, 0) outgrows a one- and
# a two-prime lift and needs three; (10**8, 10**4, 1, 0) lifts from two;
# (0, 0, 0, 1) lifts from any prime
NEEDS_FOUR_PRIMES = [[1, -10**9, 0, 0], [0, 1, -10**9, 0]]
NEEDS_CRT = [[1, -10**6, 0, 0], [0, 1, -10**6, 0]]
NEEDS_TWO_PRIMES = [[1, -10**4, 0, 0], [0, 1, -10**4, 0]]


def _past_small_cells(rows):
    """`rows` with zero rows appended until there are more than `_SMALL_CELLS`
    cells, so `certified_kernel` takes the prime ladder; the kernel is the same."""
    ncols = len(rows[0])
    return rows + [[0] * ncols] * (_SMALL_CELLS // ncols + 1 - len(rows))


def _counting_bareiss(monkeypatch):
    from multider import linalg

    calls = []
    original = linalg.bareiss_kernel
    monkeypatch.setattr(linalg, "bareiss_kernel",
                        lambda rows: calls.append(np.asarray(rows).tolist()) or original(rows))
    return calls


def _counting_kernel_mod(monkeypatch):
    asked = []
    monkeypatch.setattr(linalg, "kernel_mod", lambda matrix, p: asked.append(p) or kernel_mod(matrix, p))
    return asked


def test_certified_kernel_lifts_by_crt_when_one_prime_is_not_enough(monkeypatch):
    # primes are added one at a time, each prime's kernel computed once
    bareiss = _counting_bareiss(monkeypatch)
    asked = _counting_kernel_mod(monkeypatch)
    for matrix, lead, primes in ((NEEDS_TWO_PRIMES, 10**4, 2), (NEEDS_CRT, 10**6, 3),
                                 (NEEDS_FOUR_PRIMES, 10**9, 4)):
        asked.clear()
        assert _certified(_past_small_cells(matrix)) == [[lead * lead, lead, 1, 0], [0, 0, 0, 1]]
        assert asked == list(PRIMES[:primes])
    assert bareiss == []


def test_certified_kernel_rejects_primes_that_disagree_on_free_columns(monkeypatch):
    # the third prime loses the last kernel vector.  The free-column
    # comparison ends the loop at the third prime before anything is lifted;
    # without it the short kernel would be broadcast over the combination,
    # lifted, rejected by the exact check and answered by the same Bareiss
    # run, so only the lifted moduli show the comparison at work
    def losing(matrix, p):
        basis, free = kernel_mod(matrix, p)
        return (basis[:-1], free[:-1]) if p == PRIMES[2] else (basis, free)

    lift, lifted = linalg.lift_residue_vector, set()
    monkeypatch.setattr(linalg, "lift_residue_vector",
                        lambda residues, modulus: lifted.add(modulus) or lift(residues, modulus))
    monkeypatch.setattr(linalg, "kernel_mod", losing)
    bareiss = _counting_bareiss(monkeypatch)
    matrix = _past_small_cells(NEEDS_CRT)
    assert _certified(matrix) == [[10**12, 10**6, 1, 0], [0, 0, 0, 1]]
    assert bareiss == [matrix]
    assert lifted == {PRIMES[0], PRIMES[0] * PRIMES[1]}


def _modular_kernel(matrix, primes, kernels):
    """Kernel of `matrix` mod the product of `primes`, lifted; None when two
    primes disagree on the free columns or a vector fails to lift (oracle).

    The rung of the earlier ladder: `kernels` maps each prime seen so far to
    its `kernel_mod` answer and gains the new ones, and the Garner
    combination starts again from the first prime on every call.
    """
    modulus = 1
    combined = structure = None
    for p in primes:
        if p not in kernels:
            kernels[p] = linalg.kernel_mod(matrix, p)
        basis, free = kernels[p]
        if combined is None:
            combined, structure = basis, free
        elif free != structure:
            return None
        else:
            if modulus * p >= _INT64_SAFE:
                combined = combined.astype(object)
            digit = (basis - combined % p) * pow(modulus, -1, p) % p
            combined = combined + modulus * digit
        modulus *= p
    vectors = [linalg.lift_residue_vector(row, modulus) for row in combined.tolist()]
    return None if any(v is None for v in vectors) else vectors


def _ladder_kernel(matrix):
    """The earlier ladder: one `_modular_kernel` per rung, then Bareiss (oracle for `certified_kernel`)."""
    if matrix.size > _SMALL_CELLS:
        kernels = {}
        for prime_count in range(1, len(PRIMES) + 1):
            vectors = _modular_kernel(matrix, PRIMES[:prime_count], kernels)
            if vectors is not None and _annihilates(matrix, vectors):
                return vectors
    return bareiss_kernel(matrix)


@st.composite
def ladder_matrices(draw):
    """Matrices above `_SMALL_CELLS` cells, some past 2**63, some climbing the ladder.

    Half are `kernel_mod_matrices` above the line, int64 or past 2**63.  The
    others are chains x_i = a_i x_{i+1} shaped like `NEEDS_TWO_PRIMES`,
    `NEEDS_CRT` and `NEEDS_FOUR_PRIMES`, padded by `_past_small_cells`: the
    kernel vector (a_0 a_1 ... a_last, ..., a_last, 1) needs more primes the
    larger its entries, up to eight for three links near 10**12, and four
    such links outgrow all ten, so Bareiss answers.
    """
    if draw(st.booleans()):
        return draw(kernel_mod_matrices(small=False))[0]
    links = draw(st.lists(st.one_of(st.integers(-10**4, 10**4), st.integers(-10**12, 10**12))
                          .filter(bool), min_size=1, max_size=4))
    ncols = len(links) + 1 + draw(st.integers(0, 2))
    rows = [[int(c == i) - a * (c == i + 1) for c in range(ncols)] for i, a in enumerate(links)]
    return np.array(_past_small_cells(rows), dtype=draw(st.sampled_from([np.int64, object])))


def _recorded(kernel, matrix):
    """kernel(matrix), the primes it asks `kernel_mod` for and the moduli it lifts, in order."""
    asked, lifted = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "kernel_mod", lambda m, p: asked.append(p) or kernel_mod(m, p))
        patch.setattr(linalg, "lift_residue_vector",
                      lambda residues, modulus: lifted.append(modulus) or lift_residue_vector(residues, modulus))
        return kernel(matrix), asked, lifted


@given(ladder_matrices())
@settings(max_examples=120, deadline=None)
def test_one_running_combination_equals_the_rung_by_rung_ladder(matrix):
    # the same kernel from the same primes in the same order, lifting the
    # same moduli, as the ladder that recombines from the first prime
    assert matrix.size > _SMALL_CELLS
    assert _recorded(certified_kernel, matrix) == _recorded(_ladder_kernel, matrix)


def test_certified_kernel_chooses_its_route_by_cell_count(monkeypatch):
    # at most `_SMALL_CELLS` cells only Bareiss runs; above, PRIMES[0] first,
    # and the all-ones kernel lifts from it
    bareiss = _counting_bareiss(monkeypatch)
    asked = _counting_kernel_mod(monkeypatch)
    for shape in ((0, 4), (1, 1), (10, 16), (16, 10), (1, _SMALL_CELLS), (1, _SMALL_CELLS + 1),
                  (7, 23), (8, 21)):
        asked.clear()
        bareiss.clear()
        matrix = np.ones(shape, dtype=np.int64)
        assert certified_kernel(matrix) == bareiss_kernel(matrix)
        small = shape[0] * shape[1] <= _SMALL_CELLS
        assert (len(bareiss), asked) == ((1, []) if small else (0, [PRIMES[0]])), shape


def _plain_kernel_mod(matrix, p):
    """The standard kernel read off one rref_mod of the whole matrix, one row
    per free column, with its pivots and free columns (oracle)."""
    rref, pivots = rref_mod(matrix, p)
    ncols = matrix.shape[1]
    free = sorted(set(range(ncols)) - set(pivots))
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
    if pivots and free:
        basis[:, pivots] = (-rref[:, free].T) % p
    return basis, pivots, free


def _assert_matches_plain_kernel(matrix, p):
    """Checks `kernel_mod` against the oracle; returns the pivots, the complement of the free columns."""
    before = matrix.copy()
    want_basis, want_pivots, want_free = _plain_kernel_mod(matrix, p)
    basis, free = kernel_mod(matrix, p)
    pivots = sorted(set(range(matrix.shape[1])) - set(free))
    assert (matrix == before).all() and matrix.dtype == before.dtype
    assert pivots == want_pivots and free == want_free
    assert basis.dtype == want_basis.dtype == np.int64 and basis.shape == want_basis.shape
    assert (basis == want_basis).all()
    assert free == sorted(set(free)) and all(0 <= f < matrix.shape[1] for f in free)
    return pivots


@st.composite
def sparse_mod_matrices(draw):
    """Sparse matrices with zero rows, unit rows and singleton chains.

    A chain's row i is nonzero on the chain's first i + 1 columns, so it
    becomes a singleton only once earlier waves have forced the first i.
    Entries include multiples of p, nonzero integers that vanish mod p.
    Some matrices are object arrays of Python integers beyond 2**63 with
    the same residues.
    """
    p = draw(st.sampled_from(PRIMES[:3]))
    ncols = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 5, p, -2 * p, p - 1, p + 1])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    chain = draw(st.permutations(range(ncols)))[: draw(st.integers(0, ncols))]
    nonzero = st.sampled_from([1, -1, 2, -3, 5, p - 1, p + 1])
    for i in range(len(chain)):
        row = [0] * ncols
        for c in chain[: i + 1]:
            row[c] = draw(nonzero)
        rows.append(row)
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        rows.append([int(j == c) for j in range(ncols)])
    rows = draw(st.permutations(rows))
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    if draw(st.booleans()):
        shifts = draw(st.lists(st.integers(-2**20, 2**20), min_size=matrix.size,
                               max_size=matrix.size))
        matrix = matrix.astype(object) + p * 2**63 * np.array(shifts, dtype=object).reshape(
            matrix.shape)
    return matrix, p


@given(sparse_mod_matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_mod_matches_the_plain_rref_kernel(case):
    matrix, p = case
    _assert_matches_plain_kernel(matrix, p)
    # an exact matrix of any dtype has the kernel of its int64 reduction
    basis, free = kernel_mod(matrix, p)
    want_basis, want_free = kernel_mod(np.mod(matrix, p).astype(np.int64), p)
    assert free == want_free
    assert basis.dtype == want_basis.dtype and basis.shape == want_basis.shape
    assert (basis == want_basis).all()


def test_kernel_mod_singleton_edge_cases():
    p = PRIMES[0]
    # no rows: the whole space, as the identity
    basis, free = kernel_mod(np.zeros((0, 4), dtype=np.int64), p)
    assert (basis == np.eye(4, dtype=np.int64)).all() and free == [0, 1, 2, 3]
    _assert_matches_plain_kernel(np.zeros((0, 4), dtype=np.int64), p)
    # zero rows, and entries that vanish mod p, leave every column free
    assert _assert_matches_plain_kernel(np.array([[0, 0, 0], [p, 0, -p]]), p) == []
    # a chain forced in three waves, with every column forced: empty kernel
    chain = np.array([[1, 2, 3], [0, 4, 5], [0, 0, 6]], dtype=np.int64)
    assert _assert_matches_plain_kernel(chain, p) == [0, 1, 2]
    assert kernel_mod(chain, p)[0].shape == (0, 3)
    # row 1 is a singleton only once row 0 has forced column 3
    wave = np.array([[0, 0, 0, 7], [0, 0, 1, 1], [1, 1, 1, 0]], dtype=np.int64)
    assert _assert_matches_plain_kernel(wave, p) == [0, 2, 3]


def _rref_mod_full_rows(matrix, p):
    """Gauss-Jordan mod p on whole rows of Python integers (oracle for `rref_mod`)."""
    a = [[int(v) % p for v in row] for row in matrix.tolist()]
    pivots: list[int] = []
    r = 0
    for c in range(matrix.shape[1]):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


@st.composite
def dense_mod_matrices(draw):
    """Dense matrices with zero columns and dependent rows, int64 or beyond 2**63.

    Entries include multiples of p and p - 1; a dependent row is a small
    combination of two others, so the rank drops.
    """
    p = draw(st.sampled_from(PRIMES[:3]))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.sampled_from([0, 1, -1, p, -3 * p, p - 1, p + 1]),
                      st.integers(-2**40, 2**40))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    if nrows >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    matrix = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    if draw(st.booleans()):
        matrix = matrix.astype(object) + p * 2**64 * draw(st.integers(-2**20, 2**20))
    return matrix, p


@given(st.one_of(dense_mod_matrices(), sparse_mod_matrices()))
@settings(max_examples=300, deadline=None)
def test_rref_mod_matches_full_row_gauss_jordan(case):
    matrix, p = case
    rref, pivots = rref_mod(matrix, p)
    want, want_pivots = _rref_mod_full_rows(matrix, p)
    assert pivots == want_pivots
    assert rref.dtype == np.int64 and rref.shape == (len(want), matrix.shape[1])
    assert rref.tolist() == want


@st.composite
def kernel_mod_matrices(draw, small=None):
    """Matrices at or below `_SMALL_CELLS` cells or above it, int64 or beyond 2**63.

    `small` picks the side; None draws it.  Entries are negative, multiples
    of p or beyond p; some rows are zero or singletons, some columns zero,
    some rows dependent, some matrices zero.
    """
    p = draw(st.sampled_from(PRIMES[:3]))
    if small if small is not None else draw(st.booleans()):
        nrows = draw(st.integers(0, 12))
        ncols = draw(st.integers(1, max(1, _SMALL_CELLS // max(nrows, 1))))
    else:
        nrows = draw(st.integers(9, 16))
        ncols = draw(st.integers(_SMALL_CELLS // nrows + 1, 24))
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, -1, -3, p, -2 * p, p - 1, p + 1]),
                      st.integers(-2**40, 2**40))
    rows = draw(hnp.arrays(np.int64, (nrows, ncols), elements=entry, fill=st.nothing())).tolist()
    if rows and draw(st.booleans()):
        rows = [[0] * ncols for _ in rows]
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=3)) if nrows else ():
        c = draw(st.integers(-1, ncols - 1))  # -1: a zero row, else a singleton at c
        rows[i] = [draw(entry) if j == c else 0 for j in range(ncols)]
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        for row in rows:
            row[c] = 0
    if nrows >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    matrix = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    if draw(st.booleans()):
        matrix = matrix.astype(object) + p * 2**64 * draw(st.integers(-2**20, 2**20))
    return matrix, p


@given(kernel_mod_matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_mod_matches_the_plain_rref_kernel_on_both_sides_of_small_cells(case):
    _assert_matches_plain_kernel(*case)


def _by_the_ladder(matrix):
    """`certified_kernel` with every matrix sent up the prime ladder."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_SMALL_CELLS", -1)
        return certified_kernel(matrix)


@given(st.one_of(kernel_mod_matrices(small=True).map(lambda case: case[0]),
                 exact_matrices().filter(lambda rows: rows).map(
                     lambda rows: np.array([primitive_integer_vector(row) for row in rows], dtype=object))))
@settings(max_examples=150, deadline=None)
def test_small_kernels_by_bareiss_equal_the_prime_ladder(matrix):
    # the exact elimination and the ladder return the same standard basis,
    # whatever rung the ladder stops at (Bareiss too, past ten primes)
    assert matrix.size <= _SMALL_CELLS
    assert certified_kernel(matrix) == _by_the_ladder(matrix)


def _python_rows_annihilate(matrix, vectors):
    """Whether matrix v = 0, as sums of Python integer products over `matrix.tolist()` (oracle)."""
    rows = matrix.tolist()
    return not any(sum(map(operator.mul, row, v)) for v in vectors for row in rows)


def _on_both_paths(matrix, vectors):
    """The Python-row oracle's answer and `_annihilates`'s."""
    return [_python_rows_annihilate(matrix, vectors), _annihilates(matrix, vectors)]


@given(kernel_mod_matrices(), st.integers(0, 2**80))
@settings(max_examples=100, deadline=None)
def test_annihilates_paths_agree_on_members_and_non_members(case, scale):
    matrix, _ = case
    if not matrix.size:
        return
    members = [[scale * v for v in vec] for vec in bareiss_kernel(matrix)]
    assert _on_both_paths(matrix, members) == [True, True]
    nonzero = np.flatnonzero(matrix.any(axis=0))
    if nonzero.size:
        # a unit vector on a nonzero column is no member, scaled beyond int64 or not
        miss = [int(c == nonzero[0]) * (scale or 1) for c in range(matrix.shape[1])]
        assert _on_both_paths(matrix, members + [miss]) == [False, False]
        assert _on_both_paths(matrix, [miss] + members) == [False, False]


def test_annihilates_does_not_wrap_around_int64():
    # 2**32 * 2**31 twice is 2**64, which int64 arithmetic would read as 0
    matrix = np.array([[2**32, 2**32], [1, -1]], dtype=np.int64)
    assert _on_both_paths(matrix, [[2**31, 2**31]]) == [False, False]
    assert _on_both_paths(matrix, [[2**70, -2**70]]) == [False, False]
    assert _on_both_paths(matrix, [[0, 0]]) == [True, True]
    assert _on_both_paths(matrix, []) == [True, True]
    big = matrix.astype(object) * 2**70
    assert _on_both_paths(big, [[1, 1]]) == [False, False]
