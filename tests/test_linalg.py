"""Exact elimination: the fraction-free pass against a Fraction reference, and
kernels, the modular fast path against fraction-free elimination."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multider import Poly, linalg
from multider.errors import InternalCheckError
from multider.linalg import (
    PRIMES,
    _modular_kernel,
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
    reduced, pivots = rref(ints)
    assert pivots == expected_pivots and reduced == expected
    assert all(type(v) is Fraction for row in reduced for v in row)
    assert rank(ints) == len(expected_pivots) == len(echelon(ints)[0])


@given(exact_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_echelon_determinant_matches_polyring(rows):
    constant = [[Poly.constant(1, v) for v in row] for row in rows]
    assert _determinant(rows) == determinant(constant).leading_coefficient()


def test_echelon_edge_cases():
    assert echelon([]) == ([], [], 1)
    assert rref([]) == ([], []) and rank([]) == 0
    assert echelon([[0, 0], [0, 0]]) == ([], [], 1)
    assert rank([[0, 0, 0], [1, 2, 3], [2, 4, 6]]) == 1
    # one swap flips the sign, two restore it
    assert _determinant([[0, 1], [1, 0]]) == -1
    assert echelon([[0, 0, 1], [1, 0, 0], [0, 1, 0]])[2] == 1
    assert _determinant([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1
    big = 2**64 + 13
    assert _determinant([[big, 1], [1, big]]) == big * big - 1
    assert _determinant([[Fraction(1, 2), Fraction(1, 3)], [1, 1]]) == Fraction(1, 6)
    # a zero column between pivots: rref skips it and pivots stay in order
    assert rref([[0, 2, 0, 4], [0, 1, 3, 5]]) == (
        [[0, 1, 0, 2], [0, 0, 1, 1]], [1, 2])


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
    basis, pivots, free = kernel_mod(a, p)
    assert basis.shape == (5, len(free))
    prod = (a.astype(object) @ basis.astype(object)) % p
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
    """Residue kernels for the first one, two or three primes, with the same free columns.

    Kernels may be empty; residues 0 and p - 1 are drawn often.
    """
    primes = PRIMES[:draw(st.integers(1, 3))]
    ncols = draw(st.integers(1, 6))
    free = sorted(draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=4)))
    nvectors = len(free)
    kernels = {}
    for p in primes:
        entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        rows = [[draw(entry) for _ in range(ncols)] for _ in range(nvectors)]
        kernels[p] = (np.array(rows, dtype=np.int64).reshape(nvectors, ncols), free)
    return primes, kernels


@given(prime_kernels())
@settings(max_examples=150, deadline=None)
def test_garner_over_whole_kernels_matches_the_crt_pair_fold(case):
    # the lift is replaced by the identity, so `_modular_kernel` returns the
    # combined residues; three primes pass 2**62 and take Python integers.
    # Every prime's kernel is handed over already computed, so no matrix is
    # reduced.
    primes, kernels = case
    lifted = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "lift_residue_vector",
                      lambda residues, modulus: lifted.append(modulus) or residues)
        combined = _modular_kernel(None, primes, dict(kernels))
    # the oracle: a per-entry crt_pair fold over the rows
    expected, modulus = kernels[primes[0]][0].tolist(), primes[0]
    for p in primes[1:]:
        expected = [[crt_pair(a, modulus, b, p)[0] for a, b in zip(old, new)]
                    for old, new in zip(expected, kernels[p][0].tolist())]
        modulus *= p
    assert combined == expected
    assert all(type(v) is int and 0 <= v < modulus for row in combined for v in row)
    assert lifted == [modulus] * len(expected)


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


# the kernel vector (10**12, 10**6, 1, 0) outgrows a one- and a two-prime
# lift, so certification needs three primes; (10**8, 10**4, 1, 0) lifts from
# two; (0, 0, 0, 1) lifts from any prime
NEEDS_CRT = [[1, -10**6, 0, 0], [0, 1, -10**6, 0]]
NEEDS_TWO_PRIMES = [[1, -10**4, 0, 0], [0, 1, -10**4, 0]]


def _counting_bareiss(monkeypatch):
    from multider import linalg

    calls = []
    original = linalg.bareiss_kernel
    monkeypatch.setattr(linalg, "bareiss_kernel",
                        lambda rows: calls.append(np.asarray(rows).tolist()) or original(rows))
    return calls


def test_certified_kernel_lifts_by_crt_when_one_prime_is_not_enough(monkeypatch):
    # primes are added one at a time, each prime's kernel computed once
    bareiss = _counting_bareiss(monkeypatch)
    asked = []
    monkeypatch.setattr(linalg, "kernel_mod", lambda matrix, p: asked.append(p) or kernel_mod(matrix, p))
    for matrix, lead, primes in ((NEEDS_TWO_PRIMES, 10**4, 2), (NEEDS_CRT, 10**6, 3)):
        asked.clear()
        assert _certified(matrix) == [[lead * lead, lead, 1, 0], [0, 0, 0, 1]]
        assert asked == list(PRIMES[:primes])
    assert bareiss == []


def test_certified_kernel_rejects_primes_that_disagree_on_free_columns(monkeypatch):
    # the third prime loses the last kernel vector.  The free-column
    # comparison rejects the three-prime rung before anything is lifted;
    # without it the short kernel would be broadcast over the combination,
    # lifted, rejected by the exact check and answered by the same Bareiss
    # run, so only the lifted moduli show the comparison at work
    def losing(matrix, p):
        basis, pivots, free = kernel_mod(matrix, p)
        return (basis[:, :-1], pivots, free[:-1]) if p == PRIMES[2] else (basis, pivots, free)

    lift, lifted = linalg.lift_residue_vector, set()
    monkeypatch.setattr(linalg, "lift_residue_vector",
                        lambda residues, modulus: lifted.add(modulus) or lift(residues, modulus))
    monkeypatch.setattr(linalg, "kernel_mod", losing)
    bareiss = _counting_bareiss(monkeypatch)
    assert _certified(NEEDS_CRT) == [[10**12, 10**6, 1, 0], [0, 0, 0, 1]]
    assert bareiss == [NEEDS_CRT]
    assert lifted == {PRIMES[0], PRIMES[0] * PRIMES[1]}


def _plain_kernel_mod(matrix, p):
    """The standard kernel read off one rref_mod of the whole matrix (oracle)."""
    rref, pivots = rref_mod(matrix, p)
    ncols = matrix.shape[1]
    free = sorted(set(range(ncols)) - set(pivots))
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
    if pivots and free:
        basis[pivots, :] = (-rref[:, free]) % p
    return basis, pivots, free


def _assert_matches_plain_kernel(matrix, p):
    basis, pivots, free = kernel_mod(matrix, p)
    want_basis, want_pivots, want_free = _plain_kernel_mod(matrix, p)
    assert pivots == want_pivots and free == want_free
    assert basis.dtype == want_basis.dtype and basis.shape == want_basis.shape
    assert (basis == want_basis).all()
    assert pivots == sorted(pivots)
    assert sorted(pivots + free) == list(range(matrix.shape[1]))
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
    basis, pivots, free = kernel_mod(matrix, p)
    want_basis, want_pivots, want_free = kernel_mod(np.mod(matrix, p).astype(np.int64), p)
    assert (pivots, free) == (want_pivots, want_free)
    assert basis.dtype == want_basis.dtype and basis.shape == want_basis.shape
    assert (basis == want_basis).all()


def test_kernel_mod_singleton_edge_cases():
    p = PRIMES[0]
    # no rows: the whole space, as the identity
    basis, pivots, free = kernel_mod(np.zeros((0, 4), dtype=np.int64), p)
    assert (basis == np.eye(4, dtype=np.int64)).all() and pivots == [] and free == [0, 1, 2, 3]
    _assert_matches_plain_kernel(np.zeros((0, 4), dtype=np.int64), p)
    # zero rows, and entries that vanish mod p, leave every column free
    assert _assert_matches_plain_kernel(np.array([[0, 0, 0], [p, 0, -p]]), p) == []
    # a chain forced in three waves, with every column forced: empty kernel
    chain = np.array([[1, 2, 3], [0, 4, 5], [0, 0, 6]], dtype=np.int64)
    assert _assert_matches_plain_kernel(chain, p) == [0, 1, 2]
    assert kernel_mod(chain, p)[0].shape == (3, 0)
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
