"""Kernel computations: the modular fast path against fraction-free elimination."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multider.errors import InternalCheckError
from multider.linalg import (
    PRIMES,
    bareiss_kernel,
    certified_kernel,
    crt_pair,
    kernel_mod,
    lift_residue_vector,
    primitive_integer_vector,
    rational_reconstruction,
    rref_mod,
)


def _fraction_rank(rows):
    mat = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][c]
        mat[rank] = [v / inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _in_span(vec, basis):
    if not basis:
        return not any(vec)
    return _fraction_rank(basis) == _fraction_rank(basis + [list(vec)])


def _standard_kernel(exact, p):
    """The per-prime kernel of the whole matrix: kernel_mod, one vector per row."""
    basis, _, free = kernel_mod(exact, p)
    return basis.T, free


def _certified(matrix, kernel_p=_standard_kernel):
    """`certified_kernel` of a plain integer matrix, checked by an exact A v == 0."""
    if not len(matrix) or not len(matrix[0]):
        return []
    exact = np.array([[int(v) for v in row] for row in matrix], dtype=object)
    return certified_kernel(
        lambda p: kernel_p(exact, p),
        lambda vectors: all(all(x == 0 for x in exact.dot(np.array(v, dtype=object)))
                            for v in vectors),
        lambda: matrix,
    )


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


def test_crt_pair():
    r, m = crt_pair(2, 7, 3, 11)
    assert m == 77 and r % 7 == 2 and r % 11 == 3
    r2, m2 = crt_pair(r, m, 1, 13)
    assert m2 == 1001 and r2 % 13 == 1 and r2 % 77 == r % 77


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


@given(st.lists(small_fractions, min_size=1, max_size=8), st.sampled_from([1, 3]))
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


def test_certified_kernel_rejects_a_bad_reference_basis():
    matrix = [[1, 2, 3], [2, 4, 7]]
    exact = np.array(matrix, dtype=np.int64)
    with pytest.raises(InternalCheckError):
        certified_kernel(lambda p: _standard_kernel(exact, p), lambda vectors: False, lambda: matrix)


# the kernel vector (10**12, 10**6, 1, 0) outgrows a one-prime lift, so
# certification needs the three-prime CRT; (0, 0, 0, 1) lifts from any prime
NEEDS_CRT = [[1, -10**6, 0, 0], [0, 1, -10**6, 0]]


def _counting_bareiss(monkeypatch):
    from multider import linalg

    calls = []
    original = linalg.bareiss_kernel
    monkeypatch.setattr(linalg, "bareiss_kernel", lambda rows: calls.append(rows) or original(rows))
    return calls


def test_certified_kernel_lifts_by_crt_when_one_prime_is_not_enough(monkeypatch):
    bareiss = _counting_bareiss(monkeypatch)
    assert _certified(NEEDS_CRT) == [[10**12, 10**6, 1, 0], [0, 0, 0, 1]]
    assert bareiss == []


def test_certified_kernel_treats_none_as_a_failed_prime(monkeypatch):
    # a per-prime kernel may give up on a prime; that prime's pass fails and
    # the loop moves on, here to Bareiss since every pass uses PRIMES[0]
    bareiss = _counting_bareiss(monkeypatch)
    for unlucky in (PRIMES[0], PRIMES[1]):
        def kernel_p(exact, p, unlucky=unlucky):
            return None if p == unlucky else _standard_kernel(exact, p)

        bareiss.clear()
        assert _certified(NEEDS_CRT, kernel_p) == bareiss_kernel(NEEDS_CRT)
        assert bareiss == [NEEDS_CRT]


def test_certified_kernel_rejects_primes_that_disagree_on_free_columns(monkeypatch):
    # the third prime loses the last kernel vector; its residues alone would
    # still lift and verify, so only the free-column comparison catches it
    def kernel_p(exact, p):
        basis, free = _standard_kernel(exact, p)
        return (basis[:-1], free[:-1]) if p == PRIMES[2] else (basis, free)

    bareiss = _counting_bareiss(monkeypatch)
    assert _certified(NEEDS_CRT, kernel_p) == [[10**12, 10**6, 1, 0], [0, 0, 0, 1]]
    assert bareiss == [NEEDS_CRT]


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
