"""Certified rational kernels of integer matrices: one pipeline, three routes.

`certified_kernel` is the only escalation loop in the package.  It is handed
the matrix three ways - as its standard kernel basis mod a prime, as an exact
integer check, and as the exact matrix - so the caller builds the matrix once
and chooses how the mod-p kernel is found: `kernel_mod` of the whole matrix,
or the graded solver's restriction of a known larger kernel.  `kernel_mod`
takes any exact integer matrix (int64 or Python integers) and reduces it mod
p itself; it deletes singleton rows and the columns they force to zero, then
row reduces the rest with vectorized numpy (`rref_mod`).  The loop tries:

1. one 31-bit prime: `lift_residue_vector` lifts each standard kernel vector
   mod p straight to a primitive integer vector (rational reconstruction,
   Monagan 2004);
2. three primes combined by CRT, when the caller's kernel fails for the
   first prime, a one-prime vector fails to lift or the exact check rejects
   it (the three primes must agree on the free columns; the first prime's
   kernel is reused, not recomputed);
3. `bareiss_kernel`, fraction-free elimination over the integers (Bareiss
   1968): slow but elementary, the reference implementation.

Every answer passes the caller's exact check A v = 0 over the integers.
Soundness does not rest on the lift: a mod-p reduction of the exact matrix
can only enlarge the kernel (an exact dependency survives reduction, so
null_Q <= null_p), and the verified vectors are echelon-patterned hence
independent, so exhibiting null_p exact kernel vectors pins the dimension;
any per-prime kernel that returns at least null_Q vectors is as good.
A Bareiss basis that fails the check raises `InternalCheckError`.

Kernel bases are primitive integer vectors (content 1, first nonzero entry
positive) in the standard free-column order, so every route produces
byte-identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InternalCheckError
from .polyring import Scalar, _frac

# Largest primes below 2**31; products of two entries stay below 2**63 during
# elimination, keeping int64 arithmetic overflow-free.
PRIMES: tuple[int, ...] = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
)

_INT64_SAFE = 2**62


def rref_mod(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p of an integer matrix, with pivot columns.

    `np.mod` returns a new array, which is reduced in place; the input is left
    unchanged.
    """
    a = np.mod(matrix, p).astype(np.int64, copy=False)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def kernel_mod(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Standard kernel basis mod p: columns of the result, one per free column.

    Singleton rows go first (the opening step of structured Gaussian
    elimination, LaMacchia & Odlyzko 1990): a row with one nonzero entry
    mod p forces its column to zero in every kernel vector, so the row and
    the column are deleted, zero rows with them, until no singleton is left.
    `rref_mod` reduces the rest.  The kernel of the matrix is the kernel of
    the remainder padded with zeros in the forced columns, in the same column
    order, so the kernel vectors have the same last nonzero positions: the
    free columns, the pivots (their complement) and the standard basis (the
    kernel vector that is 1 at one free column and 0 at the others) are those
    of a plain `rref_mod` of the whole matrix.  The input, int64 or of Python
    integers, is reduced mod p here and left unchanged.
    """
    reduced = np.mod(matrix, p).astype(np.int64, copy=False)
    ncols = reduced.shape[1]
    nonzero = reduced != 0
    pivot = np.zeros(ncols, dtype=bool)  # forced columns, then every pivot
    while True:
        counts = np.count_nonzero(nonzero, axis=1)
        hit = nonzero[counts == 1].any(axis=0)
        if not hit.any():
            break
        pivot |= hit
        nonzero[:, hit] = False
    # no singleton is left, so the rows still nonzero have two or more entries
    live = np.flatnonzero(~pivot)
    rref, sub_pivots = rref_mod(reduced[np.ix_(np.flatnonzero(counts), live)], p)
    pivot[live[sub_pivots]] = True
    free = np.flatnonzero(~pivot)
    basis = np.zeros((ncols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[live[sub_pivots], :] = (-rref[:, ~pivot[live]]) % p
    return basis, np.flatnonzero(pivot).tolist(), free.tolist()


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    inv = pow(m1 % m2, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return r1 + m1 * t, m1 * m2


def rational_reconstruction(a: int, modulus: int) -> tuple[int, int] | None:
    """num/den = a (mod modulus) with |num|, den <= sqrt(modulus/2), or None."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, a % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if den == 0 or den > bound or math.gcd(num, den) != 1:
        return None
    if (a * den - num) % modulus != 0:
        return None
    return num, den


def lift_residue_vector(residues: Sequence[int], modulus: int) -> list[int] | None:
    """Lift a residue vector to the primitive integer vector it represents.

    The entries share one denominator.  An entry that is a small balanced
    residue once scaled by it lifts directly; the first entry that is not
    fixes a larger denominator by rational reconstruction, and the numerators
    lifted so far are rescaled to it.  None when an entry has no
    reconstruction or the denominator outgrows sqrt(modulus/2).
    """
    bound = math.isqrt(modulus // 2)
    half = modulus // 2
    den = 1
    nums: list[int] = []
    for r in residues:
        v = (r * den) % modulus
        bal = v if v <= half else v - modulus
        if abs(bal) <= bound:
            nums.append(bal)
            continue
        rec = rational_reconstruction(r % modulus, modulus)
        if rec is None:
            return None
        num, d = rec
        grow = d // math.gcd(den, d)
        if grow > 1:
            nums = [x * grow for x in nums]
            den *= grow
        nums.append(num * (den // d))
        if den > bound:
            return None
    return _normalize(nums)


def _normalize(ints: list[int]) -> list[int]:
    """Divide by the content and make the first nonzero entry positive."""
    g = math.gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return ints if g == 1 else [v // g for v in ints]


def primitive_integer_vector(vec: Sequence[Scalar]) -> list[int]:
    """Scale a rational vector to coprime integers with positive first nonzero."""
    fracs = [_frac(v) for v in vec]
    denom = math.lcm(*(f.denominator for f in fracs))
    return _normalize([int(f * denom) for f in fracs])


def bareiss_kernel(matrix: np.ndarray | Sequence[Sequence[int]]) -> list[list[int]]:
    """Kernel basis via fraction-free elimination; primitive integer vectors.

    A 2-D array with no rows keeps its column count: its kernel is everything.
    """
    rows = np.array(matrix, dtype=object, ndmin=2)
    m, n = rows.shape
    if n == 0:
        return []
    a = [[int(v) for v in row] for row in rows.tolist()]
    prev = 1
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        lead = a[r][c]
        row_r = a[r]
        for i in range(r + 1, m):
            head = a[i][c]
            row_i = a[i]
            for j in range(c + 1, n):
                row_i[j] = (lead * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = a[r][c]
        pivots.append(c)
        r += 1
    free = sorted(set(range(n)) - set(pivots))
    basis: list[list[int]] = []
    for f in free:
        vec: list[Fraction] = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            accum = sum((Fraction(a[i][j]) * vec[j] for j in range(c + 1, n) if a[i][j]), Fraction(0))
            vec[c] = -accum / a[i][c]
        basis.append(primitive_integer_vector(vec))
    return basis


def _modular_kernel(kernel_p: Callable[[int], tuple[np.ndarray, list[int]] | None],
                    primes: Sequence[int], kernels: dict) -> list[list[int]] | None:
    """Kernel mod the product of `primes`, lifted to primitive integer vectors.

    `kernels` holds the per-prime kernels computed so far and gains the new
    ones.  None when `kernel_p` fails for a prime, two primes disagree on the
    free columns, or a vector fails to lift.
    """
    modulus = 1
    rows = structure = None
    for p in primes:
        if p not in kernels:
            kernels[p] = kernel_p(p)
        kernel = kernels[p]
        if kernel is None:
            return None
        basis, free = kernel
        residues = basis.tolist()
        if rows is None:
            rows, structure = residues, free
        elif free != structure:
            return None
        else:
            rows = [[crt_pair(a, modulus, b, p)[0] for a, b in zip(old, new)]
                    for old, new in zip(rows, residues)]
        modulus *= p
    vectors = [lift_residue_vector(row, modulus) for row in rows]
    return None if any(v is None for v in vectors) else vectors


def certified_kernel(
    kernel_p: Callable[[int], tuple[np.ndarray, list[int]] | None],
    verify: Callable[[list[list[int]]], bool],
    assemble_exact: Callable[[], np.ndarray],
) -> list[list[int]]:
    """Certified rational kernel of one integer matrix A, as primitive vectors.

    `kernel_p(p)` returns the standard kernel basis of A mod p, one vector per
    row (1 at its free column, 0 at the others, nothing after), with the free
    columns, or None when p is unlucky; at least null_Q(A) vectors.
    `verify(vectors)` decides A v = 0 over the integers for every vector, and
    `assemble_exact()` returns A as a 2-D integer array.  Runs one prime, then
    a three-prime CRT, then Bareiss; `kernel_p` runs at most once per prime.
    """
    kernels: dict = {}
    for prime_count in (1, 3):
        vectors = _modular_kernel(kernel_p, PRIMES[:prime_count], kernels)
        if vectors is not None and verify(vectors):
            return vectors
    vectors = bareiss_kernel(assemble_exact())
    if not verify(vectors):
        raise InternalCheckError("reference elimination produced a non-member")
    return vectors
