"""Exact linear algebra: one elimination over the integers, one mod p.

`echelon` is the one fraction-free forward pass (Bareiss 1968).  Its pivot
count is a rank, its last pivot a determinant, `rref` back-substitutes it in
`Fraction`s and `bareiss_kernel` reads a kernel from it.  Callers hand it
integer rows (a rational row scaled by `primitive_integer_vector` keeps its
rank, row space and pivots).  `rref_mod` is the one elimination mod p.

`certified_kernel` is the only escalation loop in the package.  It is handed
one exact integer matrix A (int64 or Python integers) and certifies every
answer itself by A v = 0 over the integers (`_annihilates`), so a caller
builds its matrix once: the graded solver hands it a divisibility matrix, or
the small image of a known larger kernel under one new block.  `kernel_mod`
reduces A mod p itself; it deletes singleton rows and the columns they force
to zero, then row reduces the rest with vectorized numpy (`rref_mod`, which
updates only the live columns at and right of each pivot).  The loop tries:

1. one 31-bit prime: `lift_residue_vector` lifts each standard kernel vector
   mod p straight to a primitive integer vector (rational reconstruction,
   Monagan 2004);
2. the first two primes, then the first three, when a vector fails to lift
   or the exact check rejects it.  Each rung adds one prime's kernel
   (computed once and reused by the next rung) and combines the residues by
   Garner's mixed-radix method over the whole kernel, one modular inverse per
   prime (Garner 1959); the primes must agree on the free columns;
3. `bareiss_kernel`, the kernel of `echelon`: slow but elementary, the
   reference implementation.

Every answer passes the exact check A v = 0 over the integers.
Soundness does not rest on the lift: a mod-p reduction of the exact matrix
can only enlarge the kernel (an exact dependency survives reduction, so
null_Q <= null_p), and the verified vectors are echelon-patterned hence
independent, so exhibiting null_p exact kernel vectors pins the dimension.
A Bareiss basis that fails the check raises `InternalCheckError`.

Kernel bases are primitive integer vectors (content 1, first nonzero entry
positive) in the standard free-column order, so every route produces
byte-identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

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
    unchanged.  A pivot step at column c touches only the live columns c and
    after: left of c, the pivot row is zero (the rows not yet used as pivots
    are zero on every column already passed), so the other rows would only
    have zero subtracted there.
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
        a[r, c:] = (a[r, c:] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other, c:] = (a[other, c:] - np.outer(a[other, c], a[r, c:])) % p
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


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Nonzero echelon rows, pivot columns and row-swap sign of an integer matrix.

    Every division is exact and each pivot is a minor of the input,
    so a square matrix of full rank has determinant sign * rows[-1][-1].
    """
    a = [[int(v) for v in row] for row in rows]
    m, n = len(a), len(a[0]) if a else 0
    prev = 1
    sign = 1
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
            sign = -sign
        lead = a[r][c]
        row_r = a[r]
        for i in range(r + 1, m):
            head = a[i][c]
            row_i = a[i]
            for j in range(c + 1, n):
                row_i[j] = (lead * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = lead
        pivots.append(c)
        r += 1
    return a[:r], pivots, sign


def rank(rows: Sequence[Sequence[int]]) -> int:
    return len(echelon(rows)[1])


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in `Fraction`s and pivot columns; unique per row space."""
    ech, pivots, _ = echelon(rows)
    reduced: list[list[Fraction]] = []
    for i in range(len(pivots) - 1, -1, -1):
        row = [Fraction(v, ech[i][pivots[i]]) for v in ech[i]]
        for c, below in zip(pivots[i + 1:], reduced):
            f = row[c]
            row = [v - f * w for v, w in zip(row, below)]
        reduced.insert(0, row)
    return reduced, pivots


def bareiss_kernel(matrix: np.ndarray | Sequence[Sequence[int]]) -> list[list[int]]:
    """Kernel basis from `echelon` by back substitution; primitive integer vectors.

    A 2-D array with no rows keeps its column count: its kernel is everything.
    """
    rows = np.array(matrix, dtype=object, ndmin=2)
    n = rows.shape[1]
    a, pivots, _ = echelon(rows.tolist())
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


def _max_abs(rows) -> int:
    """Largest |entry| of a 2-D array or of a sequence of integer rows."""
    if isinstance(rows, np.ndarray):
        return int(max(rows.max(initial=0), -rows.min(initial=0)))
    return max((max(max(row), -min(row)) for row in rows), default=0)


def _exact_product(left, right) -> np.ndarray:
    """left @ right over the integers: int64 when a bound proves it safe, Python integers otherwise."""
    fits = (_max_abs(left) + 1) * (_max_abs(right) + 1) * len(right) < _INT64_SAFE
    dtype = np.int64 if fits else object
    return np.asarray(left, dtype=dtype) @ np.asarray(right, dtype=dtype)


def _annihilates(matrix: np.ndarray, vectors: list[list[int]]) -> bool:
    """Whether matrix v = 0 over the integers for every vector v."""
    return not vectors or not _exact_product(vectors, matrix.T).any()


def _modular_kernel(matrix: np.ndarray, primes: Sequence[int], kernels: dict) -> list[list[int]] | None:
    """Kernel of `matrix` mod the product of `primes`, lifted to primitive integer vectors.

    `kernels` maps each prime seen so far to the standard kernel basis mod p
    (`kernel_mod`, one vector per row) and its free columns, and gains the
    new ones.  The residues are combined by Garner's mixed-radix method over
    whole kernels: with x the combination mod M so far, prime p adds the
    digit (r_p - x) * (M^-1 mod p) mod p, and x becomes x + M * digit.  x
    stays int64 while M * p < 2**62 and holds Python integers beyond.  None
    when two primes disagree on the free columns or a vector fails to lift.
    """
    modulus = 1
    combined = structure = None
    for p in primes:
        if p not in kernels:
            basis, _, free = kernel_mod(matrix, p)
            kernels[p] = basis.T, free
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
    vectors = [lift_residue_vector(row, modulus) for row in combined.tolist()]
    return None if any(v is None for v in vectors) else vectors


def certified_kernel(matrix: np.ndarray) -> list[list[int]]:
    """Certified rational kernel of an exact integer matrix, as primitive vectors.

    `matrix` is a 2-D array, int64 or of Python integers.  Tries one prime,
    then two, then three, adding one prime at a time (`kernel_mod` runs at
    most once per prime), then Bareiss; every answer passes `_annihilates`.
    """
    kernels: dict = {}
    for prime_count in (1, 2, 3):
        vectors = _modular_kernel(matrix, PRIMES[:prime_count], kernels)
        if vectors is not None and _annihilates(matrix, vectors):
            return vectors
    vectors = bareiss_kernel(matrix)
    if not _annihilates(matrix, vectors):
        raise InternalCheckError("reference elimination produced a non-member")
    return vectors
