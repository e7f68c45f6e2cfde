"""Certified kernels: one elimination mod p, checked over the integers.

The integer elimination lives in `exact`, which imports no numpy:
`bareiss_kernel` reads a kernel off its `rref`, the integer matrix d RREF,
and `primitive_integer_vector` scales a rational vector to the integer rows
that `exact` takes (keeping its rank, row space and pivots).  This module
loads numpy, and so do `graded` and every module that solves through it.
Mod p, `kernel_mod` is one Gauss-Jordan reduction with vectorized numpy
(`rref_mod`, which updates only the live columns at and right of each
pivot).  `graded` decides the columns forced to zero before any prime,
once per solve and over the integers (`graded._drop_singletons`).

`certified_kernel` is the only escalation loop in the package.  It is handed
one exact integer matrix A (int64 or Python integers) and certifies every
answer itself by A v = 0 over the integers (`_annihilates`), so a caller
builds its matrix once: the graded solver hands it a divisibility matrix, or
the small image of a known larger kernel under one new block.  It picks its
route by the cell count rows x cols:

- at most `_SMALL_CELLS` = 160 cells: `bareiss_kernel`, exact with no
  prime, where numpy's fixed cost per call and per pivot would dominate.
  Timed one by one on the 1,823 such kernels of the three benchmark
  workloads (2-core Linux host, best of 5, two runs), it took with its exact
  check 32-39 us a kernel at most 32 cells, 103-107 at 33-64 and 146-193 at
  65-100, against 151, 268 and 332 us up the prime ladder.  On 258 kernels
  of 101-400 cells from A3, deletedA3 and B3 sweeps the two routes were
  within run-to-run noise of each other.
- above: the prime ladder.
  1. one 31-bit prime: `kernel_mod` reduces A mod p itself, and
     `lift_residue_vector` lifts each standard kernel vector mod p straight
     to a primitive integer vector (rational reconstruction, Monagan 2004);
  2. the first two primes, then the first three, and so on through all ten
     `PRIMES`, when a vector fails to lift or the exact check rejects it.
     Each rung adds the next prime's kernel to one running combination of
     the residues, Garner's mixed-radix method over the whole kernel with
     one modular inverse per prime (Garner 1959), and lifts it again; the
     primes must agree on the free columns.  A lift needs a modulus of about
     twice the bits of the answer: X3 (7,7,7,6,6,6) at degree 18 needs five
     primes, B3 (3^9) at degree 17 four;
  3. `bareiss_kernel`, which cannot fail to lift, only be slower.

Every answer passes the exact check A v = 0 over the integers, one numpy
product (`_exact_product`, int64 when a bound proves it safe).  Soundness
does not rest on the lift: a mod-p reduction of the exact matrix can only
enlarge the kernel (an exact dependency survives reduction, so
null_Q <= null_p), and the verified vectors are echelon-patterned hence
independent, so exhibiting null_p exact kernel vectors pins the dimension.
A Bareiss basis that fails the check raises `InternalCheckError`.

Kernel bases are primitive integer vectors (content 1, first nonzero entry
positive) in the standard free-column order, so every route produces
byte-identical output.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InternalCheckError
from .exact import _normalize, rref
from .polyring import Scalar, _frac

# Largest primes below 2**31; products of two entries stay below 2**63 during
# elimination, keeping int64 arithmetic overflow-free.
PRIMES: tuple[int, ...] = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
)

_INT64_SAFE = 2**62

# Cell count (rows x cols) at or below which `certified_kernel` runs Bareiss
# with no prime; the module docstring has the measured crossover.
_SMALL_CELLS = 160


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


def kernel_mod(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Standard kernel basis mod p, one row per free column, and the free columns.

    The free columns and the standard basis (the kernel vector that is 1 at
    one free column and 0 at the others) are read off one `rref_mod` of the
    whole matrix, and so depend only on the matrix and p.  The input, int64
    or of Python integers, is reduced mod p there and left unchanged.  A
    graded matrix comes with its forced columns already taken out.
    """
    rref, pivots = rref_mod(matrix, p)
    pivot = np.zeros(matrix.shape[1], dtype=bool)
    pivot[pivots] = True
    free = np.flatnonzero(~pivot)
    basis = np.zeros((free.size, pivot.size), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-rref[:, free]).T % p
    return basis, free.tolist()


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


def primitive_integer_vector(vec: Sequence[Scalar]) -> list[int]:
    """Scale a rational vector to coprime integers with positive first nonzero."""
    fracs = [_frac(v) for v in vec]
    denom = math.lcm(*(f.denominator for f in fracs))
    return _normalize([int(f * denom) for f in fracs])


def bareiss_kernel(matrix: np.ndarray | Sequence[Sequence[int]]) -> list[list[int]]:
    """Kernel basis read off `rref`: d at free column f, -reduced[i][f] at pivot p_i; primitive.

    An array is read with one `tolist()`, which yields Python integers from
    int64 and object entries alike.  A 2-D array with no rows keeps its
    column count: its kernel is everything.
    """
    if isinstance(matrix, np.ndarray):
        rows, n = matrix.tolist(), matrix.shape[1]
    else:
        rows = [list(row) for row in matrix]
        n = len(rows[0]) if rows else 0
    reduced, pivots, d = rref(rows)
    row_of = dict(zip(pivots, reduced))
    return [_normalize([-row_of[c][f] if c in row_of else d * (c == f) for c in range(n)])
            for f in range(n) if f not in row_of]


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
    """Whether matrix v = 0 over the integers for every vector v: one `_exact_product`."""
    return not vectors or not _exact_product(vectors, matrix.T).any()


def certified_kernel(matrix: np.ndarray) -> list[list[int]]:
    """Certified rational kernel of an exact integer matrix, as primitive vectors.

    `matrix` is a 2-D array, int64 or of Python integers.  At most
    `_SMALL_CELLS` cells go straight to `bareiss_kernel`.  A larger matrix
    walks `PRIMES` in order, asking `kernel_mod` for one prime per pass and
    keeping one running combination of the residues by Garner's mixed-radix
    method over the whole kernel: with x the combination mod M so far, prime
    p adds the digit (r_p - x) * (M^-1 mod p) mod p, and x becomes
    x + M * digit.  x stays int64 while M * p < 2**62 and holds Python
    integers beyond.  Each pass lifts x mod M and returns the first lift that
    passes `_annihilates`; a prime whose free columns differ from the first
    prime's, or a tenth prime without an answer, leaves it to Bareiss.  A
    Bareiss basis that fails the check raises `InternalCheckError`.
    """
    if matrix.size > _SMALL_CELLS:
        modulus = 1
        for p in PRIMES:
            basis, free = kernel_mod(matrix, p)
            if modulus == 1:
                combined, structure = basis, free
            elif free != structure:
                break
            else:
                if modulus * p >= _INT64_SAFE:
                    combined = combined.astype(object)
                digit = (basis - combined % p) * pow(modulus, -1, p) % p
                combined = combined + modulus * digit
            modulus *= p
            vectors = [lift_residue_vector(row, modulus) for row in combined.tolist()]
            if None not in vectors and _annihilates(matrix, vectors):
                return vectors
    vectors = bareiss_kernel(matrix)
    if not _annihilates(matrix, vectors):
        raise InternalCheckError("reference elimination produced a non-member")
    return vectors
