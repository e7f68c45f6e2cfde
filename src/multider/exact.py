"""Exact elimination over the integers, in pure Python.

`echelon` is the one fraction-free forward pass (Bareiss 1968), `rref` the
one back substitution: its pivot count is a rank, its last pivot d a
determinant, and `rref` returns the integer matrix d RREF, from which
`linalg.bareiss_kernel` reads a kernel.  Callers hand them integer rows (a
rational row scaled by `linalg.primitive_integer_vector` keeps its rank, row
space and pivots).  `_normalize` makes an integer vector primitive.

This module imports no numpy, so `arrangement`, which needs only these
names, and with it `import multider` load without numpy.  The mod-p half and
the certified kernel live in `linalg`.
"""

from __future__ import annotations

import math
from typing import Sequence


def _normalize(ints: list[int]) -> list[int]:
    """Divide by the content and make the first nonzero entry positive."""
    g = math.gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return ints if g == 1 else [v // g for v in ints]


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


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """d times the reduced row echelon form, pivot columns and d, all integral.

    d is `echelon`'s last pivot, a maximal minor (1 at rank 0).  Row i is
    (d e_i - sum_{k>i} e_i[p_k] row_k) / e_i[p_i] for the echelon rows e, an
    exact division; pivot columns hold d or 0, so only the others are computed.
    """
    ech, pivots, _ = echelon(rows)
    if not pivots:
        return [], [], 1
    d, n = ech[-1][pivots[-1]], len(ech[0])
    free = sorted(set(range(n)) - set(pivots))
    tails: list[list[int]] = []  # the rows below, on the free columns
    for i in range(len(pivots) - 1, -1, -1):
        e = ech[i]
        tail = [d * e[c] for c in free]
        for c, below in zip(pivots[i + 1:], tails):
            if e[c]:
                tail = [v - e[c] * w for v, w in zip(tail, below)]
        tails.insert(0, [v // e[pivots[i]] for v in tail])
    at = {c: j for j, c in enumerate(free)}
    return [[tail[at[c]] if c in at else d * (c == p) for c in range(n)]
            for p, tail in zip(pivots, tails)], pivots, d
