"""Exact graded pieces of the logarithmic derivation module.

A derivation of polynomial degree k is a vector of l homogeneous degree-k
coefficient polynomials.  Membership in D(A, m) says theta(alpha_H) is
divisible by alpha_H^{m(H)} for every H, which is linear in the coefficients:
after an integer change of coordinates sending alpha_H to a multiple of the
first new variable, divisibility means "all coefficients with first-variable
exponent below m(H) vanish".  Those vanishing conditions are the rows of the
divisibility matrix (`_Engine._matrix`); the graded piece is its rational kernel.

A coordinate hyperplane x_i = 0 (a form whose primitive is the unit vector
e_i) needs no substitution: theta(x_i) is the coefficient theta_i, so
divisibility by x_i^m says only that theta_i has no monomial with x_i-exponent
below m.  Those conditions are unit rows, one per column (i, a) with a_i < m,
and they are solved in closed form: the column is forced to zero.  No
coordinate hyperplane gets a template, a row or an image product.

Every other hyperplane contributes substitution rows that depend only on
(form, degree), so `_build_template` builds them in closed form, one matrix
per (form, degree), kept in the shared byte-bounded store (`cache.store`,
through `_template`) and reused across every multiplicity and sweep case;
the rows for every multiplicity are prefixes of that matrix.  The same exact
conditions, one hyperplane at a time, decide membership of any one
coefficient vector (`graded_member`).  A multiplicity with no positive entry
yields no rows and so the whole space of degree-k derivations.

Hyperplane H contributes the conditions e = 0..m(H) - 1 of first-variable
exponents (for x_i = 0, of x_i-exponents), so D(A, m + delta_H)_k is the set
of theta in D(A, m)_k whose block m(H) vanishes.  A solve with a cached basis
V of some D(A, m - delta_H)_k applies the new block to V exactly, giving the
image (block rows x dim V): the template block times theta(alpha_H), or for
x_i = 0 the columns of V at the theta_i coefficients of the monomials with
x_i-exponent m(H) - 1.  If the block does not exist at degree k or the image
vanishes, V is the answer unchanged.  Every other solve builds one exact
integer matrix A and hands it to `linalg.certified_kernel`, which computes its
kernel K (by Bareiss elimination at most 160 cells, else mod one prime, then
up to ten, then by Bareiss) and certifies it by A K = 0 over the integers;
the solver itself holds no kernel or check code.  The two routes differ only
in A (`solve_routes` counts them):

- restricted: the image.  The answer is the rows of K V, computed exactly
  and made primitive.  Every stored basis is `_solve` output, the standard
  primitive kernel basis (a multiple of 1 at one free column, 0 at the
  others, nothing after) in ascending free-column order, and so is K.  Row
  j of K V is therefore nonzero at its own free column, zero at the child's
  other free columns and zero after its own: primitive, it is the child's
  j-th standard vector, the one the full solve returns.  A parent in any
  other form leaves K V out of that form, which a check of its nonzero
  pattern catches; its rows are then reduced over the integers (`exact.rref`
  of the reversed rows, each made primitive), so the answer is a function of
  the span of the parent alone.  Membership follows from the certified parent
  and the exact image check, and the dimension is the verified nullity of
  the image, so no mod-p answer goes unverified.  The divisibility matrix of
  m is never built.
- full: the divisibility matrix of the non-coordinate hyperplanes of the
  support, on the live columns only (those no coordinate hyperplane forces),
  built once per solve.  Over the integers, `_drop_singletons` then deletes
  each row with one nonzero entry on the columns left, with that column,
  until none is left (structured Gaussian elimination's opening step,
  LaMacchia & Odlyzko 1990).  The kernel of the rest, with zeros written
  into every forced column, is the kernel of the whole matrix, and so is
  its standard basis: padding keeps each vector's last nonzero position,
  and each forced column is a pivot of the whole matrix (its unit vector
  lies in the row space).  A deleted row is nonzero only at forced columns
  and `_annihilates` checks every row left, so the certificate stays
  complete.  The full route serves cache misses and is the reference the
  restriction is tested against.

Cache state chooses the route, never the answer: every route returns the
same primitive vectors in the same order.  An engine keeps its bases in the
shared store, keyed by (arrangement, m, k) and sized by `cache.rows_bytes`,
and nowhere else; a dimension is the length of a basis.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrangement import Arrangement, Multiarrangement
from .cache import rows_bytes, store
from .errors import InternalCheckError
from .exact import _normalize, rref
from .linalg import _INT64_SAFE, _exact_product, _max_abs, certified_kernel
from .polyring import _MONOMIAL_CACHE_LIMIT, monomial_count, monomial_exponents

# an object entry: an 8-byte pointer and a Python integer of up to 240 bits
_OBJECT_ENTRY_BYTES = 64

# how each graded solve was answered; see `solve_routes`
_routes: Counter = Counter()


def _build_template(primitive: tuple[int, ...], k: int) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Divisibility rows of degree k for the form with these primitive coordinates.

    With p the first nonzero coordinate, lead = a_p and c numbering the other
    coordinates 1, 2, ..., the substitution x_p = y_0 - sum_{j != p} a_j y_c(j),
    x_j = lead * y_c(j) sends the form to lead * y_0 and x^a to
    lead^(k - a_p) * prod_{j != p} y_c(j)^a_j * (y_0 - sum_{j != p} a_j y_c(j))^a_p.
    Row block e takes the coefficient vector of a degree-k polynomial to the
    coefficients of its image whose y_0 exponent is e, in graded lex order.
    Returns the blocks e = 0..k stacked in one matrix (int64 when every entry
    fits, object otherwise), the row where each block starts (and the end),
    and each block's largest |entry|; "divisible by form^m" is the prefix of
    blocks e < m.
    """
    nvars = len(primitive)
    p = next(i for i, a in enumerate(primitive) if a)
    lead = primitive[p]
    others = [j for j in range(nvars) if j != p]
    # a y-monomial's code: its exponents as digits in base k + 1, y_0 lowest
    radix = [(k + 1) ** i for i in range(nvars)]
    moved = [(radix[i + 1], -primitive[j]) for i, j in enumerate(others) if primitive[j]]
    fact = list(itertools.accumulate(range(1, k + 1), operator.mul, initial=1))
    # (y_0 - sum a_j y_c(j))^s for s = 0..k: (code, y_0 exponent, coefficient) per term
    powers = []
    for s in range(k + 1):
        terms = []
        for split in monomial_exponents(len(moved) + 1, s):
            code, coef = split[0], fact[s] // fact[split[0]]
            for i, (weight, neg) in zip(split[1:], moved):
                code += i * weight
                coef = coef // fact[i] * neg ** i
            terms.append((code, split[0], coef))
        powers.append(terms)
    monos = monomial_exponents(nvars, k)
    sizes = [0] * (k + 1)
    for y in monos:
        sizes[y[0]] += 1
    starts = (0, *itertools.accumulate(sizes))
    fill = list(starts[:-1])
    row_of = {}
    for y in monos:
        row_of[sum(map(operator.mul, y, radix))] = fill[y[0]]
        fill[y[0]] += 1
    at_row: list[int] = []
    at_col: list[int] = []
    coefs: list[int] = []
    maxes = [0] * (k + 1)
    for col, a in enumerate(monos):
        s = a[p]
        base = sum(a[j] * radix[i + 1] for i, j in enumerate(others))
        scale = lead ** (k - s)
        for code, e, coef in powers[s]:
            value = scale * coef
            at_row.append(row_of[base + code])
            at_col.append(col)
            coefs.append(value)
            maxes[e] = max(maxes[e], abs(value))
    dtype = np.int64 if max(maxes) < _INT64_SAFE else object
    rows = np.zeros((len(monos), len(monos)), dtype=dtype)
    rows[at_row, at_col] = np.array(coefs, dtype=dtype)
    return rows, starts, tuple(maxes)


def _template_bytes(rows: np.ndarray) -> int:
    return rows.nbytes if rows.dtype != object else rows.size * _OBJECT_ENTRY_BYTES


def _template(primitive: tuple[int, ...], k: int) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """`_build_template`, kept in the shared store by (form, degree) and sized by `_template_bytes`."""
    key = primitive, k
    found = store.get(key)
    if found is None:
        found = _build_template(primitive, k)
        store.put(key, found, _template_bytes(found[0]))
    return found


def _divisible_rows(primitive: tuple[int, ...], k: int, m: int) -> tuple[np.ndarray, int]:
    """The degree-k "divisible by form^m" rows (a view) and their largest |entry|."""
    rows, starts, maxes = _template(primitive, k)
    m = min(m, k + 1)
    return rows[:starts[m]], max(maxes[:m], default=0)


def _axis(primitive: tuple[int, ...]) -> int | None:
    """i when the form is the coordinate x_i (its primitive is the unit vector e_i), else None."""
    return primitive.index(1) if sum(map(abs, primitive)) == 1 else None


@lru_cache(maxsize=_MONOMIAL_CACHE_LIMIT)
def _coordinate_columns(nvars: int, axis: int, k: int, low: int, high: int) -> np.ndarray:
    """Columns of a degree-k vector at theta_axis's monomials with x_axis-exponent in [low, high)."""
    monos = monomial_exponents(nvars, k)
    cols = np.array([axis * len(monos) + j for j, a in enumerate(monos) if low <= a[axis] < high],
                    dtype=np.intp)
    cols.flags.writeable = False
    return cols


def _drop_singletons(matrix: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_matrix`'s output without its zero rows and, until none is left, each row with one
    nonzero entry on the columns left, with the column it forces to zero; and a new mask."""
    nonzero = matrix != 0
    forced = np.zeros(matrix.shape[1], dtype=bool)
    while True:
        counts = np.count_nonzero(nonzero, axis=1)
        hit = nonzero[counts == 1].any(axis=0)
        if not hit.any():
            break
        forced |= hit
        nonzero[:, hit] = False
    kept = live.copy()
    kept[np.flatnonzero(live)[forced]] = False
    return matrix[np.ix_(np.flatnonzero(counts), np.flatnonzero(~forced))], kept


def _padded(vectors: list[list[int]], live: np.ndarray) -> list[list[int]]:
    """Vectors on the live columns, with zeros written into the others."""
    if live.all():
        return vectors
    cols = np.flatnonzero(live).tolist()
    padded = []
    for v in vectors:
        row = [0] * live.size
        for c, x in zip(cols, v):
            row[c] = x
        padded.append(row)
    return padded


def _is_standard(rows: np.ndarray) -> bool:
    """Whether the last nonzero columns of the rows ascend strictly and each row is zero at the others'."""
    nonzero = rows != 0
    lasts = rows.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return bool((np.diff(lasts) > 0).all()) and np.count_nonzero(nonzero[:, lasts]) == len(lasts)


def _standard_rows(rows: np.ndarray) -> list[list[int]]:
    """The standard primitive basis of the row space: reduced echelon form pivoting from the last column."""
    reduced, _, _ = rref([row[::-1] for row in rows.tolist()])
    return [_normalize(row[::-1]) for row in reversed(reduced)]


class _Engine:
    """Per-arrangement solver; its bases live in the shared store, keyed by (arrangement, m, k)."""

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        self.nvars = arrangement.nvars
        self.prims = [f.primitive for f in arrangement.forms]

    # -- assembly ---------------------------------------------------------

    def _support(self, mult: Sequence[int]) -> list[int]:
        return [i for i, m in enumerate(mult) if m > 0]

    def _matrix(self, support: list[int], mult: Sequence[int], k: int) -> tuple[np.ndarray, np.ndarray]:
        """The exact divisibility matrix of (m, k) on its live columns, and the live-column mask.

        A column (i, a) is forced to zero, and left out, when the support
        holds x_i = 0 with a_i < m(H); D(A, m)_k is the kernel padded with
        zeros there.  For each other H in the support, the template rows of H
        with column block i scaled by coordinate i of alpha_H: int64 when
        max |template entry| * max |coordinate| < 2**62, Python integers
        otherwise.
        """
        n = monomial_count(self.nvars, k)
        live = np.ones(self.nvars * n, dtype=bool)
        parts = []
        for idx in support:
            prim = self.prims[idx]
            axis = _axis(prim)
            if axis is None:
                parts.append((*_divisible_rows(prim, k, mult[idx]), prim))
            else:
                live[_coordinate_columns(self.nvars, axis, k, 0, mult[idx])] = False
        fits = all(max_abs * max(map(abs, prim)) < _INT64_SAFE for _, max_abs, prim in parts)
        dtype = np.int64 if fits else object
        matrix = np.empty((sum(len(rows) for rows, _, _ in parts), self.nvars * n), dtype)
        start = 0
        for rows, _, prim in parts:
            rows = rows.astype(dtype, copy=False)
            for i, a in enumerate(prim):
                matrix[start:start + len(rows), i * n:(i + 1) * n] = rows * a
            start += len(rows)
        return (matrix, live) if live.all() else (matrix[:, live], live)

    def _vectors(self, vectors: Sequence[Sequence[int]]) -> np.ndarray:
        """Degree-k vectors as one array: int64 when every theta(alpha_H) of them fits."""
        coord = max(max(map(abs, prim)) for prim in self.prims)
        fits = _max_abs(vectors) * coord * self.nvars < _INT64_SAFE
        return np.array(vectors, dtype=np.int64 if fits else object)

    def _image(self, idx: int, k: int, low: int, high: int, vectors: np.ndarray) -> np.ndarray:
        """Hyperplane idx's conditions of exponents low..high - 1 on degree-k vectors, one column per vector.

        For x_i = 0 they read the vectors' theta_i coefficients at the
        monomials with x_i-exponent in that range; otherwise they are the
        template blocks, exactly times the coefficients of theta(alpha_idx).
        """
        prim = self.prims[idx]
        axis = _axis(prim)
        if axis is not None:
            return vectors[:, _coordinate_columns(self.nvars, axis, k, low, high)].T
        rows, starts, _ = _template(prim, k)
        rows = rows[starts[low]:starts[min(high, k + 1)]]
        n = rows.shape[1]
        polys = sum(a * vectors[:, i * n:(i + 1) * n] for i, a in enumerate(prim) if a)
        return _exact_product(rows, polys.T)

    # -- solving ----------------------------------------------------------

    def _solve(self, mult: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
        support = self._support(mult)
        found = self._restriction(support, mult, k)
        if found is None:
            route, (matrix, live) = "full", _drop_singletons(*self._matrix(support, mult, k))
        elif found[1] is None:
            _routes["unchanged"] += 1
            return found[0]
        else:
            route, (parent, matrix) = "restricted", found
        _routes[route] += 1
        try:
            basis = certified_kernel(matrix)
        except InternalCheckError as exc:
            raise InternalCheckError(f"{exc} for forms {self.prims} with multiplicity {mult}, "
                                     f"degree {k}, {route} route") from exc
        if route == "full":
            basis = _padded(basis, live)
        elif basis:
            product = _exact_product(basis, parent)
            basis = map(_normalize, product.tolist()) if _is_standard(product) else _standard_rows(product)
        return tuple(tuple(v) for v in basis)

    def _restriction(self, support: list[int], mult: tuple[int, ...], k: int):
        """A cached basis of some D(A, m - delta_H)_k and the exact image of its new block.

        None when no such basis is cached.  The image is None when the block
        does not exist at degree k or vanishes on the basis, which is then
        the answer unchanged; otherwise the basis comes as an array.  The
        parent is looked up by `peek`, which leaves its place in the store,
        so the route taken does not change which bases the store evicts.
        """
        for idx in support:
            parent = store.peek((self.arrangement, mult[:idx] + (mult[idx] - 1,) + mult[idx + 1:], k))
            if parent is not None:
                break
        else:
            return None
        e = mult[idx] - 1
        if not parent or e > k:
            return parent, None
        vm = self._vectors(parent)
        image = self._image(idx, k, e, e + 1, vm)
        return (vm, image) if image.any() else (parent, None)

    # -- public -----------------------------------------------------------

    def basis(self, mult: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
        if k < 0:
            return ()
        key = self.arrangement, mult, k
        basis = store.get(key)
        if basis is None:
            basis = self._solve(mult, k)
            store.put(key, basis, rows_bytes(basis))
        return basis


def graded_dimension(ma: Multiarrangement, k: int) -> int:
    """dim D(A, m)_k, exact."""
    return len(_Engine(ma.arrangement).basis(ma.mult, k))


def graded_basis_vectors(ma: Multiarrangement, k: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer coefficient vectors of a basis of D(A, m)_k.

    A vector lists the l coefficient polynomials back to back, each as degree-k
    coefficients in graded lex order.
    """
    return _Engine(ma.arrangement).basis(ma.mult, k)


def graded_member(ma: Multiarrangement, k: int, vector: Sequence[int]) -> bool:
    """Whether an integer degree-k coefficient vector lies in D(A, m)_k.

    Decided one hyperplane at a time by the exact conditions whose stack
    certifies every full solve: for x_i = 0 the vector's theta_i coefficients
    at the monomials with x_i-exponent below m(H), otherwise the divisibility
    rows; the layout is that of `graded_basis_vectors`.
    """
    eng = _Engine(ma.arrangement)
    vm = eng._vectors([list(vector)])
    return not any(eng._image(idx, k, 0, ma.mult[idx], vm).any() for idx in eng._support(ma.mult))


def hilbert_dims(ma: Multiarrangement, max_degree: int) -> tuple[int, ...]:
    """dim D(A, m)_k for k = 0..max_degree."""
    return tuple(graded_dimension(ma, k) for k in range(max_degree + 1))


def solve_routes() -> dict[str, int]:
    """How many graded solves took each route since the last `clear_caches`.

    "unchanged" reused a cached D(A, m - delta_H)_k basis as it was,
    "restricted" cut it down by one block of conditions, and "full" solved the
    whole matrix; both of the last two run the same certified kernel loop.
    """
    return {route: _routes[route] for route in ("unchanged", "restricted", "full")}

