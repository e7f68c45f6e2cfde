"""Exact graded pieces of the logarithmic derivation module.

A derivation of polynomial degree k is a vector of l homogeneous degree-k
coefficient polynomials.  Membership in D(A, m) says theta(alpha_H) is
divisible by alpha_H^{m(H)} for every H, which is linear in the coefficients:
after an integer change of coordinates sending alpha_H to a multiple of the
first new variable, divisibility means "all coefficients with first-variable
exponent below m(H) vanish".  Those vanishing conditions are the rows of the
divisibility matrix (`_Engine._matrix`); the graded piece is its rational kernel.

The per-hyperplane substitution rows depend only on (form, degree), so
`_build_template` builds them in closed form, one matrix per (form, degree),
kept in an LRU bounded by bytes (`_template`) and reused across every
multiplicity and sweep case; the rows for every multiplicity are prefixes of
that matrix.  The same exact rows, one hyperplane at a time, decide
membership of any one coefficient vector (`graded_member`).  A multiplicity
with no positive entry yields no rows and so the whole space of degree-k
derivations.

Hyperplane H contributes the blocks e = 0..m(H) - 1 of first-variable
exponents, so D(A, m + delta_H)_k is the set of theta in D(A, m)_k whose
block m(H) vanishes.  A solve with a cached basis V of some D(A, m - delta_H)_k
applies the new block to V exactly, giving the image (block rows x dim V);
if the block does not exist at degree k or the image vanishes, V is the
answer unchanged.  Every other solve builds one exact integer matrix A and
hands it to `linalg.certified_kernel`, which computes its kernel K and
certifies it by A K = 0 over the integers; the solver itself holds no kernel
or check code.  The two routes differ only in A (`solve_routes` counts
them):

- restricted: the image.  The answer is the rows of K V, computed exactly
  and made primitive.  Every stored basis is `_solve` output, the standard
  primitive kernel basis (a multiple of 1 at one free column, 0 at the
  others, nothing after) in ascending free-column order, and so is K.  Row
  j of K V is therefore nonzero at its own free column, zero at the child's
  other free columns and zero after its own: primitive, it is the child's
  j-th standard vector, the one the full solve returns.  A parent in any
  other form leaves K V out of that form, which a check of its nonzero
  pattern catches; its rows are then reduced exactly (`linalg.rref`,
  pivoting from the last column), so the answer is a function of the span
  of the parent alone.  Membership follows from the certified parent and
  the exact image check, and the dimension is the verified nullity of the
  image, so no mod-p answer goes unverified.  The divisibility matrix of m
  is never built.
- full: the divisibility matrix, built once per solve.  It serves cache
  misses and is the reference the restriction is tested against.

Cache state chooses the route, never the answer: every route returns the
same primitive vectors in the same order.  An engine's one store is the LRU
of its last `_BASIS_CACHE_LIMIT` bases; a dimension is the length of a basis.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, OrderedDict
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrangement import Arrangement, Multiarrangement, _sub
from .errors import InternalCheckError
from .linalg import (
    _INT64_SAFE,
    _exact_product,
    _max_abs,
    _normalize,
    certified_kernel,
    primitive_integer_vector,
    rref,
)
from .polyring import monomial_count, monomial_exponents, monomial_index

_BASIS_CACHE_LIMIT = 2048
_ENGINE_CACHE_LIMIT = 64
# bytes of divisibility templates kept; an X3 exponents query at
# m = (7, 7, 7, 6, 6, 6) holds 102 templates of 4.3 MiB in all
_TEMPLATE_CACHE_BYTES = 64 * 2**20
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


class _TemplateCache:
    """`_build_template` by (form, degree), least recently used first.

    The oldest templates are evicted while the total size is over
    `_TEMPLATE_CACHE_BYTES`: an int64 template counts its `nbytes`, an object
    one `_OBJECT_ENTRY_BYTES` per entry.
    """

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0

    def __call__(self, primitive: tuple[int, ...], k: int
                 ) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
        key = (primitive, k)
        found = self.entries.get(key)
        if found is not None:
            self.entries.move_to_end(key)
            return found
        found = self.entries[key] = _build_template(primitive, k)
        self.nbytes += _template_bytes(found[0])
        while self.nbytes > _TEMPLATE_CACHE_BYTES:
            _, (rows, _, _) = self.entries.popitem(last=False)
            self.nbytes -= _template_bytes(rows)
        return found

    def clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0


_template = _TemplateCache()


def _divisible_rows(primitive: tuple[int, ...], k: int, m: int) -> tuple[np.ndarray, int]:
    """The degree-k "divisible by form^m" rows (a view) and their largest |entry|."""
    rows, starts, maxes = _template(primitive, k)
    m = min(m, k + 1)
    return rows[:starts[m]], max(maxes[:m], default=0)


def _is_standard(rows: np.ndarray) -> bool:
    """Whether the last nonzero columns of the rows ascend strictly and each row is zero at the others'."""
    nonzero = rows != 0
    lasts = rows.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return bool((np.diff(lasts) > 0).all()) and np.count_nonzero(nonzero[:, lasts]) == len(lasts)


def _standard_rows(rows: np.ndarray) -> list[list[int]]:
    """The standard primitive basis of the row space: reduced echelon form pivoting from the last column."""
    reduced, _ = rref([row[::-1] for row in rows.tolist()])
    return [primitive_integer_vector(row[::-1]) for row in reversed(reduced)]


class _Engine:
    """Per-arrangement solver; its one cache `bases` is an LRU of solved (m, k) bases."""

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        self.nvars = arrangement.nvars
        self.prims = [f.primitive for f in arrangement.forms]
        self.bases: OrderedDict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], ...]] = OrderedDict()

    # -- assembly ---------------------------------------------------------

    def _support(self, mult: Sequence[int]) -> list[int]:
        return [i for i, m in enumerate(mult) if m > 0]

    def _matrix(self, support: list[int], mult: Sequence[int], k: int) -> np.ndarray:
        """The exact divisibility matrix of (m, k), whose kernel is D(A, m)_k.

        For each H in the support, the template rows of H with column block i
        scaled by coordinate i of alpha_H: int64 when max |template entry| *
        max |coordinate| < 2**62, Python integers otherwise.
        """
        parts = [(*_divisible_rows(self.prims[idx], k, mult[idx]), self.prims[idx])
                 for idx in support]
        fits = all(max_abs * max(map(abs, prim)) < _INT64_SAFE for _, max_abs, prim in parts)
        dtype = np.int64 if fits else object
        n = monomial_count(self.nvars, k)
        matrix = np.empty((sum(len(rows) for rows, _, _ in parts), self.nvars * n), dtype)
        start = 0
        for rows, _, prim in parts:
            rows = rows.astype(dtype, copy=False)
            for i, a in enumerate(prim):
                matrix[start:start + len(rows), i * n:(i + 1) * n] = rows * a
            start += len(rows)
        return matrix

    def _vectors(self, vectors: Sequence[Sequence[int]]) -> np.ndarray:
        """Degree-k vectors as one array: int64 when every theta(alpha_H) of them fits."""
        coord = max(max(map(abs, prim)) for prim in self.prims)
        fits = _max_abs(vectors) * coord * self.nvars < _INT64_SAFE
        return np.array(vectors, dtype=np.int64 if fits else object)

    def _image(self, idx: int, rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Exact `rows` times the coefficients of theta(alpha_idx), one column per vector theta."""
        n = rows.shape[1]
        polys = sum(a * vectors[:, i * n:(i + 1) * n] for i, a in enumerate(self.prims[idx]) if a)
        return _exact_product(rows, polys.T)

    # -- solving ----------------------------------------------------------

    def _solve(self, mult: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
        support = self._support(mult)
        found = self._restriction(support, mult, k)
        if found is None:
            route, matrix = "full", self._matrix(support, mult, k)
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
        if route == "restricted" and basis:
            product = _exact_product(basis, parent)
            basis = map(_normalize, product.tolist()) if _is_standard(product) else _standard_rows(product)
        return tuple(tuple(v) for v in basis)

    def _restriction(self, support: list[int], mult: tuple[int, ...], k: int):
        """A cached basis of some D(A, m - delta_H)_k and the exact image of its new block.

        None when no such basis is cached.  The image is None when the block
        does not exist at degree k or vanishes on the basis, which is then
        the answer unchanged; otherwise the basis comes as an array.  The
        parent is looked up without refreshing its place in the LRU order,
        so the route taken does not change which bases the cache evicts.
        """
        for idx in support:
            parent = self.bases.get((mult[:idx] + (mult[idx] - 1,) + mult[idx + 1:], k))
            if parent is not None:
                break
        else:
            return None
        e = mult[idx] - 1
        if not parent or e > k:
            return parent, None
        rows, starts, _ = _template(self.prims[idx], k)
        vm = self._vectors(parent)
        image = self._image(idx, rows[starts[e]:starts[e + 1]], vm)
        return (vm, image) if image.any() else (parent, None)

    # -- public -----------------------------------------------------------

    def basis(self, mult: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
        if k < 0:
            return ()
        key = (mult, k)
        hit = self.bases.get(key)
        if hit is not None:
            self.bases.move_to_end(key)
            return hit
        basis = self.bases[key] = self._solve(mult, k)
        while len(self.bases) > _BASIS_CACHE_LIMIT:
            self.bases.popitem(last=False)
        return basis


@lru_cache(maxsize=_ENGINE_CACHE_LIMIT)
def _engine(arrangement: Arrangement) -> _Engine:
    return _Engine(arrangement)


def graded_dimension(ma: Multiarrangement, k: int) -> int:
    """dim D(A, m)_k, exact."""
    return len(_engine(ma.arrangement).basis(ma.mult, k))


def graded_basis_vectors(ma: Multiarrangement, k: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer coefficient vectors of a basis of D(A, m)_k.

    A vector lists the l coefficient polynomials back to back, each as degree-k
    coefficients in graded lex order.
    """
    return _engine(ma.arrangement).basis(ma.mult, k)


def graded_member(ma: Multiarrangement, k: int, vector: Sequence[int]) -> bool:
    """Whether an integer degree-k coefficient vector lies in D(A, m)_k.

    Decided one hyperplane at a time by the exact divisibility rows whose
    stack certifies every full solve; the layout is that of
    `graded_basis_vectors`.
    """
    eng = _engine(ma.arrangement)
    vm = eng._vectors([list(vector)])
    return not any(eng._image(idx, _divisible_rows(eng.prims[idx], k, ma.mult[idx])[0], vm).any()
                   for idx in eng._support(ma.mult))


def hilbert_dims(ma: Multiarrangement, max_degree: int) -> tuple[int, ...]:
    """dim D(A, m)_k for k = 0..max_degree."""
    return tuple(graded_dimension(ma, k) for k in range(max_degree + 1))


def solve_routes() -> dict[str, int]:
    """How many graded solves took each route since the last `clear_caches`.

    "unchanged" reused a cached D(A, m - delta_H)_k basis as it was,
    "restricted" cut it down by one template block, and "full" solved the
    whole matrix; both of the last two run the same certified kernel loop.
    """
    return {route: _routes[route] for route in ("unchanged", "restricted", "full")}


def clear_caches() -> None:
    _engine.cache_clear()
    _sub.cache_clear()
    _template.clear()
    monomial_exponents.cache_clear()
    monomial_index.cache_clear()
    _routes.clear()
