"""Exact graded pieces of the logarithmic derivation module.

A derivation of polynomial degree k is a vector of l homogeneous degree-k
coefficient polynomials.  Membership in D(A, m) says theta(alpha_H) is
divisible by alpha_H^{m(H)} for every H, which is linear in the coefficients:
after an integer change of coordinates sending alpha_H to a multiple of the
first new variable, divisibility means "all coefficients with first-variable
exponent below m(H) vanish".  Those vanishing conditions are the rows of the
divisibility matrix (`_Engine._matrix`); the graded piece is its rational kernel.

The per-hyperplane substitution rows depend only on (form, degree), so they
are built once per form by an incremental product expansion and reused across
every multiplicity, degree and sweep case; the rows for every multiplicity
are prefixes of one stored matrix per degree.  The same exact residual that
certifies solved vectors decides membership of any one coefficient vector
(`graded_member`).  A multiplicity with no positive entry yields no rows and
so the whole space of degree-k derivations.

Hyperplane H contributes the blocks e = 0..m(H) - 1 of first-variable
exponents, so D(A, m + delta_H)_k is the set of theta in D(A, m)_k whose
block m(H) vanishes.  A solve with a cached basis of some D(A, m - delta_H)_k
applies the new block to it exactly; if the block does not exist at degree k
or vanishes on the basis, the basis is the answer unchanged.  Every other
solve is one call to `linalg.certified_kernel`, with the same exact check
(the per-hyperplane residual against every row of m) and the divisibility
matrix for Bareiss, and one of two per-prime kernels (`solve_routes` counts them):

- restricted: the kernel of the small product (block rows x dim D(A, m -
  delta_H)_k) mod p maps back to a spanning set, put in reduced echelon form
  with its columns reversed.  That is the standard kernel basis (1 at one
  free column, 0 at the others, nothing after), which depends only on the
  subspace, so the lifted vectors are those the full solve returns.  There
  are as many as the small kernel's mod-p nullity, an upper bound on
  dim D(A, m)_k, so once verified they span the piece (the argument of
  `linalg`).  A mod-p rank drop of the span fails the prime.
- full: `kernel_mod` of the divisibility matrix, built once per solve (the
  restricted route builds it only on reaching Bareiss).  It serves cache
  misses and is the reference the restriction is tested against.

Cache state chooses the route, never the answer: every route returns the
same primitive vectors in the same order.
"""

from __future__ import annotations

import itertools
from collections import Counter, OrderedDict
from functools import partial
from typing import Sequence

import numpy as np

from .arrangement import Arrangement, Multiarrangement
from .errors import InternalCheckError
from .linalg import _INT64_SAFE, certified_kernel, kernel_mod, rref_mod
from .polyring import LinearForm, monomial_count, monomial_exponents

_BASIS_CACHE_LIMIT = 2048

# how each graded solve was answered; see `solve_routes`
_routes: Counter = Counter()


class _FormTemplate:
    """Divisibility-condition row blocks for one linear form.

    Block e of degree k is the integer matrix taking the coefficient vector
    of a degree-k polynomial to the coefficients whose transformed
    first-variable exponent equals e.  The blocks of one degree are stored
    one after another in a single matrix (int64 when every entry fits, object
    otherwise), so the "divisible by form^m" rows, blocks e < m, are a prefix
    view of it.
    """

    def __init__(self, nvars: int, primitive: tuple[int, ...]):
        self.nvars = nvars
        self.primitive = primitive
        pivot = next(i for i, a in enumerate(primitive) if a)
        self.pivot = pivot
        lead = primitive[pivot]
        # x_pivot = y_0 - sum_{j != pivot} a_j y_{col(j)};  x_j = lead * y_{col(j)}
        cols = {}
        nxt = 1
        for j in range(nvars):
            if j != pivot:
                cols[j] = nxt
                nxt += 1
        images: list[list[tuple[int, int]]] = []
        for j in range(nvars):
            if j == pivot:
                row = [(0, 1)]
                row += [(cols[t], -primitive[t]) for t in range(nvars) if t != pivot and primitive[t]]
            else:
                row = [(cols[j], lead)]
            images.append(row)
        self.images = images
        self._rows: dict[int, np.ndarray] = {}
        self._starts: dict[int, list[int]] = {}
        self._blocks: dict[int, list[np.ndarray]] = {}
        self._block_maxes: dict[int, list[int]] = {}
        self._expansion: dict[tuple[int, ...], dict[tuple[int, ...], int]] | None = None
        self._expansion_degree = -1

    def _expand_to(self, degree: int) -> None:
        if self._expansion_degree >= degree and self._expansion is not None:
            return
        if self._expansion is None or self._expansion_degree < 0:
            zero = (0,) * self.nvars
            self._expansion = {zero: {zero: 1}}
            self._expansion_degree = 0
            self._extract_blocks(0)
        while self._expansion_degree < degree:
            k = self._expansion_degree + 1
            prev = self._expansion
            nxt: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
            for mono in monomial_exponents(self.nvars, k):
                j = next(i for i, e in enumerate(mono) if e)
                parent = list(mono)
                parent[j] -= 1
                base = prev[tuple(parent)]
                acc: dict[tuple[int, ...], int] = {}
                for t, c in self.images[j]:
                    for ymono, coef in base.items():
                        lifted = list(ymono)
                        lifted[t] += 1
                        key = tuple(lifted)
                        acc[key] = acc.get(key, 0) + coef * c
                nxt[mono] = {key: v for key, v in acc.items() if v}
            self._expansion = nxt
            self._expansion_degree = k
            self._extract_blocks(k)

    def _extract_blocks(self, k: int) -> None:
        monos = monomial_exponents(self.nvars, k)
        # a transformed monomial's row lies in block e = its first exponent
        sizes = [0] * (k + 1)
        for ymono in monos:
            sizes[ymono[0]] += 1
        starts = [0, *itertools.accumulate(sizes)]
        fill = starts[:-1]
        row_index: dict[tuple[int, ...], int] = {}
        for ymono in monos:
            row_index[ymono] = fill[ymono[0]]
            fill[ymono[0]] += 1
        at_row: list[int] = []
        at_col: list[int] = []
        coefs: list[int] = []
        maxes = [0] * (k + 1)
        assert self._expansion is not None
        for col, mono in enumerate(monos):
            for ymono, coef in self._expansion[mono].items():
                e = ymono[0]
                at_row.append(row_index[ymono])
                at_col.append(col)
                coefs.append(coef)
                maxes[e] = max(maxes[e], abs(coef))
        dtype = np.int64 if max(maxes) < _INT64_SAFE else object
        rows = np.zeros((len(monos), len(monos)), dtype=dtype)
        rows[at_row, at_col] = np.array(coefs, dtype=dtype)
        self._rows[k] = rows
        self._starts[k] = starts
        self._blocks[k] = [rows[starts[e]:starts[e + 1]] for e in range(k + 1)]
        self._block_maxes[k] = maxes

    def rows_exact(self, k: int, cap: int) -> tuple[np.ndarray, int]:
        """The degree-k "divisible by form^cap" rows and their largest |entry|.

        The rows are a view of the stored matrix of degree k; nothing is
        stacked or cast.
        """
        self._expand_to(k)
        cap = min(cap, k + 1)
        return self._rows[k][:self._starts[k][cap]], max(self._block_maxes[k][:cap], default=0)

    def block(self, k: int, e: int) -> tuple[np.ndarray, int]:
        """Block e of degree k (a view) and its largest |entry|."""
        self._expand_to(k)
        return self._blocks[k][e], self._block_maxes[k][e]


def _full_kernel(matrix: np.ndarray, p: int):
    """The full route's kernel mod p: `kernel_mod` of the exact matrix, one vector per row."""
    basis, _, free = kernel_mod(matrix, p)
    return basis.T, free


def _restricted_kernel(parent: Sequence[Sequence[int]], image: np.ndarray, p: int):
    """The restricted route's kernel mod p, or None on a rank drop (module docstring).

    `image` is the new block applied to the `parent` vectors.
    """
    coeffs, _, _ = kernel_mod(image, p)
    vmax = max(max(max(vec), -min(vec)) for vec in parent)
    dtype = np.int64 if p * vmax * len(parent) < _INT64_SAFE else object
    span = coeffs.T.astype(dtype) @ np.array(parent, dtype=dtype)
    rref, pivots = rref_mod(span[:, ::-1], p)
    if len(pivots) < span.shape[0]:
        return None
    last = span.shape[1] - 1
    return rref[::-1, ::-1], [last - c for c in reversed(pivots)]


_templates: dict[tuple[int, tuple[int, ...]], _FormTemplate] = {}


def _template(form: LinearForm) -> _FormTemplate:
    key = (form.nvars, form.primitive)
    tmpl = _templates.get(key)
    if tmpl is None:
        tmpl = _FormTemplate(form.nvars, form.primitive)
        _templates[key] = tmpl
    return tmpl


class _Engine:
    """Per-arrangement solver with dimension and basis caches."""

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        self.nvars = arrangement.nvars
        self.templates = [_template(f) for f in arrangement.forms]
        self.prims = [f.primitive for f in arrangement.forms]
        self.dims: dict[tuple[tuple[int, ...], int], int] = {}
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
        parts = [(*self.templates[idx].rows_exact(k, mult[idx]), self.prims[idx])
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

    def _images(self, k: int, vectors: Sequence[Sequence[int]]):
        """`image(idx, rows, max_abs)`: rows times the coefficients of theta(alpha_idx).

        Exact, one column per degree-k vector theta; int64 when a bound
        proves it safe, Python integers otherwise.
        """
        n = monomial_count(self.nvars, k)
        l = self.nvars
        vmax = max(max(max(vec), -min(vec)) for vec in vectors)
        vmats: dict = {}

        def image(idx: int, rows: np.ndarray, max_abs: int) -> np.ndarray:
            prim = self.prims[idx]
            bound = max_abs * vmax * n * max(abs(a) for a in prim) * l
            dtype = np.int64 if bound and bound < _INT64_SAFE else object
            vm = vmats.get(dtype)
            if vm is None:
                vm = vmats[dtype] = np.array(vectors, dtype=dtype).T
            mat = rows.astype(dtype, copy=False)
            accum = None
            for i, a in enumerate(prim):
                if a:
                    part = mat @ vm[i * n:(i + 1) * n, :]
                    accum = part * a if accum is None else accum + part * a
            return accum

        return image

    def _verify_exact(self, support: list[int], mult: Sequence[int], k: int,
                      vectors: list[list[int]]) -> bool:
        if not vectors:
            return True
        image = self._images(k, vectors)
        for idx in support:
            rows, max_abs = self.templates[idx].rows_exact(k, mult[idx])
            if rows.shape[0] and (image(idx, rows, max_abs) != 0).any():
                return False
        return True

    # -- solving ----------------------------------------------------------

    def _solve(self, mult: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
        support = self._support(mult)
        found = self._restriction(support, mult, k)
        if found is None:
            route, matrix = "full", self._matrix(support, mult, k)
            kernel_p, exact = partial(_full_kernel, matrix), lambda: matrix
        elif found[1] is None:
            _routes["unchanged"] += 1
            return found[0]
        else:
            route, kernel_p = "restricted", partial(_restricted_kernel, *found)
            exact = partial(self._matrix, support, mult, k)
        _routes[route] += 1
        try:
            basis = certified_kernel(
                kernel_p, lambda vectors: self._verify_exact(support, mult, k, vectors), exact)
        except InternalCheckError as exc:
            raise InternalCheckError(f"{exc} for forms {self.prims} with multiplicity {mult}, "
                                     f"degree {k}, {route} route") from exc
        return tuple(tuple(v) for v in basis)

    def _restriction(self, support: list[int], mult: tuple[int, ...], k: int):
        """A cached basis of some D(A, m - delta_H)_k and the exact image of its new block.

        None when no such basis is cached.  The image is None when the block
        does not exist at degree k or vanishes on the basis, which is then
        the answer unchanged.  The parent is looked up without refreshing its
        place in the LRU order, so the route taken does not change which
        bases the cache evicts.
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
        block, max_abs = self.templates[idx].block(k, e)
        image = self._images(k, parent)(idx, block, max_abs)
        return parent, (image if (image != 0).any() else None)

    # -- public -----------------------------------------------------------

    def dimension(self, mult: tuple[int, ...], k: int) -> int:
        if k < 0:
            return 0
        key = (mult, k)
        hit = self.dims.get(key)
        if hit is not None:
            return hit
        basis = self.bases.get(key)
        if basis is None:
            basis = self._solve(mult, k)
            self._store_basis(key, basis)
        dim = len(basis)
        self.dims[key] = dim
        return dim

    def basis(self, mult: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
        if k < 0:
            return ()
        key = (mult, k)
        hit = self.bases.get(key)
        if hit is not None:
            self.bases.move_to_end(key)
            return hit
        basis = self._solve(mult, k)
        self._store_basis(key, basis)
        self.dims[key] = len(basis)
        return basis

    def _store_basis(self, key, basis) -> None:
        self.bases[key] = basis
        self.bases.move_to_end(key)
        while len(self.bases) > _BASIS_CACHE_LIMIT:
            self.bases.popitem(last=False)


_engines: dict[Arrangement, _Engine] = {}


def _engine(arrangement: Arrangement) -> _Engine:
    eng = _engines.get(arrangement)
    if eng is None:
        eng = _Engine(arrangement)
        _engines[arrangement] = eng
    return eng


def graded_dimension(ma: Multiarrangement, k: int) -> int:
    """dim D(A, m)_k, exact."""
    return _engine(ma.arrangement).dimension(ma.mult, k)


def graded_basis_vectors(ma: Multiarrangement, k: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer coefficient vectors of a basis of D(A, m)_k.

    A vector lists the l coefficient polynomials back to back, each as degree-k
    coefficients in graded lex order.
    """
    return _engine(ma.arrangement).basis(ma.mult, k)


def graded_member(ma: Multiarrangement, k: int, vector: Sequence[int]) -> bool:
    """Whether an integer degree-k coefficient vector lies in D(A, m)_k.

    Decided by the exact divisibility rows that certify every graded basis;
    the layout is that of `graded_basis_vectors`.
    """
    eng = _engine(ma.arrangement)
    return eng._verify_exact(eng._support(ma.mult), ma.mult, k, [list(vector)])


def hilbert_dims(ma: Multiarrangement, max_degree: int) -> tuple[int, ...]:
    """dim D(A, m)_k for k = 0..max_degree."""
    if max_degree < 0:
        return ()
    return tuple(graded_dimension(ma, k) for k in range(max_degree + 1))


def solve_routes() -> dict[str, int]:
    """How many graded solves took each route since the last `clear_caches`.

    "unchanged" reused a cached D(A, m - delta_H)_k basis as it was,
    "restricted" cut it down by one template block, and "full" solved the
    whole matrix; both of the last two run the same certified kernel loop.
    """
    return {route: _routes[route] for route in ("unchanged", "restricted", "full")}


def clear_caches() -> None:
    _engines.clear()
    _templates.clear()
    _routes.clear()
