"""Exact graded pieces of the logarithmic derivation module.

A derivation of polynomial degree k is a vector of l homogeneous degree-k
coefficient polynomials.  Membership in D(A, m) says theta(alpha_H) is
divisible by alpha_H^{m(H)} for every H, which is linear in the coefficients:
after an integer change of coordinates sending alpha_H to a multiple of the
first new variable, divisibility means "all coefficients with first-variable
exponent below m(H) vanish".  Those vanishing conditions are rows of an
integer matrix; the graded piece is its rational kernel.

The per-hyperplane substitution rows depend only on (form, degree), so they
are built once per form by an incremental product expansion and reused across
every multiplicity, degree and sweep case; the rows for every multiplicity
are prefixes of one stored matrix per degree.  One graded solve is one call
to `linalg.certified_kernel` (one prime, then CRT, then Bareiss), which gets
the matrix three ways from the engine: the cached rows mod p, a
per-hyperplane exact residual that certifies the lifted vectors, and the
exact rows for the fallback.  The same exact residual decides membership of
any one coefficient vector (`graded_member`).  A multiplicity with no
positive entry yields no rows and so the whole space of degree-k
derivations.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Sequence

import numpy as np

from .arrangement import Arrangement, Multiarrangement
from .linalg import _INT64_SAFE, certified_kernel
from .polyring import LinearForm, monomial_count, monomial_exponents

_BASIS_CACHE_LIMIT = 2048


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
        self._mod_cache: dict[tuple[int, int, int], np.ndarray] = {}
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

    def rows_mod(self, k: int, cap: int, p: int) -> np.ndarray:
        cap = min(cap, k + 1)
        key = (k, cap, p)
        cached = self._mod_cache.get(key)
        if cached is None:
            rows, _ = self.rows_exact(k, cap)
            cached = self._mod_cache[key] = np.mod(rows, p).astype(np.int64, copy=False)
        return cached


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

    def _assemble_mod(self, support: list[int], mult: Sequence[int], k: int, p: int) -> np.ndarray:
        n = monomial_count(self.nvars, k)
        l = self.nvars
        pieces = []
        for idx in support:
            rows = self.templates[idx].rows_mod(k, mult[idx], p)
            if rows.shape[0] == 0:
                continue
            block = np.empty((rows.shape[0], l * n), dtype=np.int64)
            for i in range(l):
                a = self.prims[idx][i] % p
                block[:, i * n:(i + 1) * n] = (rows * a) % p
            pieces.append(block)
        if not pieces:
            return np.zeros((0, l * n), dtype=np.int64)
        return np.concatenate(pieces, axis=0)

    def _verify_exact(self, support: list[int], mult: Sequence[int], k: int,
                      vectors: list[list[int]]) -> bool:
        if not vectors:
            return True
        n = monomial_count(self.nvars, k)
        l = self.nvars
        vmax = max(max(max(vec), -min(vec)) for vec in vectors)
        vmat_obj = None
        vmat_64 = None
        for idx in support:
            rows, max_abs = self.templates[idx].rows_exact(k, mult[idx])
            if rows.shape[0] == 0:
                continue
            amax = max(abs(a) for a in self.prims[idx])
            bound = max_abs * vmax * n * amax * l
            if bound and bound < _INT64_SAFE:
                if vmat_64 is None:
                    vmat_64 = np.array(vectors, dtype=np.int64).T
                mat = rows.astype(np.int64, copy=False)
                vm = vmat_64
            else:
                if vmat_obj is None:
                    vmat_obj = np.array(vectors, dtype=object).T
                mat = rows.astype(object, copy=False)
                vm = vmat_obj
            accum = None
            for i in range(l):
                a = self.prims[idx][i]
                if not a:
                    continue
                part = mat @ vm[i * n:(i + 1) * n, :]
                accum = part * a if accum is None else accum + part * a
            if accum is not None and (accum != 0).any():
                return False
        return True

    def _assemble_exact(self, support: list[int], mult: Sequence[int], k: int) -> list[list[int]]:
        n = monomial_count(self.nvars, k)
        l = self.nvars
        rows: list[list[int]] = []
        for idx in support:
            rows_k, _ = self.templates[idx].rows_exact(k, mult[idx])
            a = self.prims[idx]
            for base in rows_k.tolist():
                row: list[int] = []
                for i in range(l):
                    row.extend(a[i] * v if a[i] else 0 for v in base)
                rows.append(row)
        return rows or [[0] * (l * n)]

    # -- solving ----------------------------------------------------------

    def _solve(self, mult: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
        support = self._support(mult)
        basis = certified_kernel(
            lambda p: self._assemble_mod(support, mult, k, p),
            lambda vectors: self._verify_exact(support, mult, k, vectors),
            lambda: self._assemble_exact(support, mult, k),
        )
        return tuple(tuple(v) for v in basis)

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


def clear_caches() -> None:
    _engines.clear()
    _templates.clear()
