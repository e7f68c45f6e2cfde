"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse mapping from exponent tuples to nonzero Fraction
coefficients, wrapped in the immutable :class:`Poly`.  Term order everywhere is
graded lexicographic (total degree first, then lex with the first variable
largest), so iteration, rendering and matrix assembly are deterministic.

Scalars are `fractions.Fraction`; ints are accepted and coerced.  There is no
floating point anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ArrangementError

Scalar = Fraction | int
NEG_INF = float("-inf")  # degree of the zero polynomial

_DEFAULT_NAMES = ("x", "y", "z", "w")


def _frac(c: Scalar) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def grlex_key(exponent: tuple[int, ...]) -> tuple:
    """Sort key putting exponent tuples in graded lex order, largest first."""
    return (-sum(exponent), tuple(-e for e in exponent))


# keys per monomial table; a benchmark workload process holds at most 68
_MONOMIAL_CACHE_LIMIT = 1024


@lru_cache(maxsize=_MONOMIAL_CACHE_LIMIT)
def monomial_exponents(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, in graded lex order."""
    if degree < 0:
        return ()
    if nvars == 0:
        return ((),) if degree == 0 else ()
    out = []
    for head in range(degree, -1, -1):
        for tail in monomial_exponents(nvars - 1, degree - head):
            out.append((head,) + tail)
    return tuple(out)


@lru_cache(maxsize=_MONOMIAL_CACHE_LIMIT)
def monomial_index(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(monomial_exponents(nvars, degree))}


def monomial_count(nvars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return math.comb(degree + nvars - 1, nvars - 1)


class Poly:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = _frac(coeff)
                if c:
                    exp = tuple(exp)
                    if len(exp) != nvars or any(e < 0 for e in exp):
                        raise ValueError(f"bad exponent {exp} for {nvars} variables")
                    clean[exp] = clean.get(exp, Fraction(0)) + c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def constant(nvars: int, c: Scalar) -> Poly:
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> Poly:
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {exp: 1})

    @staticmethod
    def monomial(nvars: int, exponent: Sequence[int], c: Scalar = 1) -> Poly:
        return Poly(nvars, {tuple(exponent): c})

    # -- ring operations -------------------------------------------------

    def _check(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-other if isinstance(other, Poly) else -_frac(other))

    def __rsub__(self, other: Scalar) -> Poly:
        return (-self) + other

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ---------------------------------------------------------

    def degree(self) -> int | float:
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, None if zero or inhomogeneous."""
        degrees = {sum(e) for e in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong dimension")
        pt = [_frac(p) for p in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for base, exp in zip(pt, e):
                if exp:
                    v *= base**exp
            total += v
        return total

    def coefficient_vector(self, degree: int) -> list[Fraction]:
        """Coefficients of the degree-`degree` part in graded lex order."""
        vec = [Fraction(0)] * monomial_count(self.nvars, degree)
        index = monomial_index(self.nvars, degree)
        for e, c in self.terms.items():
            if sum(e) == degree:
                vec[index[e]] = c
        return vec

    @staticmethod
    def from_coefficient_vector(nvars: int, degree: int, vec: Sequence[Scalar]) -> Poly:
        exps = monomial_exponents(nvars, degree)
        if len(vec) != len(exps):
            raise ValueError("coefficient vector has wrong length")
        return Poly(nvars, {e: c for e, c in zip(exps, vec) if c})

    # -- calculus and substitution --------------------------------------

    def partial(self, i: int) -> Poly:
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                terms[tuple(d)] = c * e[i]
        return Poly(self.nvars, terms)

    def substitute(self, matrix: Sequence[Sequence[Scalar]]) -> Poly:
        """Return p(M x): variable i is replaced by sum_j M[i][j] x_j."""
        if len(matrix) != self.nvars:
            raise ValueError("substitution matrix has wrong number of rows")
        images = [
            Poly(self.nvars, {tuple(1 if k == j else 0 for k in range(self.nvars)): c
                              for j, c in enumerate(row) if c})
            for row in matrix
        ]
        out = Poly.zero(self.nvars)
        for e, c in self.terms.items():
            term = Poly.constant(self.nvars, c)
            for i, exp in enumerate(e):
                if exp:
                    term = term * images[i] ** exp
            out = out + term
        return out

    def render(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = variable_names(self.nvars)
        pieces: list[str] = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{p}" if p > 1 else names[i]
                for i, p in enumerate(e) if p
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            pieces.append(f"{sign} {body}" if pieces else (f"-{body}" if c < 0 else body))
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def variable_names(nvars: int) -> tuple[str, ...]:
    if nvars <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:nvars]
    return tuple(f"x{i+1}" for i in range(nvars))


# -- linear forms --------------------------------------------------------


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form, canonicalized so the first nonzero coefficient is 1.

    Canonical scaling makes equality mean equality of hyperplanes, so
    proportional inputs collide as intended.  `primitive` is the same form
    scaled to coprime integers with positive leading entry, convenient for
    overflow-free integer work; it is computed once per form.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence[Scalar]):
        vec = [_frac(c) for c in coeffs]
        lead = next((c for c in vec if c), None)
        if lead is None:
            raise ArrangementError("zero linear form")
        object.__setattr__(self, "coeffs", tuple(c / lead for c in vec))

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    @cached_property
    def primitive(self) -> tuple[int, ...]:
        denom = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * denom) for c in self.coeffs]
        g = math.gcd(*ints)
        return tuple(v // g for v in ints)

    def as_poly(self) -> Poly:
        n = self.nvars
        return Poly(n, {tuple(1 if j == i else 0 for j in range(n)): c
                        for i, c in enumerate(self.coeffs) if c})

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        return sum((_frac(c) * _frac(p) for c, p in zip(self.coeffs, point)), Fraction(0))

    def kernel_point_2d(self) -> tuple[int, int]:
        """For a binary form a*x + b*y, an integer point spanning its kernel."""
        if self.nvars != 2:
            raise ValueError("kernel_point_2d needs a binary form")
        a, b = self.primitive
        return (-b, a)

    def render(self, names: Sequence[str] | None = None) -> str:
        return self.as_poly().render(names)

    def __repr__(self) -> str:
        return f"LinearForm({self.render()})"


def proportional(a: LinearForm, b: LinearForm) -> bool:
    return a.coeffs == b.coeffs


# -- polynomial divisibility by powers of a linear form -------------------


def try_divide_linear(p: Poly, form: LinearForm) -> Poly | None:
    """Exact quotient p / form, or None when the division leaves a remainder."""
    if p.nvars != form.nvars:
        raise ValueError("mixed variable counts")
    if not p:
        return p
    coeffs = form.coeffs
    pivot = next(i for i, c in enumerate(coeffs) if c)
    a = coeffs[pivot]
    quotient: dict[tuple[int, ...], Fraction] = {}
    remainder = p
    while remainder:
        e_max = max(e[pivot] for e in remainder.terms)
        if e_max == 0:
            return None
        block = {e: c for e, c in remainder.terms.items() if e[pivot] == e_max}
        q_block = {}
        for e, c in block.items():
            d = list(e)
            d[pivot] -= 1
            q_block[tuple(d)] = c / a
        for e, c in q_block.items():
            quotient[e] = quotient.get(e, Fraction(0)) + c
        q_poly = Poly(p.nvars, q_block)
        remainder = remainder - q_poly * form.as_poly()
    return Poly(p.nvars, quotient)


def divides_power(p: Poly, form: LinearForm, power: int) -> bool:
    """Whether form**power divides p exactly."""
    current = p
    for _ in range(power):
        if not current:
            return True
        nxt = try_divide_linear(current, form)
        if nxt is None:
            return False
        current = nxt
    return True


# -- polynomial matrices --------------------------------------------------


def _det_minor_expansion(rows: tuple[tuple[Poly, ...], ...], cols: tuple[int, ...],
                         _cache: dict | None = None) -> Poly:
    # Laplace expansion along the first remaining row, memoized on column sets;
    # division-free, fine at the n <= 4 sizes this package meets.
    if _cache is None:
        _cache = {}
    if cols in _cache:
        return _cache[cols]
    row = len(rows) - len(cols)
    if not cols:
        return Poly.constant(rows[0][0].nvars, 1)
    total = Poly.zero(rows[0][0].nvars)
    for pos, c in enumerate(cols):
        entry = rows[row][c]
        if not entry:
            continue
        sub = _det_minor_expansion(rows, cols[:pos] + cols[pos + 1:], _cache)
        term = entry * sub
        total = total + (term if pos % 2 == 0 else -term)
    _cache[cols] = total
    return total


def determinant(rows: Iterable[Iterable[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials over one ring."""
    mat = tuple(tuple(r) for r in rows)
    if not mat or not mat[0]:
        raise ValueError("empty matrix")
    nvars = mat[0][0].nvars
    for r in mat:
        if len(r) != len(mat[0]):
            raise ValueError("ragged matrix")
        if any(p.nvars != nvars for p in r):
            raise ValueError("mixed variable counts")
    if len(mat) != len(mat[0]):
        raise ValueError("determinant of a non-square matrix")
    return _det_minor_expansion(mat, tuple(range(len(mat))))


def product_of_forms(powers: Iterable[tuple[LinearForm, int]]) -> Poly:
    """prod form**power, the defining polynomial construction."""
    items = list(powers)
    if not items:
        raise ValueError("empty product; pass at least one (form, power) pair")
    out = Poly.constant(items[0][0].nvars, 1)
    for form, power in items:
        if power < 0:
            raise ValueError("negative power in form product")
        if power:
            out = out * form.as_poly() ** power
    return out
