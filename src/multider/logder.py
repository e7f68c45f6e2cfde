"""Logarithmic derivation modules of multiarrangements.

D(A, m) is the set of polynomial vector fields theta with theta(alpha_H)
divisible by alpha_H^{m(H)} for every hyperplane H.  This module supplies the
vocabulary built on the graded solver: membership, graded pieces as bases of
Derivation values, the covariant derivative, Saito's determinant criterion, a
complete freeness decision with exponents, degreewise criticality, and
universal derivations.

Internal routes decide membership with the graded solver's exact divisibility
rows (`_member`).  `membership`, by repeated exact division by each linear
form, is the independent public oracle, as `saito_check` and
`saito_determinant` are for the determinant.

Four standard facts are used without proof and recorded here:

* for derivations theta_1..theta_l in D(A, m), det(theta_i(x_j)) is divisible
  by the defining polynomial Q(A, m), hence c * Q for a constant c when their
  degrees sum to |m| (Saito; restated for universal derivations by Abe,
  Roehrle, Stump and Yoshinaga): `find_free_basis` reads c = det(p) / Q(p)
  off one integer point p, and `is_universal` decides c != 0 the same way,
* for a linear form alpha, (nabla_{d/dx_i} theta)(alpha) = d/dx_i
  (theta(alpha)), and a derivative of a multiple of alpha^{m+1} is a multiple
  of alpha^m, so theta in D(A, m+1) puts every gradient nabla_{d/dx_i} theta
  in D(A, m),
* a free module determines its exponents through the dimensions of its graded
  pieces, which makes the degree-tuple search below exhaustive rather than
  heuristic: every candidate degree lies in [0, |m|] because exponents are
  nonnegative and sum to |m|, and
* a universal derivation theta for m on an essential irreducible
  arrangement spans D(A, m+1)_{|m|/l + 1} (Abe, Roehrle, Stump and
  Yoshinaga, after Abe, Terao and Wakefield): nabla theta maps D(A, 1)
  isomorphically onto D(A, m+1), and D(A, 1)_1 holds only the Euler
  derivation.  That piece's one basis vector is thus a certified member of
  the right degree, so `find_universal` runs only the gradient rank test of
  `is_universal` on it, and needs neither the exponents of m nor a
  criticality scan; `is_k_critical` stays a public query.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .arrangement import (
    Multiarrangement,
    _scalar_from_json,
    defining_polynomial,
    irreducible_component_count,
    is_essential,
)
from .errors import ArrangementError, HypothesisError, MembershipError
from .exact import echelon, rank
from .graded import graded_basis_vectors, graded_dimension, graded_member, hilbert_dims
from .linalg import primitive_integer_vector
from .polyring import (
    LinearForm,
    Poly,
    Scalar,
    determinant,
    divides_power,
    monomial_count,
    monomial_exponents,
    variable_names,
)

__all__ = [
    "DEFAULT_SEED",
    "RANDOM_REPS",
    "Derivation",
    "GradedPiece",
    "FreenessCertificate",
    "derivation_from_vector",
    "euler_derivation",
    "membership",
    "graded_piece",
    "covariant_derivative",
    "saito_check",
    "saito_determinant",
    "find_free_basis",
    "exponents",
    "is_k_critical",
    "is_universal",
    "find_universal",
    "derivation_to_dict",
    "derivation_from_dict",
    "hilbert_dims",
    "graded_dimension",
]

DEFAULT_SEED = 1729
RANDOM_REPS = 8


class Derivation:
    """A polynomial vector field sum_i f_i * d/dx_i with exact coefficients.

    `degree_tag`, when given, asserts that every nonzero coefficient is
    homogeneous of that degree; graded pieces carry the tag so the degree of
    a piece is well defined even on a zero element.  The tag never enters
    equality or hashing.
    """

    __slots__ = ("coeffs", "degree_tag")

    def __init__(self, coeffs: Iterable[Poly], degree_tag: int | None = None):
        vec = tuple(coeffs)
        if not vec:
            raise ValueError("a derivation needs at least one coefficient")
        nvars = vec[0].nvars
        if len(vec) != nvars or any(p.nvars != nvars for p in vec):
            raise ValueError("coefficient count must equal the variable count")
        if degree_tag is not None:
            for p in vec:
                if p and p.homogeneous_degree() != degree_tag:
                    raise ValueError("degree tag contradicts a coefficient")
        object.__setattr__(self, "coeffs", vec)
        object.__setattr__(self, "degree_tag", degree_tag)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Derivation is immutable")

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- module structure -------------------------------------------------

    def __add__(self, other: Derivation) -> Derivation:
        if not isinstance(other, Derivation) or other.nvars != self.nvars:
            raise ValueError("mixed derivation dimensions")
        return Derivation(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: Derivation) -> Derivation:
        return self + (-other)

    def __neg__(self) -> Derivation:
        return Derivation((-p for p in self.coeffs), self.degree_tag)

    def __mul__(self, factor: Poly | Scalar) -> Derivation:
        return Derivation(p * factor for p in self.coeffs)

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------

    def apply(self, p: Poly) -> Poly:
        """theta(p) = sum_i f_i * dp/dx_i."""
        if p.nvars != self.nvars:
            raise ValueError("polynomial dimension does not match the derivation")
        out = Poly.zero(self.nvars)
        for i, f in enumerate(self.coeffs):
            if f:
                out = out + f * p.partial(i)
        return out

    def apply_form(self, form: LinearForm) -> Poly:
        """theta(alpha) for a linear form alpha, as a dot product."""
        if form.nvars != self.nvars:
            raise ValueError("form dimension does not match the derivation")
        out = Poly.zero(self.nvars)
        for f, a in zip(self.coeffs, form.coeffs):
            if a and f:
                out = out + f * a
        return out

    def degree(self) -> int | float:
        """Largest coefficient degree; the tag for tagged zero elements."""
        if not self and self.degree_tag is not None:
            return self.degree_tag
        return max(p.degree() for p in self.coeffs)

    def is_homogeneous(self) -> bool:
        degrees = {p.homogeneous_degree() for p in self.coeffs if p}
        if any(d is None for d in degrees):
            return False
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int | None:
        """Common degree of the nonzero coefficients; None if mixed or zero."""
        degrees = {p.homogeneous_degree() for p in self.coeffs if p}
        if len(degrees) == 1 and None not in degrees:
            return degrees.pop()
        return self.degree_tag if not self else None

    def coefficient_vector(self, degree: int) -> list[Fraction]:
        """Stacked degree-`degree` coefficient vectors of all l coordinates."""
        out: list[Fraction] = []
        for p in self.coeffs:
            out.extend(p.coefficient_vector(degree))
        return out

    def render(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = variable_names(self.nvars)
        parts = [
            f"({p.render(names)})*d_{names[i]}"
            for i, p in enumerate(self.coeffs)
            if p
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Derivation({self.render()})"


def derivation_from_vector(nvars: int, degree: int, vec: Sequence[Scalar]) -> Derivation:
    """Rebuild a derivation from stacked graded coefficient vectors.

    Inverse of `Derivation.coefficient_vector`; the layout matches
    `graded_basis_vectors` (l blocks of degree-`degree` coefficients in graded
    lex order).
    """
    n = monomial_count(nvars, degree)
    if len(vec) != nvars * n:
        raise ValueError("coefficient vector has wrong length")
    coeffs = [
        Poly.from_coefficient_vector(nvars, degree, vec[i * n:(i + 1) * n])
        for i in range(nvars)
    ]
    return Derivation(coeffs, degree_tag=degree)


def euler_derivation(nvars: int) -> Derivation:
    """sum_i x_i * d/dx_i; a member of D(A, 1) for every arrangement."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    return Derivation((Poly.variable(nvars, i) for i in range(nvars)), degree_tag=1)


def membership(theta: Derivation, ma: Multiarrangement) -> bool:
    """Whether theta(alpha_H) is divisible by alpha_H^{m(H)} for every H.

    Decided by repeated exact division by the linear form, independently of
    the linear-algebra route used to build graded pieces.
    """
    if theta.nvars != ma.nvars:
        raise ArrangementError("derivation and arrangement dimensions differ")
    for form, m in zip(ma.forms, ma.mult):
        if m and not divides_power(theta.apply_form(form), form, m):
            return False
    return True


def _member(theta: Derivation, ma: Multiarrangement) -> bool:
    """`membership` decided by the graded solver's exact divisibility rows.

    D(A, m) is graded, so theta is a member exactly when each homogeneous part
    is, and scaling a part to its primitive integer vector keeps the verdict.
    """
    if theta.nvars != ma.nvars:
        raise ArrangementError("derivation and arrangement dimensions differ")
    degrees = sorted({sum(e) for p in theta.coeffs for e in p.terms})
    return all(
        graded_member(ma, k, primitive_integer_vector(theta.coefficient_vector(k)))
        for k in degrees
    )


@dataclass(frozen=True)
class GradedPiece:
    """A basis of the homogeneous degree-k members of D(A, m)."""

    ma: Multiarrangement
    degree: int
    basis: tuple[Derivation, ...]

    def dimension(self) -> int:
        return len(self.basis)

    def __iter__(self) -> Iterator[Derivation]:
        return iter(self.basis)

    def __len__(self) -> int:
        return len(self.basis)

    def element(self, weights: Sequence[Scalar]) -> Derivation:
        """The linear combination sum_j weights[j] * basis[j]."""
        if len(weights) != len(self.basis):
            raise ValueError("weight count does not match the basis")
        nvars = self.ma.nvars
        coeffs = [Poly.zero(nvars) for _ in range(nvars)]
        for w, theta in zip(weights, self.basis):
            if w:
                for i, p in enumerate(theta.coeffs):
                    coeffs[i] = coeffs[i] + p * w
        return Derivation(coeffs, degree_tag=self.degree)


def graded_piece(ma: Multiarrangement, k: int) -> GradedPiece:
    """Exact basis of D(A, m)_k; empty for k < 0."""
    if k < 0:
        return GradedPiece(ma, k, ())
    vectors = graded_basis_vectors(ma, k)
    basis = tuple(derivation_from_vector(ma.nvars, k, v) for v in vectors)
    return GradedPiece(ma, k, basis)


def covariant_derivative(phi: Derivation, theta: Derivation) -> Derivation:
    """nabla_phi theta = sum_i phi(f_i) * d/dx_i where theta = sum f_i d/dx_i.

    For homogeneous inputs with nonzero result the degree is
    deg(phi) + deg(theta) - 1.
    """
    if phi.nvars != theta.nvars:
        raise ArrangementError("derivation dimensions differ")
    tag = None
    dp, dt = phi.homogeneous_degree(), theta.homogeneous_degree()
    if dp is not None and dt is not None:
        tag = dp + dt - 1
        if tag < 0:
            tag = None
    return Derivation((phi.apply(f) for f in theta.coeffs), degree_tag=tag)


def saito_determinant(thetas: Sequence[Derivation]) -> Poly:
    """det(theta_i(x_j)), the coefficient matrix determinant."""
    mats = [list(theta.coeffs) for theta in thetas]
    if len(mats) != mats[0][0].nvars:
        raise ArrangementError("need exactly as many derivations as variables")
    return determinant(mats)


def _scalar_ratio(p: Poly, q: Poly) -> Fraction | None:
    """c with p == c * q for nonzero q, or None when no scalar works."""
    if not q:
        raise ValueError("zero reference polynomial")
    if not p:
        return Fraction(0)
    exp, coeff = next(iter(q.terms.items()))
    c = p.terms.get(exp)
    if c is None:
        return None
    c = c / coeff
    return c if p == q * c else None


def saito_check(thetas: Sequence[Derivation], ma: Multiarrangement) -> tuple[bool, Fraction | None]:
    """Saito's criterion: det(theta_i(x_j)) = c * Q(A, m) with c != 0.

    Returns (True, c) when the determinant is a nonzero scalar multiple of the
    defining polynomial, (False, None) otherwise.  Raises MembershipError when
    an input derivation is not even a member of D(A, m); that is an ill-posed
    question, not a negative verdict.
    """
    l = ma.nvars
    if len(thetas) != l:
        raise ArrangementError(f"need exactly {l} derivations")
    for pos, theta in enumerate(thetas):
        if theta.nvars != l:
            raise ArrangementError("derivation and arrangement dimensions differ")
        if not membership(theta, ma):
            raise MembershipError(f"derivation {pos} is not in D(A, m)")
    det = saito_determinant(thetas)
    c = _scalar_ratio(det, defining_polynomial(ma))
    if c:
        return True, c
    return False, None


@dataclass(frozen=True)
class FreenessCertificate:
    """Outcome of the freeness decision.

    Free: `basis` is a Saito basis, `exponents` its sorted degrees, `constant`
    the scalar c in det = c * Q.  Not free: `basis` is empty and `refutation`
    names the step that ruled freeness out; `search_log` records the degree
    scan and determinant testing in either case.
    """

    free: bool
    basis: tuple[Derivation, ...]
    exponents: tuple[int, ...] | None
    constant: Fraction | None
    search_log: tuple[str, ...]
    refutation: str | None

    def __bool__(self) -> bool:
        return self.free


def _random_point(rng: random.Random, l: int, avoid: Sequence[LinearForm] = ()) -> list[int]:
    """A nonzero point of [-9, 9]^l drawn from `rng`, off every form in `avoid`."""
    while True:
        pt = [rng.randint(-9, 9) for _ in range(l)]
        if any(pt) and all(f.evaluate(pt) for f in avoid):
            return pt


def _monomial_values(point: Sequence[int], degree: int) -> list[int]:
    """The degree-`degree` monomials at an integer point, in graded lex order."""
    return [math.prod(p**e for p, e in zip(point, mono))
            for mono in monomial_exponents(len(point), degree)]


def _blocks_at(vec: Sequence[int], values: Sequence[int]) -> list[int]:
    """Each coefficient block of a stacked vector dotted with `values`, such as monomials at a point."""
    n = len(values)
    return [sum(a * v for a, v in zip(vec[i:i + n], values) if a) for i in range(0, len(vec), n)]


def _combine(vectors: Sequence[Sequence[int]], weights: Sequence[int]) -> list[int]:
    """sum_j weights[j] * vectors[j], entrywise over the integers."""
    return [sum(w * v for w, v in zip(weights, column) if w) for column in zip(*vectors)]


def _not_free(log: list[str], reason: str) -> FreenessCertificate:
    log.append(f"not free: {reason}")
    return FreenessCertificate(False, (), None, None, tuple(log), reason)


def find_free_basis(ma: Multiarrangement, seed: int = DEFAULT_SEED) -> FreenessCertificate:
    """Decide freeness of D(A, m) and produce a Saito basis or a refutation.

    The graded dimensions h_k are scanned for k = 0..|m| while maintaining the
    numerator coefficients c_k of H(t) * (1-t)^l.  A free module forces the
    numerator to be a sum of l monomials t^{d_i} with Sum d_i = |m|, so any
    negative c_k, more than l slots, or weight overflow refutes freeness
    outright; otherwise the scan pins down the unique candidate exponent
    tuple.  Candidates from the certified graded pieces have det = c * Q, so
    one evaluation at an integer point gives c: seeded random combinations
    first, then every pure basis selection at one point off the hyperplanes,
    whose total vanishing certifies non-freeness as det is multilinear in the
    slots.  All of it is integer arithmetic on the graded solver's vectors: dot
    products with monomial values, det the signed last pivot of `echelon`.
    Only the l returned derivations become polynomials; no `saito_check`.
    """
    if not is_essential(ma.arrangement):
        raise ArrangementError("find_free_basis needs an essential arrangement")
    l = ma.nvars
    total = ma.order()
    log: list[str] = []
    hist: list[int] = []
    counts: dict[int, int] = {}
    found = 0
    weight = 0
    for k in range(total + 1):
        h = graded_dimension(ma, k)
        hist.append(h)
        c = sum(
            (-1) ** j * math.comb(l, j) * hist[k - j]
            for j in range(min(k, l) + 1)
        )
        log.append(f"degree {k}: dim {h}, numerator coefficient {c}")
        if c < 0:
            return _not_free(log, f"Hilbert numerator negative at degree {k}")
        if c:
            counts[k] = c
            found += c
            weight += c * k
            if found > l:
                return _not_free(log, f"more than {l} generator slots by degree {k}")
            if weight > total:
                return _not_free(log, f"generator degrees exceed |m| by degree {k}")
        if found == l:
            if weight < total:
                return _not_free(log, "generator degrees sum below |m|")
            break
    else:
        return _not_free(log, f"fewer than {l} generator slots up to degree |m|")

    degrees = tuple(sorted(d for d, c in counts.items() for _ in range(c)))
    log.append(f"candidate exponents {degrees}")
    vectors = {d: graded_basis_vectors(ma, d) for d in counts}

    rng = random.Random(seed)

    def _evaluate(point: list[int]) -> dict:
        values = {d: _monomial_values(point, d) for d in vectors}
        return {d: [_blocks_at(vec, values[d]) for vec in vecs] for d, vecs in vectors.items()}

    def _candidates() -> Iterator[tuple[list[int], dict, list[list[int]], str]]:
        for rep in range(RANDOM_REPS):
            point = _random_point(rng, l)
            weights = [[rng.randint(-9, 9) for _ in vectors[d]] for d in degrees]
            note = f"free: randomized combination succeeded at repetition {rep + 1}"
            yield point, _evaluate(point), weights, note
        log.append(f"randomized test vanished for {RANDOM_REPS} repetitions; expanding all selections")
        # off every hyperplane of positive multiplicity Q(p) != 0, so a pure
        # selection evaluates to zero exactly when its c is zero
        point = _random_point(rng, l, [f for f, m in zip(ma.forms, ma.mult) if m])
        evaluated = _evaluate(point)
        for selection in itertools.product(*(range(len(vectors[d])) for d in degrees)):
            units = [[int(i == j) for i in range(len(vectors[d]))] for d, j in zip(degrees, selection)]
            yield point, evaluated, units, f"free: pure selection {selection} has nonzero determinant"

    # det = c * Q because the degrees sum to |m|, so c = det(p) / Q(p)
    for point, evaluated, weights, note in _candidates():
        rows = [_combine(evaluated[d], w) for d, w in zip(degrees, weights)]
        # the determinant of integer rows is the signed last pivot at full rank
        ech, pivots, sign = echelon(rows)
        if len(pivots) == l:
            q = math.prod(f.evaluate(point) ** m for f, m in zip(ma.forms, ma.mult))
            basis = tuple(derivation_from_vector(l, d, _combine(vectors[d], w))
                          for d, w in zip(degrees, weights))
            log.append(note)
            return FreenessCertificate(True, basis, degrees, sign * ech[-1][-1] / q, tuple(log), None)
    return _not_free(
        log,
        "determinant vanishes identically "
        f"({RANDOM_REPS} randomized repetitions, then every pure basis selection)",
    )


def exponents(ma: Multiarrangement, seed: int = DEFAULT_SEED) -> tuple[int, ...] | None:
    """Sorted exponent tuple when D(A, m) is free, None otherwise."""
    cert = find_free_basis(ma, seed=seed)
    return cert.exponents if cert.free else None


def is_k_critical(ma: Multiarrangement, k: int) -> bool:
    """D(A, m)_k != 0, all lower pieces vanish, and every single-hyperplane
    increment m + delta_H kills the degree-k piece as well.

    D(A, m) is an S-module inside a free one, so x_1 * theta != 0 carries a
    nonzero theta of degree j into degree j + 1: the lower pieces all vanish
    exactly when D(A, m)_{k-1} does.  That check is an early exit: a lower
    theta would also put alpha_H * theta into every D(A, m + delta_H)_k.
    Q(A, m) * d/dx_1 lies in D(A, m)_{|m|}, so D(A, m)_{k-1} != 0 for every
    k > |m|, and the answer there is False with no solve.
    """
    if not 0 <= k <= ma.order() or graded_dimension(ma, k - 1) or not graded_dimension(ma, k):
        return False
    return not any(graded_dimension(ma.plus_delta(i), k) for i in range(len(ma.forms)))


def _gradients_independent(vec: Sequence[int], deg: int, ma_base: Multiarrangement) -> bool:
    """Whether the l gradients of the degree-`deg` derivation with integer
    coefficient vector `vec` have full rank at an integer point off every
    hyperplane of positive multiplicity in `ma_base`."""
    l = ma_base.nvars
    weighted = [f for f, m in zip(ma_base.forms, ma_base.mult) if m]
    point = _random_point(random.Random(DEFAULT_SEED), l, weighted)
    # row i holds the coefficients of nabla_{d/dx_i} theta = sum_j d_i(f_j) d/dx_j
    # at the point, with d_i x^e = e_i x^(e - 1_i)
    lower = dict(zip(monomial_exponents(l, deg - 1), _monomial_values(point, deg - 1)))
    rows = [_blocks_at(vec, [e[i] and e[i] * lower[e[:i] + (e[i] - 1,) + e[i + 1:]]
                             for e in monomial_exponents(l, deg)]) for i in range(l)]
    return rank(rows) == l


def is_universal(theta: Derivation, ma_base: Multiarrangement) -> bool:
    """Whether theta is a universal derivation for the base multiplicity m.

    Characterization used: theta lies in D(A, m+1), l * (deg theta - 1) = |m|,
    and the l covariant derivatives nabla_{d/dx_i} theta are independent over
    the polynomial ring.  The gradients need no membership check: theta in
    D(A, m+1) already puts them in D(A, m), and their degrees sum to |m|, so
    their determinant is c * Q(A, m).  One evaluation decides c != 0: at an
    integer point off every hyperplane of positive multiplicity the gradients
    have full rank (a nonzero determinant) exactly when c is nonzero.  That
    rank test is all `find_universal` runs on its certified candidate.
    """
    if not theta.is_homogeneous():
        raise HypothesisError("is_universal needs a homogeneous derivation")
    if theta.nvars != ma_base.nvars:
        raise ArrangementError("derivation and arrangement dimensions differ")
    if not theta:
        return False
    deg = theta.homogeneous_degree()
    assert deg is not None
    if ma_base.nvars * (deg - 1) != ma_base.order() or not _member(theta, ma_base.plus_ones()):
        return False
    return _gradients_independent(primitive_integer_vector(theta.coefficient_vector(deg)), deg, ma_base)


def find_universal(ma_base: Multiarrangement) -> Derivation | None:
    """Find a universal derivation for m, or None when none exists.

    Route: the direct characterization.  A universal derivation has degree
    d + 1 with d = |m|/l and spans D(A, m+1)_{d+1} (the last fact in the
    module docstring), so there is at most one candidate, that piece's basis
    vector when the piece is a line.  The graded solver has certified it as
    a member of that degree, so only the gradient rank test of `is_universal`
    runs on it.  A positive answer is certified; a negative one rests on
    that fact.
    """
    if not is_essential(ma_base.arrangement):
        raise ArrangementError("find_universal needs an essential arrangement")
    if irreducible_component_count(ma_base.arrangement) != 1:
        raise ArrangementError("find_universal needs an irreducible arrangement")
    l = ma_base.nvars
    total = ma_base.order()
    if total % l:
        return None
    d = total // l
    vectors = graded_basis_vectors(ma_base.plus_ones(), d + 1)
    if len(vectors) != 1 or not _gradients_independent(vectors[0], d + 1, ma_base):
        return None
    return derivation_from_vector(l, d + 1, vectors[0])


# -- JSON ------------------------------------------------------------------


def derivation_to_dict(theta: Derivation) -> dict:
    """Coefficients as {"e1,e2,...": rational} maps, one per variable."""
    coeffs = []
    for p in theta.coeffs:
        terms = {}
        for e, c in p.sorted_terms():
            terms[",".join(str(v) for v in e)] = (
                int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            )
        coeffs.append(terms)
    return {"coefficients": coeffs}


# ASCII digits only: int() would also take "1_0" as 10 and " 1 " as 1
_EXPONENT_KEY = re.compile(r"[0-9]+(,[0-9]+)*")


def derivation_from_dict(data: dict) -> Derivation:
    try:
        raw = data["coefficients"]
    except (KeyError, TypeError) as exc:
        raise ValueError("expected a 'coefficients' key with one term map per variable") from exc
    if not isinstance(raw, list) or not raw:
        raise ValueError("'coefficients' must be a non-empty list of term maps")
    nvars = len(raw)
    polys = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError("each coefficient must be a map from exponents to rationals")
        terms: dict[tuple[int, ...], Fraction] = {}
        for key, value in entry.items():
            if not _EXPONENT_KEY.fullmatch(str(key)):
                raise ValueError(f"exponent key {key!r} is not comma-separated digits")
            exp = tuple(int(v) for v in str(key).split(","))
            if len(exp) != nvars:
                raise ValueError(f"exponent key {key!r} does not have {nvars} entries")
            if exp in terms:
                raise ValueError(f"exponent key {key!r} repeats the exponent of an earlier key")
            terms[exp] = _scalar_from_json(value)
        polys.append(Poly(nvars, terms))
    return Derivation(polys)
