"""Rank-two multiarrangements and their multiplicity lattice.

Rank-two modules are always free (Ziegler), so every multiplicity carries a
well defined exponent pair (d1, d2) with d1 + d2 = |m| and a gap
Delta = d2 - d1, and any homogeneous basis of D(A, m) has degrees d1, d2.
`delta` reads them off an order basis built one condition at a time (the
order-basis step of Beckermann and Labahn, "A uniform approach for the fast
computation of matrix-type Pade approximants", SIAM J. Matrix Anal. Appl. 15,
1994): D(A, m + delta_H) is one exact integer step from D(A, m), so it runs
no graded solve, no basis search and no Saito certification.  The step is
also the special basis (theta, psi) of the Euler multiplicity (Abe, Terao
and Wakefield, J. London Math. Soc. 2008): psi is alpha_H times the pivot,
and theta, the cleared element, is never divisible by alpha_H, because
P * (-b d/dx + a d/dy), with alpha_H = a x + b y and P the product of the
other forms to their multiplicities, lies in D(A, m + delta_H) but not in
alpha_H * Der.  The gap is a
Lipschitz function on the multiplicity lattice: a single-hyperplane change
moves it by exactly one.  Balanced multiplicities with a nonzero gap fall
into finite components with a unique local maximum of Delta called the peak
point; dominated multiplicities (one hyperplane outweighing all others) form
infinite rays with explicit exponents.  The classifier below walks the
lattice accordingly, and the closed-form exponents for three lines avoid
linear algebra entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arrangement import (
    Arrangement,
    Multiarrangement,
    Multiplicity,
    essentialize,
    irreducible_component_count,
)
from .cache import rows_bytes, store
from .errors import (
    ArrangementError,
    HypothesisError,
    InternalCheckError,
    MembershipError,
)

if TYPE_CHECKING:
    from .logder import Derivation

__all__ = [
    "DeltaValue",
    "ComponentClassification",
    "is_balanced",
    "delta",
    "wakamiko_exponents",
    "lattice_distance",
    "classify_component",
    "classify_universal_rank2",
]


@dataclass(frozen=True)
class DeltaValue:
    """Exponent pair of a rank-two multiarrangement, d1 <= d2."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 > self.d2:
            raise ValueError("exponents must be ordered")

    @property
    def delta(self) -> int:
        return self.d2 - self.d1

    @property
    def pair(self) -> tuple[int, int]:
        return (self.d1, self.d2)

    def order(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class ComponentClassification:
    """Where a multiplicity sits in the nonzero-gap part of the lattice.

    `infinite` verdicts name the dominating hyperplane; finite verdicts carry
    the peak multiplicity, its gap, and the distance walked from the query.
    `path` is the witness walk, query first, peak last.
    """

    infinite: bool
    dominant: int | None
    peak: Multiplicity | None
    peak_delta: int | None
    distance: int | None
    path: tuple[Multiplicity, ...]


def is_balanced(ma: Multiarrangement) -> bool:
    """No hyperplane outweighs all the others: m(H) <= |m| - m(H) for all H."""
    total = ma.order()
    return all(2 * v <= total for v in ma.mult)


def _essential_rank2(ma: Multiarrangement) -> Multiarrangement:
    if ma.arrangement.rank() != 2:
        raise ArrangementError("expected a rank-2 multiarrangement")
    if ma.nvars == 2:
        return ma
    ess, _ = essentialize(ma)
    return ess


# D(A, 0): the partial derivatives d/dx and d/dy
_UNIT_BASIS = (((1,), (0,)), ((0,), (1,)))


def _step_value(theta, form: tuple[int, int], j: int) -> int:
    """[t^j] theta(alpha)(p + t e), for alpha = a x + b y with alpha^j | theta(alpha).

    theta = f d/dx + g d/dy has coefficient tuples indexed by y-power.  p =
    (-b, a) spans the line, and e = e_1 (e_2 if a = 0) leaves it, so the value
    is alpha(e)^j times the cofactor theta(alpha) / alpha^j at p: zero exactly
    when alpha^(j+1) divides theta(alpha).  With c the coefficients of
    theta(alpha) and d its degree, it is sum_i c_i C(d - i, j) p0^(d-i-j) p1^i,
    one Horner pass; for the line x = 0 only c_(d-j) survives, and for y = 0
    (where e = e_2) only c_j.  Below degree j, theta(alpha) = 0.
    """
    f, g = theta
    a, b = form
    n = len(f) - 1 - j
    if n < 0:
        return 0
    if a == 0:
        return (-b) ** n * b * g[j]
    p0, p1 = -b, a
    if p0 == 0:
        return (a * f[n] + b * g[n]) * p1 ** n
    acc, power = 0, 1
    for i in range(n + 1):
        acc = acc * p0 + (a * f[i] + b * g[i]) * math.comb(n + j - i, j) * power
        power *= p1
    return acc


def _step(basis, forms, mult: Multiplicity, h: int):
    """The special basis (theta, psi) of D(A, m + delta_h) from a basis of D(A, m).

    The pivot is the element of lower degree whose step value is nonzero; the
    other element is cleared by r_piv beta(p)^e theta - r beta^e pivot, with
    beta the variable nonzero at p and e the degree difference, and becomes
    theta; psi is the pivot multiplied by alpha_h.  The determinant gains
    alpha_h times a nonzero constant, so by Saito's criterion the result is a
    basis again.  Both values vanishing would put a basis of D(A, m) inside
    D(A, m + delta_h), which freeness rules out.
    """
    form, j = forms[h], mult[h]
    r0, r1 = _step_value(basis[0], form, j), _step_value(basis[1], form, j)
    if not (r0 or r1):
        raise InternalCheckError(
            f"both basis elements of degrees {[len(f) - 1 for f, _ in basis]} already lie in "
            f"D(A, m + delta_{h}), stepping hyperplane {h} from multiplicity {mult}, "
            f"for forms {list(forms)}")
    piv = 0 if r0 and (not r1 or len(basis[0][0]) <= len(basis[1][0])) else 1
    pivot, other = basis[piv], basis[1 - piv]
    r_piv, r = (r0, r1) if piv == 0 else (r1, r0)
    a, b = form
    if r:
        e = len(other[0]) - len(pivot[0])
        p0, p1 = -b, a
        scale = r_piv * (p0 if p0 else p1) ** e
        pad = (0,) * e
        shifted = [c + pad if p0 else pad + c for c in pivot]
        other = [[scale * u - r * v for u, v in zip(c, s)] for c, s in zip(other, shifted)]
        content = math.gcd(*other[0], *other[1])
        other = tuple([tuple([u // content for u in c]) for c in other])
    return other, tuple([tuple([a * u + b * v for u, v in zip(c + (0,), (0,) + c)]) for c in pivot])


def _lowered(mult: Multiplicity, i: int) -> Multiplicity:
    return mult[:i] + (mult[i] - 1,) + mult[i + 1:]


def _special_basis(ma: Multiarrangement, h: int):
    """(theta, psi) of D(A, m), m(H_h) >= 1, on the essential model: one `_step`
    at h from the order basis of m - delta_h, so psi is in alpha_h * Der.

    m(H_h) < 1 raises `HypothesisError`: m - delta_h would have a negative
    entry, which `_order_basis` never reaches zero from.
    """
    if ma.mult[h] < 1:
        raise HypothesisError(f"the special basis at hyperplane {h} needs m(H) >= 1, not {ma.mult[h]}")
    ess = _essential_rank2(ma)
    below = _lowered(ess.mult, h)
    return _step(_order_basis(ess.arrangement, below), [f.primitive for f in ess.forms], below, h)


def _order_basis(arrangement: Arrangement, mult: Multiplicity):
    """A homogeneous basis of D(A, m): two (f, g) pairs of coefficient tuples.

    Walks down from m, one hyperplane at a time, to the first point whose
    basis is in the shared store (keyed by (arrangement, m)) or to zero,
    then steps back up, storing every point on the way.  Each point goes
    down to a stored m - delta_i when there is one, trying the last
    hyperplane first (in grid order its neighbour is the newest), and
    otherwise lowers its largest entry.
    """
    chain = []
    while True:
        key = arrangement, mult
        basis = store.get(key)
        if basis is not None:
            break
        if not any(mult):
            basis = _UNIT_BASIS
            break
        for h in range(len(mult) - 1, -1, -1):
            if mult[h] and (arrangement, _lowered(mult, h)) in store:
                break
        else:
            h = mult.index(max(mult))
        mult = _lowered(mult, h)
        chain.append((key, mult, h))
    if chain:
        forms = [f.primitive for f in arrangement.forms]
        for key, below, h in reversed(chain):
            basis = _step(basis, forms, below, h)
            # sized as its four coefficient tuples
            store.put(key, basis, rows_bytes(basis[0] + basis[1]))
    return basis


def delta(ma: Multiarrangement) -> DeltaValue:
    """Exponent pair and gap of a rank-2 multiarrangement, from an order basis.

    The degrees of the basis `_order_basis` builds are the exponents; they
    sum to |m| by construction.  The lower one is checked against the two
    theorems the lattice rests on: a dominated multiplicity (2 m(H) > |m|)
    has exponents (|m| - m(H), m(H)), and a balanced one has a gap of at most
    n - 2 on n lines, so ceil((|m| - n + 2) / 2) <= d1 <= floor(|m| / 2).  A
    d1 outside that range is an internal error.
    """
    ess = _essential_rank2(ma)
    total, top = ess.order(), max(ess.mult)
    first, second = _order_basis(ess.arrangement, ess.mult)
    d1 = min(len(first[0]), len(second[0])) - 1
    lo, hi = ((total - len(ess.mult) + 3) // 2, total // 2) if 2 * top <= total else (total - top,) * 2
    if not lo <= d1 <= hi:
        raise InternalCheckError(
            f"d1 = {d1} lies outside [{lo}, {hi}] "
            f"for forms {[f.primitive for f in ess.forms]} with multiplicity {ess.mult}"
        )
    return DeltaValue(d1, total - d1)


def wakamiko_exponents(k1: int, k2: int, k3: int) -> tuple[int, int]:
    """Exponents of three concurrent lines with multiplicities (k1, k2, k3).

    Closed form: when the largest multiplicity k3 is at least k1 + k2 - 1 the
    pair is (k1 + k2, k3); otherwise the two exponents split |m| as evenly as
    the parity allows.
    """
    if min(k1, k2, k3) < 0:
        raise HypothesisError("multiplicities must be nonnegative")
    if k3 < max(k1, k2):
        raise HypothesisError("the third multiplicity must be the largest")
    if k3 >= k1 + k2 - 1:
        pair = (k1 + k2, k3)
        return (min(pair), max(pair))
    total = k1 + k2 + k3
    odd = total % 2
    return ((total - odd) // 2, (total + odd) // 2)


def lattice_distance(m: Multiplicity, m2: Multiplicity) -> int:
    """L1 distance between two multiplicities on the same arrangement."""
    if len(m) != len(m2):
        raise ArrangementError("multiplicity lengths differ")
    return sum(abs(a - b) for a, b in zip(m, m2))


def classify_component(ma: Multiarrangement) -> ComponentClassification:
    """Classify the lattice component of a rank-2 multiplicity with gap >= 1.

    Unbalanced multiplicities lie on the infinite ray of their dominating
    hyperplane.  Balanced ones are walked uphill: among distance-1 balanced
    neighbors (hyperplane index ascending, increment before decrement) take
    the first with a strictly larger gap, until none exists; the endpoint is
    the peak of the component and the gap drops by one per step away from it.
    The walk moves on multiplicity tuples and reads each gap off the degrees
    of the tuple's order basis.
    """
    ess = _essential_rank2(ma)

    def gap(mult: Multiplicity) -> int:
        first, second = _order_basis(ess.arrangement, mult)
        return abs(len(first[0]) - len(second[0]))

    start = ess.mult
    current_delta = gap(start)
    if current_delta == 0:
        raise HypothesisError("a zero gap lies outside every component")
    total = ess.order()
    for i, v in enumerate(start):
        if 2 * v > total:
            return ComponentClassification(True, i, None, None, None, (start,))
    current = start
    path = [start]
    climbing = True
    while climbing:
        climbing = False
        for i in range(len(current)):
            for step in (1, -1):
                cand = current[:i] + (current[i] + step,) + current[i + 1:]
                if cand[i] < 0 or 2 * max(cand) > sum(cand):
                    continue
                cand_delta = gap(cand)
                if cand_delta > current_delta:
                    if cand_delta != current_delta + 1:
                        raise InternalCheckError(
                            f"gap moved by more than one step, from {current_delta} at multiplicity "
                            f"{current} to {cand_delta} at {cand}, "
                            f"for forms {[f.primitive for f in ess.forms]}")
                    current = cand
                    current_delta = cand_delta
                    path.append(current)
                    climbing = True
                    break
            if climbing:
                break
    return ComponentClassification(
        False,
        None,
        current,
        current_delta,
        lattice_distance(start, current),
        tuple(path),
    )


def classify_universal_rank2(ma_base: Multiarrangement, theta: Derivation) -> bool:
    """Exponent-gap test for universality over a rank-2 base multiplicity m.

    With n hyperplanes, a homogeneous theta in D(A, m+1) is m-universal
    exactly when m+1 is balanced and exp(A, m+1) = (deg theta,
    deg theta + n - 2).  Hypotheses enforced: the arrangement is an
    essential rank-2 model, irreducible, and either has more than three
    hyperplanes or exactly three with m balanced.
    """
    if ma_base.arrangement.rank() != 2:
        raise HypothesisError("the classifier needs a rank-2 arrangement")
    if ma_base.nvars != 2:
        raise HypothesisError("pass the essential two-variable model")
    n = len(ma_base.forms)
    if irreducible_component_count(ma_base.arrangement) != 1:
        raise HypothesisError("the classifier needs an irreducible arrangement")
    if n == 3 and not is_balanced(ma_base):
        raise HypothesisError("with three hyperplanes the base multiplicity must be balanced")
    if not theta or not theta.is_homogeneous():
        raise HypothesisError("the classifier needs a nonzero homogeneous derivation")
    from .logder import _member

    lifted = ma_base.plus_ones()
    if not _member(theta, lifted):
        raise MembershipError("the derivation does not lie in D(A, m+1)")
    deg = theta.homogeneous_degree()
    assert deg is not None
    dv = delta(lifted)
    return is_balanced(lifted) and dv.pair == (deg, deg + n - 2)
