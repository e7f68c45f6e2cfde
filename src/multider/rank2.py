"""Rank-two multiarrangements and their multiplicity lattice.

Rank-two modules are always free (Ziegler), so every multiplicity carries a
well defined exponent pair (d1, d2) with d1 + d2 = |m| and a gap
Delta = d2 - d1.  Freeness fixes the Hilbert function, so one exact graded
dimension, at degree ceil(|m|/2) - 1, determines the pair: `delta` runs no
basis search and no Saito certification.  The gap is a
Lipschitz function on the multiplicity lattice: a single-hyperplane change
moves it by exactly one.  Balanced multiplicities with a nonzero gap fall
into finite components with a unique local maximum of Delta called the peak
point; dominated multiplicities (one hyperplane outweighing all others) form
infinite rays with explicit exponents.  The classifier below walks the
lattice accordingly, and the closed-form exponents for three lines avoid
linear algebra entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import (
    Multiarrangement,
    Multiplicity,
    essentialize,
    irreducible_component_count,
)
from .errors import (
    ArrangementError,
    HypothesisError,
    InternalCheckError,
    MembershipError,
)
from .graded import graded_dimension
from .logder import Derivation, _member

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


def delta(ma: Multiarrangement) -> DeltaValue:
    """Exponent pair and gap of a rank-2 multiarrangement, from one dimension.

    D(A, m) is free with exponents d1 <= d2 summing to |m|, so
    dim D(A, m)_k = (k - d1 + 1)_+ + (k - d2 + 1)_+.  At k = ceil(|m|/2) - 1
    the second term vanishes (d2 >= ceil(|m|/2) > k) and the first is
    ceil(|m|/2) - d1, so the single exact dimension dim D(A, m)_k gives
    d1 = ceil(|m|/2) - dim and d2 = |m| - d1.  No basis, determinant or
    Q(A, m) is built.  Since 0 <= d1 <= floor(|m|/2), the dimension must lie
    in [|m| mod 2, ceil(|m|/2)]; anything else is an internal error.
    """
    ess = _essential_rank2(ma)
    total = ess.order()
    half = (total + 1) // 2
    dim = graded_dimension(ess, half - 1)
    if not total % 2 <= dim <= half:
        raise InternalCheckError(
            f"dim D(A, m)_{half - 1} = {dim} lies outside [{total % 2}, {half}] "
            f"for forms {[f.primitive for f in ess.forms]} with multiplicity {ess.mult}"
        )
    d1 = half - dim
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
    """
    ess = _essential_rank2(ma)
    start = ess.mult
    dv = delta(ess)
    if dv.delta == 0:
        raise HypothesisError("a zero gap lies outside every component")
    total = ess.order()
    for i, v in enumerate(start):
        if 2 * v > total:
            return ComponentClassification(True, i, None, None, None, (start,))
    current = start
    current_delta = dv.delta
    path = [start]
    climbing = True
    while climbing:
        climbing = False
        for i in range(len(current)):
            for step in (1, -1):
                cand = list(current)
                cand[i] += step
                if cand[i] < 0:
                    continue
                cand_ma = ess.with_mult(cand)
                if not is_balanced(cand_ma):
                    continue
                cand_delta = delta(cand_ma).delta
                if cand_delta > current_delta:
                    if cand_delta != current_delta + 1:
                        raise InternalCheckError(
                            f"gap moved by more than one step, from {current_delta} at multiplicity "
                            f"{current} to {cand_delta} at {tuple(cand)}, "
                            f"for forms {[f.primitive for f in ess.forms]}")
                    current = tuple(cand)
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
    lifted = ma_base.plus_ones()
    if not _member(theta, lifted):
        raise MembershipError("the derivation does not lie in D(A, m+1)")
    deg = theta.homogeneous_degree()
    assert deg is not None
    dv = delta(lifted)
    return is_balanced(lifted) and dv.pair == (deg, deg + n - 2)
