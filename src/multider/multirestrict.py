"""Euler restrictions, boundary polynomials, and supersolvable filtrations.

Restricting a multiarrangement to a hyperplane H0 with m(H0) >= 1 assigns
every rank-2 flat X through H0 an Euler multiplicity mu*(X) = deg theta, where
(theta, psi) is a special basis of the free local module: psi lies in
alpha_0 * Der and theta does not.  One order-basis step at H0 from
m_X - delta_0 is such a basis (`rank2._special_basis`), so
`euler_multiplicity` reads mu*(X) off its degree and `special_rank2_basis`
returns it as a pair of derivations.

On top of the restriction sit the boundary polynomial B (a gate on theta(
alpha_0) for members of the module), the resulting non-criticality test, and
the supersolvable machinery: filtration validation, the multiplicity
inequalities, the combinatorial exponent formula, and the necessary-condition
report for universal derivations over a supersolvable multiplicity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .arrangement import (
    Arrangement,
    Flat,
    Multiarrangement,
    _sub,
    essentialize,
    flat_of,
    localize,
    rank2_flats,
)
from .errors import (
    ArrangementError,
    FiltrationError,
    HypothesisError,
    InternalCheckError,
    MultiderError,
)
from .linalg import rank
from .logder import Derivation, find_free_basis, find_universal
from .polyring import LinearForm, Poly, product_of_forms
from .rank2 import _special_basis, delta, is_balanced

__all__ = [
    "Filtration",
    "FlatRestriction",
    "EulerRestriction",
    "BFactor",
    "BPolynomialData",
    "ObstructionReport",
    "special_rank2_basis",
    "euler_multiplicity",
    "b_polynomial",
    "noncritical_criterion",
    "check_supersolvable",
    "supersolvable_exponents",
    "universal_obstruction_report",
    "filtration_from_dict",
    "filtration_to_dict",
    "load_filtration",
]


@dataclass(frozen=True)
class Filtration:
    """Nested sub-arrangements A_1 < A_2 < ... < A_r = A with rank(A_i) = i.

    Levels are index tuples into the arrangement's hyperplane list.  The
    constructor validates strict inclusion, the rank ladder, and the
    combinatorial closure condition: any two hyperplanes new at one level
    intersect inside some hyperplane of the previous level.
    """

    arrangement: Arrangement
    levels: tuple[tuple[int, ...], ...]

    def __init__(self, arrangement: Arrangement, levels):
        norm = tuple(tuple(sorted({int(i) for i in lvl})) for lvl in levels)
        if not norm:
            raise FiltrationError("a filtration needs at least one level")
        n = len(arrangement.forms)
        for lvl in norm:
            if not lvl:
                raise FiltrationError("empty filtration level")
            if lvl[0] < 0 or lvl[-1] >= n:
                raise FiltrationError("hyperplane index out of range")
        prev: tuple[int, ...] = ()
        for depth, lvl in enumerate(norm, start=1):
            if not set(prev) < set(lvl):
                raise FiltrationError("filtration levels must strictly increase")
            if rank([arrangement.forms[i].primitive for i in lvl]) != depth:
                raise FiltrationError(f"level {depth} must have rank {depth}")
            prev = lvl
        if set(norm[-1]) != set(range(n)):
            raise FiltrationError("the last level must contain every hyperplane")
        for depth in range(1, len(norm)):
            before = set(norm[depth - 1])
            fresh = [i for i in norm[depth] if i not in before]
            for a in range(len(fresh)):
                for b in range(a + 1, len(fresh)):
                    fl = flat_of(arrangement, (fresh[a], fresh[b]))
                    if not any(i in before for i in fl.indices):
                        raise FiltrationError(
                            "two hyperplanes new at level "
                            f"{depth + 1} meet outside the previous level"
                        )
        object.__setattr__(self, "arrangement", arrangement)
        object.__setattr__(self, "levels", norm)

    @property
    def rank(self) -> int:
        return len(self.levels)

    def sub_multiarrangement(self, ma: Multiarrangement, depth: int) -> Multiarrangement:
        """The level-`depth` (1-based) piece of `ma`."""
        if ma.arrangement != self.arrangement:
            raise FiltrationError("multiarrangement does not match the filtration")
        idx = self.levels[depth - 1]
        return _sub(ma.arrangement, idx).with_multiplicity([ma.mult[i] for i in idx])

    def level_order(self, ma: Multiarrangement, depth: int) -> int:
        """Total multiplicity of `ma` on the level-`depth` hyperplanes."""
        if ma.arrangement != self.arrangement:
            raise FiltrationError("multiarrangement does not match the filtration")
        return sum(ma.mult[i] for i in self.levels[depth - 1])


def filtration_from_dict(arrangement: Arrangement, data: dict) -> Filtration:
    try:
        levels = data["filtration"]
    except (KeyError, TypeError) as exc:
        raise FiltrationError("expected a 'filtration' key with index lists") from exc
    if not isinstance(levels, list) or not all(isinstance(lvl, list) for lvl in levels):
        raise FiltrationError("'filtration' must be a list of index lists")
    if any(type(i) is not int for lvl in levels for i in lvl):
        raise FiltrationError("filtration indices must be integers")
    return Filtration(arrangement, tuple(tuple(lvl) for lvl in levels))


def filtration_to_dict(f: Filtration) -> dict:
    return {"filtration": [list(lvl) for lvl in f.levels]}


def load_filtration(arrangement: Arrangement, path: str) -> Filtration:
    with open(path, "r", encoding="utf-8") as fh:
        return filtration_from_dict(arrangement, json.load(fh))


# -- the special rank-2 basis and the Euler multiplicity -------------------


def special_rank2_basis(ma: Multiarrangement, alpha0: LinearForm) -> tuple[Derivation, Derivation]:
    """Basis (theta, psi) of a rank-2 module with psi inside alpha0 * Der.

    Returned on the essential two-variable coordinates of the localization:
    the order-basis step at alpha0 from m - delta_0 (`rank2._special_basis`),
    so psi is alpha0 times a derivation and theta is not divisible.  theta is
    certified by one evaluation: a coefficient nonzero at the point spanning
    alpha0 = 0.
    """
    if alpha0 not in ma.forms:
        raise ArrangementError("alpha0 must be one of the localization's forms")
    h = ma.forms.index(alpha0)
    if not ma.mult[h]:
        raise HypothesisError("a special basis needs positive multiplicity on alpha0")
    ess, _ = essentialize(ma)
    if ess.nvars != 2:
        raise ArrangementError("special basis needs a rank-2 localization")
    theta, psi = _special_basis(ess, h)
    p0, p1 = ess.forms[h].kernel_point_2d()
    if not any(sum(c * p0 ** (len(cs) - 1 - i) * p1 ** i for i, c in enumerate(cs)) for cs in theta):
        raise InternalCheckError(
            f"both basis elements are divisible by the boundary form for forms "
            f"{[f.primitive for f in ma.forms]} with multiplicity {ma.mult}, boundary form {alpha0.primitive}")
    return tuple(Derivation(Poly(2, {(len(cs) - 1 - i, i): c for i, c in enumerate(cs)}) for cs in element)
                 for element in (theta, psi))


@dataclass(frozen=True)
class FlatRestriction:
    """One point of the restricted arrangement: mu is deg theta of the special
    basis (theta, psi) that `special_rank2_basis(localize(ma, flat),
    ma.forms[h0])` returns, and local_order is deg theta + deg psi."""

    flat: Flat
    mu: int
    local_order: int


@dataclass(frozen=True)
class EulerRestriction:
    """Restriction of (A, m) to a hyperplane with Euler multiplicities."""

    ma: Multiarrangement
    h0: int
    flats: tuple[FlatRestriction, ...]

    def mu_values(self) -> tuple[int, ...]:
        return tuple(fr.mu for fr in self.flats)

    def order(self) -> int:
        """Total Euler multiplicity |mu*|."""
        return sum(fr.mu for fr in self.flats)


def euler_multiplicity(ma: Multiarrangement, h0: int) -> EulerRestriction:
    """Euler multiplicity of every flat of the restriction to hyperplane h0.

    Flats are the rank-2 intersections through h0, ordered by their index
    lists.  mu*(X) is deg theta of the special basis (theta, psi) of the
    localization at X: one order-basis step at h0 from m_X - delta_0
    (`rank2._special_basis`), whose other element psi carries the one
    exponent the step gains.
    """
    if not 0 <= h0 < len(ma.forms):
        raise ArrangementError(f"hyperplane index {h0} out of range")
    if not ma.mult[h0]:
        raise HypothesisError(f"Euler multiplicity needs m(H{h0}) >= 1")
    records = []
    for fl in rank2_flats(ma.arrangement):
        if h0 not in fl.indices:
            continue
        local = localize(ma, fl)
        theta, _ = _special_basis(local, fl.indices.index(h0))
        records.append(FlatRestriction(fl, len(theta[0]) - 1, local.order()))
    return EulerRestriction(ma, h0, tuple(records))


# -- the boundary polynomial and non-criticality ---------------------------


@dataclass(frozen=True)
class BFactor:
    """Contribution of one restriction flat to the boundary polynomial."""

    flat: Flat
    chosen: int
    d_x: int


@dataclass(frozen=True)
class BPolynomialData:
    """Boundary polynomial B = alpha_0^{m0-1} * prod alpha_{H_X}^{d_X - m0}."""

    ma: Multiarrangement
    h0: int
    m0: int
    factors: tuple[BFactor, ...]
    polynomial: Poly

    def degree(self) -> int:
        return (self.m0 - 1) + sum(f.d_x - self.m0 for f in self.factors)


def b_polynomial(ma: Multiarrangement, h0: int) -> BPolynomialData:
    """Assemble the boundary polynomial gating theta(alpha_0) at h0.

    The input multiplicity plays the role of m+1, so m0 is the input value at
    h0 plus one.  Each flat X through h0 contributes the exponent d_X its
    localization gains when h0 is raised: deg psi of the raised special
    basis, the raised local order minus the Euler multiplicity of
    `euler_multiplicity(ma.plus_delta(h0), h0)`;
    the chosen representative H_X is the lowest-index hyperplane of the flat
    other than h0.  Negative factor exponents d_X - m0 are rejected.
    """
    if not 0 <= h0 < len(ma.forms):
        raise ArrangementError(f"hyperplane index {h0} out of range")
    m0 = ma.mult[h0] + 1
    factors: list[BFactor] = []
    powers: list[tuple[LinearForm, int]] = [(ma.forms[h0], m0 - 1)]
    for fr in euler_multiplicity(ma.plus_delta(h0), h0).flats:
        d_x = fr.local_order - fr.mu
        if d_x < m0:
            raise MultiderError(
                f"negative boundary factor exponent at flat {fr.flat.indices}"
            )
        chosen = next(i for i in fr.flat.indices if i != h0)
        factors.append(BFactor(fr.flat, chosen, d_x))
        powers.append((ma.forms[chosen], d_x - m0))
    return BPolynomialData(ma, h0, m0, tuple(factors), product_of_forms(powers))


def noncritical_criterion(ma: Multiarrangement, h: int) -> bool:
    """Restriction-order test forcing a surviving low-degree element.

    For a free rank-3 multiplicity with exponents d1 <= d2 <= d3 (the input
    again playing the role of m+1): when the Euler restriction of the raised
    multiplicity to h has total order below d2 + d3, the degree-d1 piece of
    the raised module cannot vanish, so criticality fails there.
    """
    if ma.arrangement.rank() != 3:
        raise HypothesisError("the criterion needs a rank-3 multiarrangement")
    ess = ma if ma.nvars == 3 else essentialize(ma)[0]
    cert = find_free_basis(ess)
    if not cert.free or cert.exponents is None:
        raise HypothesisError("the criterion needs a free multiarrangement")
    _, d2, d3 = cert.exponents
    restricted = euler_multiplicity(ma.plus_delta(h), h)
    return restricted.order() < d2 + d3


# -- supersolvable multiplicities ------------------------------------------


def check_supersolvable(ma: Multiarrangement, filt: Filtration) -> bool:
    """Multiplicity inequalities of the supersolvable exponent formula.

    For every level d >= 3, every hyperplane H'' of the previous level, and
    every flat X spanned by H'' with a hyperplane new at level d: either the
    full localization at X is just the pair, or m(H'') is at least the total
    new multiplicity through X minus one.
    """
    if filt.arrangement != ma.arrangement:
        raise FiltrationError("filtration belongs to a different arrangement")
    for depth in range(3, filt.rank + 1):
        level = set(filt.levels[depth - 1])
        before = set(filt.levels[depth - 2])
        fresh = sorted(level - before)
        seen: set[tuple] = set()
        for hp in fresh:
            for hq in sorted(before):
                fl = flat_of(ma.arrangement, (hp, hq))
                key = (fl.indices, hq)
                if key in seen:
                    continue
                seen.add(key)
                if set(fl.indices) == {hp, hq}:
                    continue
                new_total = sum(ma.mult[i] for i in fl.indices if i in level and i not in before)
                if ma.mult[hq] < new_total - 1:
                    return False
    return True


def supersolvable_exponents(ma: Multiarrangement, filt: Filtration) -> tuple[int, ...]:
    """Exponents read off a supersolvable filtration without a Saito search.

    The rank-2 level contributes its exponent pair; every later level
    contributes its multiplicity increment; trailing zeros pad non-essential
    ambient coordinates.
    """
    if filt.rank < 2:
        raise HypothesisError("the exponent formula needs rank at least 2")
    if not check_supersolvable(ma, filt):
        raise FiltrationError("the multiplicity fails the supersolvable inequalities")
    dv = delta(filt.sub_multiarrangement(ma, 2))
    exps = [dv.d1, dv.d2]
    for depth in range(3, filt.rank + 1):
        exps.append(filt.level_order(ma, depth) - filt.level_order(ma, depth - 1))
    exps.extend([0] * (ma.nvars - filt.rank))
    return tuple(exps)


@dataclass(frozen=True)
class ObstructionReport:
    """Necessary conditions for a universal derivation over m, from a
    supersolvable filtration of the lifted multiplicity m+1.

    The input multiarrangement carries m+1; `rank2_exponents` and
    `increments` refer to the base multiplicity m.  When every condition
    holds the final verdict is delegated to the existence search and stored
    in `universal`.
    """

    ma: Multiarrangement
    filtration: Filtration
    lift_balanced: bool
    base_order_even: bool
    rank2_exponents: tuple[int, int]
    rank2_equal: bool
    increments: tuple[int, ...]
    increments_equal: bool
    universal: Derivation | None

    def failed(self) -> tuple[str, ...]:
        names = ("lift_balanced", "base_order_even", "rank2_equal", "increments_equal")
        return tuple(name for name in names if not getattr(self, name))

    def passes(self) -> bool:
        return not self.failed()


def universal_obstruction_report(ma: Multiarrangement, filt: Filtration) -> ObstructionReport:
    """Evaluate the necessary conditions for universality over the base m.

    Conditions: the lifted level-2 multiplicity is balanced; the base level-2
    order is even with equal exponents; every later level increment of the
    base equals half the base level-2 order.  All conditions passing defers
    the final verdict to the existence search on the base multiplicity.
    """
    if not check_supersolvable(ma, filt):
        raise FiltrationError("the lifted multiplicity is not supersolvable here")
    if any(v < 1 for v in ma.mult):
        raise ArrangementError("the input must carry m+1, so every entry is positive")
    base = ma.with_mult([v - 1 for v in ma.mult])
    lift2 = filt.sub_multiarrangement(ma, 2)
    base2 = filt.sub_multiarrangement(base, 2)
    lift_balanced = is_balanced(lift2)
    base2_order = base2.order()
    base_order_even = base2_order % 2 == 0
    dv = delta(base2)
    rank2_exps = dv.pair
    half = base2_order // 2
    rank2_equal = base_order_even and rank2_exps == (half, half)
    increments = tuple(
        filt.level_order(base, depth) - filt.level_order(base, depth - 1)
        for depth in range(3, filt.rank + 1)
    )
    increments_equal = base_order_even and all(inc == half for inc in increments)
    report = ObstructionReport(ma, filt, lift_balanced, base_order_even, rank2_exps,
                               rank2_equal, increments, increments_equal, None)
    return replace(report, universal=find_universal(base)) if report.passes() else report
