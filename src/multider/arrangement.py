"""Central hyperplane arrangements with multiplicities.

A hyperplane is identified with its canonicalized defining LinearForm; an
arrangement is an ordered tuple of pairwise non-proportional forms, and a
multiarrangement attaches a nonnegative integer multiplicity to each.
Multiplicities are plain tuples aligned with the form order.

Also here: codimension-2 flats, localization/deletion/essentialization, a
catalog of named arrangements used throughout the test corpus, and JSON I/O.
Geometry that depends only on the arrangement - the rank-2 flat of every
pair of hyperplanes (a flat is its index set) and the essentialization - is
computed once per `Arrangement` on integer primitive rows and cached on it;
`_sub` shares one sub-arrangement per index set among all multiplicities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ArrangementError
from .linalg import echelon, rank
from .polyring import (
    LinearForm,
    Poly,
    Scalar,
    _frac,
    product_of_forms,
    variable_names,
)

Multiplicity = tuple[int, ...]

_SUB_CACHE_LIMIT = 256


def ones(count: int) -> Multiplicity:
    return (1,) * count


def indicator(count: int, index: int) -> Multiplicity:
    """The multiplicity that is 1 at one hyperplane and 0 elsewhere."""
    if not 0 <= index < count:
        raise ArrangementError(f"hyperplane index {index} out of range")
    return tuple(1 if i == index else 0 for i in range(count))


def add_mult(a: Multiplicity, b: Multiplicity) -> Multiplicity:
    if len(a) != len(b):
        raise ArrangementError("multiplicity lengths differ")
    return tuple(x + y for x, y in zip(a, b))


def order(m: Multiplicity) -> int:
    return sum(m)


@dataclass(frozen=True)
class Arrangement:
    nvars: int
    forms: tuple[LinearForm, ...]

    def __init__(self, nvars: int, forms: Iterable[LinearForm | Sequence[Scalar]]):
        canonical = tuple(f if isinstance(f, LinearForm) else LinearForm(f) for f in forms)
        if not canonical:
            raise ArrangementError("an arrangement needs at least one hyperplane")
        for f in canonical:
            if f.nvars != nvars:
                raise ArrangementError("form dimension does not match the arrangement")
        # proportional forms collide after canonicalization; reject, do not merge
        if len({f.coeffs for f in canonical}) != len(canonical):
            raise ArrangementError("proportional defining forms")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "forms", canonical)

    # computed on first use, then cached; not fields, so == and repr ignore them
    @cached_property
    def _hash(self) -> int:
        return hash((self.nvars, self.forms))

    @cached_property
    def _rank(self) -> int:
        return rank([f.primitive for f in self.forms])

    @cached_property
    def _flats(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Each pair i < j mapped to the sorted members of the flat it spans."""
        prims = [f.primitive for f in self.forms]
        flats: dict[tuple[int, int], tuple[int, ...]] = {}
        for i, j in combinations(range(len(prims)), 2):
            if (i, j) not in flats:
                members = tuple(k for k, p in enumerate(prims) if rank([prims[i], prims[j], p]) == 2)
                flats.update(dict.fromkeys(combinations(members, 2), members))
        return flats

    @cached_property
    def _essential(self) -> tuple[Arrangement, tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The forms on their span's pivot coordinates, with the echelon rows and pivots."""
        rows, pivots, _ = echelon([f.primitive for f in self.forms])
        ess = Arrangement(len(pivots), [LinearForm([f.coeffs[p] for p in pivots]) for f in self.forms])
        return ess, tuple(map(tuple, rows)), tuple(pivots)

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.forms)

    def rank(self) -> int:
        return self._rank

    def with_multiplicity(self, mult: Sequence[int]) -> Multiarrangement:
        return Multiarrangement(self, tuple(mult))

    def simple(self) -> Multiarrangement:
        return self.with_multiplicity(ones(len(self)))


def is_essential(a: Arrangement) -> bool:
    return a.rank() == a.nvars


@dataclass(frozen=True)
class Multiarrangement:
    arrangement: Arrangement
    mult: Multiplicity

    def __init__(self, arrangement: Arrangement, mult: Sequence[int]):
        m = tuple(int(v) for v in mult)
        if len(m) != len(arrangement):
            raise ArrangementError("multiplicity length does not match hyperplane count")
        if any(v < 0 for v in m):
            raise ArrangementError("negative multiplicity")
        object.__setattr__(self, "arrangement", arrangement)
        object.__setattr__(self, "mult", m)

    @property
    def nvars(self) -> int:
        return self.arrangement.nvars

    @property
    def forms(self) -> tuple[LinearForm, ...]:
        return self.arrangement.forms

    def order(self) -> int:
        return order(self.mult)

    def plus_ones(self) -> Multiarrangement:
        return Multiarrangement(self.arrangement, add_mult(self.mult, ones(len(self.mult))))

    def plus_delta(self, index: int) -> Multiarrangement:
        return Multiarrangement(self.arrangement, add_mult(self.mult, indicator(len(self.mult), index)))

    def with_mult(self, mult: Sequence[int]) -> Multiarrangement:
        return Multiarrangement(self.arrangement, tuple(mult))


def defining_polynomial(ma: Multiarrangement) -> Poly:
    return product_of_forms((f, m) for f, m in zip(ma.forms, ma.mult))


@dataclass(frozen=True)
class Flat:
    """A codimension-2 intersection: the sorted indices of every hyperplane through it."""

    indices: tuple[int, ...]


def rank2_flats(a: Arrangement) -> list[Flat]:
    """All codimension-2 intersection subspaces, with their full index lists."""
    if a.nvars < 2:
        raise ArrangementError("rank2_flats needs ambient dimension at least 2")
    return [Flat(members) for members in sorted(set(a._flats.values()))]


def flat_of(a: Arrangement, indices: Sequence[int]) -> Flat:
    """The rank-2 flat spanned by the given hyperplanes; checks it is one."""
    idx = sorted(set(indices))
    if len(idx) < 2:
        raise ArrangementError("a rank-2 flat needs at least two hyperplanes")
    if idx[0] < 0 or idx[-1] >= len(a.forms):
        raise ArrangementError("flat index out of range")
    members = a._flats[idx[0], idx[1]]
    if not set(idx) <= set(members):
        raise ArrangementError("selected hyperplanes do not span a codimension-2 flat")
    return Flat(members)


@lru_cache(maxsize=_SUB_CACHE_LIMIT)
def _sub(a: Arrangement, indices: tuple[int, ...]) -> Arrangement:
    """The sub-arrangement on `indices`: one object, with its caches, per (a, indices)."""
    return Arrangement(a.nvars, [a.forms[i] for i in indices])


def localize(ma: Multiarrangement, x: Flat) -> Multiarrangement:
    if ma.arrangement._flats.get(x.indices[:2]) != x.indices:
        raise ArrangementError(f"{x.indices} is not a rank-2 flat of this arrangement")
    return _sub(ma.arrangement, x.indices).with_multiplicity([ma.mult[i] for i in x.indices])


def delete(ma: Multiarrangement, h0: int) -> Multiarrangement:
    if not 0 <= h0 < len(ma.forms):
        raise ArrangementError(f"hyperplane index {h0} out of range")
    if ma.mult[h0] == 0:
        raise ArrangementError("cannot delete a hyperplane of multiplicity 0")
    if ma.mult[h0] == 1:
        if len(ma.forms) == 1:
            raise ArrangementError("deletion would leave an empty arrangement")
        keep = tuple(i for i in range(len(ma.forms)) if i != h0)
        return _sub(ma.arrangement, keep).with_multiplicity([ma.mult[i] for i in keep])
    mult = list(ma.mult)
    mult[h0] -= 1
    return ma.with_mult(mult)


@dataclass(frozen=True)
class CoordinateChange:
    """Essentialization data: new forms live on the span of the old ones.

    `basis` holds the integer echelon rows (`linalg.echelon`) of the forms'
    primitive rows; a form in their span maps to its coefficients at the
    pivot columns, onto which the span projects bijectively.
    """

    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def map_form(self, form: LinearForm) -> LinearForm:
        if rank([*self.basis, form.primitive]) != len(self.basis):
            raise ArrangementError("form does not lie in the essential span")
        return LinearForm([form.coeffs[p] for p in self.pivots])


def essentialize(ma: Multiarrangement) -> tuple[Multiarrangement, CoordinateChange]:
    """Rewrite a multiarrangement on the span of its forms.

    The derivation module of the result matches the original in every degree;
    the original just carries rank-many extra free directions (extra exponent
    zeros).
    """
    ess, rows, pivots = ma.arrangement._essential
    return ess.with_multiplicity(ma.mult), CoordinateChange(rows, pivots)


def irreducible_component_count(a: Arrangement) -> int:
    """Number of irreducible factors, read as dim D(A)_1 for essential A."""
    if not is_essential(a):
        raise ArrangementError("irreducible_component_count needs an essential arrangement")
    from .graded import graded_dimension

    return graded_dimension(a.simple(), 1)


# -- catalog ---------------------------------------------------------------

_CATALOG_CACHE_LIMIT = 32
# the parameters each catalog entry takes; the others take none
_CATALOG_PARAMS = {"fan2d": ("h", "slopes"), "maehara4": ("t",)}


def _forms(nvars: int, *rows: Sequence[Scalar]) -> Arrangement:
    return Arrangement(nvars, [LinearForm(r) for r in rows])


def catalog(name: str, mult: Sequence[int] | None = None, **params) -> Multiarrangement:
    """Named arrangements; multiplicities default to all ones.

    fan2d takes a positive integer `h` and `slopes` (h distinct rationals, a
    single one as a bare value); maehara4 takes a rational slope `t` (default
    7/3) standing in for a generic slope.  A rational is any non-bool value
    `Fraction` takes, such as 2 or "7/3"; any other key or value raises
    ArrangementError.
    Equal (name, params) share one `Arrangement`, so repeated calls reuse its
    cached rank and hash and find its graded engine by identity.
    """
    arr = _catalog_arrangement(name, _freeze_params(name, params))
    if mult is None:
        mult = ones(len(arr))
    return arr.with_multiplicity(mult)


def _rational_param(key: str, value) -> Fraction:
    if not isinstance(value, bool):
        try:
            return _frac(value)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise ArrangementError(f"catalog parameter {key} must be a rational number, got {value!r}")


def _freeze_params(name: str, params: dict) -> tuple:
    """The parameters as sorted (key, Fraction or tuple of Fractions) pairs."""
    frozen = []
    for key, value in sorted(params.items()):
        if key not in _CATALOG_PARAMS.get(name, ()):
            raise ArrangementError(f"catalog entry {name!r} takes no parameter {key!r}")
        if key == "slopes":
            values = value if isinstance(value, (tuple, list)) else (value,)
            frozen.append((key, tuple(_rational_param(key, v) for v in values)))
        else:
            frozen.append((key, _rational_param(key, value)))
    return tuple(frozen)


@lru_cache(maxsize=_CATALOG_CACHE_LIMIT)
def _catalog_arrangement(name: str, frozen_params: tuple) -> Arrangement:
    params = dict(frozen_params)
    if name == "A2":
        arr = _forms(2, (1, 0), (0, 1), (1, -1))
    elif name == "B2":
        arr = _forms(2, (1, 0), (0, 1), (1, -1), (1, 1))
    elif name == "A3":
        # braid on 4 coordinates made essential via x = x1-x4, y = x2-x4,
        # z = x3-x4; order matches (x1-x2, x1-x3, x1-x4, x2-x3, x2-x4, x3-x4)
        arr = _forms(3, (1, -1, 0), (1, 0, -1), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 0, 1))
    elif name == "B3":
        arr = _forms(
            3,
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0),
            (0, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1),
        )
    elif name == "deletedA3":
        arr = _forms(3, (0, 1, -1), (0, 1, 0), (1, -1, 0), (1, 0, 0), (1, 0, -1))
    elif name == "X3":
        arr = _forms(3, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    elif name == "fan2d":
        h = params.get("h", 0)
        slopes = params.get("slopes", ())
        if h <= 0 or h.denominator != 1 or len(slopes) != h:
            raise ArrangementError("fan2d needs a positive integer h and exactly h slopes")
        if len(set(slopes)) != h:
            raise ArrangementError("fan2d slopes must be distinct")
        rows: list[tuple[Scalar, ...]] = [(1, 0, 0), (0, 1, 0), (1, -1, 0)]
        rows += [(-s, 0, 1) for s in slopes]
        arr = _forms(3, *rows)
    elif name == "maehara4":
        t = params.get("t", Fraction(7, 3))
        if t == 0 or t == 1:
            raise ArrangementError("maehara4 slope must avoid 0 and 1")
        arr = _forms(2, (1, 0), (0, 1), (1, -1), (1, -t))
    else:
        raise ArrangementError(f"unknown catalog name {name!r}")
    return arr


def catalog_filtration(name: str, **params):
    """The standard supersolvable filtration shipped with a catalog entry."""
    from .multirestrict import Filtration

    if name == "deletedA3":
        # {x} in {x, y, x-y} in all, on form order (y-z, y, x-y, x, x-z)
        levels = ((3,), (1, 2, 3), (0, 1, 2, 3, 4))
    elif name == "deletedA3-alt":
        # {x-y} in {x-y, x-z, y-z} in all
        levels = ((2,), (0, 2, 4), (0, 1, 2, 3, 4))
    elif name == "A3":
        levels = ((0,), (0, 1, 3), (0, 1, 2, 3, 4, 5))
    elif name == "B3":
        levels = ((0,), (0, 1, 2, 3), tuple(range(9)))
    elif name == "fan2d":
        levels = ((0,), (0, 1, 2), tuple(range(len(catalog(name, **params).forms))))
    else:
        raise ArrangementError(f"no filtration shipped for catalog name {name!r}")
    ma = catalog(name, **params) if name != "deletedA3-alt" else catalog("deletedA3")
    return Filtration(ma.arrangement, levels)


# -- JSON ------------------------------------------------------------------


def _scalar_to_json(c: Fraction):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _scalar_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise ArrangementError("boolean is not a coefficient")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ArrangementError(f"bad rational value {v!r}")


def multiarrangement_to_dict(ma: Multiarrangement) -> dict:
    return {
        "variables": list(variable_names(ma.nvars)),
        "hyperplanes": [
            {"form": [_scalar_to_json(c) for c in f.coeffs], "multiplicity": m}
            for f, m in zip(ma.forms, ma.mult)
        ],
    }


def multiarrangement_from_dict(data: dict) -> Multiarrangement:
    try:
        variables = data["variables"]
        hyperplanes = data["hyperplanes"]
    except (KeyError, TypeError) as exc:
        raise ArrangementError("expected keys 'variables' and 'hyperplanes'") from exc
    if not isinstance(variables, (list, tuple)) or not isinstance(hyperplanes, (list, tuple)):
        raise ArrangementError("'variables' and 'hyperplanes' must be lists")
    nvars = len(variables)
    forms = []
    mult = []
    for h in hyperplanes:
        if not isinstance(h, dict) or not isinstance(h.get("form"), (list, tuple)):
            raise ArrangementError(
                f"each hyperplane must be an object with a 'form' list, got {h!r}"
            )
        coeffs = [_scalar_from_json(v) for v in h["form"]]
        if len(coeffs) != nvars:
            raise ArrangementError("form length does not match variable count")
        forms.append(LinearForm(coeffs))
        m = h.get("multiplicity", 1)
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise ArrangementError("multiplicity must be a nonnegative integer")
        mult.append(m)
    return Arrangement(nvars, forms).with_multiplicity(mult)


def load_multiarrangement(path: str) -> Multiarrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return multiarrangement_from_dict(json.load(fh))


def dump_multiarrangement(ma: Multiarrangement, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(multiarrangement_to_dict(ma), fh, indent=2)
        fh.write("\n")
