"""Grid sweeps over multiplicity space with deterministic parallel reports.

A sweep fixes a catalog arrangement, assigns every hyperplane a finite
multiplicity range, and evaluates freeness / exponents / universality on each
grid point.  Rows are independent, so they fan out over a process pool, but
the emitted table is always in grid order with per-row seeds derived from the
base seed and the multiplicity alone — identical input and seed give
byte-identical output at any parallelism width.

The optional symmetry dedupe keeps one representative per orbit of the
arrangement's linear automorphisms acting on hyperplane indices; isomorphic
multiarrangements share every verdict computed here, so dropping
non-canonical grid points loses nothing.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from itertools import combinations, permutations, product
from multiprocessing import get_context
from typing import Iterator

from .arrangement import Arrangement, Multiarrangement, catalog
from .errors import ArrangementError
from .linalg import _normalize, rref
from .logder import DEFAULT_SEED, find_free_basis, find_universal

__all__ = [
    "PREDICATES",
    "SweepRow",
    "parse_ranges",
    "index_symmetries",
    "orbit_canonical",
    "evaluate_point",
    "run_sweep",
    "format_tsv",
]

PREDICATES = ("free", "exponents", "universal")


def parse_ranges(spec: str) -> list[tuple[str, range]]:
    """Parse "a=1..4,b=2,..." into named inclusive integer ranges."""
    out: list[tuple[str, range]] = []
    for piece in spec.split(","):
        name, _, value = piece.partition("=")
        name = name.strip()
        if not name or not value:
            raise ArrangementError(f"bad range entry {piece!r}; expected name=lo..hi")
        lo, sep, hi = value.partition("..")
        try:
            low = int(lo)
            high = int(hi) if sep else low
        except ValueError as exc:
            raise ArrangementError(f"bad range bounds in {piece!r}") from exc
        if low < 0 or high < low:
            raise ArrangementError(f"empty or negative range in {piece!r}")
        out.append((name, range(low, high + 1)))
    return out


# -- hyperplane symmetries -------------------------------------------------


def _frame_coordinates(a: Arrangement, frame: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """Every form's projective coordinates in an ordered frame, or None if it is not one.

    With B the first l forms of `frame` as columns, `rref` of [B | forms] is
    d [I | B^-1 forms], so its columns l.. are each form f's Cramer minors
    v = c B^-1 f, integers for the common scale c = d = +-det B; w, the minors
    of the last frame form (the unit), are the signed maximal minors of
    [B | unit].  The tuple is a frame (every l of its forms independent)
    iff det B != 0 and every w_j != 0, and f then has coordinates v_j / w_j
    up to scale, stored as v_j * prod(w) / w_j made primitive.
    """
    l = a.nvars
    prims = [f.primitive for f in a.forms]
    reduced, pivots, _ = rref(list(zip(*(prims[i] for i in frame[:l]), *prims)))
    if pivots != list(range(l)):
        return None
    minors = list(zip(*(row[l:] for row in reduced)))
    w = minors[frame[l]]
    if not all(w):
        return None
    total = math.prod(w)
    return [tuple(_normalize([v_j * (total // w_j) for v_j, w_j in zip(v, w)])) for v in minors]


def index_symmetries(a: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Hyperplane permutations induced by invertible linear substitutions.

    A projective frame (l+1 forms, every l independent) pins any linear map
    down to one scalar: the map sending a fixed base frame to an ordered
    target frame sends the form with coordinates c in the base frame to the
    form with coordinates c in the target frame (`_frame_coordinates`,
    integer projective coordinates).  A permutation pi is therefore kept
    when some ordered target frame gives each form pi(k) the base-frame
    coordinates of form k.  The search is complete whenever a frame exists;
    without one only the identity is reported, which keeps dedupe sound,
    just coarser.  Arrangements of l independent forms take the shortcut:
    every permutation is realizable diagonally.
    """
    n, l = len(a.forms), a.nvars
    identity = tuple(range(n))
    if a.rank() < l:
        return (identity,)
    if n == l:
        return tuple(sorted(permutations(range(n))))
    frames = (_frame_coordinates(a, frame) for frame in combinations(range(n), l + 1))
    base = next((coords for coords in frames if coords is not None), None)
    if base is None:
        return (identity,)
    found = {identity}
    for targets in permutations(range(n), l + 1):
        coords = _frame_coordinates(a, targets)
        if coords is None:
            continue
        image = {c: j for j, c in enumerate(coords)}
        perm = tuple(image.get(c) for c in base)
        if None not in perm:
            found.add(perm)
    return tuple(sorted(found))


def orbit_canonical(mult: tuple[int, ...], group) -> tuple[int, ...]:
    """Lexicographically smallest multiplicity in the symmetry orbit."""
    return min(tuple(mult[p] for p in perm) for perm in group)


# -- row evaluation --------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    mult: tuple[int, ...]
    seed: int
    free: bool | None
    exponents: tuple[int, ...] | None
    universal_degree: int | None


def row_seed(base_seed: int, mult: tuple[int, ...]) -> int:
    tag = f"{base_seed}|{','.join(str(v) for v in mult)}"
    return zlib.crc32(tag.encode("ascii")) & 0x7FFFFFFF


def evaluate_point(ma: Multiarrangement, predicates, seed: int) -> SweepRow:
    """One row; a freeness certificate, when computed, gates the universality test.

    The gradients of a universal derivation are a basis of D(A, m) of equal
    degrees, so a row that is not free with all-equal exponents has none.
    """
    cert = free = exps = None
    if "free" in predicates or "exponents" in predicates:
        cert = find_free_basis(ma, seed=seed)
        free = cert.free
        exps = cert.exponents
    degree = None
    if "universal" in predicates and (cert is None or (cert.free and len(set(cert.exponents)) == 1)):
        theta = find_universal(ma)
        if theta is not None:
            degree = theta.homogeneous_degree()
    return SweepRow(tuple(ma.mult), seed, free, exps, degree)


def _eval_task(args) -> SweepRow:
    name, params, mult, predicates, seed = args
    ma = catalog(name, mult, **dict(params))
    return evaluate_point(ma, predicates, seed)


def grid_points(ranges: list[range], max_total: int | None = None) -> Iterator[tuple[int, ...]]:
    """Points of the box with sum <= max_total, in grid order (last index fastest).

    A prefix is dropped once its sum plus the minimums of the remaining ranges
    exceeds max_total, so the cost follows the points kept, not the box.
    """
    if max_total is None:
        yield from product(*ranges)
        return
    if not all(ranges):
        return
    floors = [0] * (len(ranges) + 1)
    for i in range(len(ranges) - 1, -1, -1):
        floors[i] = floors[i + 1] + min(ranges[i])

    def extend(prefix: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
        i = len(prefix)
        if i == len(ranges):
            yield prefix
            return
        for v in ranges[i]:
            if total + v + floors[i + 1] <= max_total:
                yield from extend(prefix + (v,), total + v)

    yield from extend((), 0)


def run_sweep(
    name: str,
    ranges: list[tuple[str, range]],
    predicates=PREDICATES,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    max_total: int | None = None,
    dedupe: bool = False,
    params: dict | None = None,
) -> list[SweepRow]:
    """Evaluate every grid point; rows come back in grid order.

    Rows go to min(jobs, rows, CPUs) "spawn" workers (serially for 1), which
    start from a fresh import (fork is unsafe in a process with threads), so a
    script calling this must do so under `if __name__ == "__main__":`.
    """
    params = params or {}
    if not predicates:
        raise ArrangementError("a sweep needs at least one predicate")
    for p in predicates:
        if p not in PREDICATES:
            raise ArrangementError(f"unknown predicate {p!r}")
    probe = catalog(name, **params)
    if len(ranges) != len(probe.forms):
        raise ArrangementError(
            f"{len(probe.forms)} hyperplanes need {len(probe.forms)} ranges, got {len(ranges)}"
        )
    group = index_symmetries(probe.arrangement) if dedupe else None
    grid = []
    for mult in grid_points([r for _, r in ranges], max_total):
        if group is not None and orbit_canonical(mult, group) != mult:
            continue
        grid.append(mult)
    frozen_params = tuple(sorted(params.items()))
    tasks = [(name, frozen_params, mult, tuple(predicates), row_seed(seed, mult))
             for mult in grid]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_eval_task(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 8))
    with get_context("spawn").Pool(workers) as pool:
        return list(pool.imap(_eval_task, tasks, chunksize=chunk))


def format_tsv(names: list[str], predicates, rows: list[SweepRow]) -> str:
    """One row per grid point, grid order, stable header."""
    cols = list(names) + ["total"]
    if "free" in predicates:
        cols.append("free")
    if "exponents" in predicates:
        cols.append("exponents")
    if "universal" in predicates:
        cols.append("universal_degree")
    cols.append("seed")
    lines = ["\t".join(cols)]
    for row in rows:
        cells = [str(v) for v in row.mult] + [str(sum(row.mult))]
        if "free" in predicates:
            cells.append("1" if row.free else "0")
        if "exponents" in predicates:
            cells.append(",".join(str(d) for d in row.exponents) if row.exponents else "-")
        if "universal" in predicates:
            cells.append(str(row.universal_degree) if row.universal_degree is not None else "-")
        cells.append(str(row.seed))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
