"""Shared helpers: an independent graded-dimension oracle, a matrix generator and tiny utilities.

The oracle recomputes dim D(A, m)_k from first principles: the coefficients
of a candidate derivation are generic unknowns, theta(alpha_H) is rewritten
in coordinates where alpha_H becomes a variable, divisibility by alpha_H^m
turns into vanishing of the low-order coefficients, and the dimension is
unknowns minus the rank of the stacked conditions over exact fractions.
Nothing is shared with the package's solver beyond the polynomial type, so
agreement between the two is a real check, not a tautology.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from multider import Arrangement, Multiarrangement, Poly
from multider.cache import rows_bytes, store
from multider.graded import _template_bytes
from multider.linalg import PRIMES


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance verdict lines collected during the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def stored_kind(key) -> str:
    """What a key of the shared store holds: "graded" (arrangement, m, k),
    "order" (arrangement, m) or "template" (primitive form, k)."""
    if isinstance(key[0], Arrangement):
        return "graded" if len(key) == 3 else "order"
    return "template"


def stored_sizes() -> list[int]:
    """Each stored entry's size, recomputed from its value by its kind."""
    sizes = []
    for key in store:
        value, kind = store.peek(key), stored_kind(key)
        sizes.append(_template_bytes(value[0]) if kind == "template"
                     else rows_bytes(value if kind == "graded" else value[0] + value[1]))
    return sizes


def basis_getsizeof(rows) -> int:
    """`sys.getsizeof` of a tuple of integer tuples and everything in it but
    the integers -5..256, which CPython shares rather than allocates."""
    return sys.getsizeof(rows) + sum(sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row if not -5 <= v <= 256)
                                     for row in rows)


@st.composite
def sparse_mod_matrices(draw):
    """Sparse integer matrices with zero rows, unit rows and singleton chains, and a prime p.

    A chain's row i is nonzero on the chain's first i + 1 columns, so it
    becomes a singleton only once earlier waves have forced the first i.
    Entries include multiples of p, nonzero integers that vanish mod p.
    Some matrices are object arrays of Python integers beyond 2**63 with
    the same residues.  Drives `rref_mod` (tests/test_linalg.py) and the
    singleton pass `graded._drop_singletons` (tests/test_graded.py).
    """
    p = draw(st.sampled_from(PRIMES[:3]))
    ncols = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 5, p, -2 * p, p - 1, p + 1])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    chain = draw(st.permutations(range(ncols)))[: draw(st.integers(0, ncols))]
    nonzero = st.sampled_from([1, -1, 2, -3, 5, p - 1, p + 1])
    for i in range(len(chain)):
        row = [0] * ncols
        for c in chain[: i + 1]:
            row[c] = draw(nonzero)
        rows.append(row)
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        rows.append([int(j == c) for j in range(ncols)])
    rows = draw(st.permutations(rows))
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    if draw(st.booleans()):
        shifts = draw(st.lists(st.integers(-2**20, 2**20), min_size=matrix.size,
                               max_size=matrix.size))
        matrix = matrix.astype(object) + p * 2**63 * np.array(shifts, dtype=object).reshape(
            matrix.shape)
    return matrix, p


def monomials(nvars: int, k: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(k,)]
    out = []
    for first in range(k + 1):
        out.extend((first,) + rest for rest in monomials(nvars - 1, k - first))
    return out


def fraction_rank(rows: list[list[Fraction]]) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][c]
        mat[rank] = [v / inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def oracle_graded_dimension(ma: Multiarrangement, k: int) -> int:
    """dim D(A, m)_k by symbolic conditions and fraction elimination."""
    if k < 0:
        return 0
    l = ma.nvars
    monos = monomials(l, k)
    unknowns = [(i, mono) for i in range(l) for mono in monos]
    rows: list[list[Fraction]] = []
    for form, mult in zip(ma.forms, ma.mult):
        if mult == 0:
            continue
        pivot = next(i for i, c in enumerate(form.coeffs) if c)
        shear = [[Fraction(1 if r == c else 0) for c in range(l)] for r in range(l)]
        for j in range(l):
            if j != pivot:
                shear[pivot][j] = -form.coeffs[j]
        # after the shear, form evaluates to the pivot variable, so
        # divisibility by form^mult means pivot-degree >= mult termwise
        images = {}
        for i, mono in unknowns:
            contribution = Poly(l, {mono: form.coeffs[i]}) if form.coeffs[i] else Poly.zero(l)
            images[(i, mono)] = contribution.substitute(shear)
        targets = sorted(
            {e for image in images.values() for e in image.terms if e[pivot] < mult}
        )
        for target in targets:
            rows.append([images[u].terms.get(target, Fraction(0)) for u in unknowns])
    if not rows:
        return len(unknowns)
    return len(unknowns) - fraction_rank(rows)


@pytest.fixture
def gap_jumps(monkeypatch):
    """`plant(start)`: every multiplicity but `start` reads an order basis of degrees (0, 5), gap 5."""
    import multider.rank2

    real = multider.rank2._order_basis
    degrees_0_5 = (((1,), (0,)), ((0,) * 6, (1,) + (0,) * 5))

    def plant(start):
        monkeypatch.setattr(multider.rank2, "_order_basis",
                            lambda arrangement, mult: real(arrangement, mult) if mult == start else degrees_0_5)

    return plant


@pytest.fixture
def a2():
    from multider import catalog

    return catalog("A2")


@pytest.fixture
def b2():
    from multider import catalog

    return catalog("B2")
