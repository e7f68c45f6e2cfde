"""Correctness oracle: every operation is checked, and any doubt is a failure.

Each check has two halves.  Invariants that hold whatever code computed the
answer (exponents sum to |m|, the rank-2 step and peak laws, the universality
degree law, the known X3 free set) and equality with the output the seed
commit recorded in expected.json and sweep-x3.tsv (the README promises
byte-identical reports).  The check functions return, per operation, a list
of problems; an operation with any problem, or one that raised, failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path

from workloads import is_balanced

HERE = Path(__file__).resolve().parent
ALGORITHM_SEED = 1729
RANK2_LINES = 4
SWEEP_FREE = {(2, 2, 2, 1, 1, 1)}
SWEEP_ROWS = 590
SWEEP_HEADER = "a b c d e f total free exponents universal_degree seed".split()


def key(m) -> str:
    return ",".join(str(v) for v in m)


@lru_cache(maxsize=None)
def _expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def expected_cold() -> dict:
    return _expected()["cold-query"]


def expected_rank2() -> dict:
    """{"delta": {m: [d1, d2]}, "walk": {m: result}}, keyed by tuples."""
    data = _expected()["rank2-lattice"]
    return {kind: {tuple(int(v) for v in k.split(",")): r for k, r in table.items()}
            for kind, table in data.items()}


def expected_sweep_tsv() -> str:
    return (HERE / "sweep-x3.tsv").read_text(encoding="utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def check_query(argv, code: int, stdout: bytes) -> list[str]:
    """One cold CLI query: exit code, recorded digest and report invariants."""
    want = expected_cold().get(" ".join(argv))
    if want is None:
        return ["no recorded output for this query"]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit code {code}, expected {want['exit']}")
    if sha256(stdout) != want["sha256"]:
        problems.append("stdout differs from the seed commit's report")
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return problems + ["stdout is not a JSON report"]
    mult = [int(v) for v in _arg(argv, "--mult").split(",")]
    if report.get("mult") != mult or report.get("seed") != ALGORITHM_SEED:
        problems.append("report does not echo the input multiplicity and seed")
    command = argv[0]
    if command == "exponents" and code == 0:
        exps = report.get("exponents") or []
        if (not report.get("free") or len(exps) != 3 or sum(exps) != sum(mult)
                or exps != sorted(exps) or len(report.get("basis") or []) != 3):
            problems.append(f"free report breaks the exponent laws: {exps}")
    elif command == "exponents":
        if report.get("free") is not False or not report.get("refutation"):
            problems.append("negative verdict without a refutation")
    elif command == "graded-dim":
        dims = report.get("dims") or []
        top = int(_arg(argv, "--max-degree"))
        # Multiplication by a linear form embeds D_k into D_{k+1}.
        if (len(dims) != top + 1 or any(b < a for a, b in zip(dims, dims[1:]))
                or any(not 0 <= d <= 3 * math.comb(k + 2, 2) for k, d in enumerate(dims))):
            problems.append("graded dimensions are not a nondecreasing sequence in range")
    elif command == "find-universal":
        theta = report.get("universal") or {}
        degree = report.get("degree")
        # A universal derivation for m has l * (deg - 1) = |m|.
        if len(theta.get("coefficients") or []) != 3 or degree is None or 3 * (degree - 1) != sum(mult):
            problems.append("universal derivation breaks the degree law")
    return problems


def _well_formed(kind, result) -> bool:
    ints = lambda values: all(isinstance(v, int) for v in values)  # noqa: E731
    if kind == "delta":
        return isinstance(result, list) and len(result) == 2 and ints(result)
    return (isinstance(result, list) and len(result) == 6 and isinstance(result[2], list)
            and ints(result[3:5]) and isinstance(result[5], list)
            and all(isinstance(p, list) for p in result[5]))


def check_rank2(ops) -> dict[int, list[str]]:
    """ops: [kind, m, result] per operation, in the order they ran."""
    want = expected_rank2()
    problems: dict[int, list[str]] = {i: [] for i in range(len(ops))}
    gaps: dict[tuple, tuple[int, int]] = {}
    for i, (kind, m, result) in enumerate(ops):
        m = tuple(m)
        if not _well_formed(kind, result):
            problems[i].append(f"no well-formed result: {result!r}")
            continue
        if result != want[kind].get(m):
            problems[i].append("differs from the seed commit's result")
        if kind != "delta":
            continue
        d1, d2 = result
        gaps[m] = (i, d2 - d1)
        if not 0 <= d1 <= d2 or d1 + d2 != sum(m):
            problems[i].append(f"exponents {result} do not split |m| = {sum(m)}")
        if is_balanced(m) and d2 - d1 > RANK2_LINES - 2:
            problems[i].append(f"balanced gap {d2 - d1} exceeds n - 2")
    for m, (_, gap) in gaps.items():
        for h in range(len(m)):
            up = tuple(v + (j == h) for j, v in enumerate(m))
            if up in gaps and abs(gaps[up][1] - gap) != 1:
                problems[gaps[up][0]].append(f"step law fails between {m} and {up}")
    for i, (kind, m, result) in enumerate(ops):
        if kind != "walk" or not _well_formed(kind, result):
            continue
        m = tuple(m)
        infinite, _, peak, peak_gap, distance, path = result
        start_gap = gaps[m][1] if m in gaps else None
        steps_ok = all(sum(abs(a - b) for a, b in zip(p, q)) == 1 for p, q in zip(path, path[1:]))
        if (infinite or not path or tuple(path[0]) != m or path[-1] != peak or not steps_ok
                or not is_balanced(peak)
                or distance != sum(abs(a - b) for a, b in zip(m, peak))
                or start_gap is None or peak_gap - distance != start_gap
                or len(path) - 1 != peak_gap - start_gap):
            problems[i].append("walk breaks the peak law: peak gap - distance = gap")
    return problems


def check_sweep_tsv(tsv: str) -> list[str]:
    """The X3 sweep table: recorded bytes, known free set, no universals."""
    problems = []
    if tsv != expected_sweep_tsv():
        problems.append("TSV differs from the seed commit's")
    lines = tsv.splitlines()
    if not lines or lines[0].split("\t") != SWEEP_HEADER:
        return problems + ["unexpected TSV header"]
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != SWEEP_ROWS:
        problems.append(f"{len(rows)} rows, expected {SWEEP_ROWS}")
    mults = []
    free = set()
    for cells in rows:
        try:
            mult = tuple(int(v) for v in cells[:6])
            total = int(cells[6])
            exponent_sum = sum(int(v) for v in cells[8].split(",")) if cells[7] == "1" else None
            universal = cells[9]
        except (ValueError, IndexError):
            problems.append(f"malformed row {cells}")
            continue
        mults.append(mult)
        if total != sum(mult) or total > 14:
            problems.append(f"row {mult} has a wrong or over-cap total")
        if exponent_sum is not None:
            free.add(mult)
            if exponent_sum != total:
                problems.append(f"free row {mult} has exponents not summing to |m|")
        if universal != "-":
            problems.append(f"row {mult} reports a universal derivation")
    if free != SWEEP_FREE:
        problems.append(f"free set {sorted(free)}, expected {sorted(SWEEP_FREE)}")
    if mults != sorted(set(mults)):
        problems.append("rows are not in grid order")
    return problems
