"""Spans around multider's layer boundaries, installed from outside the package.

A `from module import name` binds a second reference to a function, so each
boundary is replaced in every multider namespace that holds it, not only in
the module that defines it: `find_free_basis` is wrapped in logder, rank2,
sweep, cli and multirestrict alike.  Spans are flat records kept in memory
(name, start, end, parent, operation id) and written out once, at the end of
the traced process.  `summarize` turns span files into per-layer metrics.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

# (span name, module defining the function, its name there)
BOUNDARIES = (
    ("cli.main", "cli", "main"),
    ("cli.derivation_to_dict", "logder", "derivation_to_dict"),
    ("sweep.run_sweep", "sweep", "run_sweep"),
    ("sweep.index_symmetries", "sweep", "index_symmetries"),
    ("sweep.orbit_canonical", "sweep", "orbit_canonical"),
    ("sweep.evaluate_point", "sweep", "evaluate_point"),
    ("rank2.delta", "rank2", "delta"),
    ("rank2.classify_component", "rank2", "classify_component"),
    ("logder.find_free_basis", "logder", "find_free_basis"),
    ("logder.find_universal", "logder", "find_universal"),
    ("logder.is_k_critical", "logder", "is_k_critical"),
    ("logder.is_universal", "logder", "is_universal"),
    ("logder.graded_piece", "logder", "graded_piece"),
    ("logder.saito_check", "logder", "saito_check"),
    ("logder.membership", "logder", "membership"),
    ("logder.saito_determinant", "logder", "saito_determinant"),
    ("graded.graded_dimension", "graded", "graded_dimension"),
    ("graded.graded_basis_vectors", "graded", "graded_basis_vectors"),
    ("graded.hilbert_dims", "graded", "hilbert_dims"),
    ("linalg.kernel_mod", "linalg", "kernel_mod"),
    ("linalg.lift_residue_vector", "linalg", "lift_residue_vector"),
    ("linalg.primitive_integer_vector", "linalg", "primitive_integer_vector"),
    ("linalg.crt_pair", "linalg", "crt_pair"),
    ("linalg.bareiss_kernel", "linalg", "bareiss_kernel"),
    ("polyring.divides_power", "polyring", "divides_power"),
    ("polyring.try_divide_linear", "polyring", "try_divide_linear"),
    ("polyring.determinant", "polyring", "determinant"),
    ("arrangement.defining_polynomial", "arrangement", "defining_polynomial"),
)

# One graded solve: the span that tells which kernel route ran and how often
# the graded caches missed.  Not a per-layer metric of its own.
SOLVE = ("graded.solve", "graded", "_Engine", "_solve")

DERIVED = (
    ("linalg.kernel_mod.cells", "count", "lower"),
    ("linalg.route.one_prime", "count", "higher"),
    ("linalg.route.crt", "count", "lower"),
    ("linalg.route.bareiss", "count", "lower"),
    ("graded.solves", "count", "lower"),
    ("graded.hit_ratio", "ratio", "higher"),
    ("logder.saito_share", "ratio", "lower"),
    ("logder.cert.randomized", "count", "higher"),
    ("logder.cert.exhaustive", "count", "lower"),
    ("logder.cert.refuted", "count", "lower"),
    ("sweep.points_enumerated", "count", "lower"),
    ("sweep.rows", "count", "higher"),
    ("sweep.rows_per_point", "ratio", "higher"),
    ("rank2.walk_steps", "count", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, _, _ in BOUNDARIES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    return out + list(DERIVED)


def _cert_route(tracer, args, cert) -> None:
    if not cert.free:
        route = "refuted"
    elif cert.search_log[-1].startswith("free: pure selection"):
        route = "exhaustive"
    else:
        route = "randomized"
    tracer.counts[f"logder.cert.{route}"] += 1


def _matrix_cells(tracer, args, result) -> None:
    rows, cols = args[0].shape
    tracer.counts["linalg.kernel_mod.cells"] += rows * cols


def _sweep_rows(tracer, args, rows) -> None:
    tracer.counts["sweep.rows"] += len(rows)


HOOKS = {
    "logder.find_free_basis": _cert_route,
    "linalg.kernel_mod": _matrix_cells,
    "sweep.run_sweep": _sweep_rows,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0

    def wrap(self, name: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every boundary at every call site; returns the ones missing."""
        import multider.cli  # noqa: F401  (the CLI is not imported by the package)

        modules = [m for n, m in sys.modules.items() if n == "multider" or n.startswith("multider.")]
        missing = []
        for name, home, attr in BOUNDARIES:
            original = getattr(sys.modules[f"multider.{home}"], attr, None)
            if original is None:
                missing.append(name)
                continue
            traced = self.wrap(name, original, HOOKS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        name, home, owner_name, attr = SOLVE
        owner = getattr(sys.modules[f"multider.{home}"], owner_name, None)
        method = getattr(owner, attr, None)
        if method is None:
            missing.append(name)
        else:
            setattr(owner, attr, self.wrap(name, method))
        self._count_enumeration()
        return missing

    def _count_enumeration(self) -> None:
        """Count the grid points run_sweep draws from itertools.product.

        run_sweep consumes the whole product, so the count is the size of
        the box, taken from the ranges without touching each point.
        """
        sweep = sys.modules["multider.sweep"]
        product = getattr(sweep, "product", None)
        if product is None:
            return
        counts = self.counts

        def counted_product(*iterables):
            counts["sweep.points_enumerated"] += math.prod(len(it) for it in iterables)
            return product(*iterables)

        sweep.product = counted_product

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh,
                      separators=(",", ":"))


def summarize(trace_files: list[str], op_walls: list[dict[int, float]]) -> dict[str, float]:
    """Per-layer metrics from span files and the traced wall time of each op.

    `op_walls[i]` maps the operation ids of `trace_files[i]` to their traced
    wall times.  Self time is a span's duration minus its children's; the
    time no span covers goes to `other.self_s`, so that for every operation
    the self times add up to its traced wall time.
    """
    calls: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    counts: Counter = Counter()
    routes: Counter = Counter()
    walk_steps = 0
    other = 0.0
    worst_gap = 0.0
    for path, walls in zip(trace_files, op_walls):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        counts.update(data["counts"])
        own = [end - start for _, start, end, _, _ in spans]
        kernels: Counter = Counter()
        bareiss: set = set()
        for name_id, start, end, parent, _ in spans:
            if parent < 0:
                continue
            own[parent] -= end - start
            name, parent_name = names[name_id], names[spans[parent][0]]
            if parent_name == "graded.solve" and name == "linalg.kernel_mod":
                kernels[parent] += 1
            elif parent_name == "graded.solve" and name == "linalg.bareiss_kernel":
                bareiss.add(parent)
            elif parent_name == "rank2.classify_component" and name == "rank2.delta":
                walk_steps += 1
        self_by_op: defaultdict = defaultdict(float)
        for idx, (name_id, start, end, _, op) in enumerate(spans):
            name = names[name_id]
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += own[idx]
            self_by_op[op] += own[idx]
            if name == "graded.solve":
                route = ("bareiss" if idx in bareiss else "crt" if kernels[idx] > 1
                         else "one_prime" if kernels[idx] else None)
                if route:
                    routes[route] += 1
        if set(self_by_op) - set(walls):
            raise ValueError(f"{path}: spans outside every timed operation")
        for op, wall in walls.items():
            rest = wall - self_by_op[op]
            # Spans nest inside their operation, so the uncovered rest is never
            # negative beyond clock resolution.
            worst_gap = min(worst_gap, rest)
            other += rest
    if worst_gap < -1e-3:
        raise ValueError(f"spans exceed their operation by {-worst_gap:.6f} s")
    out: dict[str, float] = {}
    for name, _, _ in BOUNDARIES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = self_s[name]
    lookups = calls["graded.graded_dimension"] + calls["graded.graded_basis_vectors"]
    solves = calls["graded.solve"]
    enumerated = counts["sweep.points_enumerated"]
    ffb = incl["logder.find_free_basis"]
    out.update({
        "linalg.kernel_mod.cells": counts["linalg.kernel_mod.cells"],
        "linalg.route.one_prime": routes["one_prime"],
        "linalg.route.crt": routes["crt"],
        "linalg.route.bareiss": routes["bareiss"],
        "graded.solves": solves,
        "graded.hit_ratio": 1 - solves / lookups if lookups else 0.0,
        "logder.saito_share": incl["logder.saito_check"] / ffb if ffb else 0.0,
        "logder.cert.randomized": counts["logder.cert.randomized"],
        "logder.cert.exhaustive": counts["logder.cert.exhaustive"],
        "logder.cert.refuted": counts["logder.cert.refuted"],
        "sweep.points_enumerated": enumerated,
        "sweep.rows": counts["sweep.rows"],
        "sweep.rows_per_point": counts["sweep.rows"] / enumerated if enumerated else 0.0,
        "rank2.walk_steps": walk_steps,
        "other.self_s": other,
    })
    return out
