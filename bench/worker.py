"""One pass of a warm workload in a fresh interpreter.

Usage: worker.py --workload rank2-lattice|sweep-x3 --seed N [--trace FILE] [--setup-only]

Builds the inputs, runs every operation once with multider's public API and
prints one JSON object on stdout: the perf_counter reading at the first
operation (the parent subtracts its own reading at spawn to get set-up time),
the pass wall time, and each operation's result and duration.  With --trace
the layer boundaries are wrapped first and the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import multider  # noqa: E402
from multider import rank2, sweep  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _rank2_ops(seed: int):
    ops = workloads.rank2_ops(seed, oracle.expected_rank2()["delta"])
    return [(kind, m, multider.catalog(workloads.RANK2_NAME, m)) for kind, m in ops]


def rank2_call(kind, ma):
    if kind == "delta":
        dv = rank2.delta(ma)
        return [dv.d1, dv.d2]
    c = rank2.classify_component(ma)
    return [c.infinite, c.dominant, None if c.peak is None else list(c.peak), c.peak_delta,
            c.distance, [list(p) for p in c.path]]


def sweep_call(spec):
    ranges = [(label, range(lo, hi + 1)) for label, lo, hi in spec["ranges"]]
    rows = sweep.run_sweep(spec["name"], ranges, predicates=spec["predicates"], jobs=spec["jobs"],
                           max_total=spec["max_total"], dedupe=spec["dedupe"])
    return sweep.format_tsv([label for label, _ in ranges], spec["predicates"], rows)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("rank2-lattice", "sweep-x3"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "rank2-lattice":
        ops = _rank2_ops(args.seed)
    else:
        ops = [("sweep", None, workloads.SWEEP_X3)]
    tracer = None
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"untraced boundaries (not found): {', '.join(missing)}", file=sys.stderr)
    first = time.perf_counter()
    results = []
    if not args.setup_only:
        for op_id, (kind, m, arg) in enumerate(ops):
            if tracer is not None:
                tracer.op = op_id
            start = time.perf_counter()
            try:
                result = sweep_call(arg) if kind == "sweep" else rank2_call(kind, arg)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = {"error": repr(exc)}
            results.append([kind, m, result, time.perf_counter() - start])
    wall = time.perf_counter() - first
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({"first_op": first, "wall": wall, "ops": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
