"""Run the benchmark over several seeds and summarize each metric.

Usage: python3 bench/stats.py --workloads cold-query,sweep-x3 --seeds 1-10 [--trace-seed N] [--out FILE]

For every workload, runs `bench/run.py` once per seed with BENCHMARK.json's
run_seconds, then prints each end-to-end metric's median, quartiles (as
statistics.quantiles(values, n=4) gives them) and spread, the quartile
distance as a share of the median, against a third of the metric's bound.
With --trace-seed one traced run per workload is added.  --out writes all of
it as JSON; bench/baseline.json is that output with a note on where it was
measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, spec["run_seconds"], 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        entry = {"seeds": _seeds(args.seeds), "end_to_end": {}}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            entry["end_to_end"][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                         "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {name:12s} median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:.3f} (bound/3 {bounds[name] / 3:.3f}) {flag}", flush=True)
        if args.trace_seed is not None:
            traced = _run(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": {
                name: m["value"] for name, m in traced["metrics"].items()}}
        report[workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
