"""multider benchmark: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and bench/design.json for why each was chosen):
  cold-query     seven CLI queries, each a fresh `python3 -m multider.cli` process
  rank2-lattice  every B2 delta with |m| <= 10, then one walk per component start
  sweep-x3       run_sweep on X3, m_i in 1..13, |m| <= 14, dedupe, jobs=1

All are closed loops with one client.  Every pass runs in a fresh interpreter,
so no module cache survives between passes; at least two passes run, and
more while another fits in --seconds.  --trace 0 measures the end-to-end metrics with
nothing patched.  --trace 1 runs one untraced and one traced pass and reports
the per-layer metrics, including the tracing overhead.  Every operation of
every pass is checked by bench/oracle.py.

Each metric is printed by name with its unit; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

--self-test feeds corrupted outputs to the oracle and exits 0 only if each
one is caught (error_rate > 0) and the recorded outputs pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s, children included
PY = sys.executable


class BenchError(Exception):
    pass


class Pass(NamedTuple):
    wall: float  # s, from the first operation's start to the last one's end
    setup: float | None  # s, from spawn to the first operation (warm workloads)
    ops: list  # (seconds, oracle problems) per operation, in input order
    traces: tuple  # (span files, {operation id: traced seconds} per file)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = child_env()

    def _spawn(self, cmd) -> tuple[subprocess.CompletedProcess, float, float]:
        """Run a child to completion; returns it, its spawn time and duration."""
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("out of time for this run")
        start = time.perf_counter()
        try:
            proc = subprocess.run([PY, *cmd], cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded the run's time limit: {cmd}") from exc
        return proc, start, time.perf_counter() - start

    def cold_pass(self, trace: bool) -> Pass:
        ops, files, walls = [], [], []
        start = time.perf_counter()
        for i, (argv, _) in enumerate(workloads.cold_queries(self.seed)):
            if trace:
                path = OUT / f"cold-query-{i}.json"
                cmd = [str(HERE / "traced_cli.py"), str(path), *argv]
            else:
                cmd = ["-m", "multider.cli", *argv]
            proc, _, took = self._spawn(cmd)
            ops.append((took, oracle.check_query(argv, proc.returncode, proc.stdout)))
            if trace:
                files.append(str(path))
                walls.append({0: took})
        return Pass(time.perf_counter() - start, None, ops, (files, walls))

    def warm_pass(self, trace: bool, setup_only: bool = False) -> Pass:
        cmd = [str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        path = OUT / f"{self.workload}.json"
        if trace:
            cmd += ["--trace", str(path)]
        if setup_only:
            cmd.append("--setup-only")
        proc, spawned, _ = self._spawn(cmd)
        if proc.returncode != 0:
            raise BenchError(f"worker failed:\n{proc.stderr.decode(errors='replace')}")
        out = json.loads(proc.stdout.decode().splitlines()[-1])
        results = [(kind, m, result) for kind, m, result, _ in out["ops"]]
        if self.workload == "sweep-x3":
            checks = [oracle.check_sweep_tsv(r) if isinstance(r, str) else [f"raised {r}"]
                      for _, _, r in results]
        else:
            found = oracle.check_rank2(results)
            checks = [found[i] for i in range(len(results))]
        ops = [(took, problems) for (_, _, _, took), problems in zip(out["ops"], checks)]
        walls = [{i: took for i, (_, _, _, took) in enumerate(out["ops"])}]
        return Pass(out["wall"], out["first_op"] - spawned, ops, ([str(path)], walls))

    def run_pass(self, trace: bool = False) -> Pass:
        if self.workload == "cold-query":
            return self.cold_pass(trace)
        return self.warm_pass(trace)

    def setup_probe(self) -> float:
        if self.workload == "cold-query":
            proc, _, took = self._spawn(["-c", "import multider"])
            if proc.returncode != 0:
                raise BenchError(proc.stderr.decode(errors="replace"))
            return took
        return self.warm_pass(False, setup_only=True).setup


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With fewer than eleven samples no such percentile exists and the median
    stands in, so that cold-query (7 operations) and sweep-x3 (1) still
    report the metric; only rank2-lattice has a tail to resolve.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _tally(passes) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for p in passes:
        for _, problems in p.ops:
            attempted += 1
            if problems:
                failed += 1
                messages.extend(problems)
    return attempted, failed, messages


def end_to_end(runner: Runner, seconds: float):
    """At least two passes, then more while another one fits in `seconds`
    (plus a tenth).

    Each operation's time is its median over the passes, which damps a
    slowdown that hit one pass; wall_s sums these medians over the input
    set, and the operation metrics are taken over them.
    """
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + passes[-1].wall <= 1.1 * seconds:
        passes.append(runner.run_pass())
    setups += [p.setup for p in passes if p.setup is not None]
    op_times = [statistics.median(took) for took in zip(*([t for t, _ in p.ops] for p in passes))]
    tail_value, pct, n = tail(op_times)
    metrics = {
        "wall_s": (sum(op_times), "s"),
        "op_p50_ms": (1000 * statistics.median(op_times), "ms"),
        "op_tail_ms": (1000 * tail_value, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "wall_s": f"{len(passes)} passes of " + ", ".join(f"{p.wall:.3f}" for p in passes) + " s",
        "op_tail_ms": f"p{pct:.1f} of {n} operations",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    return passes, metrics, notes


def per_layer(runner: Runner):
    OUT.mkdir(exist_ok=True)
    plain = runner.run_pass(trace=False)
    traced = runner.run_pass(trace=True)
    values = spans.summarize(*traced.traces)
    values["trace_overhead_s"] = traced.wall - plain.wall
    units = {name: unit for name, unit, _ in spans.per_layer_metrics()}
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    notes = {"trace_overhead_s": f"traced pass {traced.wall:.3f} s, untraced pass {plain.wall:.3f} s"}
    return [plain, traced], metrics, notes


def self_test() -> int:
    """Feed recorded and corrupted outputs to the oracle; all must be judged right."""
    cases = []
    argv, code = workloads.cold_queries(0)[-1]
    proc = subprocess.run([PY, "-m", "multider.cli", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=120)
    good = proc.stdout
    bad = good.replace(b'"degree": ', b'"degree": 1', 1)
    cases += [("cold-query recorded", [oracle.check_query(argv, proc.returncode, good)], False),
              ("cold-query corrupted report", [oracle.check_query(argv, proc.returncode, bad)], True),
              ("cold-query wrong exit code", [oracle.check_query(argv, 1 - code, good)], True)]

    want = oracle.expected_rank2()
    recorded = [[kind, list(m), want[kind][m]] for kind, m in workloads.rank2_ops(0, want["delta"])]
    i = next(i for i, (kind, m, _) in enumerate(recorded) if kind == "delta" and sum(m) == 7)
    j = next(j for j, (kind, _, _) in enumerate(recorded) if kind == "walk")
    corrupt_delta = [list(op) for op in recorded]
    d1, d2 = recorded[i][2]
    corrupt_delta[i][2] = [d1 + 1, d2 - 1]
    corrupt_walk = [list(op) for op in recorded]
    corrupt_walk[j][2] = list(recorded[j][2])
    corrupt_walk[j][2][4] += 1  # the walk's distance
    for label, data, broken in (("rank2 recorded", recorded, False),
                                ("rank2 corrupted delta", corrupt_delta, True),
                                ("rank2 corrupted walk", corrupt_walk, True)):
        found = oracle.check_rank2(data)
        cases.append((label, [found[k] for k in range(len(data))], broken))

    tsv = oracle.expected_sweep_tsv()
    lines = tsv.splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if line.split("\t")[7] == "1")
    cells = lines[k].split("\t")
    cells[7] = "0"
    corrupted = "".join(lines[:k] + ["\t".join(cells)] + lines[k + 1:])
    cases += [("sweep-x3 recorded", [oracle.check_sweep_tsv(tsv)], False),
              ("sweep-x3 corrupted row", [oracle.check_sweep_tsv(corrupted)], True)]

    ok = True
    for label, problems, broken in cases:
        rate = sum(1 for p in problems if p) / len(problems)
        right = (rate > 0) == broken
        ok &= right
        print(f"{'ok  ' if right else 'FAIL'} {label}: error_rate {rate:.4f}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "multider" / "__init__.py").is_file():
        print(f"no multider sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            passes, metrics, notes = per_layer(runner)
        else:
            passes, metrics, notes = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = _tally(passes)
    for message in sorted(set(messages))[:20]:
        print(f"oracle: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
