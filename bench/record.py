"""Record the reference outputs the oracle compares against.

Run once on the commit that defines the benchmark:  python3 bench/record.py
It writes bench/expected.json (exit code and stdout sha256 of every query any
seed can draw; every rank-2 delta and walk result) and bench/sweep-x3.tsv.
Re-recording on a later commit would make the oracle bless that commit's
output, so this is not part of a benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, PY, ROOT, child_env
from worker import rank2_call, sweep_call
import multider
import oracle
import workloads


def main() -> int:
    cold = {}
    for argv, code in workloads.all_cold_queries():
        proc = subprocess.run([PY, "-m", "multider.cli", *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=300)
        if proc.returncode != code:
            print(f"{argv}: exit {proc.returncode}, expected {code}", file=sys.stderr)
            return 1
        cold[" ".join(argv)] = {"exit": code, "sha256": oracle.sha256(proc.stdout)}
    name = workloads.RANK2_NAME
    deltas = {m: rank2_call("delta", multider.catalog(name, m)) for m in workloads.rank2_grid()}
    walk_starts = [m for kind, m in workloads.rank2_ops(0, deltas) if kind == "walk"]
    walks = {m: rank2_call("walk", multider.catalog(name, m)) for m in walk_starts}
    data = {
        "cold-query": cold,
        "rank2-lattice": {"delta": {oracle.key(m): r for m, r in deltas.items()},
                          "walk": {oracle.key(m): r for m, r in walks.items()}},
    }
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    (HERE / "sweep-x3.tsv").write_text(sweep_call(workloads.SWEEP_X3), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
