#!/usr/bin/env python3
"""Run a workload once per seed and report how far each metric spreads.

    python3 bench/steady.py --workloads l4_check cfg_semantics --seeds 1-10

Runs bench/run.py untraced, for the `run_seconds` of BENCHMARK.json,
one process at a time from the repository root, and prints per metric the median, the quartiles (statistics.quantiles with
n=4) and the spread: the distance between the quartiles as a share of
the median.  The table is also written to bench/results/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for w in args.workloads:
        runs = []
        for s in args.seeds:
            cmd = [*bench["command"], "--workload", w, "--seed", str(s),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        rows = {}
        print(f"{w}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"failed {[r['failed'] for r in runs]} of {[r['attempted'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:22s} median {med:11.5g}  q1 {q1:11.5g}  q3 {q3:11.5g}  "
                  f"spread {spread:7.2%}{mark}")
        summary[w] = {"correct": all(r["correct"] for r in runs),
                      "failed": [r["failed"] for r in runs],
                      "attempted": [r["attempted"] for r in runs], "metrics": rows}
    out = HERE / "results" / f"steady-{'-'.join(args.workloads)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
