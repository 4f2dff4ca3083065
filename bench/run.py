#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload l4_check --seed 1 --seconds 20 --trace 0

Run from the root of the repository.  The library is imported from
`src/` and the worked examples are read from `cases/`.  The run sets
up nine times, then repeats whole rounds of the workload's queries
until `--seconds` have passed, checking every answer.  The last line
of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`).  The same object, the per-round
figures and, for a traced run, the spans of the first round are
written under bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from timing import clock, measure_reference, scale  # noqa: E402

MODULES = ["syntax", "parser", "typecheck", "transform", "inversion", "models",
           "smtlib", "correspond", "asp", "randgen"]
SETUPS = 9
MIN_ROUNDS = 3  # each query's time is its median over the rounds


def load_library():
    """A fresh import of normlog, as a namespace of its modules."""
    for name in [m for m in sys.modules if m == "normlog" or m.startswith("normlog.")]:
        del sys.modules[name]
    importlib.import_module("normlog")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"normlog.{m}") for m in MODULES}
    )


def read_cases() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "cases").iterdir())}


def set_up(workload: str, seed: int):
    """Import, read cases/ and build the inputs SETUPS times; keep the
    last.  Returns the library, the queries and the median set-up time."""
    times = []
    ref_before = measure_reference()
    for _ in range(SETUPS):
        gc.collect()
        c0 = clock()
        lib = load_library()
        queries = workloads.build(workload, lib, seed, read_cases())
        spent = clock() - c0
        ref_after = measure_reference()
        times.append(spent * scale(ref_before, ref_after))
        ref_before = ref_after
    return lib, queries, statistics.median(times)


class Run:
    def __init__(self, queries, tracer=None):
        self.queries = queries
        self.tracer = tracer
        # per query, one entry per round: its time in reference seconds
        # and, in a traced run, its per-layer self times and counts
        self.times: list[list[float]] = [[] for _ in queries]
        self.layers: list[list[dict]] = [[] for _ in queries]
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.first: dict[int, tuple] = {}  # query index -> (digest, reason it is wrong)
        self.encoding_bytes = 0

    def round(self) -> None:
        tracer = self.tracer
        ref_before = measure_reference()
        for i, q in enumerate(self.queries):
            mark = len(tracer.names) if tracer else 0
            if tracer:
                tracer.active = True
            error = None
            c0 = clock()
            try:
                out = q.run()
            except Exception as e:  # a failed query is counted, the run goes on
                error = f"{type(e).__name__}: {e}"
            spent = clock() - c0
            if tracer:
                tracer.active = False
            ref_after = measure_reference()
            factor = scale(ref_before, ref_after)
            ref_before = ref_after
            self.times[i].append(spent * factor)
            if tracer:
                self.layers[i].append(tracer.take_query(mark, factor))
                if self.rounds:
                    tracer.drop(mark)  # spans are kept for the first round only
            self.attempted += 1
            if error is None:
                error = self.verdict(i, q, out)
                if error is not None:
                    self.wrong += 1
            if error is not None:
                self.failed += 1
                self.errors.append(f"{q.name}: {error}")
        self.rounds += 1

    def verdict(self, i: int, q, out):
        """None when the answer is right.  The first answer to each query
        is checked in full; later rounds must repeat it exactly."""
        d = q.digest(out)
        if i not in self.first:
            reason = q.check(out)
            self.first[i] = (d, reason)
            self.encoding_bytes += q.encoding(out)
            return reason
        d0, reason = self.first[i]
        if d != d0:
            return "the answer differs from the first round's"
        return reason

    def query_times(self) -> list[float]:
        """Each query's median time over the rounds."""
        return [statistics.median(ts) for ts in self.times]

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        per_query = self.query_times()
        return {
            "setup_s": setup_s,
            "total_s": sum(per_query),
            "query_p50_s": statistics.median(per_query),
            "query_p90_s": statistics.quantiles(per_query, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "encoding_kb": self.encoding_bytes / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        """Per layer, the sum over queries of its median over rounds."""
        v: dict[str, float] = defaultdict(float)
        for q, rounds in zip(self.queries, self.layers):
            for k in tracing.LAYER_TIMES + tracing.COUNTS + ["asp.legal_found"]:
                v[k] += statistics.median([r.get(k, 0.0) for r in rounds]) + q.input_counts.get(k, 0)
        found = v.pop("asp.legal_found")
        v["asp.legal_yield"] = found / v["asp.candidates"] if v["asp.candidates"] else 0.0
        v["trace.total_s"] = sum(self.query_times())
        v["trace.untraced_s"] = v["trace.total_s"] - sum(v[k] for k in tracing.LAYER_TIMES)
        return {k: v[k] for k in tracing.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib, queries, setup_s = set_up(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(oracles.count_nodes)
        tracing.install(lib, tracer)

    run = Run(queries, tracer)
    gc.collect()
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or run.rounds < MIN_ROUNDS:
        run.round()

    metrics = run.per_layer() if args.trace else run.end_to_end(setup_s)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    for e in run.errors[:20]:
        print(f"failed: {e}", file=sys.stderr)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "rounds": run.rounds, "errors": run.errors,
              "queries": {q.name: ts for q, ts in zip(queries, run.times)}}
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
