#!/usr/bin/env python3
"""Count the Python bytecodes one round of a benchmark workload runs.

    python3 scripts/bytecodes.py --workload l4_check --seed 701

The workload's queries are built as `bench/run.py` builds them
(`bench/workloads.py`), one round is run untraced to warm up, and one
more round is run with `sys.settrace` opcode events on.  The script
prints the bytecodes executed inside `FormulaCompiler.compile` (the
compile walk and the closures it builds), the rest, and their sum.
The `traversal` line counts, out of that sum, the bytecodes run in the
frames of the traversal core, `syntax.fold` and `Expr.__hash__`,
themselves: the callbacks a fold runs and the field hashes a node
hash asks for are left out, so a change to the core is sized without
what it calls.
The `grounding` line counts, out of the sum too, the bytecodes run
inside `asp._ground_program` and its callees, and the `lexing`,
`smt-emit` and `smt-read` lines those inside `parser.tokenize`,
`smtlib.emit_smtlib` and `smtlib.read_script`.  Counts are of Python
bytecodes only, not of time, so they are the same on any machine for
the same Python version and source; builtins and C code count nothing.
`bench/` is read, not written.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def count_round(queries, compile_code, scoped: dict, core_codes) -> dict[str, int]:
    """The bytecodes of one round of `queries`, answers unchecked:
    `compile` inside `compile_code`'s frames, `rest` outside them,
    `traversal` in frames of `core_codes` themselves, and for each
    label of `scoped` those inside the frames of its code."""
    counts = [0, 0, 0]
    inside = dict.fromkeys(scoped, 0)
    depth = dict.fromkeys([compile_code, *scoped.values()], 0)
    labelled = list(scoped.items())

    def local(frame, event, arg):
        if event == "opcode":
            counts[depth[compile_code] == 0] += 1
            for label, code in labelled:
                if depth[code]:
                    inside[label] += 1
        elif event == "return" and frame.f_code in depth:
            depth[frame.f_code] -= 1
        return local

    def core(frame, event, arg):
        if event == "opcode":
            counts[2] += 1
        local(frame, event, arg)
        return core

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        if frame.f_code in depth:
            depth[frame.f_code] += 1
        return core if frame.f_code in core_codes else local

    sys.settrace(call)
    try:
        for q in queries:
            q.run()
    finally:
        sys.settrace(None)
    return {"compile": counts[0], "rest": counts[1], "traversal": counts[2], **inside}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    lib = bench.load_library()
    queries = workloads.build(args.workload, lib, args.seed, bench.read_cases())
    for q in queries:  # warm-up round
        q.run()
    core_codes = {lib.syntax.fold.__code__, lib.syntax.Var.__hash__.__code__}
    scoped = {
        "grounding": lib.asp._ground_program.__code__,
        "lexing": lib.parser.tokenize.__code__,
        "smt-emit": lib.smtlib.emit_smtlib.__code__,
        "smt-read": lib.smtlib.read_script.__code__,
    }
    counts = count_round(queries, lib.models.FormulaCompiler.compile.__code__, scoped, core_codes)
    counts["total"] = counts["compile"] + counts["rest"]
    print(f"workload:  {args.workload} (seed {args.seed}, {len(queries)} queries)")
    for label in ["compile", "rest", "total", "traversal", *scoped]:
        print(f"{label + ':':<10} {counts[label]:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
