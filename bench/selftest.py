#!/usr/bin/env python3
"""Show that the benchmark's checks catch wrong answers.

    python3 bench/selftest.py

For each workload, one library function is wrapped so that it returns
a wrong answer: a flipped verdict, a dropped legal model, a miscounted
model, an unsound simplification.  One round of the workload then runs
in this process and must count the affected queries as failed and the
run as not correct; the same round without the fault must count none.
Exits 0 when every fault is caught.
"""

from __future__ import annotations

import dataclasses
import sys

import run as bench

SEED = 1


def flip_valid(lib):
    """check_assertion answers counter_model where the truth is valid."""
    real = lib.models.check_assertion

    def wrong(*args, **kwargs):
        out = real(*args, **kwargs)
        return dataclasses.replace(out, status="counter_model") if out.status == "valid" else out

    lib.models.check_assertion = wrong


def drop_legal_model(lib):
    """legal_models loses its last model when it finds more than one."""
    real = lib.asp.legal_models

    def wrong(*args, **kwargs):
        models = real(*args, **kwargs)
        return models[:-1] if len(models) > 1 else models

    lib.asp.legal_models = wrong


def miscount_models(lib):
    """check_model_correspondence counts one model too many on the
    derivability side."""
    real = lib.correspond.check_model_correspondence

    def wrong(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(r, checked_deriv=r.checked_deriv + 1)

    lib.correspond.check_model_correspondence = wrong


def weaken_simplify(lib):
    """simplify turns a top-level conjunction into a disjunction."""
    real = lib.transform.simplify
    And, Or = lib.syntax.And, lib.syntax.Or

    def wrong(e, inclusions=None):
        out = real(e, inclusions)
        return Or(out.left, out.right) if isinstance(out, And) else out

    lib.transform.simplify = wrong


# (workload, fault, which queries must fail: given the failed names and all names)
CASES = [
    ("l4_check", flip_valid,
     lambda failed, names: failed == [n for n in names
                                      if n.startswith(("speedlimit_repaired/", "check_valid"))]),
    ("cfg_semantics", drop_legal_model, lambda failed, names: "bob/legal" in failed),
    ("l4_correspond", miscount_models, lambda failed, names: failed == names),
    ("l4_compile", weaken_simplify,
     lambda failed, names: all(n.endswith("+simplify") for n in failed)),
]


def one_round(workload: str, fault=None):
    lib, queries, _ = bench.set_up(workload, SEED)
    if fault:
        fault(lib)
    run = bench.Run(queries)
    run.round()
    return run, [q.name for q in queries], [e.split(": ")[0] for e in run.errors]


def main() -> int:
    ok = True
    for workload, fault, must_fail in CASES:
        clean, _, _ = one_round(workload)
        run, names, failed = one_round(workload, fault)
        caught = run.failed > 0 and run.wrong == run.failed and must_fail(failed, names)
        good = clean.failed == 0 and caught
        ok = ok and good
        print(f"{workload:14s} {fault.__name__:17s} clean round: {clean.failed} failed; "
              f"with the fault: {run.failed} of {run.attempted} failed, "
              f"correct={run.wrong == 0}  {'caught' if good else 'MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
