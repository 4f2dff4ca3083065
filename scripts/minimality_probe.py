#!/usr/bin/env python3
"""Measure how often legal models are non-minimal or missed by the
stable reading.

Legal models tolerate self-support (an atom justified by a rule whose
only ground is that atom), stable models do not.  This probes the
shipped configurations and a random sample for three phenomena:
non-minimal legal models, legal models with no matching answer set,
and configurations where the two semantics coincide exactly.
"""

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from normlog.asp import (
    answer_sets,
    emit_asp,
    legal_models,
    minimal_only,
    parse_config,
    project_answer_set,
)
from normlog.randgen import random_config


def probe(cfg):
    """Counts of legal, minimal legal and projected stable models, and
    of the legal models that some answer set projects to."""
    lm = legal_models(cfg)
    proj = {
        (m.is_legal, m.legally_valid)
        for m in map(project_answer_set, answer_sets(emit_asp(cfg)))
    }
    covered = sum((m.is_legal, m.legally_valid) in proj for m in lm)
    return len(lm), len(minimal_only(lm)), len(proj), covered


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--random", type=int, default=300, help="random configurations to add")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("shipped configurations:")
    for path in sorted((ROOT / "cases").glob("*.cfg")):
        legal, minimal, stable, covered = probe(parse_config(path.read_text()))
        print(
            f"{path.name:<28} legal={legal:<3} minimal={minimal:<3} "
            f"stable={stable:<3} covered={covered}/{legal}"
        )

    rng = random.Random(args.seed)
    nonminimal = 0
    gapped = 0
    exact = 0
    for _ in range(args.random):
        legal, minimal, stable, covered = probe(random_config(rng))
        nonminimal += minimal < legal
        gapped += covered < legal
        exact += covered == legal == stable

    print()
    print(f"random configurations:        {args.random}")
    print(f"  with non-minimal models:    {nonminimal}")
    print(f"  with uncovered models:      {gapped}")
    print(f"  semantics coincide exactly: {exact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
