#!/usr/bin/env python3
"""Sweep random annotated modules through the model-correspondence
checker and summarize what was exercised.

The two readings of subjectTo (negated preconditions vs negated
derivability) should describe the same models.  This script samples
modules, checks transfer in both directions on every finite model, and
reports aggregate counts.  A nonzero violation count is a bug in the
transformation pipeline and makes the script exit 1.
"""

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from normlog.correspond import check_model_correspondence
from normlog.models import DEFAULT_NODE_BUDGET
from normlog.randgen import random_annotated_module


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200, help="modules to sample")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="node budget per check")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.monotonic()
    violations = 0
    models = Counter()
    rule_counts = Counter()
    for i in range(args.n):
        sample = random_annotated_module(rng)
        rule_counts[len(sample.module.rules)] += 1
        rep = check_model_correspondence(
            sample.module, sample.sizes, sample.ints, node_budget=args.budget
        )
        models["precond"] += rep.checked_precond
        models["deriv"] += rep.checked_deriv
        if rep.violations:
            violations += len(rep.violations)
            print(f"sample {i} (seed {args.seed}): {len(rep.violations)} violation(s)")
            for v in rep.violations:
                print(f"  {v.direction}: {v.formula}")
    elapsed = time.monotonic() - t0

    print(f"modules:          {args.n} (rules: {dict(sorted(rule_counts.items()))})")
    print(f"models checked:   {models['precond']} precondition-route, {models['deriv']} derivability-route")
    print(f"violations:       {violations}")
    print(f"elapsed:          {elapsed:.1f}s")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
