#!/usr/bin/env python3
"""Sweep random configurations through both defeasibility semantics.

For each sampled configuration the answer sets of the encoding are
projected and checked against the legal-model axioms (soundness), and
the exhaustive legal-model search reports how many models the stable
reading misses (the converse gap, expected for self-supporting
models).  Unsound projections exit 1; gaps are statistics.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from normlog.asp import DEFAULT_CAP_BITS, verify_lemma4
from normlog.randgen import random_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500, help="configurations to sample")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap-bits", type=int, default=DEFAULT_CAP_BITS)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.monotonic()
    unsound = 0
    total_sets = 0
    total_models = 0
    with_gap = 0
    gap_models = 0
    for i in range(args.n):
        cfg = random_config(rng)
        rep = verify_lemma4(cfg, cap_bits=args.cap_bits)
        total_sets += rep.answer_sets
        total_models += rep.legal_models
        if not rep.sound:
            unsound += 1
            print(f"sample {i} (seed {args.seed}) UNSOUND:")
            for m, v in rep.unsound:
                print(f"  projection {m}")
                for line in v:
                    print(f"    {line}")
        if rep.uncovered:
            with_gap += 1
            gap_models += len(rep.uncovered)
    elapsed = time.monotonic() - t0

    print(f"configurations:  {args.n}")
    print(f"answer sets:     {total_sets}")
    print(f"legal models:    {total_models}")
    print(f"unsound:         {unsound}")
    print(
        f"converse gap:    {with_gap} configuration(s) with {gap_models} uncovered model(s)"
    )
    print(f"elapsed:         {elapsed:.1f}s")
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main())
