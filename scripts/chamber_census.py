#!/usr/bin/env python3
"""Sweep seeded random configurations and tabulate their chamber structure.

For each model the script enumerates both chamber families independently,
checks that they agree as set families, and reports the chamber count, the
coincidence verdict and the A-D-E content of the largest support.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from k3chambers import chambers, gallery, model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", type=int, default=50)
    parser.add_argument("--max-curves", type=int, default=6)
    parser.add_argument("--density", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    t0 = time.monotonic()
    chamber_counts = Counter()
    coinciding = 0
    print("seed  curves  chambers  coincide  largest support (ADE)")
    for k in range(args.models):
        seed = args.seed + k
        n = seed % (args.max_curves + 1)
        m = gallery.random_configuration(seed, n, args.density)
        atlas = chambers.enumerate_zariski_chambers(m)
        bij = chambers.verify_bijection(atlas, chambers.enumerate_weyl_chambers(m))
        if not bij.equal:
            print("MISMATCH at seed %d: %r" % (seed, bij))
            return 1
        verdict = chambers.decompositions_coincide(m).coincide
        coinciding += verdict
        chamber_counts[len(atlas.records)] += 1
        largest = max(atlas.records, key=lambda r: (len(r.support), r.support))
        ade = ",".join(largest.ade) if largest.ade else "-"
        print("%4d  %6d  %8d  %8s  %s"
              % (seed, n, len(atlas.records), verdict, ade))

    print()
    print("chamber-count histogram: %s"
          % dict(sorted(chamber_counts.items())))
    print("coinciding decompositions: %d / %d models" % (coinciding, args.models))
    print("all Weyl/Zariski families equal; %.1fs total" % (time.monotonic() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
