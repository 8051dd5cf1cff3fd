#!/usr/bin/env python3
"""Observed gaps between box families and the optimal intersection bound.

For seeded random families across a range of box sizes, records the exact
nerve density, the exact maximum intersecting subfamily (a maximum clique of
the pairwise-intersection graph, since boxes have Helly number 2), and the
pipeline's extracted subfamily, against kalai_bound(alpha, d) * n.  Box
nerves are not expected to be tight against the bound; the gaps are
recorded as data.

Usage: python3 scripts/helly_experiment.py [--n 20] [--d 1] [--families 30]
       [--seed 0]

An argument the library rejects (a family of fewer than d+2 boxes, n or d
below 1) or a --families below 1 prints one "error:" line and exits 2.
"""

import argparse
import sys

from cliquecert import (
    build_nerve,
    fractional_helly_pipeline,
    kalai_bound,
    max_clique,
    random_box_family,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--families", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if args.families < 1:
        print(f"error: --families must be >= 1, got {args.families}", file=sys.stderr)
        return 2
    try:
        # The library checks n and d, which every family shares, so one
        # family checks them all before the header is printed.
        build_nerve(random_box_family(args.n, args.d, args.seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = f"{'seed':>5} {'side':>5} {'alpha':>10} {'kalai*n':>9} {'exact':>6} {'pipeline':>9}"
    print(header)
    print("-" * len(header))
    for side in (10, 25, 40, 60):
        for i in range(args.families):
            seed = args.seed + i
            fam = random_box_family(args.n, args.d, seed, max_side=side)
            nerve = build_nerve(fam)
            alpha = nerve.edge_density()
            target = kalai_bound(float(alpha), args.d) * args.n
            best = len(max_clique(fam.intersection_graph))
            out = fractional_helly_pipeline(fam)
            print(
                f"{seed:>5} {side:>5} {float(alpha):>10.4f} {target:>9.2f} "
                f"{best:>6} {len(out.indices):>9}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
