#!/usr/bin/env python3
"""Empirical upper bounds on the optimal clique fraction.

Runs seeded hill climbs across a grid of clique caps, collects the verified
frontier records, and prints the alpha -> min omega/n table next to the
proved lower bounds.  Raw data only; no curves are fitted.

Usage: python3 scripts/frontier_experiment.py [--n 7] [--k 2] [--m K]
       [--iters 4000] [--restarts 3] [--seed 1]

--m defaults to --k.  The clique caps run from max(k-1, 2) to n-1.  An
argument the search rejects prints one "error:" line and exits 2.
"""

import argparse
import sys
import time

from cliquecert import HillClimbConfig, format_beta_table, hill_climb, report_beta_upper


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=7)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--m", type=int, default=None, help="defaults to --k")
    ap.add_argument("--iters", type=int, default=4000)
    ap.add_argument("--restarts", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    m = args.k if args.m is None else args.m
    caps = range(max(args.k - 1, 2), args.n)
    if not caps:
        print(f"error: no clique cap to try: --n must exceed {caps.start}", file=sys.stderr)
        return 2
    records = []
    for cap in caps:
        t0 = time.time()
        config = HillClimbConfig(
            n=args.n,
            k=args.k,
            m=m,
            omega_cap=cap,
            iterations=args.iters,
            restarts=args.restarts,
            seed=args.seed,
        )
        try:
            rec = hill_climb(config)
        except ValueError as exc:
            # Only the arguments are checked, before any climb, and every
            # cap passes the cap check, so this happens on the first cap.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        records.append(rec)
        print(
            f"cap={cap}: alpha={rec.alpha} omega/n={rec.omega_ratio} "
            f"edges={len(rec.instance.edges)} ({time.time() - t0:.1f}s)",
            file=sys.stderr,
        )

    print(format_beta_table(report_beta_upper(records)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
