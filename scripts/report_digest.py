#!/usr/bin/env python3
"""One sha256 over the reports of a benchmark pool's first cases.

Builds the pool that ``perfbench/run.py`` runs for a workload and seed,
runs the operations of its first N cases (all of them unless ``--cases``
says otherwise) in-process, in run order, sets each report's
``wall_time_s`` to 0 and prints the sha256 of their stdout.  Two source
trees that print the same digest printed the same reports, so a change
meant to keep every output can be checked against its parent:

    python3 scripts/report_digest.py --workload nerve-extract --seed 1
    python3 scripts/report_digest.py --workload nerve-extract --seed 1 --src ../parent/src

The input files are written to a temporary directory, and named relative
to it, so the reports do not depend on where the script runs.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WALL_TIME, run_ops  # noqa: E402
from workloads import FULL_CASES, TOY_CASES, WORKLOADS, make_pool  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cases", type=int, help="default: every case of the pool")
    ap.add_argument("--toy", action="store_true", help="the pool of the benchmark's --smoke run")
    ap.add_argument("--src", default=str(ROOT / "src"), help="the cliquecert sources to run")
    args = ap.parse_args()

    if args.cases is None:
        args.cases = (TOY_CASES if args.toy else FULL_CASES)[args.workload]
    if args.cases < 1:
        ap.error(f"--cases must be >= 1, got {args.cases}")
    sys.path.insert(0, str(Path(args.src).resolve()))
    import cliquecert.cli as cli

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        pool = make_pool(args.workload, args.seed, "cases", toy=args.toy)
        results, _ = run_ops(cli, pool.case_ops(args.cases))
    for r in results:
        digest.update(WALL_TIME.sub('"wall_time_s": 0', r.text).encode())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
