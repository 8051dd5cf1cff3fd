"""Seeded inputs for the three workloads.

Every input is made here, by the benchmark's own generator, from the
workload seed; the program under test only sees the files written and the
command lines built.  Instance sizes come from a fixed list of slots per
workload that the cases cycle through, so the size mix is the same for
every seed and only the random boxes (or search seeds) change.  That keeps
the run-to-run spread of the end-to-end figures down.

An operation is one ``cliquecert`` command line; a case is the generated
input (box family or search configuration) that one or more operations
share.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("helly-proof", "nerve-extract", "hill-climb")

# helly-proof: (d, n, spread, max_side) per slot.  With the fixed node
# budget below, the two d=2 n=14 slots run out of budget at this commit
# (60 of 60 sampled families did) and the other eight finish their absence
# proof, so one operation in five ends EXHAUSTED.  latency_p90_s then falls
# in the middle of the EXHAUSTED operations' times.  A share near one in
# ten would put it on the edge between those and the decided ones, where
# it jumps from run to run.  Sizes sit below the 30-60 / 12-16 of the
# acceptance corpus so that a run of a few tens of seconds holds well over
# 100 operations.
HELLY_SLOTS = (
    (1, 26, 100, 40), (2, 11, 40, 30), (1, 28, 100, 40), (2, 14, 40, 30),
    (1, 30, 100, 40), (2, 12, 40, 30), (1, 32, 100, 40), (2, 14, 40, 30),
    (1, 34, 100, 40), (2, 12, 40, 30),
)
HELLY_BUDGET = 100_000
HELLY_TOY_SLOTS = ((1, 10, 100, 40), (2, 8, 40, 30), (1, 12, 100, 40), (2, 10, 40, 30))
HELLY_TOY_BUDGET = 2_000

# nerve-extract: (d, n, spread, max_side) per slot.  d=3 boxes are drawn
# denser than the others so that their nerves are not empty.  The sizes
# give every slot's `extract --m k+1` about the same cost at this commit.
# Those operations are the slowest quarter, so latency_p90_s falls inside
# one cluster of costs rather than between the costs of two slot sizes.
NERVE_SLOTS = (
    (1, 86, 100, 40), (2, 40, 100, 40), (3, 26, 30, 30),
    (1, 90, 100, 40), (2, 41, 100, 40), (3, 27, 30, 30),
    (1, 94, 100, 40), (2, 43, 100, 40), (3, 28, 30, 30),
)
NERVE_TOY_SLOTS = ((1, 16, 100, 40), (2, 10, 40, 30), (3, 8, 20, 30))

# hill-climb: (n, k, m, omega_cap, iters) per slot.
CLIMB_SLOTS = (
    (12, 2, 2, 4, 150), (9, 3, 3, 5, 150), (12, 2, 2, 4, 150), (10, 3, 3, 5, 40),
)
CLIMB_TOY_SLOTS = ((6, 2, 2, 2, 30), (6, 3, 3, 4, 30))

# Cases generated per run, whole slot cycles.  A run cycles through them,
# so these only need to exceed what a run gets through at this commit to
# keep every operation in a run distinct.
FULL_CASES = {"helly-proof": 400, "nerve-extract": 126, "hill-climb": 300}
TOY_CASES = {"helly-proof": 8, "nerve-extract": 3, "hill-climb": 4}


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``emit`` names the file a ``nerve`` operation's
    reported hypergraph is written to, for the operations after it."""

    kind: str
    argv: tuple[str, ...]
    case: int
    emit: Optional[str] = None


@dataclass
class Pool:
    """The operations of a run.  ``cycle`` is the number of operations in
    one pass through the size slots; a timed run ends on a whole number of
    passes, so every run has the same size mix."""

    workload: str
    ops: list[Op]
    cases: list[dict]
    cycle: int

    def case_ops(self, cases: int) -> list[Op]:
        """The operations of the first ``cases`` cases, in run order."""
        return [op for op in self.ops if op.case < cases]


def _boxes(rng: random.Random, d: int, n: int, spread: int, max_side: int) -> dict:
    boxes = []
    for _ in range(n):
        lo = [rng.randint(0, spread) for _ in range(d)]
        hi = [a + rng.randint(0, max_side) for a in lo]
        boxes.append({"lo": lo, "hi": hi})
    return {"d": d, "boxes": boxes}


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def make_pool(workload: str, seed: int, workdir: str, *, toy: bool = False) -> Pool:
    """Generate the cases of one workload and write their input files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    count = (TOY_CASES if toy else FULL_CASES)[workload]
    slots = {
        "helly-proof": HELLY_TOY_SLOTS if toy else HELLY_SLOTS,
        "nerve-extract": NERVE_TOY_SLOTS if toy else NERVE_SLOTS,
        "hill-climb": CLIMB_TOY_SLOTS if toy else CLIMB_SLOTS,
    }[workload]
    os.makedirs(workdir, exist_ok=True)
    ops: list[Op] = []
    cases: list[dict] = []
    if workload == "helly-proof":
        budget = str(HELLY_TOY_BUDGET if toy else HELLY_BUDGET)
        for i in range(count):
            doc = _boxes(rng, *slots[i % len(slots)])
            path = os.path.join(workdir, f"boxes{i:04d}.json")
            _write(path, doc)
            cases.append(doc)
            ops.append(Op("helly", ("helly", "--input", path, "--budget", budget), i))
    elif workload == "nerve-extract":
        for i in range(count):
            doc = _boxes(rng, *slots[i % len(slots)])
            boxes = os.path.join(workdir, f"boxes{i:04d}.json")
            nerve = os.path.join(workdir, f"nerve{i:04d}.json")
            _write(boxes, doc)
            cases.append(doc)
            k = doc["d"] + 1
            ops.append(Op("nerve", ("nerve", "--input", boxes), i, emit=nerve))
            ops.append(Op("extract", ("extract", "--input", nerve), i))
            if k == 2:
                ops.append(Op("extract", ("extract", "--input", nerve, "--algorithm", "graph"), i))
            ops.append(Op("extract", ("extract", "--input", nerve, "--m", str(k + 1)), i))
            ops.append(Op("analyze", ("analyze", "--input", nerve), i))
    else:
        for i in range(count):
            n, k, m, cap, iters = slots[i % len(slots)]
            case = {"n": n, "k": k, "m": m, "omega_cap": cap, "iters": iters,
                    "seed": rng.randrange(1 << 31)}
            cases.append(case)
            argv = ["search"]
            for key in ("n", "k", "m", "omega_cap", "iters", "seed"):
                argv += ["--" + key.replace("_", "-"), str(case[key])]
            ops.append(Op("search", tuple(argv), i))
    cycle = sum(op.case < len(slots) for op in ops)
    return Pool(workload, ops, cases, cycle)
