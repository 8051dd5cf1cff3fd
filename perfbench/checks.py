"""Output checks and pinned result fields.

The checks are written from the definitions and share no code with the
program: nerves are rebuilt by testing every (d+1)-subfamily, cliques are
checked by enumerating their k-subsets, the largest intersecting
subfamily comes from a sweep over lo corners (for boxes, the clique number
of the nerve equals it by Helly's theorem), and hill-climb records are
recomputed by enumeration.

The pinned fields of an operation are the results later changes must keep
identical: verdicts, certificates, clique vertices, Helly indices and
points, frontier records.  Work counters and traces (``nodes``,
``round_scores``) are left out on purpose.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb
from operator import and_
from typing import Optional

from workloads import Op

ERROR_EXITS = (2, 3, 5)


def parse_output(text: str) -> tuple[dict, list[dict]]:
    """The report (last line) and any frontier records before it."""
    lines = text.strip().splitlines()
    return json.loads(lines[-1]), [json.loads(line) for line in lines[:-1]]


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meet(boxes: list[dict]) -> bool:
    d = len(boxes[0]["lo"])
    return all(max(b["lo"][j] for b in boxes) <= min(b["hi"][j] for b in boxes) for j in range(d))


def _sweep_max(doc: dict) -> int:
    """Largest number of boxes containing one point of the lo-corner grid.
    Per axis and lo coordinate, a bit mask of the boxes covering it; a grid
    point is covered by the boxes in the AND of its axes' masks."""
    boxes = doc["boxes"]
    masks = [
        [sum(1 << i for i, b in enumerate(boxes) if b["lo"][j] <= c <= b["hi"][j])
         for c in sorted({b["lo"][j] for b in boxes})]
        for j in range(doc["d"])
    ]
    return max(reduce(and_, point).bit_count() for point in product(*masks))


def _is_clique(vertices, k: int, edges: set) -> bool:
    return all(t in edges for t in combinations(sorted(vertices), k))


def _clique_number(n: int, k: int, edges: set) -> int:
    """Exact clique number by enumeration; cliques are closed under subsets,
    so the first size with no clique ends the scan."""
    omega = min(n, k - 1)
    for s in range(k, n + 1):
        if not any(_is_clique(S, k, edges) for S in combinations(range(n), s)):
            break
        omega = s
    return omega


def _has_complete_tuple(n: int, k: int, m: int, edges: set) -> bool:
    """Brute force: m pairwise-disjoint missing edges whose transversals are
    all cliques."""
    missing = [e for e in combinations(range(n), k) if e not in edges]

    def extend(start: int, chosen: list, used: set) -> bool:
        if len(chosen) == m:
            return all(_is_clique(tr, k, edges) for tr in product(*chosen))
        for i in range(start, len(missing)):
            e = missing[i]
            if used.isdisjoint(e) and extend(i + 1, chosen + [e], used | set(e)):
                return True
        return False

    return extend(0, [], set())


class Checker:
    """Checks operations of one pool; caches per-case reference data."""

    def __init__(self, cases: list[dict]):
        self.cases = cases
        self._nerves: dict[int, set] = {}
        self._sweeps: dict[int, int] = {}

    def nerve(self, case: int) -> set:
        if case not in self._nerves:
            doc = self.cases[case]
            boxes = doc["boxes"]
            self._nerves[case] = {
                idx
                for idx in combinations(range(len(boxes)), doc["d"] + 1)
                if _meet([boxes[i] for i in idx])
            }
        return self._nerves[case]

    def sweep(self, case: int) -> int:
        if case not in self._sweeps:
            self._sweeps[case] = _sweep_max(self.cases[case])
        return self._sweeps[case]

    def check(self, op: Op, code: Optional[int], text: str) -> Optional[str]:
        """None if the output is correct, else the first problem found.

        Exit codes 2, 3 and 5 and raised exceptions are errors, counted by
        the caller; this judges the outputs of the other exits.
        """
        try:
            report, records = parse_output(text)
            return getattr(self, "_check_" + op.kind)(op, code, report["outcome"], records)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report: {exc!r}"

    def _check_helly(self, op, code, out, records) -> Optional[str]:
        if code == 4:
            return None if out["verdict"] == "exhausted" else "exit 4 without an exhausted verdict"
        if code != 0:
            return f"unexpected exit {code}"
        if out["colorful_verdict"] != "absent":
            return f"colorful verdict {out['colorful_verdict']}"
        doc = self.cases[op.case]
        boxes, d = doc["boxes"], doc["d"]
        idx, point = out["indices"], out["point"]
        if not idx or len(set(idx)) != len(idx) or out["subfamily_size"] != len(idx):
            return f"bad indices {idx}"
        if not all(isinstance(i, int) and 0 <= i < len(boxes) for i in idx):
            return f"index out of range in {idx}"
        if len(point) != d or not all(isinstance(p, int) for p in point):
            return f"bad point {point}"
        for i in idx:
            if not all(boxes[i]["lo"][j] <= point[j] <= boxes[i]["hi"][j] for j in range(d)):
                return f"point {point} outside box {i}"
        if len(idx) > self.sweep(op.case):
            return f"subfamily of {len(idx)} exceeds the sweep maximum {self.sweep(op.case)}"
        if out["degraded"] and len(idx) != 1:
            return "degraded result with more than one box"
        return None

    def _check_nerve(self, op, code, out, records) -> Optional[str]:
        if code != 0:
            return f"unexpected exit {code}"
        doc = self.cases[op.case]
        hg = out["hypergraph"]
        if hg["n"] != len(doc["boxes"]) or hg["k"] != doc["d"] + 1:
            return f"nerve has n={hg['n']}, k={hg['k']}"
        if {tuple(e) for e in hg["edges"]} != self.nerve(op.case):
            return "nerve differs from the brute-force nerve"
        return None

    def _clique_problem(self, op, vertices) -> Optional[str]:
        doc = self.cases[op.case]
        n, k = len(doc["boxes"]), doc["d"] + 1
        if len(set(vertices)) != len(vertices) or not all(0 <= v < n for v in vertices):
            return f"bad vertex list {vertices}"
        if not _is_clique(vertices, k, self.nerve(op.case)):
            return f"{vertices} is not a clique of the nerve"
        return None

    def _check_extract(self, op, code, out, records) -> Optional[str]:
        if code != 0:
            return f"unexpected exit {code}"
        if out["kind"] != "clique":
            return "certificate reported on a box nerve"
        return self._clique_problem(op, out["vertices"])

    def _check_analyze(self, op, code, out, records) -> Optional[str]:
        if code != 0:
            return f"unexpected exit {code}"
        doc = self.cases[op.case]
        n, k = len(doc["boxes"]), doc["d"] + 1
        sweep = self.sweep(op.case)
        expected = sweep if sweep >= k else min(n, k - 1)
        if out["omega"] != expected:
            return f"omega {out['omega']}, expected {expected}"
        if len(out["omega_witness"]) != expected:
            return "witness size differs from omega"
        return self._clique_problem(op, out["omega_witness"])

    def _check_search(self, op, code, out, records) -> Optional[str]:
        if code != 0:
            return f"unexpected exit {code}"
        case = self.cases[op.case]
        n, k, m, cap = case["n"], case["k"], case["m"], case["omega_cap"]
        if len(records) != 1 or out["records"] != 1:
            return f"{len(records)} frontier records"
        rec = records[0]
        inst = rec["instance"]
        if (rec["n"], rec["k"], rec["m"], inst["n"], inst["k"]) != (n, k, m, n, k):
            return "record parameters differ from the command line"
        edges = {tuple(e) for e in inst["edges"]}
        if len(edges) != len(inst["edges"]) or any(
            len(e) != k or list(e) != sorted(set(e)) or e[0] < 0 or e[-1] >= n for e in edges
        ):
            return "malformed record instance"
        if rec["verified"] != "absent":
            return f"record verdict {rec['verified']}"
        omega = _clique_number(n, k, edges)
        if omega > cap:
            return f"omega {omega} above the cap {cap}"
        if Fraction(rec["omega_ratio"]) != Fraction(omega, n):
            return f"omega_ratio {rec['omega_ratio']}, enumeration gives {omega}/{n}"
        cm = sum(_is_clique(S, k, edges) for S in combinations(range(n), m))
        if Fraction(rec["alpha"]) != Fraction(cm, comb(n, m)):
            return f"alpha {rec['alpha']}, enumeration gives {cm}/{comb(n, m)}"
        if _has_complete_tuple(n, k, m, edges):
            return "record instance contains a complete tuple"
        return None


def pinned(op: Op, code: Optional[int], text: str) -> dict:
    """The result fields of one operation that must not change."""
    if code not in (0, 4):
        return {"exit": code}
    report, records = parse_output(text)
    out = report["outcome"]
    pin: dict = {"exit": code}
    if op.kind == "helly":
        pin["verdict"] = out.get("colorful_verdict", out.get("verdict"))
        if code == 0:
            pin["indices"] = out["indices"]
            pin["point"] = out["point"]
            ext = out["extraction"]
            pin["extraction"] = ext.get("vertices", ext.get("tuples"))
    elif op.kind == "nerve":
        pin["edges"] = _digest(out["hypergraph"]["edges"])
    elif op.kind == "extract":
        pin["kind"] = out["kind"]
        pin["result"] = out.get("vertices", out.get("tuples"))
    elif op.kind == "analyze":
        pin["omega"] = out["omega"]
        pin["witness"] = out["omega_witness"]
    else:
        pin["records"] = [
            {
                "alpha": r["alpha"],
                "omega_ratio": r["omega_ratio"],
                "edges": _digest(r["instance"]["edges"]),
                "verified": r["verified"],
            }
            for r in records
        ]
    return pin
