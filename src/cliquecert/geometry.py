"""Axis-aligned integer boxes, their intersection nerve, and the Helly pipeline.

Boxes rather than general convex sets: intersection of boxes is decided by
comparing coordinatewise max-lo against min-hi in integers, so every
geometric predicate here is exact and every witness point is checkable.
The nerve of a box family in dimension d is the (d+1)-uniform hypergraph
whose edges are the (d+1)-subfamilies with a common point; a box-family
nerve can never contain a complete (d+1)-tuple of missing edges, which is
what ``colorful_check`` probes, loudly, on every family it is given.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping, Optional, Sequence

from .bounds import kalai_bound
from .core import (
    Density,
    InputFormatError,
    InternalConsistencyError,
    KUniformHypergraph,
    m_clique_family,
    mask_vertices,
)
from .extractor import HypergraphExtractionOutcome, extract_hypergraph
from .forbidden import DEFAULT_BUDGET, TupleSearchResult, Verdict, find_complete_tuple

Point = tuple[int, ...]


@dataclass(frozen=True)
class Box:
    """An axis-aligned box [lo[0], hi[0]] x ... with integer corners.

    Degenerate boxes (lo == hi in some coordinate) are allowed; they
    exercise boundary-touching intersections, which integer arithmetic
    decides exactly.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError(f"lo has {len(self.lo)} coordinates, hi has {len(self.hi)}")
        for j, (a, b) in enumerate(zip(self.lo, self.hi)):
            if a > b:
                raise ValueError(f"coordinate {j}: lo = {a} > hi = {b}")

    @property
    def d(self) -> int:
        return len(self.lo)

    def contains(self, point: Sequence[int]) -> bool:
        return all(a <= p <= b for a, p, b in zip(self.lo, point, self.hi))


@dataclass(frozen=True)
class BoxFamily:
    d: int
    boxes: tuple[Box, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        for i, box in enumerate(self.boxes):
            if box.d != self.d:
                raise ValueError(f"boxes[{i}] has dimension {box.d}, family has {self.d}")

    def __len__(self) -> int:
        return len(self.boxes)

    @cached_property
    def nerve_hypergraph(self) -> KUniformHypergraph:
        """The (d+1)-uniform intersection hypergraph, built once per family.

        Boxes have Helly number 2: a subfamily shares a point exactly when
        its boxes meet pairwise, since in each coordinate the largest lo is
        at most the smallest hi exactly when every lo is at most every hi.
        So the edges are the (d+1)-cliques of the pairwise-intersection
        graph.  Shared by ``build_nerve`` and ``colorful_check``.
        """
        n = len(self.boxes)
        pairs = _pairwise_intersections(self.boxes, self.d)
        edges = [(i, j) for i in range(n) for j in mask_vertices(pairs[i] >> (i + 1) << (i + 1))]
        graph = KUniformHypergraph(n=n, k=2, edges=frozenset(edges))
        cliques = m_clique_family(graph, self.d + 1)
        return KUniformHypergraph(n=n, k=self.d + 1, edges=frozenset(cliques))


def _pairwise_intersections(boxes: Sequence[Box], d: int) -> list[int]:
    """Pairwise intersection masks: bit j of entry i is set when boxes i and
    j (i != j) share a point.

    Per coordinate, i meets j when lo[j] <= hi[i] and hi[j] >= lo[i]; the
    first is a prefix of the boxes sorted by lo, the second a suffix of the
    boxes sorted by hi, each read off by bisection.
    """
    n = len(boxes)
    meets = [((1 << n) - 1) ^ 1 << i for i in range(n)]
    for axis in range(d):
        by_lo = sorted(range(n), key=lambda i: boxes[i].lo[axis])
        los = [boxes[i].lo[axis] for i in by_lo]
        by_hi = sorted(range(n), key=lambda i: boxes[i].hi[axis])
        his = [boxes[i].hi[axis] for i in by_hi]
        # lo_prefix[t]: the t boxes of least lo; hi_suffix[t]: all boxes of
        # by_hi from position t on.
        lo_prefix = [0]
        for i in by_lo:
            lo_prefix.append(lo_prefix[-1] | 1 << i)
        hi_suffix = [0]
        for i in reversed(by_hi):
            hi_suffix.append(hi_suffix[-1] | 1 << i)
        hi_suffix.reverse()
        for i, box in enumerate(boxes):
            below = lo_prefix[bisect_right(los, box.hi[axis])]
            above = hi_suffix[bisect_left(his, box.lo[axis])]
            meets[i] &= below & above
    return meets


@dataclass(frozen=True)
class NerveHypergraph:
    """The (d+1)-uniform intersection hypergraph of a box family.

    Vertex i of ``base`` stands for ``family.boxes[i]``; an edge is present
    exactly when the corresponding d+1 boxes share a point.
    """

    base: KUniformHypergraph
    family: BoxFamily

    def density(self) -> Density:
        return self.base.edge_density()


def boxes_intersect(boxes: Sequence[Box]) -> Optional[Point]:
    """Common point of the boxes, or None.

    The candidate is the coordinatewise maximum of the lo corners; the
    intersection is nonempty iff that point is below every hi.
    """
    if not boxes:
        raise ValueError("intersection of an empty list of boxes is undefined")
    d = boxes[0].d
    if any(b.d != d for b in boxes):
        raise ValueError("boxes have mixed dimensions")
    point = tuple(max(b.lo[j] for b in boxes) for j in range(d))
    if all(point[j] <= min(b.hi[j] for b in boxes) for j in range(d)):
        return point
    return None


def build_nerve(family: BoxFamily) -> NerveHypergraph:
    """Exact (d+1)-uniform intersection nerve; needs more than d+1 boxes."""
    if len(family.boxes) <= family.d + 1:
        raise ValueError(
            f"nerve needs more than d+1 = {family.d + 1} boxes, got {len(family.boxes)}"
        )
    return NerveHypergraph(base=family.nerve_hypergraph, family=family)


def colorful_check(family: BoxFamily, budget: int = DEFAULT_BUDGET) -> TupleSearchResult:
    """Search the nerve for a complete (d+1)-tuple of missing edges.

    The expected verdict is ABSENT for every box family; FOUND would
    contradict the intersection structure of convex sets and raises an
    InternalConsistencyError carrying the certificate.  EXHAUSTED is
    returned as-is: it is inconclusive, not absence.
    """
    result = find_complete_tuple(family.nerve_hypergraph, family.d + 1, budget)
    if result.verdict is Verdict.FOUND:
        raise InternalConsistencyError(
            "box-family nerve contains a complete tuple of missing edges",
            result.certificate,
        )
    return result


@dataclass(frozen=True)
class HellyOutcome:
    """Result of the fractional-Helly pipeline.

    ``indices`` is the intersecting subfamily, ``point`` a common point of
    exactly those boxes.  ``kalai_target`` is the optimal-bound size
    kalai_bound(alpha, d) * n for comparison; the extraction guarantee is
    far weaker, so the achieved size is logged, not asserted, against it.
    ``degraded`` marks the corner case where extraction returned a vacuous
    clique (fewer than d+1 vertices) whose boxes do not all meet; the
    pipeline then falls back to a single box.
    """

    indices: tuple[int, ...]
    point: Point
    alpha: Density
    kalai_target: float
    degraded: bool
    extraction: HypergraphExtractionOutcome


def fractional_helly_pipeline(family: BoxFamily) -> HellyOutcome:
    """Build the nerve, extract a clique, and return the subfamily + witness.

    A clique of size >= d+1 in the nerve makes the boxes pairwise
    intersecting in every coordinate, so they share a point; this is
    verified directly by ``boxes_intersect`` on every run, and a failure
    (or a certificate outcome from the extraction) raises
    InternalConsistencyError since both are impossible for correct code.
    """
    nerve = build_nerve(family)
    d = family.d
    n = len(family.boxes)
    alpha = nerve.density()
    outcome = extract_hypergraph(nerve.base, d + 1)
    if outcome.kind == "certificate":
        raise InternalConsistencyError(
            "extraction found a complete tuple of missing edges in a box nerve",
            outcome.certificate,
        )
    indices = outcome.clique.vertices
    point = boxes_intersect([family.boxes[i] for i in indices])
    degraded = False
    if point is None:
        if len(indices) >= d + 1:
            raise InternalConsistencyError(
                f"nerve clique {indices} has empty box intersection"
            )
        # Vacuous clique below the uniformity threshold: fall back to the
        # first box, a legitimate (size-1) intersecting subfamily.
        indices = (indices[0],)
        point = boxes_intersect([family.boxes[indices[0]]])
        degraded = True
    return HellyOutcome(
        indices=indices,
        point=point,
        alpha=alpha,
        kalai_target=kalai_bound(float(alpha), d) * n,
        degraded=degraded,
        extraction=outcome,
    )


def max_intersecting_subfamily(family: BoxFamily) -> tuple[int, tuple[int, ...]]:
    """Exact largest subfamily with a common point, via the lo-corner grid.

    Any nonempty intersection of boxes contains the point whose j-th
    coordinate is the largest lo[j] over the subfamily, which is some box's
    lo[j]; so sweeping the grid of per-coordinate lo values and counting
    containment is exhaustive.  Returns (size, sorted indices); ties are
    resolved toward the lexicographically smallest candidate point.
    """
    boxes = family.boxes
    if not boxes:
        return 0, ()
    axes = [sorted({b.lo[j] for b in boxes}) for j in range(family.d)]
    best_size = 0
    best_indices: tuple[int, ...] = ()
    for p in product(*axes):
        hits = [i for i, b in enumerate(boxes) if b.contains(p)]
        if len(hits) > best_size:
            best_size = len(hits)
            best_indices = tuple(hits)
    return best_size, best_indices


def random_box_family(
    n: int,
    d: int,
    seed: int,
    *,
    spread: int = 100,
    min_side: int = 0,
    max_side: int = 40,
) -> BoxFamily:
    """Deterministic random family: lo uniform in [0, spread], side lengths
    uniform in [min_side, max_side] per coordinate.  The side/spread ratio
    controls the expected pairwise-intersection density."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not 0 <= min_side <= max_side:
        raise ValueError(f"need 0 <= min_side <= max_side, got {min_side}, {max_side}")
    rng = random.Random(seed)
    boxes = []
    for _ in range(n):
        lo = tuple(rng.randint(0, spread) for _ in range(d))
        hi = tuple(lo[j] + rng.randint(min_side, max_side) for j in range(d))
        boxes.append(Box(lo=lo, hi=hi))
    return BoxFamily(d=d, boxes=tuple(boxes))


# ---------------------------------------------------------------------------
# Box family file format:
# {"d": int, "boxes": [{"lo": [int,...], "hi": [int,...]}, ...]}
# ---------------------------------------------------------------------------


def box_family_from_dict(obj: Mapping) -> BoxFamily:
    if not isinstance(obj, Mapping):
        raise InputFormatError("box family document must be a JSON object")
    if "d" not in obj or not isinstance(obj["d"], int) or isinstance(obj["d"], bool):
        raise InputFormatError('missing or non-integer field "d"')
    if "boxes" not in obj or not isinstance(obj["boxes"], list):
        raise InputFormatError('"boxes" must be a list')
    d = obj["d"]
    boxes = []
    for i, entry in enumerate(obj["boxes"]):
        if not isinstance(entry, Mapping) or "lo" not in entry or "hi" not in entry:
            raise InputFormatError(f'boxes[{i}] must be an object with "lo" and "hi"')
        lo, hi = entry["lo"], entry["hi"]
        for name, coords in (("lo", lo), ("hi", hi)):
            if not isinstance(coords, list) or len(coords) != d:
                raise InputFormatError(f"boxes[{i}].{name} must be a list of {d} integers")
            for j, v in enumerate(coords):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InputFormatError(f"boxes[{i}].{name}[{j}] is not an integer")
        try:
            boxes.append(Box(lo=tuple(lo), hi=tuple(hi)))
        except ValueError as exc:
            raise InputFormatError(f"boxes[{i}]: {exc}") from exc
    return BoxFamily(d=d, boxes=tuple(boxes))


def box_family_to_dict(family: BoxFamily) -> dict:
    return {
        "d": family.d,
        "boxes": [{"lo": list(b.lo), "hi": list(b.hi)} for b in family.boxes],
    }
