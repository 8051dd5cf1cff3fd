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
from collections import deque
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, le
from typing import Mapping, NamedTuple, Optional, Sequence

from . import core
from .bounds import kalai_bound
from .core import (
    Density,
    InputFormatError,
    InternalConsistencyError,
    KUniformHypergraph,
    m_clique_family,
    mask_vertices,
    refuse_over_cap,
)
from .extractor import ExtractionOutcome, extract_hypergraph
from .forbidden import DEFAULT_BUDGET, TupleSearchResult, Verdict, find_complete_tuple

Point = tuple[int, ...]

# The pair masks of n boxes are n masks of n bits, built with one running
# mask besides them; they are also G's link index.  Under a 1 GiB address
# space, `nerve` and `helly` on the d <= 3 families tried at 2^15 boxes
# peak at 168-185 MB where they refuse on the edge count or the tuple-slot
# cap, and at 486-679 MB where the graph is built near its edge cap.  On
# `gen-boxes --n 32768 --d 1 --seed 1 --spread 100000 --max-side 350`
# (1,877,392 edges; 2-core VM, Python 3.11.7) `nerve` exits 0 in 6-8 s
# and `helly` exits 4 after 249 s, both at a 486 MB peak.  Under cProfile,
# 231 of helly's 238 s go to the k = 2 tuple search and 154 s of those to
# 11.3 million link lookups: a key 1 << v hashes to 2^(v mod 61), so the
# 32,768 keys share 61 hash values and a lookup probes a few hundred of
# them.  Parsed and drawn families refuse more boxes than this before any
# box is built.
MAX_BOXES = 1 << 15


class Box(core._Frozen):
    """An axis-aligned box [lo[0], hi[0]] x ... with integer corners.

    Degenerate boxes (lo == hi in some coordinate) are allowed; they
    exercise boundary-touching intersections, which integer arithmetic
    decides exactly.
    """

    __slots__ = _fields = ("lo", "hi")
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __init__(self, lo: tuple[int, ...], hi: tuple[int, ...]):
        if len(lo) != len(hi):
            raise ValueError(f"lo has {len(lo)} coordinates, hi has {len(hi)}")
        for j, (a, b) in enumerate(zip(lo, hi)):
            if a > b:
                raise ValueError(f"coordinate {j}: lo = {a} > hi = {b}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return len(self.lo)

    def contains(self, point: Sequence[int]) -> bool:
        return all(a <= p <= b for a, p, b in zip(self.lo, point, self.hi))


class BoxFamily(core._Frozen):
    _fields = ("d", "boxes")
    d: int
    boxes: tuple[Box, ...]

    def __init__(self, d: int, boxes: tuple[Box, ...]):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        for i, box in enumerate(boxes):
            if box.d != d:
                raise ValueError(f"boxes[{i}] has dimension {box.d}, family has {d}")
        self.__dict__.update(d=d, boxes=boxes)

    @cached_property
    def intersection_graph(self) -> KUniformHypergraph:
        """The pairwise-intersection graph G, built once per family: i ~ j
        when boxes i and j share a point.

        Boxes have Helly number 2: a subfamily shares a point exactly when
        its boxes meet pairwise, since in each coordinate the largest lo is
        at most the smallest hi exactly when every lo is at most every hi.
        So the nerve is the (d+1)-clique family of G, and the largest
        subfamily with a common point is ``max_clique(G)``.  More than
        ``core.DEFAULT_MAX_FAMILY`` edges, counted from the pair masks, is
        refused before any is listed.

        The edges are listed from the pair masks in lexicographic order,
        so they are not checked again and are kept as ``sorted_edges``.
        The link index is the pair masks themselves, keyed ``1 << i``: what
        ``KUniformHypergraph.links`` builds at k = 2 from the edges.  Its
        width gate could not refuse it, as n <= ``MAX_BOXES`` keys of n bits
        stay within ``core.MAX_LINK_BITS``.
        """
        n = len(self.boxes)
        pairs = _pairwise_intersections(self.boxes, self.d)
        what = f"the edge count of the intersection graph of {n} boxes"
        refuse_over_cap(what, core.DEFAULT_MAX_FAMILY, sum(map(int.bit_count, pairs)) // 2)
        # A tuple at once, so no list of the edges is alive beside the
        # edge set and the links.
        edges = tuple([
            (i, j) for i in range(n) for j in mask_vertices(pairs[i] >> (i + 1) << (i + 1))
        ])
        G = core._checked_hypergraph(n, 2, frozenset(edges), edges)
        G.__dict__["links"] = {1 << i: row for i, row in enumerate(pairs) if row}
        return G

    @cached_property
    def nerve_hypergraph(self) -> KUniformHypergraph:
        """The (d+1)-uniform intersection hypergraph, built once per family
        from ``intersection_graph``.  ``build_nerve`` returns it.  At d = 1
        it is G itself, since the 2-clique family of a graph is its edges.
        At d >= 2 it is G's (d+1)-clique family, listed in lexicographic
        order, so its edges are not checked again and are kept as
        ``sorted_edges``."""
        if self.d == 1:
            return self.intersection_graph
        cliques = m_clique_family(self.intersection_graph, self.d + 1)
        return core._checked_hypergraph(len(self.boxes), self.d + 1, frozenset(cliques), cliques)


def _pairwise_intersections(boxes: Sequence[Box], d: int) -> list[int]:
    """Pairwise intersection masks: bit j of entry i is set when boxes i and
    j (i != j) share a point.

    Per coordinate, i meets j when lo[j] <= hi[i] and hi[j] >= lo[i], and
    each condition is one sweep with one running mask.  Taking the boxes
    by ascending hi, the mask collects the boxes with lo <= hi[i] and is
    ANDed into i's entry; taking them by ascending lo, it collects the
    boxes with hi < lo[i], which are cleared from i's entry.
    """
    n = len(boxes)
    meets = [((1 << n) - 1) ^ 1 << i for i in range(n)]
    for axis in range(d):
        lo = [box.lo[axis] for box in boxes]
        hi = [box.hi[axis] for box in boxes]
        by_lo = sorted(range(n), key=lo.__getitem__)
        by_hi = sorted(range(n), key=hi.__getitem__)
        seen, t = 0, 0
        for i in by_hi:
            while t < n and lo[by_lo[t]] <= hi[i]:
                seen |= 1 << by_lo[t]
                t += 1
            meets[i] &= seen
        seen, t = 0, 0
        for i in by_lo:
            while t < n and hi[by_hi[t]] < lo[i]:
                seen |= 1 << by_hi[t]
                t += 1
            meets[i] &= ~seen
    return meets


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


def build_nerve(family: BoxFamily) -> KUniformHypergraph:
    """Exact (d+1)-uniform intersection nerve; needs more than d+1 boxes.

    Vertex i stands for ``family.boxes[i]``; an edge is present exactly
    when the corresponding d+1 boxes share a point.
    """
    if len(family.boxes) <= family.d + 1:
        raise ValueError(
            f"nerve needs more than d+1 = {family.d + 1} boxes, got {len(family.boxes)}"
        )
    return family.nerve_hypergraph


def colorful_check(family: BoxFamily, budget: int = DEFAULT_BUDGET) -> TupleSearchResult:
    """Search the nerve for a complete (d+1)-tuple of missing edges.

    The expected verdict is ABSENT for every box family; FOUND would
    contradict the intersection structure of convex sets and raises an
    InternalConsistencyError carrying the certificate.  EXHAUSTED is
    returned as-is: it is inconclusive, not absence.
    """
    result = find_complete_tuple(build_nerve(family), family.d + 1, budget)
    if result.verdict is Verdict.FOUND:
        raise InternalConsistencyError(
            "box-family nerve contains a complete tuple of missing edges",
            result.certificate,
        )
    return result


class HellyOutcome(NamedTuple):
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
    extraction: ExtractionOutcome


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
    outcome = extract_hypergraph(nerve, d + 1)
    alpha = outcome.trace.alpha
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
    controls the expected pairwise-intersection density.  More than
    ``MAX_BOXES`` boxes, or more than ``core.DEFAULT_MAX_FAMILY``
    coordinates n * d, are refused before any is drawn."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if spread < 0:
        raise ValueError(f"need spread >= 0, got spread={spread}")
    if not 0 <= min_side <= max_side:
        raise ValueError(f"need 0 <= min_side <= max_side, got {min_side}, {max_side}")
    refuse_over_cap("the box count of a random box family", MAX_BOXES, n)
    refuse_over_cap("the coordinate count of a random box family", core.DEFAULT_MAX_FAMILY, n * d)
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
    """Parse a box family document; more than ``MAX_BOXES`` boxes are
    refused before any is read.

    A well-formed document is checked by ``_bulk_boxes``' C-level passes,
    and its boxes and family are built without being checked again.
    Otherwise the per-entry loop below parses it, and its first malformed
    entry words the error."""
    if not isinstance(obj, Mapping):
        raise InputFormatError("box family document must be a JSON object")
    if "d" not in obj or not isinstance(obj["d"], int) or isinstance(obj["d"], bool):
        raise InputFormatError('missing or non-integer field "d"')
    if "boxes" not in obj or not isinstance(obj["boxes"], list):
        raise InputFormatError('"boxes" must be a list')
    refuse_over_cap("the box count of a box family document", MAX_BOXES, len(obj["boxes"]))
    d = obj["d"]
    boxes = _bulk_boxes(obj["boxes"], d)
    if boxes is not None:
        family = object.__new__(BoxFamily)
        family.__dict__.update(d=d, boxes=boxes)
        return family
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


def _bulk_boxes(entries: list, d: int) -> Optional[tuple[Box, ...]]:
    """The boxes of the entries, when d >= 1 and every entry is a dict
    whose "lo" and "hi" are lists of d values of type int (so no bool) with
    lo <= hi in each coordinate, checked by C-level passes (``map``,
    ``itemgetter``, ``set``, ``le``) instead of a Python loop per entry.
    The boxes' slots are filled the same way, with no ``Box.__init__``
    call.  None only sends the caller to its per-entry loop, which words
    the error, or accepts what this check is stricter about (a Mapping
    that is not a dict, a list or int subclass)."""
    if d < 1 or not set(map(type, entries)) <= {dict}:
        return None
    try:
        los = list(map(itemgetter("lo"), entries))
        his = list(map(itemgetter("hi"), entries))
    except KeyError:
        return None
    both = los + his
    if not (
        set(map(type, both)) <= {list}
        and set(map(len, both)) <= {d}
        and set(map(type, chain.from_iterable(both))) <= {int}
        and all(map(le, chain.from_iterable(los), chain.from_iterable(his)))
    ):
        return None
    boxes = tuple(map(object.__new__, repeat(Box, len(entries))))
    deque(map(Box.lo.__set__, boxes, map(tuple, los)), 0)
    deque(map(Box.hi.__set__, boxes, map(tuple, his)), 0)
    return boxes


def box_family_to_dict(family: BoxFamily) -> dict:
    return {
        "d": family.d,
        "boxes": [{"lo": list(b.lo), "hi": list(b.hi)} for b in family.boxes],
    }
