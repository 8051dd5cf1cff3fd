"""Exact k-uniform hypergraph substrate.

Vertices are dense integers 0..n-1.  Edges are sorted k-tuples, stored as
a frozenset (for O(1) membership), as a lexicographically sorted tuple (for
deterministic iteration) and in the link index, which maps each (k-1)-set
to the vertices completing it to an edge, both as vertex bitmasks.  The
clique kernels run on that index.  All counting is exact; densities are
``fractions.Fraction`` values, so threshold comparisons reduce to integer
cross-multiplication and never touch floats.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, compress
from operator import itemgetter, lt, or_
from typing import Iterable, Iterator, Mapping, Optional, Sequence

Edge = tuple[int, ...]

# Exact rational density type.  Comparisons between Fractions are integer
# cross-multiplications, which is exactly the certificate-grade arithmetic
# the counting layers rely on.
Density = Fraction

# The cap on the vertices, edges, vertex pairs, m-clique search steps or tau
# score steps that the loader, extractors and intersection graph take.
DEFAULT_MAX_FAMILY = 2_000_000

# Python converts no int of more decimal digits than this to a string by
# default, so no report prints a number that long.
MAX_PRINTED_DIGITS = 4300

# The cap on the total width of the link index, its keys times n bits: a
# path on 2^16 vertices, just at the cap, runs `analyze` within 1 GiB.
MAX_LINK_BITS = 1 << 32


class InputFormatError(ValueError):
    """An instance document violates the on-disk format."""


class SizeRefusalError(RuntimeError):
    """An enumeration would exceed its fixed cap; raised by ``refuse_over_cap``."""


class BudgetExhaustedError(RuntimeError):
    """A budgeted search stopped before it could decide; inconclusive."""


class InternalConsistencyError(RuntimeError):
    """A state the supporting theorems rule out.

    Carries the offending certificate (when one exists) so the failure is
    reportable, not just a stack trace.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class _Frozen:
    """Frozen value semantics for a class that names its fields in
    ``_fields`` and sets them in ``__init__``, in its ``__dict__`` or
    slots: ``==`` and a matching hash over the field values, between
    instances of the same class only; a ``Name(field=value, ...)`` repr;
    and no assignment or deletion of attributes afterwards.  Writes that
    bypass ``__setattr__`` (``cached_property``, ``__dict__.update``) still
    work."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({pairs})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class KUniformHypergraph(_Frozen):
    """A k-uniform hypergraph on vertices 0..n-1.

    Invariants checked by the constructor: every edge is a strictly
    increasing k-tuple of vertices in [0, n); no duplicates (frozenset).
    The missing-edge set is definitionally the complement inside the set
    of all k-subsets of the vertex set.
    """

    _fields = ("n", "k", "edges")
    n: int
    k: int
    edges: frozenset[Edge]

    def __init__(self, n: int, k: int, edges: frozenset[Edge]):
        if k < 2:
            raise InputFormatError(f"edge arity k must be >= 2, got {k}")
        if n < 0:
            raise InputFormatError(f"vertex count must be >= 0, got {n}")
        if not _edges_valid(edges, n, k):
            for e in edges:
                if len(e) != k:
                    raise InputFormatError(f"edge {e} has {len(e)} vertices, expected {k}")
                if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                    raise InputFormatError(f"edge {e} is not strictly increasing")
                if e[0] < 0 or e[-1] >= n:
                    raise InputFormatError(f"edge {e} has a vertex outside [0, {n})")
        self.__dict__.update(n=n, k=k, edges=edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def missing(self) -> tuple[Edge, ...]:
        """All non-edges among the k-subsets of [0, n), in lexicographic order."""
        return tuple(e for e in combinations(range(self.n), self.k) if e not in self.edges)

    @cached_property
    def links(self) -> dict[int, int]:
        """The link index: (k-1)-set s -> vertices x with s + {x} an edge.

        Both sides are vertex bitmasks (bit v stands for vertex v).  Only
        (k-1)-sets with a nonempty link are keys; look up with
        ``links.get(s, 0)``.  For k = 2 the key 1 << v maps to the
        neighbourhood of v, built as one adjacency row per vertex.  The
        keys, at most k|E| and C(n, k-1), times n bits each are held to
        ``MAX_LINK_BITS`` before any mask is built.
        """
        n, k = self.n, self.k
        keys = k * len(self.edges)
        if not comb_exceeds(n, k - 1, keys):
            keys = math.comb(n, k - 1)
        what = f"the width of the link index, at most {keys} masks of {n} bits"
        refuse_over_cap(what, MAX_LINK_BITS, keys * n)
        if k == 2:
            adj = [0] * n
            for u, v in self.edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            return {1 << v: row for v, row in enumerate(adj) if row}
        links: dict[int, int] = {}
        for e in self.edges:
            em = 0
            for v in e:
                em |= 1 << v
            for v in e:
                s = em ^ 1 << v
                links[s] = links.get(s, 0) | 1 << v
        return links

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """True iff every k-subset of ``vertices`` is an edge.

        Sets with fewer than k vertices are cliques vacuously.
        """
        vs = sorted(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("clique test requires distinct vertices")
        return all(t in self.edges for t in combinations(vs, self.k))

    def edge_density(self) -> Density:
        """Exact |E| / C(n, k).  Vacuously 1 when no k-subset exists."""
        total = math.comb(self.n, self.k)
        if total == 0:
            return Fraction(1)
        return Fraction(len(self.edges), total)


class CliqueWitness(_Frozen):
    """A vertex set claimed to be a clique; checkable by enumeration."""

    __slots__ = _fields = ("vertices",)
    vertices: tuple[int, ...]

    def __init__(self, vertices: tuple[int, ...]):
        object.__setattr__(self, "vertices", vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def verify(self, host: KUniformHypergraph) -> bool:
        return host.is_clique(self.vertices)


def count_m_cliques(H: KUniformHypergraph, m: int) -> int:
    """Exact number of m-vertex cliques; the k-cliques are the edges."""
    return len(H.edges) if m == H.k else len(m_clique_family(H, m))


def comb_exceeds(n: int, k: int, bound: int) -> bool:
    """Whether C(n, k) > ``bound``, for n, k >= 0, without building C(n, k):
    C(n, j) grows with j up to n/2, so the product stops once it passes."""
    c = 1 if k <= n else 0
    for j in range(1, min(k, n - k) + 1):
        c = c * (n - j + 1) // j
        if c > bound:
            return True
    return c > bound


def refuse_over_cap(what: str, cap: int, n: int, k: int = 1, less: int = 0) -> None:
    """The one size gate: SizeRefusalError when C(n, k) - ``less`` > ``cap``,
    decided by ``comb_exceeds``; a running count c is C(c, 1).  The message
    names the enumeration ``what`` and the cap, never C(n, k)'s value,
    which may have more digits than str() converts."""
    if comb_exceeds(n, k, cap + less):
        raise SizeRefusalError(f"{what} exceeds the cap of {cap}")


class WorkMeter:
    """A kernel's step count, held to the cap ``DEFAULT_MAX_FAMILY`` had
    when the meter was built: ``charge`` refuses through ``refuse_over_cap``,
    naming ``what``, as soon as the total passes it."""

    __slots__ = ("what", "cap", "steps")

    def __init__(self, what: str):
        self.what = what
        self.cap = DEFAULT_MAX_FAMILY
        self.steps = 0

    def charge(self, steps: int) -> None:
        self.steps += steps
        if self.steps > self.cap:
            refuse_over_cap(self.what, self.cap, self.steps)


def _nesting_refusal(size: int) -> SizeRefusalError:
    # The refusal of a search nested once per vertex of a ``size``-clique,
    # raised by refuse_deep_clique up front or by m_clique_family on
    # RecursionError.
    return SizeRefusalError(
        f"an m-clique of {size} vertices nests deeper than the interpreter's "
        f"recursion limit of {sys.getrecursionlimit()}"
    )


# The recursion depth that refuse_deep_clique keeps in reserve for the
# helpers the deepest level calls and for calls that count against the
# recursion limit without a Python frame (a test runner's stack holds about
# seven, from calls of objects with a Python __call__).
NESTING_RESERVE = 50


def refuse_deep_clique(size: int) -> None:
    """The nesting gate: SizeRefusalError, with the line ``m_clique_family``
    prints on RecursionError, when a search that recurses once per vertex
    of a clique of ``size`` vertices, called from the caller, would come
    within ``NESTING_RESERVE`` of the interpreter's recursion limit.  The
    iterated extraction checks it at k, since its walks over (k-1)-sets
    recurse once per vertex and an edgeless instance with a huge k would
    otherwise grow a vacuous (k-1)-clique."""
    limit = sys.getrecursionlimit()
    depth, frame = size + NESTING_RESERVE, sys._getframe(1)
    while frame is not None and depth < limit:
        depth += 1
        frame = frame.f_back
    if depth >= limit:
        raise _nesting_refusal(size)


def mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


_BITS = bytes.maketrans(b"01", b"\0\1")


def popcount_sum(cands: int, rows: Sequence[int], among: int) -> int:
    """The sum of |cands & rows[i]| over the bits i of ``among``, in one
    C-level pass: ``rows`` compressed by the bits of ``among`` as bytes 0
    and 1."""
    picked = compress(rows, bin(among)[:1:-1].encode().translate(_BITS))
    return sum(map(int.bit_count, map(cands.__and__, picked)))


def _narrow(links: dict[int, int], bits: list[int], low: int, cands: int, k: int) -> int:
    """The candidates that stay linked when vertex bit ``low`` joins the
    clique ``bits``: AND of the links of T + {low} over the (k-2)-subsets T."""
    for t in combinations(bits, k - 2):
        cands &= links.get(sum(t) | low, 0)
    return cands


def clique_extensions(links: dict[int, int], k: int, bits: list[int], within: int = -1) -> int:
    """The vertices of the mask ``within`` that complete every (k-1)-subset
    of the vertex bits ``bits`` to an edge: the AND of their links.  For a
    clique of at least k-1 vertices, the vertices that extend it to a
    larger clique (none of its own vertices passes)."""
    if len(bits) == k:  # each (k-1)-subset drops one vertex
        em = sum(bits)
        for low in bits:
            within &= links.get(em ^ low, 0)
        return within
    for s in combinations(bits, k - 1):
        within &= links.get(sum(s), 0)
    return within


def m_clique_family(H: KUniformHypergraph, m: int) -> tuple[Edge, ...]:
    """All m-subsets forming cliques, in lexicographic order.

    Depth-first in ascending vertex order.  The candidate mask holds the
    vertices above the partial clique C that complete every (k-1)-subset
    of C to an edge; adding v narrows it by the links of the new
    (k-1)-subsets, T + {v} for each (k-2)-subset T of C.  It refuses past
    ``DEFAULT_MAX_FAMILY`` steps, one per vertex tried or clique listed (an
    empty family can take C(n, k-2) to rule out), charged to a ``WorkMeter``,
    and past the recursion limit, as it recurses once per clique vertex.
    """
    k = H.k
    if m < k:
        raise ValueError(f"m must be >= k = {k}, got {m}")
    family: list[Edge] = []
    meter = WorkMeter(f"the {m}-clique search's step count")
    try:
        _grow_cliques(H.links, k, m, [], [], (1 << H.n) - 1, family, meter)
    except RecursionError:
        raise _nesting_refusal(m) from None
    return tuple(family)


def _grow_cliques(
    links: dict[int, int], k: int, m: int, clique: list[int], bits: list[int], cands: int,
    family: list[Edge], meter: WorkMeter,
) -> None:
    # Appends every m-clique made of `clique` and vertices of `cands`, and
    # charges `meter` a step per vertex tried and per clique appended, in
    # bulk: all but need - 1 candidates are tried (none if fewer than need).
    if len(clique) == m - 1:
        meter.charge(cands.bit_count())
        while cands:
            low = cands & -cands
            cands ^= low
            family.append((*clique, low.bit_length() - 1))
        return
    need = m - len(clique)
    meter.charge(cands.bit_count() - need + 1)
    while cands.bit_count() >= need:
        low = cands & -cands
        cands ^= low
        nxt = _narrow(links, bits, low, cands, k)
        if nxt.bit_count() >= need - 1:
            clique.append(low.bit_length() - 1)
            bits.append(low)
            _grow_cliques(links, k, m, clique, bits, nxt, family, meter)
            clique.pop()
            bits.pop()


def _seed_clique(links: dict[int, int], em: int) -> tuple[list[int], int]:
    """The vertex bits of the k-set ``em``, and the vertices x with
    em - v + x an edge for each v in em: those extending it to a clique.

    Only links of (k-1)-sets that hold a vertex outside em are read from
    here on, so the answer is the same whether or not em is an edge.
    """
    bits, rest = [], em
    while rest:
        low = rest & -rest
        rest ^= low
        bits.append(low)
    return bits, clique_extensions(links, len(bits), bits)


def count_cliques_through(links: dict[int, int], k: int, m: int, em: int) -> int:
    """The number of m-cliques (m >= k) containing the k-set with vertex
    mask ``em``, taken as an edge: the change in ``count_m_cliques`` when
    it is added or removed: ``m_clique_family``'s capped search from em."""
    if m == k:
        return 1
    bits, cands = _seed_clique(links, em)
    family: list[Edge] = []
    meter = WorkMeter(f"the {m}-clique search's step count")
    _grow_cliques(links, k, m, list(mask_vertices(em)), bits, cands, family, meter)
    return len(family)


def max_clique(H: KUniformHypergraph) -> CliqueWitness:
    """Exact maximum clique by branch and bound.

    Vertices are tried in ascending order, so the witness is the
    lexicographically first maximum clique; a vertex v may join the
    current clique C only if every k-subset of C + {v} containing v is an
    edge.  Since any set of fewer than k-1 vertices is a clique vacuously,
    the floor is min(n, k-1) even for an edgeless instance.  Two prunes cut
    the walk (see ``_larger_clique``): the shadow prune, by per-vertex
    masks of the vertices sharing an edge, keeps each pair of a clique of
    fewer than k-1 vertices inside some edge, so an edgeless instance ends
    at once, and at k = 2 a greedy colouring bounds each node.  Each cuts
    only nodes that hold no clique larger than the best so far, so the
    witness is the one the plain walk finds.
    """
    floor = tuple(range(min(H.n, H.k - 1)))
    best = _larger_clique(H.links, H.k, [], (1 << H.n) - 1, len(floor))
    return CliqueWitness(floor if best is None else mask_vertices(sum(best)))


def _colour_tops(links: dict[int, int], cands: int) -> int:
    """Greedy colouring of the graph on ``cands`` (k = 2), highest vertex
    first, one colour class at a time; the mask of each class's highest
    vertex.  The classes with a top at or above a vertex v colour every
    candidate from v up, so the tops from v up bound any clique there."""
    tops = 0
    while cands:
        q = cands
        tops |= 1 << (q.bit_length() - 1)
        while q:
            high = 1 << (q.bit_length() - 1)
            cands ^= high
            q = (q ^ high) & ~links.get(high, 0)
    return tops


def _shadows(links: dict[int, int]) -> dict[int, int]:
    """The shadow of each vertex bit v: the OR of the keys of ``links``
    that hold v, so every vertex sharing an edge with v."""
    shadow: dict[int, int] = {}
    for s in links:
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            shadow[low] = shadow.get(low, 0) | s
    return shadow


def _larger_clique(
    links: dict[int, int], k: int, bits: list[int], cands: int, size: int
) -> Optional[list[int]]:
    """The first largest clique of more than ``size`` vertices made of the
    clique ``bits`` (vertex bits) and vertices of ``cands``, each of which
    completes every (k-1)-subset of it to an edge; None if there is none.

    Candidates are a vertex bitmask narrowed by link ANDs, one mask per
    added vertex on an explicit stack, so the depth is not bounded by the
    interpreter's recursion limit.  A node is cut once its clique size
    plus a bound on its untried candidates cannot beat ``size``, by two
    prunes:

    - Shadow (all k, on a walk from the empty clique with ``size`` at
      least min(n, k-1), as ``max_clique`` runs it).  Every clique of k
      vertices or more has each pair of its vertices in an edge, so while
      the clique C has fewer than k-1 vertices only the vertices that
      share an edge with each vertex of C stay candidates.  At the root
      these are the vertices of some edge; below it each added vertex v
      narrows the candidates by its shadow (``_shadows``, built when the
      walk first gets there).  At one vertex this is the set of w with
      C + w inside an edge; deeper it keeps a superset of that set.
    - Colour bound (k = 2).  Each node is coloured once, highest vertex
      first (``_colour_tops``); as the ascending walk uses up the
      candidates, the tops of the untried ones still bound the node, with
      no recolouring.  A node whose candidate count beats ``size`` by one
      is not coloured: it wins only if all its candidates form a clique,
      and its first branch decides that.

    Both cut only nodes that hold no clique of more than ``size`` vertices,
    and ``size`` only grows, so the first clique of the largest size in
    ascending order, the witness of the walk without them, is still found.
    """
    base = len(bits)
    if base + cands.bit_count() <= size:
        return None  # the count cuts the root, as in most of the climb's calls
    bits = list(bits)
    best = bits[:] if base > size else None
    size = max(size, base)
    # Cliques of fewer than `shallow` vertices read the shadow.
    shallow = 0 if bits else k - 1
    shadow = None
    if shallow:
        cands &= reduce(or_, links, 0)
    colour = k == 2
    # stack[i], tops[i]: the untried candidates of the clique's first
    # base + i vertices, and their colour tops (all bits when uncoloured).
    stack = [cands]
    colourable = colour and base + cands.bit_count() > size + 1
    tops = [_colour_tops(links, cands) if colourable else -1]
    while stack:
        cands = stack[-1]
        if len(bits) + (cands & tops[-1]).bit_count() <= size:
            stack.pop()
            tops.pop()
            if stack:
                bits.pop()
            continue
        low = cands & -cands
        cands ^= low
        stack[-1] = cands
        # Candidates were already consistent with the clique; only the
        # k-subsets pairing a later u with the new vertex need checking.
        cands = _narrow(links, bits, low, cands, k)
        bits.append(low)
        if len(bits) < shallow:
            if shadow is None:
                shadow = _shadows(links)
            cands &= shadow[low]
        if len(bits) > size:
            best = bits[:]
            size = len(bits)
        stack.append(cands)
        colourable = colour and len(bits) + cands.bit_count() > size + 1
        tops.append(_colour_tops(links, cands) if colourable else -1)
    return best


def clique_through_exceeds(links: dict[int, int], k: int, em: int, size: int) -> bool:
    """True iff some clique of more than ``size`` vertices contains the
    k-set with vertex mask ``em``, taken as an edge: adding an edge raises
    the clique number only through such a clique.  ``max_clique``'s branch
    and bound, started from em."""
    bits, cands = _seed_clique(links, em)
    return _larger_clique(links, k, bits, cands, size) is not None


def greedy_extend_clique(H: KUniformHypergraph, base: Iterable[int] = ()) -> tuple[int, ...]:
    """Extend a clique to a maximal one, trying vertices in ascending order."""
    k, links = H.k, H.links
    clique = sorted(set(base))
    bits = [1 << v for v in clique]
    allowed = clique_extensions(links, k, bits, ((1 << H.n) - 1) & ~sum(bits))
    while allowed:
        low = allowed & -allowed
        allowed = _narrow(links, bits, low, allowed ^ low, k)
        clique.append(low.bit_length() - 1)
        bits.append(low)
    return tuple(sorted(clique))


def missing_completions(H: KUniformHypergraph, within: int) -> Iterator[tuple[int, int]]:
    """The missing k-sets inside the vertex mask ``within``, by prefix.

    Walks the (k-1)-subsets s of ``within`` in lexicographic order and
    yields (s, miss) for each s with a nonempty ``miss``: the vertices of
    ``within`` above s that complete it to a missing k-set.  Both are
    vertex bitmasks, so s + lowest(miss) of the first pair is the
    lexicographically first missing k-set inside ``within``.
    """
    return _walk_missing(H.links, 0, within, H.k - 1)


def _walk_missing(
    links: dict[int, int], s: int, rest: int, depth: int
) -> Iterator[tuple[int, int]]:
    # Extends the prefix s by depth vertices of rest above it.
    while rest:
        low = rest & -rest
        rest ^= low
        t = s | low
        if depth == 1:
            miss = rest & ~links.get(t, 0)
            if miss:
                yield t, miss
        elif rest.bit_count() >= depth:
            yield from _walk_missing(links, t, rest, depth - 1)


def first_missing_edge(H: KUniformHypergraph, within: int) -> Optional[Edge]:
    """The lexicographically first missing k-set inside a vertex mask, or None."""
    for s, miss in missing_completions(H, within):
        return mask_vertices(s | miss & -miss)
    return None


def maximal_missing_matching(H: KUniformHypergraph, within: int) -> list[int]:
    """Greedy maximal matching of missing edges inside the vertex mask
    ``within``, taken in lexicographic order; edges as vertex masks.

    A prefix s not yet covered takes its lowest uncovered completion.  The
    vertices of ``within`` not covered by the result form a clique: any
    missing k-subset among them would have extended the matching.
    """
    if within >> H.n:
        raise ValueError(f"the vertex mask has a vertex outside [0, {H.n})")
    chosen: list[int] = []
    used = 0
    for s, miss in missing_completions(H, within):
        free = miss & ~used
        if free and not s & used:
            e = s | free & -free
            chosen.append(e)
            used |= e
    return chosen


# ---------------------------------------------------------------------------
# Instance file format: {"n": int, "k": int, "edges": [[int,...],...]} with
# vertices 0-based and each edge sorted ascending.  For dense instances the
# key "missing" may be given instead; the loader complements it.
# ---------------------------------------------------------------------------


def _edges_valid(edges, n: int, k: int) -> bool:
    """Whether every edge is k vertices of type int (so no bool), strictly
    increasing and in [0, n), checked by C-level passes (``map``,
    ``itemgetter``, ``set``, ``min``, ``max``) instead of a Python loop per
    edge.  False only sends the caller to its per-edge loop, which words
    the error, or accepts what this check is stricter about (an int
    subclass, an edge that is not a sequence)."""
    if not edges:
        return True
    try:
        if set(map(len, edges)) != {k} or set(map(type, chain.from_iterable(edges))) != {int}:
            return False
        cols = [list(map(itemgetter(i), edges)) for i in range(k)]
    except (TypeError, LookupError):
        return False
    return (
        min(cols[0]) >= 0
        and max(cols[-1]) < n
        and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
    )


def _parse_edge_list(obj, key: str, n: int, k: int) -> tuple[list[Edge], frozenset[Edge]]:
    # The edges in document order, and as the frozenset that both finds
    # duplicates and becomes the instance's edge set, so each is hashed once.
    raw = obj[key]
    if not isinstance(raw, list):
        raise InputFormatError(f'"{key}" must be a list of edges')
    if set(map(type, raw)) <= {list}:
        edges = list(map(tuple, raw))
        if _edges_valid(edges, n, k):
            edge_set = frozenset(edges)
            if len(edge_set) == len(edges):
                return edges, edge_set
    # The first malformed entry in document order words the error; an entry
    # the bulk check is stricter about (a list or int subclass) passes here.
    edges = []
    seen: dict[Edge, int] = {}
    for pos, entry in enumerate(raw):
        if not isinstance(entry, list):
            raise InputFormatError(f"{key}[{pos}] is not a list")
        for j, v in enumerate(entry):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputFormatError(f"{key}[{pos}][{j}] is not an integer")
            if v < 0 or v >= n:
                raise InputFormatError(f"{key}[{pos}][{j}]: vertex {v} out of range [0, {n})")
        if len(entry) != k:
            raise InputFormatError(f"{key}[{pos}] has {len(entry)} vertices, expected k = {k}")
        e = tuple(entry)
        if any(e[i] >= e[i + 1] for i in range(k - 1)):
            raise InputFormatError(f"{key}[{pos}]: vertices must be sorted ascending, got {entry}")
        if e in seen:
            raise InputFormatError(f"{key}[{pos}] duplicates {key}[{seen[e]}]")
        seen[e] = pos
        edges.append(e)
    return edges, frozenset(edges)


def _checked_hypergraph(
    n: int, k: int, edge_set: frozenset[Edge], sorted_edges: Optional[Sequence[Edge]] = None
) -> KUniformHypergraph:
    """The hypergraph on the edges of ``edge_set``, which its caller has
    already checked, without the constructor's check of every edge.  The
    loader checks the edges of a document as it parses them; the box layer
    lists the edges of the intersection graph and the nerve itself, from
    the pair masks and by ``m_clique_family``.  ``sorted_edges``, when
    given, holds the same edges in lexicographic order and is kept as the
    ``sorted_edges`` field, which then needs no sort."""
    H = object.__new__(KUniformHypergraph)
    H.__dict__.update(n=n, k=k, edges=edge_set)
    if sorted_edges is not None:
        H.__dict__["sorted_edges"] = tuple(sorted_edges)
    return H


def hypergraph_from_dict(obj: Mapping) -> KUniformHypergraph:
    """Parse the instance JSON object, rejecting malformed input precisely.
    More than ``DEFAULT_MAX_FAMILY`` vertices, or a "missing" document
    whose complement has more edges than that, is refused before any edge
    is read or listed."""
    if not isinstance(obj, Mapping):
        raise InputFormatError("instance document must be a JSON object")
    for field in ("n", "k"):
        if field not in obj:
            raise InputFormatError(f'missing required field "{field}"')
        if not isinstance(obj[field], int) or isinstance(obj[field], bool):
            raise InputFormatError(f'field "{field}" must be an integer')
    n, k = obj["n"], obj["k"]
    if k < 2:
        raise InputFormatError(f'"k" must be >= 2, got {k}')
    if n < 0:
        raise InputFormatError(f'"n" must be >= 0, got {n}')
    has_edges = "edges" in obj
    has_missing = "missing" in obj
    if has_edges == has_missing:
        raise InputFormatError('exactly one of "edges" or "missing" must be present')
    refuse_over_cap('the vertex count "n"', DEFAULT_MAX_FAMILY, n)
    if has_edges:
        edges, edge_set = _parse_edge_list(obj, "edges", n, k)
        # An edge list already in strictly ascending order (one C-level
        # pass decides it) is kept as ``sorted_edges``.
        ascending = all(map(lt, edges, edges[1:]))
        return _checked_hypergraph(n, k, edge_set, edges if ascending else None)
    missing = _parse_edge_list(obj, "missing", n, k)[1]
    what = f'the complement C({n},{k}) - {len(missing)} of "missing"'
    refuse_over_cap(what, DEFAULT_MAX_FAMILY, n, k, len(missing))
    edges = [e for e in combinations(range(n), k) if e not in missing]
    return _checked_hypergraph(n, k, frozenset(edges), edges)


def hypergraph_to_dict(H: KUniformHypergraph) -> dict:
    return {"n": H.n, "k": H.k, "edges": [list(e) for e in H.sorted_edges]}
