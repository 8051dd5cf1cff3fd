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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Mapping

Edge = tuple[int, ...]

# Exact rational density type.  Comparisons between Fractions are integer
# cross-multiplications, which is exactly the certificate-grade arithmetic
# the counting layers rely on.
Density = Fraction


class InputFormatError(ValueError):
    """An instance document violates the on-disk format."""


class SizeRefusalError(RuntimeError):
    """An enumeration would exceed its configured cap; refused up front."""


class InternalConsistencyError(RuntimeError):
    """A state the supporting theorems rule out.

    Carries the offending certificate (when one exists) so the failure is
    reportable, not just a stack trace.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class KUniformHypergraph:
    """A k-uniform hypergraph on vertices 0..n-1.

    Invariants enforced at construction: every edge is a strictly
    increasing k-tuple of vertices in [0, n); no duplicates (frozenset).
    The missing-edge set is definitionally the complement inside the set
    of all k-subsets of the vertex set.
    """

    n: int
    k: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.k < 2:
            raise InputFormatError(f"edge arity k must be >= 2, got {self.k}")
        if self.n < 0:
            raise InputFormatError(f"vertex count must be >= 0, got {self.n}")
        for e in self.edges:
            if len(e) != self.k:
                raise InputFormatError(f"edge {e} has {len(e)} vertices, expected {self.k}")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise InputFormatError(f"edge {e} is not strictly increasing")
            if e[0] < 0 or e[-1] >= self.n:
                raise InputFormatError(f"edge {e} has a vertex outside [0, {self.n})")

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "KUniformHypergraph":
        """Build an instance from unsorted edge iterables, canonicalizing each."""
        canon = []
        seen: dict[Edge, int] = {}
        for pos, raw in enumerate(edges):
            e = tuple(sorted(raw))
            if len(set(e)) != len(e):
                raise InputFormatError(f"edges[{pos}]: repeated vertex in {tuple(raw)}")
            if e in seen:
                raise InputFormatError(f"edges[{pos}]: duplicate of edges[{seen[e]}]")
            seen[e] = pos
            canon.append(e)
        return cls(n=n, k=k, edges=frozenset(canon))

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
        neighbourhood of v.
        """
        links: dict[int, int] = {}
        for e in self.edges:
            em = 0
            for v in e:
                em |= 1 << v
            for v in e:
                s = em ^ 1 << v
                links[s] = links.get(s, 0) | 1 << v
        return links

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return tuple(sorted(vertices)) in self.edges

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


@dataclass(frozen=True)
class CliqueWitness:
    """A vertex set claimed to be a clique; checkable by enumeration."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def verify(self, host: KUniformHypergraph) -> bool:
        return host.is_clique(self.vertices)


def ext_binom(x: float, k: int) -> float:
    """Continuous convex extension of the binomial coefficient.

    Returns x(x-1)...(x-k+1)/k! for x >= k-1 and 0 below, which makes the
    function continuous at x = k-1 and convex on the whole real line.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if x < k - 1:
        return 0.0
    num = 1.0
    for j in range(k):
        num *= x - j
    return num / math.factorial(k)


def count_m_cliques(H: KUniformHypergraph, m: int) -> int:
    """Exact number of m-vertex cliques; equals |E| when m = k."""
    return len(m_clique_family(H, m))


def mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _narrow(links: dict[int, int], bits: list[int], low: int, cands: int, k: int) -> int:
    """The candidates that stay linked when vertex bit ``low`` joins the
    clique ``bits``: AND of the links of T + {low} over the (k-2)-subsets T."""
    for t in combinations(bits, k - 2):
        cands &= links.get(sum(t) | low, 0)
    return cands


def m_clique_family(H: KUniformHypergraph, m: int) -> tuple[Edge, ...]:
    """All m-subsets forming cliques, in lexicographic order.

    Depth-first in ascending vertex order.  The candidate mask holds the
    vertices above the partial clique C that complete every (k-1)-subset
    of C to an edge; adding v narrows it by the links of the new
    (k-1)-subsets, T + {v} for each (k-2)-subset T of C.
    """
    k = H.k
    if m < k:
        raise ValueError(f"m must be >= k = {k}, got {m}")
    family: list[Edge] = []
    if m <= H.n:
        _grow_cliques(H.links, k, m, [], [], (1 << H.n) - 1, family)
    return tuple(family)


def _grow_cliques(
    links: dict[int, int], k: int, m: int, clique: list[int], bits: list[int], cands: int,
    family: list[Edge],
) -> None:
    # Appends every m-clique made of `clique` and vertices of `cands`.
    if len(clique) == m - 1:
        while cands:
            low = cands & -cands
            cands ^= low
            family.append((*clique, low.bit_length() - 1))
        return
    need = m - len(clique)
    while cands.bit_count() >= need:
        low = cands & -cands
        cands ^= low
        nxt = _narrow(links, bits, low, cands, k)
        if nxt.bit_count() >= need - 1:
            clique.append(low.bit_length() - 1)
            bits.append(low)
            _grow_cliques(links, k, m, clique, bits, nxt, family)
            clique.pop()
            bits.pop()


def max_clique(H: KUniformHypergraph) -> CliqueWitness:
    """Exact maximum clique by branch and bound.

    Vertices are tried in ascending order, so the witness is the
    lexicographically first maximum clique; a vertex v may join the
    current clique C only if every k-subset of C + {v} containing v is an
    edge.  Candidates are a vertex bitmask narrowed by link ANDs.  Since
    any set of fewer than k-1 vertices is a clique vacuously, the floor is
    min(n, k-1) even for an edgeless instance.
    """
    best = list(range(min(H.n, H.k - 1)))
    _branch(H.links, H.k, [], [], (1 << H.n) - 1, best)
    return CliqueWitness(tuple(best))


def _branch(
    links: dict[int, int], k: int, clique: list[int], bits: list[int], cands: int,
    best: list[int],
) -> None:
    # Replaces the contents of `best` by any larger clique made of `clique`
    # and vertices of `cands`.
    if len(clique) > len(best):
        best[:] = clique
    while cands:
        if len(clique) + cands.bit_count() <= len(best):
            break
        low = cands & -cands
        cands ^= low
        # Candidates were already consistent with `clique`; only the
        # k-subsets pairing a later u with the new vertex need checking.
        nxt = _narrow(links, bits, low, cands, k)
        clique.append(low.bit_length() - 1)
        bits.append(low)
        _branch(links, k, clique, bits, nxt, best)
        clique.pop()
        bits.pop()


def greedy_extend_clique(H: KUniformHypergraph, base: Iterable[int] = ()) -> tuple[int, ...]:
    """Extend a clique to a maximal one, trying vertices in ascending order."""
    k, links = H.k, H.links
    clique = sorted(set(base))
    bits = [1 << v for v in clique]
    # allowed: the vertices outside the clique whose addition keeps every
    # (k-1)-subset of the clique linked to them.
    allowed = ((1 << H.n) - 1) & ~sum(bits)
    for s in combinations(bits, k - 1):
        allowed &= links.get(sum(s), 0)
    while allowed:
        low = allowed & -allowed
        allowed = _narrow(links, bits, low, allowed ^ low, k)
        clique.append(low.bit_length() - 1)
        bits.append(low)
    return tuple(sorted(clique))


def maximal_missing_matching(H: KUniformHypergraph, S: Iterable[int]) -> list[Edge]:
    """Greedy maximal matching of missing edges inside S, lexicographic order.

    The vertices of S not covered by the result form a clique: any missing
    k-subset among them would have extended the matching.
    """
    verts = sorted(set(S))
    if verts and (verts[0] < 0 or verts[-1] >= H.n):
        raise ValueError(f"S contains a vertex outside [0, {H.n})")
    chosen: list[Edge] = []
    used: set[int] = set()
    for e in combinations(verts, H.k):
        if e in H.edges:
            continue
        if used.isdisjoint(e):
            chosen.append(e)
            used.update(e)
    return chosen


def neighborhood_of_tuple(
    H: KUniformHypergraph, sigma: Iterable[int], family: Iterable[Edge]
) -> set[int]:
    """N_sigma = {x : sigma + {x} belongs to the family}.

    The family must be uniform of some arity i with |sigma| = i - 1.  The
    result is automatically disjoint from sigma, since sigma + {x} only has
    i distinct elements when x lies outside sigma.
    """
    fam = family if isinstance(family, (set, frozenset)) else set(map(tuple, family))
    if not fam:
        return set()
    arities = {len(t) for t in fam}
    if len(arities) != 1:
        raise ValueError(f"family is not uniform: arities {sorted(arities)}")
    i = arities.pop()
    sig = tuple(sorted(sigma))
    if len(sig) != i - 1:
        raise ValueError(f"|sigma| = {len(sig)} does not match family arity {i}")
    sigset = set(sig)
    out = set()
    for x in range(H.n):
        if x in sigset:
            continue
        if tuple(sorted(sig + (x,))) in fam:
            out.add(x)
    return out


# ---------------------------------------------------------------------------
# Instance file format: {"n": int, "k": int, "edges": [[int,...],...]} with
# vertices 0-based and each edge sorted ascending.  For dense instances the
# key "missing" may be given instead; the loader complements it.
# ---------------------------------------------------------------------------


def _parse_edge_list(obj, key: str, n: int, k: int) -> list[Edge]:
    raw = obj[key]
    if not isinstance(raw, list):
        raise InputFormatError(f'"{key}" must be a list of edges')
    edges: list[Edge] = []
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
    return edges


def hypergraph_from_dict(obj: Mapping) -> KUniformHypergraph:
    """Parse the instance JSON object, rejecting malformed input precisely."""
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
    if has_edges:
        edges = _parse_edge_list(obj, "edges", n, k)
        return KUniformHypergraph(n=n, k=k, edges=frozenset(edges))
    missing = set(_parse_edge_list(obj, "missing", n, k))
    edges = frozenset(e for e in combinations(range(n), k) if e not in missing)
    return KUniformHypergraph(n=n, k=k, edges=edges)


def hypergraph_to_dict(H: KUniformHypergraph) -> dict:
    return {"n": H.n, "k": H.k, "edges": [list(e) for e in H.sorted_edges]}


def all_graphs(n: int) -> Iterator[KUniformHypergraph]:
    """Every 2-uniform hypergraph on n labelled vertices, by edge bitmask."""
    positions = list(combinations(range(n), 2))
    for mask in range(1 << len(positions)):
        edges = frozenset(pos for i, pos in enumerate(positions) if mask >> i & 1)
        yield KUniformHypergraph(n=n, k=2, edges=edges)
