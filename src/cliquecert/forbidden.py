"""Complete m-tuples of missing edges: verification and exact search.

A complete m-tuple is a family of m pairwise-disjoint missing edges such
that every transversal (one vertex picked from each) forms a clique.  For
k = 2 this is the same thing as an induced K_2(m), the complete
multipartite graph on m parts of size two; ``has_induced_biclique`` is an
independent implementation of that specialization and doubles as a test
oracle for the general search.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping, Optional

from .core import Edge, InputFormatError, InternalConsistencyError, KUniformHypergraph

DEFAULT_BUDGET = 10_000_000


class Verdict(enum.Enum):
    FOUND = "found"
    ABSENT = "absent"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class CompleteTupleCertificate:
    """m pairwise-disjoint missing edges whose transversals are all cliques."""

    tuples: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.tuples)

    def to_dict(self) -> dict:
        return {"m": self.m, "tuples": [list(t) for t in self.tuples]}

    @classmethod
    def from_dict(cls, obj: Mapping) -> "CompleteTupleCertificate":
        if not isinstance(obj, Mapping) or "tuples" not in obj:
            raise InputFormatError('certificate document needs a "tuples" field')
        raw = obj["tuples"]
        if not isinstance(raw, (list, tuple)):
            raise InputFormatError('"tuples" must be a list of tuples')
        for pos, entry in enumerate(raw):
            if not isinstance(entry, (list, tuple)):
                raise InputFormatError(f"tuples[{pos}] is not a list")
            for j, v in enumerate(entry):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InputFormatError(f"tuples[{pos}][{j}] is not an integer")
        tuples = tuple(tuple(t) for t in raw)
        if "m" in obj and obj["m"] != len(tuples):
            raise InputFormatError(f'"m" = {obj["m"]} does not match {len(tuples)} tuples')
        return cls(tuples=tuples)


@dataclass(frozen=True)
class TupleSearchResult:
    """Outcome of the tuple search.

    ABSENT is a proof: the search space was exhausted without a hit.
    EXHAUSTED means the node budget ran out, so absence is NOT established.
    """

    verdict: Verdict
    certificate: Optional[CompleteTupleCertificate]
    nodes: int


def verify_complete_tuple(
    H: KUniformHypergraph, cert: CompleteTupleCertificate
) -> tuple[bool, Optional[str]]:
    """Check a certificate exhaustively; returns (ok, first violated condition).

    Conditions are checked in order: pairwise disjointness, each tuple lying
    in [0, n) and being a genuine missing edge, then every transversal being
    a clique (all product(tuples) choices, each clique-checked by
    enumeration).  Arity mismatches are argument errors, not False verdicts.
    """
    m = cert.m
    if m < H.k:
        raise ValueError(f"certificate has m = {m} < k = {H.k}")
    for t in cert.tuples:
        if len(t) != H.k or len(set(t)) != H.k:
            raise ValueError(f"tuple {t} is not a {H.k}-subset")
    for i, j in combinations(range(m), 2):
        if set(cert.tuples[i]) & set(cert.tuples[j]):
            return False, f"tuples {cert.tuples[i]} and {cert.tuples[j]} are not disjoint"
    for t in cert.tuples:
        if min(t) < 0 or max(t) >= H.n:
            return False, f"{t} has a vertex outside [0, {H.n})"
        if tuple(sorted(t)) in H.edges:
            return False, f"{t} is not a missing edge"
    for transversal in product(*cert.tuples):
        if not H.is_clique(transversal):
            return False, f"transversal {tuple(sorted(transversal))} is not a clique"
    return True, None


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)`` on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def find_complete_tuple(
    H: KUniformHypergraph, m: int, budget: int = DEFAULT_BUDGET
) -> TupleSearchResult:
    """Bitset backtracking search for a complete m-tuple of missing edges.

    Missing edges are indexed in lexicographic order and tried in that
    order, extended one at a time; the first certificate in this order is
    the canonical one.  A candidate set is an int mask over those indices:
    choosing edge i keeps the later candidates disjoint from it.  A new
    tuple is admissible when every transversal constraint it completes
    (k-subsets drawing k-1 earlier tuples plus the new one) is an edge,
    i.e. when it lies inside the link of each (k-1)-set s drawn from k-1
    earlier tuples.  The admissible candidates at a depth are therefore the
    AND, over those s, of the mask of missing edges inside link(s); each
    placed tuple narrows it with k ANDs of per-depth cached rows.

    Every candidate the search passes over, admissible or not, costs one
    node against ``budget``, exactly as a one-at-a-time scan would; the
    passed-over bits are charged in bulk by popcount.  ``budget`` must be
    non-negative; an exhausted search reports ``budget + 1`` nodes.
    """
    k = H.k
    if m < k:
        raise ValueError(f"m must be >= k = {k}, got {m}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    n, missing = H.n, H.missing
    full = (1 << len(missing)) - 1
    # without[v]: the missing edges that avoid vertex v.
    without = [full] * n
    for i, e in enumerate(missing):
        for v in e:
            without[v] ^= 1 << i
    # later[i]: the missing edges after i in the order and disjoint from it.
    later = []
    above = full
    for i, e in enumerate(missing):
        above ^= 1 << i
        mask = above
        for v in e:
            mask &= without[v]
        later.append(mask)
    chosen: list[int] = []
    nodes = 0

    links, vertices = H.links, (1 << n) - 1

    def inside_link(s: int) -> int:
        # Missing edges lying wholly inside link(s): drop every edge touching
        # a vertex outside link(s), that is a vertex of s or a vertex v with
        # s + v missing.
        mask = full
        rest = vertices & ~links.get(s, 0)
        while rest:
            low = rest & -rest
            rest ^= low
            mask &= without[low.bit_length() - 1]
        return mask

    inside = _Memo(inside_link)

    def picks(depth: int) -> list[int]:
        # Vertex bitmasks of one vertex from each of k-2 chosen tuples.
        out = []
        for idxs in combinations(range(depth), k - 2):
            for pick in product(*(missing[chosen[i]] for i in idxs)):
                mask = 0
                for v in pick:
                    mask |= 1 << v
                out.append(mask)
        return out

    def rows_for(pick_masks: list[int]) -> _Memo:
        # rows[t]: AND of inside[p + t] over the picks p.
        def row(t: int) -> int:
            mask = full
            for p in pick_masks:
                mask &= inside[p | 1 << t]
            return mask

        return _Memo(row)

    def extend(cands: int, allowed: int) -> bool:
        # Try each admissible candidate for the tuple at this depth, which
        # is at most m - 2; the last tuple is decided inline.  A search out
        # of budget (nodes > budget) returns False at once, all the way up.
        nonlocal nodes
        depth = len(chosen)
        hits = cands & allowed
        rows = rows_for(picks(depth))
        if depth == m - 2:
            # Charged here: every candidate passed over, plus every last-tuple
            # candidate passed over after each admissible one.  Node counts
            # only grow, so checking the budget at a hit and at the end gives
            # what a check per node gives: an overshoot is clamped either way.
            after = 0
            while hits:
                low = hits & -hits
                hits ^= low
                i = low.bit_length() - 1
                nxt = cands & later[i]
                if not nxt:
                    continue
                final = nxt & allowed
                for t in missing[i]:
                    final &= rows[t]
                if final:
                    last = final & -final
                    nodes += (cands & (2 * low - 1)).bit_count() + after
                    nodes += (nxt & (2 * last - 1)).bit_count()
                    if nodes > budget:
                        return False
                    chosen.extend((i, last.bit_length() - 1))
                    return True
                after += nxt.bit_count()
            nodes += cands.bit_count() + after
            return False
        while hits:
            low = hits & -hits
            hits ^= low
            passed = cands & (2 * low - 1)
            cands ^= passed
            nodes += passed.bit_count()
            if nodes > budget:
                return False
            i = low.bit_length() - 1
            nxt = cands & later[i]
            if nxt.bit_count() < m - depth - 1:
                continue
            narrowed = allowed
            for t in missing[i]:
                narrowed &= rows[t]
            chosen.append(i)
            if extend(nxt, narrowed):
                return True
            chosen.pop()
            if nodes > budget:
                return False
        nodes += cands.bit_count()
        return False

    hit = len(missing) >= m and extend(full, full)
    # extend refers to itself through its closure; dropping the name frees
    # the search state now instead of at the next cyclic collection.
    del extend
    if hit:
        cert = CompleteTupleCertificate(tuple(missing[i] for i in chosen))
        ok, reason = verify_complete_tuple(H, cert)
        if not ok:
            raise InternalConsistencyError(f"search produced an invalid certificate: {reason}", cert)
        return TupleSearchResult(Verdict.FOUND, cert, nodes)
    if nodes > budget:
        return TupleSearchResult(Verdict.EXHAUSTED, None, budget + 1)
    return TupleSearchResult(Verdict.ABSENT, None, nodes)


def has_induced_biclique(G: KUniformHypergraph, m: int) -> bool:
    """Direct search for an induced K_2(m) in a graph (k = 2 only).

    A 2m-subset W induces K_2(m) exactly when every vertex of W has exactly
    one non-neighbor inside W; the non-adjacency relation is then a perfect
    matching and all cross pairs are edges.  W grows in ascending order
    over vertex bitmasks built from ``G.edges``, independently of the
    tuple backtracking above and of the link index.  A vertex is skipped
    when it would give some vertex of W two non-neighbors in W, and a
    branch is dropped when the vertices of W still without a non-neighbor
    outnumber the free slots: each later vertex partners at most one.
    """
    if G.k != 2:
        raise ValueError(f"induced biclique detection requires k = 2, got k = {G.k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = G.n
    adj = [0] * n
    for a, b in G.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    full = (1 << n) - 1
    nonadj = [full & ~adj[v] & ~(1 << v) for v in range(n)]

    def grow(W: int, lonely: int, start: int, free: int) -> bool:
        # lonely: the vertices of W with no non-neighbor in W yet.
        if lonely.bit_count() > free:
            return False
        if not free:
            return True
        for v in range(start, n - free + 1):
            hits = nonadj[v] & W
            if hits & ~lonely or hits.bit_count() > 1:
                continue
            # v pairs with its one non-neighbor in W, or waits for one.
            lone = lonely ^ hits if hits else lonely | 1 << v
            if grow(W | 1 << v, lone, v + 1, free - 1):
                return True
        return False

    return grow(0, 0, 0, 2 * m)
