"""Shared instance builders and independent brute-force oracles.

The oracles deliberately avoid the library's algorithms: cliques are
checked by full subset enumeration, tuple existence by enumerating every
m-subset of missing edges through the exhaustive verifier.  Expected
values frozen in the test modules were computed with these.
``reference_find_complete_tuple`` is the one-candidate-at-a-time
backtracking that the bitset ``find_complete_tuple`` replaced, kept
unchanged so that verdicts, certificates and node counts can be compared.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from cliquecert import (
    CompleteTupleCertificate,
    InternalConsistencyError,
    KUniformHypergraph,
    TupleSearchResult,
    Verdict,
    verify_complete_tuple,
)
from cliquecert.core import Edge
from cliquecert.forbidden import DEFAULT_BUDGET


def graph(n: int, edges) -> KUniformHypergraph:
    return KUniformHypergraph.from_edges(n, 2, edges)


def cycle_graph(n: int) -> KUniformHypergraph:
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> KUniformHypergraph:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> KUniformHypergraph:
    return graph(n, combinations(range(n), 2))


def complete_kuniform(n: int, k: int) -> KUniformHypergraph:
    return KUniformHypergraph(n=n, k=k, edges=frozenset(combinations(range(n), k)))


def edgeless(n: int, k: int) -> KUniformHypergraph:
    return KUniformHypergraph(n=n, k=k, edges=frozenset())


def nine_vertex_example() -> KUniformHypergraph:
    """3-uniform on 9 vertices: all triples except three disjoint ones."""
    special = {(0, 1, 2), (3, 4, 5), (6, 7, 8)}
    edges = frozenset(t for t in combinations(range(9), 3) if t not in special)
    return KUniformHypergraph(n=9, k=3, edges=edges)


def random_hypergraph(rng: random.Random, n: int, k: int, p: float) -> KUniformHypergraph:
    edges = frozenset(e for e in combinations(range(n), k) if rng.random() < p)
    return KUniformHypergraph(n=n, k=k, edges=edges)


def relabel(H: KUniformHypergraph, perm: list[int]) -> KUniformHypergraph:
    edges = frozenset(tuple(sorted(perm[v] for v in e)) for e in H.edges)
    return KUniformHypergraph(n=H.n, k=H.k, edges=edges)


def brute_force_max_clique(H: KUniformHypergraph) -> int:
    """Largest clique size by descending subset enumeration (n <= 12)."""
    for size in range(H.n, -1, -1):
        for S in combinations(range(H.n), size):
            if H.is_clique(S):
                return size
    return 0


def brute_force_has_complete_tuple(H: KUniformHypergraph, m: int) -> bool:
    """Existence of a complete m-tuple by enumerating all missing m-subsets."""
    for tuples in combinations(H.missing, m):
        ok, _ = verify_complete_tuple(H, CompleteTupleCertificate(tuples))
        if ok:
            return True
    return False


def missing_inside(H: KUniformHypergraph, S) -> int:
    verts = sorted(S)
    return sum(1 for t in combinations(verts, H.k) if t not in H.edges)


def reference_find_complete_tuple(
    H: KUniformHypergraph, m: int, budget: int = DEFAULT_BUDGET
) -> TupleSearchResult:
    """Backtracking search for a complete m-tuple of missing edges.

    Missing edges are tried in lexicographic order and extended one at a
    time; candidates intersecting a chosen tuple are filtered eagerly, and
    each new tuple is admitted only if the transversal constraints it
    completes (k-subsets drawing k-1 earlier tuples plus the new one) are
    all edges.  The first certificate in this order is the canonical one.

    Every candidate considered costs one node against ``budget``.
    """
    if m < H.k:
        raise ValueError(f"m must be >= k = {H.k}, got {m}")
    k = H.k
    edges = H.edges
    chosen: list[Edge] = []
    nodes = 0
    out_of_budget = False

    def admissible(new: Edge) -> bool:
        # New constraints are exactly the k-subsets of a transversal that
        # include a vertex of `new`: pick k-1 of the chosen tuples, one
        # vertex from each, plus one vertex of `new`.
        if len(chosen) < k - 1:
            return True
        for idxs in combinations(range(len(chosen)), k - 1):
            for pick in product(*(chosen[i] for i in idxs)):
                for t in new:
                    if tuple(sorted(pick + (t,))) not in edges:
                        return False
        return True

    found: list[CompleteTupleCertificate] = []

    def backtrack(cands: list[Edge]) -> bool:
        nonlocal nodes, out_of_budget
        if len(chosen) == m:
            found.append(CompleteTupleCertificate(tuple(chosen)))
            return True
        if len(cands) < m - len(chosen):
            return False
        for idx, tau in enumerate(cands):
            nodes += 1
            if nodes > budget:
                out_of_budget = True
                return False
            if not admissible(tau):
                continue
            chosen.append(tau)
            tset = set(tau)
            rest = [c for c in cands[idx + 1 :] if tset.isdisjoint(c)]
            if backtrack(rest):
                return True
            chosen.pop()
            if out_of_budget:
                return False
        return False

    hit = backtrack(list(H.missing))
    if hit:
        cert = found[0]
        ok, reason = verify_complete_tuple(H, cert)
        if not ok:
            raise InternalConsistencyError(f"search produced an invalid certificate: {reason}", cert)
        return TupleSearchResult(Verdict.FOUND, cert, nodes)
    if out_of_budget:
        return TupleSearchResult(Verdict.EXHAUSTED, None, nodes)
    return TupleSearchResult(Verdict.ABSENT, None, nodes)
