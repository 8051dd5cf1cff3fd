"""Shared instance builders and independent brute-force oracles.

The oracles deliberately avoid the library's algorithms: cliques are
checked by full subset enumeration, tuple existence by enumerating every
m-subset of missing edges through the exhaustive verifier.  Expected
values frozen in the test modules were computed with these.
``reference_find_complete_tuple`` is the one-candidate-at-a-time
backtracking that the bitset ``find_complete_tuple`` replaced, kept
unchanged so that verdicts, certificates and node counts can be compared.
The other ``reference_*`` functions are the subset-scanning kernels that
the link-index kernels replaced (m-clique family, tau scores, shrink step,
greedy and maximum clique, graph extraction) and the all-subsets nerve
construction that the pairwise one replaced, kept unchanged for the same
purpose.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterable

from cliquecert import (
    BoxFamily,
    CliqueWitness,
    CompleteTupleCertificate,
    InternalConsistencyError,
    KUniformHypergraph,
    NoProgressError,
    ShrinkResult,
    TupleSearchResult,
    Verdict,
    boxes_intersect,
    meets_theorem1_bound,
    theorem1_bound,
    verify_complete_tuple,
)
from cliquecert.core import Edge
from cliquecert.extractor import GraphExtractionOutcome, GraphTrace, _ordered_scores
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


def reference_m_clique_family(H: KUniformHypergraph, m: int) -> tuple[Edge, ...]:
    """All m-subsets forming cliques, in lexicographic order."""
    if m < H.k:
        raise ValueError(f"m must be >= k = {H.k}, got {m}")
    edges = H.edges
    k = H.k
    return tuple(
        S for S in combinations(range(H.n), m) if all(t in edges for t in combinations(S, k))
    )


def reference_max_clique(H: KUniformHypergraph) -> CliqueWitness:
    """Exact maximum clique by branch and bound over candidate lists."""
    n, k = H.n, H.k
    edges = H.edges
    best = list(range(min(n, k - 1)))

    def search(clique: list[int], cands: list[int]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = clique.copy()
        for idx, v in enumerate(cands):
            if len(clique) + len(cands) - idx <= len(best):
                break
            nxt = [
                u
                for u in cands[idx + 1 :]
                if all(s + (v, u) in edges for s in combinations(clique, k - 2))
            ]
            clique.append(v)
            search(clique, nxt)
            clique.pop()

    search([], list(range(n)))
    return CliqueWitness(tuple(best))


def reference_greedy_extend_clique(
    H: KUniformHypergraph, base: Iterable[int] = ()
) -> tuple[int, ...]:
    """Extend a clique to a maximal one, trying vertices in ascending order."""
    clique = sorted(set(base))
    cset = set(clique)
    for v in range(H.n):
        if v in cset:
            continue
        if all(tuple(sorted(s + (v,))) in H.edges for s in combinations(clique, H.k - 1)):
            clique.append(v)
            clique.sort()
            cset.add(v)
    return tuple(clique)


def reference_score_tau(H: KUniformHypergraph, family: Iterable[Edge]) -> dict[Edge, int]:
    """Score each missing edge tau by |{sigma : tau inside N_sigma}|, scanning
    every (i-1)-subset sigma of the vertex set."""
    fam = family if isinstance(family, (set, frozenset)) else set(map(tuple, family))
    if not fam:
        return {}
    arities = {len(t) for t in fam}
    if len(arities) != 1:
        raise ValueError(f"family is not uniform: arities {sorted(arities)}")
    i = arities.pop()
    if i < 2:
        raise ValueError(f"family arity must be >= 2, got {i}")
    edges = H.edges
    k = H.k
    scores: dict[Edge, int] = {}
    for sigma in combinations(range(H.n), i - 1):
        sigset = set(sigma)
        nb = [
            x
            for x in range(H.n)
            if x not in sigset and tuple(sorted(sigma + (x,))) in fam
        ]
        for tau in combinations(nb, k):
            if tau not in edges:
                scores[tau] = scores.get(tau, 0) + 1
    return scores


def reference_shrink_step(
    H: KUniformHypergraph, family: Iterable[Edge], forbidden_taus: Iterable[Edge] = ()
) -> ShrinkResult:
    """One round of the iterated extraction, scanning every (i-1)-subset."""
    fam = family if isinstance(family, (set, frozenset)) else set(map(tuple, family))
    if not fam:
        raise NoProgressError("family is empty")
    scores = reference_score_tau(H, fam)
    if not scores:
        raise NoProgressError("no tuple neighborhood contains a missing edge")
    top = max(scores.values())
    tau = min(t for t, s in scores.items() if s == top)
    for prev in forbidden_taus:
        if set(prev) & set(tau):
            raise InternalConsistencyError(
                f"chosen missing edge {tau} intersects previously chosen {prev}"
            )
    i = len(next(iter(fam)))
    shrunk = tuple(
        sigma
        for sigma in combinations(range(H.n), i - 1)
        if all(tuple(sorted(sigma + (t,))) in fam for t in tau)
    )
    return ShrinkResult(tau=tau, family=shrunk, scores=scores)


def reference_extract_graph(G: KUniformHypergraph) -> GraphExtractionOutcome:
    """Graph extraction over neighbourhood sets and the missing-edge list."""
    if G.k != 2:
        raise ValueError(f"graph extraction requires k = 2, got k = {G.k}")
    n = G.n
    miss = G.missing
    alpha = G.edge_density()
    bound = theorem1_bound(float(alpha))

    if not miss:
        witness = CliqueWitness(tuple(range(n)))
        trace = GraphTrace(
            mu_by_vertex=(0,) * n,
            missing_in_neighborhood=(0,) * n,
            tau_scores=(),
            chosen_tau=None,
            alpha=alpha,
            bound=bound,
            bound_met=True,
        )
        return GraphExtractionOutcome("clique", witness, None, trace)

    nbr: list[set[int]] = [set() for _ in range(n)]
    for a, b in G.edges:
        nbr[a].add(b)
        nbr[b].add(a)
    mu: list[int] = []
    m_counts: list[int] = []
    candidates: list[tuple[int, ...]] = []
    for v in range(n):
        nv = nbr[v]
        inside = [e for e in miss if e[0] in nv and e[1] in nv]
        used: set[int] = set()
        matched = 0
        for e in inside:
            if used.isdisjoint(e):
                used.update(e)
                matched += 1
        uncovered = sorted(nv - used)
        mu.append(matched)
        m_counts.append(len(inside))
        candidates.append(tuple(sorted(uncovered + [v])))

    common: dict[Edge, set[int]] = {}
    for tau in miss:
        a, b = tau
        common[tau] = nbr[a] & nbr[b]
    top = max(len(s) for s in common.values())
    tau_star = next(t for t in miss if len(common[t]) == top)
    scores = _ordered_scores({t: len(s) for t, s in common.items()})

    s_star = sorted(common[tau_star])
    ebar = next((e for e in combinations(s_star, 2) if e not in G.edges), None)
    if ebar is not None:
        cert = CompleteTupleCertificate((tau_star, ebar))
        trace = GraphTrace(
            mu_by_vertex=tuple(mu),
            missing_in_neighborhood=tuple(m_counts),
            tau_scores=scores,
            chosen_tau=tau_star,
            alpha=alpha,
            bound=bound,
            bound_met=True,
        )
        return GraphExtractionOutcome("certificate", None, cert, trace)

    for tau, s in common.items():
        sv = sorted(s)
        if all(e in G.edges for e in combinations(sv, 2)):
            candidates.append(tuple(sv))
    best_size = max(len(c) for c in candidates)
    best = min(c for c in candidates if len(c) == best_size)
    witness = CliqueWitness(reference_greedy_extend_clique(G, best))
    trace = GraphTrace(
        mu_by_vertex=tuple(mu),
        missing_in_neighborhood=tuple(m_counts),
        tau_scores=scores,
        chosen_tau=tau_star,
        alpha=alpha,
        bound=bound,
        bound_met=meets_theorem1_bound(len(witness), n, alpha),
    )
    return GraphExtractionOutcome("clique", witness, None, trace)


def reference_nerve_edges(family: BoxFamily) -> frozenset[Edge]:
    """The nerve's edges by testing every (d+1)-subfamily for a common point."""
    k = family.d + 1
    return frozenset(
        idx
        for idx in combinations(range(len(family.boxes)), k)
        if boxes_intersect([family.boxes[i] for i in idx]) is not None
    )
