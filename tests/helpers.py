"""Shared instance builders and independent brute-force oracles.

The oracles deliberately avoid the library's algorithms: cliques are
checked by full subset enumeration, tuple existence by enumerating every
m-subset of missing edges through the exhaustive verifier.  Expected
values frozen in the test modules were computed with these.
``reference_find_complete_tuple`` is the one-candidate-at-a-time
backtracking that the bitset ``find_complete_tuple`` replaced, kept
unchanged so that verdicts and certificates can be compared, and node
counts at k >= 3 (at k = 2 the search counts the missing pairs its
vertex-mask walk tries);
``reference_link_core`` peels one vertex at a time from every vertex,
against the search's memoised cores.
The other ``reference_*`` functions are the subset-scanning kernels that
the link-index kernels replaced (m-clique family, tau scores, shrink step,
greedy and maximum clique, graph extraction, and the iterated extraction
that listed F_m for its first round), the all-subsets nerve
construction that the pairwise one replaced, the set-based missing-edge
matching and tuple neighbourhood that the mask-based ones replaced, and
the lo-corner grid sweep that ``max_clique`` on the pairwise-intersection
graph replaced, and the per-edge link index build that the k = 2 index
from adjacency rows replaced, kept unchanged for the same purpose.  ``reference_check_edges`` and ``reference_load_edges`` are the per-edge
loops that the constructor and the loader ran before their bulk edge
check, kept unchanged to compare edge sets and error messages;
``reference_check_complete_tuple`` is the in-order walk that the bulk
certificate check replaced, kept for the same purpose.  The instance
builders ``from_edges`` and ``all_graphs``, the Lemma 3.1 floor and the
exact chordal and Kalai checks serve only the tests, so they live here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Optional

from cliquecert import (
    BoxFamily,
    CliqueWitness,
    CompleteTupleCertificate,
    Density,
    InputFormatError,
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
from cliquecert.bounds import beta_recursion, meets_beta_bound
from cliquecert.core import Edge
from cliquecert.extractor import ExtractionOutcome, GraphTrace, HypergraphTrace, _ordered_scores
from cliquecert.forbidden import DEFAULT_BUDGET


def from_edges(n: int, k: int, edges: Iterable[Iterable[int]]) -> KUniformHypergraph:
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
    return KUniformHypergraph(n=n, k=k, edges=frozenset(canon))


def all_graphs(n: int) -> Iterator[KUniformHypergraph]:
    """Every 2-uniform hypergraph on n labelled vertices, by edge bitmask."""
    positions = list(combinations(range(n), 2))
    for mask in range(1 << len(positions)):
        edges = frozenset(pos for i, pos in enumerate(positions) if mask >> i & 1)
        yield KUniformHypergraph(n=n, k=2, edges=edges)


def graph(n: int, edges) -> KUniformHypergraph:
    return from_edges(n, 2, edges)


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


def reference_links(H: KUniformHypergraph) -> dict[int, int]:
    """The link index as ``KUniformHypergraph.links`` built it for every k
    before it built the k = 2 index from adjacency rows: one pass per edge."""
    links: dict[int, int] = {}
    for e in H.edges:
        em = 0
        for v in e:
            em |= 1 << v
        for v in e:
            s = em ^ 1 << v
            links[s] = links.get(s, 0) | 1 << v
    return links


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


def reference_link_core(n: int, k: int, is_edge, p: int) -> int:
    """The vertex mask of the k-core of the link graph of the (k-2)-set
    with vertex mask ``p``: the vertices off p, t ~ u when p + t + u is an
    edge, ``is_edge`` asked about sorted k-tuples."""
    pick = {v for v in range(n) if p >> v & 1}
    left = set(range(n)) - pick

    def degree(t: int) -> int:
        return sum(is_edge(tuple(sorted(pick | {t, u}))) for u in left if u != t)

    # Drop the lowest vertex with fewer than k neighbours left, one at a
    # time, until every vertex left has k.
    while True:
        weak = [t for t in sorted(left) if degree(t) < k]
        if not weak:
            return sum(1 << v for v in left)
        left.remove(weak[0])


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


def reference_extract_graph(G: KUniformHypergraph) -> ExtractionOutcome:
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
        return ExtractionOutcome("clique", witness, None, trace)

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
        return ExtractionOutcome("certificate", None, cert, trace)

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
    return ExtractionOutcome("clique", witness, None, trace)


def reference_extract_hypergraph(H: KUniformHypergraph, m: int) -> ExtractionOutcome:
    """The iterated extraction as it ran when every round listed its
    family: F_m in full, then m - 1 subset-scanning shrink rounds."""
    if m < H.k:
        raise ValueError(f"m must be >= k = {H.k}, got {m}")
    n, k = H.n, H.k
    taus: list[Edge] = []
    tables = []
    cert = None
    fallback = False
    if len(H.edges) == math.comb(n, k):
        sizes = [math.comb(n, m)]
        alpha = Fraction(1)
        clique = tuple(range(n))
    else:
        fam = reference_m_clique_family(H, m)
        sizes = [len(fam)]
        alpha = Fraction(len(fam), math.comb(n, m)) if fam else Fraction(0)
        clique = reference_greedy_extend_clique(H, ())
        for _ in range(m - 1):
            if fam:
                cand = reference_greedy_extend_clique(H, fam[0])
                if len(cand) > len(clique):
                    clique = cand
            try:
                step = reference_shrink_step(H, fam, taus)
            except NoProgressError:
                fallback = True
                break
            taus.append(step.tau)
            fam = step.family
            sizes.append(len(fam))
            tables.append(_ordered_scores(step.scores))
        else:
            f1 = sorted(s[0] for s in fam)
            tau_m = next((e for e in combinations(f1, k) if e not in H.edges), None)
            if tau_m is None:
                clique = reference_greedy_extend_clique(H, f1)
            else:
                cert = CompleteTupleCertificate((*taus, tau_m))
                ok, reason = verify_complete_tuple(H, cert)
                assert ok, reason
    beta = beta_recursion(float(alpha), k, m) if alpha else 0.0
    trace = HypergraphTrace(
        chosen_taus=tuple(taus),
        family_sizes=tuple(sizes),
        round_scores=tuple(tables),
        alpha=alpha,
        beta=beta,
        expected_bound=beta * n,
        bound_met=cert is not None or meets_beta_bound(len(clique), n, alpha, k, m),
        fallback=fallback,
    )
    if cert is None:
        return ExtractionOutcome("clique", CliqueWitness(clique), None, trace)
    return ExtractionOutcome("certificate", None, cert, trace)


def reference_check_complete_tuple(
    n: int, k: int, is_edge, cert: CompleteTupleCertificate
) -> tuple[bool, Optional[str]]:
    """``check_complete_tuple`` as one walk over the conditions in their
    documented order, every transversal enumerated in full."""
    m = cert.m
    if m < k:
        raise ValueError(f"certificate has m = {m} < k = {k}")
    for t in cert.tuples:
        if len(t) != k or len(set(t)) != k:
            raise ValueError(f"tuple {t} is not a {k}-subset")
    for i, j in combinations(range(m), 2):
        if set(cert.tuples[i]) & set(cert.tuples[j]):
            return False, f"tuples {cert.tuples[i]} and {cert.tuples[j]} are not disjoint"
    for t in cert.tuples:
        if min(t) < 0 or max(t) >= n:
            return False, f"{t} has a vertex outside [0, {n})"
        if is_edge(tuple(sorted(t))):
            return False, f"{t} is not a missing edge"
    for transversal in product(*cert.tuples):
        vs = sorted(transversal)
        if not all(is_edge(s) for s in combinations(vs, k)):
            return False, f"transversal {tuple(vs)} is not a clique"
    return True, None


def reference_check_edges(n: int, k: int, edges: frozenset) -> None:
    """``KUniformHypergraph``'s edge checks, one Python loop step per edge."""
    for e in edges:
        if len(e) != k:
            raise InputFormatError(f"edge {e} has {len(e)} vertices, expected {k}")
        if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            raise InputFormatError(f"edge {e} is not strictly increasing")
        if e[0] < 0 or e[-1] >= n:
            raise InputFormatError(f"edge {e} has a vertex outside [0, {n})")


def reference_load_edges(obj: dict) -> frozenset[Edge]:
    """The edge set of an instance document with valid "n" and "k" and one
    list under "edges" or "missing", read one entry at a time."""
    n, k = obj["n"], obj["k"]
    key = "edges" if "edges" in obj else "missing"
    edges: list[Edge] = []
    seen: dict[Edge, int] = {}
    for pos, entry in enumerate(obj[key]):
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
    if key == "edges":
        return frozenset(edges)
    missing = set(edges)
    return frozenset(e for e in combinations(range(n), k) if e not in missing)


def reference_nerve_edges(family: BoxFamily) -> frozenset[Edge]:
    """The nerve's edges by testing every (d+1)-subfamily for a common point."""
    k = family.d + 1
    return frozenset(
        idx
        for idx in combinations(range(len(family.boxes)), k)
        if boxes_intersect([family.boxes[i] for i in idx]) is not None
    )


def reference_max_intersecting_subfamily(family: BoxFamily) -> tuple[int, tuple[int, ...]]:
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


def reference_maximal_missing_matching(H: KUniformHypergraph, S: Iterable[int]) -> list[Edge]:
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


def reference_neighborhood_of_tuple(
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


def lemma31_lower_bound(s: int, omega: int, k: int, m: int) -> float:
    """Missing-edge count floor for any s-vertex subset of an instance with
    clique number omega and no complete m-tuple of missing edges:
    C(m,k)^-1 * extended_binom((s - omega)/k, k).  Zero when s <= omega
    (the bound is vacuous there)."""
    if s <= omega:
        return 0.0
    return ext_binom((s - omega) / k, k) / math.comb(m, k)


def meets_chordal_bound(size: int, n: int, alpha: Density) -> bool:
    """Exactly decide size/n >= 1 - sqrt(1 - alpha)."""
    if n == 0:
        return True
    u = 1 - Fraction(alpha)
    t = 1 - Fraction(size, n)
    if t <= 0:
        return True
    return u >= t * t


def meets_kalai_bound_with_slack(size: int, n: int, alpha: Density, d: int) -> bool:
    """Exactly decide size/n >= 1 - (1-alpha)^(1/(d+1)) - 1/n.

    The 1/n slack absorbs integrality of the subfamily size.  Rearranged to
    (1-alpha) >= ((n - size - 1)/n)^(d+1), decided in rationals.
    """
    if n == 0:
        return True
    q = Fraction(n - size - 1, n)
    if q <= 0:
        return True
    return 1 - Fraction(alpha) >= q ** (d + 1)
