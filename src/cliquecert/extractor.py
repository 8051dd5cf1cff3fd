"""Constructive clique extraction.

Two algorithms, one contract: given an instance, return either a verified
clique witness or a verified complete-tuple certificate, together with a
trace of the counting state that produced it.

``extract_graph`` is the k = 2 algorithm.  For every vertex it takes the
part of the neighborhood left uncovered by a greedy maximal matching of
missing edges (a clique), scores every missing edge tau by the number of
vertices whose neighborhood contains both endpoints, and inspects the
top-scoring tau: if the common neighborhood S_tau itself contains a missing
edge, the pair is an induced K_{2,2} certificate; otherwise the best
candidate clique is returned.  When the input has no induced K_{2,2} the
returned clique provably has at least (1 - sqrt(1 - alpha))^2 * n vertices.

``extract_hypergraph`` iterates the same idea: starting from the family of
all m-cliques, each shrink step picks the missing edge tau lying inside the
most tuple-neighborhoods and restricts the family to those tuples, picking
up one tau per round.  After m-1 rounds the surviving vertex set either
contains a missing edge (completing a certificate) or is itself a clique.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Literal, Optional

from .bounds import beta_recursion, meets_theorem1_bound, theorem1_bound
from .core import (
    CliqueWitness,
    Density,
    Edge,
    InternalConsistencyError,
    KUniformHypergraph,
    SizeRefusalError,
    greedy_extend_clique,
    m_clique_family,
    mask_vertices,
)
from .forbidden import CompleteTupleCertificate, verify_complete_tuple

DEFAULT_MAX_FAMILY = 2_000_000

ScoreTable = tuple[tuple[Edge, int], ...]


class NoProgressError(Exception):
    """A shrink step found no missing edge inside any tuple neighborhood."""


@dataclass(frozen=True)
class GraphTrace:
    """Counting state of a graph extraction.

    mu_by_vertex[v] is the greedy matching size inside N_v and
    missing_in_neighborhood[v] the number of missing edges there; the two
    satisfy sum(missing_in_neighborhood) == sum of tau scores.  chosen_tau
    is the lexicographically first top-scoring missing edge (None when the
    graph is complete).  bound_met is decided exactly in rationals; for
    certificate outcomes it is vacuously True (the dichotomy is satisfied
    by the certificate, no clique size is promised).
    """

    mu_by_vertex: tuple[int, ...]
    missing_in_neighborhood: tuple[int, ...]
    tau_scores: ScoreTable
    chosen_tau: Optional[Edge]
    alpha: Density
    bound: float
    bound_met: bool


@dataclass(frozen=True)
class GraphExtractionOutcome:
    kind: Literal["clique", "certificate"]
    clique: Optional[CliqueWitness]
    certificate: Optional[CompleteTupleCertificate]
    trace: GraphTrace


@dataclass(frozen=True)
class HypergraphTrace:
    """Counting state of the iterated extraction.

    family_sizes lists |F_m|, |F_{m-1}|, ..., down to the last family
    reached; round_scores holds one score table per completed shrink round.
    beta is the recursion bound at the instance's exact m-clique density and
    expected_bound is beta * n.  fallback marks runs where a shrink round
    stalled (legitimate at small n) and the best greedy clique seen so far
    was returned instead.
    """

    chosen_taus: tuple[Edge, ...]
    family_sizes: tuple[int, ...]
    round_scores: tuple[ScoreTable, ...]
    alpha: Density
    beta: float
    expected_bound: float
    bound_met: bool
    fallback: bool


@dataclass(frozen=True)
class HypergraphExtractionOutcome:
    kind: Literal["clique", "certificate"]
    clique: Optional[CliqueWitness]
    certificate: Optional[CompleteTupleCertificate]
    trace: HypergraphTrace


@dataclass(frozen=True)
class ShrinkResult:
    tau: Edge
    family: tuple[Edge, ...]
    scores: dict[Edge, int]


def _tuple_neighbourhoods(H: KUniformHypergraph, family: Iterable[Edge]) -> dict[int, int]:
    """N_sigma for every sigma with a nonempty one, as vertex bitmasks.

    Keys are the (i-1)-subsets sigma of the family's members, values the
    vertices x with sigma + {x} in the family: each member S gives bit x to
    N[S - x] for each x in S.  Members are vertex sets of one arity i >= 2
    inside [0, n).
    """
    fam = family if isinstance(family, (set, frozenset, tuple, list)) else list(family)
    if not fam:
        return {}
    arities = {len(t) for t in fam}
    if len(arities) != 1:
        raise ValueError(f"family is not uniform: arities {sorted(arities)}")
    i = arities.pop()
    if i < 2:
        raise ValueError(f"family arity must be >= 2, got {i}")
    limit = 1 << H.n
    nbhd: dict[int, int] = {}
    for S in fam:
        sm = 0
        for x in S:
            sm |= 1 << x
        if sm >= limit or sm.bit_count() != i:
            raise ValueError(f"family member {S} is not a set of {i} vertices in [0, {H.n})")
        for x in S:
            b = 1 << x
            nbhd[sm ^ b] = nbhd.get(sm ^ b, 0) | b
    return nbhd


def score_tau(H: KUniformHypergraph, family: Iterable[Edge]) -> dict[Edge, int]:
    """Score each missing edge tau by |{sigma : tau inside N_sigma}|.

    sigma ranges over all (i-1)-subsets of the vertex set, where i is the
    family's arity, and N_sigma = {x : sigma + {x} in family}.  Only missing
    edges with positive score appear in the map; the score total equals the
    number of (sigma, tau) incidences.  The missing edges inside N_sigma
    are listed by (k-1)-subsets s of N_sigma, each completed by the
    vertices of N_sigma above s and outside its link.
    """
    k, links = H.k, H.links
    counts: Counter[int] = Counter()
    for nb in _tuple_neighbourhoods(H, family).values():
        if nb.bit_count() >= k:
            found: list[int] = []
            _missing_inside(links, 0, nb, k - 1, found)
            counts.update(found)
    return {mask_vertices(tau): c for tau, c in counts.items()}


def _missing_inside(
    links: dict[int, int], s: int, rest: int, depth: int, found: list[int]
) -> None:
    # Appends the missing k-sets made of the vertex mask s and depth + 1
    # vertices of rest above it, each as a vertex mask.
    while rest:
        low = rest & -rest
        rest ^= low
        t = s | low
        if depth == 1:
            miss = rest & ~links.get(t, 0)
            while miss:
                last = miss & -miss
                miss ^= last
                found.append(t | last)
        elif rest.bit_count() >= depth:
            _missing_inside(links, t, rest, depth - 1, found)


def shrink_step(
    H: KUniformHypergraph, family: Iterable[Edge], forbidden_taus: Iterable[Edge] = ()
) -> ShrinkResult:
    """One round of the iterated extraction.

    Picks the top-scoring missing edge tau (ties broken lexicographically)
    and restricts to the family of (i-1)-subsets sigma with tau inside
    N_sigma, in lexicographic order; every surviving sigma then satisfies
    sigma + {t} in family for all t in tau.  The chosen tau is necessarily
    disjoint from all previously chosen ones; a violation means the family
    invariant was broken upstream and raises.

    Raises NoProgressError when the family is empty or no neighborhood
    contains a missing edge.
    """
    fam = family if isinstance(family, (set, frozenset, tuple, list)) else list(family)
    if not fam:
        raise NoProgressError("family is empty")
    scores = score_tau(H, fam)
    if not scores:
        raise NoProgressError("no tuple neighborhood contains a missing edge")
    top = max(scores.values())
    tau = min(t for t, s in scores.items() if s == top)
    for prev in forbidden_taus:
        if set(prev) & set(tau):
            raise InternalConsistencyError(
                f"chosen missing edge {tau} intersects previously chosen {prev}"
            )
    tmask = sum(1 << t for t in tau)
    shrunk = sorted(
        mask_vertices(sigma)
        for sigma, nb in _tuple_neighbourhoods(H, fam).items()
        if nb & tmask == tmask
    )
    return ShrinkResult(tau=tau, family=tuple(shrunk), scores=scores)


def _ordered_scores(scores: dict[Edge, int]) -> ScoreTable:
    return tuple(sorted(scores.items()))


def _first_missing_pair(adj: list[int], within: int) -> Optional[Edge]:
    """The lexicographically first missing edge inside a vertex mask."""
    rest = within
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        non = rest & ~adj[a]
        if non:
            return (a, (non & -non).bit_length() - 1)
    return None


def extract_graph(G: KUniformHypergraph) -> GraphExtractionOutcome:
    """Graph extraction (k = 2): verified clique or induced-K_{2,2} certificate.

    Guarantee, testable on every input: if G has no induced K_{2,2}, the
    result is a clique with at least (1 - sqrt(1 - alpha))^2 * n vertices,
    alpha = |E| / C(n,2) exactly.  A certificate is returned exactly when
    the common neighborhood of the top-scoring missing edge contains a
    missing edge, which keeps the verdict class aligned with
    ``extract_hypergraph`` at m = 2.
    """
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

    adj = [G.links.get(1 << v, 0) for v in range(n)]
    mu: list[int] = []
    m_counts: list[int] = []
    candidates: list[tuple[int, ...]] = []
    for v in range(n):
        # Missing edges inside N_v in lexicographic order, by first vertex a:
        # a greedy matching takes (a, b) for the least free b, if a is free.
        used = 0
        matched = 0
        inside = 0
        rest = adj[v]
        while rest:
            low = rest & -rest
            rest ^= low
            non = rest & ~adj[low.bit_length() - 1]
            inside += non.bit_count()
            free = non & ~used
            if free and not used & low:
                used |= low | (free & -free)
                matched += 1
        mu.append(matched)
        m_counts.append(inside)
        candidates.append(mask_vertices(adj[v] & ~used | 1 << v))

    common = {tau: adj[tau[0]] & adj[tau[1]] for tau in miss}
    top = max(s.bit_count() for s in common.values())
    tau_star = next(t for t in miss if common[t].bit_count() == top)
    scores = _ordered_scores({t: s.bit_count() for t, s in common.items()})

    ebar = _first_missing_pair(adj, common[tau_star])
    if ebar is not None:
        cert = CompleteTupleCertificate((tau_star, ebar))
        ok, reason = verify_complete_tuple(G, cert)
        if not ok:
            raise InternalConsistencyError(f"graph certificate failed verification: {reason}", cert)
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

    for s in common.values():
        if _first_missing_pair(adj, s) is None:
            candidates.append(mask_vertices(s))
    best_size = max(len(c) for c in candidates)
    best = min(c for c in candidates if len(c) == best_size)
    witness = CliqueWitness(greedy_extend_clique(G, best))
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


def extract_hypergraph(
    H: KUniformHypergraph, m: int, *, max_family_subsets: int = DEFAULT_MAX_FAMILY
) -> HypergraphExtractionOutcome:
    """Iterated extraction: verified clique or complete-m-tuple certificate.

    Builds the family of all m-cliques, applies ``shrink_step`` m-1 times
    collecting one missing edge per round, and inspects the surviving
    vertex set F_1: a missing edge inside it completes a certificate,
    otherwise F_1 is a clique and is greedily extended.  A stalled round
    (no scoring missing edge, or an empty family) returns the best greedy
    clique seen so far with the fallback flag set; small instances stall
    legitimately since the shrink guarantee is asymptotic.
    """
    if m < H.k:
        raise ValueError(f"m must be >= k = {H.k}, got {m}")
    n, k = H.n, H.k
    total = math.comb(n, m)
    if total > max_family_subsets:
        raise SizeRefusalError(
            f"enumerating C({n},{m}) = {total} m-subsets exceeds the cap of "
            f"{max_family_subsets}; raise max_family_subsets to proceed"
        )

    if len(H.edges) == math.comb(n, k):
        alpha = Fraction(1)
        beta = beta_recursion(1.0, k, m)
        trace = HypergraphTrace(
            chosen_taus=(),
            family_sizes=(total,),
            round_scores=(),
            alpha=alpha,
            beta=beta,
            expected_bound=beta * n,
            bound_met=True,
            fallback=False,
        )
        return HypergraphExtractionOutcome("clique", CliqueWitness(tuple(range(n))), None, trace)

    fam = m_clique_family(H, m)
    cm = len(fam)
    alpha = Fraction(cm, total) if total else Fraction(0)
    beta = beta_recursion(float(alpha), k, m) if cm > 0 else 0.0
    expected = beta * n

    sizes = [cm]
    taus: list[Edge] = []
    tables: list[ScoreTable] = []
    best = greedy_extend_clique(H, ())
    fallback = False

    for _ in range(m - 1):
        if fam:
            cand = greedy_extend_clique(H, fam[0])
            if len(cand) > len(best):
                best = cand
        try:
            if not fam:
                raise NoProgressError("family is empty")
            step = shrink_step(H, fam, taus)
        except NoProgressError:
            fallback = True
            break
        taus.append(step.tau)
        fam = step.family
        sizes.append(len(fam))
        tables.append(_ordered_scores(step.scores))

    def _trace(bound_met: bool) -> HypergraphTrace:
        return HypergraphTrace(
            chosen_taus=tuple(taus),
            family_sizes=tuple(sizes),
            round_scores=tuple(tables),
            alpha=alpha,
            beta=beta,
            expected_bound=expected,
            bound_met=bound_met,
            fallback=fallback,
        )

    if fallback:
        witness = CliqueWitness(best)
        return HypergraphExtractionOutcome("clique", witness, None, _trace(len(best) >= expected))

    f1 = tuple(sorted(s[0] for s in fam))
    tau_m = next((t for t in combinations(f1, k) if t not in H.edges), None)
    if tau_m is not None:
        cert = CompleteTupleCertificate(tuple(taus) + (tau_m,))
        ok, reason = verify_complete_tuple(H, cert)
        if not ok:
            raise InternalConsistencyError(
                f"iterated extraction produced an invalid certificate: {reason}", cert
            )
        return HypergraphExtractionOutcome("certificate", None, cert, _trace(True))

    witness = CliqueWitness(greedy_extend_clique(H, f1))
    return HypergraphExtractionOutcome("clique", witness, None, _trace(len(witness) >= expected))
