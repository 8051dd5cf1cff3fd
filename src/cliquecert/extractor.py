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

A round scores missing edges from the transposed incidence, as bit-parallel
clique solvers do (San Segundo et al. 2011): each sigma of the round gets a
position j, and col[x] is the mask of the positions whose N_sigma holds x.
The score of tau is then popcount(AND of col[t] for t in tau), one big-int
AND per candidate missing k-set, and the surviving sigma are the positions
in that AND for the chosen tau.  Rounds 2 to m-1 fill the columns from the
family the round before returned.  Round 1 never lists the m-clique family
F_m.  At m = k it reads the link index: N_sigma is the link of the
(k-1)-set sigma, so at k = 2 the columns are the adjacency rows, and at
k >= 3 the links are rows to transpose.  At m > k its sigma are the
(m-1)-cliques with a nonempty N_sigma, which is the AND of the links of
sigma's (k-1)-subsets.  Rows N_sigma become the columns in bulk transposes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Literal, NamedTuple, Optional, Union

from . import core
from .bounds import beta_recursion, meets_beta_bound, meets_theorem1_bound, theorem1_bound
from .core import (
    CliqueWitness,
    Density,
    Edge,
    InternalConsistencyError,
    KUniformHypergraph,
    WorkMeter,
    clique_extensions,
    comb_exceeds,
    first_missing_edge,
    greedy_extend_clique,
    m_clique_family,
    mask_vertices,
    maximal_missing_matching,
    popcount_sum,
    refuse_deep_clique,
    refuse_over_cap,
)
from .forbidden import CompleteTupleCertificate, certify, verify_complete_tuple

ScoreTable = tuple[tuple[Edge, int], ...]

SCORE_STEPS = "the tau score step count of the shrink rounds"

# Round 1 turns its rows into columns this many binary digits at a time,
# which bounds the strings ``_transpose`` makes.
TRANSPOSE_CELLS = 1 << 20


class NoProgressError(Exception):
    """A shrink step found no missing edge inside any tuple neighborhood."""


class GraphTrace(NamedTuple):
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


class HypergraphTrace(NamedTuple):
    """Counting state of the iterated extraction.

    family_sizes lists |F_m|, |F_{m-1}|, ..., down to the last family
    reached; round_scores holds one score table per completed shrink round.
    beta is the recursion bound at the instance's exact m-clique density and
    expected_bound is beta * n, both floats for the report; bound_met
    compares the clique size with beta * n exactly (``meets_beta_bound``),
    and is vacuously True for a certificate.  fallback marks runs where a
    shrink round stalled (legitimate at small n) and the best greedy
    clique seen so far was returned instead.
    """

    chosen_taus: tuple[Edge, ...]
    family_sizes: tuple[int, ...]
    round_scores: tuple[ScoreTable, ...]
    alpha: Density
    beta: float
    expected_bound: float
    bound_met: bool
    fallback: bool


class ExtractionOutcome(NamedTuple):
    """A verified clique or certificate and the trace that produced it: a
    GraphTrace from ``extract_graph``, a HypergraphTrace from
    ``extract_hypergraph``."""

    kind: Literal["clique", "certificate"]
    clique: Optional[CliqueWitness]
    certificate: Optional[CompleteTupleCertificate]
    trace: Union[GraphTrace, HypergraphTrace]


class ShrinkResult(NamedTuple):
    tau: Edge
    family: tuple[Edge, ...]
    scores: dict[Edge, int]


def score_tau(H: KUniformHypergraph, family: Iterable[Edge]) -> dict[Edge, int]:
    """Score each missing edge tau by |{sigma : tau inside N_sigma}|.

    sigma ranges over all (i-1)-subsets of the vertex set, where i is the
    family's arity, and N_sigma = {x : sigma + {x} in family}.  Only missing
    edges with positive score appear in the map; the score total equals the
    number of (sigma, tau) incidences.

    The count is read off the transposed incidence: number the sigma with a
    nonempty N_sigma 0, 1, 2, ... and let col[x] be the mask of the numbers
    whose N_sigma holds x.  Then tau lies inside exactly the N_sigma numbered
    in the AND of col[t] over t in tau, and its score is that AND's popcount.
    """
    return _scores(H, _columns(H, family)[1], WorkMeter(SCORE_STEPS))


def _columns(H: KUniformHypergraph, family: Iterable[Edge]) -> tuple[list[int], list[int]]:
    # The sigma with a nonempty N_sigma, as vertex masks in position order,
    # and for each vertex x the mask of the positions whose N_sigma holds x,
    # in one pass: each member S numbers every S - x by first appearance
    # and sets that position's bit in col[x].  Members are vertex sets of
    # one arity i >= 2 inside [0, n).
    pos: dict[int, int] = {}
    col = [0] * H.n
    limit = 1 << H.n
    i = None
    for S in family:
        if len(S) != i:
            if i is not None:
                raise ValueError(f"family is not uniform: arities {i} and {len(S)}")
            i = len(S)
            if i < 2:
                raise ValueError(f"family arity must be >= 2, got {i}")
        sm = 0
        try:
            for x in S:
                sm |= 1 << x
        except ValueError:  # a negative vertex
            sm = limit
        if sm >= limit or sm.bit_count() != i:
            raise ValueError(f"family member {S} is not a set of {i} vertices in [0, {H.n})")
        for x in S:
            col[x] |= 1 << pos.setdefault(sm ^ 1 << x, len(pos))
    return list(pos), col


def _scores(H: KUniformHypergraph, col: list[int], meter: WorkMeter) -> dict[Edge, int]:
    # The tau scores from the columns: one AND per missing k-set whose
    # (k-1)-prefix lies inside some N_sigma, charged to ``meter`` with the
    # walk's other ANDs (so the table, an entry per AND, stays under the cap).
    scores: dict[Edge, int] = {}
    support = sum(1 << x for x, c in enumerate(col) if c)
    _score_prefixes(H.links, col, (), 0, -1, support, H.k - 1, scores, meter)
    return scores


def _score_prefixes(
    links: dict[int, int], col: list[int], prefix: Edge, s: int, acc: int, rest: int,
    depth: int, scores: dict[Edge, int], meter: WorkMeter,
) -> None:
    # Extends the prefix s (vertex mask; ``prefix`` its vertices, ``acc``
    # the AND of their columns) by depth vertices of rest above it, and
    # scores every missing completion of a full (k-1)-prefix, charging the
    # AND per vertex of rest and per completion in bulk before it is taken.
    meter.charge(rest.bit_count())
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        a = acc & col[v]
        if not a:
            continue
        t = s | low
        if depth == 1:
            miss = rest & ~links.get(t, 0)
            meter.charge(miss.bit_count())
            while miss:
                b = miss & -miss
                miss ^= b
                w = b.bit_length() - 1
                c = (a & col[w]).bit_count()
                if c:
                    scores[(*prefix, v, w)] = c
        elif rest.bit_count() >= depth:
            _score_prefixes(links, col, (*prefix, v), t, a, rest, depth - 1, scores, meter)


def shrink_step(
    H: KUniformHypergraph, family: Iterable[Edge], forbidden_taus: Iterable[Edge] = (),
    meter: Optional[WorkMeter] = None,
) -> ShrinkResult:
    """One round of the iterated extraction.

    Picks the top-scoring missing edge tau (ties broken lexicographically)
    and restricts to the family of (i-1)-subsets sigma with tau inside
    N_sigma, in lexicographic order; every surviving sigma then satisfies
    sigma + {t} in family for all t in tau.  The chosen tau is necessarily
    disjoint from all previously chosen ones; a violation means the family
    invariant was broken upstream and raises.  Both the scores and the
    survivors are read from one set of columns (see ``score_tau``).  Each
    column AND of the score walk is charged to ``meter`` (a new one if
    None), which refuses past ``core.DEFAULT_MAX_FAMILY`` in all.

    Raises NoProgressError when the family is empty or no neighborhood
    contains a missing edge.
    """
    return _shrink(H, *_columns(H, family), forbidden_taus, meter or WorkMeter(SCORE_STEPS))


Sigmas = Union[list[int], dict[int, int]]


def _shrink(
    H: KUniformHypergraph, sigmas: Sigmas, col: list[int], forbidden_taus: Iterable[Edge],
    meter: WorkMeter,
) -> ShrinkResult:
    # shrink_step on a round's sigma (sigmas[j] is position j's, as a
    # vertex mask) and columns, whichever way they were built.
    if not sigmas:
        raise NoProgressError("family is empty")
    scores = _scores(H, col, meter)
    if not scores:
        raise NoProgressError("no tuple neighborhood contains a missing edge")
    top = max(scores.values())
    tau = min(t for t, s in scores.items() if s == top)
    for prev in forbidden_taus:
        if set(prev) & set(tau):
            raise InternalConsistencyError(
                f"chosen missing edge {tau} intersects previously chosen {prev}"
            )
    keep = -1
    for t in tau:
        keep &= col[t]
    shrunk = sorted(mask_vertices(sigmas[j]) for j in mask_vertices(keep))
    return ShrinkResult(tau=tau, family=tuple(shrunk), scores=scores)


def _first_round(
    H: KUniformHypergraph, m: int
) -> tuple[Sigmas, list[int], int, Optional[Edge]]:
    # Round 1's sigma (vertex masks) and columns, without listing F_m, and
    # |F_m| and F_m's lexicographically first member (None if F_m is
    # empty).  The order of the sigma reaches no report: scores are
    # popcounts and _shrink sorts the survivors.
    n, k, links = H.n, H.k, H.links
    chunk = max(1, TRANSPOSE_CELLS // (n + 1))
    if m == k:
        # F_k is the edge set and N_sigma the link of sigma.  At k = 2
        # sigma j is vertex j, and the sigma whose N_sigma holds x are the
        # neighbours of x, so the columns are the adjacency rows.  Only
        # vertices with a neighbour are keyed, so no mask is built per
        # isolated vertex.
        edges = H.sorted_edges
        first = edges[0] if edges else None
        if k == 2:
            sigmas, col = {}, [0] * n
            for s, row in links.items():
                j = s.bit_length() - 1
                sigmas[j], col[j] = s, row
        else:
            sigmas, rows, col = list(links), list(links.values()), [0] * n
            for i in range(0, len(rows), chunk):
                _transpose(rows[i:i + chunk], col, i)
        return sigmas, col, len(edges), first
    # For m > k the sigma are the (m-1)-cliques with a nonempty N_sigma,
    # the AND of the links of sigma's (k-1)-subsets, and |F_m| =
    # sum |N_sigma| / m, refused as the sum grows.  F_m's first member is
    # the first such sigma, as they come in lexicographic order, plus the
    # lowest vertex of its N_sigma.  That vertex lies above max(sigma), or
    # swapping the two would give an earlier sigma.
    # F_m is held to core's cap, as the m-clique search it replaces is.
    what = f"the {m}-clique family"
    sigmas: list[int] = []
    rows: list[int] = []
    col = [0] * n
    total = 0
    first = None
    for sigma in H.sorted_edges if m - 1 == k else m_clique_family(H, m - 1):
        bits = [1 << v for v in sigma]
        row = clique_extensions(links, k, bits)
        if not row:
            continue
        if first is None:
            first = (*sigma, (row & -row).bit_length() - 1)
        sigmas.append(sum(bits))
        rows.append(row)
        total += row.bit_count()
        if len(rows) == chunk:
            # |F_m| > cap exactly when total > m * cap.
            refuse_over_cap(what, core.DEFAULT_MAX_FAMILY, -(-total // m))
            _transpose(rows, col, len(sigmas) - chunk)
            rows.clear()
    refuse_over_cap(what, core.DEFAULT_MAX_FAMILY, total // m)
    _transpose(rows, col, len(sigmas) - len(rows))
    return sigmas, col, total // m, first


def _transpose(rows: list[int], col: list[int], offset: int) -> None:
    # Sets bit offset + j of col[x] for every x in rows[j], for all x at
    # once: the rows, last first, as binary strings of one width w make
    # one string, and every w-th digit of it from x's is x's column.  The
    # caller bounds the rows so that it holds about TRANSPOSE_CELLS digits.
    if not rows:
        return
    w = max(rows).bit_length()
    block = "".join([format(r, f"0{w}b") for r in reversed(rows)])
    for x in range(w):
        c = int(block[w - 1 - x::w], 2)
        if c:
            col[x] |= c << offset


def _ordered_scores(scores: dict[Edge, int]) -> ScoreTable:
    return tuple(sorted(scores.items()))


def extract_graph(G: KUniformHypergraph) -> ExtractionOutcome:
    """Graph extraction (k = 2): verified clique or induced-K_{2,2} certificate.

    Guarantee, testable on every input: if G has no induced K_{2,2}, the
    result is a clique with at least (1 - sqrt(1 - alpha))^2 * n vertices,
    alpha = |E| / C(n,2) exactly.  A certificate is returned exactly when
    the common neighborhood of the top-scoring missing edge contains a
    missing edge, which keeps the verdict class aligned with
    ``extract_hypergraph`` at m = 2.  Refuses when C(n, 2) exceeds
    ``core.DEFAULT_MAX_FAMILY``: a common neighbourhood is kept per missing edge.
    """
    if G.k != 2:
        raise ValueError(f"graph extraction requires k = 2, got k = {G.k}")
    n = G.n
    refuse_over_cap(f"the vertex-pair count C({n},2)", core.DEFAULT_MAX_FAMILY, n, 2)
    miss = G.missing
    alpha = G.edge_density()

    adj = [G.links.get(1 << v, 0) for v in range(n)]
    mu: list[int] = []
    m_counts: list[int] = []
    # Candidate cliques as vertex masks; the empty clique stands only when
    # there is no vertex.
    candidates = [0]
    for v in range(n):
        nv = adj[v]
        matching = maximal_missing_matching(G, nv)
        mu.append(len(matching))
        # C(|N_v|, 2) minus the edges inside N_v, each counted from both ends.
        m_counts.append(math.comb(nv.bit_count(), 2) - popcount_sum(nv, adj, nv) // 2)
        # The matched edges are disjoint, so their sum is their union.
        candidates.append(nv & ~sum(matching) | 1 << v)

    common = {tau: adj[tau[0]] & adj[tau[1]] for tau in miss}
    scores = {tau: s.bit_count() for tau, s in common.items()}
    tau_star = cert = witness = None
    if miss:
        top = max(scores.values())
        tau_star = next(t for t in miss if scores[t] == top)
        ebar = first_missing_edge(G, common[tau_star])
        if ebar is not None:
            cert = CompleteTupleCertificate((tau_star, ebar))
            certify(cert, verify_complete_tuple(G, cert))
    if cert is None:
        best_size = max(c.bit_count() for c in candidates)
        # S_tau* holds no missing edge, so no S_tau that is a clique is
        # larger than it: only the distinct S_tau of its size can win, and
        # only if no per-vertex candidate is larger.
        if miss and top >= best_size:
            best_size = top
            tied = {common[t] for t, c in scores.items() if c == top}
            candidates += [s for s in tied if first_missing_edge(G, s) is None]
        best = min(mask_vertices(c) for c in candidates if c.bit_count() == best_size)
        witness = CliqueWitness(greedy_extend_clique(G, best))
    trace = GraphTrace(
        mu_by_vertex=tuple(mu),
        missing_in_neighborhood=tuple(m_counts),
        tau_scores=_ordered_scores(scores),
        chosen_tau=tau_star,
        alpha=alpha,
        bound=theorem1_bound(float(alpha)),
        bound_met=cert is not None or meets_theorem1_bound(len(witness), n, alpha),
    )
    return ExtractionOutcome("clique" if cert is None else "certificate", witness, cert, trace)


def extract_hypergraph(H: KUniformHypergraph, m: int) -> ExtractionOutcome:
    """Iterated extraction: verified clique or complete-m-tuple certificate.

    Starts from the family F_m of all m-cliques, applies m-1 shrink rounds
    collecting one missing edge per round, and inspects the surviving
    vertex set F_1: a missing edge inside it completes a certificate,
    otherwise F_1 is a clique and is greedily extended.  A stalled round
    (no scoring missing edge, or an empty family) sets the fallback flag
    and returns the first largest greedy extension of the empty clique and
    of the first member of each family reached; only then are they built.
    Small instances stall legitimately since the shrink guarantee is
    asymptotic.  A complete instance is its own clique, with no family
    listed.

    F_m is never listed.  At m = k round 1 reads the link index: F_k is
    the edge set and N_sigma the link of the (k-1)-set sigma.  At m > k
    round 1 reads its sigma off the (m-1)-cliques (the edges when
    m - 1 = k), with N_sigma the AND of the links of sigma's (k-1)-subsets,
    and |F_m| = sum |N_sigma| / m.  Rounds 2 to m-1 run ``shrink_step`` on
    the family the round before returned.  ``m_clique_family`` refuses a
    search of more than ``core.DEFAULT_MAX_FAMILY`` steps, round 1 an F_m
    of more than that many members, and the score walks of all the rounds,
    charged to one ``WorkMeter``, more than that many column ANDs; a k past
    the recursion limit is refused up front (``refuse_deep_clique``).
    """
    if m < H.k:
        raise ValueError(f"m must be >= k = {H.k}, got {m}")
    n, k = H.n, H.k

    taus: list[Edge] = []
    tables: list[ScoreTable] = []
    cert = None
    fallback = False
    if not comb_exceeds(n, k, len(H.edges)):  # |E| = C(n, k): complete
        sizes = [math.comb(n, m)]
        alpha = Fraction(1)
        clique = tuple(range(n))
    else:
        refuse_deep_clique(k)
        meter = WorkMeter(SCORE_STEPS)  # one for all the rounds
        fam = None
        sigmas, col, size, first = _first_round(H, m)
        sizes = [size]
        alpha = Fraction(size, math.comb(n, m)) if size else Fraction(0)
        # The fallback's seeds: the empty clique and the first member of
        # each family reached, extended only if a round stalls.
        seeds = [()] if first is None else [(), first]
        for _ in range(m - 1):
            try:
                if fam is None:  # round 1
                    step = _shrink(H, sigmas, col, taus, meter)
                else:
                    step = shrink_step(H, fam, taus, meter)
            except NoProgressError:
                fallback = True
                clique = max((greedy_extend_clique(H, s) for s in seeds), key=len)
                break
            taus.append(step.tau)
            fam = step.family
            seeds.append(fam[0])
            sizes.append(len(fam))
            tables.append(_ordered_scores(step.scores))
        else:  # no round stalled: inspect the surviving vertex set F_1
            f1 = tuple(sorted(s[0] for s in fam))
            tau_m = first_missing_edge(H, sum(1 << v for v in f1))
            if tau_m is None:
                clique = greedy_extend_clique(H, f1)
            else:
                cert = CompleteTupleCertificate((*taus, tau_m))
                certify(cert, verify_complete_tuple(H, cert))

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
    witness = CliqueWitness(clique) if cert is None else None
    return ExtractionOutcome("clique" if cert is None else "certificate", witness, cert, trace)
