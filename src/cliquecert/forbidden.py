"""Complete m-tuples of missing edges: verification and exact search.

A complete m-tuple is a family of m pairwise-disjoint missing edges such
that every transversal (one vertex picked from each) forms a clique.  For
k = 2 this is the same thing as an induced K_2(m), the complete
multipartite graph on m parts of size two: m disjoint missing pairs whose
cross pairs are all edges.  At k = 2 ``find_complete_tuple`` and the
hill climb's ``tuple_through_pair`` both search for one with
``_tuple_inside``, a backtracking over vertex masks.
``has_induced_biclique`` is an independent implementation of that
specialization and doubles as a test oracle for both searches.
"""

from __future__ import annotations

import enum
from itertools import chain, combinations, product, starmap
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .core import (
    Edge,
    InputFormatError,
    InternalConsistencyError,
    KUniformHypergraph,
    WorkMeter,
    _walk_missing,
    mask_vertices,
    popcount_sum,
    refuse_over_cap,
)

DEFAULT_BUDGET = 10_000_000
# A TupleIndex over M k-sets keeps M masks of M bits in ``apart`` and
# about half that in ``later``: 0.75 GiB at 2^16 k-sets.  The searches
# that build one, ``find_complete_tuple`` and the hill climb at k >= 3,
# refuse more k-sets than this before listing them; the hill climb, which
# lists every k-subset, refuses them at k = 2 too.
MAX_TUPLE_SLOTS = 1 << 16


class Verdict(enum.Enum):
    FOUND = "found"
    ABSENT = "absent"
    EXHAUSTED = "exhausted"


class CompleteTupleCertificate(NamedTuple):
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
        if "m" in obj and (not isinstance(obj["m"], int) or isinstance(obj["m"], bool)):
            raise InputFormatError('field "m" must be an integer')
        if "m" in obj and obj["m"] != len(tuples):
            raise InputFormatError(f'"m" = {obj["m"]} does not match {len(tuples)} tuples')
        return cls(tuples=tuples)


class TupleSearchResult(NamedTuple):
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

    The first violated condition is the first in this order: pairwise
    disjointness, each tuple lying in [0, n) and being a genuine missing
    edge, then every transversal being a clique (all product(tuples)
    choices, each clique-checked by enumeration).  Arity mismatches are
    argument errors, not False verdicts.
    """
    return check_complete_tuple(H.n, H.k, H.edges.__contains__, cert)


def check_complete_tuple(
    n: int, k: int, is_edge: Callable[[Edge], object], cert: CompleteTupleCertificate
) -> tuple[bool, Optional[str]]:
    """``verify_complete_tuple`` on the k-uniform instance on [0, n) whose
    edges are the sorted k-tuples t with a truthy ``is_edge(t)``.
    ``is_edge`` is asked only about k-subsets of [0, n).

    Every condition is first checked in bulk by C-level passes: arity and
    disjointness by the size of the union, the vertex range by its ``min``
    and ``max``, then through ``map`` the tuples and the k-subsets of the
    transversals, each k vertices from k distinct tuples, asked once.
    Only when one fails are they walked in order to word the first."""
    tuples = cert.tuples
    m = len(tuples)
    if m < k:
        raise ValueError(f"certificate has m = {m} < k = {k}")
    vertices = set().union(*tuples)
    if (
        len(vertices) == m * k
        and set(map(len, tuples)) == {k}
        and min(vertices) >= 0
        and max(vertices) < n
        and not any(map(is_edge, map(tuple, map(sorted, tuples))))
        and all(map(is_edge, map(tuple, map(sorted, chain.from_iterable(
            starmap(product, combinations(tuples, k))
        )))))
    ):
        return True, None
    for t in tuples:
        if len(t) != k or len(set(t)) != k:
            raise ValueError(f"tuple {t} is not a {k}-subset")
    return False, _first_violation(n, k, is_edge, tuples)


def _first_violation(n: int, k: int, is_edge: Callable[[Edge], object], tuples) -> str:
    # The first violated condition of a certificate of k-sets that failed
    # check_complete_tuple's bulk passes, in the documented order.
    for a, b in combinations(tuples, 2):
        if set(a) & set(b):
            return f"tuples {a} and {b} are not disjoint"
    for t in tuples:
        if min(t) < 0 or max(t) >= n:
            return f"{t} has a vertex outside [0, {n})"
        if is_edge(tuple(sorted(t))):
            return f"{t} is not a missing edge"
    for transversal in product(*tuples):
        vs = sorted(transversal)
        if not all(is_edge(s) for s in combinations(vs, k)):
            return f"transversal {tuple(vs)} is not a clique"


def certify(
    cert: CompleteTupleCertificate, outcome: tuple[bool, Optional[str]]
) -> CompleteTupleCertificate:
    """``cert``, a search hit, once its check ``outcome`` (ok, reason) has
    passed; InternalConsistencyError, carrying it, otherwise."""
    ok, reason = outcome
    if not ok:
        raise InternalConsistencyError(f"search produced an invalid certificate: {reason}", cert)
    return cert


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)`` on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class TupleIndex:
    """The k-sets a tuple search ranges over, and the masks it combines.

    A candidate set is an int mask over ``ksets``, which are in
    lexicographic order: ``without[v]`` holds the k-sets avoiding vertex
    v, ``apart[i]`` those disjoint from k-set i, ``later[i]`` those of
    them after it, and ``inside[s]`` those lying wholly inside link(s),
    for a (k-1)-set s given as a vertex mask.  ``cores[p]``, for a
    (k-2)-set p given as a vertex mask, is the vertex mask of the k-core
    of p's link graph, in which t ~ u when p + t + u is an edge.  Both
    memos read ``links`` on first use.  The last two tuples of a complete
    tuple lie inside ``cores[p]`` for each pick p of the tuples before
    them, which lets ``search`` skip depths m - 2 that hold no hit.  The
    index is general in k, but the program builds one only at k >= 3,
    where the global search indexes the missing edges of one instance, and
    the hill climb every k-subset: it passes the missing ones as a mask
    and flips its edges with ``toggle``, which keeps ``links``, ``inside``
    and ``cores`` in step.  At k = 2 both searches walk vertex masks
    (``_tuple_inside``) instead.
    """

    __slots__ = ("k", "ksets", "full", "without", "apart", "later", "links", "inside", "cores")

    def __init__(self, n: int, k: int, ksets: Sequence[Edge], links: dict[int, int]):
        full = (1 << len(ksets)) - 1
        without = [full] * n
        for i, e in enumerate(ksets):
            for v in e:
                without[v] ^= 1 << i
        apart = []
        for e in ksets:
            mask = full
            for v in e:
                mask &= without[v]
            apart.append(mask)
        later = [mask >> (i + 1) << (i + 1) for i, mask in enumerate(apart)]
        vertices = (1 << n) - 1

        def inside_link(s: int) -> int:
            # Drop every k-set touching a vertex outside link(s), that is a
            # vertex of s or a vertex v with s + v missing.
            return self.avoiding(vertices & ~links.get(s, 0))

        def link_core(p: int) -> int:
            # The link graph lives on the vertices off p.  The peel starts
            # from those with k neighbours and drops, round by round, those
            # with fewer than k left; a k-core that has a vertex has at
            # least k + 1.
            nbrs, rest = [], vertices & ~p
            while rest:
                t = rest & -rest
                rest ^= t
                mask = links.get(p | t, 0)
                if mask.bit_count() >= k:
                    nbrs.append((t, mask))
            while True:
                core = sum(t for t, _ in nbrs)
                kept = [(t, mask) for t, mask in nbrs if (mask & core).bit_count() >= k]
                if len(kept) <= k:
                    return 0
                if len(kept) == len(nbrs):
                    return core
                nbrs = kept

        self.k, self.ksets, self.full = k, ksets, full
        self.without, self.apart, self.later = without, apart, later
        self.links = links
        self.inside = _Memo(inside_link)
        self.cores = _Memo(link_core)

    def avoiding(self, vertices: int) -> int:
        """The k-sets that avoid every vertex of the mask ``vertices``."""
        mask, without = self.full, self.without
        while vertices:
            low = vertices & -vertices
            vertices ^= low
            mask &= without[low.bit_length() - 1]
        return mask

    def picks(self, chosen: Sequence[int], size: Optional[int] = None) -> list[int]:
        """Vertex masks of one vertex from each of ``size`` of the tuples
        ``chosen``, k - 2 unless given: with a vertex of each of two more
        tuples, such a pick of k - 2 makes a transversal constraint.  They
        come in ``combinations`` x ``product`` order.  Single-vertex picks
        (k = 3) take one comprehension; other sizes walk that product, which
        gives the one empty pick at size 0."""
        ksets = self.ksets
        size = self.k - 2 if size is None else size
        if size == 1:
            return [1 << v for i in chosen for v in ksets[i]]
        out = []
        for idxs in combinations(chosen, size):
            for pick in product(*(ksets[i] for i in idxs)):
                mask = 0
                for v in pick:
                    mask |= 1 << v
                out.append(mask)
        return out

    def toggle(self, em: int) -> None:
        """Flip the k-set with vertex mask ``em`` between edge and non-edge
        in ``links``, dropping the memo entries that read the links it
        changes: ``inside`` of each (k-1)-subset of the k-set and
        ``cores`` of each (k-2)-subset."""
        links, inside, cores, rest = self.links, self.inside, self.cores, em
        while rest:
            low = rest & -rest
            rest ^= low
            links[em ^ low] = links.get(em ^ low, 0) ^ low
            inside.pop(em ^ low, None)
            # Only the look-ahead memoises cores, and a climb at m = k
            # never reaches it: skip the pops while there are none.
            more = rest if cores else 0
            while more:
                high = more & -more
                more ^= high
                cores.pop(em ^ low ^ high, None)

    def through(self, e: Edge, at: Optional[int]) -> tuple[int, ...]:
        """Seed pools for the complete tuples that use the k-set e.

        ``at`` is e's index when e is a missing k-set, which then is one of
        the tuples.  It is None when e is an edge, which then lies in a
        transversal, so each vertex v of e has a tuple of its own.  Each
        vertex of that tuple completes e - v to a transversal, so the tuple
        lies inside link(e - v), which holds v too once ``toggle`` has made
        e an edge: its pool is the k-sets of ``inside[e - v]`` through v.
        """
        if at is not None:
            return (1 << at,)
        em = 0
        for v in e:
            em |= 1 << v
        inside, without = self.inside, self.without
        return tuple(inside[em ^ 1 << v] & ~without[v] for v in e)

    def search(
        self, m: int, budget: int, missing: int, pools: tuple[int, ...] = ()
    ) -> tuple[Optional[list[int]], int]:
        """Backtracking search for a complete m-tuple among the k-sets of
        the mask ``missing``; returns the indices of the tuples of the
        first hit (None if there is none) and the node count.

        The tuple at depth d < len(pools) is drawn from ``pools[d]``, and
        the tuples after it may lie on either side of it in index order;
        the free depths ascend, so with no pools the first hit is the
        canonical certificate.  A candidate is admissible when every
        transversal constraint it completes (k-subsets drawing k-1 earlier
        tuples plus the new one) is an edge, i.e. when it lies inside the
        link of each (k-1)-set s drawn from k-1 earlier tuples.  The
        admissible candidates at a depth are therefore the AND, over those
        s, of ``inside[s]``; each placed tuple narrows it with k ANDs of
        its frame's rows.  A frame keeps them in a plain dict, filled by
        the candidate loop on first use: the row of a vertex t is the AND
        of ``inside[p + t]`` over the frame's picks p (``picks``).  A frame
        with no picks (depth < k - 2) narrows nothing and fills no row.

        Every candidate a depth passes over, admissible, in its pool or
        not, costs one node against ``budget``; the passed-over bits are
        charged in bulk by popcount.  The search stops once the count
        passes ``budget``.

        Every depth but the last runs one loop over its admissible
        candidates.  The last depth, m - 1, is the base case: its first
        admissible candidate completes the hit, so it charges the
        candidates up to that one, or all of them when there is none.
        One rule skips depths m - 2 that hold no hit.  Let p be a pick of
        the tuples before the last two.  Each vertex of either last tuple
        has the k vertices of the other tuple as neighbours in p's link
        graph, so both tuples lie inside ``cores[p]``.  At k >= 3 a free
        depth m - 3 ANDs, for each candidate, the cores of the picks of the
        child it would call: the depth's own picks, and those through the
        candidate.  When fewer than 2k vertices are left, the child can
        hold no hit, so it is not called.  The parent charges what the
        child would have cost, its candidates and the successors of its
        admissible ones, in one bulk pass (``core.popcount_sum``), so
        verdicts, hits and node counts are the same as without the rule.
        At k = 2 the one pick is empty and its core, the 2-core of the
        graph, keeps nearly every vertex, so the rule does not run.
        """
        ksets, inside, cores = self.ksets, self.inside, self.cores
        k, full = self.k, self.full
        vertices = (1 << len(self.without)) - 1
        chosen: list[int] = []
        nodes = 0

        def extend(cands: int, allowed: int) -> bool:
            # Try each admissible candidate, in ascending order, for the
            # tuple at this depth.  The next depth draws from the candidates
            # disjoint from the new tuple: those after it at a free depth,
            # all of them at a seeded one.  A search out of budget
            # (nodes > budget) returns False at once, all the way up.
            nonlocal nodes
            depth = len(chosen)
            hits = cands & allowed
            if depth < len(pools):
                # No size prune at a seeded depth.  It would only save
                # nodes, and the node count decides which small-budget
                # climbs exhaust.
                hits &= pools[depth]
                succ, need = self.apart, 1
            else:
                succ, need = self.later, m - depth - 1
            if depth == m - 1:
                # The base case: the first admissible candidate completes
                # the tuple.  Charged: the candidates up to it, or all of
                # them when there is none (last = 0 masks by -1).
                last = hits & -hits
                nodes += (cands & (2 * last - 1)).bit_count()
                if not last or nodes > budget:
                    return False
                chosen.append(last.bit_length() - 1)
                return True
            pick_masks = self.picks(chosen)
            # rows[t]: the AND of inside[p + t] over the picks p, filled on
            # first use; with no picks every row would be full.
            rows: dict[int, int] = {}
            # The look-ahead: the children of a free depth m - 3 place the
            # last two tuples, and those tuples of a hit in a child lie inside
            # the core of each of its picks: `base`, the cores of this
            # depth's picks, and the cores of the picks through the child's
            # tuple, each a prefix of k - 3 vertices plus one of it.
            ahead = k > 2 and depth == m - 3 and depth >= len(pools)
            if ahead:
                base = vertices
                for p in pick_masks:
                    base &= cores[p]
                prefixes = self.picks(chosen, k - 3)
            scan = cands
            while hits:
                low = hits & -hits
                hits ^= low
                passed = scan & (2 * low - 1)
                scan ^= passed
                nodes += passed.bit_count()
                if nodes > budget:
                    return False
                i = low.bit_length() - 1
                nxt = cands & succ[i]
                if nxt.bit_count() < need:
                    continue
                narrowed = allowed
                if pick_masks:
                    for t in ksets[i]:
                        row = rows.get(t)
                        if row is None:
                            row = full
                            for p in pick_masks:
                                row &= inside[p | 1 << t]
                            rows[t] = row
                        narrowed &= row
                if ahead:
                    bound = base
                    for t in ksets[i]:
                        for pre in prefixes:
                            bound &= cores[pre | 1 << t]
                    if bound.bit_count() < 2 * k:
                        # The child's charge: its candidates, and the
                        # successors of its admissible ones.
                        nodes += nxt.bit_count() + popcount_sum(nxt, succ, nxt & narrowed)
                        if nodes > budget:
                            return False
                        continue
                chosen.append(i)
                if extend(nxt, narrowed):
                    return True
                chosen.pop()
                if nodes > budget:
                    return False
            nodes += scan.bit_count()
            return False

        # The size prune of a free first depth.
        hit = (pools or missing.bit_count() >= m) and extend(missing, full)
        # extend refers to itself through its closure; dropping the name
        # frees the search state now instead of at the next cyclic
        # collection.
        del extend
        return (chosen if hit else None), nodes


def _tuple_inside(
    links: Mapping[int, int], within: int, j: int, budget: int
) -> tuple[Optional[list[Edge]], int]:
    """The first complete j-tuple, in lexicographic order, of the graph
    induced on the vertex mask ``within`` (k = 2, adjacency rows as the
    link masks ``{1 << v: N(v)}``), or None, and the node count.

    j = 0 needs nothing, and j = 1 is the first missing pair
    (``core._walk_missing``); neither costs a node.  From j = 2 on it is
    an ascending backtracking over vertex masks.  A frame holds the mask W
    of the vertices still usable, and tries the missing pairs (c, x)
    inside W in lexicographic order.  The pairs after (c, x) are disjoint
    from it, have all four cross pairs as edges and start above c, so the
    next frame holds W & N(c) & N(x) above c.  A node is a missing pair
    tried, the last one of a hit included, and the walk stops once the
    count passes ``budget``.  With r pairs still to place, a frame is
    dropped once fewer than 2r of its vertices are left from c on, a c
    with fewer than 2(r - 1) neighbours in W above it is passed over
    without a node, and a child with fewer than 2(r - 1) vertices is not
    pushed.  The frames sit on an explicit stack, so the depth is not
    bounded by the recursion limit.  A frame steps over each of its
    vertices at most once, so one ``WorkMeter`` charges each child its
    vertices as it is pushed, and refuses the walk past its cap.
    """
    if j == 0:
        return [], 0
    if j == 1:
        for s, miss in _walk_missing(links, 0, within, 1):
            return [mask_vertices(s | miss & -miss)], 0
        return None, 0
    meter = WorkMeter(f"the vertex-mask walk of a {j}-tuple search")
    nodes = 0
    chosen: list[Edge] = []
    # A frame: the vertices of W above its c, c, W & N(c) above c, and the
    # partners of c not yet tried; a new frame has no c yet.
    stack = [(within, -1, 0, 0)]
    while stack:
        rest, c, near, xs = stack[-1]
        # The vertices that the pairs after this frame's need.
        need = 2 * (j - len(stack))
        while not xs and rest.bit_count() >= need + 2:
            low = rest & -rest
            rest ^= low
            row = links.get(low, 0)
            near = rest & row
            if near.bit_count() >= need:
                c, xs = low.bit_length() - 1, rest & ~row
        if not xs:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        x = xs & -xs
        xs ^= x
        nodes += 1
        if nodes > budget:
            return None, nodes
        pair = (c, x.bit_length() - 1)
        if not need:
            chosen.append(pair)
            return chosen, nodes
        stack[-1] = rest, c, near, xs
        child = near & links.get(x, 0)
        size = child.bit_count()
        if size >= need:
            meter.charge(size)
            chosen.append(pair)
            stack.append((child, -1, 0, 0))
    return None, nodes


def tuple_through_pair(
    links: Mapping[int, int], m: int, e: Edge, adding: bool, budget: int
) -> tuple[Optional[list[Edge]], int]:
    """A complete m-tuple that uses the pair e = (a, b) of a graph given by
    its adjacency rows (k = 2, the link masks ``{1 << v: N(v)}``), just
    toggled: ``adding`` when e is now an edge, not a missing pair.  Returns
    its tuples (None if there is none) and the node count, the missing
    pairs that its walks for j >= 2 pairs try (``_tuple_inside``); the
    check stops once that passes ``budget``.

    A missing e is one of the tuples, and the other m - 1 make a complete
    tuple inside N(a) & N(b).  An edge e is a cross pair, so a and b lie
    in tuples (a, x) and (b, y) of their own: x in N(b) - N[a], y in
    N(a) - N[b], x ~ y, and the other m - 2 tuples make a complete tuple
    inside N(a) & N(b) & N(x) & N(y).  Those are the only complete tuples
    a toggle of e can create, so on an instance that had none before the
    toggle this decides whether the toggled one has one.
    """
    a, b = e
    na, nb = links.get(1 << a, 0), links.get(1 << b, 0)
    if not adding:
        rest, nodes = _tuple_inside(links, na & nb, m - 1, budget)
        return (None if rest is None else [e, *rest]), nodes
    common, xs, ys = na & nb, nb & ~na & ~(1 << a), na & ~nb & ~(1 << b)
    nodes = 0
    while xs:
        xb = xs & -xs
        xs ^= xb
        nx = links.get(xb, 0)
        pairs = ys & nx
        while pairs:
            yb = pairs & -pairs
            pairs ^= yb
            within = common & nx & links.get(yb, 0)
            rest, spent = _tuple_inside(links, within, m - 2, budget - nodes)
            nodes += spent
            if rest is not None:
                x, y = xb.bit_length() - 1, yb.bit_length() - 1
                return [(min(a, x), max(a, x)), (min(b, y), max(b, y)), *rest], nodes
            if nodes > budget:
                return None, nodes
    return None, nodes


def find_complete_tuple(
    H: KUniformHypergraph, m: int, budget: int = DEFAULT_BUDGET
) -> TupleSearchResult:
    """Bitset backtracking search for a complete m-tuple of missing edges.

    Missing edges are indexed in lexicographic order and tried in that
    order, extended one at a time; the first certificate in this order is
    the canonical one.  ``budget`` must be non-negative; an exhausted
    search reports ``budget + 1`` nodes.

    At k = 2 the search is ``_tuple_inside`` on every vertex, the
    vertex-mask walk that the hill climb's ``tuple_through_pair`` runs on
    common neighbourhoods: ``nodes`` counts the missing pairs tried, so
    an instance in which no vertex has 2(m - 1) neighbours above it is
    ABSENT with 0 nodes.  The walk refuses past the cap of its
    ``WorkMeter``.  At k >= 3
    ``TupleIndex.search`` describes the candidate masks and the node
    count, every candidate passed over; it refuses more than
    ``MAX_TUPLE_SLOTS`` missing edges, counted as C(n, k) - |E| before
    they are listed.
    """
    k = H.k
    if m < k:
        raise ValueError(f"m must be >= k = {k}, got {m}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if k == 2:
        tuples, nodes = _tuple_inside(H.links, (1 << H.n) - 1, m, budget)
    else:
        what = f"the missing-edge count C({H.n},{k}) - {len(H.edges)} of a tuple search"
        refuse_over_cap(what, MAX_TUPLE_SLOTS, H.n, k, len(H.edges))
        index = TupleIndex(H.n, k, H.missing, H.links)
        chosen, nodes = index.search(m, budget, index.full)
        tuples = None if chosen is None else [index.ksets[i] for i in chosen]
    if tuples is not None:
        # A hit is verified by enumeration before it is reported FOUND.
        cert = CompleteTupleCertificate(tuple(tuples))
        return TupleSearchResult(Verdict.FOUND, certify(cert, verify_complete_tuple(H, cert)), nodes)
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
