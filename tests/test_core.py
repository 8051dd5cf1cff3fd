import math
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquecert import (
    InputFormatError,
    KUniformHypergraph,
    count_m_cliques,
    greedy_extend_clique,
    hypergraph_from_dict,
    hypergraph_to_dict,
    m_clique_family,
    max_clique,
    maximal_missing_matching,
)
from cliquecert import core
from cliquecert.core import SizeRefusalError, comb_exceeds, mask_vertices
from cliquecert.core import _edges_valid as edges_valid
from cliquecert.extractor import _columns
from helpers import (
    all_graphs,
    brute_force_max_clique,
    complete_graph,
    complete_kuniform,
    cycle_graph,
    edgeless,
    ext_binom,
    from_edges,
    nine_vertex_example,
    random_hypergraph,
    reference_check_edges,
    reference_load_edges,
    reference_maximal_missing_matching,
    reference_neighborhood_of_tuple,
)
import random


def vertex_mask(vertices) -> int:
    return sum(1 << v for v in set(vertices))


def matching(H, S) -> list[tuple[int, ...]]:
    """maximal_missing_matching on the vertex set S, edges as tuples."""
    return [mask_vertices(e) for e in maximal_missing_matching(H, vertex_mask(S))]


def neighbourhoods(H, family) -> dict[int, int]:
    """N_sigma for every sigma with a nonempty one, as vertex masks, read
    off the columns of a shrink round: N_sigma = {x : bit j of col[x]},
    where j is the position of sigma."""
    sigmas, col = _columns(H, family)
    return {
        sigma: sum(1 << x for x in range(H.n) if col[x] >> j & 1)
        for j, sigma in enumerate(sigmas)
    }


def neighbourhood(H, sigma, family) -> set[int]:
    return set(mask_vertices(neighbourhoods(H, family).get(vertex_mask(sigma), 0)))


@st.composite
def hypergraphs(draw, max_n=8, ks=(2, 3)):
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(min_value=k, max_value=max_n))
    positions = list(combinations(range(n), k))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(positions)) - 1))
    edges = frozenset(pos for i, pos in enumerate(positions) if mask >> i & 1)
    return KUniformHypergraph(n=n, k=k, edges=edges)


class TestExtBinom:
    def test_integer_points_match_comb(self):
        assert ext_binom(5, 2) == 10
        assert ext_binom(7, 3) == math.comb(7, 3)

    def test_boundary_is_zero(self):
        assert ext_binom(1, 2) == 0.0
        assert ext_binom(2, 3) == 0.0

    def test_hand_values(self):
        assert ext_binom(2.5, 2) == pytest.approx(1.875, rel=1e-15)
        assert ext_binom(1.5, 2) == pytest.approx(0.375, rel=1e-15)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            ext_binom(3.0, 0)

    def test_continuity_at_boundary(self):
        for k in (2, 3, 4):
            eps = 1e-9
            assert ext_binom(k - 1 - eps, k) == 0.0
            assert abs(ext_binom(k - 1 + eps, k)) < 1e-6

    @given(
        x1=st.floats(min_value=0, max_value=10),
        x2=st.floats(min_value=0, max_value=10),
        lam=st.floats(min_value=0, max_value=1),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_convexity(self, x1, x2, lam, k):
        mid = lam * x1 + (1 - lam) * x2
        assert ext_binom(mid, k) <= lam * ext_binom(x1, k) + (1 - lam) * ext_binom(x2, k) + 1e-12


class TestCountMCliques:
    def test_complete_graph_triangles(self):
        assert count_m_cliques(complete_graph(5), 3) == 10

    def test_cycle_edges(self):
        assert count_m_cliques(cycle_graph(5), 2) == 5

    def test_three_uniform_minus_one_edge(self):
        special = {(0, 1, 2)}
        H = KUniformHypergraph(
            n=5, k=3, edges=frozenset(t for t in combinations(range(5), 3) if t not in special)
        )
        # The 2 four-sets containing {0,1,2} fail; the other 3 succeed.
        assert count_m_cliques(H, 4) == 3

    def test_rejects_m_below_k(self):
        with pytest.raises(ValueError):
            count_m_cliques(cycle_graph(4), 1)

    @given(hypergraphs())
    def test_m_equals_k_counts_edges(self, H):
        assert count_m_cliques(H, H.k) == len(H.edges)

    # K_8 has C(8, 4) = 70 four-cliques; the edgeless 4-uniform instance
    # on 12 vertices has none, but its search tries every vertex pair
    # before the first link rules a vertex out.
    @pytest.mark.parametrize("H, size", [(complete_graph(8), 70), (edgeless(12, 4), 0)])
    def test_search_past_the_cap_is_refused(self, monkeypatch, H, size):
        # The steps the search takes, without a cap: a cap of exactly that
        # many lists the family, one fewer refuses.
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", sys.maxsize)
        meter = core.WorkMeter("uncapped")
        core._grow_cliques(H.links, H.k, 4, [], [], (1 << H.n) - 1, [], meter)
        steps = meter.steps
        assert steps > max(size, H.n)
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", steps)
        assert len(m_clique_family(H, 4)) == size
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", steps - 1)
        message = f"the 4-clique search's step count exceeds the cap of {steps - 1}$"
        with pytest.raises(SizeRefusalError, match=message):
            m_clique_family(H, 4)

    def test_search_through_an_edge_is_capped_too(self, monkeypatch):
        # The 4-cliques of K_8 through the edge 01: 5 of the vertices 2..7
        # are tried after it, and 5 + 4 + 3 + 2 + 1 = 15 cliques listed.
        links = complete_graph(8).links
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", 20)
        assert core.count_cliques_through(links, 2, 4, 0b11) == 15
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", 19)
        with pytest.raises(SizeRefusalError, match="step count exceeds the cap of 19$"):
            core.count_cliques_through(links, 2, 4, 0b11)


    def test_nesting_gate_refuses_before_the_search_would_overflow(self):
        # The edgeless m-uniform instance on m vertices is one vacuous
        # descent of m levels, which m_clique_family refuses on
        # RecursionError.  From the same stack depth, the gate refuses up
        # front, at most NESTING_RESERVE levels before that.
        def overflows(m):
            try:
                m_clique_family(edgeless(m, m), m)
            except SizeRefusalError as exc:
                assert isinstance(exc.__context__, RecursionError)
                return True
            return False

        def gated(m):
            try:
                core.refuse_deep_clique(m)
            except SizeRefusalError as exc:
                assert str(exc).endswith(f"recursion limit of {sys.getrecursionlimit()}")
                return True
            return False

        limit = sys.getrecursionlimit()
        first = [next(m for m in range(limit // 2, limit + 1) if f(m)) for f in (gated, overflows)]
        assert 0 < first[1] - first[0] <= core.NESTING_RESERVE


class TestMaxClique:
    def test_complete_graph(self):
        assert len(max_clique(complete_graph(6)).vertices) == 6

    def test_cycle_is_triangle_free(self):
        assert len(max_clique(cycle_graph(5)).vertices) == 2

    def test_nine_vertex_example(self):
        assert len(max_clique(nine_vertex_example()).vertices) == 6

    def test_edgeless_vacuous_floor(self):
        assert max_clique(edgeless(5, 3)).vertices == (0, 1)
        assert max_clique(edgeless(4, 2)).vertices == (0,)

    def test_witness_is_a_clique(self):
        rng = random.Random(11)
        for _ in range(30):
            H = random_hypergraph(rng, rng.randint(3, 9), rng.choice([2, 3]), rng.random())
            w = max_clique(H)
            assert w.verify(H)

    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(7)
        for _ in range(40):
            H = random_hypergraph(rng, rng.randint(3, 10), rng.choice([2, 3]), rng.random())
            assert len(max_clique(H).vertices) == brute_force_max_clique(H)

    def test_depth_not_bounded_by_recursion_limit(self):
        # The search keeps its own stack: a 250-vertex clique is found even
        # when the interpreter allows far fewer nested calls.
        H = complete_graph(250)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            witness = max_clique(H)
        finally:
            sys.setrecursionlimit(limit)
        assert witness.vertices == tuple(range(250))


class TestMissingEdges:
    def test_complete_graph_has_none(self):
        assert complete_graph(5).missing == ()

    def test_cycle4(self):
        assert cycle_graph(4).missing == ((0, 2), (1, 3))

    def test_edgeless(self):
        assert edgeless(3, 2).missing == ((0, 1), (0, 2), (1, 2))

    @given(hypergraphs())
    def test_partition_identity(self, H):
        assert len(H.missing) + len(H.edges) == math.comb(H.n, H.k)


class TestMaximalMissingMatching:
    def test_cycle5_trace(self):
        got = matching(cycle_graph(5), range(5))
        assert got == [(0, 2), (1, 3)]

    def test_cycle4_covers_everything(self):
        got = matching(cycle_graph(4), range(4))
        assert got == [(0, 2), (1, 3)]

    def test_complete_graph_empty(self):
        assert matching(complete_graph(6), range(6)) == []

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            matching(cycle_graph(4), [0, 9])

    @given(hypergraphs(), st.integers(min_value=0, max_value=255))
    def test_uncovered_set_is_a_clique(self, H, subset_mask):
        S = [v for v in range(H.n) if subset_mask >> v & 1]
        covered = set()
        for e in matching(H, S):
            assert covered.isdisjoint(e)
            assert e not in H.edges
            covered.update(e)
        uncovered = sorted(set(S) - covered)
        assert all(t in H.edges for t in combinations(uncovered, H.k))

    @given(hypergraphs(max_n=7))
    def test_matching_size_bounds_clique_deficit(self, H):
        # k * t >= |S| - omega since the uncovered part is a clique.
        omega = brute_force_max_clique(H)
        for mask in range(1 << H.n):
            S = [v for v in range(H.n) if mask >> v & 1]
            t = len(matching(H, S))
            assert H.k * t >= len(S) - omega


class TestNeighborhoodOfTuple:
    def test_graph_neighborhood(self):
        c4 = cycle_graph(4)
        assert neighbourhood(c4, {0}, c4.edges) == {1, 3}

    def test_complete_graph(self):
        k6 = complete_graph(6)
        assert neighbourhood(k6, {2}, k6.edges) == {0, 1, 3, 4, 5}

    def test_round_one_family_of_nine_vertex_example(self):
        family = set(combinations(range(3, 9), 2))
        H = nine_vertex_example()
        assert neighbourhood(H, {3}, family) == {4, 5, 6, 7, 8}


class TestMaskHelpersOracle:
    """The mask-based matching and N_sigma against the set-based ones."""

    @staticmethod
    def agree(H, subsets, families):
        for S in subsets:
            assert matching(H, S) == reference_maximal_missing_matching(H, S), (H, S)
        for fam in families:
            if not fam:
                continue
            got = neighbourhoods(H, fam)
            fam_set = set(fam)
            for sigma in combinations(range(H.n), len(fam[0]) - 1):
                want = reference_neighborhood_of_tuple(H, sigma, fam_set)
                assert set(mask_vertices(got.get(vertex_mask(sigma), 0))) == want, (H, sigma)

    def test_all_graphs_up_to_six_vertices(self):
        # Every neighbourhood and the triangle family up to 5 vertices; the
        # whole vertex set and the edge family on 6.
        for n in range(1, 7):
            for G in all_graphs(n):
                subsets, families = [range(n)], [G.sorted_edges]
                if n <= 5:
                    subsets += [
                        [u for e in G.edges if v in e for u in e if u != v] for v in range(n)
                    ]
                    families.append(m_clique_family(G, 3))
                self.agree(G, subsets, families)

    def test_random_hypergraphs(self):
        rng = random.Random(41)
        for _ in range(300):
            k = rng.choice([2, 3, 4])
            H = random_hypergraph(rng, rng.randint(k, 9), k, rng.random() ** 0.5)
            subsets = [[v for v in range(H.n) if rng.random() < 0.7] for _ in range(4)]
            families = [m_clique_family(H, m) for m in (k, k + 1)]
            self.agree(H, subsets + [range(H.n)], families)


class TestGreedyExtend:
    def test_extends_to_maximal(self):
        got = greedy_extend_clique(complete_graph(5), (2,))
        assert got == (0, 1, 2, 3, 4)

    def test_edgeless_reaches_vacuous_size(self):
        assert len(greedy_extend_clique(edgeless(6, 3), ())) == 2

    @given(hypergraphs())
    def test_result_is_maximal_clique(self, H):
        got = greedy_extend_clique(H, ())
        assert H.is_clique(got)
        for v in range(H.n):
            if v not in got:
                assert not H.is_clique(sorted(got + (v,)))


class TestSerialization:
    def test_round_trip(self):
        H = nine_vertex_example()
        assert hypergraph_from_dict(hypergraph_to_dict(H)) == H

    def test_missing_key_equivalence(self):
        doc_edges = hypergraph_to_dict(cycle_graph(4))
        doc_missing = {"n": 4, "k": 2, "missing": [[0, 2], [1, 3]]}
        assert hypergraph_from_dict(doc_missing) == hypergraph_from_dict(doc_edges)

    def test_missing_key_refuses_a_complement_past_the_cap(self):
        # C(2001, 2) - 1 = 2,000,999 edges; C(2 * 10^6, 10^6) is never built.
        for doc in ({"n": 2001, "k": 2, "missing": [[0, 1]]}, {"n": 2 * 10**6, "k": 10**6, "missing": []}):
            with pytest.raises(SizeRefusalError, match='of "missing" exceeds the cap of 2000000'):
                hypergraph_from_dict(doc)

    def test_vertex_count_past_the_cap_is_refused(self):
        # max_clique builds 1 << n, so n = 10**30 used to overflow there.
        assert hypergraph_from_dict({"n": 2_000_000, "k": 2, "edges": [[0, 1]]}).n == 2_000_000
        for n in (2_000_001, 10**30):
            with pytest.raises(SizeRefusalError, match='count "n" exceeds the cap of 2000000'):
                hypergraph_from_dict({"n": n, "k": 2, "edges": []})

    def test_comb_exceeds(self):
        for n in range(14):
            for k in range(n + 3):
                c = math.comb(n, k)
                for bound in {0, 1, n, max(c - 1, 0), c, 2_000}:
                    assert comb_exceeds(n, k, bound) == (c > bound), (n, k, bound)

    def test_rejects_duplicate_with_position(self):
        doc = {"n": 4, "k": 2, "edges": [[0, 1], [2, 3], [0, 1]]}
        with pytest.raises(InputFormatError, match=r"edges\[2\] duplicates edges\[0\]"):
            hypergraph_from_dict(doc)

    def test_rejects_wrong_arity_with_position(self):
        doc = {"n": 4, "k": 2, "edges": [[0, 1], [1, 2, 3]]}
        with pytest.raises(InputFormatError, match=r"edges\[1\]"):
            hypergraph_from_dict(doc)

    def test_rejects_out_of_range_with_position(self):
        doc = {"n": 4, "k": 2, "edges": [[0, 1], [2, 7]]}
        with pytest.raises(InputFormatError, match=r"edges\[1\]\[1\].*out of range"):
            hypergraph_from_dict(doc)

    def test_rejects_unsorted_edge(self):
        doc = {"n": 4, "k": 2, "edges": [[1, 0]]}
        with pytest.raises(InputFormatError, match="sorted ascending"):
            hypergraph_from_dict(doc)

    def test_rejects_both_keys(self):
        doc = {"n": 3, "k": 2, "edges": [], "missing": []}
        with pytest.raises(InputFormatError, match="exactly one"):
            hypergraph_from_dict(doc)

    def test_from_edges_canonicalizes(self):
        H = from_edges(4, 2, [(1, 0), (3, 2)])
        assert H.sorted_edges == ((0, 1), (2, 3))

    @pytest.mark.parametrize(
        "n, k, edges, message",
        [
            (4, 1, [], "k must be >= 2"),
            (-1, 2, [], "vertex count must be >= 0"),
            (4, 2, [(0, 1, 2)], "has 3 vertices, expected 2"),
            (4, 2, [(1, 0)], "not strictly increasing"),
            (4, 2, [(2, 4)], r"vertex outside \[0, 4\)"),
        ],
    )
    def test_constructor_checks(self, n, k, edges, message):
        with pytest.raises(InputFormatError, match=message):
            KUniformHypergraph(n=n, k=k, edges=frozenset(edges))

    def test_from_edges_checks(self):
        with pytest.raises(InputFormatError, match=r"edges\[1\]: repeated vertex"):
            from_edges(4, 2, [(0, 1), (2, 2)])
        with pytest.raises(InputFormatError, match=r"edges\[1\]: duplicate of edges\[0\]"):
            from_edges(4, 2, [(0, 1), (1, 0)])


class IntSub(int):
    pass


class ListSub(list):
    pass


class TupleSub(tuple):
    pass


# One corruption each; ListSub and IntSub entries are accepted.
CORRUPTIONS = {
    "bool": lambda e, n: [True, *e[1:]],
    "float": lambda e, n: [float(e[0]), *e[1:]],
    "str": lambda e, n: [*e[:-1], str(e[-1])],
    "int-subclass": lambda e, n: [IntSub(v) for v in e],
    "negative": lambda e, n: [-1, *e[1:]],
    "too-large": lambda e, n: [*e[:-1], n],
    "unsorted": lambda e, n: e[::-1],
    "repeated": lambda e, n: [e[0], *e[:-1]],
    "short": lambda e, n: e[:-1],
    "long": lambda e, n: [*e, n + 1],
    "tuple": lambda e, n: tuple(e),
    "int": lambda e, n: e[0],
    "list-subclass": lambda e, n: ListSub(e),
}


def outcome(f):
    """What f() returns, or the type and message of what it raises."""
    try:
        return f()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@st.composite
def instance_documents(draw):
    """An instance document of valid "n" and "k" with sorted, distinct
    entries under "edges" or "missing", at most one of them corrupted or
    duplicated."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(2, 4))
    pool = [list(e) for e in combinations(range(n), k)]
    entries = draw(st.lists(st.sampled_from(pool), unique_by=tuple)) if pool else []
    kind = draw(st.sampled_from([None, "duplicate", *CORRUPTIONS]))
    if kind is not None:
        base = draw(st.sampled_from(entries or pool)) if pool else list(range(k))
        bad = base if kind == "duplicate" else CORRUPTIONS[kind](base, n)
        entries.insert(draw(st.integers(0, len(entries))), bad)
    return {"n": n, "k": k, draw(st.sampled_from(["edges", "missing"])): entries}


def constructor_edges(entries) -> frozenset:
    # The document's entries as constructor edges: a list as a tuple, a
    # list subclass as a tuple subclass, anything else as it is.
    return frozenset(
        TupleSub(e) if type(e) is ListSub else tuple(e) if isinstance(e, list) else e
        for e in entries
    )


class TestBulkEdgeCheck:
    @settings(max_examples=800, derandomize=True, deadline=None)
    @given(instance_documents())
    def test_loader_matches_the_per_entry_loop(self, doc):
        got = outcome(lambda: hypergraph_from_dict(doc).edges)
        assert got == outcome(lambda: reference_load_edges(doc))

    @settings(max_examples=800, derandomize=True, deadline=None)
    @given(instance_documents())
    def test_constructor_matches_the_per_edge_loop(self, doc):
        n, k = doc["n"], doc["k"]
        edges = constructor_edges(doc.get("edges", doc.get("missing")))
        got = outcome(lambda: KUniformHypergraph(n=n, k=k, edges=edges).edges)
        assert got == outcome(lambda: reference_check_edges(n, k, edges) or edges)

    @pytest.mark.parametrize("key", ["edges", "missing"])
    def test_one_bulk_check_per_load(self, monkeypatch, key):
        calls = []

        def spy(edges, n, k):
            calls.append(len(edges))
            return edges_valid(edges, n, k)

        monkeypatch.setattr(core, "_edges_valid", spy)
        H = hypergraph_from_dict({"n": 6, "k": 3, key: [[0, 1, 2], [1, 3, 5], [2, 4, 5]]})
        assert len(H.edges) == (3 if key == "edges" else 17)
        assert calls == [3]


class TestDensity:
    def test_exact_fraction(self):
        assert cycle_graph(5).edge_density() == Fraction(1, 2)

    def test_vacuous_complete(self):
        assert edgeless(1, 2).edge_density() == Fraction(1)

    def test_complete_hypergraph(self):
        assert complete_kuniform(6, 3).edge_density() == Fraction(1)
