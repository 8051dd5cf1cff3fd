import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquecert import (
    InputFormatError,
    KUniformHypergraph,
    count_m_cliques,
    ext_binom,
    greedy_extend_clique,
    hypergraph_from_dict,
    hypergraph_to_dict,
    max_clique,
    maximal_missing_matching,
    neighborhood_of_tuple,
)
from helpers import (
    brute_force_max_clique,
    complete_graph,
    complete_kuniform,
    cycle_graph,
    edgeless,
    nine_vertex_example,
    random_hypergraph,
)
import random


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
        got = maximal_missing_matching(cycle_graph(5), range(5))
        assert got == [(0, 2), (1, 3)]

    def test_cycle4_covers_everything(self):
        got = maximal_missing_matching(cycle_graph(4), range(4))
        assert got == [(0, 2), (1, 3)]

    def test_complete_graph_empty(self):
        assert maximal_missing_matching(complete_graph(6), range(6)) == []

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            maximal_missing_matching(cycle_graph(4), [0, 9])

    @given(hypergraphs(), st.integers(min_value=0, max_value=255))
    def test_uncovered_set_is_a_clique(self, H, subset_mask):
        S = [v for v in range(H.n) if subset_mask >> v & 1]
        matching = maximal_missing_matching(H, S)
        covered = set()
        for e in matching:
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
            t = len(maximal_missing_matching(H, S))
            assert H.k * t >= len(S) - omega


class TestNeighborhoodOfTuple:
    def test_graph_neighborhood(self):
        c4 = cycle_graph(4)
        assert neighborhood_of_tuple(c4, {0}, c4.edges) == {1, 3}

    def test_complete_graph(self):
        k6 = complete_graph(6)
        assert neighborhood_of_tuple(k6, {2}, k6.edges) == {0, 1, 3, 4, 5}

    def test_round_one_family_of_nine_vertex_example(self):
        family = set(combinations(range(3, 9), 2))
        H = nine_vertex_example()
        assert neighborhood_of_tuple(H, {3}, family) == {4, 5, 6, 7, 8}

    def test_rejects_arity_mismatch(self):
        c4 = cycle_graph(4)
        with pytest.raises(ValueError):
            neighborhood_of_tuple(c4, {0, 1}, c4.edges)


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
        H = KUniformHypergraph.from_edges(4, 2, [(1, 0), (3, 2)])
        assert H.sorted_edges == ((0, 1), (2, 3))


class TestDensity:
    def test_exact_fraction(self):
        assert cycle_graph(5).edge_density() == Fraction(1, 2)

    def test_vacuous_complete(self):
        assert edgeless(1, 2).edge_density() == Fraction(1)

    def test_complete_hypergraph(self):
        assert complete_kuniform(6, 3).edge_density() == Fraction(1)
