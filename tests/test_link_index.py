"""The link-index kernels against the subset-scanning kernels they replaced.

Every comparison is on exact outputs: families and scores as values,
clique witnesses as vertex tuples, extraction outcomes as the outcome
objects (which hold everything a report is made of) and, on a sample, as
the report dictionaries the CLI prints.
"""

import random
from itertools import combinations

import pytest

import cliquecert.extractor as extractor
from cliquecert import (
    all_graphs,
    build_nerve,
    count_m_cliques,
    extract_graph,
    extract_hypergraph,
    greedy_extend_clique,
    m_clique_family,
    max_clique,
    random_box_family,
    score_tau,
    shrink_step,
)
from cliquecert.cli import _graph_outcome_dict, _hypergraph_outcome_dict
from helpers import (
    brute_force_max_clique,
    random_hypergraph,
    reference_extract_graph,
    reference_greedy_extend_clique,
    reference_m_clique_family,
    reference_max_clique,
    reference_nerve_edges,
    reference_score_tau,
    reference_shrink_step,
)


def reference_extraction(H, m):
    """extract_hypergraph run on the subset-scanning kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extractor, "m_clique_family", reference_m_clique_family)
        mp.setattr(extractor, "shrink_step", reference_shrink_step)
        mp.setattr(extractor, "greedy_extend_clique", reference_greedy_extend_clique)
        return extractor.extract_hypergraph(H, m)


def same_extraction(H, m) -> bool:
    # The outcome dataclasses hold everything the report dictionary is
    # made of, so equal outcomes print equal reports.
    return extract_hypergraph(H, m) == reference_extraction(H, m)


def random_instances(seed: int, count: int, max_n: int = 9):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice([2, 3, 4])
        H = random_hypergraph(rng, rng.randint(k, max_n), k, rng.random() ** 0.5)
        yield rng, H


class TestLinks:
    def test_definition(self):
        for _, H in random_instances(5, 60):
            for s in combinations(range(H.n), H.k - 1):
                want = sum(
                    1 << x
                    for x in range(H.n)
                    if x not in s and tuple(sorted(s + (x,))) in H.edges
                )
                assert H.links.get(sum(1 << v for v in s), 0) == want

    def test_graph_keys_are_neighbourhoods(self):
        for G in all_graphs(4):
            for v in range(4):
                nbrs = {u for e in G.edges if v in e for u in e if u != v}
                assert G.links.get(1 << v, 0) == sum(1 << u for u in nbrs)


class TestCliqueKernels:
    def test_family_and_count_on_small_graphs(self):
        for n in range(1, 6):
            for G in all_graphs(n):
                for m in (2, 3, 4):
                    fam = m_clique_family(G, m)
                    assert fam == reference_m_clique_family(G, m)
                    assert count_m_cliques(G, m) == len(fam)

    def test_family_on_random_hypergraphs(self):
        for rng, H in random_instances(11, 300):
            for m in (H.k, H.k + 1, H.k + 2):
                assert m_clique_family(H, m) == reference_m_clique_family(H, m)

    def test_max_clique_witness(self):
        for n in range(0, 6):
            for G in all_graphs(n):
                assert max_clique(G) == reference_max_clique(G)
        for _, H in random_instances(12, 400, max_n=11):
            got = max_clique(H)
            assert got == reference_max_clique(H)
            assert len(got) == brute_force_max_clique(H)

    def test_greedy_extend(self):
        for rng, H in random_instances(13, 300):
            base = rng.choice(m_clique_family(H, H.k) or ((),))
            assert greedy_extend_clique(H, base) == reference_greedy_extend_clique(H, base)
            assert greedy_extend_clique(H) == reference_greedy_extend_clique(H)

    def test_scores_and_shrink(self):
        for rng, H in random_instances(14, 300):
            fam = m_clique_family(H, rng.choice([H.k, H.k + 1]))
            assert score_tau(H, fam) == reference_score_tau(H, fam)
            try:
                want = reference_shrink_step(H, fam)
            except extractor.NoProgressError:
                with pytest.raises(extractor.NoProgressError):
                    shrink_step(H, fam)
                continue
            assert shrink_step(H, fam) == want

    def test_family_members_must_be_vertex_sets(self):
        H = random_hypergraph(random.Random(1), 5, 2, 0.5)
        with pytest.raises(ValueError):
            score_tau(H, [(0, 5)])
        with pytest.raises(ValueError):
            score_tau(H, [(1, 1)])


class TestExtractionOracle:
    def test_all_graphs_up_to_six_vertices(self):
        for n in range(2, 7):
            for G in all_graphs(n):
                for m in (2, 3):
                    assert same_extraction(G, m), (sorted(G.edges), m)

    def test_outcome_dicts(self):
        for G in list(all_graphs(4))[::7] + [H for _, H in random_instances(16, 40)]:
            for m in (G.k, G.k + 1):
                assert _hypergraph_outcome_dict(
                    extract_hypergraph(G, m)
                ) == _hypergraph_outcome_dict(reference_extraction(G, m))

    def test_graph_extraction(self):
        graphs = [G for n in range(2, 6) for G in all_graphs(n)]
        rng = random.Random(17)
        graphs += [random_hypergraph(rng, rng.randint(6, 12), 2, rng.random()) for _ in range(500)]
        for G in graphs:
            assert _graph_outcome_dict(extract_graph(G)) == _graph_outcome_dict(
                reference_extract_graph(G)
            ), sorted(G.edges)

    def test_random_hypergraphs(self):
        for _, H in random_instances(15, 300):
            for m in (H.k, H.k + 1, H.k + 2):
                assert same_extraction(H, m), (H.n, H.k, sorted(H.edges), m)

    def test_box_nerves(self):
        for n, d, seed in ((40, 1, 1), (20, 2, 2), (16, 3, 3)):
            H = random_box_family(n, d, seed, spread=40, max_side=30).nerve_hypergraph
            for m in (d + 1, d + 2):
                assert same_extraction(H, m), (n, d, seed, m)
            assert max_clique(H) == reference_max_clique(H)


class TestPairwiseNerve:
    def test_criterion_five_corpus(self):
        for seed in range(300):
            fam = random_box_family(30, 1, seed)
            assert build_nerve(fam).edges == reference_nerve_edges(fam), seed
        for seed in range(100):
            fam = random_box_family(12, 2, seed, spread=40, max_side=30)
            assert build_nerve(fam).edges == reference_nerve_edges(fam), seed

    def test_touching_and_degenerate_boxes(self):
        for d in (1, 2, 3):
            for seed in range(20):
                fam = random_box_family(10, d, seed, spread=6, min_side=0, max_side=3)
                assert fam.nerve_hypergraph.edges == reference_nerve_edges(fam), (d, seed)
