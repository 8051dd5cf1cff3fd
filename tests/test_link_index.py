"""The link-index kernels against the subset-scanning kernels they replaced.

Every comparison is on exact outputs: families and scores as values,
clique witnesses as vertex tuples, extraction outcomes as the outcome
objects (which hold everything a report is made of) and, on a sample, as
the report dictionaries the CLI prints.
"""

import importlib
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

import cliquecert.extractor as extractor
from cliquecert import (
    KUniformHypergraph,
    box_family_from_dict,
    build_nerve,
    count_m_cliques,
    extract_graph,
    extract_hypergraph,
    greedy_extend_clique,
    hypergraph_from_dict,
    m_clique_family,
    max_clique,
    random_box_family,
    score_tau,
    shrink_step,
)
from cliquecert.cli import _graph_outcome_dict, _hypergraph_outcome_dict
from cliquecert.core import WorkMeter, clique_through_exceeds, mask_vertices
from helpers import (
    all_graphs,
    brute_force_max_clique,
    graph,
    random_hypergraph,
    reference_extract_graph,
    reference_extract_hypergraph,
    reference_greedy_extend_clique,
    reference_links,
    reference_m_clique_family,
    reference_max_clique,
    reference_nerve_edges,
    reference_score_tau,
    reference_shrink_step,
    relabel,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def same_extraction(H, m) -> bool:
    # The outcome and trace records hold everything the report dictionary
    # is made of, so equal outcomes print equal reports.  Records are
    # tuples, which compare equal across classes, so the classes are
    # compared too.
    got, want = extract_hypergraph(H, m), reference_extract_hypergraph(H, m)
    return type(got) is type(want) and type(got.trace) is type(want.trace) and got == want


def same_rounds(H, fam, rounds: int) -> bool:
    """score_tau and shrink_step agree with the oracles on ``fam`` and on
    each family shrink_step returns, for up to ``rounds`` rounds."""
    taus = []
    for _ in range(rounds):
        if score_tau(H, fam) != reference_score_tau(H, fam):
            return False
        try:
            want = reference_shrink_step(H, fam, taus)
        except extractor.NoProgressError:
            with pytest.raises(extractor.NoProgressError):
                shrink_step(H, fam, taus)
            return True
        step = shrink_step(H, fam, taus)
        if step != want:
            return False
        taus.append(step.tau)
        fam = step.family
    return True


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

    def test_graph_index_from_adjacency_rows(self):
        # At k = 2 the index is built from one adjacency row per vertex;
        # the per-edge build it replaced is the oracle, keys included:
        # only nonempty links are keys, so isolated vertices have none.
        cases = [G for n in range(7) for G in all_graphs(n)]
        rng = random.Random(21)
        for n in (0, 1, 0, 1, *(rng.randint(2, 60) for _ in range(80))):
            cases.append(random_hypergraph(rng, n, 2, rng.random() ** 3))
        isolated = 0
        for G in cases:
            assert G.links == reference_links(G), (G.n, sorted(G.edges))
            isolated += 0 < len(G.links) < G.n
        assert isolated > 40

    def test_loader_keeps_sorted_edges(self):
        # The loader keeps an edge list given in ascending order as
        # sorted_edges; any other order is sorted on first use.
        rng = random.Random(22)
        for k in (2, 3, 4):
            for _ in range(30):
                H = random_hypergraph(rng, rng.randint(0, 10), k, rng.random())
                ascending = [list(e) for e in H.sorted_edges]
                shuffled = rng.sample(ascending, len(ascending))
                missing = {"n": H.n, "k": k, "missing": [list(e) for e in H.missing]}
                docs = [{"n": H.n, "k": k, "edges": order}
                        for order in (ascending, shuffled, ascending[::-1])]
                for doc in (*docs, missing):
                    L = hypergraph_from_dict(doc)
                    assert L.edges == H.edges
                    assert L.sorted_edges == tuple(sorted(H.edges))
                    assert L.links == reference_links(H)


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

    def test_max_clique_witness_on_benchmark_nerves(self, monkeypatch, tmp_path):
        # The nerves and intersection graphs of the first 36 seed-1
        # nerve-extract cases: four of each slot, d = 1, 2 and 3 at the
        # benchmark's sizes.  The shadow prune cuts the nerves at d >= 2,
        # the colour bound the graphs.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        pool = workloads.make_pool("nerve-extract", 1, str(tmp_path))
        for i, case in enumerate(pool.cases[:36]):
            fam = box_family_from_dict(case)
            for H in (fam.nerve_hypergraph, fam.intersection_graph):
                assert max_clique(H) == reference_max_clique(H), (i, H.k)

    def test_max_clique_witness_on_dense_graphs(self):
        for n in (20, 30, 40):
            for seed in range(8):
                G = random_hypergraph(random.Random(seed), n, 2, 0.8)
                assert max_clique(G) == reference_max_clique(G), (n, seed)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_max_clique_witness_at_k_4_to_6(self, k):
        # Instances with edges, where the walk gets two or more vertices
        # below the root while its clique is still under k - 1 vertices,
        # so each added vertex narrows the candidates by its shadow.
        for seed in range(8):
            rng = random.Random(1000 * k + seed)
            n, p = rng.randint(12, 20), rng.uniform(0.08, 0.5)
            H = random_hypergraph(rng, n, k, p)
            assert max_clique(H) == reference_max_clique(H), (k, seed)

    def test_max_clique_witness_on_edgeless_instances(self):
        # Every set of k-1 vertices is a clique vacuously, and the shadow
        # prune ends the walk at the root: there is no edge to extend one.
        for k in range(5, 13):
            for n in (k - 2, k - 1, k, k + 3, 3 * k):
                H = KUniformHypergraph(n=n, k=k, edges=frozenset())
                want = tuple(range(min(n, k - 1)))
                assert max_clique(H).vertices == want, (n, k)
                if n <= k + 3:
                    assert reference_max_clique(H).vertices == want

    def test_max_clique_on_dense_graph_in_bounded_time(self):
        # Seed-1 G(100, 0.8): 5-8 s without the colour bound, about 0.5 s
        # with it on a 2-core VM; the bound below leaves room for a loaded
        # host.  The witness is the one the walk without prunes returns.
        G = random_hypergraph(random.Random(1), 100, 2, 0.8)
        G.links
        started = time.perf_counter()
        got = max_clique(G).vertices
        assert time.perf_counter() - started < 3.0
        assert got == (7, 9, 11, 14, 23, 25, 26, 34, 40, 42, 43, 45, 48, 54, 61, 64, 73, 77, 82)

    @pytest.mark.parametrize("k, n, cap", [(2, 12, 4), (2, 10, 3), (3, 9, 3), (3, 7, 4)])
    def test_clique_through_exceeds_on_climb_walks(self, k, n, cap):
        # A climb-shaped walk keeps omega <= cap, so adding e raises it past
        # the cap exactly when a clique of more than cap vertices holds e.
        rng = random.Random(k * 100 + n)
        positions = list(combinations(range(n), k))
        edges: set = set()
        verdicts = set()
        for _ in range(150):
            e = rng.choice(positions)
            if e in edges:
                edges.discard(e)
                continue
            H = KUniformHypergraph(n=n, k=k, edges=frozenset(edges))
            trial = KUniformHypergraph(n=n, k=k, edges=H.edges | {e})
            over = len(reference_max_clique(trial)) > cap
            assert clique_through_exceeds(H.links, k, sum(1 << v for v in e), cap) == over, e
            verdicts.add(over)
            if not over:
                edges.add(e)
        assert verdicts == {True, False}

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

    def test_scores_and_shrink_in_later_rounds(self):
        # Rounds 2 to m - 1 score and shrink the families that shrink_step
        # itself returned, of arity m - 1 down to 2.  Disjoint planted
        # missing k-sets keep most runs going past the first round.
        rng = random.Random(18)
        for k in (2, 3, 4):
            for _ in range(25):
                n = rng.randint(2 * k + 1, 10)
                order = rng.sample(range(n), n)
                planted = {tuple(sorted(order[i:i + k])) for i in range(0, n - k + 1, k)}
                q = rng.uniform(0, 0.1)
                H = KUniformHypergraph(n=n, k=k, edges=frozenset(
                    e for e in combinations(range(n), k)
                    if e not in planted and rng.random() >= q
                ))
                for m in (k + 1, k + 2):
                    assert same_rounds(H, m_clique_family(H, m), m - 1), (H, m)

    def test_scores_and_shrink_on_benchmark_sized_nerves(self):
        for n, d, spread, side in ((90, 1, 100, 40), (40, 2, 100, 40), (26, 3, 30, 30)):
            H = random_box_family(n, d, 1, spread=spread, max_side=side).nerve_hypergraph
            assert same_rounds(H, m_clique_family(H, H.k + 1), H.k), (n, d)

    def test_first_round_from_extension_masks(self, monkeypatch):
        # Round 1 at m > k reads its sigma off the (m-1)-cliques, not F_m:
        # the same round, |F_m| and first member as shrink_step on F_m.
        # A few rows per transpose, so that most rounds take several.
        monkeypatch.setattr(extractor, "TRANSPOSE_CELLS", 40)
        cases = [(G, m) for n in range(7) for G in all_graphs(n) for m in (3, 4)]
        rng = random.Random(20)
        for _ in range(200):
            H = random_hypergraph(rng, rng.randint(3, 10), 3, rng.random() ** 0.5)
            cases += [(H, 4), (H, 5)]
        for H, m in cases:
            fam = m_clique_family(H, m)
            sigmas, col, size, first = extractor._first_round(H, m)
            assert (size, first) == (len(fam), fam[0] if fam else None)
            try:
                want = shrink_step(H, fam)
            except extractor.NoProgressError:
                with pytest.raises(extractor.NoProgressError):
                    extractor._shrink(H, sigmas, col, (), WorkMeter("score"))
                continue
            assert extractor._shrink(H, sigmas, col, (), WorkMeter("score")) == want, (sorted(H.edges), m)

    def test_first_round_from_links(self, monkeypatch):
        # Round 1 at m = k reads the link index, not F_k: the same round,
        # |F_k| and first member, and so the same first greedy candidate,
        # as shrink_step on F_k.  A few rows per transpose at k >= 3, so
        # that most rounds take several.
        monkeypatch.setattr(extractor, "TRANSPOSE_CELLS", 40)
        cases = [G for n in range(6) for G in all_graphs(n)]
        rng = random.Random(23)
        for k in (2, 3, 4):
            for _ in range(120):
                cases.append(random_hypergraph(rng, rng.randint(0, 11), k, rng.random() ** 0.5))
        for H in cases:
            fam = m_clique_family(H, H.k)
            sigmas, col, size, first = extractor._first_round(H, H.k)
            assert (size, first) == (len(fam), fam[0] if fam else None)
            if fam:
                want = reference_greedy_extend_clique(H, fam[0])
                assert greedy_extend_clique(H, first) == want
            try:
                want = shrink_step(H, fam)
            except extractor.NoProgressError:
                with pytest.raises(extractor.NoProgressError):
                    extractor._shrink(H, sigmas, col, (), WorkMeter("score"))
                continue
            assert extractor._shrink(H, sigmas, col, (), WorkMeter("score")) == want, (sorted(H.edges), H.k)

    def test_one_pass_over_the_family(self):
        # A shrink round reads its family once, so a one-shot iterator
        # gives what the tuple gives; a second pass would see it empty.
        cases = [
            (H, m_clique_family(H, rng.choice([H.k, H.k + 1])))
            for rng, H in random_instances(19, 200)
        ]
        for n, d, spread, side in ((90, 1, 100, 40), (40, 2, 100, 40), (26, 3, 30, 30)):
            H = random_box_family(n, d, 1, spread=spread, max_side=side).nerve_hypergraph
            cases.append((H, m_clique_family(H, H.k + 1)))
        for H, fam in cases:
            assert score_tau(H, iter(fam)) == score_tau(H, fam)
            try:
                want = shrink_step(H, fam)
            except extractor.NoProgressError:
                with pytest.raises(extractor.NoProgressError):
                    shrink_step(H, iter(fam))
                continue
            assert shrink_step(H, iter(fam)) == want

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
                assert extract_graph(G) == reference_extract_graph(G), sorted(G.edges)
                for m in (2, 3):
                    assert same_extraction(G, m), (sorted(G.edges), m)

    def test_outcome_dicts(self):
        for G in list(all_graphs(4))[::7] + [H for _, H in random_instances(16, 40)]:
            for m in (G.k, G.k + 1):
                assert _hypergraph_outcome_dict(
                    extract_hypergraph(G, m)
                ) == _hypergraph_outcome_dict(reference_extract_hypergraph(G, m))

    def test_graph_extraction(self):
        # Seeded G(n, p): the outcome, and on a sample the report dictionary.
        rng = random.Random(17)
        for i in range(500):
            G = random_hypergraph(rng, rng.randint(6, 12), 2, rng.random())
            got, want = extract_graph(G), reference_extract_graph(G)
            assert got == want, sorted(G.edges)
            if i % 10 == 0:
                assert _graph_outcome_dict(got) == _graph_outcome_dict(want)

    def test_graph_extraction_on_benchmark_nerves(self, monkeypatch, tmp_path):
        # The d=1 nerves of the seed-1 nerve-extract cases, the inputs of
        # the benchmark's `extract --algorithm graph` operations.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        pool = workloads.make_pool("nerve-extract", 1, str(tmp_path))
        nerves = [box_family_from_dict(c).nerve_hypergraph for c in pool.cases if c["d"] == 1]
        assert len(nerves) == 42
        for i, G in enumerate(nerves):
            assert extract_graph(G) == reference_extract_graph(G), i

    def test_graph_extraction_on_interval_nerves(self):
        # Interval graphs are chordal, so every common neighbourhood of a
        # missing edge is a clique and the candidate scan never stops at a
        # certificate.
        for n in (20, 45, 90):
            for seed in range(4):
                G = random_box_family(n, 1, seed, spread=100, max_side=40).nerve_hypergraph
                got = extract_graph(G)
                assert got.kind == "clique"
                assert got == reference_extract_graph(G), (n, seed)

    # Ten vertices whose best candidate cliques have four vertices: the
    # common neighbourhoods of two missing edges and one per-vertex
    # candidate.  The lexicographic tie-break picks the per-vertex one as
    # labelled and, relabelled by TIE_PERM, the common neighbourhood that
    # the scan reaches second.
    TIE_EDGES = [
        (0, 1), (0, 4), (0, 5), (0, 7), (0, 8), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        (1, 7), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9), (3, 6), (3, 9), (4, 5),
        (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (6, 8), (7, 9),
    ]
    TIE_PERM = [9, 6, 4, 3, 8, 2, 0, 1, 5, 7]

    @pytest.mark.parametrize(
        "perm, tied, witness",
        [
            (list(range(10)), [(1, 2, 4, 5), (1, 4, 5, 7)], (0, 1, 4, 5, 7)),
            (TIE_PERM, [(1, 2, 6, 8), (2, 4, 6, 8)], (1, 2, 4, 6, 8)),
        ],
    )
    def test_graph_extraction_tie_break(self, perm, tied, witness):
        G = relabel(graph(10, self.TIE_EDGES), perm)
        adj = [G.links.get(1 << v, 0) for v in range(G.n)]
        common = {mask_vertices(adj[a] & adj[b]) for a, b in G.missing}
        cliques = [c for c in common if G.is_clique(c)]
        assert max(map(len, cliques)) == 4
        assert sorted(c for c in cliques if len(c) == 4) == tied
        got = extract_graph(G)
        assert got == reference_extract_graph(G)
        assert got.clique.vertices == witness

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
