import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

import cliquecert.core as core
import cliquecert.extractor as extractor_module
from cliquecert import (
    InternalConsistencyError,
    NoProgressError,
    SizeRefusalError,
    Verdict,
    extract_graph,
    extract_hypergraph,
    find_complete_tuple,
    hypergraph_from_dict,
    max_clique,
    meets_theorem1_bound,
    score_tau,
    shrink_step,
    verify_complete_tuple,
)
from helpers import (
    all_graphs,
    brute_force_max_clique,
    complete_graph,
    complete_kuniform,
    cycle_graph,
    edgeless,
    graph,
    lemma31_lower_bound,
    missing_inside,
    nine_vertex_example,
    random_hypergraph,
)


class TestExtractGraph:
    def test_complete_graph_returns_everything(self):
        out = extract_graph(complete_graph(4))
        assert out.kind == "clique"
        assert out.clique.vertices == (0, 1, 2, 3)
        assert out.trace.bound_met

    def test_cycle4_returns_certificate(self):
        out = extract_graph(cycle_graph(4))
        assert out.kind == "certificate"
        assert out.certificate.tuples == ((0, 2), (1, 3))
        ok, _ = verify_complete_tuple(cycle_graph(4), out.certificate)
        assert ok

    def test_cycle5_returns_clique_meeting_bound(self):
        out = extract_graph(cycle_graph(5))
        assert out.kind == "clique"
        assert len(out.clique.vertices) == 2
        assert out.trace.alpha == Fraction(1, 2)
        assert out.trace.bound == pytest.approx(0.0857864376, rel=1e-8)
        assert out.trace.bound_met

    def test_rejects_hypergraphs(self):
        with pytest.raises(ValueError):
            extract_graph(complete_kuniform(5, 3))

    def test_pair_count_identity(self):
        rng = random.Random(17)
        for _ in range(80):
            H = random_hypergraph(rng, rng.randint(2, 9), 2, rng.random())
            t = extract_graph(H).trace
            assert sum(t.missing_in_neighborhood) == sum(s for _, s in t.tau_scores)

    def test_soundness_on_random_graphs(self):
        rng = random.Random(29)
        for _ in range(150):
            H = random_hypergraph(rng, rng.randint(1, 9), 2, rng.random())
            out = extract_graph(H)
            if out.kind == "clique":
                assert out.clique.verify(H)
            else:
                ok, reason = verify_complete_tuple(H, out.certificate)
                assert ok, reason

    def test_guarantee_on_small_biclique_free_graphs(self):
        # exhaustive n <= 4 here; the n = 6 sweep lives in the acceptance suite
        from cliquecert import has_induced_biclique

        for n in (1, 2, 3, 4):
            for H in all_graphs(n):
                if has_induced_biclique(H, 2):
                    continue
                out = extract_graph(H)
                assert out.kind == "clique"
                assert out.trace.bound_met
                assert meets_theorem1_bound(len(out.clique.vertices), n, H.edge_density())


class TestScoreTau:
    def test_cycle4_scores(self):
        c4 = cycle_graph(4)
        got = score_tau(c4, c4.edges)
        assert got == {(0, 2): 2, (1, 3): 2}

    def test_empty_when_no_missing(self):
        k5 = complete_graph(5)
        assert score_tau(k5, k5.edges) == {}

    def test_nine_vertex_round_one_matches_brute_force(self):
        H = nine_vertex_example()
        family = set(H.edges)
        got = score_tau(H, family)
        expected = {}
        for sigma in combinations(range(9), 2):
            nb = {
                x
                for x in range(9)
                if x not in sigma and tuple(sorted(sigma + (x,))) in family
            }
            for tau in H.missing:
                if set(tau) <= nb:
                    expected[tau] = expected.get(tau, 0) + 1
        assert got == expected
        assert got == {(0, 1, 2): 15, (3, 4, 5): 15, (6, 7, 8): 15}

    def test_incidence_total(self):
        rng = random.Random(3)
        for _ in range(30):
            H = random_hypergraph(rng, 7, 2, rng.random())
            fam = set(H.edges)
            scores = score_tau(H, fam)
            total = 0
            for sigma in combinations(range(7), 1):
                nb = {
                    x
                    for x in range(7)
                    if x != sigma[0] and tuple(sorted(sigma + (x,))) in fam
                }
                total += sum(1 for tau in combinations(sorted(nb), 2) if tau not in H.edges)
            assert sum(scores.values()) == total

    def test_rejects_mixed_arity(self):
        with pytest.raises(ValueError):
            score_tau(cycle_graph(4), {(0, 1), (0, 1, 2)})

    def test_mixed_arity_names_the_first_two_arities(self):
        with pytest.raises(ValueError, match="arities 3 and 2"):
            score_tau(cycle_graph(4), [(0, 1, 2), (0, 1), (0, 1, 2, 3)])

    @pytest.mark.parametrize("member", [(-1, 0), (0, 4), (1, 1)])
    def test_rejects_member_outside_the_vertex_set(self, member):
        message = f"family member {member} is not a set of 2 vertices in [0, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            score_tau(cycle_graph(4), [member])


class TestShrinkStep:
    def test_nine_vertex_round_one(self):
        H = nine_vertex_example()
        step = shrink_step(H, H.edges)
        assert step.tau == (0, 1, 2)
        assert set(step.family) == set(combinations(range(3, 9), 2))

    def test_nine_vertex_round_two_tie_break(self):
        H = nine_vertex_example()
        first = shrink_step(H, H.edges)
        second = shrink_step(H, first.family, [first.tau])
        assert second.tau == (3, 4, 5)
        assert set(second.family) == {(6,), (7,), (8,)}

    def test_k4_minus_edge(self):
        H = graph(4, [e for e in combinations(range(4), 2) if e != (0, 1)])
        step = shrink_step(H, H.edges)
        assert step.tau == (0, 1)
        assert set(step.family) == {(2,), (3,)}

    def test_membership_invariant(self):
        H = nine_vertex_example()
        step = shrink_step(H, H.edges)
        for sigma in step.family:
            for t in step.tau:
                assert tuple(sorted(sigma + (t,))) in H.edges

    def test_no_progress_on_empty_family(self):
        with pytest.raises(NoProgressError):
            shrink_step(cycle_graph(4), set())

    def test_no_progress_without_scoring_missing_edge(self):
        two_k2 = graph(4, [(0, 1), (2, 3)])
        with pytest.raises(NoProgressError):
            shrink_step(two_k2, two_k2.edges)

    def test_chained_transversal_invariant(self):
        # after two rounds, every survivor extends by any transversal of the
        # chosen missing edges back into the starting family
        from itertools import product

        H = nine_vertex_example()
        start = set(H.edges)
        first = shrink_step(H, start)
        second = shrink_step(H, first.family, [first.tau])
        for sigma in second.family:
            for t1, t2 in product(first.tau, second.tau):
                assert tuple(sorted(sigma + (t1, t2))) in start


class TestExtractHypergraph:
    def test_nine_vertex_certificate(self):
        out = extract_hypergraph(nine_vertex_example(), 3)
        assert out.kind == "certificate"
        assert out.certificate.tuples == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        assert not out.trace.fallback

    def test_nine_vertex_family_sizes(self):
        from cliquecert import count_m_cliques

        H = nine_vertex_example()
        out = extract_hypergraph(H, 3)
        assert out.trace.family_sizes == (count_m_cliques(H, 3), 15, 3)
        assert out.trace.chosen_taus == ((0, 1, 2), (3, 4, 5))

    def test_cycle4_matches_graph_extraction(self):
        out = extract_hypergraph(cycle_graph(4), 2)
        assert out.kind == "certificate"
        assert out.certificate.tuples == ((0, 2), (1, 3))

    def test_complete_hypergraph_immediate(self):
        out = extract_hypergraph(complete_kuniform(6, 3), 4)
        assert out.kind == "clique"
        assert out.clique.vertices == tuple(range(6))
        assert not out.trace.fallback
        assert out.trace.alpha == Fraction(1)

    def test_rejects_m_below_k(self):
        with pytest.raises(ValueError):
            extract_hypergraph(complete_kuniform(5, 3), 2)

    def test_size_refusal(self, monkeypatch):
        # K_12 minus the edge 01 has C(12, 4) - C(10, 2) = 450 four-cliques,
        # past a cap lowered to 449 in place of listing 2,000,000.
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", 449)
        H = graph(12, [e for e in combinations(range(12), 2) if e != (0, 1)])
        with pytest.raises(SizeRefusalError, match="the 4-clique family exceeds the cap of 449$"):
            extract_hypergraph(H, 4)

    def test_score_table_past_the_cap_is_refused(self, monkeypatch):
        # The star on 11 vertices has 10 edges, and N_{0} holds all the
        # leaves, so each of its C(10, 2) = 45 missing edges scores 1.  The
        # walk takes 11 + 45 = 56 column ANDs: one per vertex of the
        # support, and one per missing completion of each vertex, none at
        # the centre and 10 - i at leaf i.
        H = graph(11, [(0, i) for i in range(1, 11)])
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", 56)
        assert len(extract_hypergraph(H, 2).trace.round_scores[0]) == 45
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", 55)
        with pytest.raises(SizeRefusalError, match="the tau score step count .* cap of 55$"):
            extract_hypergraph(H, 2)

    def test_score_tables_share_one_cap(self, monkeypatch):
        # The two rounds of the nine-vertex example at m = 3 walk 47 and 22
        # column ANDs (scoring 3 and 2 taus): each walk fits under a cap of
        # 68, but not both together.
        H = nine_vertex_example()
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", 69)
        assert [len(t) for t in extract_hypergraph(H, 3).trace.round_scores] == [3, 2]
        monkeypatch.setattr(core, "DEFAULT_MAX_FAMILY", 68)
        with pytest.raises(SizeRefusalError, match="the tau score step count .* cap of 68$"):
            extract_hypergraph(H, 3)

    def test_fallback_on_stalled_instance(self):
        two_k2 = graph(4, [(0, 1), (2, 3)])
        out = extract_hypergraph(two_k2, 2)
        assert out.kind == "clique"
        assert out.trace.fallback
        assert out.clique.verify(two_k2)
        assert len(out.clique.vertices) == 2

    def test_soundness_fuzz(self):
        rng = random.Random(41)
        for _ in range(200):
            k = rng.choice([2, 3])
            n = rng.randint(k, 10)
            H = random_hypergraph(rng, n, k, rng.uniform(0.2, 0.95))
            for m in (k, k + 1):
                out = extract_hypergraph(H, m)
                if out.kind == "clique":
                    assert out.clique.verify(H)
                else:
                    ok, reason = verify_complete_tuple(H, out.certificate)
                    assert ok, reason

    def test_chosen_taus_pairwise_disjoint(self):
        rng = random.Random(43)
        for _ in range(100):
            k = rng.choice([2, 3])
            n = rng.randint(k + 2, 10)
            H = random_hypergraph(rng, n, k, rng.uniform(0.3, 0.9))
            out = extract_hypergraph(H, k + 1)
            taus = out.trace.chosen_taus
            for i in range(len(taus)):
                for j in range(i + 1, len(taus)):
                    assert not set(taus[i]) & set(taus[j])

    def test_verdict_class_matches_graph_extraction(self):
        rng = random.Random(47)
        for _ in range(150):
            H = random_hypergraph(rng, rng.randint(2, 8), 2, rng.random())
            assert extract_hypergraph(H, 2).kind == extract_graph(H).kind


# Degenerate instances: no vertex, fewer vertices than k, complete, edgeless,
# and the two 4-vertex graphs that end in a certificate and in a stalled
# round.  m > n leaves no m-set to list.
EDGE_CORPUS = {
    "n0": edgeless(0, 2),
    "n1k3": edgeless(1, 3),
    "k4": hypergraph_from_dict({"n": 4, "k": 2, "missing": []}),
    "e5": edgeless(5, 2),
    "k5k3": complete_kuniform(5, 3),
    "c4": cycle_graph(4),
    "2k2": graph(4, [(0, 1), (2, 3)]),
}
C4_SCORES = (((0, 2), 2), ((1, 3), 2))
# (instance, "graph" or m): (kind, clique vertices or certificate tuples,
# trace fields in declaration order).  Every value is frozen, so any change
# here is a change of behaviour.
EDGE_OUTCOMES = {
    ("n0", "graph"): ("clique", (), ((), (), (), None, Fraction(1), 1.0, True)),
    ("n0", 2): (
        "clique", (),
        ((), (0,), (), Fraction(1), 0.00043402777777777775, 0.0, True, False),
    ),
    ("n0", 3): ("clique", (), ((), (0,), (), Fraction(1), 7.178025906215364e-12, 0.0, True, False)),
    ("n0", 4): (
        "clique", (),
        ((), (0,), (), Fraction(1), 1.7709354738747007e-28, 0.0, True, False),
    ),
    ("n1k3", 3): (
        "clique", (0,),
        ((), (0,), (), Fraction(1), 3.971137586459913e-25, 3.971137586459913e-25, True, False),
    ),
    ("n1k3", 4): (
        "clique", (0,),
        ((), (0,), (), Fraction(1), 6.665961611578503e-85, 6.665961611578503e-85, True, False),
    ),
    ("n1k3", 5): (
        "clique", (0,),
        ((), (0,), (), Fraction(1), 2.329696716611711e-271, 2.329696716611711e-271, True, False),
    ),
    ("k4", "graph"): (
        "clique", (0, 1, 2, 3),
        ((0,) * 4, (0,) * 4, (), None, Fraction(1), 1.0, True),
    ),
    ("k4", 2): (
        "clique", (0, 1, 2, 3),
        ((), (6,), (), Fraction(1), 0.00043402777777777775, 0.001736111111111111, True, False),
    ),
    ("k4", 3): (
        "clique", (0, 1, 2, 3),
        ((), (4,), (), Fraction(1), 7.178025906215364e-12, 2.8712103624861456e-11, True, False),
    ),
    ("k4", 5): (
        "clique", (0, 1, 2, 3),
        ((), (0,), (), Fraction(1), 4.212720233087427e-63, 1.6850880932349707e-62, True, False),
    ),
    ("e5", "graph"): (
        "clique", (0,),
        (
            (0,) * 5, (0,) * 5, tuple((t, 0) for t in combinations(range(5), 2)), (0, 1),
            Fraction(0), 0.0, True,
        ),
    ),
    ("e5", 2): ("clique", (0,), ((), (0,), (), Fraction(0), 0.0, 0.0, True, True)),
    ("e5", 3): ("clique", (0,), ((), (0,), (), Fraction(0), 0.0, 0.0, True, True)),
    ("e5", 6): ("clique", (0,), ((), (0,), (), Fraction(0), 0.0, 0.0, True, True)),
    ("k5k3", 3): (
        "clique", (0, 1, 2, 3, 4),
        ((), (10,), (), Fraction(1), 3.971137586459913e-25, 1.9855687932299563e-24, True, False),
    ),
    ("k5k3", 4): (
        "clique", (0, 1, 2, 3, 4),
        ((), (5,), (), Fraction(1), 6.665961611578503e-85, 3.3329808057892518e-84, True, False),
    ),
    ("k5k3", 6): ("clique", (0, 1, 2, 3, 4), ((), (0,), (), Fraction(1), 0.0, 0.0, True, False)),
    ("c4", "graph"): (
        "certificate", ((0, 2), (1, 3)),
        ((1,) * 4, (1,) * 4, C4_SCORES, (0, 2), Fraction(2, 3), 0.17863279495408174, True),
    ),
    ("c4", 2): (
        "certificate", ((0, 2), (1, 3)),
        (
            ((0, 2),), (4, 2), (C4_SCORES,), Fraction(2, 3), 0.00019290123456790122,
            0.0007716049382716049, True, False,
        ),
    ),
    ("c4", 3): ("clique", (0, 1), ((), (0,), (), Fraction(0), 0.0, 0.0, True, True)),
    ("c4", 5): ("clique", (0, 1), ((), (0,), (), Fraction(0), 0.0, 0.0, True, True)),
    ("2k2", "graph"): (
        "clique", (0, 1),
        (
            (0,) * 4, (0,) * 4, (((0, 2), 0), ((0, 3), 0), ((1, 2), 0), ((1, 3), 0)), (0, 2),
            Fraction(1, 3), 0.0336735048112146, True,
        ),
    ),
    ("2k2", 2): (
        "clique", (0, 1),
        ((), (2,), (), Fraction(1, 3), 4.8225308641975306e-05, 0.00019290123456790122, True, True),
    ),
    ("2k2", 3): ("clique", (0, 1), ((), (0,), (), Fraction(0), 0.0, 0.0, True, True)),
    ("2k2", 5): ("clique", (0, 1), ((), (0,), (), Fraction(0), 0.0, 0.0, True, True)),
}


@pytest.mark.parametrize("name, m", list(EDGE_OUTCOMES))
def test_edge_corpus(name, m):
    H = EDGE_CORPUS[name]
    out = extract_graph(H) if m == "graph" else extract_hypergraph(H, m)
    kind, payload, fields = EDGE_OUTCOMES[name, m]
    assert out.kind == kind
    if kind == "clique":
        assert out.certificate is None and out.clique.vertices == payload
    else:
        assert out.clique is None and out.certificate.tuples == payload
    expected = [pytest.approx(f, rel=1e-12, abs=0) if isinstance(f, float) else f for f in fields]
    assert list(out.trace) == expected


@pytest.mark.parametrize(
    "extract, H, tuples",
    [
        (extract_graph, cycle_graph(4), ((0, 2), (1, 3))),
        (
            lambda H: extract_hypergraph(H, 3),
            nine_vertex_example(),
            ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
        ),
    ],
    ids=["graph", "hypergraph"],
)
def test_certificate_gate(monkeypatch, extract, H, tuples):
    monkeypatch.setattr(extractor_module, "verify_complete_tuple", lambda *_: (False, "forced"))
    message = "^search produced an invalid certificate: forced$"
    with pytest.raises(InternalConsistencyError, match=message) as info:
        extract(H)
    assert info.value.certificate.tuples == tuples


class TestLemma31Observed:
    def test_missing_edge_floor_on_tuple_free_instances(self):
        rng = random.Random(53)
        checked = 0
        while checked < 25:
            H = random_hypergraph(rng, 7, 2, rng.uniform(0.3, 0.9))
            if find_complete_tuple(H, 2).verdict is not Verdict.ABSENT:
                continue
            checked += 1
            omega = brute_force_max_clique(H)
            assert omega == len(max_clique(H).vertices)
            for mask in range(1 << 7):
                S = [v for v in range(7) if mask >> v & 1]
                assert missing_inside(H, S) >= lemma31_lower_bound(len(S), omega, 2, 2)
