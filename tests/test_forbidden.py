import functools
import random
import re
import sys
import time
from itertools import combinations, product

import pytest

from cliquecert import (
    CompleteTupleCertificate,
    InputFormatError,
    KUniformHypergraph,
    Verdict,
    find_complete_tuple,
    has_induced_biclique,
    random_box_family,
    verify_complete_tuple,
)
from cliquecert import forbidden
from cliquecert.forbidden import TupleIndex
from helpers import (
    all_graphs,
    brute_force_has_complete_tuple,
    complete_graph,
    complete_kuniform,
    cycle_graph,
    edgeless,
    graph,
    nine_vertex_example,
    random_hypergraph,
    reference_check_complete_tuple,
    reference_find_complete_tuple,
    reference_link_core,
    relabel,
)


def k6_minus_perfect_matching():
    removed = {(0, 1), (2, 3), (4, 5)}
    return graph(6, [e for e in combinations(range(6), 2) if e not in removed])


def square_of_pairs():
    """K_8 minus the pairs (0, 1), (2, 3), (4, 5), (6, 7), (0, 4), (2, 6).
    Among its missing pairs, (0, 1) ~ (2, 3) ~ (4, 5) ~ (6, 7) ~ (0, 1) is
    a 4-cycle of compatible pairs, yet it holds no complete 3-tuple."""
    removed = {(0, 1), (2, 3), (4, 5), (6, 7), (0, 4), (2, 6)}
    return graph(8, [e for e in combinations(range(8), 2) if e not in removed])


class TestVerify:
    def test_cycle4_certificate(self):
        ok, reason = verify_complete_tuple(
            cycle_graph(4), CompleteTupleCertificate(((0, 2), (1, 3)))
        )
        assert ok and reason is None

    def test_complete_graph_rejects(self):
        ok, reason = verify_complete_tuple(
            complete_graph(4), CompleteTupleCertificate(((0, 2), (1, 3)))
        )
        assert not ok
        assert "missing" in reason

    def test_nine_vertex_certificate(self):
        cert = CompleteTupleCertificate(((0, 1, 2), (3, 4, 5), (6, 7, 8)))
        ok, reason = verify_complete_tuple(nine_vertex_example(), cert)
        assert ok and reason is None

    def test_detects_intersecting_tuples(self):
        H = edgeless(6, 2)
        ok, reason = verify_complete_tuple(H, CompleteTupleCertificate(((0, 1), (1, 2))))
        assert not ok
        assert "disjoint" in reason

    def test_detects_bad_transversal(self):
        # 2 disjoint missing edges but a missing cross pair
        H = graph(4, [(0, 1), (0, 3), (1, 2)])
        ok, reason = verify_complete_tuple(H, CompleteTupleCertificate(((0, 2), (1, 3))))
        assert not ok
        assert "transversal" in reason

    def test_arity_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            verify_complete_tuple(cycle_graph(4), CompleteTupleCertificate(((0, 1, 2), (3,))))

    def test_m_below_k_is_an_error(self):
        with pytest.raises(ValueError):
            verify_complete_tuple(nine_vertex_example(), CompleteTupleCertificate(((0, 1, 2),) * 2))

    def test_out_of_range_vertex_reported_before_missing_test(self):
        # (4, 0) is unsorted, so its first and last entries are both in
        # range; vertex 4 is not, whatever the order.
        for tuples in (((4, 0), (1, 3)), ((0, 2), (-1, 3))):
            ok, reason = verify_complete_tuple(cycle_graph(4), CompleteTupleCertificate(tuples))
            assert not ok
            assert "outside" in reason

    def test_bulk_check_words_the_in_order_walk(self):
        # The bulk passes and the walk that words their failures give the
        # in-order check's verdict, reason and error on any certificate;
        # ``is_edge`` sees only sorted k-subsets of [0, n).
        rng = random.Random(2024)
        instances = [cycle_graph(4), nine_vertex_example()]
        for _ in range(50):
            k = rng.choice([2, 3])
            instances.append(random_hypergraph(rng, rng.randint(k, 8), k, rng.random()))
        kinds = ("disjoint", "outside", "missing", "clique")
        seen = set()
        for H in instances:
            n, k = H.n, H.k
            ksets = set(combinations(range(n), k))

            def is_edge(t):
                assert t in ksets, t
                return t in H.edges

            for m in (k - 1, k, k + 1):
                certs = [c for _, c in zip(range(60), combinations(H.missing, m))]
                for _ in range(30):
                    sizes = [k] * m
                    if rng.random() < 0.1:
                        sizes[rng.randrange(m)] += rng.choice([-1, 1])
                    certs.append(tuple(
                        tuple(rng.choice(range(-1, n + 1)) for _ in range(s)) for s in sizes
                    ))
                for tuples in certs:
                    cert = CompleteTupleCertificate(tuple(tuples))
                    try:
                        want = reference_check_complete_tuple(n, k, is_edge, cert)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=re.escape(str(exc))):
                            verify_complete_tuple(H, cert)
                        seen.add("error")
                        continue
                    assert forbidden.check_complete_tuple(n, k, is_edge, cert) == want, tuples
                    assert verify_complete_tuple(H, cert) == want
                    seen.add(want[0] or next(w for w in kinds if w in want[1]))
        assert seen == {True, "error", *kinds}


class TestFind:
    def test_cycle4_found(self):
        res = find_complete_tuple(cycle_graph(4), 2)
        assert res.verdict is Verdict.FOUND
        assert res.certificate.tuples == ((0, 2), (1, 3))

    def test_cycle5_absent(self):
        res = find_complete_tuple(cycle_graph(5), 2)
        assert res.verdict is Verdict.ABSENT
        assert res.certificate is None

    def test_complete_graph_absent(self):
        for m in (2, 3):
            assert find_complete_tuple(complete_graph(6), m).verdict is Verdict.ABSENT

    def test_nine_vertex_found_exactly(self):
        res = find_complete_tuple(nine_vertex_example(), 3)
        assert res.verdict is Verdict.FOUND
        assert res.certificate.tuples == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_budget_exhaustion_is_distinct(self):
        # Absent, but only after 4 missing pairs are tried (k = 2), or
        # after more than 3 candidates are passed over (k = 3).
        for H, m in ((square_of_pairs(), 3), (edgeless(8, 3), 3)):
            assert find_complete_tuple(H, m).verdict is Verdict.ABSENT
            res = find_complete_tuple(H, m, budget=3)
            assert res.verdict is Verdict.EXHAUSTED
            assert res.certificate is None
            assert res.nodes == 4

    def test_node_count_reported(self):
        # At k = 2 a node is a missing pair tried.  C_5 tries (0, 2) and
        # (0, 3), whose common neighbourhoods above 0 hold one vertex each;
        # then 1 has one neighbour above it, and three vertices are left.
        assert_node_count(cycle_graph(5), 2, (Verdict.ABSENT, None, 2))
        assert_node_count(square_of_pairs(), 3, (Verdict.ABSENT, None, 4))
        assert find_complete_tuple(edgeless(8, 3), 3).nodes > 0

    def test_walk_meter_charges_each_child_pushed(self, monkeypatch):
        # square_of_pairs at m = 3 enters the common neighbourhoods of
        # (0, 1), (2, 3) and (0, 4) above 0 or 2; that of (2, 6), {5}, is
        # too small for one more pair and is not entered.
        charges = []

        class Meter(forbidden.WorkMeter):
            def charge(self, steps):
                charges.append(steps)
                super().charge(steps)

        monkeypatch.setattr(forbidden, "WorkMeter", Meter)
        find_complete_tuple(square_of_pairs(), 3)
        assert charges == [5, 2, 4]

    def test_depth_not_bounded_by_recursion_limit(self):
        # K_2(300): the walk nests one frame per pair, 300 deep.
        H = graph(600, [(u, v) for u, v in combinations(range(600), 2) if v != u + 1 or u % 2])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            res = find_complete_tuple(H, 300)
        finally:
            sys.setrecursionlimit(limit)
        pairs = tuple((2 * i, 2 * i + 1) for i in range(300))
        assert outcome(res) == (Verdict.FOUND, CompleteTupleCertificate(pairs), 300)

    def test_rook_graph_found_at_the_first_pairs(self):
        # K_24 x K_24: (0, 25) and (1, 24), the first missing pair and one
        # inside its common neighbourhood, make an induced K_{2,2}.
        q = 24
        H = graph(q * q, [
            (u, v) for u, v in combinations(range(q * q), 2) if u // q == v // q or u % q == v % q
        ])
        H.links
        start = time.perf_counter()
        res = find_complete_tuple(H, 2)
        assert time.perf_counter() - start < 0.1
        assert outcome(res) == (Verdict.FOUND, CompleteTupleCertificate(((0, 25), (1, 24))), 2)

    def test_rejects_m_below_k(self):
        with pytest.raises(ValueError):
            find_complete_tuple(nine_vertex_example(), 2)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            find_complete_tuple(cycle_graph(4), 2, budget=-1)

    def test_zero_budget_is_legal(self):
        res = find_complete_tuple(cycle_graph(4), 2, budget=0)
        assert res.verdict is Verdict.EXHAUSTED
        assert res.nodes == 1
        # Too few missing edges to try anything: absent without a node.
        res = find_complete_tuple(complete_graph(4), 2, budget=0)
        assert res.verdict is Verdict.ABSENT
        assert res.nodes == 0

    def test_found_certificates_verify(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(200):
            H = random_hypergraph(rng, rng.randint(4, 9), 2, rng.random())
            res = find_complete_tuple(H, 2)
            if res.verdict is Verdict.FOUND:
                hits += 1
                ok, reason = verify_complete_tuple(H, res.certificate)
                assert ok, reason
        assert hits > 10

    def test_agrees_with_brute_force_enumeration(self):
        rng = random.Random(5)
        for _ in range(60):
            k = rng.choice([2, 3])
            H = random_hypergraph(rng, rng.randint(k, 8), k, rng.random())
            m = rng.randint(k, k + 1)
            res = find_complete_tuple(H, m)
            assert res.verdict is not Verdict.EXHAUSTED
            assert (res.verdict is Verdict.FOUND) == brute_force_has_complete_tuple(H, m)

    def test_verdict_stable_under_relabeling(self):
        rng = random.Random(31)
        for _ in range(40):
            H = random_hypergraph(rng, 7, 2, rng.random())
            perm = list(range(7))
            rng.shuffle(perm)
            a = find_complete_tuple(H, 2).verdict
            b = find_complete_tuple(relabel(H, perm), 2).verdict
            assert a == b


def planted_complete_tuple(rng, n, k, m, p=None):
    """A random k-graph, dense unless its edge probability ``p`` is
    given, with m disjoint missing edges whose transversals are all
    edges, so that a complete m-tuple exists."""
    verts = list(range(n))
    rng.shuffle(verts)
    planted = [tuple(sorted(verts[i * k : (i + 1) * k])) for i in range(m)]
    H = random_hypergraph(rng, n, k, 1 - rng.random() ** 2 / 4 if p is None else p)
    edges = set(H.edges) - set(planted)
    for transversal in product(*planted):
        edges.update(combinations(sorted(transversal), k))
    return KUniformHypergraph(n=n, k=k, edges=frozenset(edges))


def outcome(res):
    return res.verdict, res.certificate, res.nodes


def assert_node_count(H, m, want):
    """``find_complete_tuple`` gives the outcome ``want`` unbudgeted and at
    a budget of its node count, and is EXHAUSTED one node short."""
    nodes = want[2]
    assert outcome(find_complete_tuple(H, m)) == want
    assert outcome(find_complete_tuple(H, m, nodes)) == want
    if nodes:
        assert outcome(find_complete_tuple(H, m, nodes - 1)) == (Verdict.EXHAUSTED, None, nodes)


def assert_matches_reference(H, m, budget):
    """``find_complete_tuple`` against the one-candidate-at-a-time
    backtracking it replaced, at ``budget`` and on either side of the
    unbudgeted node count.  At k >= 3: the same verdict, certificate and
    node count at each budget.  At k = 2, where a node is a missing pair
    tried: the reference's verdict and certificate unbudgeted, and at any
    budget the unbudgeted result, or EXHAUSTED with budget + 1 nodes
    exactly when its node count passes the budget."""
    context = (H.n, H.k, sorted(H.edges), m, budget)
    full = find_complete_tuple(H, m)
    if H.k > 2:
        # A budget from the node count up runs the unbudgeted search.
        for b in {min(budget, full.nodes), max(full.nodes - 1, 0)}:
            assert outcome(find_complete_tuple(H, m, b)) == outcome(
                reference_find_complete_tuple(H, m, b)
            ), (context, b)
        return
    want = reference_find_complete_tuple(H, m)
    assert (full.verdict, full.certificate) == (want.verdict, want.certificate), context
    for b in {budget, full.nodes, max(full.nodes - 1, 0)}:
        got = find_complete_tuple(H, m, b)
        if full.nodes > b:
            assert outcome(got) == (Verdict.EXHAUSTED, None, b + 1), (context, b)
        else:
            assert outcome(got) == outcome(full), (context, b)


class TestReferenceOracle:
    """The bitset search against the one-candidate-at-a-time backtracking
    it replaced, by ``assert_matches_reference``: node for node at
    k >= 3, verdict and certificate at k = 2."""

    @pytest.mark.parametrize("budget", [10_000_000, 7])
    def test_all_graphs_up_to_six_vertices(self, budget):
        for n in range(2, 7):
            for H in all_graphs(n):
                for m in (2, 3):
                    assert_matches_reference(H, m, budget)

    def test_random_hypergraphs_with_small_budgets(self):
        rng = random.Random(1903)
        for _ in range(1000):
            k = rng.choice([2, 3, 4])
            m = rng.choice([k, k + 1])
            if rng.random() < 0.3 and k * m <= 16:
                H = planted_complete_tuple(rng, rng.randint(k * m, k * m + 1), k, m)
            else:
                H = random_hypergraph(rng, rng.randint(k, 9), k, rng.random())
            for budget in (rng.randint(1, 200), 10_000_000):
                assert_matches_reference(H, m, budget)

    def test_box_nerves(self, monkeypatch):
        # Deep absence proofs, the shape colorful_check runs on; the d=2
        # n=12 and n=14 nerves are those of the benchmark's helly proofs,
        # where n=14 exhausts 100,000 nodes.  Bulk charges are counted by
        # the depth that makes them: the look-ahead charges whole children
        # from depth m - 3.
        depths = []
        charge = forbidden.popcount_sum

        def spy(cands, succ, dropped):
            depths.append(sys._getframe(1).f_locals["depth"])
            return charge(cands, succ, dropped)

        monkeypatch.setattr(forbidden, "popcount_sum", spy)
        cases = [
            (30, 1, 1, (10_000_000, 5_000)), (11, 2, 2, (10_000_000, 5_000)),
            (12, 2, 3, (10_000_000, 5_000)), (10, 3, 4, (10_000_000, 5_000)),
            (12, 2, 5, (100_000, 10_000_000)), (14, 2, 6, (100_000, 10_000_000)),
            (12, 3, 7, (100_000, 10_000_000)), (14, 3, 8, (100_000,)),
        ]
        ahead = {}
        for n, d, seed, budgets in cases:
            H = random_box_family(n, d, seed, spread=40, max_side=30).nerve_hypergraph
            for budget in budgets:
                depths.clear()
                assert_matches_reference(H, d + 1, budget)
                ahead[n, d, budget] = depths.count(d - 2)
        # d=1 (k = 2) runs neither rule, and 12 vertices hold no three
        # disjoint 4-sets past depth 0, so d=3 n=12 is decided by the size
        # prune before any look-ahead.
        assert ahead[30, 1, 5_000] == ahead[30, 1, 10_000_000] == 0
        assert ahead[12, 3, 100_000] == 0
        for key in ((12, 2, 100_000), (12, 2, 10_000_000), (14, 2, 100_000),
                    (14, 2, 10_000_000), (14, 3, 100_000)):
            assert ahead[key] >= 10, (key, ahead[key])


@pytest.mark.parametrize("n, d", [(200, 2), (200, 3), (400, 2), (400, 3)])
def test_large_intersection_graphs_are_absent(n, d):
    # Too many missing pairs for a TupleIndex (69,573 at d=2 n=400); the
    # k = 2 search walks vertex masks instead.  The node counts pin the
    # missing pairs that walk tries.
    nodes = {(200, 2): 22_140, (200, 3): 7_942, (400, 2): 203_777, (400, 3): 56_691}[n, d]
    G = random_box_family(n, d, 1).intersection_graph
    assert_node_count(G, d + 1, (Verdict.ABSENT, None, nodes))


class TestLookAheadPremise:
    """The look-ahead never skips a hit: the last two tuples of every hit
    lie inside the AND of ``cores[p]`` over the picks p of the tuples
    before them, whether or not the search ran the look-ahead on the way
    there."""

    def test_hits_lie_inside_the_pick_cores(self):
        rng = random.Random(1913)
        hits = dict.fromkeys((2, 3, 4), 0)
        for _ in range(400):
            k = rng.choice([2, 3, 4])
            m = rng.choice([k, k + 1])
            if rng.random() < 0.5 and k * m <= 16:
                # A sparse background leaves many candidates at the hit's
                # last depth.  At k = m = 4 it makes the search long, so
                # the background there is dense.
                n = rng.randint(k * m, k * m + 2)
                p = rng.random() if k * m <= 12 else None
                H = planted_complete_tuple(rng, n, k, m, p)
            else:
                H = random_hypergraph(rng, rng.randint(2 * k, 10), k, rng.random() ** 0.5)
            index = TupleIndex(H.n, k, H.missing, H.links)
            chosen, _ = index.search(m, 10**7, index.full)
            if chosen is None:
                continue
            core = (1 << H.n) - 1
            for p in index.picks(chosen[:-2]):
                core &= index.cores[p]
            last = [v for i in chosen[-2:] for v in index.ksets[i]]
            assert all(core >> v & 1 for v in last), (sorted(H.edges), m)
            hits[k] += 1
        assert min(hits.values()) >= 20, hits


class TestCoresMemo:
    """Every memoised core against a k-core peeled afresh, also after
    random ``toggle``s."""

    @staticmethod
    def instances(rng):
        for k in (3, 4):
            for _ in range(6):
                yield random_hypergraph(rng, rng.randint(2 * k, 10), k, rng.random() ** 0.5)
                m = k if k == 4 else rng.choice([k, k + 1])
                yield planted_complete_tuple(rng, k * m + rng.randint(0, 1), k, m)
        for n, d, seed in ((10, 2, 1), (12, 2, 2), (14, 3, 3), (12, 3, 4)):
            spread = 40 if d == 2 else 20
            yield random_box_family(n, d, seed, spread=spread, max_side=30).nerve_hypergraph

    def test_against_a_plain_peel(self):
        rng = random.Random(1931)
        nonzero = 0
        for H in self.instances(rng):
            n, k = H.n, H.k
            positions = list(combinations(range(n), k))
            edges = set(H.edges)
            index = TupleIndex(n, k, positions, dict(H.links))
            for step in range(12):
                tuples = rng.sample(positions, n // k)
                chosen, used = [], set()
                for e in tuples:
                    if used.isdisjoint(e) and len(chosen) < rng.randint(k - 2, k):
                        chosen.append(positions.index(e))
                        used.update(e)
                picks = index.picks(chosen)
                for p in rng.sample(picks, rng.randint(0, len(picks))):
                    index.cores[p]
                for p, mask in index.cores.items():
                    assert mask == reference_link_core(n, k, edges.__contains__, p), (
                        sorted(edges), p,
                    )
                    nonzero += mask != 0
                e = rng.choice(positions)
                index.toggle(sum(1 << v for v in e))
                edges ^= {e}
        assert nonzero >= 1000, nonzero


class TestPicks:
    """``TupleIndex.picks`` against its definition, order included: one
    vertex from each of ``size`` of the chosen tuples, over every
    ``size``-combination."""

    @staticmethod
    def definition(ksets, chosen, size):
        return [
            sum(1 << v for v in pick)
            for idxs in combinations(chosen, size)
            for pick in product(*(ksets[i] for i in idxs))
        ]

    def test_every_size_matches_the_definition(self):
        rng = random.Random(2029)
        for k in (3, 4, 5):
            n = 4 * k
            positions = list(combinations(range(n), k))
            index = TupleIndex(n, k, positions, {})
            for _ in range(30):
                # Disjoint tuples, as a search chooses them.
                order = rng.sample(range(n), n)
                count = rng.randint(0, n // k)
                chosen = [
                    positions.index(tuple(sorted(order[j * k:(j + 1) * k])))
                    for j in range(count)
                ]
                for size in range(k - 1):
                    expected = self.definition(positions, chosen, size)
                    assert index.picks(chosen, size) == expected, (k, chosen, size)
                assert index.picks(chosen) == self.definition(positions, chosen, k - 2)


class TestNarrowedSeedPools:
    """The seeded search on the pools of ``TupleIndex.through`` against the
    brute force, or the old search where that is too slow, not against
    ``find_complete_tuple``: from an instance with no complete m-tuple,
    every toggle of every k-set hits exactly when the toggled instance has
    one, and every hit verifies."""

    @staticmethod
    def toggle_each(H, m, has_tuple):
        n, k = H.n, H.k
        positions = list(combinations(range(n), k))
        full = (1 << len(positions)) - 1
        edges = sum(1 << i for i, e in enumerate(positions) if e in H.edges)
        index = TupleIndex(n, k, positions, dict(H.links))
        directions = set()
        for i, e in enumerate(positions):
            em, adding = sum(1 << v for v in e), e not in H.edges
            trial = KUniformHypergraph(n=n, k=k, edges=H.edges ^ {e})
            index.toggle(em)
            pools = index.through(e, None if adding else i)
            chosen, _ = index.search(m, 10**7, full ^ edges ^ 1 << i, pools)
            index.toggle(em)
            assert (chosen is not None) == has_tuple(trial, m), (sorted(H.edges), e, m)
            if chosen is not None:
                cert = CompleteTupleCertificate(tuple(positions[j] for j in chosen))
                assert verify_complete_tuple(trial, cert) == (True, None)
                directions.add(adding)
        return directions

    def test_all_graphs_up_to_five_vertices(self):
        # Every toggled graph is one of the graphs walked, so each brute
        # force runs once.
        has_tuple = functools.cache(brute_force_has_complete_tuple)
        directions = set()
        for n in range(2, 6):
            for H in all_graphs(n):
                for m in (2, 3):
                    if not has_tuple(H, m):
                        directions |= self.toggle_each(H, m, has_tuple)
        assert directions == {True, False}

    def test_random_three_uniform_instances(self):
        # Planted complete 3-tuples on 9 vertices, broken by dropping an
        # edge of a transversal or by making one of the tuples an edge, so
        # that toggling it back is a hit in either direction.
        rng = random.Random(1907)
        directions, tried = set(), 0
        while tried < 12:
            H = planted_complete_tuple(rng, 9, 3, 3)
            tuples = next(
                c for c in combinations(H.missing, 3)
                if verify_complete_tuple(H, CompleteTupleCertificate(c))[0]
            )
            # With k = m a transversal is one k-set.
            if tried % 2:
                flip = tuple(sorted(rng.choice(t) for t in tuples))
            else:
                flip = rng.choice(tuples)
            H = KUniformHypergraph(n=9, k=3, edges=H.edges ^ {flip})
            if brute_force_has_complete_tuple(H, 3):
                continue
            tried += 1
            directions |= self.toggle_each(H, 3, brute_force_has_complete_tuple)
        assert directions == {True, False}

    def test_look_ahead_below_a_seeded_depth(self, monkeypatch):
        # Planted complete 4-tuples of 3-sets on 12 vertices, broken as
        # above.  A removed k-set seeds depth 0 only, so the free depth
        # m - 3 = 1 below it runs the look-ahead on cores that earlier
        # toggles dropped.  The first instance has a sparse background,
        # on which the look-ahead skips children.
        # The brute force over 4-subsets of missing edges is too slow
        # here, so the old search is the oracle.
        skipped = []
        charge = forbidden.popcount_sum

        def spy(cands, succ, among):
            skipped.append(among)
            return charge(cands, succ, among)

        def has_tuple(H, m):
            return reference_find_complete_tuple(H, m).verdict is Verdict.FOUND

        monkeypatch.setattr(forbidden, "popcount_sum", spy)
        rng = random.Random(1949)
        directions, tried = set(), 0
        while tried < 2:
            H = planted_complete_tuple(rng, 12, 3, 4, None if tried else 0.45)
            tuples = reference_find_complete_tuple(H, 4).certificate.tuples
            if tried:
                flip = tuple(sorted(rng.sample([rng.choice(t) for t in tuples], 3)))
            else:
                flip = rng.choice(tuples)
            H = KUniformHypergraph(n=12, k=3, edges=H.edges ^ {flip})
            if has_tuple(H, 4):
                continue
            tried += 1
            directions |= self.toggle_each(H, 4, has_tuple)
        assert directions == {True, False}
        assert len(skipped) >= 100, len(skipped)


class TestInducedBiclique:
    def test_cycle4_is_k22(self):
        assert has_induced_biclique(cycle_graph(4), 2)

    def test_cycle5_has_none(self):
        assert not has_induced_biclique(cycle_graph(5), 2)

    def test_k6_minus_matching_is_k2_3(self):
        assert has_induced_biclique(k6_minus_perfect_matching(), 3)

    def test_rejects_non_graphs(self):
        with pytest.raises(ValueError):
            has_induced_biclique(complete_kuniform(5, 3), 2)

    def test_too_few_vertices(self):
        assert not has_induced_biclique(cycle_graph(5), 3)


class TestEquivalenceWithBicliqueSearch:
    def test_exhaustive_small_graphs(self):
        # every graph on up to 5 vertices
        for n in (2, 3, 4, 5):
            for H in all_graphs(n):
                for m in (2, 3):
                    res = find_complete_tuple(H, m)
                    assert res.verdict is not Verdict.EXHAUSTED
                    assert (res.verdict is Verdict.FOUND) == has_induced_biclique(H, m)

    def test_tuple_inside_on_a_vertex_mask(self):
        # The walk on a mask W decides an induced K_2(m) in the subgraph
        # induced on W; a hit lies in W and is a complete tuple of the
        # whole graph.
        rng = random.Random(23)
        for H in all_graphs(6):
            within = rng.randrange(1 << 6)
            inside = [v for v in range(6) if within >> v & 1]
            sub = graph(len(inside), [
                (inside.index(u), inside.index(v)) for u, v in H.edges if within >> u & within >> v & 1
            ])
            for m in (2, 3):
                tuples, _ = forbidden._tuple_inside(H.links, within, m, 10**7)
                assert (tuples is not None) == has_induced_biclique(sub, m), (sorted(H.edges), within)
                if tuples is not None:
                    cert = CompleteTupleCertificate(tuple(tuples))
                    assert set(inside) >= {v for t in cert.tuples for v in t}
                    assert verify_complete_tuple(H, cert) == (True, None)

    def test_sampled_larger_graphs(self):
        rng = random.Random(99)
        for _ in range(150):
            n = rng.choice([6, 7])
            H = random_hypergraph(rng, n, 2, rng.random())
            m = rng.choice([2, 3])
            res = find_complete_tuple(H, m)
            assert res.verdict is not Verdict.EXHAUSTED
            assert (res.verdict is Verdict.FOUND) == has_induced_biclique(H, m)

    def test_planted_and_random_up_to_m_four(self):
        # Planted K_2(m) on 2m to 9 vertices, on a background of any
        # density, and random graphs on 8 or 9 vertices, up to m = 4.
        rng = random.Random(97)
        found = dict.fromkeys((2, 3, 4), 0)
        for _ in range(300):
            m = rng.choice([2, 3, 4])
            if rng.random() < 0.5:
                H = planted_complete_tuple(rng, rng.randint(2 * m, 9), 2, m, rng.random())
            else:
                H = random_hypergraph(rng, rng.choice([8, 9]), 2, rng.random() ** 0.5)
            res = find_complete_tuple(H, m)
            assert res.verdict is not Verdict.EXHAUSTED
            assert (res.verdict is Verdict.FOUND) == has_induced_biclique(H, m), (
                sorted(H.edges), m,
            )
            found[m] += res.verdict is Verdict.FOUND
        assert min(found.values()) >= 20, found


class TestCertificateSerialization:
    def test_round_trip(self):
        cert = CompleteTupleCertificate(((0, 1, 2), (3, 4, 5)))
        assert CompleteTupleCertificate.from_dict(cert.to_dict()) == cert

    def test_rejects_inconsistent_m(self):
        with pytest.raises(InputFormatError):
            CompleteTupleCertificate.from_dict({"m": 3, "tuples": [[0, 1]]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": True, "tuples": [[0, 1]]},
            {"m": 2.0, "tuples": [[0, 1], [2, 3]]},
            {"m": "2", "tuples": [[0, 1], [2, 3]]},
            {"m": None, "tuples": [[0, 1]]},
        ],
    )
    def test_rejects_non_integer_m(self, doc):
        with pytest.raises(InputFormatError, match='"m" must be an integer'):
            CompleteTupleCertificate.from_dict(doc)

    @pytest.mark.parametrize(
        "tuples",
        [
            [[0.0, 2.0], [1.0, 3.0]],
            [["0", "2"], ["1", "3"]],
            [[True, 2], [False, 3]],
            [[0, 2], 13],
            "0213",
        ],
    )
    def test_rejects_non_integer_vertices(self, tuples):
        with pytest.raises(InputFormatError):
            CompleteTupleCertificate.from_dict({"tuples": tuples})
