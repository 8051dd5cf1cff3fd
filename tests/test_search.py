import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from cliquecert import (
    FrontierRecord,
    HillClimbConfig,
    SizeRefusalError,
    Verdict,
    count_m_cliques,
    exhaustive_frontier,
    find_complete_tuple,
    format_beta_table,
    hill_climb,
    max_clique,
    report_beta_upper,
)
from cliquecert import search
from cliquecert.core import (
    InternalConsistencyError,
    KUniformHypergraph,
    clique_through_exceeds,
    count_cliques_through,
)
from cliquecert.forbidden import (
    CompleteTupleCertificate,
    TupleIndex,
    check_complete_tuple,
    tuple_through_pair,
    verify_complete_tuple,
)
from helpers import cycle_graph, nine_vertex_example, random_hypergraph


def record_cm(rec: FrontierRecord) -> int:
    return int(rec.alpha * math.comb(rec.n, rec.m))


class TestExhaustiveFrontier:
    def test_n5_triangle_free_biclique_free_optimum(self):
        rec = exhaustive_frontier(5, 2, 2, 2)
        assert record_cm(rec) == 5
        # the unique extremal graph is the 5-cycle: 2-regular and connected
        H = rec.instance
        degrees = [sum(1 for e in H.edges if v in e) for v in range(5)]
        assert degrees == [2, 2, 2, 2, 2]
        assert len(H.edges) == 5
        assert rec.omega_ratio == Fraction(2, 5)
        assert rec.alpha == Fraction(1, 2)
        assert rec.verified is Verdict.ABSENT

    def test_n4_optimum_is_three_edges(self):
        rec = exhaustive_frontier(4, 2, 2, 2)
        assert record_cm(rec) == 3

    def test_n3_triangle(self):
        rec = exhaustive_frontier(3, 2, 2, 3)
        assert record_cm(rec) == 3
        assert rec.instance == cycle_graph(3)

    def test_size_refusal(self):
        with pytest.raises(SizeRefusalError):
            # 2^28 edge subsets, above the 2^22 cap
            exhaustive_frontier(8, 2, 2, 3)


class TestFrontierRecord:
    def test_recomputed_from_instance(self):
        rec = FrontierRecord.from_instance(cycle_graph(5), 2)
        assert rec.alpha == Fraction(1, 2)
        assert rec.omega_ratio == Fraction(2, 5)
        assert rec.verified is Verdict.ABSENT

    def test_rejects_disqualified_instance(self):
        with pytest.raises(ValueError):
            FrontierRecord.from_instance(cycle_graph(4), 2)

    def test_round_trip_dict(self):
        rec = FrontierRecord.from_instance(cycle_graph(5), 2)
        doc = rec.to_dict()
        assert doc["alpha"] == "1/2"
        assert doc["omega_ratio"] == "2/5"
        assert doc["verified"] == "absent"


class TestHillClimb:
    def test_matches_exhaustive_optimum_at_n5(self):
        config = HillClimbConfig(n=5, k=2, m=2, omega_cap=2, iterations=10_000, seed=1)
        rec = hill_climb(config)
        assert record_cm(rec) == 5

    def test_zero_iterations_returns_verified_initial(self):
        config = HillClimbConfig(n=5, k=2, m=2, omega_cap=2, iterations=0, seed=9)
        rec = hill_climb(config)
        assert len(rec.instance.edges) == 0
        assert rec.verified is Verdict.ABSENT

    def test_bit_reproducible(self):
        config = HillClimbConfig(n=6, k=2, m=2, omega_cap=2, iterations=400, restarts=2, seed=77)
        assert hill_climb(config) == hill_climb(config)

    def test_three_uniform_record_verifies(self):
        config = HillClimbConfig(n=9, k=3, m=3, omega_cap=6, iterations=200, seed=3)
        rec = hill_climb(config)
        H = rec.instance
        assert count_m_cliques(H, 3) == record_cm(rec)
        assert len(max_clique(H).vertices) <= 6
        assert find_complete_tuple(H, 3).verdict is Verdict.ABSENT

    def test_rejects_infeasible_cap(self):
        with pytest.raises(ValueError):
            hill_climb(HillClimbConfig(n=5, k=2, m=2, omega_cap=0, seed=1))

    def test_upper_bounds_dominate_lower_bounds(self):
        from cliquecert import beta_recursion, theorem1_bound

        config = HillClimbConfig(n=6, k=2, m=2, omega_cap=3, iterations=2000, seed=5)
        rec = hill_climb(config)
        ratio = float(rec.omega_ratio)
        alpha = float(rec.alpha)
        if alpha > 0:
            assert ratio >= beta_recursion(alpha, 2, 2)
            assert ratio >= theorem1_bound(alpha) - 1e-12


# (n, k, m, omega_cap, iterations, restarts, seed) -> (alpha, omega_ratio,
# edge digest) of the record, captured with the climb that re-ran the
# global kernels on a rebuilt instance for every proposal.  None of these
# configs has a tuple search that exhausts the default budget, so the
# seeded climb must return the same records.  The first five are the
# defaults of scripts/frontier_experiment.py.
PINNED_RECORDS = [
    ((7, 2, 2, 2, 4000, 3, 1), "8/21", "2/7", "1f722b5313a31de8"),
    ((7, 2, 2, 3, 4000, 3, 1), "4/7", "3/7", "d05c21c48e60cccd"),
    ((7, 2, 2, 4, 4000, 3, 1), "16/21", "4/7", "892c3c0a3f0fb752"),
    ((7, 2, 2, 5, 4000, 3, 1), "6/7", "5/7", "641438aa7599db84"),
    ((7, 2, 2, 6, 4000, 3, 1), "20/21", "6/7", "f733575ed2ad222c"),
    ((12, 2, 2, 4, 150, 1, 11), "23/66", "1/3", "c362c59e839e2696"),
    ((12, 2, 2, 4, 400, 1, 12), "5/11", "1/3", "ff5c83dd0e8a5991"),
    ((10, 2, 2, 2, 500, 1, 13), "14/45", "1/5", "e8f10df005f7c9fd"),
    ((11, 2, 2, 3, 500, 3, 14), "24/55", "3/11", "3dcc9f215f93bd88"),
    ((9, 2, 2, 3, 300, 3, 15), "1/2", "1/3", "15b37ae5900b0728"),
    ((8, 2, 2, 5, 300, 1, 16), "19/28", "5/8", "1f3be3c664f650aa"),
    ((9, 3, 3, 5, 150, 1, 17), "61/84", "5/9", "a467817c0f4c6330"),
    ((10, 3, 3, 5, 40, 1, 18), "1/4", "2/5", "e33db783b3b5912d"),
    ((8, 3, 3, 4, 400, 3, 19), "45/56", "1/2", "6e33e2a09290e774"),
    ((7, 3, 3, 3, 300, 1, 20), "22/35", "3/7", "57585ce18b2a9ac3"),
    ((9, 3, 3, 6, 300, 1, 21), "67/84", "5/9", "b56941ab02437b2a"),
    ((8, 2, 3, 3, 400, 1, 22), "13/56", "3/8", "6b82aca8e49bd221"),
    ((9, 2, 3, 4, 400, 3, 23), "29/84", "4/9", "0e54bbfa90ba3385"),
    ((9, 2, 4, 4, 400, 1, 24), "8/63", "4/9", "a4f8b36270b4fb5c"),
    ((10, 2, 4, 5, 300, 1, 25), "7/30", "1/2", "19461843256b0f49"),
    ((8, 2, 5, 5, 300, 1, 26), "1/56", "5/8", "55eac0df31b6c3fb"),
    ((7, 3, 4, 4, 300, 1, 27), "3/7", "4/7", "3b2463a1f5af01f8"),
    ((8, 3, 4, 5, 300, 3, 28), "39/70", "5/8", "662b59364e1612f5"),
    ((8, 3, 5, 5, 200, 1, 29), "0", "1/4", "4f53cda18c2baa0c"),
    ((7, 4, 4, 4, 300, 1, 30), "26/35", "4/7", "0ad123131d651557"),
    ((7, 4, 4, 5, 300, 3, 31), "32/35", "5/7", "94d2047c6aaf8cf6"),
    ((8, 4, 4, 6, 200, 1, 32), "29/35", "5/8", "df221a44fd6516b2"),
    ((7, 4, 5, 5, 300, 1, 33), "8/21", "5/7", "6eb5c7c46b0679b3"),
    ((8, 4, 6, 6, 200, 1, 34), "0", "3/8", "4f53cda18c2baa0c"),
    ((6, 4, 4, 3, 200, 1, 35), "0", "1/2", "4f53cda18c2baa0c"),
    ((5, 2, 2, 3, 0, 1, 36), "0", "1/5", "4f53cda18c2baa0c"),
    ((6, 2, 2, 2, 0, 3, 37), "0", "1/6", "4f53cda18c2baa0c"),
    ((7, 3, 5, 6, 400, 1, 38), "1/21", "5/7", "7236cc6147274ff6"),
    ((8, 4, 5, 6, 300, 1, 39), "19/56", "3/4", "c8610f120927c79e"),
    ((9, 2, 3, 5, 300, 3, 40), "23/42", "5/9", "1ff96e5752560aa9"),
]


@pytest.mark.parametrize("config, alpha, omega_ratio, digest", PINNED_RECORDS)
def test_hill_climb_records_are_pinned(config, alpha, omega_ratio, digest):
    n, k, m, cap, iterations, restarts, seed = config
    rec = hill_climb(
        HillClimbConfig(
            n=n, k=k, m=m, omega_cap=cap, iterations=iterations, restarts=restarts, seed=seed
        )
    )
    edges = json.dumps(sorted(rec.instance.edges)).encode()
    assert (str(rec.alpha), str(rec.omega_ratio)) == (alpha, omega_ratio)
    assert hashlib.sha256(edges).hexdigest()[:16] == digest


class TestSeededKernels:
    """Random feasible walks: on every proposed toggle of a k-set e, the
    seeded kernels that the climb runs on its own masks agree with the
    global kernels run on the toggled instance, and a seeded hit is a
    valid certificate that uses e."""

    @staticmethod
    def walk(k, m, n, cap, steps, seed):
        rng = random.Random(seed)
        positions = list(combinations(range(n), k))
        full = (1 << len(positions)) - 1
        index = TupleIndex(n, k, positions, {})
        edges, directions = 0, set()
        for _ in range(steps):
            i = rng.randrange(len(positions))
            e, em = positions[i], sum(1 << v for v in positions[i])
            adding = not edges >> i & 1
            cur = KUniformHypergraph(n=n, k=k, edges=frozenset(p for j, p in enumerate(positions) if edges >> j & 1))
            trial = KUniformHypergraph(n=n, k=k, edges=cur.edges ^ {e})
            with_e = trial if adding else cur
            through = count_cliques_through(index.links, k, m, em)
            assert count_m_cliques(trial, m) - count_m_cliques(cur, m) == (through if adding else -through)
            assert count_cliques_through(with_e.links, k, m, em) == through
            over = len(max_clique(trial).vertices) > cap
            assert (adding and clique_through_exceeds(index.links, k, em, cap)) == over
            if adding:
                assert clique_through_exceeds(trial.links, k, em, cap) == over
            index.toggle(em)
            chosen, _ = index.search(m, 10**7, full ^ edges ^ 1 << i, index.through(e, None if adding else i))
            found = find_complete_tuple(trial, m).verdict is Verdict.FOUND
            assert (chosen is not None) == found
            if found:
                cert = CompleteTupleCertificate(tuple(positions[j] for j in chosen))
                assert verify_complete_tuple(trial, cert) == (True, None)
                # A removed e is one of the tuples; an added e lies in a
                # transversal, each of its vertices in a tuple of its own.
                hosts = [sum(v in t for v in e) for t in cert.tuples]
                assert e in cert.tuples if not adding else hosts.count(1) == k
            if found or over:
                index.toggle(em)
            else:
                edges ^= 1 << i
                directions.add(adding)
        return directions

    @pytest.mark.parametrize("k, n", [(2, 9), (3, 8), (4, 7)])
    @pytest.mark.parametrize("dm", [0, 1, 2])
    def test_walks_agree_with_global_kernels(self, k, n, dm):
        m = k + dm
        for seed, cap in enumerate((k, m + 1, n - 1)):
            # Both toggle directions are accepted on every walk.
            assert self.walk(k, m, n, cap, 200, seed) == {True, False}

    @staticmethod
    def seeded_runs(k, m, n, cap, steps, seed, budgets):
        """(chosen, nodes) of the seeded search at each budget, on every
        proposal of a climb-shaped walk that the cap lets through; the
        walk takes a toggle when the first budget finds no hit."""
        rng = random.Random(seed)
        positions = list(combinations(range(n), k))
        full = (1 << len(positions)) - 1
        index = TupleIndex(n, k, positions, {})
        edges, runs = 0, []
        for _ in range(steps):
            i = rng.randrange(len(positions))
            em, adding = sum(1 << v for v in positions[i]), not edges >> i & 1
            if adding and clique_through_exceeds(index.links, k, em, cap):
                continue
            index.toggle(em)
            missing = full ^ edges ^ 1 << i
            pools = index.through(positions[i], None if adding else i)
            runs.append([index.search(m, budget, missing, pools) for budget in budgets])
            if runs[-1][0][0] is None:
                edges ^= 1 << i
            else:
                index.toggle(em)
        return runs

    def test_seeded_node_counts_are_pinned(self):
        # The digest was taken with the search that charged every
        # last-depth candidate in its own loop step, before the vertex-core
        # filter; the budgets of 200, 10 and 0 exhaust on some proposals.
        # An exhausted count is clamped at budget + 1, as every caller
        # reads it: how far past the budget a search stops is not pinned.
        budgets = (10**7, 200, 10, 0)
        runs = [
            [
                [(chosen, min(nodes, budget + 1)) for (chosen, nodes), budget in zip(row, budgets)]
                for row in self.seeded_runs(k, m, n, m + 2, 400, 100 * k + m, budgets)
            ]
            for k, n in ((2, 12), (3, 9), (4, 8))
            for m in range(k, k + 3)
        ]
        digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()[:16]
        assert digest == "02261ec00447323d"


class TestPairCheck:
    """The climb's k = 2 tuple check on adjacency rows, on random feasible
    walks: its verdict on every proposed toggle of a pair e is that of
    ``find_complete_tuple`` on the toggled instance, and a hit is a valid
    certificate that uses e."""

    @staticmethod
    def walk(m, n, cap, steps, seed, dense):
        # A share ``dense`` of the proposals toggles a missing pair, which
        # keeps the walk dense enough to meet K_2(4).
        rng = random.Random(seed)
        positions = list(combinations(range(n), 2))
        links, edges = {}, frozenset()
        directions, hits = set(), set()
        for _ in range(steps):
            pool = [p for p in positions if p not in edges] if rng.random() < dense else positions
            e = rng.choice(pool or positions)
            adding = e not in edges
            trial = KUniformHypergraph(n=n, k=2, edges=edges ^ {e})
            if adding and len(max_clique(trial).vertices) > cap:
                continue
            a, b = e
            for u, v in (e, (b, a)):
                links[1 << u] = links.get(1 << u, 0) ^ 1 << v
            assert {s: row for s, row in links.items() if row} == trial.links
            tuples, nodes = tuple_through_pair(links, m, e, adding, 10**7)
            found = find_complete_tuple(trial, m).verdict is Verdict.FOUND
            assert (tuples is not None) == found and nodes <= 10**7
            # A smaller budget stops the same check once its nodes pass it.
            for budget in (0, 2):
                got = tuple_through_pair(links, m, e, adding, budget)
                if nodes <= budget:
                    assert got == (tuples, nodes)
                else:
                    assert got[0] is None and got[1] > budget
            if found:
                cert = CompleteTupleCertificate(tuple(tuples))
                assert verify_complete_tuple(trial, cert) == (True, None)
                # A removed e is one of the tuples; for an added e, a and b
                # lie in different tuples.
                if adding:
                    assert [t for t in cert.tuples if a in t] != [t for t in cert.tuples if b in t]
                else:
                    assert e in cert.tuples
                hits.add(adding)
                for u, v in (e, (b, a)):
                    links[1 << u] ^= 1 << v
            else:
                edges = trial.edges
                directions.add(adding)
        return directions, hits

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_walks_agree_with_find_complete_tuple(self, m):
        hits = set()
        walks = [(9, 2, 0), (9, m + 1, 0), (9, 8, 0), (10, 9, 0.5), (10, 9, 0.8)]
        for seed, (n, cap, dense) in enumerate(walks):
            # Both toggle directions are accepted on every walk.
            directions, seen = self.walk(m, n, cap, 300, 100 * m + seed, dense)
            assert directions == {True, False}
            hits |= seen
        # Both directions meet a hit, which the check must find.
        assert hits == {True, False}

    @pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_only_k3_climbs_build_a_tuple_index(self, monkeypatch, k, m):
        built = []
        init = TupleIndex.__init__

        def spy(self, *args):
            built.append(args[:2])
            init(self, *args)

        monkeypatch.setattr(TupleIndex, "__init__", spy)
        hill_climb(HillClimbConfig(n=9, k=k, m=m, omega_cap=m + 1, iterations=300, restarts=2, seed=1))
        # At k = 3 the climb and the record's re-verification build one
        # per restart each.
        assert built == ([] if k == 2 else [(9, 3)] * 4)


def bad_tuples(kind, n, k, m, edges):
    """m k-sets that fail the certificate check on the instance with edge
    set ``edges`` in the way ``kind`` names: the first m k-subsets
    overlap; otherwise the first edge (for "edge") and then the
    lexicographically first missing k-sets disjoint from those before."""
    if kind == "overlap":
        return list(combinations(range(n), k))[:m]
    tuples = [min(edges)] if kind == "edge" else []
    for t in combinations(range(n), k):
        if len(tuples) < m and t not in edges and not any(set(t) & set(u) for u in tuples):
            tuples.append(t)
    return tuples


BAD_HITS = [("overlap", "are not disjoint"), ("edge", "is not a missing edge"), ("cross", "is not a clique")]


class TestSeededCertificateCheck:
    """The climb verifies a seeded hit against its edge bitmask, without
    building an instance: a bad hit raises with its certificate, from the
    k = 2 pair check and from a k >= 3 ``TupleIndex.search`` alike, and
    the bitmask check agrees with ``verify_complete_tuple``."""

    @staticmethod
    def assert_raises_for(config, kind, reason, seen):
        # The first proposal from the edgeless start adds an edge and
        # reaches the tuple check, which the caller has patched to record
        # the trial's edge set in `seen` and answer with a hit that fails
        # in the given way.
        with pytest.raises(InternalConsistencyError) as info:
            hill_climb(config)
        assert len(seen) == 1
        trial = KUniformHypergraph(n=config.n, k=config.k, edges=frozenset(seen[0]))
        cert = info.value.certificate
        assert cert.tuples == tuple(bad_tuples(kind, config.n, config.k, config.m, seen[0]))
        ok, expected = verify_complete_tuple(trial, cert)
        assert not ok and reason in expected
        assert str(info.value) == f"search produced an invalid certificate: {expected}"

    @pytest.mark.parametrize("kind, reason", BAD_HITS)
    def test_bad_hit_raises_with_its_certificate(self, monkeypatch, kind, reason):
        seen = []

        def check(links, m, e, adding, budget):
            edges = {(u, v) for u, v in combinations(range(5), 2) if links.get(1 << u, 0) >> v & 1}
            seen.append(edges)
            return bad_tuples(kind, 5, 2, m, edges), 1

        monkeypatch.setattr(search, "tuple_through_pair", check)
        config = HillClimbConfig(n=5, k=2, m=2, omega_cap=3, iterations=10, seed=1)
        self.assert_raises_for(config, kind, reason, seen)

    @pytest.mark.parametrize("kind, reason", BAD_HITS)
    def test_bad_hit_of_a_tuple_index_raises_with_its_certificate(self, monkeypatch, kind, reason):
        seen = []

        def fake_search(index, m, budget, missing, pools=()):
            edges = {t for i, t in enumerate(index.ksets) if not missing >> i & 1}
            seen.append(edges)
            return [index.ksets.index(t) for t in bad_tuples(kind, 9, 3, m, edges)], 1

        monkeypatch.setattr(TupleIndex, "search", fake_search)
        config = HillClimbConfig(n=9, k=3, m=3, omega_cap=3, iterations=10, seed=1)
        self.assert_raises_for(config, kind, reason, seen)

    def test_bitmask_check_agrees_with_verify(self):
        rng = random.Random(1911)
        instances = [cycle_graph(4), nine_vertex_example()]
        for _ in range(60):
            k = rng.choice([2, 3])
            instances.append(random_hypergraph(rng, rng.randint(k, 8), k, rng.random()))
        kinds = ("disjoint", "outside", "missing", "clique")
        outcomes = set()
        for H in instances:
            n, k = H.n, H.k
            positions = list(combinations(range(n), k))
            rank = {e: i for i, e in enumerate(positions)}
            edges = sum(1 << i for i, e in enumerate(positions) if e in H.edges)
            for m in (k, k + 1):
                certs = [c for _, c in zip(range(150), combinations(H.missing, m))]
                for _ in range(20):
                    # Any k-subsets of [0, n], so some overlap, hold an
                    # edge or leave the vertex range.
                    certs.append(tuple(tuple(rng.sample(range(n + 1), k)) for _ in range(m)))
                for tuples in certs:
                    cert = CompleteTupleCertificate(tuple(tuples))
                    got = check_complete_tuple(n, k, lambda t: edges >> rank[t] & 1, cert)
                    assert got == verify_complete_tuple(H, cert), (sorted(H.edges), tuples)
                    outcomes.add(got[0] or next(w for w in kinds if w in got[1]))
        assert outcomes == {True, "disjoint", "outside", "missing", "clique"}


class TestReport:
    def test_single_record(self):
        rows = report_beta_upper([FrontierRecord.from_instance(cycle_graph(5), 2)])
        assert len(rows) == 1
        row = rows[0]
        assert row.alpha == Fraction(1, 2)
        assert row.min_omega_ratio == Fraction(2, 5)
        assert row.theorem1 == pytest.approx(0.0857864376, rel=1e-8)

    def test_empty_input(self):
        assert report_beta_upper([]) == []

    def test_same_alpha_keeps_minimum(self):
        r1 = FrontierRecord.from_instance(cycle_graph(5), 2)
        # pentagon plus an isolated vertex: same k, m; different alpha bucket
        rows = report_beta_upper([r1, r1])
        assert len(rows) == 1
        assert rows[0].min_omega_ratio == r1.omega_ratio

    def test_minimum_across_distinct_records(self):
        from cliquecert import KUniformHypergraph

        r1 = FrontierRecord.from_instance(cycle_graph(5), 2)
        # same alpha = 1/2 on n = 5 is hard to vary; fabricate via relabeled copy
        relabeled = KUniformHypergraph(
            n=5, k=2, edges=frozenset({(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)})
        )
        r2 = FrontierRecord.from_instance(relabeled, 2)
        rows = report_beta_upper([r1, r2])
        assert len(rows) == 1
        assert rows[0].min_omega_ratio == min(r1.omega_ratio, r2.omega_ratio)

    def test_table_formatting(self):
        rows = report_beta_upper([FrontierRecord.from_instance(cycle_graph(5), 2)])
        text = format_beta_table(rows)
        assert "1/2" in text and "2/5" in text
