"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable; runtime
budgets are asserted where a criterion states one.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from cliquecert import (
    HillClimbConfig,
    KUniformHypergraph,
    Verdict,
    asymptotic_exponent,
    beta_recursion,
    build_nerve,
    chordal_bound,
    colorful_check,
    exhaustive_frontier,
    extract_graph,
    extract_hypergraph,
    find_complete_tuple,
    has_induced_biclique,
    hill_climb,
    kalai_bound,
    max_clique,
    meets_theorem1_bound,
    random_box_family,
    theorem1_bound,
    verify_complete_tuple,
)
from helpers import (
    all_graphs,
    lemma31_lower_bound,
    meets_chordal_bound,
    meets_kalai_bound_with_slack,
    missing_inside,
    nine_vertex_example,
    reference_max_intersecting_subfamily,
)

MASTER_SEED = 20260809


@contextmanager
def criterion(num: int, description: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"[acceptance] criterion {num:2d} ({description}): FAIL ({elapsed:.1f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] criterion {num:2d} ({description}): PASS ({elapsed:.1f}s)", flush=True)
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime budget exceeded: {elapsed:.1f}s >= {budget_s}s"


def test_criterion_01_theorem1_guarantee_exhaustive_n6():
    with criterion(1, "Theorem-1 guarantee on all 32768 n=6 graphs", budget_s=120):
        total = 0
        biclique_free = 0
        for H in all_graphs(6):
            total += 1
            res = find_complete_tuple(H, 2)
            assert res.verdict is not Verdict.EXHAUSTED
            if res.verdict is Verdict.FOUND:
                continue
            biclique_free += 1
            out = extract_graph(H)
            assert out.kind == "clique", f"certificate on a biclique-free graph: {H.sorted_edges}"
            alpha = H.edge_density()
            size = len(out.clique.vertices)
            assert meets_theorem1_bound(size, 6, alpha), (
                f"violation: edges={H.sorted_edges} clique={out.clique.vertices} alpha={alpha}"
            )
            assert out.trace.bound_met
        assert total == 32768
        assert biclique_free > 0


def test_criterion_02_soundness_fuzz():
    with criterion(2, "soundness fuzz, 1000 instances x m in {k, k+1}", budget_s=300):
        rng = random.Random(MASTER_SEED)
        for _ in range(1000):
            k = rng.choice([2, 3])
            n = rng.randint(k, 12)
            p = rng.uniform(0.2, 0.95)
            edges = frozenset(e for e in combinations(range(n), k) if rng.random() < p)
            H = KUniformHypergraph(n=n, k=k, edges=edges)
            for m in (k, k + 1):
                out = extract_hypergraph(H, m)
                if out.kind == "clique":
                    assert out.clique.verify(H)
                else:
                    ok, reason = verify_complete_tuple(H, out.certificate)
                    assert ok, reason


def test_criterion_03_missing_edge_floor():
    with criterion(3, "missing-edge floor on 200 tuple-free 3-uniform n=8 instances"):
        rng = random.Random(MASTER_SEED + 3)
        checked = 0
        while checked < 200:
            p = rng.uniform(0.2, 0.95)
            edges = frozenset(e for e in combinations(range(8), 3) if rng.random() < p)
            H = KUniformHypergraph(n=8, k=3, edges=edges)
            res = find_complete_tuple(H, 3)
            assert res.verdict is not Verdict.EXHAUSTED
            if res.verdict is not Verdict.ABSENT:
                continue
            checked += 1
            omega = len(max_clique(H).vertices)
            for mask in range(1 << 8):
                S = [v for v in range(8) if mask >> v & 1]
                floor = lemma31_lower_bound(len(S), omega, 3, 3)
                assert missing_inside(H, S) >= floor, (
                    f"violation: S={S} omega={omega} floor={floor}"
                )


def test_criterion_04_golden_certificate():
    with criterion(4, "golden 9-vertex 3-uniform instance"):
        H = nine_vertex_example()
        assert len(max_clique(H).vertices) == 6
        res = find_complete_tuple(H, 3)
        assert res.verdict is Verdict.FOUND
        assert res.certificate.tuples == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        out = extract_hypergraph(H, 3)
        assert out.kind == "certificate"
        assert out.certificate.tuples == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        ok, reason = verify_complete_tuple(H, out.certificate)
        assert ok, reason


@pytest.fixture(scope="module")
def helly_families():
    """The criterion-5/6 corpus: 300 interval families and 100 planar box
    families, with their nerves built once."""
    corpus = []
    for seed in range(300):
        fam = random_box_family(30, 1, seed)
        corpus.append((fam, build_nerve(fam)))
    for seed in range(100):
        fam = random_box_family(12, 2, seed, spread=40, max_side=30)
        corpus.append((fam, build_nerve(fam)))
    return corpus


def test_criterion_05_colorful_invariant(helly_families):
    with criterion(5, "colorful invariant on 300 interval + 100 box families", budget_s=600):
        for fam, nerve in helly_families:
            res = colorful_check(fam)
            assert res.verdict is Verdict.ABSENT, f"inconclusive verdict {res.verdict}"
            if fam.d == 1:
                assert not has_induced_biclique(nerve, 2)


def test_criterion_06_kalai_bound(helly_families):
    with criterion(6, "Kalai bound with 1/n slack on every criterion-5 family"):
        for fam, nerve in helly_families:
            n = len(fam.boxes)
            # Helly number 2: the optimum is a maximum clique of the
            # pairwise-intersection graph; the grid sweep cross-checks it.
            size = len(max_clique(fam.intersection_graph))
            assert size == reference_max_intersecting_subfamily(fam)[0]
            assert meets_kalai_bound_with_slack(size, n, nerve.edge_density(), fam.d), (
                f"violation: d={fam.d} n={n} size={size} alpha={nerve.edge_density()}"
            )


def test_criterion_07_katchalski_abbott_intervals():
    with criterion(7, "chordal clique bound on 1000 interval families, n=40"):
        for seed in range(1000):
            fam = random_box_family(40, 1, seed)
            nerve = build_nerve(fam)
            size = len(max_clique(fam.intersection_graph))
            assert meets_chordal_bound(size, 40, nerve.edge_density()), (
                f"violation: seed={seed} size={size} alpha={nerve.edge_density()}"
            )


def test_criterion_08_bound_evaluators():
    with criterion(8, "bound evaluator spot values at 1e-12 relative"):
        assert theorem1_bound(0.75) == pytest.approx(0.25, rel=1e-12)
        assert chordal_bound(0.75) == pytest.approx(0.5, rel=1e-12)
        assert kalai_bound(0.75, 1) == pytest.approx(0.5, rel=1e-12)
        assert beta_recursion(0.5, 2, 2) == pytest.approx(float(Fraction(1, 9216)), rel=1e-12)
        assert asymptotic_exponent(2, 3) == 4


def test_criterion_09_extremal_frontier():
    with criterion(9, "extremal frontier: exhaustive n<=5 and seeded hill climb", budget_s=60):
        rec5 = exhaustive_frontier(5, 2, 2, 2)
        assert int(rec5.alpha * math.comb(5, 2)) == 5
        H = rec5.instance
        assert len(H.edges) == 5
        degrees = [sum(1 for e in H.edges if v in e) for v in range(5)]
        assert degrees == [2, 2, 2, 2, 2]
        # 2-regular and connected on 5 vertices: the 5-cycle up to isomorphism
        reach = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for e in H.edges:
                if v in e:
                    u = e[0] if e[1] == v else e[1]
                    if u not in reach:
                        reach.add(u)
                        frontier.append(u)
        assert reach == set(range(5))

        rec4 = exhaustive_frontier(4, 2, 2, 2)
        assert int(rec4.alpha * math.comb(4, 2)) == 3

        hc = hill_climb(HillClimbConfig(n=5, k=2, m=2, omega_cap=2, iterations=10_000, seed=MASTER_SEED))
        assert int(hc.alpha * math.comb(5, 2)) == 5


def test_criterion_10_verdict_consistency():
    with criterion(10, "verdict-class consistency on all graphs with n <= 6"):
        for n in range(7):
            for H in all_graphs(n):
                graph_kind = extract_graph(H).kind
                hyper_kind = extract_hypergraph(H, 2).kind
                assert graph_kind == hyper_kind, f"divergence on {H.sorted_edges}"
                res = find_complete_tuple(H, 2)
                assert res.verdict is not Verdict.EXHAUSTED
                assert (res.verdict is Verdict.FOUND) == has_induced_biclique(H, 2), (
                    f"search/biclique divergence on {H.sorted_edges}"
                )