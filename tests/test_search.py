import math
from fractions import Fraction

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
from helpers import cycle_graph


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
