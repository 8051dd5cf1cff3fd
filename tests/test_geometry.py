import random
from fractions import Fraction
from itertools import combinations

import pytest

from cliquecert import (
    Box,
    BoxFamily,
    Verdict,
    box_family_from_dict,
    box_family_to_dict,
    boxes_intersect,
    build_nerve,
    colorful_check,
    fractional_helly_pipeline,
    has_induced_biclique,
    max_intersecting_subfamily,
    meets_chordal_bound,
    meets_kalai_bound_with_slack,
    random_box_family,
)
from cliquecert import InputFormatError


def intervals(*pairs) -> BoxFamily:
    return BoxFamily(d=1, boxes=tuple(Box(lo=(a,), hi=(b,)) for a, b in pairs))


def square(a, b) -> Box:
    return Box(lo=(a, a), hi=(b, b))


class TestBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Box(lo=(0, 5), hi=(3, 4))

    def test_degenerate_allowed(self):
        b = Box(lo=(2, 2), hi=(2, 2))
        assert b.contains((2, 2))

    def test_rejects_mixed_family(self):
        with pytest.raises(ValueError):
            BoxFamily(d=2, boxes=(Box(lo=(0,), hi=(1,)),))


class TestBoxesIntersect:
    def test_two_squares(self):
        got = boxes_intersect([Box(lo=(0, 0), hi=(2, 2)), Box(lo=(1, 1), hi=(3, 3))])
        assert got == (1, 1)

    def test_disjoint_intervals(self):
        assert boxes_intersect([Box(lo=(0,), hi=(1,)), Box(lo=(2,), hi=(3,))]) is None

    def test_single_box_returns_lo(self):
        assert boxes_intersect([Box(lo=(4, 7), hi=(9, 9))]) == (4, 7)

    def test_touching_boundary_counts(self):
        assert boxes_intersect([Box(lo=(0,), hi=(2,)), Box(lo=(2,), hi=(5,))]) == (2,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            boxes_intersect([])

    def test_rejects_mixed_dimension(self):
        with pytest.raises(ValueError):
            boxes_intersect([Box(lo=(0,), hi=(1,)), Box(lo=(0, 0), hi=(1, 1))])


class TestBuildNerve:
    def test_pairwise_intersecting_intervals_give_complete_graph(self):
        fam = intervals((0, 10), (1, 9), (2, 8), (3, 7))
        nerve = build_nerve(fam)
        assert nerve.base.k == 2
        assert len(nerve.base.edges) == 6
        assert nerve.density() == Fraction(1)

    def test_disjoint_intervals_give_edgeless(self):
        fam = intervals((0, 1), (2, 3), (4, 5))
        with pytest.raises(ValueError):
            build_nerve(BoxFamily(d=1, boxes=fam.boxes[:2]))
        assert build_nerve(fam).base.edges == frozenset()

    def test_three_squares_and_one_far(self):
        fam = BoxFamily(d=2, boxes=(square(0, 2), square(1, 3), square(2, 4), square(5, 6)))
        nerve = build_nerve(fam)
        assert nerve.base.edges == frozenset({(0, 1, 2)})

    def test_membership_matches_predicate(self):
        rng = random.Random(13)
        for d in (1, 2):
            for seed in range(5):
                fam = random_box_family(rng.randint(d + 2, 8), d, seed, spread=20, max_side=10)
                nerve = build_nerve(fam)
                for idx in combinations(range(len(fam.boxes)), d + 1):
                    present = idx in nerve.base.edges
                    meets = boxes_intersect([fam.boxes[i] for i in idx]) is not None
                    assert present == meets


    def test_nerve_built_once_per_family(self, monkeypatch):
        import cliquecert.geometry as geo

        calls = []
        real = geo._pairwise_intersections

        def counting(boxes, d):
            calls.append(len(boxes))
            return real(boxes, d)

        monkeypatch.setattr(geo, "_pairwise_intersections", counting)
        fam = random_box_family(9, 2, 7, spread=20, max_side=10)
        colorful_check(fam)
        assert calls == [9]
        del calls[:]
        assert build_nerve(fam).base is fam.nerve_hypergraph
        assert calls == []


class TestColorfulCheck:
    def test_disjoint_intervals_absent(self):
        fam = intervals((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11))
        res = colorful_check(fam)
        assert res.verdict is Verdict.ABSENT

    def test_all_sharing_a_point_absent(self):
        fam = intervals((0, 10), (1, 10), (2, 10), (3, 10))
        assert colorful_check(fam).verdict is Verdict.ABSENT

    def test_random_intervals_absent_and_biclique_free(self):
        for seed in range(10):
            fam = random_box_family(30, 1, seed)
            assert colorful_check(fam).verdict is Verdict.ABSENT
            nerve = build_nerve(fam)
            assert not has_induced_biclique(nerve.base, 2)

    def test_random_planar_boxes_absent(self):
        for seed in range(5):
            fam = random_box_family(10, 2, seed, spread=40, max_side=30)
            assert colorful_check(fam).verdict is Verdict.ABSENT


class TestHellyPipeline:
    def test_all_sharing_returns_whole_family(self):
        fam = intervals((0, 10), (1, 10), (2, 10), (3, 10), (4, 10))
        out = fractional_helly_pipeline(fam)
        assert out.indices == (0, 1, 2, 3, 4)
        assert out.point == (4,)
        assert not out.degraded

    def test_three_squares_example(self):
        fam = BoxFamily(d=2, boxes=(square(0, 2), square(1, 3), square(2, 4), square(5, 6)))
        out = fractional_helly_pipeline(fam)
        assert out.indices == (0, 1, 2)
        assert out.point == (2, 2)

    def test_point_lies_in_reported_boxes(self):
        for seed in range(15):
            fam = random_box_family(10, 1, seed, max_side=60)
            out = fractional_helly_pipeline(fam)
            assert all(fam.boxes[i].contains(out.point) for i in out.indices)
            size, _ = max_intersecting_subfamily(fam)
            assert len(out.indices) <= size

    def test_dense_intervals_against_oracle(self):
        hits = 0
        for seed in range(20):
            fam = random_box_family(10, 1, seed, spread=50, max_side=60)
            nerve = build_nerve(fam)
            if nerve.density() < Fraction(1, 2):
                continue
            hits += 1
            out = fractional_helly_pipeline(fam)
            assert all(fam.boxes[i].contains(out.point) for i in out.indices)
        assert hits >= 5


class TestMaxIntersectingSubfamily:
    def test_disjoint(self):
        size, idx = max_intersecting_subfamily(intervals((0, 1), (2, 3), (4, 5)))
        assert size == 1

    def test_all_share(self):
        size, idx = max_intersecting_subfamily(intervals((0, 9), (1, 9), (2, 9)))
        assert size == 3
        assert idx == (0, 1, 2)

    def test_sweep_example(self):
        size, idx = max_intersecting_subfamily(intervals((0, 2), (1, 3), (2, 4), (5, 6)))
        assert size == 3
        assert idx == (0, 1, 2)

    def test_agrees_with_subset_enumeration(self):
        for seed in range(10):
            fam = random_box_family(7, 2, seed, spread=15, max_side=10)
            size, idx = max_intersecting_subfamily(fam)
            assert boxes_intersect([fam.boxes[i] for i in idx]) is not None
            best = 0
            for r in range(1, 8):
                for S in combinations(range(7), r):
                    if boxes_intersect([fam.boxes[i] for i in S]) is not None:
                        best = max(best, r)
            assert size == best


class TestRandomBoxFamily:
    def test_deterministic(self):
        assert random_box_family(5, 1, 42) == random_box_family(5, 1, 42)
        assert random_box_family(5, 1, 42) != random_box_family(5, 1, 43)

    def test_shapes(self):
        fam = random_box_family(8, 3, 0)
        assert fam.d == 3
        assert len(fam.boxes) == 8

    def test_degenerate_sides_possible(self):
        fam = random_box_family(50, 1, 2, min_side=0, max_side=1)
        assert any(b.lo == b.hi for b in fam.boxes)

    def test_golden_density(self):
        # pinned from one generator run; guards both the RNG stream and the
        # nerve predicate against drift
        fam = random_box_family(200, 2, 7)
        nerve = build_nerve(fam)
        alpha = nerve.density()
        assert Fraction(0) < alpha < Fraction(1)
        assert alpha == Fraction(1429, 164175)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            random_box_family(0, 1, 1)
        with pytest.raises(ValueError):
            random_box_family(3, 1, 1, min_side=5, max_side=2)


class TestBoundConnections:
    def test_kalai_direction_on_samples(self):
        for seed in range(25):
            fam = random_box_family(12, 2, seed, spread=40, max_side=30)
            nerve = build_nerve(fam)
            size, _ = max_intersecting_subfamily(fam)
            assert meets_kalai_bound_with_slack(size, 12, nerve.density(), 2)

    def test_interval_chordal_bound_on_samples(self):
        for seed in range(25):
            fam = random_box_family(20, 1, seed)
            nerve = build_nerve(fam)
            size, _ = max_intersecting_subfamily(fam)
            assert meets_chordal_bound(size, 20, nerve.density())


class TestBoxSerialization:
    def test_round_trip(self):
        fam = random_box_family(6, 2, 5)
        assert box_family_from_dict(box_family_to_dict(fam)) == fam

    def test_rejects_inverted_with_position(self):
        doc = {"d": 1, "boxes": [{"lo": [0], "hi": [1]}, {"lo": [5], "hi": [2]}]}
        with pytest.raises(InputFormatError, match=r"boxes\[1\]"):
            box_family_from_dict(doc)

    def test_rejects_wrong_dimension(self):
        doc = {"d": 2, "boxes": [{"lo": [0], "hi": [1]}]}
        with pytest.raises(InputFormatError, match=r"boxes\[0\]"):
            box_family_from_dict(doc)
