import random
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

import pytest

from cliquecert import (
    Box,
    BoxFamily,
    CompleteTupleCertificate,
    KUniformHypergraph,
    Verdict,
    box_family_from_dict,
    box_family_to_dict,
    boxes_intersect,
    build_nerve,
    colorful_check,
    find_complete_tuple,
    fractional_helly_pipeline,
    has_induced_biclique,
    m_clique_family,
    max_clique,
    random_box_family,
    verify_complete_tuple,
)
from cliquecert import InputFormatError, SizeRefusalError, core
from cliquecert.geometry import MAX_BOXES
from helpers import (
    IntSub,
    ListSub,
    meets_chordal_bound,
    meets_kalai_bound_with_slack,
    outcome,
    random_hypergraph,
    reference_box_family,
    reference_max_intersecting_subfamily,
)


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

    def test_rejects_mismatched_corners(self):
        with pytest.raises(ValueError, match="lo has 2 coordinates, hi has 1"):
            Box(lo=(0, 0), hi=(1,))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            BoxFamily(d=0, boxes=())


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
        assert nerve.k == 2
        assert len(nerve.edges) == 6
        assert nerve.edge_density() == Fraction(1)

    def test_disjoint_intervals_give_edgeless(self):
        fam = intervals((0, 1), (2, 3), (4, 5))
        with pytest.raises(ValueError):
            build_nerve(BoxFamily(d=1, boxes=fam.boxes[:2]))
        assert build_nerve(fam).edges == frozenset()

    def test_three_squares_and_one_far(self):
        fam = BoxFamily(d=2, boxes=(square(0, 2), square(1, 3), square(2, 4), square(5, 6)))
        nerve = build_nerve(fam)
        assert nerve.edges == frozenset({(0, 1, 2)})

    def test_membership_matches_predicate(self):
        rng = random.Random(13)
        for d in (1, 2):
            for seed in range(5):
                fam = random_box_family(rng.randint(d + 2, 8), d, seed, spread=20, max_side=10)
                nerve = build_nerve(fam)
                for idx in combinations(range(len(fam.boxes)), d + 1):
                    present = idx in nerve.edges
                    meets = boxes_intersect([fam.boxes[i] for i in idx]) is not None
                    assert present == meets

    def test_pair_masks_match_definition(self):
        # Corners in a span of at most 5, sides 0-3: most pairs touch at a
        # boundary or share a corner value, and many boxes are degenerate.
        import cliquecert.geometry as geo

        rng = random.Random(29)
        for d in (1, 2, 3):
            for _ in range(60):
                n, spread = rng.randint(1, 60), rng.randint(0, 5)
                boxes = []
                for _ in range(n):
                    lo = tuple(rng.randint(0, spread) for _ in range(d))
                    boxes.append(Box(lo=lo, hi=tuple(a + rng.randint(0, 3) for a in lo)))
                want = [
                    sum(
                        1 << j for j, b in enumerate(boxes)
                        if j != i and all(
                            b.lo[x] <= a.hi[x] and b.hi[x] >= a.lo[x] for x in range(d)
                        )
                    )
                    for i, a in enumerate(boxes)
                ]
                assert geo._pairwise_intersections(boxes, d) == want, (d, boxes)

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
        assert build_nerve(fam) is fam.nerve_hypergraph
        assert fam.intersection_graph.n == 9
        assert calls == []

    def test_nerve_is_clique_family_of_intersection_graph(self):
        for d in (1, 2, 3):
            for seed in range(5):
                fam = random_box_family(12, d, seed, spread=30, max_side=20)
                G = fam.intersection_graph
                assert G.k == 2 and G.n == 12
                for i, j in combinations(range(12), 2):
                    meets = boxes_intersect([fam.boxes[i], fam.boxes[j]]) is not None
                    assert ((i, j) in G.edges) == meets
                assert build_nerve(fam).sorted_edges == m_clique_family(G, d + 1)

    def test_interval_nerve_is_the_intersection_graph(self):
        for seed in range(5):
            fam = random_box_family(20, 1, seed, spread=30, max_side=10)
            assert build_nerve(fam) is fam.intersection_graph


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
            assert not has_induced_biclique(nerve, 2)

    def test_random_planar_boxes_absent(self):
        for seed in range(5):
            fam = random_box_family(10, 2, seed, spread=40, max_side=30)
            assert colorful_check(fam).verdict is Verdict.ABSENT

    def test_intersection_graph_has_no_induced_k2_3(self):
        # K_2(3) has boxicity 3 (Roberts 1969), so the pairwise-intersection
        # graph of planar boxes has no complete 3-tuple of missing edges;
        # checked on the criterion-5 planar families.
        for seed in range(100):
            fam = random_box_family(12, 2, seed, spread=40, max_side=30)
            assert find_complete_tuple(fam.intersection_graph, 3).verdict is Verdict.ABSENT


class TestPairwiseGraphLemma:
    def test_nerve_tuple_gives_graph_tuple(self):
        # If the (d+1)-clique hypergraph of a graph G has a complete
        # (d+1)-tuple, one non-adjacent pair from each of its tuples is a
        # complete (d+1)-tuple of missing edges of G: vertices from
        # different tuples lie in a common transversal, a clique of G.
        rng = random.Random(2026)
        found = 0
        for _ in range(200):
            n = rng.randint(9, 12)
            G = random_hypergraph(rng, n, 2, rng.uniform(0.5, 0.95))
            for d in (2, 3):
                nerve = KUniformHypergraph(n=n, k=d + 1, edges=frozenset(m_clique_family(G, d + 1)))
                res = find_complete_tuple(nerve, d + 1)
                assert res.verdict is not Verdict.EXHAUSTED
                if res.verdict is not Verdict.FOUND:
                    continue
                found += 1
                pairs = tuple(
                    next(e for e in combinations(T, 2) if e not in G.edges)
                    for T in res.certificate.tuples
                )
                ok, reason = verify_complete_tuple(G, CompleteTupleCertificate(pairs))
                assert ok, reason
        assert found >= 20


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
            assert len(out.indices) <= len(max_clique(fam.intersection_graph))

    def test_dense_intervals_against_oracle(self):
        hits = 0
        for seed in range(20):
            fam = random_box_family(10, 1, seed, spread=50, max_side=60)
            nerve = build_nerve(fam)
            if nerve.edge_density() < Fraction(1, 2):
                continue
            hits += 1
            out = fractional_helly_pipeline(fam)
            assert all(fam.boxes[i].contains(out.point) for i in out.indices)
        assert hits >= 5


class TestMaxIntersectingSubfamily:
    # Boxes have Helly number 2, so the largest subfamily with a common point
    # is a maximum clique of the pairwise-intersection graph.
    @staticmethod
    def optimum(fam: BoxFamily) -> tuple[int, ...]:
        return max_clique(fam.intersection_graph).vertices

    def test_disjoint(self):
        assert len(self.optimum(intervals((0, 1), (2, 3), (4, 5)))) == 1

    def test_all_share(self):
        assert self.optimum(intervals((0, 9), (1, 9), (2, 9))) == (0, 1, 2)

    def test_sweep_example(self):
        fam = intervals((0, 2), (1, 3), (2, 4), (5, 6))
        assert self.optimum(fam) == (0, 1, 2)
        assert reference_max_intersecting_subfamily(fam) == (3, (0, 1, 2))

    def test_agrees_with_subset_enumeration(self):
        for seed in range(10):
            fam = random_box_family(7, 2, seed, spread=15, max_side=10)
            idx = self.optimum(fam)
            assert boxes_intersect([fam.boxes[i] for i in idx]) is not None
            best = 0
            for r in range(1, 8):
                for S in combinations(range(7), r):
                    if boxes_intersect([fam.boxes[i] for i in S]) is not None:
                        best = max(best, r)
            assert len(idx) == best

    def test_agrees_with_grid_sweep(self):
        for d, n in ((1, 30), (2, 20), (3, 14)):
            for seed in range(20):
                fam = random_box_family(n, d, seed, spread=40, max_side=30)
                idx = self.optimum(fam)
                assert boxes_intersect([fam.boxes[i] for i in idx]) is not None
                assert len(idx) == reference_max_intersecting_subfamily(fam)[0]


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
        alpha = nerve.edge_density()
        assert Fraction(0) < alpha < Fraction(1)
        assert alpha == Fraction(1429, 164175)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            random_box_family(0, 1, 1)
        with pytest.raises(ValueError):
            random_box_family(3, 1, 1, min_side=5, max_side=2)
        with pytest.raises(ValueError, match="spread"):
            random_box_family(3, 1, 1, spread=-1)

    def test_refuses_more_boxes_than_the_cap(self):
        assert len(random_box_family(MAX_BOXES, 1, 1, spread=10**9, max_side=0).boxes) == MAX_BOXES
        with pytest.raises(SizeRefusalError, match="box count"):
            random_box_family(MAX_BOXES + 1, 1, 1)

    def test_refuses_more_coordinates_than_the_cap(self):
        # One box of 40,000,000 coordinates drew for 55 s and then ran out
        # of a 1 GiB address space; n * d is refused before any is drawn.
        with pytest.raises(SizeRefusalError, match="coordinate count"):
            random_box_family(1, 40_000_000, 1)
        with pytest.raises(SizeRefusalError, match="coordinate count"):
            random_box_family(2, core.DEFAULT_MAX_FAMILY // 2 + 1, 1)
        with pytest.raises(SizeRefusalError, match="box count"):
            random_box_family(MAX_BOXES + 1, 10**9, 1)


class TestBoundConnections:
    def test_kalai_direction_on_samples(self):
        for seed in range(25):
            fam = random_box_family(12, 2, seed, spread=40, max_side=30)
            nerve = build_nerve(fam)
            size = len(max_clique(fam.intersection_graph))
            assert meets_kalai_bound_with_slack(size, 12, nerve.edge_density(), 2)

    def test_interval_chordal_bound_on_samples(self):
        for seed in range(25):
            fam = random_box_family(20, 1, seed)
            nerve = build_nerve(fam)
            size = len(max_clique(fam.intersection_graph))
            assert meets_chordal_bound(size, 20, nerve.edge_density())


class TestBoxSerialization:
    def test_round_trip(self):
        fam = random_box_family(6, 2, 5)
        assert box_family_from_dict(box_family_to_dict(fam)) == fam

    def test_rejects_inverted_with_position(self):
        doc = {"d": 1, "boxes": [{"lo": [0], "hi": [1]}, {"lo": [5], "hi": [2]}]}
        with pytest.raises(InputFormatError, match=r"boxes\[1\]"):
            box_family_from_dict(doc)

    def test_refuses_more_boxes_than_the_cap_before_parsing_any(self):
        # The entries are not boxes: the count is refused before any is read.
        with pytest.raises(SizeRefusalError, match="box count"):
            box_family_from_dict({"d": 1, "boxes": [None] * (MAX_BOXES + 1)})
        with pytest.raises(InputFormatError, match=r"boxes\[0\]"):
            box_family_from_dict({"d": 1, "boxes": [None] * MAX_BOXES})

    def test_rejects_wrong_dimension(self):
        doc = {"d": 2, "boxes": [{"lo": [0], "hi": [1]}]}
        with pytest.raises(InputFormatError, match=r"boxes\[0\]"):
            box_family_from_dict(doc)


def one_more_box(**entry) -> dict:
    # A d = 1 document whose second entry is ``entry``.
    return {"d": 1, "boxes": [{"lo": [0], "hi": [1]}, entry]}


# Documents that box_family_from_dict and the per-entry reference parser
# must read alike: malformed ones raise the same error, and the others
# (subclasses, extra keys, a Mapping that is not a dict) parse alike.
BOX_DOCUMENTS = {
    "boxes-not-a-list": {"d": 1, "boxes": {"lo": [0], "hi": [1]}},
    "entry-not-a-dict": {"d": 1, "boxes": [{"lo": [0], "hi": [1]}, [0, 1]]},
    "entry-none": {"d": 1, "boxes": [None]},
    "missing-lo": one_more_box(hi=[1]),
    "missing-hi": one_more_box(lo=[0]),
    "lo-a-tuple": one_more_box(lo=(0,), hi=[1]),
    "lo-too-long": one_more_box(lo=[0, 1], hi=[1]),
    "hi-too-short": one_more_box(lo=[0], hi=[]),
    "float": one_more_box(lo=[0.5], hi=[1]),
    "bool": one_more_box(lo=[False], hi=[1]),
    "str": one_more_box(lo=[0], hi=["1"]),
    "lo-above-hi": one_more_box(lo=[2], hi=[1]),
    "lo-above-hi-d2": {
        "d": 2, "boxes": [{"lo": [0, 0], "hi": [1, 1]}, {"lo": [0, 5], "hi": [1, 4]}],
    },
    "d-zero": {"d": 0, "boxes": [{"lo": [], "hi": []}]},
    "d-zero-no-boxes": {"d": 0, "boxes": []},
    "d-negative": {"d": -1, "boxes": [{"lo": [0], "hi": [1]}]},
    "d-negative-no-boxes": {"d": -1, "boxes": []},
    "no-boxes": {"d": 2, "boxes": []},
    "int-subclass": one_more_box(lo=[IntSub(0)], hi=[IntSub(3)]),
    "list-subclass": one_more_box(lo=ListSub([0]), hi=[3]),
    "extra-keys": one_more_box(lo=[0], hi=[3], colour="red"),
    "mapping": {"d": 1, "boxes": [MappingProxyType({"lo": [0], "hi": [3]})]},
}


def corner_types(family: BoxFamily) -> list:
    return [(type(b.lo), type(b.hi), *map(type, b.lo + b.hi)) for b in family.boxes]


class TestBulkBoxParser:
    @pytest.mark.parametrize("name", sorted(BOX_DOCUMENTS))
    def test_matches_the_per_entry_parser(self, name):
        doc = BOX_DOCUMENTS[name]
        got = outcome(lambda: box_family_from_dict(doc))
        want = outcome(lambda: reference_box_family(doc))
        assert got == want
        if isinstance(want, BoxFamily):
            assert corner_types(got) == corner_types(want)

    def test_seeded_families_parse_to_the_boxes_they_were_built_from(self, monkeypatch):
        # random_box_family builds each box through Box(...), which the
        # bulk path never calls.
        docs = []
        for d in (1, 2, 3):
            for seed in range(10):
                fam = random_box_family(1 + 7 * seed, d, seed, spread=50, max_side=20)
                docs.append((fam, box_family_to_dict(fam)))

        def no_check(self, lo, hi):
            raise AssertionError("Box.__init__ called")

        monkeypatch.setattr(Box, "__init__", no_check)
        for fam, doc in docs:
            got = box_family_from_dict(doc)
            assert type(got) is BoxFamily and got.d == fam.d
            assert got == fam and hash(got) == hash(fam)
            assert all(type(b) is Box for b in got.boxes)
            assert corner_types(got) == corner_types(fam)


class TestFieldsSetByHand:
    def test_the_link_gate_could_not_refuse_a_box_graph(self):
        # intersection_graph sets G's links by hand, so the width gate of
        # KUniformHypergraph.links never runs on them.  It could not refuse
        # them: G has at most MAX_BOXES keys of MAX_BOXES bits each.
        assert MAX_BOXES ** 2 <= core.MAX_LINK_BITS

    def test_links_and_sorted_edges_equal_the_rebuilt_ones(self):
        isolated = {}
        for d in (1, 2, 3):
            for seed in range(8):
                n = 18 + 6 * seed
                fam = random_box_family(n, d, seed, spread=60, max_side=15)
                G = fam.intersection_graph
                assert "links" in G.__dict__ and "sorted_edges" in G.__dict__
                isolated[d] = isolated.get(d, 0) + n - len(G.links)
                for H in (G, fam.nerve_hypergraph):
                    assert "sorted_edges" in H.__dict__
                    rebuilt = KUniformHypergraph(n=H.n, k=H.k, edges=frozenset(H.edges))
                    assert H == rebuilt
                    assert H.sorted_edges == rebuilt.sorted_edges
                    assert H.links == rebuilt.links
        assert all(isolated[d] > 0 for d in (1, 2, 3)), isolated
