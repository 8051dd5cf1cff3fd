import contextlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquecert import (
    CompleteTupleCertificate,
    Verdict,
    box_family_to_dict,
    build_nerve,
    find_complete_tuple,
    hypergraph_from_dict,
    hypergraph_to_dict,
    random_box_family,
    verify_complete_tuple,
)
from cliquecert.cli import main
from cliquecert.forbidden import DEFAULT_BUDGET
from helpers import brute_force_has_complete_tuple, brute_force_max_clique, cycle_graph

BOXES = {
    "d": 1,
    "boxes": [
        {"lo": [0], "hi": [10]},
        {"lo": [1], "hi": [9]},
        {"lo": [2], "hi": [8]},
        {"lo": [3], "hi": [7]},
    ],
}


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs main on its arguments with the address space capped at 1 GiB, so a
# command that allocates a large table dies with MemoryError (exit 1)
# instead of taking the host's memory.
MAIN_UNDER_1GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cliquecert.cli import main
sys.exit(main(sys.argv[1:]))
"""


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def disjoint_cliques(count, size, k, rng=None):
    """``count`` disjoint complete k-uniform hypergraphs on ``size``
    vertices each, with the vertex labels shuffled by ``rng`` if given."""
    labels = list(range(count * size))
    if rng is not None:
        rng.shuffle(labels)
    edges = [
        sorted(e) for i in range(0, len(labels), size)
        for e in combinations(labels[i:i + size], k)
    ]
    return {"n": len(labels), "k": k, "edges": sorted(edges)}


def random_graph(n, p, rng):
    """G(n, p), each pair drawn from ``rng`` in lexicographic order."""
    return {"n": n, "k": 2, "edges": [list(e) for e in combinations(range(n), 2) if rng.random() < p]}


def drawn_boxes(n, d, seed):
    """What `gen-boxes --n n --d d --seed seed` prints as its outcome, drawn
    as random_box_family draws it but at any n, past the box cap too."""
    rng = random.Random(seed)
    boxes = []
    for _ in range(n):
        lo = [rng.randint(0, 100) for _ in range(d)]
        boxes.append({"lo": lo, "hi": [a + rng.randint(0, 40) for a in lo]})
    return {"d": d, "boxes": boxes}


# The documents the size-refusal table reads, built on demand.
REFUSAL_DOCS = {
    "edgeless3000": lambda: {"n": 3000, "k": 2, "edges": []},
    "edgeless6000": lambda: {"n": 6000, "k": 2, "edges": []},
    # 800 pairwise non-adjacent vertices joined to a K_1200.
    "clique-join": lambda: {
        "n": 2000, "k": 2, "missing": [list(e) for e in combinations(range(800), 2)],
    },
    "gnp200": lambda: random_graph(200, 0.5, random.Random(1)),
    "wide": lambda: {"n": 200000, "k": 100000, "edges": []},
    "wide-missing": lambda: {"n": 200000, "k": 100000, "missing": []},
    "dense-missing": lambda: {"n": 3000, "k": 3, "missing": []},
    "huge-n": lambda: {"n": 10**30, "k": 2, "edges": []},
    "boxes2": lambda: box_family_to_dict(random_box_family(100, 2, 1)),
    "nerve2": lambda: hypergraph_to_dict(build_nerve(random_box_family(100, 2, 1))),
    "boxes3": lambda: box_family_to_dict(random_box_family(40, 3, 1)),
    # What `gen-boxes --n 600 --d 3 --seed 1 --spread 40 --max-side 30` prints.
    "boxes600": lambda: box_family_to_dict(random_box_family(600, 3, 1, spread=40, max_side=30)),
    # What `gen-boxes --n 20000 --d 1 --seed 1` prints.
    "boxes20000": lambda: box_family_to_dict(random_box_family(20000, 1, 1)),
    # What `gen-boxes --n 100000 --d 1 --seed 1` printed before the box cap.
    "boxes100000": lambda: drawn_boxes(100000, 1, 1),
    "edgeless-n60-k30": lambda: {"n": 60, "k": 30, "edges": []},
    "edgeless-n40-k10": lambda: {"n": 40, "k": 10, "edges": []},
    "edgeless-n2000-k1000": lambda: {"n": 2000, "k": 1000, "edges": []},
    "edgeless-n20000-k10000": lambda: {"n": 20000, "k": 10000, "edges": []},
    "star10001": lambda: {"n": 10001, "k": 2, "edges": [[0, i] for i in range(1, 10001)]},
    "k300-minus-edge": lambda: {"n": 300, "k": 2, "missing": [[0, 1]]},
    "path150000": lambda: {"n": 150000, "k": 2, "edges": [[i, i + 1] for i in range(149999)]},
    "disjoint-k4-3": lambda: disjoint_cliques(2500, 4, 3, random.Random(1)),
    "disjoint-triangles": lambda: disjoint_cliques(5000, 3, 2),
    # The Turan graph T(200, 10): ten parts of 20 vertices, no 11-clique.
    "turan200": lambda: {
        "n": 200, "k": 2,
        "edges": [[u, v] for u, v in combinations(range(200), 2) if u % 10 != v % 10],
    },
}

WIDE_SEARCH = ["search", "--n", "200000", "--k", "100000", "--m", "100000", "--omega-cap", "99999"]


# Each row is an argv whose "@name" entries stand for the path of
# REFUSAL_DOCS[name], written out first.
@pytest.mark.parametrize(
    "argv",
    [
        # Edgeless graphs with C(n, 2) missing edges, past
        # core.DEFAULT_MAX_FAMILY: at n=3000 the graph extraction would
        # print a 69 MB report, and at n=6000 run out of 1 GiB.
        pytest.param(["extract", "--input", "@edgeless3000", "--algorithm", "graph"],
                     id="extract-graph-n3000"),
        pytest.param(["extract", "--input", "@edgeless6000", "--algorithm", "graph"],
                     id="extract-graph-n6000"),
        # Every missing pair has the K_1200 as its common neighbourhood,
        # and the k = 2 walk's meter charges each of those masks its 1,200
        # vertices as it is pushed; unmetered, the walk scans 319,600 of
        # them for a second pair.
        pytest.param(["forbidden", "--input", "@clique-join", "--m", "2"],
                     id="forbidden-clique-join-m2"),
        # An m-clique of 100,000 vertices, deeper than the recursion limit.
        pytest.param(["extract", "--input", "@wide"], id="extract-wide"),
        # These nerves have 160,516 (d=2 n=100) and 91,389 (d=3 n=40)
        # missing edges, past forbidden.MAX_TUPLE_SLOTS; listing them and
        # building the search tables would not fit in 1 GiB at n=100.
        pytest.param(["helly", "--input", "@boxes2"], id="helly-d2-n100"),
        pytest.param(["forbidden", "--input", "@nerve2", "--m", "3"], id="forbidden-d2-n100"),
        pytest.param(["helly", "--input", "@boxes3"], id="helly-d3-n40"),
        # The 34-byte "missing" document complements to C(3000, 3) edges,
        # past core.DEFAULT_MAX_FAMILY, which the loader refuses to list;
        # it never builds C(200000, 100000).
        pytest.param(["analyze", "--input", "@dense-missing"], id="analyze-missing-n3000"),
        pytest.param(["analyze", "--input", "@wide-missing"], id="analyze-missing-wide"),
        # C(n, k) has 60,204 and 6,018 digits, past the 4,300 that str()
        # converts, and the report would print C(n, k) - |E|.
        pytest.param(["analyze", "--input", "@wide"], id="analyze-wide"),
        pytest.param(["analyze", "--input", "@edgeless-n20000-k10000"],
                     id="analyze-n20000-k10000"),
        # More vertices than the loader's cap; max_clique would build 1 << n.
        pytest.param(["analyze", "--input", "@huge-n"], id="analyze-n1e30"),
        # The tuple search and both searches name C(n, k) in the refusal
        # without printing its 60,204 digits.
        pytest.param(["forbidden", "--input", "@wide", "--m", "100000"], id="forbidden-wide"),
        pytest.param([*WIDE_SEARCH, "--seed", "1"], id="search-wide"),
        pytest.param([*WIDE_SEARCH, "--seed", "1", "--exhaustive"], id="search-exhaustive-wide"),
        # 2^C(100, 5) instances; C(100, 5) k-subsets would not fit.
        pytest.param(["search", "--exhaustive", "--n", "100", "--k", "5", "--m", "5",
                      "--omega-cap", "6"], id="search-exhaustive-n100-k5"),
        # C(1000, 2) k-subsets: two C(1000, 2)-square bit tables.
        pytest.param(["search", "--n", "1000", "--k", "2", "--m", "2", "--omega-cap", "3",
                      "--iters", "1", "--seed", "1"], id="search-n1000"),
        # 70.5M pairwise intersections, counted from the pair masks before
        # any is listed.
        pytest.param(["nerve", "--input", "@boxes20000"], id="nerve-d1-n20000"),
        pytest.param(["helly", "--input", "@boxes20000"], id="helly-d1-n20000"),
        # 100,000 pair masks of 100,000 bits would not fit in 1 GiB: the
        # box count is refused before any box is parsed or drawn.
        pytest.param(["nerve", "--input", "@boxes100000"], id="nerve-d1-n100000"),
        pytest.param(["helly", "--input", "@boxes100000"], id="helly-d1-n100000"),
        pytest.param(["gen-boxes", "--n", "100000", "--d", "1", "--seed", "1"],
                     id="gen-boxes-n100000"),
        # The nerve is the 4-clique family of the intersection graph, and
        # m_clique_family stops once its search passes
        # core.DEFAULT_MAX_FAMILY steps.
        pytest.param(["nerve", "--input", "@boxes600"], id="nerve-d3-n600"),
        pytest.param(["helly", "--input", "@boxes600"], id="helly-d3-n600"),
        # Empty m-clique families that take many more steps to rule out:
        # about C(60, 28) vertex sets (k=30) and C(40, 8) (k=10) are cliques
        # vacuously.  Round 1 at m = k + 2 reads its sigma off the
        # (k+1)-cliques, and that search refuses (at m = k round 1 reads
        # the links, so no search runs; see test_extract_edgeless_wide_k).
        # T(200, 10) has no 11-clique, but round 1 at m = 11 reads its
        # sigma off the 20^10 ten-cliques, and that search refuses.
        pytest.param(["extract", "--input", "@edgeless-n60-k30", "--m", "32"],
                     id="extract-n60-k30"),
        pytest.param(["extract", "--input", "@edgeless-n40-k10", "--m", "12"],
                     id="extract-n40-k10"),
        pytest.param(["extract", "--input", "@turan200", "--m", "11"], id="extract-turan200-m11"),
        # The path's link index would hold 150,000 masks of up to 150,000
        # bits, about 1.4 GB; the width is refused before any mask is built.
        pytest.param(["analyze", "--input", "@path150000"], id="analyze-path150000"),
        pytest.param(["extract", "--input", "@path150000"], id="extract-path150000"),
        # 10,000 edges that share N_{0}: each of the C(10000, 2) missing
        # edges between leaves costs a score-walk step and a table entry.
        pytest.param(["extract", "--input", "@star10001"], id="extract-star10001"),
        # K_300 minus an edge has C(300, 3) - 298 triangles, past the cap;
        # round 1 counts them from the edges' extension masks as it goes.
        pytest.param(["extract", "--input", "@k300-minus-edge", "--m", "3"],
                     id="extract-k300-minus-edge-m3"),
        # Sparse inputs whose score walk tries every later support vertex
        # at depth 2 and up, about S^2/2 column ANDs for S support vertices
        # (n = 10,000 and 15,000), however small the score table.
        pytest.param(["extract", "--input", "@disjoint-k4-3", "--m", "4"],
                     id="extract-disjoint-k4-3-m4"),
        pytest.param(["extract", "--input", "@disjoint-triangles", "--m", "3"],
                     id="extract-disjoint-triangles-m3"),
    ],
)
def test_size_refusal_under_1gib(tmp_path, argv):
    """``main(argv)`` under MAIN_UNDER_1GIB exits 3 with one size-refusal
    line on stderr and nothing on stdout."""
    argv = [
        write_json(tmp_path / f"{a[1:]}.json", REFUSAL_DOCS[a[1:]]()) if a.startswith("@") else a
        for a in argv
    ]
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_UNDER_1GIB, *argv],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 3, (argv, proc.stderr)
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("size refusal: "), lines


@pytest.mark.parametrize("name", ["edgeless-n60-k30", "edgeless-n40-k10"])
def test_extract_edgeless_wide_k(tmp_path, capsys, name):
    # At m = k round 1 reads the (empty) link index, so the edgeless
    # documents of the refusal table extract at once: a fallback to the
    # vacuous clique of the first k - 1 vertices.
    doc = REFUSAL_DOCS[name]()
    code, out, err = run(capsys, "extract", "--input", write_json(tmp_path / "doc.json", doc))
    assert (code, err) == (0, "")
    outcome = last_json(out)["outcome"]
    assert outcome["kind"] == "clique" and outcome["fallback"] is True
    assert outcome["vertices"] == list(range(doc["k"] - 1))
    assert outcome["trace"]["family_sizes"] == [0]


def test_forbidden_on_a_wide_compatibility_core(tmp_path):
    # The rook's graph K_24 x K_24: each of its 152,352 missing pairs has
    # two non-adjacent common neighbours, so its compatibility graph has
    # 152,352 vertices of one neighbour each.  The k = 2 walk builds none
    # of it: the first missing pair (0, 25) and (1, 24), the one pair in
    # its common neighbourhood, are the first induced K_{2,2}.
    q = 24
    edges = [
        [u, v] for u, v in combinations(range(q * q), 2) if u // q == v // q or u % q == v % q
    ]
    path = write_json(tmp_path / "rook24.json", {"n": q * q, "k": 2, "edges": edges})
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_UNDER_1GIB, "forbidden", "--input", path, "--m", "2"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    outcome = last_json(proc.stdout)["outcome"]
    assert outcome["verdict"] == "found"
    assert outcome["certificate"]["tuples"] == [[0, 25], [1, 24]]


@pytest.mark.parametrize(
    "name, m, verdict, nodes",
    [
        # No vertex has a neighbour, so the k = 2 walk tries no pair.
        pytest.param("edgeless3000", 2, "absent", 0, id="forbidden-edgeless-n3000"),
        # The first three pairs the walk tries make a complete 3-tuple.
        pytest.param("gnp200", 3, "found", 3, id="forbidden-gnp200-m3"),
    ],
)
def test_forbidden_decided_under_1gib(tmp_path, name, m, verdict, nodes):
    doc = REFUSAL_DOCS[name]()
    path = write_json(tmp_path / f"{name}.json", doc)
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_UNDER_1GIB, "forbidden", "--input", path, "--m", str(m)],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    outcome = last_json(proc.stdout)["outcome"]
    assert (outcome["verdict"], outcome["nodes"]) == (verdict, nodes)
    if verdict == "found":
        cert = CompleteTupleCertificate.from_dict(outcome["certificate"])
        assert verify_complete_tuple(hypergraph_from_dict(doc), cert) == (True, None)


@pytest.mark.parametrize("name", ["edgeless-n40-k10", "edgeless-n2000-k1000"])
def test_analyze_edgeless_wide_k(tmp_path, name):
    # Every set of k-1 vertices is a clique vacuously; the shadow prune
    # ends max_clique's walk at the root, since no vertex lies in an edge.
    # Without it the walk took 2.5 s at n=32 k=8 and did not end n=2000
    # k=1000 in 300 s.
    doc = REFUSAL_DOCS[name]()
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_UNDER_1GIB, "analyze", "--input",
         write_json(tmp_path / "doc.json", doc)],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    outcome = last_json(proc.stdout)["outcome"]
    assert outcome["omega"] == doc["k"] - 1
    assert outcome["omega_witness"] == list(range(doc["k"] - 1))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture
def c4_file(tmp_path):
    return write_json(tmp_path / "c4.json", hypergraph_to_dict(cycle_graph(4)))


@pytest.fixture
def boxes_file(tmp_path):
    return write_json(tmp_path / "boxes.json", BOXES)


def squares_file(tmp_path) -> str:
    # Four disjoint unit squares in the plane.
    boxes = [{"lo": [3 * i, 3 * i], "hi": [3 * i + 1, 3 * i + 1]} for i in range(4)]
    return write_json(tmp_path / "squares.json", {"d": 2, "boxes": boxes})


class TestExtract:
    def test_c4_certificate_payload(self, capsys, c4_file):
        code, out, _ = run(capsys, "extract", "--input", c4_file, "--m", "2")
        assert code == 0
        report = last_json(out)
        assert report["outcome"]["kind"] == "certificate"
        assert report["outcome"]["tuples"] == [[0, 2], [1, 3]]
        assert report["outcome"]["alpha"] == "2/3"

    def test_graph_algorithm_agrees(self, capsys, c4_file):
        code, out, _ = run(capsys, "extract", "--input", c4_file, "--algorithm", "graph")
        assert code == 0
        assert last_json(out)["outcome"]["kind"] == "certificate"

    @pytest.mark.parametrize("algorithm", ["hypergraph", "graph"])
    def test_invalid_certificate_exits_5_with_it(self, capsys, monkeypatch, c4_file, algorithm):
        import cliquecert.extractor as extractor_module

        monkeypatch.setattr(extractor_module, "verify_complete_tuple", lambda *_: (False, "forced"))
        code, out, err = run(capsys, "extract", "--input", c4_file, "--algorithm", algorithm)
        assert code == 5
        doc = json.loads(out)
        assert doc["detail"] == "search produced an invalid certificate: forced"
        assert doc["certificate"]["tuples"] == [[0, 2], [1, 3]]
        assert err.splitlines() == [f"internal-consistency failure: {doc['detail']}"]

    def test_graph_algorithm_rejects_hypergraphs(self, capsys, tmp_path):
        path = write_json(tmp_path / "h3.json", {"n": 4, "k": 3, "edges": [[0, 1, 2]]})
        code, _, err = run(capsys, "extract", "--input", path, "--algorithm", "graph")
        assert code == 2

    def test_edgeless_graph_falls_back(self, capsys, tmp_path):
        # C(6000, 2) m-subsets, but the 2-clique family of an edgeless
        # graph is empty, so nothing passes the size cap.
        path = write_json(tmp_path / "edgeless.json", {"n": 6000, "k": 2, "edges": []})
        code, out, _ = run(capsys, "extract", "--input", path)
        assert code == 0
        outcome = last_json(out)["outcome"]
        assert outcome["fallback"] is True
        assert outcome["vertices"] == [0]

    # Seed-1 nerves with more than DEFAULT_MAX_FAMILY m-subsets, C(230, 3)
    # and C(100, 4), but m-clique families far below it.
    @pytest.mark.parametrize("n, d", [(230, 2), (100, 3)])
    def test_large_nerve_is_extracted(self, capsys, tmp_path, n, d):
        nerve = build_nerve(random_box_family(n, d, 1))
        path = write_json(tmp_path / "nerve.json", hypergraph_to_dict(nerve))
        code, out, _ = run(capsys, "extract", "--input", path)
        assert code == 0
        outcome = last_json(out)["outcome"]
        assert outcome["kind"] == "clique"
        assert nerve.is_clique(outcome["vertices"])

    def test_clique_deeper_than_the_recursion_limit_is_refused(self, capsys, tmp_path):
        # The m-clique search recurses once per clique vertex.  C(260, 259)
        # = 260 m-subsets pass the size cap, and the two that leave out 0
        # or 1 are cliques of K_260 minus the edge 01.
        doc = {"n": 260, "k": 2, "missing": [[0, 1]]}
        path = write_json(tmp_path / "deep.json", doc)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            code, out, err = run(capsys, "extract", "--input", path, "--m", "259")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("size refusal: ")


class TestForbidden:
    def test_found_with_certificate_and_nodes(self, capsys, c4_file):
        code, out, _ = run(capsys, "forbidden", "--input", c4_file, "--m", "2")
        assert code == 0
        outcome = last_json(out)["outcome"]
        assert outcome["verdict"] == "found"
        assert outcome["certificate"]["tuples"] == [[0, 2], [1, 3]]
        assert outcome["nodes"] >= 2

    def test_exhausted_exit_code(self, capsys, tmp_path):
        # K_8 minus six pairs, four of them a 4-cycle of compatible pairs:
        # the absence proof at m = 3 tries 4 missing pairs.
        removed = {(0, 1), (2, 3), (4, 5), (6, 7), (0, 4), (2, 6)}
        edges = [list(e) for e in combinations(range(8), 2) if e not in removed]
        path = write_json(tmp_path / "square8.json", {"n": 8, "k": 2, "edges": edges})
        code, out, _ = run(capsys, "forbidden", "--input", path, "--m", "3", "--budget", "2")
        assert code == 4
        assert last_json(out)["outcome"] == {
            "certificate": None, "nodes": 3, "verdict": "exhausted",
        }
        code, out, _ = run(capsys, "forbidden", "--input", path, "--m", "3")
        assert code == 0
        assert last_json(out)["outcome"] == {"certificate": None, "nodes": 4, "verdict": "absent"}


    def test_zero_budget_is_legal(self, capsys, c4_file):
        code, out, _ = run(capsys, "forbidden", "--input", c4_file, "--m", "2", "--budget", "0")
        assert code == 4
        assert last_json(out)["outcome"]["nodes"] == 1


class TestNegativeBudget:
    def test_forbidden(self, capsys, c4_file):
        code, out, err = run(capsys, "forbidden", "--input", c4_file, "--m", "2", "--budget", "-1")
        assert code == 2
        assert out == ""
        assert "budget must be >= 0" in err

    def test_helly(self, capsys, boxes_file):
        code, out, err = run(capsys, "helly", "--input", boxes_file, "--budget", "-1")
        assert code == 2
        assert out == ""
        assert "budget must be >= 0" in err

    def test_search(self, capsys):
        code, out, err = run(
            capsys,
            "search", "--n", "4", "--k", "2", "--m", "2", "--omega-cap", "2",
            "--seed", "1", "--budget", "-1",
        )
        assert code == 2
        assert out == ""
        assert "budget must be >= 0" in err


class TestArgumentErrors:
    # Parameters the library rejects exit 2 with a one-line error, never
    # with a traceback.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["forbidden", "--input", "C4", "--m", "1"], "m must be >= k = 2, got 1"),
            (["extract", "--input", "C4", "--m", "1"], "m must be >= k = 2, got 1"),
            (["bounds", "--alpha", "1/2", "--k", "1", "--m", "2", "--d", "1"], "k=1"),
            (["bounds", "--alpha", "1/2", "--k", "2", "--m", "2", "--d", "0"], "d must be >= 1"),
            (["gen-boxes", "--n", "0", "--d", "1", "--seed", "1"], "n >= 1"),
            (
                ["search", "--n", "4", "--k", "2", "--m", "2", "--omega-cap", "0", "--seed", "1"],
                "omega_cap = 0",
            ),
            (
                [
                    "search", "--n", "4", "--k", "2", "--m", "2", "--omega-cap", "2",
                    "--seed", "1", "--restarts", "0",
                ],
                "restarts must be >= 1, got 0",
            ),
            (
                ["search", "--n", "0", "--k", "2", "--m", "2", "--omega-cap", "2", "--seed", "1"],
                "n must be >= k = 2",
            ),
            (["bounds", "--alpha", "0", "--k", "1", "--m", "1", "--d", "1"], "k=1, m=1"),
            (["bounds", "--alpha", "0", "--k", "2", "--m", "-3", "--d", "1"], "k=2, m=-3"),
            (
                ["search", "--n", "4", "--k", "2", "--m", "2", "--omega-cap", "0", "--exhaustive"],
                "omega_cap = 0",
            ),
            (["bounds", "--alpha", "1e400", "--k", "2", "--m", "2", "--d", "1"], "alpha must lie"),
            (
                [
                    "search", "--n", "5", "--k", "2", "--m", "2", "--omega-cap", "3",
                    "--seed", "1", "--iters", "-1",
                ],
                "iterations must be >= 0, got -1",
            ),
            (["gen-boxes", "--n", "3", "--d", "1", "--seed", "1", "--spread", "-1"], "spread"),
            (
                ["search", "--n", "5", "--k", "3", "--m", "2", "--omega-cap", "3", "--seed", "1"],
                "m must be >= k = 3, got 2",
            ),
            (
                ["search", "--n", "4", "--k", "3", "--m", "2", "--omega-cap", "3", "--exhaustive"],
                "m must be >= k = 3, got 2",
            ),
            (
                ["search", "--n", "4", "--k", "0", "--m", "2", "--omega-cap", "2", "--seed", "1"],
                "edge arity k must be >= 2, got 0",
            ),
            (
                ["search", "--n", "4", "--k", "1", "--m", "2", "--omega-cap", "2", "--exhaustive"],
                "edge arity k must be >= 2, got 1",
            ),
            (
                ["bounds", "--alpha", "0", "--k", "2", "--m", "1000000000000", "--d", "1"],
                "k=2, m=1000000000000",
            ),
            (["bounds", "--alpha", "1/2", "--k", "2", "--m", "100000000", "--d", "1"], "4300 digits"),
        ],
    )
    def test_exit_two_with_one_line_error(self, capsys, c4_file, argv, message):
        argv = [c4_file if a == "C4" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]


class TestBounds:
    def test_table_values(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--alpha", "3/4", "--k", "2", "--m", "2", "--d", "1"
        )
        assert code == 0
        outcome = last_json(out)["outcome"]
        assert outcome["theorem1"] == pytest.approx(0.25, rel=1e-12)
        assert outcome["kalai"] == pytest.approx(0.5, rel=1e-12)
        assert outcome["chordal"] == pytest.approx(0.5, rel=1e-12)
        assert "theorem1" in err

    def test_bad_alpha_is_input_error(self, capsys):
        code, _, _ = run(capsys, "bounds", "--alpha", "x/y", "--k", "2", "--m", "2", "--d", "1")
        assert code == 2


class TestAnalyze:
    def test_missing_key_equivalence(self, capsys, tmp_path, c4_file):
        missing_form = write_json(
            tmp_path / "c4m.json", {"n": 4, "k": 2, "missing": [[0, 2], [1, 3]]}
        )
        code1, out1, _ = run(capsys, "analyze", "--input", c4_file)
        code2, out2, _ = run(capsys, "analyze", "--input", missing_form)
        assert code1 == code2 == 0
        r1, r2 = last_json(out1), last_json(out2)
        r1["parameters"] = r2["parameters"] = None
        del r1["wall_time_s"], r2["wall_time_s"]
        assert r1 == r2

    def test_invalid_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "analyze", "--input", str(bad))
        assert code == 2
        assert "error" in err
        # Well-formed JSON that is not a valid instance or box family.
        for subcommand, doc, message in [
            ("analyze", [4, 2], "must be a JSON object"),
            ("analyze", {"n": "4", "k": 2, "edges": []}, '"n" must be an integer'),
            ("analyze", {"n": 4, "k": 2.0, "edges": []}, '"k" must be an integer'),
            ("analyze", {"n": 4, "k": 1, "edges": []}, '"k" must be >= 2'),
            ("analyze", {"n": -1, "k": 2, "edges": []}, '"n" must be >= 0'),
            ("analyze", {"n": 4, "k": 2, "edges": {"0": [0, 1]}}, '"edges" must be a list'),
            ("analyze", {"n": 4, "k": 2, "edges": [[0, 1], 2]}, "edges[1] is not a list"),
            ("analyze", {"n": 4, "k": 2, "edges": [[0, "1"]]}, "edges[0][1] is not an integer"),
            ("nerve", [BOXES], "must be a JSON object"),
            ("nerve", {"d": 1, "boxes": {"lo": [0], "hi": [1]}}, '"boxes" must be a list'),
            ("nerve", {"d": 1, "boxes": [{"lo": [0], "hi": [1]}, {"lo": [2]}]}, "boxes[1] must be"),
            ("nerve", {"d": 1, "boxes": [{"lo": [0], "hi": [1.5]}]}, "boxes[0].hi[0] is not"),
        ]:
            path = write_json(tmp_path / "doc.json", doc)
            code, out, err = run(capsys, subcommand, "--input", path)
            assert code == 2
            assert out == ""
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert message in lines[0]

    def test_nonexistent_file(self, capsys, tmp_path):
        # Also the unreadable ones: a directory, and JSON nested too deeply
        # for the parser's recursion limit.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        for path in ("/nonexistent/x.json", str(tmp_path), str(deep)):
            code, out, err = run(capsys, "analyze", "--input", path)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestNerveAndHelly:
    def test_nerve_payload_reloads(self, capsys, boxes_file):
        code, out, _ = run(capsys, "nerve", "--input", boxes_file)
        assert code == 0
        payload = last_json(out)["outcome"]["hypergraph"]
        H = hypergraph_from_dict(payload)
        assert H.n == 4 and H.k == 2 and len(H.edges) == 6

    def test_helly_whole_family(self, capsys, boxes_file):
        code, out, _ = run(capsys, "helly", "--input", boxes_file)
        assert code == 0
        outcome = last_json(out)["outcome"]
        assert outcome["indices"] == [0, 1, 2, 3]
        assert outcome["subfamily_size"] == 4
        assert outcome["colorful_verdict"] == "absent"

    @pytest.mark.parametrize("d, n, budget", [(1, 30, DEFAULT_BUDGET), (2, 12, 100_000), (3, 10, 5_000)])
    def test_helly_reports_colorful_nodes(self, capsys, tmp_path, d, n, budget):
        fam = random_box_family(n, d, 3, spread=40, max_side=30)
        path = write_json(tmp_path / "fam.json", box_family_to_dict(fam))
        code, out, _ = run(capsys, "helly", "--input", path, "--budget", str(budget))
        assert code == 0
        want = find_complete_tuple(build_nerve(fam), d + 1, budget)
        assert want.verdict is Verdict.ABSENT
        assert last_json(out)["outcome"]["colorful_nodes"] == want.nodes
        # At d = 1 a node is a missing pair of the interval graph tried.
        assert want.nodes == 181 if d == 1 else want.nodes > 0

    def test_helly_exhausted_colorful_check(self, capsys, tmp_path):
        code, out, err = run(capsys, "helly", "--input", squares_file(tmp_path), "--budget", "0")
        assert code == 4
        assert last_json(out)["outcome"] == {"nodes": 1, "verdict": "exhausted"}
        assert err.strip().splitlines() == [
            "colorful check exhausted its budget; result inconclusive"
        ]

    def test_helly_degraded_fallback(self, capsys, tmp_path):
        # No three of the squares meet, so the nerve is edgeless and its
        # vacuous clique {0, 1} of disjoint boxes falls back to box 0.
        code, out, _ = run(
            capsys, "helly", "--input", squares_file(tmp_path), "--budget", "100000"
        )
        assert code == 0
        outcome = last_json(out)["outcome"]
        assert outcome["degraded"] is True
        assert outcome["indices"] == [0]
        assert outcome["point"] == [0, 0]
        assert outcome["colorful_verdict"] == "absent"

    @pytest.mark.parametrize("subcommand", ["nerve", "helly"])
    def test_too_few_boxes_is_input_error(self, capsys, tmp_path, subcommand):
        doc = {"d": 2, "boxes": [{"lo": [0, 0], "hi": [2, 2]}, {"lo": [1, 1], "hi": [3, 3]}]}
        path = write_json(tmp_path / "two.json", doc)
        code, out, err = run(capsys, subcommand, "--input", path)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [
            "error: nerve needs more than d+1 = 3 boxes, got 2"
        ]


class TestSearch:
    def test_exhaustive_n4(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "--n", "4", "--k", "2", "--m", "2", "--omega-cap", "2", "--exhaustive",
        )
        assert code == 0
        lines = out.strip().splitlines()
        record = json.loads(lines[0])
        assert record["alpha"] == "1/2"
        report = json.loads(lines[-1])
        assert report["outcome"]["records"] == 1

    def test_seed_required_for_randomized(self, capsys):
        code, _, err = run(
            capsys, "search", "--n", "4", "--k", "2", "--m", "2", "--omega-cap", "2"
        )
        assert code == 2
        assert "--seed" in err

    def test_seeded_runs_byte_identical_modulo_wall_time(self, capsys):
        argv = [
            "search", "--n", "5", "--k", "2", "--m", "2", "--omega-cap", "2",
            "--iters", "300", "--seed", "4",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        lines1, lines2 = out1.strip().splitlines(), out2.strip().splitlines()
        assert lines1[:-1] == lines2[:-1]
        r1, r2 = json.loads(lines1[-1]), json.loads(lines2[-1])
        del r1["wall_time_s"], r2["wall_time_s"]
        assert r1 == r2

    def test_exhausted_verification_exits_four(self, capsys):
        # Inconclusive, not an invalid input: the final re-verification of
        # the best instance runs out of budget, or a candidate the exhaustive
        # search had to skip could have beaten the best record.  With no
        # iterations the record is the edgeless start.  At k = 2 its absence
        # proof takes no node (no vertex has a neighbour); at
        # k = 3 the search passes over more than 10 of its 20 missing
        # triples.
        cases = [
            (
                [
                    "search", "--n", "6", "--k", "3", "--m", "3", "--omega-cap", "3",
                    "--seed", "1", "--budget", "10", "--iters", "0",
                ],
                "inconclusive: the tuple search verifying the record exhausted its budget "
                "of 10 nodes",
            ),
            (
                [
                    "search", "--n", "4", "--k", "2", "--m", "2", "--omega-cap", "2",
                    "--exhaustive", "--budget", "0",
                ],
                "inconclusive: a candidate with c_m = 4 exhausted the tuple search budget "
                "of 0 nodes, so the maximum is undecided",
            ),
        ]
        for argv, line in cases:
            code, out, err = run(capsys, *argv)
            assert code == 4
            assert out == ""
            assert err.strip().splitlines() == [line]

    def test_small_budget_climb_leaves_the_edgeless_start(self, capsys):
        # The seeded searches of this climb fit in 10 nodes, so it moves,
        # and its best instance re-verifies within the same budget.
        code, out, _ = run(
            capsys,
            "search", "--n", "5", "--k", "2", "--m", "2", "--omega-cap", "3",
            "--seed", "1", "--budget", "10",
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["verified"] == "absent"
        H = hypergraph_from_dict(record["instance"])
        assert H.edges
        assert not brute_force_has_complete_tuple(H, 2)
        assert brute_force_max_clique(H) <= 3
        assert last_json(out)["outcome"]["records"] == 1

    def test_size_refusal_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "search", "--n", "9", "--k", "2", "--m", "2", "--omega-cap", "3", "--exhaustive",
        )
        assert code == 3
        assert "refusal" in err


class TestGenBoxes:
    def test_deterministic_payload(self, capsys):
        argv = ["gen-boxes", "--n", "5", "--d", "1", "--seed", "42"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        r1, r2 = last_json(out1), last_json(out2)
        assert r1["outcome"] == r2["outcome"]
        assert len(r1["outcome"]["boxes"]) == 5

    def test_seed_is_required(self, capsys):
        code, _, _ = run(capsys, "gen-boxes", "--n", "5", "--d", "1")
        assert code == 2


class TestRoundTrips:
    def test_instance_digest_independent_of_encoding(self, capsys, tmp_path, c4_file):
        missing_form = write_json(
            tmp_path / "c4m.json", {"n": 4, "k": 2, "missing": [[0, 2], [1, 3]]}
        )
        _, out1, _ = run(capsys, "analyze", "--input", c4_file)
        _, out2, _ = run(capsys, "analyze", "--input", missing_form)
        assert last_json(out1)["input_digest"] == last_json(out2)["input_digest"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 6, "k": 3, "edges": [[3, 4, 5], [0, 1, 2], [1, 2, 4]]},
            {"n": 6, "k": 3, "missing": [[2, 3, 5], [0, 1, 2]]},
        ],
        ids=["edges", "missing"],
    )
    def test_instance_digest_is_that_of_the_canonical_document(self, capsys, tmp_path, doc):
        from cliquecert.cli import _canonical_digest

        H = hypergraph_from_dict(doc)
        _, out, _ = run(capsys, "analyze", "--input", write_json(tmp_path / "doc.json", doc))
        assert last_json(out)["input_digest"] == _canonical_digest(hypergraph_to_dict(H))

    def test_certificate_payload_reloads(self, capsys, c4_file):
        from cliquecert import CompleteTupleCertificate

        _, out, _ = run(capsys, "forbidden", "--input", c4_file, "--m", "2")
        doc = last_json(out)["outcome"]["certificate"]
        cert = CompleteTupleCertificate.from_dict(doc)
        assert cert.tuples == ((0, 2), (1, 3))

    def test_internal_consistency_exit_mapping(self, capsys, monkeypatch, boxes_file):
        from cliquecert import InternalConsistencyError
        import cliquecert.cli as climod

        def boom(*a, **k):
            raise InternalConsistencyError("forced for the exit-code contract")

        monkeypatch.setattr(climod, "colorful_check", boom)
        code, out, err = run(capsys, "helly", "--input", boxes_file)
        assert code == 5
        assert json.loads(out.strip())["error"] == "internal-consistency failure"


# ---------------------------------------------------------------------------
# argv fuzz: the exit-code contract and the recorded parameters
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("analyze", "forbidden", "extract", "bounds", "nerve", "helly", "search", "gen-boxes")
INPUTS = ("instance", "boxes", "directory", "missing", "malformed")
ALPHAS = ("0", "1", "1/2", "3/4", "0.25", "1e-400")
BAD_ALPHAS = ("2", "-1/3", "1e400", "-1e400", "x/y", "1/0")
# The parameters a report records for an option left out of the argv.
DEFAULTS = {
    "forbidden": {"budget": DEFAULT_BUDGET},
    "extract": {"m": None, "algorithm": "hypergraph"},
    "helly": {"budget": DEFAULT_BUDGET},
    "search": {"restarts": 1, "seed": None, "exhaustive": False, "budget": DEFAULT_BUDGET},
    "gen-boxes": {"spread": 100, "min_side": 0, "max_side": 40},
}


@st.composite
def invocations(draw):
    """A subcommand and its options, None marking one left out.

    Four draws in five keep every documented rule, so that most runs get
    past the argument checks; the fifth may break any of them.  Sizes stay
    small: n <= 8 (n <= 5 for the exhaustive search, whose enumeration
    doubles per k-subset), at most 50 iterations and budgets up to 10^4.
    """
    wild = draw(st.integers(0, 4)) == 0

    def ints(lo, hi):
        return draw(st.integers(-1 if wild else lo, hi))

    def maybe(value):
        return value if draw(st.booleans()) else None

    sub = draw(st.sampled_from(SUBCOMMANDS))
    own = "boxes" if sub in ("nerve", "helly") else "instance"
    if sub in ("analyze", "forbidden", "extract", "nerve", "helly"):
        drawn = {"input": draw(st.sampled_from(INPUTS)) if wild else own}
    if sub == "forbidden":
        drawn.update(m=ints(2, 6), budget=maybe(ints(0, 10**4)))
    elif sub == "extract":
        algorithm = draw(st.sampled_from(("hypergraph", "graph")))
        drawn.update(m=maybe(ints(2, 6)), algorithm=maybe(algorithm))
    elif sub == "helly":
        drawn.update(budget=maybe(ints(0, 10**4)))
    elif sub == "bounds":
        k = ints(2, 5)
        alpha = draw(st.sampled_from(ALPHAS + BAD_ALPHAS if wild else ALPHAS))
        drawn = {"alpha": alpha, "k": k, "m": ints(k, 7), "d": ints(1, 4)}
    elif sub == "search":
        k = ints(2, 4)
        exhaustive = maybe(True)
        n = ints(k, 5 if exhaustive else 8)
        drawn = {
            "n": n, "k": k, "m": ints(k, 6), "omega_cap": ints(k - 1, max(n, 1)),
            "iters": ints(0, 50), "restarts": maybe(ints(1, 3)),
            "seed": maybe(draw(st.integers(0, 1000))) if wild else draw(st.integers(0, 1000)),
            "exhaustive": exhaustive, "budget": maybe(ints(0, 10**4)),
        }
    elif sub == "gen-boxes":
        min_side = maybe(ints(0, 20))
        drawn = {
            "n": ints(1, 8), "d": ints(1, 3), "seed": draw(st.integers(0, 1000)),
            "spread": maybe(ints(0, 100)), "min_side": min_side,
            "max_side": maybe(ints(min_side or 0, 50)),
        }
    return sub, drawn


@pytest.fixture(scope="module")
def input_pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    malformed = root / "malformed.json"
    malformed.write_text("{not json")
    return {
        "instance": write_json(root / "c5.json", hypergraph_to_dict(cycle_graph(5))),
        "boxes": write_json(root / "boxes.json", BOXES),
        "directory": str(root),
        "missing": str(root / "missing.json"),
        "malformed": str(malformed),
    }


class TestArgvFuzz:
    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(invocations())
    def test_exit_codes_and_parameters(self, input_pool, invocation):
        sub, drawn = invocation
        if "input" in drawn:
            drawn["input"] = input_pool[drawn["input"]]
        argv = [sub]
        for dest, value in drawn.items():
            if value is None:
                continue
            argv.append("--" + dest.replace("_", "-"))
            if value is not True:
                argv.append(str(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() + out.getvalue(), argv
        lines = err.getvalue().splitlines()
        if code == 2:
            # One line of our own, or argparse's usage block and its error line.
            own = len(lines) == 1 and lines[0].startswith("error: ")
            usage = bool(lines) and lines[0].startswith("usage: ")
            usage = usage and lines[-1].startswith(f"cliquecert {sub}: error: ")
            assert own or usage, (argv, lines)
        if code == 3:
            assert len(lines) == 1 and lines[0].startswith("size refusal: "), (argv, lines)
        if code != 0:
            return
        report = last_json(out.getvalue())
        expected = {**DEFAULTS.get(sub, {})}
        expected.update((dest, v) for dest, v in drawn.items() if v is not None)
        if sub == "extract" and expected["m"] is None:
            expected["m"] = 2  # the instance's k
        assert report["subcommand"] == sub
        assert report["parameters"] == expected, argv
