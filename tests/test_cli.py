import json

import pytest

from cliquecert import hypergraph_from_dict, hypergraph_to_dict
from cliquecert.cli import main
from helpers import cycle_graph


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


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
    doc = {
        "d": 1,
        "boxes": [
            {"lo": [0], "hi": [10]},
            {"lo": [1], "hi": [9]},
            {"lo": [2], "hi": [8]},
            {"lo": [3], "hi": [7]},
        ],
    }
    return write_json(tmp_path / "boxes.json", doc)


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

    def test_graph_algorithm_rejects_hypergraphs(self, capsys, tmp_path):
        path = write_json(tmp_path / "h3.json", {"n": 4, "k": 3, "edges": [[0, 1, 2]]})
        code, _, err = run(capsys, "extract", "--input", path, "--algorithm", "graph")
        assert code == 2


class TestForbidden:
    def test_found_with_certificate_and_nodes(self, capsys, c4_file):
        code, out, _ = run(capsys, "forbidden", "--input", c4_file, "--m", "2")
        assert code == 0
        outcome = last_json(out)["outcome"]
        assert outcome["verdict"] == "found"
        assert outcome["certificate"]["tuples"] == [[0, 2], [1, 3]]
        assert outcome["nodes"] >= 2

    def test_exhausted_exit_code(self, capsys, tmp_path):
        path = write_json(tmp_path / "empty8.json", {"n": 8, "k": 2, "edges": []})
        code, out, _ = run(capsys, "forbidden", "--input", path, "--m", "4", "--budget", "2")
        assert code == 4
        assert last_json(out)["outcome"]["verdict"] == "exhausted"


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

    def test_nonexistent_file(self, capsys):
        code, _, _ = run(capsys, "analyze", "--input", "/nonexistent/x.json")
        assert code == 2


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
