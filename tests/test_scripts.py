"""The experiment scripts and the module entry points run end to end on
tiny arguments.

Nothing else imports the scripts, so an API change that breaks one shows
up only here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("helly_experiment.py", ["--n", "8", "--families", "1"], ["seed", "side", "alpha"]),
        (
            "frontier_experiment.py",
            ["--n", "5", "--iters", "30", "--restarts", "1"],
            ["k", "m", "alpha"],
        ),
    ],
)
def test_script_prints_its_table(script, args, header):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    first = proc.stdout.splitlines()[0].split()
    assert first[: len(header)] == header


def test_frontier_experiment_m_defaults_to_k():
    proc = run_script(
        "frontier_experiment.py", "--n", "6", "--k", "3", "--iters", "20", "--restarts", "1"
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert rows and all(row.split()[:2] == ["3", "3"] for row in rows)


@pytest.mark.parametrize(
    "args, error",
    [
        (["--n", "5", "--k", "3", "--m", "2"], "error: m must be >= k = 3, got 2"),
        (["--n", "5", "--k", "1"], "error: edge arity k must be >= 2, got 1"),
        (["--n", "6", "--restarts", "0"], "error: restarts must be >= 1, got 0"),
        (["--n", "2"], "error: no clique cap to try: --n must exceed 2"),
    ],
)
def test_frontier_experiment_argument_errors_exit_two(args, error):
    proc = run_script("frontier_experiment.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [error]


@pytest.mark.parametrize(
    "args, error",
    [
        (["--n", "0"], "error: need n >= 1 and d >= 1, got n=0, d=1"),
        (["--d", "0"], "error: need n >= 1 and d >= 1, got n=20, d=0"),
        (["--n", "2", "--d", "2"], "error: nerve needs more than d+1 = 3 boxes, got 2"),
        (["--families", "-1"], "error: --families must be >= 1, got -1"),
        (["--families", "0"], "error: --families must be >= 1, got 0"),
    ],
)
def test_helly_experiment_argument_errors_exit_two(args, error):
    proc = run_script("helly_experiment.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [error]


def test_report_digest_is_stable():
    # Two runs of the same cases print one digest; wall_time_s, the one
    # field of a report that varies between runs, is zeroed.
    args = ["--workload", "nerve-extract", "--seed", "1", "--cases", "2", "--toy"]
    digests = []
    for _ in range(2):
        proc = run_script("report_digest.py", *args)
        assert proc.returncode == 0, proc.stderr
        digests += proc.stdout.split()
    assert len(digests) == 2 and len(digests[0]) == 64
    assert digests[0] == digests[1]


@pytest.mark.parametrize("module", ["cliquecert", "cliquecert.cli"])
def test_module_entry_point(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    ok = run("bounds", "--alpha", "1/2", "--k", "2", "--m", "2", "--d", "1")
    assert ok.returncode == 0, ok.stderr
    lines = ok.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["subcommand"] == "bounds"
    bad = run("search", "--n", "4", "--k", "2", "--m", "2", "--omega-cap", "0", "--seed", "1")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error: omega_cap = 0")


def test_importing_main_module_runs_nothing():
    # Tools that import every module of the package (the benchmark's
    # tracer does) must not start the interface.
    importlib.import_module("cliquecert.__main__")
