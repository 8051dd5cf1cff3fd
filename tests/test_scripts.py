"""The experiment scripts run end to end on tiny arguments.

Nothing else imports them, so an API change that breaks one shows up
only here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    first = proc.stdout.splitlines()[0].split()
    assert first[: len(header)] == header
