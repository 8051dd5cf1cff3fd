"""The package imports nothing outside the standard library, and the CLI
starts without ``dataclasses``.

``pyproject.toml`` declares ``dependencies = []``; this keeps it true.
Every absolute import in ``src/cliquecert`` must name a standard-library
module or ``cliquecert`` itself.  Every run of the CLI imports the whole
package first, and ``dataclasses`` (with the ``inspect`` it imports) and
its class builds were most of that import's cost, so the package defines
no dataclasses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cliquecert"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"cliquecert"}
    ]
    assert not outside, outside


def test_cli_start_up_imports_no_dataclasses():
    # A fresh interpreter, as a shell run of the CLI gets: importing
    # cliquecert.cli and building its parser must not load dataclasses.
    code = (
        "import sys\n"
        "import cliquecert.cli as cli\n"
        "cli.build_parser()\n"
        "print('dataclasses' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert done.stdout.split() == ["False"], done.stdout
