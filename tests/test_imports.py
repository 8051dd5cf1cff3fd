"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``; this keeps it true.
Every absolute import in ``src/cliquecert`` must name a standard-library
module or ``cliquecert`` itself.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliquecert"


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
