"""Every name a module of the package imports is used in that module.

pyflakes would say the same; this needs only the standard library."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cayley_theta"


def unused_imports(source: str) -> list:
    """Imported names that no expression of ``source`` reads, with the
    line of their import; ``__future__`` imports are features, not
    names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import lcm, gcd\nprint(np.pi, gcd(4, 6))\n")
    assert unused_imports(source) == [(2, "os"), (4, "lcm")]


def test_no_unused_imports_in_package():
    # __init__.py imports only to re-export
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert len(found) >= 9
    assert {name: names for name, names in found.items() if names} == {}
