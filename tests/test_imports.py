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


def unused_private_names(sources: dict) -> list:
    """(module, name) for each module-level ``_name`` (not a dunder)
    that defines a function, a class or a variable and that no other
    top-level statement of any of ``sources`` reads: by name, as an
    attribute, or by importing it.  A name read only inside its own
    definition, as by recursion, is unused."""
    defined, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets
                         if isinstance(t, ast.Name)}
            defined += [(module, name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            read = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.Attribute):
                    read.add(n.attr)
                elif isinstance(n, ast.alias):
                    read.add(n.name)
            reads.append((node, read))
    return sorted((module, name) for module, name, home in defined
                  if not any(name in names for node, names in reads
                             if node is not home))


def test_guard_finds_an_unused_private_name():
    sources = {"a": "def _read(): pass\n_LEFT = 1\n"
                    "def _recursive(n): return _recursive(n - 1)\n",
               "b": "from a import _read\n_read()\n_ATTR = 2\n",
               "c": "import b\nprint(b._ATTR)\n"}
    assert unused_private_names(sources) == [("a", "_LEFT"),
                                             ("a", "_recursive")]


def test_no_unused_private_names_in_package():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []
