"""Every name a module of the package imports is used in that module,
and every name it defines is read.

pyflakes would say the first; this needs only the standard library."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cayley_theta"


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


def names_read(node) -> set:
    """The names an AST node reads: by name, as an attribute, or by
    importing it."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name)
    return read


def unread_names(sources: dict, private: bool,
                 read_elsewhere=frozenset()) -> list:
    """(module, name) for each module-level name, private (``_name``, not
    a dunder) or public as ``private`` says, that defines a function, a
    class or a variable and that neither ``read_elsewhere`` holds nor
    another top-level statement of any of ``sources`` reads (see
    ``names_read``).  A name read only inside its own definition, as by
    recursion, is unread."""
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
                        if name.startswith("_") == private
                        and not name.startswith("__")]
            reads.append((node, names_read(node)))
    return sorted((module, name) for module, name, home in defined
                  if name not in read_elsewhere
                  and not any(name in names for node, names in reads
                              if node is not home))


def _unread_in_classes(sources: dict, defines, read_elsewhere) -> list:
    """(module, "Class.name") for each public name that ``defines(cls,
    member)`` gives for a member of a module-level class, and that
    neither ``read_elsewhere`` holds nor another statement of any of
    ``sources`` reads, matched by name as in ``unread_names``: a read of
    the name on any object counts, and a read inside the member's own
    definition does not."""
    defined, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                reads.append((node, names_read(node)))
                continue
            for member in node.body:
                name = defines(node, member)
                if name is not None and not name.startswith("_"):
                    defined.append((module, node.name, name, member))
                reads.append((member, names_read(member)))
    return sorted((module, f"{cls}.{name}")
                  for module, cls, name, home in defined
                  if name not in read_elsewhere
                  and not any(name in names for node, names in reads
                              if node is not home))


def unread_members(sources: dict, read_elsewhere=frozenset()) -> list:
    """(module, "Class.name") for each public method or property of a
    module-level class that is not read (see ``_unread_in_classes``)."""
    return _unread_in_classes(
        sources, lambda cls, member: member.name
        if isinstance(member, ast.FunctionDef) else None, read_elsewhere)


def unread_fields(sources: dict, read_elsewhere=frozenset()) -> list:
    """(module, "Class.name") for each public field of a module-level
    dataclass, an annotated name in its body, that is not read (see
    ``_unread_in_classes``)."""
    def field(cls, member):
        dataclass = any(
            getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
            for d in (getattr(d, "func", d) for d in cls.decorator_list))
        if dataclass and isinstance(member, ast.AnnAssign) and \
                isinstance(member.target, ast.Name):
            return member.target.id
        return None
    return _unread_in_classes(sources, field, read_elsewhere)


def readme_names(text: str, sections) -> set:
    """The identifiers in code (fenced or in backticks) of the README
    sections whose ``## `` titles are in ``sections``."""
    names = set()
    for part in re.split(r"^## ", text, flags=re.M):
        if part.split("\n", 1)[0].strip() in sections:
            code = re.findall(r"```.*?```|`[^`\n]+`", part, flags=re.S)
            names.update(re.findall(r"[A-Za-z_]\w*", " ".join(code)))
    return names


def test_guard_finds_an_unused_private_name():
    sources = {"a": "def _read(): pass\n_LEFT = 1\n"
                    "def _recursive(n): return _recursive(n - 1)\n",
               "b": "from a import _read\n_read()\n_ATTR = 2\n",
               "c": "import b\nprint(b._ATTR)\n"}
    assert unread_names(sources, private=True) == [("a", "_LEFT"),
                                                   ("a", "_recursive")]


def test_no_unused_private_names_in_package():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_names(sources, private=True) == []


def test_guard_finds_an_unread_public_name():
    sources = {"a": "def read(): pass\nLEFT = 1\nDOCUMENTED = 2\n"
                    "def benchmarked(): pass\ndef _hidden(): pass\n",
               "b": "from a import read\n"}
    elsewhere = names_read(ast.parse("a.benchmarked()")) | \
        readme_names("## Library\n\n`a.DOCUMENTED`\n\n## Other\n`LEFT`\n",
                     {"Library"})
    assert unread_names(sources, private=False) == [
        ("a", "DOCUMENTED"), ("a", "LEFT"), ("a", "benchmarked")]
    assert unread_names(sources, private=False,
                        read_elsewhere=elsewhere) == [("a", "LEFT")]


def _package_and_readers():
    """The package's sources, and the names read outside it: by the
    benchmark, or in code of the README's File formats or Library
    section."""
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    elsewhere = readme_names((ROOT / "README.md").read_text(),
                             {"File formats", "Library"})
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        elsewhere |= names_read(ast.parse(path.read_text()))
    return sources, elsewhere


def test_no_unread_public_names_in_package():
    """Every public module-level name of the package is read by another
    top-level statement of the package, by the benchmark, or is named in
    the README's File formats or Library section: no entry point serves
    only the tests."""
    sources, elsewhere = _package_and_readers()
    assert unread_names(sources, private=False,
                        read_elsewhere=elsewhere) == []


def test_guard_finds_an_unread_public_member():
    sources = {"a": "class A:\n    def read(self): pass\n"
                    "    def left(self): return self.left()\n"
                    "    @property\n    def shown(self): pass\n"
                    "    def _hidden(self): pass\n",
               "b": "from a import A\nA().read()\n"
                    "def left(): pass\n"}
    assert unread_members(sources) == [("a", "A.left"), ("a", "A.shown")]
    assert unread_members(sources, read_elsewhere={"shown"}) == [
        ("a", "A.left")]


def test_no_unread_public_members_in_package():
    """Every public method and property of the package's classes is read
    by name elsewhere in the package, by the benchmark, or in the
    README's File formats or Library section."""
    sources, elsewhere = _package_and_readers()
    assert unread_members(sources, read_elsewhere=elsewhere) == []


def test_guard_finds_an_unread_dataclass_field():
    sources = {"a": "from dataclasses import dataclass\n"
                    "import dataclasses\n"
                    "@dataclass(frozen=True)\n"
                    "class A:\n    read: int\n    left: int\n"
                    "    _hidden: int\n    shown: int = 0\n"
                    "@dataclasses.dataclass\n"
                    "class B:\n    kept: str\n"
                    "class C:\n    plain: int\n",
               "b": "from a import A, B\nA(1, 2, 3).read\n"
                    "B(kept='x')\ndef left(): pass\n"}
    assert unread_fields(sources) == [("a", "A.left"), ("a", "A.shown"),
                                      ("a", "B.kept")]
    assert unread_fields(sources, read_elsewhere={"shown"}) == [
        ("a", "A.left"), ("a", "B.kept")]


def test_no_unread_dataclass_fields_in_package():
    """Every public field of the package's dataclasses is read by name
    elsewhere in the package, by the benchmark, or in the README's File
    formats or Library section: no record carries a field that only its
    constructor sets."""
    sources, elsewhere = _package_and_readers()
    assert unread_fields(sources, read_elsewhere=elsewhere) == []


def test_groups_have_two_operations():
    """Every group's arithmetic is ``products`` and ``invert``: the
    scalar ``multiply``, the abelian ``encode`` and the scalar
    ``perm_rank`` are gone, and ``inverses()`` is the base class's
    ``invert`` of every element in every group kind."""
    from cayley_theta import groups
    for name in ("multiply", "encode", "perm_rank"):
        assert not hasattr(groups, name)
        assert not any(hasattr(kind, name) for kind in
                       groups.FiniteGroup.__subclasses__())
    assert groups.FiniteGroup.__subclasses__()
    for kind in groups.FiniteGroup.__subclasses__():
        assert "inverses" not in vars(kind)
