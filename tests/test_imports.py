"""Every name a package module imports is used there or exported, every
module-level private name is used somewhere in the package, and every public
name has a caller.

No linter runs on the package, so an import that a change left behind (an
error class no longer raised, a helper no longer called), or a private
helper that lost its last caller, would stay unnoticed; these tests read
each module's syntax tree instead.  A public name, one that a module lists in
its ``__all__``, needs a reader too: the package, the benchmark or the README.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epchain"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that it neither references nor lists in __all__.

    ``import a.b`` binds ``a``; ``from __future__`` imports are directives,
    not names, and ``from m import *`` binds no name this can list, so both
    are left out.  The listed names of __all__ are its string items; a
    starred item such as ``*chain.__all__`` references ``chain``.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | set(public_names(tree)[1])]


def public_names(tree: ast.Module) -> tuple[ast.stmt | None, list[str]]:
    """A module's ``__all__`` statement (None if it has none) and its string items."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in defined_names(node):
            return node, [item.value for item in node.value.elts if isinstance(item, ast.Constant)]
    return None, []


def defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement defines as a function, class or constant."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [target.id for target in statement.targets if isinstance(target, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each module-level function, class or constant whose
    name starts with one underscore."""
    return [
        (name, node)
        for node in tree.body
        for name in defined_names(node)
        if name.startswith("_") and not name.startswith("__")
    ]


def loaded_names(node: ast.AST) -> set[str]:
    """The names a syntax tree reads, bare (``_f``) or as an attribute (``dynamics._f``)."""
    return {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) or isinstance(child, ast.Attribute)
    }


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private definition that no module-level statement of
    the sources, other than the definition itself, reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [(statement, loaded_names(statement)) for tree in trees.values() for statement in tree.body]
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in private_definitions(tree)
        if not any(name in names for statement, names in statements if statement is not definition)
    ]


def unreferenced_publics(sources: dict[str, str], bench: list[str], readme: str) -> list[str]:
    """``module.name`` of each name of a module's ``__all__`` that nothing reads.

    A name is read by a module-level statement of the sources other than its
    own definition and its ``__all__`` (``loaded_names``), by any name,
    attribute or import of the bench sources, or by an identifier inside
    backticks in the README: an inline code span or a fenced block.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [
        (module, statement, loaded_names(statement))
        for module, tree in trees.items() for statement in tree.body
    ]
    outside = set()
    for source in bench:
        tree = ast.parse(source)
        outside |= loaded_names(tree)
        outside |= {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
        }
    # the text between the 1st and 2nd backtick, the 3rd and 4th, ...: a ``` fence is three
    outside |= set(re.findall(r"[A-Za-z_]\w*", " ".join(readme.split("`")[1::2])))
    found = []
    for module, tree in trees.items():
        listing, names = public_names(tree)
        for name in names:
            read = name in outside or any(
                name in loaded
                for other, statement, loaded in statements
                if statement is not listing and not (other == module and name in defined_names(statement))
            )
            if not read:
                found.append(f"{module}.{name}")
    return found


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import ConfigError, PrecisionLoss, OutOfRange\n"
        "__all__ = ['OutOfRange']\n"
        "def f():\n"
        "    raise ConfigError(os.path.sep)\n"
    )
    assert unused_imports(source) == ["np", "PrecisionLoss"]
    source = (
        "from . import chain, errors, spectral\n"
        "from .chain import *\n"
        "__all__ = [*chain.__all__, 'errors']\n"
    )
    assert unused_imports(source) == ["spectral"]


def test_finds_an_unreferenced_private_name():
    sources = {
        "a": (
            "_TOL = 1e-2\n"
            "_UNUSED: float = 2.0\n"
            "def _helper(x):\n"
            "    return _helper(x - 1) if x else _TOL\n"
            "class _Left:\n"
            "    pass\n"
            "def public():\n"
            "    return 0\n"
        ),
        "b": "from . import a\ndef f():\n    return a._TOL\n",
    }
    assert unreferenced_privates(sources) == ["a._UNUSED", "a._helper", "a._Left"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_every_private_name_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_finds_an_unreferenced_public_name():
    sources = {
        "a": (
            "__all__ = ['LIMIT', 'f', 'g', 'h', 'Shown', 'Benched', 'Alone']\n"
            "LIMIT = 3\n"
            "def f():\n"
            "    return f() + LIMIT\n"
            "def g():\n"
            "    return 0\n"
            "def h():\n"
            "    return 1\n"
            "class Shown:\n"
            "    pass\n"
            "class Benched:\n"
            "    pass\n"
            "class Alone:\n"
            "    def method(self):\n"
            "        return Alone\n"
        ),
        "b": "from . import a\nfrom .a import h\ndef caller():\n    return a.g()\n",
    }
    bench = ["from a import Benched\n"]
    readme = "Call `Shown(...)`.  Neither f nor Alone is in backticks.\n```python\nprint(1)\n```\n"
    # f reads itself, Alone reads itself in a method, and b imports h but never calls it
    assert unreferenced_publics(sources, bench, readme) == ["a.f", "a.h", "a.Alone"]


def test_every_public_name_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    assert unreferenced_publics(sources, bench, (ROOT / "README.md").read_text()) == []
