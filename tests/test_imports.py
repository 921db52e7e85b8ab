"""Every name a package module imports is used there or exported, and every
module-level private name is used somewhere in the package.

No linter runs on the package, so an import that a change left behind (an
error class no longer raised, a helper no longer called), or a private
helper that lost its last caller, would stay unnoticed; these tests read
each module's syntax tree instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epchain"


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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {item.value for item in node.value.elts if isinstance(item, ast.Constant)}
    return [name for name in imported if name not in used]


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each module-level function, class or constant whose
    name starts with one underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    return found


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
