"""Every name a package module imports is used there or exported.

No linter runs on the package, so an import that a change left behind (an
error class no longer raised, a helper no longer called) would stay
unnoticed; this test reads each module's syntax tree instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epchain"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that it neither references nor lists in __all__.

    ``import a.b`` binds ``a``; ``from __future__`` imports are directives,
    not names, and are left out.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


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


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
