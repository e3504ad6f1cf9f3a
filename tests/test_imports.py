"""Source contract: every name a pertmap module imports is used in it, so a
deletion that frees an import also deletes the import."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "pertmap"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that no other line
    reads; ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_only_unread_names():
    lines = ["from __future__ import annotations", "import os.path", "import numpy as np", "from . import a, b as c"]
    assert unused_imports("\n".join([*lines, "np.ones(c)"])) == ["a", "os"]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []
