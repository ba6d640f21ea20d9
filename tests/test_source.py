"""Source hygiene: every name that a module of trc imports is used there."""

import ast
from pathlib import Path

import pytest

import trc

SOURCES = sorted(Path(trc.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports in `source`, bar __future__'s, that no
    expression in it references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_only_the_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport csv as c\n"
              "from .a import b, d as e\n\ndef f(x: e) -> None:\n    os.sep(x)\n")
    assert unused_imports(source) == ["b", "c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
