"""Source hygiene: every name that a module of trc imports is used there, and
every public function and class it defines is used by production code: trc
itself or the benchmark's non-test modules, whose files are read, not run."""

import ast
from pathlib import Path

import pytest

import trc

SOURCES = sorted(Path(trc.__file__).parent.glob("*.py"))
PERFBENCH = Path(trc.__file__).resolve().parent.parent.parent / "perfbench"
PRODUCTION = SOURCES + sorted(p for p in PERFBENCH.glob("*.py")
                              if not p.name.startswith("test_"))


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


def unreferenced_definitions(source: str, users: list[str]) -> list[str]:
    """Public module-level functions and classes defined in `source` that no
    expression in `users` names, as a plain name or an attribute; the
    definitions themselves do not count."""
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for text in users:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_unreferenced_definitions_finds_only_the_unused_public_names():
    source = ("class A:\n    pass\n\ndef f(x: A):\n    pass\n\n"
              "def h():\n    pass\n\ndef _p():\n    pass\n")
    user = "import m\n\nm.h()\n"
    assert unreferenced_definitions(source, [source, user]) == ["f"]
    assert unreferenced_definitions(source, [source]) == ["f", "h"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_definition_is_used_in_production(path):
    users = [p.read_text(encoding="utf-8") for p in PRODUCTION]
    assert unreferenced_definitions(path.read_text(encoding="utf-8"), users) == []
