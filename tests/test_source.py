"""Source hygiene: every name that a module of trc imports is used there,
every public function and class it defines is used by production code: trc
itself or the benchmark's non-test modules, whose files are read, not run;
and every entry of model.step_shapes is read from the step in model.py."""

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


def step_table_use(source: str) -> tuple[set[str], set[str], set[str]]:
    """The step_shapes keys in `source`, and the attributes that its
    functions read and set on a step namespace: a name bound to a
    SimpleNamespace(...), a _step_views(...) call or some `.step`. The
    SimpleNamespace call's keywords count as set, and an augmented
    assignment as a read."""
    tree = ast.parse(source)
    table = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "step_shapes")
    keys = {key.value for node in ast.walk(table) if isinstance(node, ast.Return)
            for key in node.value.keys}
    reads, sets = set(), set()
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        steps = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            call = value.func if isinstance(value, ast.Call) else None
            name = getattr(call, "id", getattr(call, "attr", None))
            if name in ("SimpleNamespace", "_step_views") or (
                    isinstance(value, ast.Attribute) and value.attr == "step"):
                steps.update(t.id for t in node.targets if isinstance(t, ast.Name))
                if name == "SimpleNamespace":
                    sets.update(k.arg for k in value.keywords)
        updated = {id(node.target) for node in ast.walk(fn) if isinstance(node, ast.AugAssign)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in steps):
                read = isinstance(node.ctx, ast.Load) or id(node) in updated
                (reads if read else sets).add(node.attr)
    return keys, reads, sets


def test_step_table_use_finds_reads_and_sets_on_the_step():
    source = ("def step_shapes(config, lanes):\n    return {'x': (1,), 'act': (2,)}\n\n"
              "def forward(model):\n    s = _step_views(model)\n    s.kt = s.x.T\n"
              "    model.step = s\n\n"
              "def backward(model):\n    s = model.step\n    s.act += 1\n"
              "    return s.kt, s.histories\n\n"
              "def views():\n    t = SimpleNamespace(histories=0)\n    return t\n")
    assert step_table_use(source) == ({"x", "act"}, {"x", "act", "kt", "histories"},
                                      {"kt", "histories"})


def test_every_step_table_entry_is_read_and_every_read_is_an_entry():
    # An entry that nothing reads allocates a buffer for nothing; a read of
    # no entry, nor of anything set on the step, fails at run time.
    source = (Path(trc.__file__).parent / "model.py").read_text(encoding="utf-8")
    keys, reads, sets = step_table_use(source)
    assert keys - reads == set()
    assert reads - keys - sets == set()
