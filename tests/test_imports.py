"""Every circmdd module uses each name it imports and stays short.

No linter ships with the project, so this is the unused-import check:
a name bound by an import statement must appear somewhere else in the
module. ``__init__`` is exempt, since its imports are the public API.
It is also the module-length check: no module, ``__init__`` included,
has more than MAX_LINES lines, since compiling the largest module sets
the peak memory of a process that imports circmdd without bytecode.
And it is the dead-helper check: every module-level private function or
class is referenced somewhere in circmdd outside its own definition, so
deleting a caller cannot leave its helper behind.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import circmdd

SOURCES = sorted(Path(circmdd.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
MAX_LINES = 500


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_the_check_sees_an_unused_import():
    source = "from math import gcd, lcm\nimport os.path\nprint(lcm(2, 3))\n"
    assert unused_imports(source) == ["line 1: gcd", "line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_has_at_most_max_lines(path):
    assert len(path.read_text(encoding="utf-8").splitlines()) <= MAX_LINES


def _referenced_names(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level private function or class that
    no module references outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum(map(_referenced_names, trees.values()), Counter())
    defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defines)
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and everywhere[node.name] == _referenced_names(node)[node.name]
    )


def test_the_check_sees_a_dead_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive(k):\n    return _recursive(k - 1)\n",
        "b": "from a import _used\n\nclass _Dead:\n    pass\n\nprint(_used())\n",
    }
    assert dead_helpers(sources) == ["a._recursive", "b._Dead"]


def test_every_private_helper_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert dead_helpers(sources) == []
