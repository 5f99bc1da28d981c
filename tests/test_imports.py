"""Every circmdd module uses each name it imports and stays short.

No linter ships with the project, so this is the unused-import check:
a name bound by an import statement must appear somewhere else in the
module. ``__init__`` is exempt, since its imports are the public API.
It is also the module-length check: no module, ``__init__`` included,
has more than MAX_LINES lines, since compiling the largest module sets
the peak memory of a process that imports circmdd without bytecode.
And it is the dead-helper check: every module-level private function or
class, and every non-dunder method of a module-private class, is
referenced somewhere in circmdd outside its own definition (a method by
attribute name), so deleting a caller cannot leave its helper behind.
The check goes by name alone: a method is taken as referenced wherever
an attribute of its name is read, whatever the object.
Every import sits at module level, where the module graph shows it,
except one under a module-level ``if TYPE_CHECKING:`` that annotations
alone read. ``circmdd.__all__`` lists exactly the names that
``__init__`` imports, each of which resolves. And the module graph of
run-time imports is acyclic, with ``groebner`` a leaf, so that
``network`` can read three-step distances off its staircase. Last,
a fresh interpreter that imports ``circmdd`` or ``circmdd.cli`` does
not load ``dataclasses``, whose imports cost every CLI process.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from graphlib import CycleError, TopologicalSorter
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


def _attribute_names(tree) -> Counter:
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level private function or class, and
    module.Class.name of each non-dunder method of a module-private
    class, that no module references outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum(map(_referenced_names, trees.values()), Counter())
    attributes = sum(map(_attribute_names, trees.values()), Counter())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or _is_dunder(node.name):
                continue
            if everywhere[node.name] == _referenced_names(node)[node.name]:
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [
                    f"{module}.{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, functions)
                    and not _is_dunder(method.name)
                    and attributes[method.name]
                    == _attribute_names(method)[method.name]
                ]
    return sorted(dead)


def test_the_check_sees_a_dead_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive(k):\n    return _recursive(k - 1)\n",
        "b": "from a import _used\n\nclass _Dead:\n    pass\n\nprint(_used())\n",
    }
    assert dead_helpers(sources) == ["a._recursive", "b._Dead"]


def test_the_check_sees_a_dead_method():
    # fill is read by __missing__; add only by itself; dunders and the
    # methods of public classes are not checked
    sources = {
        "a": (
            "class _Store(dict):\n"
            "    def __missing__(self, k):\n        return self.fill(k)\n\n"
            "    def fill(self, k):\n        return k\n\n"
            "    def add(self, k):\n        return self.add(k)\n"
        ),
        "b": (
            "from a import _Store\n\n"
            "class Public:\n    def unused(self):\n        pass\n\n"
            "print(_Store()[1])\n"
        ),
    }
    assert dead_helpers(sources) == ["a._Store.add"]


def test_every_private_helper_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert dead_helpers(sources) == []


def _is_type_checking(test) -> bool:
    name = test.id if isinstance(test, ast.Name) else getattr(test, "attr", None)
    return name == "TYPE_CHECKING"


def nested_imports(source: str) -> list[str]:
    """Each import statement below module level, other than those
    directly under a module-level ``if TYPE_CHECKING:``."""
    tree = ast.parse(source)
    allowed = set(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            allowed.update(node.body)
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in allowed
    ]


def test_the_check_sees_a_nested_import():
    source = (
        "from typing import TYPE_CHECKING\nimport os\n"
        "if TYPE_CHECKING:\n    from a import B\n"
        "def f():\n    import json\n    return json\n"
        "class C:\n    from math import gcd\n"
        "if os.name:\n    import sys\n"
    )
    assert sorted(nested_imports(source)) == [
        "line 11: import sys",
        "line 6: import json",
        "line 9: from math import gcd",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_imports_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def test_all_lists_exactly_the_imported_names():
    # each name is bound to the object its module defines under it
    tree = ast.parse(Path(circmdd.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: getattr(
            importlib.import_module(f"circmdd.{node.module}"), alias.name
        )
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(circmdd.__all__)) == len(circmdd.__all__)
    assert set(circmdd.__all__) == set(imported)
    for name in circmdd.__all__:
        assert getattr(circmdd, name) is imported[name], name


def runtime_imports(source: str) -> set[str]:
    """The circmdd modules a module imports at module level, by name;
    an import under ``if TYPE_CHECKING:`` is not run, so not counted."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("circmdd."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("circmdd."))
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph, its first module repeated at its end, or
    [] when the graph is acyclic."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


def test_the_check_sees_an_import_cycle():
    sources = {
        "a": "from .b import f\nimport math\n",
        "b": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .a import G\n"
        "import circmdd.c\n",
        "c": "from . import a\nfrom circmdd.d import h\n",
        "d": "from .intlin import dot\n",
    }
    graph = {module: runtime_imports(source) for module, source in sources.items()}
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a", "d"}, "d": {"intlin"}}
    cycle = import_cycle(graph)
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["a", "b", "c"]
    graph["c"] = {"d"}
    assert import_cycle(graph) == []


def package_imports() -> dict[str, set[str]]:
    return {path.stem: runtime_imports(path.read_text(encoding="utf-8")) for path in SOURCES}


def test_module_graph_is_acyclic():
    assert import_cycle(package_imports()) == []


def test_groebner_imports_no_module_but_errors_and_intlin():
    # network imports groebner for the three-step kernel, so groebner
    # must not reach network, mdd or lattice at run time
    assert package_imports()["groebner"] <= {"errors", "intlin"}


@pytest.mark.parametrize("module", ["circmdd", "circmdd.cli"])
def test_import_leaves_dataclasses_out(module):
    # the records are named tuples, so a fresh interpreter that imports
    # circmdd never loads dataclasses (nor the inspect, ast and dis it
    # pulls in)
    code = f"import sys, {module}; print('dataclasses' in sys.modules)"
    src = str(Path(circmdd.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
