"""Source hygiene checks over src/spectralab/*.py and tests/*.py.

An ast scan fails on an imported name that the module never uses.  A name
is used when it appears as an identifier anywhere in the module (an
attribute chain such as scipy.linalg.expm counts through its root).
Exempt: __future__ imports, names listed in the module's __all__, and
imports on a line marked `# noqa: F401`.  Separately, every __all__ entry
of every package module must resolve to an attribute of that module, and
every module-level UPPER_CASE constant and private top-level function or
class of the package must be read somewhere in the package or perfbench/
(a read is a loaded name or an attribute of that name), and every top-level
function or class of the package and every method that is not a dunder must
be read somewhere in the package, tests/ or perfbench/.  A method is read
only as an attribute (`.name`): a loaded local variable of the same name
is not a read of it.  Python calls dunders without a read, so the only ones
the package may define are the construction hooks __init__ and
__post_init__.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectralab"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")
CONSTRUCTION_HOOKS = {"__init__", "__post_init__"}


def declared_all(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = set(declared_all(tree))
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used and name not in exempt)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_entries_resolve(path):
    name = "spectralab" if path.stem == "__init__" else f"spectralab.{path.stem}"
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)] == []


def test_scan_flags_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "import scipy.linalg\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "x = scipy.linalg.expm\n"
    )
    assert unused_imports(sample) == ["line 2: math", "line 5: dumps"]


def unread_definitions(modules, readers) -> list:
    """UPPER_CASE constants and private top-level functions or classes of
    `modules` that no file of `readers` loads by name or as an attribute."""
    defined = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, t.id) for t in targets
                            if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    read = set().union(*read_names(readers))
    return sorted(f"{module}: {name}" for module, name in defined if name not in read)


def read_names(readers) -> tuple:
    """(loaded, attributes): the names that the files of `readers` load, and
    the names they read as an attribute."""
    loaded, attributes = set(), set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return loaded, attributes


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_callables(modules) -> list:
    """(module, label, name) of every top-level function and class of
    `modules` and every method of those classes; a method's label is
    Class.name."""
    defined = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
    return defined


def unread_callables(modules, readers) -> list:
    """The defined callables of `modules` that are not dunders and that no
    file of `readers` reads: a method as an attribute, any other callable
    as a loaded name or an attribute."""
    loaded, attributes = read_names(readers)
    return sorted(f"{module}: {label}" for module, label, name in defined_callables(modules)
                  if not is_dunder(name) and name not in attributes
                  and ("." in label or name not in loaded))


def dunders_beyond_hooks(modules) -> list:
    """The dunder functions and methods of `modules` other than the
    construction hooks."""
    return sorted(f"{module}: {label}" for module, label, name in defined_callables(modules)
                  if is_dunder(name) and name not in CONSTRUCTION_HOOKS)


def test_every_constant_and_private_definition_is_read():
    assert unread_definitions(sorted(PACKAGE.glob("*.py")), READERS) == []


def test_scan_flags_an_unread_definition(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "LIMIT = 2048\n"
        "USED: int = 3\n"
        "Lower = 1\n"
        "def _helper():\n    return USED\n"
        "class _Record:\n    pass\n"
        "def __getattr__(name):\n    pass\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("import sample\nsample._Record()\n")
    assert unread_definitions([sample], [sample, reader]) == [
        "sample.py: LIMIT", "sample.py: _helper"]


def test_every_function_class_and_method_is_read():
    assert unread_callables(sorted(PACKAGE.glob("*.py")), READERS + TESTS) == []


def test_every_dunder_is_a_construction_hook():
    assert dunders_beyond_hooks(sorted(PACKAGE.glob("*.py"))) == []


def test_scan_flags_an_unread_function_class_or_method(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def used():\n    pass\n"
        "def unused():\n    pass\n"
        "class Shape:\n"
        "    def __init__(self):\n        pass\n"
        "    def __post_init__(self):\n        pass\n"
        "    def __call__(self):\n        pass\n"
        "    @property\n    def area(self):\n        return 0\n"
        "    def scale(self):\n        pass\n"
        "class Unused:\n    pass\n"
    )
    reader = tmp_path / "reader.py"
    # a local variable named like a method is no read of the method
    reader.write_text("from sample import used, Shape\nused()\nShape().area\n"
                      "scale = 2\nprint(scale)\n")
    assert unread_callables([sample], [sample, reader]) == [
        "sample.py: Shape.scale", "sample.py: Unused", "sample.py: unused"]
    assert dunders_beyond_hooks([sample]) == ["sample.py: Shape.__call__"]
