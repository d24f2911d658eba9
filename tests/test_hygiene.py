"""Source hygiene checks over src/spectralab/*.py and tests/*.py.

An ast scan fails on an imported name that the module never uses.  A name
is used when it appears as an identifier anywhere in the module (an
attribute chain such as scipy.linalg.expm counts through its root).
Exempt: __future__ imports, names listed in the module's __all__, and
imports on a line marked `# noqa: F401`.  Separately, every __all__ entry
of every package module must resolve to an attribute of that module.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectralab"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
