"""No module in src/xbarsim imports a name it never reads.

A stand-in for a linter's unused-import rule (F401) that runs wherever the
tests run. Re-exports in __init__.py are exempt, and so is an import
statement whose first line carries '# noqa: F401'.
"""

import ast
from pathlib import Path

import pytest

import xbarsim

MODULES = sorted(p for p in Path(xbarsim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from typing import Callable, Sequence\n"
              "from .neuron import solve_dc  # noqa: F401\n"
              "def f(g: Callable) -> float:\n"
              "    return os.path.sep\n")
    assert unused_imports(source) == ["line 2: math", "line 4: Sequence"]
