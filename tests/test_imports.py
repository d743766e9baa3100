"""No relbound module imports a private name from another relbound module."""

import ast
from pathlib import Path

import relbound

PACKAGE = Path(relbound.__file__).parent


def private_imports(source: str) -> list:
    """``(line, name)`` of every ``_``-prefixed name imported from a relbound module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "relbound"
            if internal:
                found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "relbound"
                      and any(part.startswith("_") for part in a.name.split(".")[1:])]
    return found


def test_guard_sees_private_imports():
    assert private_imports("from .bootstrap import _eval, bp_lcl") == [(1, "_eval")]
    assert private_imports("from relbound.structures import _eval") == [(1, "_eval")]
    assert private_imports("import relbound._hidden") == [(1, "relbound._hidden")]
    assert private_imports("from __future__ import annotations\nfrom numpy import _x") == []


def test_no_module_imports_another_modules_private_names():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
