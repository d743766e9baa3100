"""Import-level guards on the package source.

No relbound module imports a private name from another relbound module or a
name it never uses, the bootstrap layers name no lifetime family, and the
study harness looks up the callees the benchmark wraps as module globals.
"""

import ast
import inspect
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


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name the module neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = [(node.lineno, (a.asname or a.name).split(".")[0])
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_guard_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, numpy.linalg\n"
              "from .x import a, b as c, d\n"
              "__all__ = ['d']\n"
              "print(a, numpy.linalg.norm)\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ imports names to re-export them
    found = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


FAMILY_CLASSES = {"Exponential", "Weibull", "LogNormal", "Generic"}


def names_used(source: str) -> set:
    """Every name the source imports, reads, binds or reaches as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {part for a in node.names for part in (a.name, a.asname) if part}
    return found


def test_family_guard_sees_names():
    assert names_used("from .distributions import Exponential as E\nx = d.Weibull") >= {
        "Exponential", "E", "Weibull"}
    assert names_used('"""Exponential lifetimes."""') == set()


def test_bootstrap_names_no_family_class():
    # the layers reach a family only through its attributes, so every
    # family, caller-supplied ones included, runs the same code
    assert names_used((PACKAGE / "bootstrap.py").read_text()) & FAMILY_CLASSES == set()


# The benchmark's traced run swaps these callees for timing wrappers on the
# relbound.simulation module, so each caller must look them up as module
# globals at call time; a local import or alias would bypass the wrappers.
SEAM = {
    "compute_lcl": {"bp_lcl", "bb_lcl", "dbpt_lcl", "dbp_lcl_oracle", "delta_lcl"},
    "lcl_curve": {"bootstrap_curve", "delta_curve"},
    "_one_replication": {"compute_lcl", "lcl_curve", "type2_censor", "impute",
                         "sample_lifetimes"},
}
# the wrappers of compute_lcl and lcl_curve bind their arguments by these names
BOUND_BY_NAME = ("method", "node", "families", "datasets", "alpha", "B", "C", "seed",
                 "paper_literal_aux")


def global_loads(source: str, function: str) -> set:
    """Names the module-level ``function`` reads without binding them itself."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    args = fn.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    loads = {node.id for node in ast.walk(fn)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return loads - bound


def test_seam_guard_sees_local_bindings():
    source = ("def f(a, *, b=None):\n"
              "    from .x import g\n"
              "    h = k\n"
              "    return g(a) + h(b) + m()\n")
    assert global_loads(source, "f") == {"k", "m"}


def test_simulation_looks_up_its_callees_as_globals():
    source = (PACKAGE / "simulation.py").read_text()
    missing = {fn: names - global_loads(source, fn) for fn, names in SEAM.items()}
    assert {fn: names for fn, names in missing.items() if names} == {}


def test_dispatchers_keep_the_argument_names_the_benchmark_binds():
    from relbound import simulation

    for fn, when in ((simulation.compute_lcl, "t"), (simulation.lcl_curve, "t_grid")):
        names = set(inspect.signature(fn).parameters)
        assert set(BOUND_BY_NAME) | {when} <= names, fn.__name__


def reexports(source: str) -> dict:
    """Module name -> the names the package ``__init__`` imports from it."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_reexport_guard_sees_imports():
    source = "from .a import x, y\nfrom .b import z\nfrom .a import w\nimport os\n"
    assert reexports(source) == {"a": {"x", "y", "w"}, "b": {"z"}}


def test_every_reexport_is_in_its_modules_all():
    # a name deleted from a module must not linger as a package export
    import importlib

    found = reexports((PACKAGE / "__init__.py").read_text())
    missing = {module: names - set(importlib.import_module(f"relbound.{module}").__all__)
               for module, names in found.items()}
    assert {module: names for module, names in missing.items() if names} == {}
