"""Every imported name in the package and its tests is read somewhere in its module,
and every function or class a package module exports is read somewhere in ``src/``.

The scan is static: a module's AST lists the names each import binds, and
every name the module loads, including names inside string annotations.
For exports, a name loaded or read as an attribute counts, except inside
the definition of that name.

Each public name has one import path, its defining module: the package
binds no name but its modules, which the import system binds as they
load, so ``superharrison.X`` is always the module ``X``.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import superharrison
from superharrison.algebras import exterior_algebra, self_module
from superharrison.cohomology import Complex, ComplexKind, cohomology

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "superharrison").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, with those in string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in _imported(tree).items() if name not in _read(tree)}
    assert not unused, f"{path.name} imports names it never reads: " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items(), key=lambda item: item[1])
    )


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from typing import Iterable, Optional\nx: 'Optional[int]' = None\n")
    assert set(_imported(tree)) - _read(tree) == {"Iterable"}


def test_the_package_binds_no_name_but_its_modules():
    bound = {name: value for name, value in vars(superharrison).items() if not name.startswith("__")}
    assert [name for name, value in bound.items() if not isinstance(value, types.ModuleType)] == []


def test_a_module_path_binds_the_module():
    import superharrison.cohomology as m

    assert isinstance(m, types.ModuleType) and m.Complex is Complex


def test_a_patch_by_module_path_reaches_the_module(monkeypatch):
    def refused(cx, degree):
        raise LookupError("patched")

    monkeypatch.setattr("superharrison.cohomology.coboundary_matrix", refused)
    with pytest.raises(LookupError, match="patched"):
        cohomology(Complex(self_module(exterior_algebra(1)), ComplexKind.HOCHSCHILD), 0)


def _exported_definitions(tree: ast.Module) -> set[str]:
    """The functions and classes that a module defines and names in its ``__all__``."""
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            listed = {elt.value for elt in node.value.elts}
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return listed & defined


def _read_outside_own_definition(tree: ast.Module) -> set[str]:
    """Each name loaded, or read as an attribute, outside the top-level definition of that name."""
    names = set()
    for statement in tree.body:
        here = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                here.add(node.attr)
        names |= here - {getattr(statement, "name", None)}
    return names


def test_every_export_is_read_in_src():
    # A function or class in a module's __all__ that nothing in src/ reads
    # is dead public API; the tests keep their own helpers in conftest.py.
    package = sorted((ROOT / "src" / "superharrison").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package}
    read = set().union(*map(_read_outside_own_definition, trees.values()))
    unread = sorted(
        f"{name[:-3]}.{export}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for export in _exported_definitions(tree) - read
    )
    assert not unread, "exported but never read in src/: " + ", ".join(unread)


def test_the_export_scan_ignores_a_definitions_own_reads():
    tree = ast.parse("__all__ = ['f', 'g', 'N']\nN = 1\ndef f(n):\n    return f(n - N)\ndef g():\n    return f\n")
    assert _exported_definitions(tree) - _read_outside_own_definition(tree) == {"g"}
