"""The three methods agree as independent checks only while they share no
core arithmetic.  Each method's transitive import closure within hstar_lab
is read off the source with ast, and any two closures may meet only in spec,
the leaf module that holds the slice, its h*-vector, the frozen record
base and the argument rule."""

import ast
from itertools import combinations
from pathlib import Path

import hstar_lab

SOURCES = Path(hstar_lab.__file__).resolve().parent


def imported_modules(source: str) -> set[str]:
    """The hstar_lab modules that a module of the package imports, at any
    depth of its syntax tree, relative or absolute: the first name under
    hstar_lab of each imported module and of each name imported from one."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level <= 1:
            base = ".".join(filter(None, ("hstar_lab", node.module))) if node.level else node.module
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("hstar_lab.")}


def sibling_imports(module: str) -> set[str]:
    """The modules of hstar_lab that the given one imports."""
    source = (SOURCES / f"{module}.py").read_text(encoding="utf-8")
    return imported_modules(source) & {path.stem for path in SOURCES.glob("*.py")}


def closure(module: str) -> set[str]:
    """The module and every hstar_lab module it reaches by imports."""
    seen, todo = set(), [module]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo.extend(sibling_imports(current))
    return seen


def test_imports_are_read_in_every_form():
    # a form the reader missed would make a closure look smaller than it is
    source = """
from .a import x
from . import b
import hstar_lab.c
import hstar_lab.c2.inner as alias
from hstar_lab.d import y
from hstar_lab import e
import os, json
from collections import OrderedDict
from ..outside import z

def f():
    from .g import h
"""
    assert imported_modules(source) == {"a", "b", "c", "c2", "d", "e", "g"}
    assert sibling_imports("__main__") == {"cli"}


def test_method_closures_meet_only_in_spec():
    closures = {
        "formula": closure("hstar"),
        "oracle": closure("oracle"),
        "enum": closure("enumeration"),
    }
    assert closures == {
        "formula": {"hstar", "coeffcore", "spec"},
        "oracle": {"oracle", "spec"},
        "enum": {"enumeration", "dosp", "spec"},
    }
    for (a, left), (b, right) in combinations(closures.items(), 2):
        assert left & right == {"spec"}, (a, b, left & right)
    assert sibling_imports("spec") == set()
