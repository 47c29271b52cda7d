"""The package's public surface is one list: each library module's __all__.

__init__.py star-imports the library modules, so a module's __all__ is what
the package exports; these tests keep each __all__ equal to what its module
defines and the lists disjoint.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import hstar_lab

LIBRARY = ["coeffcore", "dosp", "enumeration", "hstar", "oracle", "sieve", "spec"]


def tree_of(path: str) -> ast.Module:
    return ast.parse(Path(path).read_text(encoding="utf-8"))


def library_modules() -> list[ModuleType]:
    return [importlib.import_module(f"hstar_lab.{name}") for name in LIBRARY]


def public_definitions(module: ModuleType) -> list[str]:
    """The def, class and assigned names at the top level of the module's
    source, without a leading underscore."""
    names = []
    for node in tree_of(module.__file__).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_package_imports_from_every_library_module():
    imports = [
        (node.level, node.module, [alias.name for alias in node.names])
        for node in tree_of(hstar_lab.__file__).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == [(1, name, ["*"]) for name in LIBRARY]


def test_every_all_lists_its_public_definitions():
    for module in library_modules():
        assert sorted(module.__all__) == sorted(public_definitions(module)), module.__name__


def test_every_public_name_has_one_home():
    # a star import would let the later module's name shadow the earlier one
    homes: dict[str, list[str]] = {}
    for module in library_modules():
        for name in module.__all__:
            homes.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def test_every_all_name_exists():
    for module in library_modules():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_exports_exactly_the_all_names_and_submodules():
    public = {name for name in vars(hstar_lab) if not name.startswith("_")}
    submodules = {
        name
        for name in public
        if getattr(getattr(hstar_lab, name), "__name__", None) == f"hstar_lab.{name}"
    }
    assert set(LIBRARY) <= submodules
    assert public - submodules == {name for m in library_modules() for name in m.__all__}
