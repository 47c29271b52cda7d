"""The package's public names agree with each module's __all__."""

import ast
import importlib
from pathlib import Path

import hstar_lab


def package_imports() -> list[tuple[str, list[str]]]:
    """(module, names) for each `from .module import names` in __init__.py."""
    tree = ast.parse(Path(hstar_lab.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, [alias.name for alias in node.names])
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def test_package_imports_from_every_library_module():
    assert {module for module, _ in package_imports()} == {
        "coeffcore",
        "dosp",
        "enumeration",
        "hstar",
        "oracle",
        "sieve",
        "spec",
    }


def test_every_public_name_has_one_home():
    # a name moved between modules must leave the old module's __all__
    homes: dict[str, list[str]] = {}
    for module_name, _ in package_imports():
        for name in importlib.import_module(f"hstar_lab.{module_name}").__all__:
            homes.setdefault(name, []).append(module_name)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def test_every_all_name_exists():
    for module_name, _ in package_imports():
        module = importlib.import_module(f"hstar_lab.{module_name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module_name, missing)


def test_package_exports_only_all_names():
    for module_name, names in package_imports():
        module = importlib.import_module(f"hstar_lab.{module_name}")
        stray = [n for n in names if not n.startswith("_") and n not in module.__all__]
        assert not stray, (module_name, stray)
