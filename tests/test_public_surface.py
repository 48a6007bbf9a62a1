"""Every exported name exists: each module's __all__ and every name
the package __init__ imports from its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qlct2d

MODULES = sorted(m.name for m in pkgutil.iter_modules(qlct2d.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"qlct2d.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_imports_exist():
    tree = ast.parse(Path(qlct2d.__file__).read_text())
    imported = [(node.module, alias)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    missing = [f"{mod}.{a.name}" for mod, a in imported
               if not hasattr(importlib.import_module(f"qlct2d.{mod}"), a.name)
               or not hasattr(qlct2d, a.asname or a.name)]
    assert missing == []
