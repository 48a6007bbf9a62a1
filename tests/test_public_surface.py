"""Every exported name exists and earns its place: each module's __all__
and every name the package __init__ imports from its modules, each
with a caller in the package or an example in the README, which runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qlct2d

MODULES = sorted(m.name for m in pkgutil.iter_modules(qlct2d.__path__))
SRC = Path(qlct2d.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# exported names with no caller in the package or the README, kept for
# the reason given
UNCALLED = {
    "sample": "perfbench's tracer looks it up",
    "kernel_j": "the scalar-sum oracles' reference axis-2 kernel",
    "K": "a basis element, like ONE, I and J",
    "isclose": "the documented tolerance test of quaternion.py",
}


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


def _package_uses() -> set[tuple[str, str]]:
    """(module, name) for each module-level name the package reads
    somewhere other than its own def or class: in its own module, or in
    a module that imports it.  __all__ entries, imports and docstrings
    are strings or import aliases, not reads, so they do not count."""
    uses = set()
    for path in SRC.glob("*.py"):
        home, tree = path.stem, ast.parse(path.read_text())
        # local name -> (module, name) it refers to
        scope = {alias.asname or alias.name: (node.module, alias.name)
                 for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names}
        own = {id(n): d.name for d in tree.body
               if isinstance(d, (ast.FunctionDef, ast.ClassDef))
               for n in ast.walk(d)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                target = scope.get(n.id, (home, n.id))
                if target != (home, own.get(id(n))):
                    uses.add(target)
    return uses


def _readme_code() -> str:
    """The README's inline code spans and fenced Python blocks."""
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text,
                                               flags=re.S))
    return "\n".join(blocks + spans)


def test_every_exported_name_has_a_caller():
    uses, readme = _package_uses(), _readme_code()
    uncalled = [f"{name}.{n}" for name in MODULES
                for n in importlib.import_module(f"qlct2d.{name}").__all__
                if (name, n) not in uses and n not in UNCALLED
                and not re.search(rf"\b{re.escape(n)}\b", readme)]
    assert uncalled == []


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["back"].values.shape == (257, 257, 4)
