"""The package's public surface: every export resolves, and every name the
package root re-exports is public in its module."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ringcoding

MODULES = sorted(m.name for m in pkgutil.iter_modules(ringcoding.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    """What ``from ringcoding.<module> import *`` needs: each name in
    ``__all__`` is an attribute of the module."""
    module = importlib.import_module(f"ringcoding.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_root_imports_are_module_exports():
    """Each public name the package root imports from a module is listed
    in that module's ``__all__``."""
    tree = ast.parse(Path(ringcoding.__file__).read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"ringcoding.{node.module}")
            unlisted += [f"{node.module}.{a.name}" for a in node.names
                         if not a.name.startswith("_") and a.name not in module.__all__]
    assert unlisted == []
