"""Every exported name resolves.

Each otflow module's __all__ and every name the package root imports must
name a real attribute, so a deleted symbol cannot linger as a stale export.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import otflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(otflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"otflow.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"otflow.{name}.__all__ lists {missing}"


def test_package_root_imports_resolve():
    tree = ast.parse(Path(otflow.__file__).read_text())
    names = [a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names, "the package root re-exports its public names"
    missing = [n for n in names if not hasattr(otflow, n)]
    assert not missing, f"otflow does not provide {missing}"
