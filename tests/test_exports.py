"""Every exported name resolves, and importing otflow stays light.

Each otflow module's __all__ and every name the package root imports must
name a real attribute, so a deleted symbol cannot linger as a stale export.
Builds, verifications, a pathology probe and a ray-reduction verification
load no scipy module at all, neither at import nor lazily.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


_FOOTPRINT_SCRIPT = """
import sys, warnings
warnings.simplefilter("ignore")
import otflow
from otflow.flow import verify_transport
from otflow.pathology import build_counterexample, probe_non_integrability
from otflow.registry import get_example
from otflow.measures import Gaussian, Uniform
from otflow.sudakov import ProductMeasure, assemble_field, decompose, verify_nd
for name in ("accumulating-c1", "gaussian"):
    ex = get_example(name)
    verify_transport(ex.build(), ex.m0, ex.m1)
probe_non_integrability(build_counterexample("quadratic"), levels=(10,))
fam = decompose(ProductMeasure((Uniform(0.0, 1.0), Gaussian(0.0, 1.0))),
                ProductMeasure((Uniform(0.0, 1.0), Gaussian(1.0, 2.0))))
verify_nd(assemble_field(fam), n_samples=2000)
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_import_and_solve_load_no_heavy_scipy():
    src = str(Path(otflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    loaded = done.stdout.split()
    assert not loaded, loaded
