"""Numerical hygiene: the registry builds and the divergence probe raise no
RuntimeWarning, and verification raises no warning at all.

Overflow and 0/0 in the flat exp(-1/x) envelopes are handled under local
errstate guards; a guard that goes missing shows up here as an error.  The
verification distances and travel times use fixed-order rules, so neither
they nor the CLI runs that print them have any warning to give, and
otflow does not import scipy.integrate.
"""

import os
import subprocess
import sys
import warnings

import pytest

import otflow
from otflow.flow import verify_transport
from otflow.pathology import build_counterexample, probe_non_integrability
from otflow.registry import example_names, get_example
from otflow.sudakov import verify_nd

SRC = os.path.dirname(os.path.dirname(otflow.__file__))


@pytest.mark.parametrize("name", example_names())
def test_registry_build_is_clean(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        get_example(name).build()


@pytest.mark.parametrize("variant", ["quadratic", "log_squared"])
def test_divergence_probe_is_clean(variant):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        probe_non_integrability(build_counterexample(variant))


@pytest.mark.parametrize("name", example_names())
def test_verify_transport_is_silent(name, request):
    ex, field = request.getfixturevalue(f"{name.replace('-', '_')}_built")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify_transport(field, ex.m0, ex.m1)


def test_verify_nd_is_silent(radial_disks):
    _, field_nd, _ = radial_disks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify_nd(field_nd, n_samples=10000, n_rays=64)


def test_cli_examples_print_nothing_and_skip_scipy_integrate(tmp_path):
    """One interpreter imports otflow, runs three examples through the CLI,
    and reports whether scipy.integrate was ever loaded."""
    script = (
        "import sys\n"
        "import otflow\n"
        "from otflow.cli import main\n"
        "def loaded():\n"
        "    return any(m == 'scipy.integrate' or m.startswith('scipy.integrate.')\n"
        "               for m in sys.modules)\n"
        "print(loaded())\n"
        "for name in ('affine', 'gaussian', 'bad-fixed-point'):\n"
        "    print(main(['example', name, '--out', sys.argv[1] + '/' + name]))\n"
        "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout.split() == ["False", "0", "0", "0", "False"]
