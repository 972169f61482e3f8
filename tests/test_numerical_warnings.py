"""Numerical hygiene: the registry builds and the divergence probe raise no
RuntimeWarning.

Overflow and 0/0 in the flat exp(-1/x) envelopes are handled under local
errstate guards; a guard that goes missing shows up here as an error.
"""

import warnings

import pytest

from otflow.pathology import build_counterexample, probe_non_integrability
from otflow.registry import example_names, get_example


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
