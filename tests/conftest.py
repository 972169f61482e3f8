"""Shared fixtures.  Expensive builds happen once per session and are reused.

Every fixture is deterministic: fixed example parameters, fixed seeds, no
wall-clock dependence.  Tests that need to measure runtime build their own
objects instead of using these.
"""

import tracemalloc
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import settings

from otflow.monotone import map_from_callables
from otflow.pathology import (build_counterexample, probe_non_integrability,
                              probe_velocity_growth)
from otflow.registry import get_example
from otflow.sudakov import BallMeasure, assemble_field, decompose, verify_nd

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 results do not depend on earlier runs.
settings.register_profile("otflow", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("otflow")


def _built(name):
    ex = get_example(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = ex.build()
    return ex, field


@pytest.fixture(scope="session")
def affine_built():
    """The uniform-to-uniform slope-3 problem with its built field."""
    return _built("affine")


@pytest.fixture(scope="session")
def gaussian_built():
    """The standard normal to N(1, 4) problem with its built field."""
    return _built("gaussian")


@pytest.fixture(scope="session")
def bad_fixed_point_built():
    """The indeterminate-fixed-point problem with its built field."""
    return _built("bad-fixed-point")


@pytest.fixture(scope="session")
def accumulating_c1_built():
    """The oscillatory map with fixed points at 1/n, cubic envelope."""
    return _built("accumulating-c1")


@pytest.fixture(scope="session")
def accumulating_cinf_built():
    """The oscillatory map with fixed points at 1/n, flat envelope."""
    return _built("accumulating-cinf")


@pytest.fixture(scope="session")
def quadratic_probe():
    """Counterexample map (quadratic gap sequence) with its growth scan."""
    cmap = build_counterexample("quadratic")
    return cmap, probe_velocity_growth(cmap)


@pytest.fixture(scope="session")
def log_squared_probe():
    """Counterexample map (log-squared gaps) with its divergence table."""
    cmap = build_counterexample("log_squared")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dive = probe_non_integrability(cmap)
    return cmap, dive


@pytest.fixture(scope="session")
def radial_disks():
    """Concentric disks radius 1 -> 2: family, assembled field, report."""
    m0 = BallMeasure((0.0, 0.0), 1.0)
    m1 = BallMeasure((0.0, 0.0), 2.0)
    family = decompose(m0, m1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field_nd = assemble_field(family)
        report = verify_nd(field_nd, n_samples=10000, n_rays=64)
    return family, field_nd, report


@pytest.fixture
def counted_map():
    """counted_map(T) -> (map, calls): T with its forward, jet and inverse
    wrapped by call counters.

    calls counts "forward", "jet" and "inverse" calls made from outside the
    map, and "inverse forward" and "inverse jet" made inside inverse.  A map
    whose inverse is the shared Newton solve (newton_domain set) is rebuilt
    by map_from_callables on the counted forward and jet, so the solve's
    calls are counted and its bits and newton_domain stay; the forward call
    of that rebuild, which finds the image ends, is not counted.
    """
    def wrap(T):
        calls = Counter()
        inside = []

        def counted(name, f):
            def call(*args):
                calls[("inverse " if inside else "") + name] += 1
                return f(*args)
            return call

        forward, jet = counted("forward", T.forward), counted("jet", T.jet)
        if T.newton_domain is None:
            base = replace(T, forward=forward, jet=jet)
        else:
            base = map_from_callables(forward, jet, domain=T.newton_domain,
                                      source=T.source, target=T.target)
            calls.clear()

        def inverse(y):
            calls["inverse"] += 1
            inside.append(y)
            try:
                return base.inverse(y)
            finally:
                inside.pop()

        return replace(base, inverse=inverse), calls
    return wrap


@pytest.fixture
def peak_traced():
    """peak_traced() -> a context that traces Python and numpy allocations
    (tracemalloc) over its block and yields a record: after the block,
    record.peak is the most memory the block held above its start and
    record.held what it still holds at the end, in bytes."""
    @contextmanager
    def traced():
        record = SimpleNamespace(peak=0, held=0)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield record
            current, peak = tracemalloc.get_traced_memory()
            record.peak, record.held = peak - start, current - start
        finally:
            if started:
                tracemalloc.stop()
    return traced
