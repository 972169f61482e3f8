"""Monotone map computation and fixed point detection.

The quantile-composition route has exact closed forms for uniform and normal
pairs; those serve as oracles here.  Fixed point structure is checked on maps
whose fixed sets are known by construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given

from otflow.config import DEFAULT_CONFIG
from otflow.errors import InputError, InvalidMapError
from otflow.measures import AffineImage, Gaussian, PiecewiseDensity, Uniform
from otflow.monotone import (compute_monotone_map, find_fixed_points,
                             map_from_callables)
from otflow.pathology import build_counterexample
from otflow.registry import get_example
from otflow.sudakov import RadiusLaw
from test_distances import pl_densities

TOL_MAP = 1e-10
TOL_DERIV = 1e-7
TOL_FP = 1e-8


class TestComputeMonotoneMap:
    """Quantile-of-CDF composition against closed forms."""

    def test_uniform_pair_affine(self):
        T = compute_monotone_map(Uniform(1.0, 2.0), Uniform(0.0, 3.0))
        xs = np.linspace(1.0, 2.0, 1001)
        assert np.max(np.abs(T.forward(xs) - (3.0 * xs - 3.0))) <= TOL_MAP
        assert np.max(np.abs(T.derivative(xs) - 3.0)) <= 1e-8

    def test_gaussian_pair_affine(self):
        T = compute_monotone_map(Gaussian(0.0, 1.0), Gaussian(1.0, 2.0))
        xs = np.linspace(-3.0, 3.0, 601)
        assert np.max(np.abs(T.forward(xs) - (2.0 * xs + 1.0))) <= 1e-9
        assert np.max(np.abs(T.derivative(xs) - 2.0)) <= TOL_DERIV

    def test_inverse_roundtrip(self):
        T = compute_monotone_map(Uniform(0.0, 2.0), Gaussian(0.0, 1.0))
        xs = np.linspace(0.05, 1.95, 77)
        assert np.max(np.abs(T.inverse(T.forward(xs)) - xs)) <= 1e-9

    def test_source_target_attached(self):
        m0, m1 = Uniform(0.0, 1.0), Uniform(2.0, 4.0)
        T = compute_monotone_map(m0, m1)
        assert T.source is m0 and T.target is m1

    def test_affine_image_target(self):
        m0 = Uniform(1.0, 2.0)
        T = compute_monotone_map(m0, AffineImage(m0, 1.0 / 3.0, -3.0))
        xs = np.linspace(1.0, 2.0, 101)
        assert np.max(np.abs(T.forward(xs) - (3.0 * xs - 3.0))) <= TOL_MAP

    def test_monotone_on_random_pairs(self):
        T = compute_monotone_map(Gaussian(0.0, 1.0),
                                 AffineImage(Uniform(0.0, 1.0), 0.5, 1.0))
        rng = np.random.default_rng(20260823)
        a = rng.uniform(-3.0, 3.0, 4000)
        b = a + rng.uniform(1e-9, 1.0, 4000)
        assert np.all(np.asarray(T.forward(b)) >= np.asarray(T.forward(a)))


def _reference_jet(m0, m1, forward, x):
    """(T, T', T'') of the quantile map, written out from the measures:
    T from forward; T' = pdf0(x) / pdf1(T(x)), by a central difference of
    forward (step 1e-7 of the source's 1e-10 window, clipped to a finite
    support) where that ratio is not finite; T'' = (pdf0'(x) - T'^2
    pdf1'(T(x))) / pdf1(T(x)), NaN where pdf1(T(x)) = 0."""
    y = forward(x)
    p0, p1 = m0.pdf(x), m1.pdf(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        tp = np.where(p1 > 0.0, p0 / np.where(p1 > 0.0, p1, 1.0), np.nan)
    lo, hi = m0.support
    w_lo, w_hi = m0.window(1e-10)
    h = max(1e-7 * (w_hi - w_lo), 1e-12)
    for k in np.flatnonzero(~np.isfinite(tp)):
        a = max(x[k] - h, lo) if math.isfinite(lo) else x[k] - h
        b = min(x[k] + h, hi) if math.isfinite(hi) else x[k] + h
        tp[k] = (forward(np.array([b]))[0] - forward(np.array([a]))[0]) / (b - a)
    num = m0.pdf_derivative(x) - tp * tp * m1.pdf_derivative(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        tpp = np.where(p1 != 0.0, num / np.where(p1 != 0.0, p1, 1.0), np.nan)
    return y, tp, tpp


def _assert_jet_is_reference(m0, m1, xs):
    T = compute_monotone_map(m0, m1)
    got = T.jet(xs)
    want = _reference_jet(m0, m1, T.forward, xs)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert np.asarray(T.forward(xs)).tobytes() == got[0].tobytes()
    # scalars get the bits of the array entries
    for k in (0, xs.size // 2, xs.size - 1):
        assert all(np.float64(s).tobytes() == a[k].tobytes()
                   for s, a in zip(T.jet(float(xs[k])), got))


class TestQuantileJet:
    """The fused jet of the quantile map against a reference written from
    the measures, bitwise, inside and outside the source support."""

    @given(pl_densities(), pl_densities())
    def test_random_piecewise_linear_pairs(self, m0, m1):
        lo, hi = m0.support
        xs = np.concatenate((np.linspace(lo - 0.5, hi + 0.5, 101), m0.x))
        _assert_jet_is_reference(m0, m1, xs)

    @pytest.mark.parametrize("m0,m1,xs", [
        (Gaussian(0.0, 1.0), Gaussian(1.0, 2.0), np.linspace(-40.0, 40.0, 161)),
        (Uniform(1.0, 2.0), AffineImage(Uniform(1.0, 2.0), 1.0 / 3.0, -3.0),
         np.linspace(0.0, 3.0, 121)),
        (RadiusLaw(2, 1.0), RadiusLaw(2, 2.0), np.linspace(-0.5, 1.5, 81)),
        # beyond |x| = 38 the target density at T(x) underflows to 0, so T'
        # takes the finite difference fallback
        (Gaussian(0.0, 1.0), Gaussian(0.0, 1e30), np.linspace(-45.0, 45.0, 91)),
    ], ids=["gaussian", "affine", "radius", "underflow"])
    def test_analytic_pairs(self, m0, m1, xs):
        _assert_jet_is_reference(m0, m1, xs)


def _cubic_jet(x):
    x = np.asarray(x, dtype=float)
    return x ** 3 + x, 3.0 * x * x + 1.0, 6.0 * x


class TestMapFromCallables:
    """Wrapping closed-form callables: the jet as given, and the shared
    Newton inverse where no inverse is."""

    def test_numeric_inverse(self):
        T = map_from_callables(lambda x: _cubic_jet(x)[0], _cubic_jet,
                               source=Uniform(0.5, 2.0), domain=(0.5, 2.0))
        ys = np.asarray(T.forward(np.linspace(0.6, 1.9, 13)))
        xs = np.asarray(T.inverse(ys))
        assert np.max(np.abs(xs ** 3 + xs - ys)) <= 1e-10

    def test_given_jet_is_used_as_is(self):
        def jet(x):
            x = np.asarray(x, dtype=float)
            return 2.0 * x, np.full_like(x, 2.0), np.zeros_like(x)

        T = map_from_callables(lambda x: 2.0 * np.asarray(x, dtype=float),
                               jet, domain=(-1.0, 1.0))
        assert T.jet is jet
        assert float(T.derivative(0.3)) == 2.0
        assert np.max(np.abs(T.inverse(np.array([-1.5, 0.2, 1.9]))
                             - np.array([-0.75, 0.1, 0.95]))) <= 1e-15

    def test_decreasing_callable_rejected_at_build(self):
        from otflow.errors import TransportError
        from otflow.velocity import build_velocity

        def jet(x):
            x = np.asarray(x, dtype=float)
            return -x, np.full_like(x, -1.0), np.zeros_like(x)

        T = map_from_callables(lambda x: -np.asarray(x, dtype=float), jet,
                               domain=(0.0, 1.0))
        with pytest.raises(TransportError):
            build_velocity(transport_map=T, domain=(0.0, 1.0))


class TestFindFixedPoints:
    """Partition structure on maps with known fixed sets."""

    def test_single_interior_fixed_point(self):
        T = compute_monotone_map(Uniform(1.0, 2.0), Uniform(0.0, 3.0))
        part = find_fixed_points(T, domain=(0.0, 3.0), search=(1.0, 2.0))
        fps = part.fixed_points
        assert len(fps) >= 1
        assert min(abs(p - 1.5) for p in fps) <= TOL_FP

    def test_identity_is_all_fixed(self):
        m = Uniform(0.0, 1.0)
        T = compute_monotone_map(m, Uniform(0.0, 1.0))
        part = find_fixed_points(T, domain=(0.0, 1.0))
        assert not part.moving_intervals
        total = sum(b - a for a, b in part.fixed_intervals)
        assert abs(total - 1.0) <= 1e-6

    def test_two_endpoint_fixed_points(self):
        def jet(x):
            x = np.asarray(x, dtype=float)
            return x + 0.1 * x * (1.0 - x), 1.0 + 0.1 - 0.2 * x, np.full_like(x, -0.2)

        T = map_from_callables(lambda x: jet(x)[0], jet,
                               source=Uniform(0.0, 1.0), domain=(0.0, 1.0))
        part = find_fixed_points(T, domain=(0.0, 1.0))
        fps = sorted(part.fixed_points)
        assert abs(fps[0] - 0.0) <= TOL_FP and abs(fps[-1] - 1.0) <= TOL_FP
        assert len(part.moving_intervals) == 1
        itv = part.moving_intervals[0]
        assert itv.direction == 1 and itv.lo_is_fixed and itv.hi_is_fixed

    def test_cubic_touch_detected_as_plateau(self):
        def jet(x):
            x = np.asarray(x, dtype=float)
            return x + (x - 0.5) ** 3, 1.0 + 3.0 * (x - 0.5) ** 2, 6.0 * (x - 0.5)

        T = map_from_callables(lambda x: jet(x)[0], jet,
                               source=Uniform(0.0, 1.0), domain=(0.0, 1.0))
        part = find_fixed_points(T, domain=(0.0, 1.0))
        assert len(part.fixed_intervals) == 1
        a, b = part.fixed_intervals[0]
        assert a < 0.5 < b, "sub-resolution touch widens to a plateau"
        assert b - a < 5e-3
        dirs = sorted((i.lo, i.direction) for i in part.moving_intervals)
        assert [d for _, d in dirs] == [-1, 1], "cubic pushes away on both sides"

    def test_tangential_touch_flagged_indeterminate(self):
        # touch point 1/3 is never a dyadic scan node, so the tangency is
        # located by local minimization and carries slope exactly 1
        c = 1.0 / 3.0

        def jet(x):
            x = np.asarray(x, dtype=float)
            return x + (x - c) ** 2, 1.0 + 2.0 * (x - c), np.full_like(x, 2.0)

        T = map_from_callables(lambda x: jet(x)[0], jet, domain=(0.0, 1.0))
        part = find_fixed_points(T, domain=(0.0, 1.0))
        assert part.indeterminate, "a tangency with unit slope should be flagged"
        assert min(abs(p - c) for p in part.indeterminate) <= 1e-5

    def test_moving_and_fixed_cover_domain(self):
        T = compute_monotone_map(Uniform(0.0, 2.0), Uniform(0.5, 2.5))
        part = find_fixed_points(T, domain=(0.0, 2.5))
        pieces = ([tuple(t) for t in part.fixed_intervals]
                  + [(i.lo, i.hi) for i in part.moving_intervals])
        pieces.sort()
        assert abs(pieces[0][0] - 0.0) <= 1e-9
        assert abs(pieces[-1][1] - 2.5) <= 1e-9
        for (a, b), (c, d) in zip(pieces, pieces[1:]):
            assert b <= c + 1e-9, "pieces overlap"
            assert c - b <= 1e-6, f"gap between {b} and {c}"

    def test_partition_respects_config_tolerance(self):
        T = compute_monotone_map(Uniform(1.0, 2.0), Uniform(0.0, 3.0))
        cfg = DEFAULT_CONFIG.with_(fixed_point_grid=2 ** 10)
        part = find_fixed_points(T, domain=(0.0, 3.0), config=cfg,
                                 search=(1.0, 2.0))
        assert min(abs(p - 1.5) for p in part.fixed_points) <= 1e-6


def test_callable_newton_inverse_matches_fixed_steps():
    # the filled-in inverse takes the fixed six steps on the image; the
    # shared solve under it falls back on bisection past both ends and
    # passes NaN through
    from otflow.monotone import _newton_inverse
    from test_registry import _reference_newton

    def jet(x):
        return x + 0.4 * np.sin(x), 1.0 + 0.4 * np.cos(x), -0.4 * np.sin(x)

    T = map_from_callables(lambda x: x + 0.4 * np.sin(x), jet, domain=(-4.0, 4.0))
    ys = T.forward(np.linspace(-4.0, 4.0, 2001))
    got = T.inverse(ys)
    want = _reference_newton(T.forward, T.derivative, ys, -4.0, 4.0)
    assert got.tobytes() == want.tobytes()
    assert np.max(np.abs(T.forward(got) - ys)) <= 1e-15
    assert float(T.inverse(float(ys[7]))) == got[7]
    past = np.array([-5.0, 5.0, np.nan])
    got = _newton_inverse(T.forward, lambda x: T.jet(x)[:2], past, -4.0, 4.0)
    want = _reference_newton(T.forward, T.derivative, past, -4.0, 4.0)
    assert got.tobytes() == want.tobytes() and np.isnan(got[-1])


# every kind of map the program builds, with the domain it is checked on
_PROGRAM_MAPS = {
    "bad-fixed-point": (lambda: get_example("bad-fixed-point").transport_map,
                        (0.0, 2.0)),
    "accumulating-c1": (lambda: get_example("accumulating-c1").transport_map,
                        (0.0, 1.0)),
    "accumulating-cinf": (lambda: get_example("accumulating-cinf").transport_map,
                          (0.0, 1.0)),
    "counterexample-quadratic": (
        lambda: build_counterexample("quadratic").to_monotone_map(), (0.0, 1.0)),
    "counterexample-log_squared": (
        lambda: build_counterexample("log_squared").to_monotone_map(), (0.0, 1.0)),
    "quantile-gaussian": (
        lambda: compute_monotone_map(Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)),
        (-6.0, 6.0)),
    "quantile-linear": (
        lambda: compute_monotone_map(Uniform(0.0, 1.0), PiecewiseDensity(
            np.array([0.0, 1.0]), np.array([0.5, 1.5]))), (0.0, 1.0)),
}


@pytest.mark.parametrize("name", list(_PROGRAM_MAPS))
def test_map_contract(name):
    # jet(x)[0] is bitwise forward(x), and inverse undoes forward to
    # roundoff: within 2 ulp where it is the shared Newton solve, which
    # refuses values just outside the image of its bracket
    build, (lo, hi) = _PROGRAM_MAPS[name]
    T = build()
    xs = np.linspace(lo, hi, 4097)
    ys = np.asarray(T.forward(xs), dtype=float)
    assert np.asarray(T.jet(xs)[0], dtype=float).tobytes() == ys.tobytes()
    err = np.abs(np.asarray(T.inverse(ys), dtype=float) - xs)
    assert np.max(err) <= 1e-14 * (hi - lo)
    if T.newton_domain is not None:
        assert np.all(err <= 2.0 * np.spacing(np.abs(xs)))
        a, b = np.asarray(T.forward(np.array(T.newton_domain)), dtype=float)
        for y in (np.nextafter(a, -np.inf), np.nextafter(b, np.inf)):
            with pytest.raises(InputError):
                T.inverse(y)
