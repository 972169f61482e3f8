"""Flow engine: trajectories, pushforward, verification battery.

The independent oracle here is a fine-step fourth-order Runge-Kutta walk of
dx/dt = v(x) written inline, plus the universal fact that the time-1 flow of a
correctly built field must reproduce the transport map itself.
"""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from otflow.errors import InputError, TransportError
from otflow.flow import (_osgood_rows, _segment_time, flow, push_measure,
                         verify_transport)
from otflow.measures import Gaussian, Uniform, wasserstein1
from otflow.registry import example_names, get_example
from otflow.velocity import SEED_KINDS, build_velocity
from test_distances import pl_densities
from test_velocity import sudakov_pairs_that_build

TOL_TIME_ONE = 1e-6
TOL_RK4 = 1e-6
TOL_SEMIGROUP = 1e-6

RNG_SEED = 424242


def _rk4(field, t_final, x0, steps=2000):
    """Classical fixed-step integration of the autonomous field."""
    x = np.array(x0, dtype=float)
    h = t_final / steps
    for _ in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


class TestFlowBasics:
    """Identities every flow must satisfy regardless of the example."""

    def test_time_zero_is_identity(self, gaussian_built):
        _, field = gaussian_built
        xs = np.linspace(-2.5, 2.5, 101)
        # t = 0 still routes through the clock and its inverse, so demand
        # agreement only to roundoff, not bitwise
        out = flow(field, 0.0, xs)
        good = np.isfinite(out)
        assert good.sum() >= 99
        assert np.max(np.abs(out[good] - xs[good])) <= 1e-8

    def test_fixed_points_stay_put(self, affine_built):
        _, field = affine_built
        for a, b in field.partition.fixed_intervals:
            mid = np.array([0.5 * (a + b)])
            assert flow(field, 0.7, mid)[0] == mid[0]

    def test_outside_domain_stays_put(self, affine_built):
        _, field = affine_built
        out = flow(field, 0.5, np.array([-5.0, 17.0]))
        assert np.array_equal(out, np.array([-5.0, 17.0]))

    def test_unbuilt_interval_is_nan(self):
        # raising the resolution floor forces the short branch below the
        # fixed point to come back unbuilt, and the flow must refuse it
        from otflow.config import DEFAULT_CONFIG
        from otflow.velocity import build_velocity
        from otflow.measures import AffineImage
        m0 = Uniform(1.0, 2.0)
        m1 = AffineImage(m0, 1.0 / 3.0, -3.0)
        cfg = DEFAULT_CONFIG.with_(min_interval_rel=0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = build_velocity(m0, m1, config=cfg)
        assert len(field.unbuilt_intervals) >= 1
        lo, hi = field.unbuilt_intervals[0].lo, field.unbuilt_intervals[0].hi
        assert np.isnan(flow(field, 0.5, 0.5 * (lo + hi)))

    def test_scalar_input_scalar_output(self, affine_built):
        _, field = affine_built
        y = flow(field, 0.25, 1.25)
        assert np.ndim(y) == 0


class TestTimeOneIsTheMap:
    """phi(1, x) must equal T(x) on the source support."""

    def test_affine(self, affine_built):
        ex, field = affine_built
        xs = np.linspace(1.01, 1.99, 399)
        y = flow(field, 1.0, xs)
        good = np.isfinite(y)
        assert good.sum() >= 390
        expect = ex.closed["map"](xs)
        assert np.max(np.abs(y[good] - expect[good])) <= TOL_TIME_ONE

    def test_gaussian(self, gaussian_built):
        ex, field = gaussian_built
        xs = np.linspace(-2.8, 2.8, 311)
        y = flow(field, 1.0, xs)
        good = np.isfinite(y)
        assert good.sum() >= 300
        assert np.max(np.abs(y[good] - (2.0 * xs[good] + 1.0))) <= TOL_TIME_ONE

    def test_bad_fixed_point(self, bad_fixed_point_built):
        ex, field = bad_fixed_point_built
        zone_hi = max(z.hi for z in field.truncation_zones())
        xs = np.linspace(zone_hi + 1e-6, 1.99, 251)
        y = flow(field, 1.0, xs)
        good = np.isfinite(y)
        assert good.sum() >= 245
        expect = ex.closed["map"](xs)
        assert np.max(np.abs(y[good] - expect[good])) <= 1e-6


class TestAgainstRungeKutta:
    """Interior trajectories match a brute-force integrator."""

    def test_gaussian_intermediate_times(self, gaussian_built):
        _, field = gaussian_built
        xs = np.linspace(-1.5, 2.0, 41)
        for t in (0.3, 0.7):
            direct = flow(field, t, xs)
            brute = _rk4(field, t, xs)
            good = np.isfinite(direct) & np.isfinite(brute)
            assert good.sum() >= 38
            assert np.max(np.abs(direct - brute)[good]) <= TOL_RK4, f"t={t}"

    def test_affine_negative_time(self, affine_built):
        _, field = affine_built
        xs = np.linspace(0.4, 2.6, 31)
        fwd = flow(field, 0.6, xs)
        back = flow(field, -0.6, fwd)
        good = np.isfinite(back)
        assert np.max(np.abs(back[good] - xs[good])) <= 1e-8


class TestSemigroupAndOrder:
    """Composition in time and monotonicity in space."""

    def test_semigroup_random_pairs(self, gaussian_built):
        _, field = gaussian_built
        rng = np.random.default_rng(RNG_SEED)
        xs = rng.uniform(-2.5, 2.5, 500)
        s, t = 0.35, 0.45
        one = flow(field, s + t, xs)
        two = flow(field, t, flow(field, s, xs))
        good = np.isfinite(one) & np.isfinite(two)
        width = field.domain[1] - field.domain[0]
        assert np.max(np.abs(one - two)[good]) <= TOL_SEMIGROUP * max(width, 1.0)

    def test_monotone_in_x(self, affine_built):
        _, field = affine_built
        rng = np.random.default_rng(RNG_SEED)
        a = rng.uniform(1.0, 2.0, 2000)
        b = a + rng.uniform(1e-9, 0.5, 2000)
        ya, yb = flow(field, 1.0, a), flow(field, 1.0, np.minimum(b, 2.0))
        good = np.isfinite(ya) & np.isfinite(yb)
        assert np.all(yb[good] - ya[good] >= -1e-12)


_GROUP_FIELDS = ("affine_built", "gaussian_built", "bad_fixed_point_built",
                 "accumulating_c1_built", "accumulating_cinf_built",
                 "radial_disks")


def _session_field(request, name):
    """The 1D field of a session fixture (the shared ray field for disks)."""
    value = request.getfixturevalue(name)
    return value[1].field if name == "radial_disks" else value[1]


class TestExactGroup:
    """The flow inverts its own clock F, so it is a one-parameter group to
    roundoff: composition, inversion and the clock's unit speed."""

    @pytest.fixture(params=_GROUP_FIELDS)
    def field(self, request):
        return _session_field(request, request.param)

    @staticmethod
    def _points(field, rng):
        """Random points of the domain and of every truncation zone."""
        lo, hi = field.domain
        pts = [rng.uniform(lo, hi, 1000)]
        pts += [rng.uniform(z.lo, z.hi, 50) for z in field.truncation_zones()]
        return np.concatenate(pts)

    def test_composition_and_inverse(self, field):
        rng = np.random.default_rng(RNG_SEED)
        xs = self._points(field, rng)
        bound = 1e-13 * max(field.domain[1] - field.domain[0], 1.0)
        n_checked = 0
        for s, t in rng.uniform(-1.5, 1.5, (8, 2)):
            a = flow(field, s, flow(field, t, xs))
            b = flow(field, s + t, xs)
            ok = np.isfinite(a) & np.isfinite(b)
            assert np.max(np.abs(a - b)[ok], initial=0.0) <= bound, (s, t)
            back = flow(field, -t, flow(field, t, xs))
            ok = np.isfinite(back)
            assert np.max(np.abs(back - xs)[ok], initial=0.0) <= bound, t
            n_checked += int(np.count_nonzero(ok))
        assert n_checked >= 4 * xs.size

    def test_report_semigroup_at_roundoff(self, field):
        from otflow.flow import _semigroup_defect
        worst, n = _semigroup_defect(field)
        assert n > 0
        assert worst <= 1e-13 * max(field.domain[1] - field.domain[0], 1.0)

    def test_clock_advances_by_t(self, field):
        # one ulp of x moves F by ulp/|v|, which no inversion can beat, so
        # the bound carries that resolution term besides the relative one
        rng = np.random.default_rng(RNG_SEED)
        for f in field.built_intervals:
            xs = rng.uniform(f.built_lo, f.built_hi, 200)
            Fx = f.F_extended(xs)
            for t in rng.uniform(-1.5, 1.5, 4):
                y = flow(field, t, xs)
                inside = (y >= f.built_lo) & (y <= f.built_hi)
                Fy = f.F_extended(y[inside])
                resolution = 4.0 * np.spacing(np.abs(y[inside])) / np.abs(
                    f.evaluate(y[inside]))
                err = np.abs(Fy - Fx[inside] - t)
                assert np.all(err <= 1e-13 * (1.0 + np.abs(Fy)) + resolution), t


class TestPushMeasure:
    """Pushforward density against the closed-form image."""

    def test_gaussian_image(self, gaussian_built):
        ex, field = gaussian_built
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pr = push_measure(field, ex.m0, 1.0, n=4097)
            w = wasserstein1(pr.measure, Gaussian(1.0, 2.0))
        assert w <= 1e-5
        assert abs(pr.mass_defect) <= 1e-6

    def test_resolution_scaling(self, gaussian_built):
        ex, field = gaussian_built
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coarse = wasserstein1(
                push_measure(field, ex.m0, 1.0, n=1024).measure,
                Gaussian(1.0, 2.0))
            fine = wasserstein1(
                push_measure(field, ex.m0, 1.0, n=2048).measure,
                Gaussian(1.0, 2.0))
        assert fine <= 0.6 * coarse, (coarse, fine)

    def test_half_time_interpolates(self, affine_built):
        ex, field = affine_built
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pr = push_measure(field, ex.m0, 0.5, n=2049)
        # the half-time image of uniform [1, 2] under the slope-3 flow is
        # uniform on [phi(0.5, 1), phi(0.5, 2)]
        lo = 1.5 + np.sqrt(3.0) * (1.0 - 1.5)
        hi = 1.5 + np.sqrt(3.0) * (2.0 - 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = wasserstein1(pr.measure, Uniform(lo, hi))
        assert w <= 1e-5


    def test_degenerate_window_is_typed_error(self):
        # the source lies beyond the field's domain, so its window collapses
        field = get_example("affine").build()
        with pytest.raises(InputError) as err:
            push_measure(field, Uniform(10.0, 11.0))
        assert isinstance(err.value, TransportError)
        assert "degenerate push window" in str(err.value)


class TestVerifyTransport:
    """The bundled battery agrees with what the unit tests see."""

    def test_affine_report_passes(self, affine_built):
        ex, field = affine_built
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_transport(field, ex.m0, ex.m1)
        assert rep.passed
        assert rep.julia_max_rel <= 1e-8
        assert rep.monotonicity_violations == 0
        assert rep.semigroup_max_abs <= 1e-6 * 3.0

    def test_report_serializes(self, affine_built):
        import json
        ex, field = affine_built
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_transport(field, ex.m0, ex.m1)
        text = json.dumps(rep.to_dict())
        assert "julia_max_rel" in text and "schema_version" in text

    def test_osgood_rows_linear(self, affine_built):
        ex, field = affine_built
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify_transport(field, ex.m0, ex.m1)
        assert len(rep.osgood) >= 20
        for row in rep.osgood:
            assert abs(row["deviation"]) <= 1e-6, row

    def test_osgood_skips_clipped_orbit_tail(self):
        # a pair without an interior fixed point sends the trail point out of
        # the hull after one honest step; the clipped second gap must not be
        # counted as an orbit interval
        from otflow.registry import get_example
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ex = get_example("affine", alpha=2.0, beta=0.5)
            field = ex.build()
            rep = verify_transport(field, ex.m0, ex.m1)
        assert rep.passed, rep.to_dict()
        for row in rep.osgood:
            assert abs(row["deviation"]) <= 1e-6, row


def _quad_segment_time(pp, a, b):
    """Reference for flow._segment_time: one adaptive quad of 1/|pp| per
    polynomial piece, in the piece's local coordinate."""
    xs, c = pp.x, pp.c
    j0 = max(int(np.searchsorted(xs, a, side="right")) - 1, 0)
    j1 = min(int(np.searchsorted(xs, b, side="left")), xs.size - 1)
    total = 0.0
    for j in range(j0, j1):
        lo, hi = max(a, float(xs[j])), min(b, float(xs[j + 1]))
        if not hi > lo:
            continue
        c3, c2, c1, c0 = (float(c[k, j]) for k in range(4))
        val, _ = quad(lambda s: 1.0 / abs(((c3 * s + c2) * s + c1) * s + c0),
                      lo - float(xs[j]), hi - float(xs[j]),
                      epsabs=1e-14, epsrel=1e-14, limit=200)
        total += val
    return total


@pytest.mark.parametrize("name", _GROUP_FIELDS[:-1])
def test_segment_time_matches_quad(name, request, monkeypatch):
    """Every travel-time and Osgood integral equals per-piece adaptive
    quadrature to 1e-13."""
    flow_mod = importlib.import_module("otflow.flow")
    field = _session_field(request, name)
    own = flow_mod._segment_time
    pairs = []

    def both(pp, a, b):
        got = own(pp, a, b)
        pairs.append((got, _quad_segment_time(pp, a, b)))
        return got

    monkeypatch.setattr(flow_mod, "_segment_time", both)
    flow_mod._travel_time_defect(field)
    flow_mod._osgood_rows(field)
    assert len(pairs) >= 25
    for got, ref in pairs:
        assert abs(got - ref) <= 1e-13, (got, ref)


def _position_checked_osgood_rows(field, m_max=20):
    """Reference for flow._osgood_rows: the walk that finds the orbit gaps
    from positions.  It starts at the anchor nearest x0 and takes a gap
    only while the map sends its preimage end to its image end, within
    1e-12 of the domain width plus 1e-6 of the gap, at a positive slope."""
    T = field.map
    rows = []
    for i, f in enumerate(field.built_intervals):
        anchors = np.asarray(f.anchors, dtype=float)
        j0 = int(np.argmin(np.abs(anchors - f.x0)))
        toward_trail = f.zone_trail is not None
        seq = anchors[j0::-1] if (f.direction > 0) == toward_trail else anchors[j0:]
        acc = 0.0
        for m in range(1, min(m_max, seq.size - 1) + 1):
            a_prev, a_next = float(seq[m - 1]), float(seq[m])
            img, pre = (a_prev, a_next) if toward_trail else (a_next, a_prev)
            gap = abs(a_next - a_prev)
            if abs(float(np.asarray(T.forward(pre))) - img) > 1e-12 * (
                    field.domain[1] - field.domain[0]) + 1e-6 * gap:
                break
            dpre = float(np.asarray(T.derivative(pre)))
            if not (np.isfinite(dpre) and dpre > 0.0):
                break
            a, b = sorted((a_prev, a_next))
            acc += _segment_time(f.v_spline, a, b)
            rows.append({"interval": i, "m": m, "integral": acc,
                         "deviation": acc - m})
    return rows


def _row_bits(rows):
    return [(r["interval"], r["m"], float(r["integral"]).hex(),
             float(r["deviation"]).hex()) for r in rows]


def _assert_osgood_matches_reference(field):
    got = _osgood_rows(field)
    assert _row_bits(got) == _row_bits(_position_checked_osgood_rows(field))
    return got


def test_osgood_walk_matches_position_checks():
    """The walk over whole pieces gives bitwise the rows of the position-
    checked walk on every registry build, on a build whose forward march a
    clip cut at its first depth, and on every sudakov field that builds."""
    from otflow.sudakov import assemble_field, decompose
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fields = [get_example(name).build() for name in example_names()]
        clipped = get_example("affine", alpha=2.0, beta=0.5).build()
        fields += [assemble_field(decompose(m0, m1)).field
                   for m0, m1 in sudakov_pairs_that_build()]
    for field in fields:
        assert _assert_osgood_matches_reference(field)
    # the clip cuts the seed, the source of depth 1: one forward piece, no
    # whole one, so the walk stops after the seed
    (f,) = clipped.built_intervals
    assert (f.zone_trail, f.depth_forward, f.whole_forward) == (None, 1, 0)
    assert [r["m"] for r in _assert_osgood_matches_reference(clipped)] == [1]


@given(pl_densities(), pl_densities(), st.sampled_from(SEED_KINDS))
def test_osgood_walk_matches_position_checks_on_random_pairs(m0, m1, seed):
    """The same on random piecewise-linear pairs with either seed profile; a
    pair whose build raises TransportError is skipped."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = build_velocity(m0, m1, seed=seed)
    except TransportError:
        return
    _assert_osgood_matches_reference(field)
