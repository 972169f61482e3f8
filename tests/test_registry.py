"""Example registry: lookup, parameter forwarding, closed-form consistency.

Each example ships oracle callables; the tests here check those oracles
against one another (map vs flow vs velocity, forward vs inverse, change of
variables) and against the fields the examples build.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from otflow.errors import InputError
from otflow.monotone import _bisect_inverse
from otflow.registry import example_names, get_example


class TestLookup:
    """Name table and error reporting."""

    def test_names(self):
        assert example_names() == ("affine", "gaussian", "bad-fixed-point",
                                   "accumulating-c1", "accumulating-cinf")

    def test_unknown_name(self):
        with pytest.raises(InputError, match="affine"):
            get_example("zeta")

    def test_parameter_forwarding(self):
        ex = get_example("affine", alpha=2.0, beta=1.0)
        assert float(ex.closed["map"](0.0)) == 1.0
        assert ex.closed["fixed_point"] == -1.0
        gx = get_example("gaussian", mean0=1.0, std0=2.0, mean1=0.0, std1=1.0)
        assert float(gx.closed["map"](1.0)) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            get_example("affine", alpha=-1.0)
        with pytest.raises(InputError):
            get_example("affine", alpha=1.0, beta=0.0)
        with pytest.raises(InputError):
            get_example("gaussian", mean1=0.0, std1=1.0)
        with pytest.raises(InputError):
            get_example("accumulating-c1", n_tiers=2)


class TestAffineOracles:
    """The closed forms of the affine example agree with each other."""

    def test_map_and_fixed_point(self):
        ex = get_example("affine")
        xs = np.linspace(0.0, 3.0, 7)
        assert np.allclose(ex.closed["map"](xs), 3.0 * xs - 3.0, atol=1e-15)
        fp = ex.closed["fixed_point"]
        assert fp == 1.5
        assert float(ex.closed["map"](fp)) == fp

    def test_flow_at_time_one_is_map(self):
        ex = get_example("affine")
        xs = np.linspace(0.5, 2.5, 11)
        assert np.allclose(ex.closed["flow"](1.0, xs), ex.closed["map"](xs),
                           atol=1e-12)

    def test_velocity_is_flow_derivative(self):
        ex = get_example("affine")
        xs = np.linspace(0.7, 2.3, 9)
        h = 1e-6
        for t in (0.0, 0.4, 0.9):
            fd = (np.asarray(ex.closed["flow"](t + h, xs))
                  - np.asarray(ex.closed["flow"](t - h, xs))) / (2 * h)
            want = ex.closed["velocity"](ex.closed["flow"](t, xs))
            assert np.max(np.abs(fd - want)) <= 1e-6

    def test_built_field_matches_closed_velocity(self, affine_built):
        ex, field = affine_built
        xs = np.concatenate((np.linspace(1.02, 1.48, 40),
                             np.linspace(1.52, 1.98, 40)))
        got = np.asarray(field.evaluate(xs), dtype=float)
        want = np.asarray(ex.closed["velocity"](xs), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-8


class TestAffineUnitSlope:
    """Slope 1 makes the affine example a translation: no fixed point, a
    constant field, and a flow that shifts by t times the offset."""

    def test_translation_oracles(self):
        ex = get_example("affine", alpha=1.0, beta=0.5)
        assert ex.closed["fixed_point"] is None
        xs = np.linspace(1.0, 2.0, 11)
        assert np.array_equal(ex.closed["velocity"](xs), np.full(11, 0.5))
        assert np.array_equal(ex.closed["flow"](1.0, xs), ex.closed["map"](xs))

    def test_built_field_is_the_translation(self):
        from otflow.flow import flow, verify_transport
        ex = get_example("affine", alpha=1.0, beta=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = ex.build()
            rep = verify_transport(field, ex.m0, ex.m1)
        assert rep.passed and rep.zones == []
        assert field.partition.fixed_intervals == ()
        xs = np.linspace(1.0, 2.0, 101)
        assert np.max(np.abs(field.evaluate(xs) - ex.closed["velocity"](xs))) <= 1e-12
        for t in (0.5, 1.0):
            got = flow(field, t, xs)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - ex.closed["flow"](t, xs))) <= 1e-12


class TestGaussianOracles:
    """Normal-to-normal closed forms."""

    def test_map_and_fixed_point(self):
        ex = get_example("gaussian")
        xs = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(ex.closed["map"](xs), 2.0 * xs + 1.0, atol=1e-15)
        assert ex.closed["fixed_point"] == -1.0

    def test_velocity_rate(self):
        ex = get_example("gaussian")
        xs = np.array([-1.0, 0.0, 1.0])
        want = (xs + 1.0) * math.log(2.0)
        assert np.allclose(ex.closed["velocity"](xs), want, atol=1e-15)

    def test_flow_interpolates_exponentially(self):
        ex = get_example("gaussian")
        x = 0.5
        got = float(ex.closed["flow"](0.5, x))
        assert abs(got - (-1.0 + math.sqrt(2.0) * 1.5)) <= 1e-12

    def test_built_field_matches_closed_velocity(self, gaussian_built):
        ex, field = gaussian_built
        xs = np.concatenate((np.linspace(-2.8, -1.1, 30),
                             np.linspace(-0.9, 2.8, 50)))
        got = np.asarray(field.evaluate(xs), dtype=float)
        want = np.asarray(ex.closed["velocity"](xs), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-7


class TestBadFixedPoint:
    """Slope-one fixed point with closed inverse."""

    def test_forward_inverse_roundtrip(self):
        ex = get_example("bad-fixed-point")
        fwd, inv = ex.closed["map"], ex.closed["map_inverse"]
        xs = np.linspace(0.0, 2.0, 101)
        assert np.max(np.abs(inv(fwd(xs)) - xs)) <= 1e-12
        ys = np.linspace(0.0, 3.0, 101)
        assert np.max(np.abs(fwd(inv(ys)) - ys)) <= 1e-12

    def test_endpoints_and_slope(self):
        ex = get_example("bad-fixed-point")
        fwd = ex.closed["map"]
        assert float(fwd(0.0)) == 0.0
        assert abs(float(fwd(2.0)) - 3.0) <= 1e-12
        # unit slope at the fixed point is the whole point of the example
        h = 1e-8
        assert abs((float(fwd(h)) - 0.0) / h - 1.0) <= 1e-7

    def test_change_of_variables(self):
        ex = get_example("bad-fixed-point")
        fwd = ex.closed["map"]
        xs = np.linspace(0.01, 1.99, 200)
        tp = 9.0 / np.sqrt(81.0 - 36.0 * xs)
        lhs = np.asarray(ex.m0.pdf(xs), dtype=float)
        rhs = np.asarray(ex.m1.pdf(fwd(xs)), dtype=float) * tp
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_partition_marks_zero_indeterminate(self):
        ex = get_example("bad-fixed-point")
        assert ex.partition is not None
        assert 0.0 in ex.partition.indeterminate
        assert ex.partition.fixed_intervals == ((0.0, 0.0),)

    def test_built_field_flags_truncation(self, bad_fixed_point_built):
        _, field = bad_fixed_point_built
        zones = field.truncation_zones()
        assert zones
        z = max(zones, key=lambda z: z.hi)
        assert z.fp == 0.0 and z.flagged
        assert z.hi < 0.01
        assert any("truncation" in w for w in field.all_warnings())


class TestAccumulating:
    """Fixed points at every 1/n with alternating tiers."""

    def test_fixed_points_are_bitwise_fixed(self):
        ex = get_example("accumulating-c1")
        fwd = ex.closed["map"]
        for c in ex.closed["fixed_points"]:
            assert abs(float(fwd(c)) - c) <= 1e-16

    def test_fixed_point_list(self):
        ex = get_example("accumulating-c1", n_tiers=4)
        assert ex.closed["fixed_points"] == (0.25, 1.0 / 3.0, 0.5, 1.0)
        assert len(ex.partition.moving_intervals) == 3

    def test_derivative_sign_parity(self):
        # T'(1/n) - 1 = -(-1)^n pi/(5n) for the cubic envelope: below one on
        # even tiers, above one on odd tiers
        ex = get_example("accumulating-c1")
        tm = ex.transport_map
        for n in range(1, 12):
            got = float(tm.derivative(1.0 / n)) - 1.0
            want = -((-1.0) ** n) * math.pi / (5.0 * n)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0), n

    def test_displacement_alternates_per_tier(self):
        ex = get_example("accumulating-c1")
        fwd = ex.closed["map"]
        for itv in ex.partition.moving_intervals:
            mid = 0.5 * (itv.lo + itv.hi)
            disp = float(fwd(mid)) - mid
            assert math.copysign(1.0, disp) == itv.direction, itv

    def test_target_measure_mass(self):
        ex = get_example("accumulating-cinf")
        lo, hi = ex.m1.support
        assert abs(float(ex.m1.cdf(hi)) - 1.0) <= 1e-9
        assert abs(float(ex.m1.cdf(lo))) <= 1e-9

    def test_built_tiers_and_zones(self, accumulating_c1_built):
        _, field = accumulating_c1_built
        built = [f for f in field.intervals
                 if type(f).__name__ == "IntervalField"]
        assert len(built) == 11
        # every tier end closes onto a fixed point, so both ends of each
        # built tier carry a flagged truncation record
        assert len(field.truncation_zones()) == 22

    def test_flow_spot_check(self, accumulating_c1_built):
        ex, field = accumulating_c1_built
        from otflow.flow import flow
        xs = np.linspace(0.36, 0.48, 25)
        got = flow(field, 1.0, xs)
        good = np.isfinite(got)
        assert good.sum() >= 20
        want = np.asarray(ex.closed["map"](xs), dtype=float)
        assert np.max(np.abs(got[good] - want[good])) <= 1e-6

    def test_smooth_variant_is_flat_at_zero(self):
        ex = get_example("accumulating-cinf")
        tm = ex.transport_map
        # exp(-1/x) swamps every power of x, so the displacement and the
        # derivative defect vanish to machine precision near 0
        for x in (1e-3, 1e-2):
            assert abs(float(tm.forward(x)) - x) <= 1e-40
            assert abs(float(tm.derivative(x)) - 1.0) <= 1e-30


def _reference_newton(forward, derivative, y, lo, hi, iters=6):
    """The Newton inverse written with separate forward and derivative calls."""
    x = np.clip(y, lo, hi)
    for _ in range(iters):
        r = np.asarray(forward(x), dtype=float) - y
        d = np.asarray(derivative(x), dtype=float)
        x = np.clip(x - r / np.where(np.abs(d) > 1e-30, d, 1.0), lo, hi)
    resid = np.abs(np.asarray(forward(x), dtype=float) - y)
    bad = resid > 1e-14 * np.maximum(np.abs(y), 1.0)
    if np.any(bad):
        x = np.where(bad, _bisect_inverse(forward, y, lo, hi), x)
    return x


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


@pytest.fixture(scope="module")
def accumulating_maps():
    return {name: get_example(name, n_tiers=4).transport_map
            for name in ("accumulating-c1", "accumulating-cinf")}


class TestAccumulatingJet:
    """The fused jet of the accumulating maps: T bitwise forward, T' and
    T'' matching central differences of forward and of T'."""

    @pytest.mark.parametrize("name", ["accumulating-c1", "accumulating-cinf"])
    def test_jet_matches_callables(self, name):
        tm = get_example(name, n_tiers=4).transport_map
        xs = np.concatenate(([0.0], np.linspace(0.0, 1.0, 4097), [1e-3, 1.0 / 3.0]))
        for x in (xs, 0.0, 0.37):
            assert _bits(tm.jet(x)[0]) == _bits(tm.forward(x))
        y, tp, tpp = tm.jet(xs)
        # steps track the local period of sin(pi/x), about 2 x^2, which
        # leaves a roundoff of about 2e-12 / x in T'; T'' swings with
        # amplitude up to pi^2 / (5 x), and has no limit at 0
        x = xs[xs > 0.0]
        h = 1e-4 * x * x
        d1 = (tm.forward(x + h) - tm.forward(x - h)) / (2.0 * h)
        d2 = (tm.derivative(x + h) - tm.derivative(x - h)) / (2.0 * h)
        assert np.max(np.abs(d1 - tp[xs > 0.0])) <= 1e-7
        assert np.max(np.abs(d2 - tpp[xs > 0.0]) * x) <= 1e-6

    @pytest.mark.parametrize("name", ["accumulating-c1", "accumulating-cinf"])
    def test_newton_inverse_unchanged(self, name):
        tm = get_example(name, n_tiers=4).transport_map
        ys = np.concatenate((tm.forward(np.linspace(0.0, 1.0, 2049)),
                             np.linspace(1e-4, 1.0, 513)))
        got = tm.inverse(ys)
        want = _reference_newton(tm.forward, tm.derivative, ys, 0.0, 1.0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["accumulating-c1", "accumulating-cinf"])
    @given(xs=st.lists(st.floats(1e-6, 4.0), min_size=1, max_size=64))
    def test_positive_points_skip_the_masks(self, accumulating_maps, name, xs):
        # all-positive arrays take the unmasked formula; appending 0 and a
        # negative point sends the same points through the masked one
        tm = accumulating_maps[name]
        x = np.array(xs)
        held = np.concatenate((x, [0.0, -1.0]))
        for order in (0, 1, 2):
            fast, masked = tm.jet(x, order), tm.jet(held, order)
            if order == 0:
                fast, masked = (fast,), (masked,)
            # at and below 0 the jet is the identity's: (x, 1, 0)
            for a, b, identity in zip(fast, masked, (held[-2:], 1.0, 0.0)):
                assert _bits(a) == _bits(b[:-2])
                assert np.all(b[-2:] == identity)


# Backward sources of an accumulating-cinf build whose Newton iterates end
# in a 2-cycle between two adjacent floats, by the step at which each first
# repeats
_TWO_CYCLES = {2: "0x1.fffe5f36f933fp-1", 3: "0x1.a72bba4b63f40p-3",
               4: "0x1.c520901d9f74fp-3", 5: "0x1.ce140967443f1p-3"}


class TestNewtonTwoCycles:
    """The Newton inverse on iterates that end in a 2-cycle: the bits of the
    fixed six steps."""

    def test_mixed_exits_in_one_call(self):
        tm = get_example("accumulating-cinf", n_tiers=4).transport_map
        ys = np.array([float.fromhex(h) for h in _TWO_CYCLES.values()])
        ys = np.concatenate((ys, tm.forward(np.linspace(0.05, 1.0, 257))))
        want = _reference_newton(tm.forward, tm.derivative, ys, 0.0, 1.0)
        assert _bits(tm.inverse(ys)) == _bits(want)
