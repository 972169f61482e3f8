"""In-repo special functions against scipy.special as the reference.

measures._ndtr and measures._ndtri transcribe Cephes' normal cdf and
quantile, the code scipy.special.ndtr and ndtri run; pathology._trigamma
is psi_1 by recurrence and asymptotic series.  Each stays within 4 ulp of
scipy but on two branches where scipy's own error adds to the port's:
ndtri's P1/Q1 tail (6 ulp) and the trigamma's recurrence below 20 (5 ulp).
None raises a floating-point error, and each gives the same bits however
many points one call evaluates.  The Gaussian's pair methods give the same
bits as their single-sided counterparts and the base-class formula.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import special

from otflow import measures
from otflow.errors import MeasureSpecError
from otflow.measures import Gaussian, Measure1D, _ndtr, _ndtri
from otflow.pathology import _trigamma

ULP_BOUND = 4
# ndtri's tail branch for s = sqrt(-2 log t) < 8, t the smaller tail mass:
# s - log(s)/s - z P1(z)/Q1(z) cancels near |x| = 1.1 to 1.8, and the port
# and scipy each land 2 to 4 ulp from the exact quantile.  A scan of
# 30,000,000 p (log-uniform from 1e-300, uniform, 1 - log-uniform) found 2
# points at 5 ulp and 1 at 6, and 50,000,000 more drawn in the tails none
# above 6; these are the three of the first scan.
NDTRI_TAIL_ULP_BOUND = 6
NDTRI_TAIL_WORST = [0.03539359346449511, 0.914376993221744, 0.9451813218267477]
# the trigamma's upward recurrence below 20: 26 of 10,000,000 uniform x in
# [10, 20) at 5 ulp from scipy (the port 1 ulp from the exact value at the
# example, scipy 4), none above 4 in 10,000,000 log-uniform x in [20, 4e7]
TRIGAMMA_RECURRENCE_ULP_BOUND = 5
TRIGAMMA_WORST = [16.566832811332066, 18.33793115592479, 10.37996399068603]
SQRT2 = math.sqrt(2.0)
E_M2 = math.exp(-2.0)
RNG_SEED = 20240510


def ulp_distance(a, b):
    """Elementwise count of doubles between a and b; 0 where both are the
    same infinity or both NaN."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    same = (a == b) | (np.isnan(a) & np.isnan(b))

    def ordered(v):
        i = v.view(np.int64)
        return np.where(i < 0, np.int64(-2 ** 63) - i, i)

    with np.errstate(over="ignore"):
        d = np.abs(ordered(a) - ordered(b))
    return np.where(same, 0, d)


def assert_within_ulps(got, want, bound=ULP_BOUND):
    d = ulp_distance(got, want)
    assert (d <= bound).all(), (d.max(), np.asarray(got), np.asarray(want))


def ndtri_ulp_bound(p):
    """NDTRI_TAIL_ULP_BOUND where _ndtri takes its P1/Q1 tail branch,
    ULP_BOUND elsewhere."""
    t = np.minimum(p, 1.0 - p)
    tail = ~((p > E_M2) & (p <= 1.0 - E_M2)) & (t > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.sqrt(-2.0 * np.log(np.where(tail, t, 0.5))) < 8.0
    return np.where(tail & near, NDTRI_TAIL_ULP_BOUND, ULP_BOUND)


# seams of ndtr: |x| = 1 (erf/erfc), sqrt 2 (erfc's erf branch), 8 sqrt 2
# (P/Q against R/S), and underflow past about 37.7
NDTR_SEAMS = [1.0, SQRT2, 8.0 * SQRT2, 37.5, 38.5, 40.0]
# seams of ndtri: exp(-2) and 1 - exp(-2) (centre against tails), and
# exp(-32), where sqrt(-2 log p) = 8 (P1/Q1 against P2/Q2)
NDTRI_SEAMS = [E_M2, 1.0 - E_M2, math.exp(-32.0)]


def _around(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


class TestNdtr:

    @given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=64))
    @example([1.0, -1.0, SQRT2, -SQRT2, 8.0 * SQRT2, -8.0 * SQRT2])
    @example([-38.5, -38.0, -37.7, 0.0, -0.0])
    def test_matches_scipy(self, xs):
        x = np.array(xs)
        assert_within_ulps(_ndtr(x), special.ndtr(x))

    @given(st.lists(st.floats(-SQRT2, SQRT2, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=64))
    @example([1.0, -1.0, 0.9999999999999999, 1.0000000000000002, 0.0])
    def test_bitwise_scipy_without_exp(self, xs):
        """Below |x| = sqrt 2 only erf's rational runs: no exp, so the bits
        are scipy's."""
        x = np.array(xs)
        assert np.array_equal(_ndtr(x), special.ndtr(x))

    def test_seams_and_special_values(self):
        x = np.array([s * v for v in NDTR_SEAMS for s in (1.0, -1.0)
                      for v in _around(v)]
                     + [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
        assert_within_ulps(_ndtr(x), special.ndtr(x))
        assert _ndtr(np.array([np.inf, -np.inf, -38.5, 0.0])).tolist() == [1.0, 0.0, 0.0, 0.5]
        assert np.isnan(_ndtr(np.nan))

    def test_no_floating_point_error(self):
        x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, SQRT2,
                      8.0 * SQRT2, -8.0 * SQRT2, -38.5, -40.0, 40.0, 1e308, -1e308])
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _ndtr(x)
            Gaussian(0.5, 2.0).cdf_pair(x)


class TestNdtri:

    @given(st.lists(st.one_of(st.floats(1e-300, 1.0 - 2.0 ** -53),
                              st.floats(0.0, 690.0).map(lambda t: math.exp(-t)),
                              st.floats(0.0, 36.0).map(lambda t: 1.0 - math.exp(-t))),
                    min_size=1, max_size=64))
    @example([E_M2, 1.0 - E_M2, math.exp(-32.0), 1e-300, 1.0 - 2.0 ** -53, 0.5])
    @example(NDTRI_TAIL_WORST)
    def test_matches_scipy(self, ps):
        p = np.array(ps)
        assert_within_ulps(_ndtri(p), special.ndtri(p), ndtri_ulp_bound(p))

    def test_tail_bound_is_met_and_needed(self):
        """The recorded worst points sit in the P1/Q1 branch and need its
        wider bound: 5, 5 and 6 ulp."""
        p = np.array(NDTRI_TAIL_WORST)
        assert (ndtri_ulp_bound(p) == NDTRI_TAIL_ULP_BOUND).all()
        assert ulp_distance(_ndtri(p), special.ndtri(p)).tolist() == [5, 5, 6]

    @given(st.lists(st.floats(E_M2, 1.0 - E_M2), min_size=1, max_size=64))
    @example([E_M2, np.nextafter(E_M2, 1.0), 1.0 - E_M2, 0.5, 0.25])
    def test_bitwise_scipy_without_log(self, ps):
        """Between exp(-2) and 1 - exp(-2) only the centre rational runs: no
        log, so the bits are scipy's."""
        p = np.array(ps)
        assert np.array_equal(_ndtri(p), special.ndtri(p))

    def test_seams_and_special_values(self):
        p = np.array([u for v in NDTRI_SEAMS for u in _around(v)]
                     + [0.0, 1.0, 0.5, 5e-324, 1e-300, 1.0 - 2.0 ** -53,
                        np.nan, -1.0, 2.0, np.inf, -np.inf])
        assert_within_ulps(_ndtri(p), special.ndtri(p), ndtri_ulp_bound(p))
        assert _ndtri(np.array([0.0, 1.0, 0.5])).tolist() == [-np.inf, np.inf, 0.0]
        assert np.isnan(_ndtri(np.array([np.nan, -1.0, 2.0, np.inf]))).all()

    def test_no_floating_point_error(self):
        p = np.array([0.0, 1.0, np.nan, -1.0, 2.0, np.inf, -np.inf, 5e-324, 1e-300,
                      E_M2, 1.0 - E_M2, 1.0 - 2.0 ** -53, 0.5])
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _ndtri(p)


class TestPointCountInvariance:
    """Inputs run in blocks of _BLOCK points, and each branch gathers its
    points unless it holds all of them; every point gets the same bits
    however many points the call has."""

    def test_ndtr_and_ndtri_bits_do_not_depend_on_call_size(self):
        rng = np.random.default_rng(RNG_SEED)
        n = 2 * measures._BLOCK + 5
        x = rng.normal(0.0, 6.0, n)
        p = np.concatenate((rng.random(n - 40), np.exp(-rng.uniform(0, 700, 40))))
        rng.shuffle(p)
        whole_x, whole_p = _ndtr(x), _ndtri(p)
        # one point, a few, one block and one more point, and what is left:
        # more than one block
        cuts = np.cumsum([1, 7, 300, measures._BLOCK + 1])
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
            assert np.array_equal(_ndtr(x[lo:hi]), whole_x[lo:hi])
            assert np.array_equal(_ndtri(p[lo:hi]), whole_p[lo:hi])

    def test_single_points_match_the_array_path(self):
        """A single point takes one branch whole, without a gather."""
        rng = np.random.default_rng(RNG_SEED + 1)
        x = np.concatenate((rng.normal(0.0, 8.0, 300),
                            [s * u for v in NDTR_SEAMS for s in (1.0, -1.0) for u in _around(v)],
                            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 5e-324]))
        p = np.concatenate((rng.random(200), np.exp(-rng.uniform(0, 700, 100)),
                            [u for v in NDTRI_SEAMS for u in _around(v)],
                            [0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0 ** -53, np.nan, -1.0, 2.0]))
        near, far, _ = measures._ndtr_sides(x)
        for i, v in enumerate(x):
            one = measures._ndtr_sides(np.array([v]))
            assert np.array_equal(one[0], near[i:i + 1], equal_nan=True)
            assert np.array_equal(one[1], far[i:i + 1], equal_nan=True)
        whole = _ndtri(p)
        for i, v in enumerate(p):
            assert np.array_equal(_ndtri(np.array([v])), whole[i:i + 1], equal_nan=True)

    def test_shapes_follow_the_input(self):
        assert _ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert _ndtri(np.full((3, 1), 0.25)).shape == (3, 1)
        assert _ndtr(np.empty(0)).shape == (0,)
        assert float(_ndtri(0.5)) == 0.0


class TestTrigamma:

    @given(st.lists(st.floats(10.0, 4e7), min_size=1, max_size=32))
    @example([10.0, 10.5, 19.999999999999996, 20.0, 4e7])
    @example(TRIGAMMA_WORST)
    def test_matches_scipy(self, xs):
        x = np.array(xs)
        bound = np.where(x < 20.0, TRIGAMMA_RECURRENCE_ULP_BOUND, ULP_BOUND)
        assert_within_ulps(_trigamma(x), special.polygamma(1, x), bound)

    def test_recurrence_bound_is_met_and_needed(self):
        x = np.array(TRIGAMMA_WORST)
        assert ulp_distance(_trigamma(x), special.polygamma(1, x)).tolist() == [5, 5, 5]

    def test_integer_arguments(self):
        x = 10.0 + np.arange(0, 5000, dtype=float)
        assert_within_ulps(_trigamma(x), special.polygamma(1, x))
        assert_within_ulps(_trigamma(10.0), special.polygamma(1, 10.0))

    def test_no_floating_point_error(self):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _trigamma(np.array([10.0, 20.0, 4e7, 1e9]))


class TestGaussianPairs:
    """The pair methods share one special-function call between sides."""

    @given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=64),
           st.floats(-3.0, 3.0), st.floats(0.1, 5.0))
    def test_cdf_pair_is_cdf_and_sf(self, xs, mean, std):
        g = Gaussian(mean, std)
        x = np.array(xs)
        p, q = g.cdf_pair(x)
        assert np.array_equal(p, g.cdf(x), equal_nan=True)
        assert np.array_equal(q, g.sf(x), equal_nan=True)
        for v in xs[:3]:
            assert g.cdf_pair(v) == (g.cdf(v), g.sf(v))

    @given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=64),
           st.floats(-3.0, 3.0), st.floats(0.1, 5.0))
    def test_quantile_pair_is_the_base_formula(self, xs, mean, std):
        g = Gaussian(mean, std)
        p, q = g.cdf_pair(np.array(xs))
        p, q = np.clip(p, 1e-300, 1.0), np.clip(q, 1e-300, 1.0)
        assert np.array_equal(g.quantile_pair(p, q), Measure1D.quantile_pair(g, p, q))
        assert g.quantile_pair(0.25, 0.75) == Measure1D.quantile_pair(g, 0.25, 0.75)

    @pytest.mark.parametrize("p, q", [
        ([0.3, 0.7], [0.7, 0.0]),      # the upper side's q is 0
        ([0.3, 0.7], [0.7, -0.1]),
        ([0.0, 0.7], [1.0, 0.3]),      # the lower side's p is 0
        ([np.nan, 0.2], [0.5, 0.8]),
        ([0.2, 0.9], [0.8, 1.0]),
        ([0.2, 2.0], [0.8, np.inf]),
    ])
    def test_quantile_pair_raises_like_the_base(self, p, q):
        g = Gaussian(1.0, 2.0)
        p, q = np.array(p), np.array(q)
        with pytest.raises(MeasureSpecError) as base:
            Measure1D.quantile_pair(g, p, q)
        with pytest.raises(MeasureSpecError) as pair:
            g.quantile_pair(p, q)
        assert str(pair.value) == str(base.value)
