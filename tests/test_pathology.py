"""Counterexample construction and its two probes.

Independent oracles: the consecutive-gap drop for the quadratic sequence in
exact rational arithmetic, integral brackets for the gap sum, the identity
tying the anchor derivative to the drop, and the region-split jet that the
map's displacement table replaced.  Bitwise references: the map evaluation,
cascade step and growth scan that the in-place kernels replaced.  Scan landmarks (crossing index,
partial integrals) were computed once with this module's probes and are frozen
here so regressions surface as value changes, not just flag flips.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

import otflow.pathology
from otflow.errors import InputError
from otflow.pathology import (build_counterexample, probe_non_integrability,
                              probe_velocity_growth)

FROZEN_CROSSING_INDEX = 11264747
FROZEN_CROSSING_VALUE = 1000.0000213837988
FROZEN_L1_PARTIAL = {
    10: 0.00610181,
    100: 0.01051702,
    1000: 0.01470384,
    10000: 0.01924442,
}


class TestQuadraticMap:
    """Structural facts about the quadratic-gap map."""

    def test_drop_identity_exact(self, quadratic_probe):
        cmap, _ = quadratic_probe
        seq = cmap.sequence
        for i in (0, 1, 7, 100, 4000):
            # gamma cancels in 1 - b_(i+1)/b_i, so the drop is the rational
            # ((i+11)^2 - (i+10)^2) / (i+11)^2 with no roundoff at all
            want = 1 - Fraction((i + 10) ** 2, (i + 11) ** 2)
            got = float(seq.drops(i, np.empty(1))[0])
            assert abs(got - float(want)) <= 1e-16 * float(want)

    def test_gap_sum_bracket(self, quadratic_probe):
        cmap, _ = quadratic_probe
        n = 1_000_000
        partial = float(np.sum(cmap.sequence.gap(np.arange(n))))
        # integral comparison brackets the missing tail of 1/(i+10)^2
        tail_lo = cmap.gamma / (n + 10)
        tail_hi = cmap.gamma / (n + 9)
        assert partial + tail_lo <= 0.5 + 1e-12
        assert partial + tail_hi >= 0.5 - 1e-12

    def test_anchors_decrease_to_positive_floor(self, quadratic_probe):
        cmap, _ = quadratic_probe
        assert cmap.anchors[0] == 0.5
        assert np.all(np.diff(cmap.anchors) < 0)
        assert cmap.table_floor > 0

    def test_anchor_mapping_bitwise(self, quadratic_probe):
        cmap, _ = quadratic_probe
        img = cmap.forward(cmap.anchors[:-1])
        assert np.array_equal(img, cmap.anchors[1:])

    def test_derivative_range(self, quadratic_probe):
        cmap, _ = quadratic_probe
        xs = np.linspace(cmap.table_floor, 1.0, 40001)
        tp = cmap.jet(xs)[1]
        assert tp.min() >= 0.5 and tp.max() <= 1.5

    def test_derivative_vs_finite_difference(self, quadratic_probe):
        cmap, _ = quadratic_probe
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.05, 0.45, 200)
        h = 1e-7
        fd = (cmap.forward(xs + h) - cmap.forward(xs - h)) / (2 * h)
        assert np.max(np.abs(fd - cmap.jet(xs)[1])) <= 1e-5

    def test_map_strictly_below_identity(self, quadratic_probe):
        cmap, _ = quadratic_probe
        xs = np.linspace(1e-6, 1.0, 5000)
        assert np.all(cmap.forward(xs) < xs)
        assert np.all(cmap.displacement(xs) > 0)

    def test_anchor_derivative_equals_quarter_drop(self, quadratic_probe):
        cmap, _ = quadratic_probe
        for i in (0, 3, 50, 900):
            want = 1.0 + float(cmap.sequence.drops(i, np.empty(1))[0]) / 4.0
            assert abs(cmap.anchor_derivative(i) - want) <= 1e-14


class TestGrowthProbe:
    """Derivative products along the orbit of 1/2 diverge past any threshold."""

    def test_flags(self, quadratic_probe):
        _, res = quadratic_probe
        assert res.product_monotone
        assert res.bound_holds

    def test_first_row_is_empty_product(self, quadratic_probe):
        _, res = quadratic_probe
        first = res.rows[0]
        assert first["i"] == 0
        assert first["product"] == 1.0
        assert first["lower_bound"] == 0.0

    def test_rows_strictly_increase(self, quadratic_probe):
        _, res = quadratic_probe
        prods = [r["product"] for r in res.rows]
        assert all(b > a for a, b in zip(prods, prods[1:]))
        for r in res.rows:
            assert r["product"] >= r["lower_bound"]

    def test_row_product_recomputed(self, quadratic_probe):
        cmap, res = quadratic_probe
        # recompute P_i for a mid-scan row directly from the drop formula
        row = next(r for r in res.rows if 1000 <= r["i"] <= 100000)
        i = row["i"]
        lp = float(np.sum(np.log1p(cmap.sequence.drops(0, np.empty(i)) / 4.0)))
        assert abs(row["product"] - np.exp(lp)) <= 1e-9 * row["product"]

    def test_crossing_frozen(self, quadratic_probe):
        _, res = quadratic_probe
        assert res.crossing_index == FROZEN_CROSSING_INDEX
        assert abs(res.crossing_value - FROZEN_CROSSING_VALUE) <= 1e-6
        assert res.crossing_value > 1000.0
        assert res.i_scanned >= res.crossing_index


class TestGrowthScanMemory:
    """The growth scan's working memory is one block, and the block size
    changes no result."""

    def test_peak_memory_is_flat(self, quadratic_probe):
        import tracemalloc
        cmap, _ = quadratic_probe
        tracemalloc.start()
        try:
            probe_velocity_growth(cmap, i_max=3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"{peak / 1e6:.1f} MB"

    def test_block_size_changes_no_result(self, quadratic_probe, monkeypatch):
        cmap, _ = quadratic_probe
        kw = {"i_max": 3_000_000, "target_product": 300.0}
        default = probe_velocity_growth(cmap, **kw)
        monkeypatch.setattr(otflow.pathology, "_GROWTH_BLOCK", 1000)
        small = probe_velocity_growth(cmap, **kw)
        # the crossing lies past index 3 * 2**18, many default blocks deep
        assert default.crossing_index > 3 * 2 ** 18
        assert small.rows == default.rows
        assert (small.crossing_index, small.crossing_value) == \
            (default.crossing_index, default.crossing_value)
        assert (small.product_monotone, small.bound_holds) == \
            (default.product_monotone, default.bound_holds)


class TestDivergenceProbe:
    """Partial integrals of |v| near the fixed end refuse to converge."""

    def test_levels_and_flags(self, log_squared_probe):
        _, res = log_squared_probe
        assert res.levels == (10, 100, 1000, 10000)
        assert res.anchor_speed_monotone
        assert res.seed_floor > 0
        assert res.n_quad_points > 0

    def test_l1_partial_frozen(self, log_squared_probe):
        _, res = log_squared_probe
        for row in res.rows:
            want = FROZEN_L1_PARTIAL[row["m"]]
            assert abs(row["l1_partial"] - want) <= 1e-5 * want, row

    def test_strict_increase_without_plateau(self, log_squared_probe):
        _, res = log_squared_probe
        vals = [r["l1_partial"] for r in res.rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        incs = [r["increment"] for r in res.rows[1:]]
        assert all(i > 0 for i in incs)
        # each extra decade of depth keeps contributing the same order of mass
        assert incs[-1] > 0.25 * incs[0]

    def test_clock_defect_zero(self, log_squared_probe):
        _, res = log_squared_probe
        for row in res.rows:
            assert row["clock_defect"] == 0.0, row

    def test_anchor_speeds_grow(self, log_squared_probe):
        # the derivative product amplifies the seed along the orbit, so the
        # speed at depth m increases even as the anchors shrink to 0
        _, res = log_squared_probe
        speeds = [r["anchor_speed"] for r in res.rows]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))
        assert all(s > 0 for s in speeds)

    def test_field_integral_tracks_exact_at_shallow_depth(self, log_squared_probe):
        _, res = log_squared_probe
        row = res.rows[0]
        rel = abs(row["l1_field"] - row["l1_partial"]) / row["l1_partial"]
        assert rel <= 0.2, row

    def test_lower_bound_below_partial(self, log_squared_probe):
        _, res = log_squared_probe
        for row in res.rows:
            assert 0 < row["lower_bound"] <= row["l1_partial"], row

    @pytest.mark.parametrize("variant", ["quadratic", "log_squared"])
    def test_l1_field_matches_scipy_antiderivative(self, variant, monkeypatch):
        # the field route through scipy's antiderivative of the v table,
        # evaluated at the orbit anchors, is the reference
        from scipy.interpolate import PPoly
        built, real_build = [], otflow.pathology.build_velocity

        def recording_build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(otflow.pathology, "build_velocity", recording_build)
        cmap = build_counterexample(variant, n_anchors=1100)
        levels = (10, 100, 1000)
        res = probe_non_integrability(cmap, levels=levels)
        itf = built[0].built_intervals[0]
        V = PPoly(itf.v_spline.c, itf.v_spline.x).antiderivative()
        orbit = itf.anchors[::-1]
        want = np.cumsum(np.abs(V(orbit[:1000]) - V(orbit[1:1001])))
        for m, row in zip(levels, res.rows):
            assert abs(row["l1_field"] - want[m - 1]) <= 1e-12 * want[m - 1], row


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _jet_points(cmap):
    """Both ends, the floor, every anchor, three points inside four gaps
    and three points above 1/2."""
    a, b = cmap.anchors, cmap.gaps
    inside = [a[j + 1] + u * b[j] for j in (0, 7, 300, cmap.n_anchors - 1)
              for u in (0.15, 0.75, 0.9)]
    return np.concatenate(([0.0, 0.5 * cmap.table_floor, cmap.table_floor],
                           a, inside, [0.5 + 1e-9, 0.75, 1.0]))


def _difference(g, xs, h, side):
    """Second-order difference of g at xs with steps h: central where side
    is 0, else one-sided toward side (+1 or -1)."""
    out = np.empty_like(xs)
    c = side == 0
    out[c] = (g(xs[c] + h[c]) - g(xs[c] - h[c])) / (2.0 * h[c])
    s, x, k = side[~c], xs[~c], h[~c]
    out[~c] = s * (4.0 * g(x + s * k) - 3.0 * g(x) - g(x + 2.0 * s * k)) / (2.0 * k)
    return out


def _gap_index(cmap, xs):
    """Gap j with anchors[j+1] < x <= anchors[j]; the floor belongs to the
    deepest gap."""
    n = cmap.n_anchors
    return np.minimum(n - np.searchsorted(cmap.anchors[::-1], xs, side="left"), n - 1)


def _gap_scale(cmap, xs):
    """The scale of T'' where x lies: D'' = (b_j - b_(j+1)) / b_j^2 q''(u)
    on gap j, and 1 on the pinch and the continuation."""
    b, j = cmap.gaps, _gap_index(cmap, xs)
    tabulated = (xs >= cmap.table_floor) & (xs <= 0.5)
    return np.where(tabulated, (b[j] - b[j + 1]) / b[j] ** 2, 1.0)


def _differences(cmap, xs, rel_step):
    """Differences of forward and of the jet's T' at xs, with the step
    rel_step times the width of the region holding x.  One-sided where T'
    (the floor) or T'' (1/2) jumps, and at 0 and 1, toward the side the jet
    reads; central elsewhere."""
    b = cmap.gaps
    j = _gap_index(cmap, xs)
    tabulated = (xs >= cmap.table_floor) & (xs <= 0.5)
    h = rel_step * np.where(tabulated, b[j],
                            np.where(xs > 0.5, 0.5, cmap.table_floor))
    side = np.where((xs == 0.0) | (xs == cmap.table_floor)
                    | ((xs > 0.5) & (xs < 0.5 + 2.0 * h)),
                    1.0, np.where((xs == 0.5) | (xs == 1.0), -1.0, 0.0))
    d1 = _difference(cmap.forward, xs, h, side)
    d2 = _difference(lambda x: cmap.jet(x)[1], xs, h, side)
    return d1, d2, _gap_scale(cmap, xs)


# The region-split jet the map's piecewise-polynomial table replaced, kept
# as the reference the table is checked against.
_R1, _R2, _R3 = 0.15, 0.75, 0.9
_TAIL_SLOPE = -0.25


def _sstep(w):
    return w * w * (3.0 - 2.0 * w)


def _sstep_d(w):
    return 6.0 * w * (1.0 - w)


def _sstep_anti(w):
    return w * w * w * (1.0 - 0.5 * w)


def _bump_jet(u, g):
    """(q, q', q'') of the gap profile, one region split for all three."""
    u = np.asarray(u, dtype=float)
    a = -np.asarray(g, dtype=float)
    h = (1.04375 + 0.075 * np.asarray(g, dtype=float)) / 0.75
    u, a, h = np.broadcast_arrays(u, a, h)
    val, slope, curv = np.empty_like(u), np.empty_like(u), np.zeros_like(u)
    w3 = _R3 - _R2
    q1 = _R1 * (a + h) / 2.0
    q2 = q1 + h * (_R2 - _R1)
    q3 = q2 + h * w3 + (_TAIL_SLOPE - h) * w3 * 0.5
    m1 = u < _R1
    m2 = (u >= _R1) & (u < _R2)
    m3 = (u >= _R2) & (u < _R3)
    m4 = u >= _R3
    u1, a1, h1 = u[m1], a[m1], h[m1]
    w = u1 / _R1
    val[m1] = a1 * u1 + (h1 - a1) * _R1 * _sstep_anti(w)
    slope[m1] = a1 + (h1 - a1) * _sstep(w)
    curv[m1] = (h1 - a1) * _sstep_d(w) / _R1
    val[m2] = q1[m2] + h[m2] * (u[m2] - _R1)
    slope[m2] = h[m2]
    u3, h3 = u[m3], h[m3]
    w = (u3 - _R2) / w3
    val[m3] = q2[m3] + h3 * (u3 - _R2) + (_TAIL_SLOPE - h3) * w3 * _sstep_anti(w)
    slope[m3] = h3 + (_TAIL_SLOPE - h3) * _sstep(w)
    curv[m3] = (_TAIL_SLOPE - h3) * _sstep_d(w) / w3
    val[m4] = q3[m4] + _TAIL_SLOPE * (u[m4] - _R3)
    slope[m4] = _TAIL_SLOPE
    return val, slope, curv


def _reference_jet(cmap, x):
    """(T, T', T'') by the region split the map's table replaced: the cubic
    continuation for x > 1/2, the linear pinch on [0, floor), and the gap
    profile at the position u inside gap j in between, with D exactly b_j
    at each anchor.  The pinch includes 0, whose one-sided slope the jet
    reports."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a, b, n = cmap.anchors, cmap.gaps, cmap.n_anchors
    disp, slope, curv = np.zeros((3,) + x.shape)
    ext = x > 0.5
    b0, b1 = float(b[0]), float(b[1])
    c0, c1 = b0, -(b0 - b1) / (4.0 * b0)
    w, delta = 0.5, -b0 / 2.0
    c2 = (3.0 * delta / w - 2.0 * c1) / w
    c3 = (-2.0 * delta / w + c1) / (w * w)
    t = x[ext] - 0.5
    disp[ext] = ((c3 * t + c2) * t + c1) * t + c0
    slope[ext] = (3.0 * c3 * t + 2.0 * c2) * t + c1
    curv[ext] = 6.0 * c3 * t + 2.0 * c2
    low = x < cmap.table_floor
    disp[low] = x[low] * (b[n] / a[n])
    slope[low] = b[n] / a[n]
    mid = ~ext & ~low
    xm = x[mid]
    j = _gap_index(cmap, xm)
    bj, bj1 = b[j], b[j + 1]
    u = np.clip((xm - a[j + 1]) / bj, 0.0, 1.0)
    q, dq, ddq = _bump_jet(u, cmap.gbar[j])
    disp[mid] = np.where(xm == a[j], bj, bj1 + (bj - bj1) * q)
    slope[mid] = (bj - bj1) / bj * dq
    curv[mid] = (bj - bj1) / (bj * bj) * ddq
    return x - disp, 1.0 - slope, -curv


def _assert_matches_reference(cmap, xs):
    """T within 2 ulp of x, T' within 1e-13, and T'' within 1e-7 of the
    gap scale of the reference jet."""
    got, want = cmap.jet(xs), _reference_jet(cmap, xs)
    assert np.all(np.abs(got[0] - want[0]) <= 2.0 * np.spacing(xs)), xs
    assert np.all(np.abs(got[1] - want[1]) <= 1e-13), xs
    assert np.all(np.abs(got[2] - want[2]) <= 1e-7 * _gap_scale(cmap, xs)), xs


VARIANTS = ("quadratic", "log_squared")
_N_ANCHORS = 12000


@pytest.fixture(scope="module")
def cmaps():
    return {v: build_counterexample(v, n_anchors=_N_ANCHORS) for v in VARIANTS}


class TestTableAgainstReference:
    """The piecewise-polynomial table against the region-split jet it
    replaced, at every anchor and on random gap positions, in the pinch and
    on the continuation."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_jet_points(self, cmaps, variant):
        cmap = cmaps[variant]
        _assert_matches_reference(cmap, _jet_points(cmap))

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(j=st.integers(0, _N_ANCHORS - 1), u=st.floats(0.0, 1.0),
           s=st.floats(0.0, 1.0, exclude_max=True),
           c=st.floats(0.0, 1.0, exclude_min=True))
    @example(j=0, u=1.0, s=0.0, c=1.0)
    @example(j=_N_ANCHORS - 1, u=0.0, s=0.5, c=1e-9)
    def test_random_positions(self, cmaps, variant, j, u, s, c):
        cmap = cmaps[variant]
        # x runs from anchors[j+1] (u = 0) to anchors[j] (u = 1), both exact
        xs = np.array([cmap.anchors[j] - (1.0 - u) * cmap.gaps[j],
                       s * cmap.table_floor, 0.5 + 0.5 * c])
        _assert_matches_reference(cmap, xs)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gap_ends_read_the_gap_side(self, cmaps, variant):
        # 1/2 seeds the probes' orbit and the floor ends the table: both
        # read the gap profile, not the continuation or the pinch
        cmap = cmaps[variant]
        xs = np.array([0.5, cmap.table_floor])
        (_, _, tpp), (_, tp, _) = [cmap.jet(x) for x in xs]
        want = _reference_jet(cmap, xs)
        assert tpp == want[2][0]
        assert tp == want[1][1]


class _ParentMap:
    """The map evaluation that the in-place kernels replaced, kept as their
    bitwise reference: the table in its old row order (origin, then the
    coefficients of D, D' and D'' from the constant term up), one search
    and one gather per call, allocating Horner sums, an elementwise domain
    test, and the cascade's gap-searched step (value_slope with gap = j)."""

    def __init__(self, cmap):
        self.n_anchors = cmap.n_anchors
        self._breaks = cmap._breaks
        self._table = cmap._table[[0, 5, 4, 3, 2, 1, 9, 8, 7, 6, 12, 11, 10]]

    def _displacement(self, x, order, k=None):
        if k is None:
            k = np.searchsorted(self._breaks, x, side="right") - 1
        rows = np.take(self._table[:(6, 10, 13)[order]], k, axis=-1)
        t = x - rows[0]
        out = []
        for c in (rows[1:6], rows[6:10], rows[10:13])[:order + 1]:
            acc = c[-1]
            for ci in c[-2::-1]:
                acc = acc * t + ci
            out.append(acc)
        return out

    @staticmethod
    def _on_domain(x):
        x = np.asarray(x, dtype=float)
        if (x < 0.0).any() or (x > 1.0).any():
            raise InputError("counterexample map is defined on [0, 1]")
        return x

    def displacement(self, x):
        return self._displacement(self._on_domain(x), 0)[0]

    def forward(self, x):
        x = self._on_domain(x)
        return x - self._displacement(x, 0)[0]

    def jet(self, x):
        x = self._on_domain(x)
        disp, slope, curv = self._displacement(x, 2)
        return x - disp, 1.0 - slope, -curv

    def value_slope(self, x, gap=None):
        k = None
        if gap is not None:
            lo = 4 * (self.n_anchors - 1 - gap)
            window = self._breaks[lo:lo + 7]
            r = np.searchsorted(window, x, side="right")
            if r.min() >= 1 and r.max() < window.size:
                k = r + (lo - 1)
        disp, slope = self._displacement(x, 1, k)
        return x - disp, 1.0 - slope


@pytest.fixture(scope="module")
def parents(cmaps):
    return {v: _ParentMap(cmaps[v]) for v in VARIANTS}


def _cascade_step(cmap, x, gap):
    """(T, T') at the 1-d points x by the cascade's own step: the run fetch
    of gap, then the in-place Horner sums."""
    x = np.array(x, dtype=float)
    rows = cmap._gap_rows(x, gap, np.empty(max(x.size - 1, 0), dtype=bool))
    disp, slope = cmap._horner(rows, np.subtract(x, rows[0], rows[0]), 1)
    return x - disp, 1.0 - slope


def _cascade_per_depth(cmap, itf, depth):
    """_orbit_mass_cascade as a loop of one weighted sum and one full table
    search per depth by the old evaluation: the reference of the blocked
    form with its run fetch."""
    parent = _ParentMap(cmap)
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(8)
    lo, hi = sorted(itf.seed_interval)
    width = hi - lo
    fracs = 0.5 ** np.arange(1, otflow.pathology._OCTAVES + 1)
    edges = np.concatenate(([lo], lo + width * fracs[::-1], hi - width * fracs, [hi]))
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    x0 = (mid + half * gl_nodes[None, :]).ravel()
    weights = (half * gl_w[None, :]).ravel()
    v0 = np.abs(itf.v_spline(x0))
    mass = np.empty(depth)
    cur, g = x0, np.ones_like(x0)
    for d in range(depth):
        mass[d] = float(np.sum(weights * v0 * g * g))
        cur, tp = parent.value_slope(cur)
        g = g * tp
    return mass


def _probe_interval(monkeypatch, variant, levels, n_anchors=1100):
    """The map, the probe's result and the interval of the velocity it
    built, for probe_non_integrability at levels."""
    built, real_build = [], otflow.pathology.build_velocity

    def recording_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(otflow.pathology, "build_velocity", recording_build)
    cmap = build_counterexample(variant, n_anchors=n_anchors)
    res = probe_non_integrability(cmap, levels=levels)
    return cmap, res, built[0].built_intervals[0]


class TestGapSearch:
    """The cascade reads each depth's coefficients by the runs of its points
    over its gap's table pieces, and gets the pieces and bits of the full
    search."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gap_search_matches_full_search(self, cmaps, parents, variant):
        cmap, parent = cmaps[variant], parents[variant]
        a = cmap.anchors
        for j in (0, 1, 57, _N_ANCHORS - 5):
            inside = a[j + 1] + np.linspace(0.0, 1.0, 33) * cmap.gaps[j]
            near = np.array([np.nextafter(a[j + 1], 0.0), np.nextafter(a[j], 1.0)])
            far = np.array([a[j + 3], 0.75, 0.5 * cmap.table_floor])
            # sorted points in the window take the runs; the unsorted and
            # the far ones the full search
            for xs in (inside, np.sort(np.concatenate((inside, near))),
                       np.concatenate((inside, near)), far,
                       np.concatenate((inside, far[:1]))):
                rows = cmap._gap_rows(xs, j, np.empty(xs.size - 1, dtype=bool))
                assert _same_bits(rows, cmap._rows(xs, 10)), (j, xs)
                for got, gap_searched, full in zip(
                        _cascade_step(cmap, xs, j), parent.value_slope(xs, gap=j),
                        parent.value_slope(xs)):
                    assert _same_bits(got, gap_searched), (j, xs)
                    assert _same_bits(got, full), (j, xs)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cascade_matches_per_depth_loop(self, variant, monkeypatch):
        cmap, _, itf = _probe_interval(monkeypatch, variant, (10, 600))
        want = _cascade_per_depth(cmap, itf, 600)
        fetched, searched = [], []
        gap_rows, rows = cmap._gap_rows, cmap._rows

        def counted_gap_rows(x, gap, descends):
            fetched.append(gap)
            return gap_rows(x, gap, descends)

        def counted_rows(x, n):
            searched.append(n)
            return rows(x, n)

        monkeypatch.setattr(cmap, "_gap_rows", counted_gap_rows)
        monkeypatch.setattr(cmap, "_rows", counted_rows)
        # 600 depths: two whole blocks of rows and a part of one
        assert 2 * otflow.pathology._CASCADE_BLOCK < 600
        got = otflow.pathology._orbit_mass_cascade(cmap, itf, 600)
        assert got.tobytes() == want.tobytes()
        # one fetch per depth, in depth order, and every depth's points
        # sorted inside its window: no full search
        assert fetched == list(range(600)) and searched == []

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(j=st.integers(0, _N_ANCHORS - 1),
           us=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
           shift=st.sampled_from([-1, 1, 2]))
    def test_fallbacks_read_the_same_pieces(self, cmaps, parents, variant, j, us, shift):
        # unsorted points, and sorted ones pushed out of the window by the
        # points of gap j + shift: each takes the full search
        cmap, parent = cmaps[variant], parents[variant]
        inside = cmap.anchors[j] - (1.0 - np.array(us)) * cmap.gaps[j]
        k = min(max(j + shift, 0), _N_ANCHORS - 1)
        other = cmap.anchors[k] - 0.5 * cmap.gaps[k]
        for xs in (inside[::-1], inside, np.sort(np.append(inside, other))):
            rows = cmap._gap_rows(xs, j, np.empty(xs.size - 1, dtype=bool))
            assert _same_bits(rows, cmap._rows(xs, 10))
            for got, want in zip(_cascade_step(cmap, xs, j),
                                 parent.value_slope(xs, gap=j)):
                assert _same_bits(got, want)


_ULP_STEPS = (-1, 0, 1)


@st.composite
def _map_positions(draw):
    """A point of [0, 1]: inside a gap, within an ulp of an anchor or a
    table break (region starts among them), the floor, 1/2, on the
    continuation, 0 or 1."""
    kind = draw(st.sampled_from(
        ["gap", "anchor", "break", "floor", "half", "continuation", "ends"]))
    if kind == "gap":
        return ("gap", draw(st.integers(0, _N_ANCHORS - 1)), draw(st.floats(0.0, 1.0)))
    if kind in ("anchor", "break"):
        top = _N_ANCHORS if kind == "anchor" else 4 * _N_ANCHORS + 1
        return (kind, draw(st.integers(0, top)), draw(st.sampled_from(_ULP_STEPS)))
    if kind == "continuation":
        return (kind, draw(st.floats(0.0, 1.0, exclude_min=True)), 0)
    if kind == "ends":
        return (kind, draw(st.sampled_from([0.0, 1.0])), 0)
    return (kind, 0, draw(st.sampled_from(_ULP_STEPS)))


def _position(cmap, spec):
    kind, i, u = spec
    if kind == "gap":
        return float(cmap.anchors[i] - (1.0 - u) * cmap.gaps[i])
    x = {"anchor": lambda: cmap.anchors[i], "break": lambda: cmap._breaks[i],
         "floor": lambda: cmap.table_floor, "half": lambda: 0.5,
         "continuation": lambda: 0.5 + 0.5 * i, "ends": lambda: i}[kind]()
    x = float(x)
    for _ in range(abs(u)):
        x = float(np.nextafter(x, np.sign(u) * np.inf))
    return min(max(x, 0.0), 1.0)


def _same_results(got, want):
    """Equal types, shapes and bits, entry by entry of a tuple."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same_results, got, want))
    return type(got) is type(want) and _same_bits(got, want)


class TestAgainstParentEvaluation:
    """jet, forward and displacement against the evaluation they replaced:
    the same bits, shapes and types everywhere on [0, 1], the same
    passes and refusals off it."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(specs=st.lists(_map_positions(), min_size=1, max_size=16))
    def test_dense_positions(self, cmaps, parents, variant, specs):
        cmap, parent = cmaps[variant], parents[variant]
        xs = np.array([_position(cmap, s) for s in specs])
        for name in ("jet", "forward", "displacement"):
            for x in (xs, xs[0], float(xs[0]), xs.reshape(1, -1)):
                assert _same_results(getattr(cmap, name)(x),
                                     getattr(parent, name)(x)), (name, x)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_anchor_and_break(self, cmaps, parents, variant):
        cmap, parent = cmaps[variant], parents[variant]
        pts = np.concatenate((cmap.anchors, cmap._breaks, [0.5, 1.0]))
        xs = np.concatenate([np.nextafter(pts, d) for d in (-1.0, 2.0)] + [pts])
        xs = xs[(xs >= 0.0) & (xs <= 1.0)]
        for name in ("jet", "forward", "displacement"):
            assert _same_results(getattr(cmap, name)(xs), getattr(parent, name)(xs))

    def test_empty_nan_and_scalar_inputs(self, cmaps, parents):
        cmap, parent = cmaps["quadratic"], parents["quadratic"]
        for x in (np.array([]), np.empty((0, 3)), np.array([np.nan, 0.3]),
                  np.nan, np.array(0.25), 0.25, [0.1, 0.2], np.float32(0.3), 0):
            for name in ("jet", "forward", "displacement"):
                assert _same_results(getattr(cmap, name)(x),
                                     getattr(parent, name)(x)), (name, x)

    @pytest.mark.parametrize("x", [-1e-300, 1.0 + 1e-15, np.inf, -np.inf,
                                   [0.2, 1.5], [[0.2], [-0.1]], [np.nan, 2.0]])
    def test_refusals(self, cmaps, parents, x):
        for mapping in (cmaps["quadratic"], parents["quadratic"]):
            for name in ("jet", "forward", "displacement"):
                with pytest.raises(InputError, match=r"defined on \[0, 1\]"):
                    getattr(mapping, name)(x)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_anchor_recursion(self, cmaps, variant):
        cmap = cmaps[variant]
        anchors = np.empty(cmap.n_anchors + 1)
        anchors[0] = 0.5
        for i in range(cmap.n_anchors):
            anchors[i + 1] = anchors[i] - cmap.gaps[i]
        assert _same_bits(cmap.anchors, anchors)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_certification_pass(self, cmaps, variant):
        # the certificate's order-1 pass gives the jet's T' and displacement
        cmap = cmaps[variant]
        xs = np.linspace(cmap.table_floor, 1.0, 20001)
        disp, slope = cmap._displacement(xs, 1)
        assert _same_bits(1.0 - slope, cmap.jet(xs)[1])
        assert _same_bits(disp, cmap.displacement(xs))


def _parent_drops(seq):
    """The old drops of n indices from start: the closed form
    (2i + 21)/(i + 11)^2 for the quadratic sequence, 1 - f[1:]/f[:-1] on _f
    for the other."""
    if seq.variant == "quadratic":
        def closed_form(start, n):
            i = np.arange(start, start + n, dtype=float)
            return (2.0 * i + 21) / (i + 11) ** 2
        return closed_form

    def drops(start, n):
        f = seq._f(np.arange(start, start + n + 1, dtype=float))
        return 1.0 - f[1:] / f[:-1]
    return drops


def _parent_growth(cmap, drops, i_max=30_000_000, target_product=1e3):
    """probe_velocity_growth as it was: two float64 cumsums per block over
    concatenated carries, and the bound tested at every index."""
    seq = cmap.sequence
    res = otflow.pathology.GrowthResult(variant=cmap.variant)
    row_marks = otflow.pathology._geometric_marks(i_max)
    log_p = 0.0
    sum_drop = 0.0
    log_target = math.log(target_product)
    start = 0
    while start < i_max:
        n = min(otflow.pathology._GROWTH_BLOCK, i_max - start)
        d = drops(start, n)
        if d.min() <= 0.0:
            res.product_monotone = False
        lp = np.cumsum(np.concatenate(([log_p], np.log1p(d / 4.0))))
        sd = np.cumsum(np.concatenate(([sum_drop], d)))
        if np.any(np.exp(lp[:-1]) < 0.25 * sd[:-1]):
            res.bound_holds = False
        for mark in row_marks:
            if start <= mark < start + n:
                k = mark - start
                row = {"i": int(mark),
                       "alpha": float(seq.anchor(mark)),
                       "beta": float(seq.gap(mark)),
                       "tprime": float(cmap.anchor_derivative(mark)),
                       "product": float(np.exp(lp[k])),
                       "lower_bound": float(0.25 * sd[k])}
                if cmap.variant == "log_squared":
                    al = row["alpha"]
                    row["growth_scale"] = 1.0 / al - 2.0 * math.log(al)
                res.rows.append(row)
        log_p = float(lp[-1])
        sum_drop = float(sd[-1])
        start += n
        if log_p > log_target:
            k = int(np.searchsorted(lp, log_target, side="right"))
            res.crossing_index = start - n + k
            res.crossing_value = float(np.exp(lp[k]))
            break
    res.i_scanned = start
    return res


class _StubSequence:
    """Drops from a fixed formula of the index, for driving the growth scan
    through blocks that its one test per block must not settle."""

    variant = "stub"

    def __init__(self, formula):
        self.formula = formula

    def reference(self, start, n):
        return self.formula(np.arange(start, start + n, dtype=float))

    def drops(self, start, out):
        out[:] = self.reference(start, out.size)
        return out

    def anchor(self, i):
        return 1.0 / (i + 2.0)

    def gap(self, i):
        return 1.0 / ((i + 2.0) * (i + 3.0))


class TestGrowthAgainstParentScan:
    """The growth scan against its per-index form with float64 cumsums:
    equal rows, crossings and flags, bit for bit."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_default_scan(self, cmaps, variant):
        cmap = cmaps[variant]
        got = probe_velocity_growth(cmap)
        assert got == _parent_growth(cmap, _parent_drops(cmap.sequence))

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(start=st.integers(0, 93_000_000), n=st.integers(1, 64))
    @example(start=0, n=1)
    @example(start=94_906_254 - 11 - 64, n=64)
    def test_drops(self, cmaps, variant, start, n):
        # the quadratic form is exact while (i + 11)^2 < 2^53
        seq = cmaps[variant].sequence
        out = np.empty(n)
        assert seq.drops(start, out) is out
        assert _same_bits(out, _parent_drops(seq)(start, n))

    @pytest.mark.parametrize("formula, i_max, monotone, bound_holds", [
        # a drop of 40 then one of -3.99: the product falls below the bound
        (lambda i: np.where(i == 0, 40.0, np.where(i == 1, -3.99, 1.0 / (i + 1.0))),
         20_000, False, False),
        # one zero drop deep in the scan
        (lambda i: np.where(i == 4321, 0.0, 2.0 / (i + 11.0)), 20_000, False, True),
        # negative drops every seventh index
        (lambda i: np.where(i % 7 == 3, -0.01, 0.5 / (i + 1.0)), 20_000, False, True),
        # inside the last block the bound fails and the drop sum falls back
        # under its value at the block's start: only a drop's sign shows it
        (lambda i: np.where(i == 3500, 40.0, np.where((i > 3500) & (i < 3512), -3.99,
                                                      2.0 / (i + 11.0))),
         4_000, False, False),
        # all positive, but exp rounds the product 1 + 10^18 below the bound
        (lambda i: np.where(i == 0, 4e18, 2.0 / (i + 11.0)), 20_000, True, False),
    ])
    def test_stub_sequences(self, formula, i_max, monotone, bound_holds, monkeypatch):
        monkeypatch.setattr(otflow.pathology, "_GROWTH_BLOCK", 1000)
        seq = _StubSequence(formula)
        cmap = SimpleNamespace(variant=seq.variant, sequence=seq,
                               anchor_derivative=lambda i: 1.0 + seq.gap(i))
        kw = {"i_max": i_max, "target_product": 1e300}
        got = probe_velocity_growth(cmap, **kw)
        assert got == _parent_growth(cmap, seq.reference, **kw)
        assert (got.product_monotone, got.bound_holds) == (monotone, bound_holds)
        kw["target_product"] = 1.5
        assert probe_velocity_growth(cmap, **kw) == \
            _parent_growth(cmap, seq.reference, **kw)


class TestAnchorBreaks:
    """The probe reads the anchors' breaks from the table's joints."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_joints_give_the_anchor_breaks(self, variant, monkeypatch):
        _, _, itf = _probe_interval(monkeypatch, variant, (10, 100, 1000))
        table = itf.v_spline
        joints = table.joints
        breaks = np.concatenate(([0], joints - np.arange(1, joints.size + 1),
                                 [table.xn.size - 1 - joints.size]))
        assert np.array_equal(breaks, np.searchsorted(table.x, itf.anchors))
        assert np.array_equal(table.x[breaks], itf.anchors)


class TestFusedJet:
    """The fused (T, T', T''): T bitwise forward, T' and T'' matching
    differences of forward and of T'."""

    @pytest.mark.parametrize("variant", ["quadratic", "log_squared"])
    def test_jet_matches_callables(self, variant):
        cmap = build_counterexample(variant)
        xs = _jet_points(cmap)
        y, tp, tpp = cmap.jet(xs)
        assert _same_bits(y, cmap.forward(xs))
        # at 0 the jet reads the pinch's slope 1 - b_n/a_n, the one-sided
        # slope of forward on (0, floor)
        d1, _, _ = _differences(cmap, xs, 1e-4)
        _, d2, scale = _differences(cmap, xs, 1e-6)
        assert np.max(np.abs(d1 - tp)) <= 1e-6
        assert np.max(np.abs(d2 - tpp) / scale) <= 1e-3
        # elementwise: a slice of the points gets the same bits on its own,
        # which is what lets orbit marches share one call
        for g, w in zip(cmap.jet(xs[5:40]), cmap.jet(xs)):
            assert _same_bits(g, w[5:40])

    def test_scalar_jet(self):
        cmap = build_counterexample("quadratic")
        xs = np.array([0.0, cmap.table_floor, 0.3, 0.5, 0.9])
        arrays = cmap.jet(xs)
        for k, x in enumerate(xs):
            got = cmap.jet(float(x))
            assert _same_bits(got[0], cmap.forward(float(x))), x
            assert all(_same_bits(g, w[k]) for g, w in zip(got, arrays)), x

    def test_jet_refuses_outside_domain(self):
        cmap = build_counterexample("quadratic")
        with pytest.raises(InputError):
            cmap.jet(np.array([0.2, 1.5]))


def _brentq_inverse(cmap, y):
    """The per-point bracketed root solve the map's inverse once was."""
    flat = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty_like(flat)
    top = float(cmap.forward(np.array(1.0)))
    pinch = float(cmap.gaps[cmap.n_anchors] / cmap.anchors[cmap.n_anchors])
    floor_img = cmap.table_floor * (1.0 - pinch)
    n = cmap.n_anchors
    asc = cmap.anchors[::-1]
    for k, yv in enumerate(flat):
        assert 0.0 < yv <= top
        if yv <= floor_img:
            out[k] = yv / (1.0 - pinch)
            continue
        j = n - int(np.searchsorted(asc, yv, side="left"))
        if j <= 0:
            lo, hi = 0.5, 1.0
        else:
            j = min(j, n)
            lo, hi = float(cmap.anchors[j]), float(cmap.anchors[j - 1])
        out[k] = brentq(lambda t: float(cmap.forward(np.array(t))) - yv,
                        lo, hi, xtol=1e-15, rtol=8.9e-16)
    return out


class TestInverse:
    """The map's shared Newton inverse against the per-point brentq solve."""

    @pytest.mark.parametrize("variant", ["quadratic", "log_squared"])
    def test_matches_brentq(self, variant):
        cmap = build_counterexample(variant)
        inverse = cmap.to_monotone_map().inverse
        a, b, f = cmap.anchors, cmap.gaps, cmap.table_floor
        gaps = [a[j + 1] + u * b[j] for j in (0, 1, 7, 300, 5000, cmap.n_anchors - 1)
                for u in (0.05, 0.15, 0.5, 0.75, 0.9, 0.99)]
        xs = np.concatenate((a[::397], a[-3:], gaps, f * np.array([1e-6, 0.3, 0.999]),
                             [0.5 + 1e-9, 0.6, 0.75, 0.9, 1.0]))
        ys = cmap.forward(xs)
        got = inverse(ys)
        assert np.max(np.abs(got - _brentq_inverse(cmap, ys))) <= 1e-15
        assert np.max(np.abs(got - xs)) <= 1e-15
        assert inverse(float(ys[7])) == got[7]

    def test_refuses_outside_image(self):
        cmap = build_counterexample("quadratic")
        inverse = cmap.to_monotone_map().inverse
        for y in (-0.1, float(cmap.forward(1.0)) + 1e-9):
            with pytest.raises(InputError):
                inverse(np.array([0.3, y]))
        # the image is [T(0), T(1)], and T(0) = 0
        assert inverse(0.0) == 0.0


class TestValidation:
    """Bad construction and probe inputs are refused loudly."""

    def test_unknown_variant(self):
        with pytest.raises(InputError):
            build_counterexample("cubic")

    def test_nonpositive_level(self, log_squared_probe):
        cmap, _ = log_squared_probe
        with pytest.raises(InputError):
            probe_non_integrability(cmap, levels=(0,))

    def test_level_beyond_table(self, log_squared_probe):
        cmap, _ = log_squared_probe
        with pytest.raises(InputError):
            probe_non_integrability(cmap, levels=(cmap.n_anchors,))
