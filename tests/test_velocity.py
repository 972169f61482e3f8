"""Velocity construction: seeds, propagation, normalization, approximation.

The multiplicative propagation identity v(T(x)) = T'(x) v(x) is re-derived in
each test directly from the field and map callables, never read back from the
library's own residual report, so the two routes stay independent.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import otflow.velocity
from otflow.errors import (ConstructionError, InputError, InvalidMapError,
                           SearchFailureError, TransportError)
from otflow.measures import Gaussian, Uniform, translate, wasserstein1
from otflow.monotone import (FixedPointPartition, MovingInterval,
                             compute_monotone_map, map_from_callables)
from otflow.registry import get_example
from otflow.velocity import approximate_lipschitz, build_velocity, julia_residual
from test_distances import pl_densities

TOL_RESIDUAL = 1e-8
TOL_FLOW = 1e-6
TOL_CLOSED = 1e-10

LN3 = math.log(3.0)


def _manual_residual(field, xs):
    """Recompute the propagation defect from scratch at the given points."""
    T = field.map
    tx = np.asarray(T.forward(xs), dtype=float)
    lhs = field(tx)
    rhs = np.asarray(T.derivative(xs), dtype=float) * field(xs)
    good = np.isfinite(lhs) & np.isfinite(rhs)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs)[good] / scale[good]))


class TestSeedSpec:
    """The seed is specified by a profile name, checked before any work."""

    def test_unknown_kind(self, counted_map):
        T, calls = counted_map(compute_monotone_map(Uniform(1.0, 2.0),
                                                    Uniform(0.0, 3.0)))
        with pytest.raises(InputError, match="spline"):
            build_velocity(transport_map=T, seed="spline")
        assert not calls


@pytest.fixture(scope="module")
def field():
    return build_velocity(Uniform(1.0, 2.0), Uniform(0.0, 3.0))


class TestAffinePair:
    """Uniform [1, 2] to uniform [0, 3]: everything in closed form."""

    def test_velocity_closed_form(self, field):
        xs = np.linspace(0.05, 2.95, 1163)
        fixed = field.partition.fixed_intervals
        for a, b in fixed:
            xs = xs[(xs < a - 1e-9) | (xs > b + 1e-9)]
        v = field(xs)
        expect = (xs - 1.5) * LN3
        rel = np.abs(v - expect) / np.abs(expect)
        assert np.max(rel) <= 1e-8

    def test_velocity_derivative(self, field):
        xs = np.linspace(0.1, 2.9, 301)
        for a, b in field.partition.fixed_intervals:
            xs = xs[(xs < a - 1e-6) | (xs > b + 1e-6)]
        dv = field.derivative(xs)
        assert np.max(np.abs(dv - LN3)) <= 1e-7

    def test_residual_dual_route(self, field):
        # the functional equation is meaningful on the source support only;
        # outside it the quantile-route map saturates
        xs = np.concatenate([np.linspace(1.02, 1.48, 129),
                             np.linspace(1.52, 1.98, 129)])
        assert _manual_residual(field, xs) <= TOL_RESIDUAL
        assert julia_residual(field)["max_rel"] <= TOL_RESIDUAL

    def test_field_zero_on_fixed_set(self, field):
        for a, b in field.partition.fixed_intervals:
            mid = 0.5 * (a + b)
            assert field(np.array([mid]))[0] == 0.0


class TestSeedKinds:
    """Different admissible seeds give the same time-1 flow."""

    def test_affine_and_hermite_agree_at_time_one(self):
        # the cubic seed is the C^1 Hermite cubic
        from otflow.flow import flow
        m0, m1 = Uniform(1.0, 2.0), Uniform(0.0, 3.0)
        f_a = build_velocity(m0, m1, seed="affine")
        f_c = build_velocity(m0, m1, seed="cubic")
        xs = np.linspace(1.01, 1.99, 197)
        ya, yc = flow(f_a, 1.0, xs), flow(f_c, 1.0, xs)
        good = np.isfinite(ya) & np.isfinite(yc)
        assert np.max(np.abs(ya - yc)[good]) <= 1e-6

    def test_constant_seed_on_pure_translation(self):
        # T' = 1 on a translation, so the default affine seed is constant
        m0 = Uniform(0.0, 1.0)
        field = build_velocity(m0, translate(m0, 2.0))
        xs = np.linspace(0.1, 2.5, 41)
        v = field(xs)
        good = np.isfinite(v) & (v != 0.0)
        assert good.any()
        assert np.max(np.abs(v[good] - 2.0)) <= 1e-9, \
            "translation by 2 in unit time moves at speed 2"

    @staticmethod
    def _slope_jumps(field):
        """|v'| jumps at every interior break of the v tables: the left
        cell's slope at its end against the right cell's c1, relative to
        the largest slope at any cell end."""
        jumps = []
        for f in field.built_intervals:
            c3, c2, c1, _ = f.v_spline.c
            h = np.diff(f.v_spline.x)
            end = (3.0 * c3 * h + 2.0 * c2) * h + c1
            scale = max(np.max(np.abs(c1)), np.max(np.abs(end)))
            jumps.append(np.abs(end[:-1] - c1[1:]) / scale)
        return np.concatenate(jumps)

    @pytest.mark.parametrize("name,params", [
        ("bad-fixed-point", {}),
        ("accumulating-c1", {"n_tiers": 4}),
    ])
    def test_cubic_seed_is_c1_at_orbit_joints(self, name, params):
        # the cubic seed meets the derivative recursion at T(x0), so every
        # orbit joint is C^1; the affine one leaves v' jumps where T'' != 0
        ex = get_example(name, **params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cubic, affine = ex.build(seed="cubic"), ex.build(seed="affine")
        assert np.max(self._slope_jumps(cubic)) < 1e-12
        assert np.max(self._slope_jumps(affine)) > 1e-3


class TestCaseBuilders:
    """build_velocity handles each shape of fixed set: none, one point, and
    two points bounding a moving interval."""

    def test_no_fixed_point_disjoint(self):
        from otflow.flow import _osgood_rows, flow
        m0, m1 = Uniform(0.0, 1.0), Uniform(2.0, 3.0)
        field = build_velocity(m0, m1)
        assert field.partition.fixed_intervals == ()
        xs = np.linspace(0.05, 0.95, 101)
        T = field.map
        y = flow(field, 1.0, xs)
        good = np.isfinite(y)
        assert good.sum() > 90
        assert np.max(np.abs(y[good] - np.asarray(T.forward(xs))[good])) <= TOL_FLOW
        # the free trailing end anchors the seed, so Osgood row m = 1 is the
        # independent quadrature of 1/|v| across the seed interval
        (f,) = field.built_intervals
        assert f.zone_trail is None
        assert tuple(f.anchors[:2]) == f.seed_interval
        (first,) = [r for r in _osgood_rows(field) if r["m"] == 1]
        assert abs(first["integral"] - 1.0) <= 1e-6, first

    def test_one_fixed_point_accepts_affine(self):
        field = build_velocity(Uniform(1.0, 2.0), Uniform(0.0, 3.0))
        (fi,) = field.partition.fixed_intervals
        assert fi[1] - fi[0] <= 1e-3 * (field.domain[1] - field.domain[0])

    def test_two_fixed_points_quadratic(self):
        from otflow.flow import flow
        from otflow.monotone import map_from_callables

        def jet(x):
            x = np.asarray(x, dtype=float)
            return x ** 2, 2.0 * x, np.full_like(x, 2.0)

        T = map_from_callables(
            lambda x: np.asarray(x, dtype=float) ** 2, jet,
            inverse=lambda y: np.sqrt(np.asarray(y, dtype=float)))
        field = build_velocity(transport_map=T, domain=(0.0, 1.0))
        assert len(field.partition.fixed_intervals) == 2
        assert any(i.lo_is_fixed and i.hi_is_fixed
                   for i in field.partition.moving_intervals)
        xs = np.linspace(0.15, 0.9, 151)
        y = flow(field, 1.0, xs)
        good = np.isfinite(y)
        assert good.sum() > 140
        assert np.max(np.abs(y[good] - xs[good] ** 2)) <= TOL_FLOW


class TestApproximateLipschitz:
    """Shift search for a Lipschitz field within a transport budget."""

    def test_shift_within_budget(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m0 = Uniform(0.0, 2.0)
            m1 = Uniform(0.0, 2.0)
            res = approximate_lipschitz(m0, m1, 1e-2)
        assert 0.0 < abs(res.shift) <= 1e-2
        assert wasserstein1(m1, res.field.map.target) <= 1e-2 + 1e-12

    def test_detected_slopes_away_from_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = approximate_lipschitz(Uniform(0.0, 2.0), Uniform(0.0, 2.0),
                                        1e-2)
        T = res.field.map
        for p in res.field.partition.fixed_points:
            tp = float(np.asarray(T.derivative(p)))
            assert abs(tp - 1.0) > 1e-6 or not res.field.partition.fixed_points

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchFailureError):
            approximate_lipschitz(Uniform(0.0, 2.0), Uniform(0.0, 2.0), 1e-2,
                                  budget=0)

    def test_failed_candidate_is_skipped(self, monkeypatch):
        real = otflow.velocity.find_fixed_points
        calls = []

        def first_fails(T, **kw):
            calls.append(T)
            if len(calls) == 1:
                raise InvalidMapError("rejected candidate")
            return real(T, **kw)

        monkeypatch.setattr(otflow.velocity, "find_fixed_points", first_fails)
        # the unshifted gaussian pair is admissible, so only the injected
        # failure moves the search on to the second candidate, +eps/2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = approximate_lipschitz(Gaussian(0.0, 1.0), Gaussian(1.0, 2.0),
                                        1e-2)
        assert res.candidates_tried == 2 and res.shift == 0.5e-2

    def test_dyadic_scan_order(self):
        from otflow.velocity import _dyadic_fractions
        assert list(_dyadic_fractions(10)) == [
            0.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.125, -0.125, 0.375]

    @pytest.mark.parametrize("k", [5, 10])
    def test_scan_resumes_to_candidate_k(self, monkeypatch, k):
        from otflow.velocity import _dyadic_fractions
        real = otflow.velocity.find_fixed_points
        calls = []

        def first_fail(T, **kw):
            calls.append(T)
            if len(calls) < k:
                raise TransportError("rejected candidate")
            return real(T, **kw)

        monkeypatch.setattr(otflow.velocity, "find_fixed_points", first_fail)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = approximate_lipschitz(Gaussian(0.0, 1.0), Gaussian(1.0, 2.0),
                                        1e-2)
        assert res.candidates_tried == k == len(calls)
        assert res.shift == 1e-2 * list(_dyadic_fractions(k))[-1]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(T, **kw):
            raise ZeroDivisionError("bug in the search")

        monkeypatch.setattr(otflow.velocity, "find_fixed_points", broken)
        with pytest.raises(ZeroDivisionError):
            approximate_lipschitz(Uniform(0.0, 2.0), Uniform(0.0, 2.0), 1e-2)

    def test_gaussian_equal_pair(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = approximate_lipschitz(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0),
                                        5e-3)
        xs = np.linspace(-2.0, 2.0, 401)
        v = res.field(xs)
        good = np.isfinite(v)
        dv = np.diff(v[good]) / np.diff(xs[good])
        assert np.max(np.abs(dv)) < 50.0, "the shifted field must stay Lipschitz"


class TestTruncationZones:
    """Fields with an indeterminate end record and expose their gap."""

    def test_zone_recorded(self, bad_fixed_point_built):
        _, field = bad_fixed_point_built
        zones = field.truncation_zones()
        assert zones, "harmonic-rate end should leave a truncation zone"
        z = min(zones, key=lambda z: z.fp)
        assert z.fp == 0.0 and z.flagged
        assert 0.0 < z.edge < 0.01

    def test_flagged_zone_warning_text(self, bad_fixed_point_built):
        _, field = bad_fixed_point_built
        text = " ".join(field.all_warnings())
        assert "slope 1" in text and "truncation" in text


class TestFixedEnds:
    """Detected fixed ends are the map's roots, so every zone pinches at the
    rate ln T'(fp) from inside its interval."""

    def test_affine_grid_root_is_one_point(self, affine_built):
        # the scan grid hits the root 1.5 exactly; it must stay a point
        _, field = affine_built
        assert field.partition.fixed_intervals == ((1.5, 1.5),)
        zones = field.truncation_zones()
        assert len(zones) == 2
        for z in zones:
            assert abs(z.rate - LN3) <= 1e-3

    def test_radius_pair_root_at_the_window_end(self, radial_disks):
        # T(0) = 2e-150 through the probability floor: a root at the end
        _, field_nd, _ = radial_disks
        field = field_nd.field
        assert field.partition.fixed_intervals == ((0.0, 0.0),)
        (z,) = field.truncation_zones()
        assert abs(z.rate - math.log(2.0)) <= 1e-3

    def test_march_past_a_fixed_end_raises(self, affine_built):
        # fixed ends 1e-10 of the width outside the root, on the moving
        # side: both backward marches converge to 1.5 and pass them
        ex, field = affine_built
        part = field.partition
        ((fp, _),) = part.fixed_intervals
        d = 1e-10 * (part.domain[1] - part.domain[0])
        below, above = part.moving_intervals
        inflated = replace(part, fixed_intervals=((fp - d, fp + d),),
                           moving_intervals=(replace(below, hi=fp - d),
                                             replace(above, lo=fp + d)))
        with pytest.raises(ConstructionError, match="passed its fixed end"):
            replace(ex, partition=inflated).build()

    @given(pl_densities(), pl_densities())
    def test_random_pairs_pinch_inside(self, m0, m1):
        T = compute_monotone_map(m0, m1)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                field = build_velocity(m0, m1, transport_map=T)
        except TransportError:
            return
        # a root one ulp off leaves |T(p) - p| of about T'(p) ulps
        scale = np.spacing(max(abs(e) for e in m0.window(1e-10)))
        for a, b in field.partition.fixed_intervals:
            if a == b:
                gap = abs(float(T.forward(a)) - a)
                assert gap <= 4.0 * scale * max(1.0, float(T.derivative(a)))
        for f in field.built_intervals:
            for z in (f.zone_trail, f.zone_lead):
                if z is None:
                    continue
                assert f.lo < z.edge < f.hi
                if not z.flagged:
                    assert z.rate * math.log(float(T.derivative(z.fp))) > 0.0


def _solo(partition, itv):
    return FixedPointPartition(domain=partition.domain,
                               fixed_intervals=partition.fixed_intervals,
                               moving_intervals=(itv,),
                               indeterminate=partition.indeterminate)


def _table_bits(f):
    return [a.tobytes() for sp in (f.v_spline, f.F_spline)
            for a in (sp.x, sp.c)]


class TestLockstepMarching:
    """Marching all intervals together changes no interval's tables."""

    @pytest.mark.parametrize("name,params", [
        ("accumulating-c1", {"n_tiers": 5}),   # alternating directions
        ("affine", {}),                        # one interval each way
    ])
    def test_interval_alone_matches_combined_build(self, name, params):
        ex = get_example(name, **params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            combined = ex.build()
        partition = combined.partition
        assert {itv.direction for itv in partition.moving_intervals} == {-1, 1}
        for itv, f in zip(partition.moving_intervals, combined.intervals):
            # a fixed trailing end makes the interval march both ways
            assert f.depth_forward > 0 and f.depth_backward > 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                alone = replace(ex, partition=_solo(partition, itv)).build()
            (g,) = alone.intervals
            assert _table_bits(g) == _table_bits(f)
            assert (g.zone_trail, g.zone_lead) == (f.zone_trail, f.zone_lead)
            assert g.warnings == f.warnings

    def test_failure_names_interval_direction_and_depth(self):
        # T(x) = 2x, but the supplied T' turns negative on (0.1, 0.2): only
        # the backward march of the second interval reaches it, at depth 2
        def jet(x):
            x = np.asarray(x, dtype=float)
            return (2.0 * x, np.where((x > 0.1) & (x < 0.2), -2.0, 2.0),
                    np.zeros_like(x))

        T = map_from_callables(
            lambda x: 2.0 * np.asarray(x, dtype=float), jet,
            inverse=lambda y: 0.5 * np.asarray(y, dtype=float))
        partition = FixedPointPartition(
            domain=(-1.0, 1.0), fixed_intervals=((0.0, 0.0),),
            moving_intervals=(MovingInterval(-1.0, 0.0, -1, False, True),
                              MovingInterval(0.0, 1.0, 1, True, False)))
        with pytest.raises(ConstructionError) as err:
            build_velocity(transport_map=T, partition=partition, domain=(-1.0, 1.0))
        msg = str(err.value)
        assert "interval (0, 1)" in msg
        assert "backward march" in msg and "depth 2" in msg
        assert "changed sign" in msg

    def test_cinf_build_work_counts(self, counted_map):
        # a backward round solves T^(-1) on its own jet: one T.jet call on
        # the forward sources and the guesses, a second only in rounds where
        # a Newton step still moves some entry, and T.inverse, with its jet
        # call, only for entries that step leaves over one ulp; no forward
        # call in a round.  Each seed adds one T.forward and one
        # T.derivative call.  T.inverse takes the fixed six Newton steps,
        # a jet call each, and one forward call for the residual
        ex = get_example("accumulating-cinf")
        T, calls = counted_map(ex.transport_map)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = replace(ex, transport_map=T).build()
        built = field.built_intervals
        rounds = max(max(f.depth_forward, f.depth_backward) for f in built)
        assert rounds == 6000
        extra = calls["jet"] - rounds - len(built)
        assert 0 <= 2 * calls["inverse"] <= extra <= rounds // 2
        assert calls["inverse"] <= rounds // 50
        assert calls["forward"] == len(built)
        assert calls["inverse jet"] == 6 * calls["inverse"]
        assert calls["inverse forward"] == calls["inverse"]
        # map evaluations of the whole build, about 28,700 when every
        # round called T.inverse
        assert sum(calls.values()) - calls["inverse"] <= 9000


class _ReferenceMarch:
    """One march advanced on its own arrays: the per-march form of the
    lockstep loop, kept as the reference of the struct-of-arrays march.
    g holds the first guesses of T^(-1) at its nodes (x itself where no jet
    is known).  cut is the first depth whose source the clip cut; inserts
    and thinnings count its clip-boundary inserts and thinnings."""

    def __init__(self, m):
        self.x, self.v, self.dv, self.F = m.seed
        self.g = self.x
        self.forward, self.clip, self.stop_at = m.forward, m.clip, m.stop_at
        self.reach_sign, self.min_step = m.reach_sign, m.min_step
        self.tol_reach, self.name = m.tol_reach, m.name
        self.far = -1 if m.forward else 0
        self.pieces = []
        self.reason = "max-steps"
        self.edge = self._node(self.x, self.v, self.F)
        self.inserts = self.thinnings = 0
        self.cut = None

    def _node(self, x, v, F):
        i = self.far
        return float(x[i]), float(v[i]), float(F[i])

    def clip_and_thin(self, depth, thin_depth, thin_nodes) -> bool:
        from otflow.velocity import _local_hermite
        clip_lo, clip_hi = self.clip
        x, v, dv, F, g = self.x, self.v, self.dv, self.F, self.g
        keep = (x >= clip_lo) & (x <= clip_hi)
        n_keep = int(np.count_nonzero(keep))
        if n_keep < 2:
            self.reason = "boundary"
            return False
        if n_keep < x.size:
            self.cut = self.cut or depth
            bound = clip_hi if (x.max() > clip_hi) else clip_lo
            v_b, dv_b = _local_hermite(x, v, dv, bound)
            with np.errstate(divide="ignore"):
                F_b, _ = _local_hermite(x, F, 1.0 / v, bound)
            x, v, dv, F, g = (a[keep] for a in (x, v, dv, F, g))
            at = x.size if self.forward else 0
            if x[self.far] != bound:
                self.inserts += 1
                x, v, dv, F, g = (np.insert(a, at, b) for a, b in
                                  zip((x, v, dv, F, g), (bound, v_b, dv_b, F_b, bound)))
        if depth >= thin_depth and x.size > thin_nodes:
            self.thinnings += 1
            idx = np.unique(np.round(
                np.linspace(0, x.size - 1, thin_nodes)).astype(int))
            x, v, dv, F, g = (a[idx] for a in (x, v, dv, F, g))
        self.x, self.v, self.dv, self.F, self.g = x, v, dv, F, g
        return True

    def advance(self, x, v, dv, F, g) -> bool:
        self.pieces.append((x, v, dv, F))
        far_prev = float(self.x[self.far])
        self.edge = self._node(x, v, F)
        far = self.edge[0]
        if self.stop_at is not None and \
                self.reach_sign * (far - self.stop_at) >= -self.tol_reach:
            self.reason = "complete"
            return False
        if abs(far - far_prev) <= self.min_step:
            self.reason = "min-step"
            return False
        self.x, self.v, self.dv, self.F, self.g = x, v, dv, F, g
        return True


def _reference_images(T, y, guess):
    """T^(-1)(y) and (T, T', T'') there for a map with newton_domain, by the
    march's rule: the guess clipped into the Newton bracket where the Newton
    step there is at most one ulp; else one clipped Newton step where the
    step there is; else T.inverse(y)."""
    lo, hi = T.newton_domain
    x = np.clip(guess, lo, hi)
    jet = np.array(T.jet(x), dtype=float).reshape(3, -1)
    for last in (False, True):
        step = (jet[0] - y) / np.where(np.abs(jet[1]) > 1e-30, jet[1], 1.0)
        off = ~(np.abs(step) <= np.spacing(np.abs(x)))
        if not off.any():
            break
        x = x.copy()
        x[off] = (np.asarray(T.inverse(y[off]), dtype=float) if last
                  else np.clip(x[off] - step[off], lo, hi))
        jet[:, off] = np.array(T.jet(x[off]), dtype=float).reshape(3, -1)
    return x, jet


def _reference_lockstep(T, marches, cfg):
    """Every round: clip and thin each march and concatenate all sources.
    A closed-form inverse takes one T.inverse and one T.jet call; a Newton
    inverse is solved march by march from the guesses (_reference_images).
    Then the results are split per march."""
    import bisect
    import itertools
    from otflow.velocity import _DEEP_PIECE_DEPTH, _DEEP_PIECE_NODES
    live = list(marches)
    for depth in range(1, cfg.orbit_max_steps + 1):
        live = [m for m in live if m.clip_and_thin(
            depth, _DEEP_PIECE_DEPTH, _DEEP_PIECE_NODES)]
        if not live:
            break
        live.sort(key=lambda m: not m.forward)
        bounds = list(itertools.accumulate((m.x.size for m in live), initial=0))
        segs = [slice(i, j) for i, j in zip(bounds, bounds[1:])]
        n_fwd = bounds[sum(m.forward for m in live)]
        x, v, dv, F = (np.concatenate(a) for a in
                       zip(*((m.x, m.v, m.dv, m.F) for m in live)))
        solve = T.newton_domain is not None and n_fwd < x.size
        if solve:
            parts = [(x[:n_fwd], np.array(T.jet(x[:n_fwd]), dtype=float).reshape(3, -1))]
            parts += [_reference_images(T, m.x, m.g) for m in live if not m.forward]
            at = np.concatenate([p[0] for p in parts])
            img, tp, tpp = np.concatenate([p[1] for p in parts], axis=1)
        else:
            at = x
            if n_fwd < x.size:
                at = np.concatenate((x[:n_fwd], np.asarray(T.inverse(x[n_fwd:]),
                                                           dtype=float)))
            img, tp, tpp = T.jet(at)
        f, b = slice(None, n_fwd), slice(n_fwd, None)
        v_b = v[b] / tp[b]
        new_x, new_v, new_dv, new_F = (np.concatenate(p) for p in zip(
            (img[f], tp[f] * v[f], dv[f] + v[f] * tpp[f] / tp[f], F[f] + 1.0),
            (at[b], v_b, dv[b] - v_b * tpp[b] / tp[b], F[b] - 1.0)))
        for m, seg in zip(live, segs):
            if not m.forward:
                i, j = seg.start, seg.stop - 1
                new_x[j], new_v[j], new_F[j] = x[i], v[i], F[i]
        finite = np.isfinite(new_x) & np.isfinite(new_v) & np.isfinite(new_dv)
        signs = np.repeat([math.copysign(1.0, m.v[0]) for m in live], np.diff(bounds))
        ok = finite & (new_v * signs > 0.0)
        if not ok.all():
            k = bisect.bisect_right(bounds, int(np.argmin(ok))) - 1
            raise ConstructionError(f"{live[k].name}: depth {depth}")
        # the next guesses: the second-order Taylor inverse from the jet at
        # at, for the node new_x (at itself but at a pinned junction)
        g = new_x
        if solve:
            r = new_x - img
            g = at + r / tp - tpp * (r * r) / (2.0 * tp ** 3)
        live = [m for m, seg in zip(live, segs) if m.advance(
            new_x[seg], new_v[seg], new_dv[seg], new_F[seg], g[seg])]


def sudakov_pairs_that_build():
    """The d = 2 pairs of the sudakov benchmark whose ray field builds."""
    from otflow.sudakov import BallMeasure, ProductMeasure
    return (
        (BallMeasure((0.0, 0.0), 1.0), BallMeasure((0.0, 0.0), 2.0)),
        (ProductMeasure((Gaussian(0.0, 1.0), Uniform(0.0, 1.0))),
         ProductMeasure((Gaussian(0.0, 1.0), Uniform(1.0, 3.0)))),
        (ProductMeasure((Uniform(0.0, 1.0), Gaussian(0.0, 1.0))),
         ProductMeasure((Uniform(0.0, 1.0), Gaussian(1.0, 2.0)))))


def test_lockstep_matches_per_march_loop(monkeypatch):
    """Every registry build, and the field of every sudakov pair that
    builds, marches bitwise as the per-march loop does: nodes, piece sizes,
    stop reasons, far edges and first clip cuts of every march."""
    from otflow.registry import example_names
    from otflow.sudakov import assemble_field, decompose
    lockstep = otflow.velocity._march_lockstep
    pairs = []

    def checked(T, marches, cfg):
        refs = [_ReferenceMarch(m) for m in marches]
        _reference_lockstep(T, refs, cfg)
        lockstep(T, marches, cfg)
        pairs.extend(zip(marches, refs))

    monkeypatch.setattr(otflow.velocity, "_march_lockstep", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in example_names():
            get_example(name).build()
        for m0, m1 in sudakov_pairs_that_build():
            assemble_field(decompose(m0, m1))
    for m, ref in pairs:
        pieces = ref.pieces if m.forward else ref.pieces[::-1]
        assert m.sizes.tolist() == [p[0].size for p in pieces], m.name
        # the march's own pieces: its slice of the interval's tables in
        # motion order, at the end of the motion when forward
        motion = [a if m.ascending else a[::-1] for a in m.interval_nodes]
        n, total = int(m.sizes.sum()), motion[0].size
        lo = total - n if m.forward else 0
        for got, want in zip((a[lo:lo + n] for a in motion), zip(*pieces)):
            assert got.tobytes() == np.concatenate(want).tobytes(), m.name
        assert (m.reason, m.edge, m.cut) == (ref.reason, ref.edge, ref.cut), m.name
    # the builds reach every layout change: clip-boundary inserts,
    # thinnings, and marches stopping at different depths for each reason
    assert sum(r.inserts for _, r in pairs) >= 3
    assert sum(r.thinnings for _, r in pairs) >= 10
    assert len({len(r.pieces) for _, r in pairs}) >= 10
    assert {r.reason for _, r in pairs} >= {"complete", "min-step", "max-steps"}


def _backward_nodes_solved(T, build):
    """Run build() and check every backward node x of its rounds against
    its image node y: the Newton step (T(x) - y) / T'(x) is at most one ulp
    of x, or x is T.inverse(y) bitwise.  Returns how many nodes passed the
    step test."""
    rounds = []
    march = otflow.velocity._Layout.march

    def recorded(self, T, depth, n_rows):
        # each depth's backward sources and new backward nodes, pinned
        # junctions included: the block's x rows after the layout's sources
        sources = self.nodes[0]
        out = march(self, T, depth, n_rows)
        xs = np.vstack((sources, out[0][0]))[:, self.n_fwd:]
        rounds.extend(zip(xs[:-1], xs[1:]))
        return out

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(otflow.velocity._Layout, "march", recorded)
        build()
    passed = 0
    for y, x in rounds:
        fx, d, _ = T.jet(x)
        step = (fx - y) / np.where(np.abs(d) > 1e-30, d, 1.0)
        ok = np.abs(step) <= np.spacing(np.abs(x))
        passed += int(np.count_nonzero(ok))
        inverse = np.asarray(T.inverse(y[~ok]), dtype=float)
        assert x[~ok].tobytes() == inverse.tobytes()
    return passed


class TestBackwardSolve:
    """Maps whose inverse is the shared Newton solve: the march solves
    T^(-1) on its own jet, and every backward node it keeps is a solution."""

    @settings(max_examples=12)
    @given(variant=st.sampled_from(["c1", "cinf"]), n_tiers=st.integers(3, 8),
           max_steps=st.integers(64, 512))
    def test_accumulating_nodes_solve_their_images(self, variant, n_tiers,
                                                   max_steps):
        from otflow.config import DEFAULT_CONFIG
        ex = get_example(f"accumulating-{variant}", n_tiers=n_tiers)
        T = ex.transport_map
        assert T.newton_domain == (0.0, 1.0)
        config = DEFAULT_CONFIG.with_(orbit_max_steps=max_steps)
        assert _backward_nodes_solved(T, lambda: build_velocity(
            ex.m0, ex.m1, transport_map=T, partition=ex.partition,
            config=config)) > 0

    @settings(max_examples=12)
    @given(c=st.floats(0.05, 0.9))
    def test_callables_without_inverse(self, c):
        # T(x) = x + c x (1 - x) on [0, 1]: fixed ends 0 and 1, the
        # backward march toward 0
        def jet(x):
            x = np.asarray(x, dtype=float)
            return (x + c * x * (1.0 - x), 1.0 + c * (1.0 - 2.0 * x),
                    np.full_like(x, -2.0 * c))

        T = map_from_callables(lambda x: jet(x)[0], jet, domain=(0.0, 1.0))
        partition = FixedPointPartition(
            domain=(0.0, 1.0), fixed_intervals=((0.0, 0.0), (1.0, 1.0)),
            moving_intervals=(MovingInterval(0.0, 1.0, 1, True, True),))
        assert T.newton_domain == (0.0, 1.0)
        assert _backward_nodes_solved(T, lambda: build_velocity(
            transport_map=T, partition=partition, domain=(0.0, 1.0))) > 0


def test_closed_form_inverses_keep_one_call_per_round(monkeypatch, counted_map):
    """Maps with a closed-form inverse never take the Newton path: every
    round with a backward march makes one T.inverse and one T.jet call, and
    no other map call."""
    from otflow.sudakov import BallMeasure, assemble_field, decompose
    lockstep = otflow.velocity._march_lockstep
    seen = []

    def counted(T, marches, cfg):
        counted_T, calls = counted_map(T)
        lockstep(counted_T, marches, cfg)
        seen.append((T, marches, calls))

    monkeypatch.setattr(otflow.velocity, "_march_lockstep", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("affine", "gaussian", "bad-fixed-point"):
            get_example(name).build()
        assemble_field(decompose(BallMeasure((0.0, 0.0), 1.0),
                                 BallMeasure((0.0, 0.0), 2.0)))
    assert len(seen) == 4
    for T, marches, calls in seen:
        assert T.newton_domain is None
        rounds = max(m.sizes.size for m in marches)
        backward = max(m.sizes.size for m in marches if not m.forward)
        assert backward > 0
        assert calls == {"inverse": backward, "jet": rounds}


def _blocked_builds(block, cmaps):
    """Every registry build, the sudakov fields that build and the probe
    builds of cmaps at depth 300 (past the depth-64 thinning), marched in
    blocks of `block` node values.  Returns per built interval its node
    table, joints and whole counts, with per march its piece sizes, stop
    reason and first cut; and per block its rows asked for, and whether it
    changed the layout on its last depth."""
    from otflow.pathology import probe_non_integrability
    from otflow.registry import example_names
    from otflow.sudakov import assemble_field, decompose
    V = otflow.velocity
    finish, march = V._finish_interval, V._Layout.march
    fields, blocks = [], []

    def recorded_finish(s, *args):
        f = finish(s, *args)
        marches = [m for m in (s.forward, s.backward) if m is not None]
        fields.append((
            [a.tobytes() for a in (f.v_spline.xn, f.v_spline.yn, f.v_spline.dn,
                                   f.F_spline.yn)],
            f.v_spline.joints.tolist(), f.whole_forward, f.whole_backward,
            [(m.sizes.tolist(), m.reason, m.cut) for m in marches]))
        return f

    def recorded_march(self, T, depth, n_rows):
        block_rows, keep = march(self, T, depth, n_rows)
        blocks.append((n_rows, keep is not None and len(block_rows[0]) == n_rows))
        return block_rows, keep

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(V, "_MARCH_BLOCK", block)
        mp.setattr(V, "_finish_interval", recorded_finish)
        mp.setattr(V._Layout, "march", recorded_march)
        for name in example_names():
            get_example(name).build()
        for m0, m1 in sudakov_pairs_that_build():
            assemble_field(decompose(m0, m1))
        for cmap in cmaps:
            probe_non_integrability(cmap, levels=(10, 300))
    return fields, blocks


def test_block_boundaries_change_nothing():
    """Blocks of one depth and of a small odd size march bitwise as the
    default blocks do; with the odd size, stops and clip cuts land on the
    last depth of blocks of several depths."""
    from otflow.pathology import build_counterexample
    cmaps = [build_counterexample(v) for v in ("quadratic", "log_squared")]
    default, blocks = _blocked_builds(otflow.velocity._MARCH_BLOCK, cmaps)
    assert max(n for n, _ in blocks) > 64
    for block in (1, 385):
        fields, blocks = _blocked_builds(block, cmaps)
        assert len(fields) == len(default)
        for got, want in zip(fields, default):
            assert got == want
        rows = [n for n, _ in blocks]
        assert max(rows) == 1 if block == 1 else 1 < max(rows) <= block // 2
    assert sum(last for n, last in blocks if n > 1) >= 5


def test_non_finite_march_names_its_depth():
    # T' overflows in the quantile map's jet at the first forward depth
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ConstructionError) as err:
            build_velocity(Uniform(0.0, 1.0), Gaussian(1.0, 2.0))
    assert str(err.value) == ("interval (-11.7227, 0.377877), forward march: "
                              "orbit march produced non-finite node data at depth 1")
    assert [(w.category, w.filename.rsplit("/", 1)[-1], str(w.message))
            for w in seen] == [(RuntimeWarning, "monotone.py",
                                "overflow encountered in multiply")]


def test_sign_change_names_the_reference_depth(monkeypatch):
    # T(x) = x + x (1 - x) / 2 on [0, 1] with the Newton inverse, but the
    # supplied T' turns negative on (0.99, 0.991), which the forward march
    # reaches in the middle of a block; the reference loop names the same
    # march and depth
    def jet(x):
        x = np.asarray(x, dtype=float)
        tp = 1.0 + 0.5 * (1.0 - 2.0 * x)
        return (x + 0.5 * x * (1.0 - x), np.where((x > 0.99) & (x < 0.991), -tp, tp),
                np.full_like(x, -1.0))

    T = map_from_callables(lambda x: jet(x)[0], jet, domain=(0.0, 1.0))
    partition = FixedPointPartition(
        domain=(0.0, 1.0), fixed_intervals=((0.0, 0.0), (1.0, 1.0)),
        moving_intervals=(MovingInterval(0.0, 1.0, 1, True, True),))
    lockstep = otflow.velocity._march_lockstep
    expected = []

    def checked(T, marches, cfg):
        with pytest.raises(ConstructionError) as ref:
            _reference_lockstep(T, [_ReferenceMarch(m) for m in marches], cfg)
        expected.append(str(ref.value))
        lockstep(T, marches, cfg)

    monkeypatch.setattr(otflow.velocity, "_march_lockstep", checked)
    with pytest.raises(ConstructionError) as err:
        build_velocity(transport_map=T, partition=partition, domain=(0.0, 1.0))
    name, depth = expected[0].rsplit(": depth ", 1)
    assert int(depth) > 2
    assert str(err.value) == (f"{name}: propagated field changed sign at depth "
                              f"{depth}; the map derivative is not positive there")


def _reference_hermite_ppoly(segments):
    """Per-segment loop form of the assembled Hermite coefficients."""
    xl, xr, yl, yr, dl, dr, breaks = [], [], [], [], [], [], []
    for k, (x, y, d) in enumerate(segments):
        breaks.append(x if k == 0 else x[1:])
        xl.append(x[:-1]); xr.append(x[1:])
        yl.append(y[:-1]); yr.append(y[1:])
        dl.append(d[:-1]); dr.append(d[1:])
    xl, xr, yl, yr, dl, dr = (np.concatenate(a) for a in (xl, xr, yl, yr, dl, dr))
    h = xr - xl
    m = (yr - yl) / h
    c2 = (3.0 * m - 2.0 * dl - dr) / h
    c3 = (dl + dr - 2.0 * m) / (h * h)
    return np.concatenate(breaks), np.vstack((c3, c2, dl, yl))


def _segments(x, y, d, joints):
    return list(zip(*(np.split(a, joints) for a in (x, y, d))))


def test_hermite_assembly_matches_segment_loop():
    from otflow.velocity import CubicTable, _check_nodes
    rng = np.random.default_rng(3)
    cuts = np.cumsum(rng.uniform(0.1, 1.0, 40))
    segments = []
    for a, b, n in zip(cuts[:-1], cuts[1:], rng.integers(2, 9, 39)):
        x = np.linspace(a, b, n)
        segments.append((x, rng.normal(size=n), rng.normal(size=n)))
    joints = np.cumsum([seg[0].size for seg in segments[:-1]])
    flat = [np.concatenate(a) for a in zip(*segments)]
    pp = CubicTable(*flat, joints)
    bx, c = _reference_hermite_ppoly(segments)
    assert pp.x.tobytes() == bx.tobytes() and pp.c.tobytes() == c.tobytes()
    # the abscissae serve as a clock that is equal at every joint
    _check_nodes(flat[0], flat[0], joints)
    x = flat[0].copy()
    x[joints[4]:joints[5]] += 1e-3      # the sixth segment moves off its joint
    with pytest.raises(ConstructionError, match="junction mismatch"):
        _check_nodes(x, flat[0], joints)


def test_boundary_hermite_matches_scipy_spline():
    # the clip boundary's value and slope, bitwise those of scipy's spline
    from scipy.interpolate import CubicHermiteSpline
    from otflow.velocity import _local_hermite
    rng = np.random.default_rng(5)
    for n in rng.integers(2, 65, 200):
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) * 10.0 ** rng.integers(-6, 3)
        y, d = rng.normal(size=n), rng.normal(size=n)
        sp = CubicHermiteSpline(x, y, d)
        for xq in (x[0], x[-1], x[rng.integers(n)], rng.uniform(x[0], x[-1])):
            want = (float(sp(xq)), float(sp.derivative()(xq)))
            assert _local_hermite(x, y, d, xq) == want
            assert _local_hermite(x[::-1], y[::-1], d[::-1], xq) == want


@st.composite
def hermite_segments(draw):
    """Node segments for _hermite_ppoly: ascending breaks, some of them one
    to three ulps apart, values shared at the joints and two independently
    drawn one-sided slopes there.  Ulp-close breaks stay away from 0, where
    an ulp is subnormal and the cell's squared width underflows."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    n_breaks = sum(sizes) - len(sizes) + 1
    x = [draw(st.floats(-1e3, 1e3))]
    for _ in range(n_breaks - 1):
        ulps = draw(st.integers(0, 3)) if abs(x[-1]) >= 1e-3 else 0
        nxt = x[-1] + draw(st.floats(1e-6, 10.0)) if ulps == 0 else x[-1]
        for _ in range(ulps):
            nxt = np.nextafter(nxt, np.inf)
        x.append(float(nxt))
    # values and slopes of at least 1e-6 or 0, so no sum runs subnormal
    unit = st.floats(-10.0, 10.0).map(lambda v: v if abs(v) >= 1e-6 else 0.0)
    y = draw(st.lists(unit, min_size=n_breaks, max_size=n_breaks))
    starts = np.cumsum([0] + [n - 1 for n in sizes])
    idx = np.concatenate([np.arange(a, a + n) for a, n in zip(starts, sizes)])
    d = draw(st.lists(unit, min_size=idx.size, max_size=idx.size))
    joints = np.cumsum(sizes[:-1], dtype=int)
    return np.array(x)[idx], np.array(y)[idx], np.array(d), joints


def _same_bits(a, b):
    """Bitwise equal, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@given(hermite_segments())
def test_cubic_table_matches_scipy_ppoly(segments):
    # scipy's PPoly over the segment loop's rows is the reference for the
    # cells the node table forms where they are read
    from scipy.interpolate import PPoly
    from otflow.velocity import CubicTable
    table = CubicTable(*segments)
    x, c = _reference_hermite_ppoly(_segments(*segments))
    ref = PPoly(c, x)
    width = max(x[-1] - x[0], 1.0)
    cells = x[:-1, None] + np.diff(x)[:, None] * np.array([0.25, 0.5, 0.75])
    beyond = np.array([1e-3, 1.0, 10.0]) * width
    xq = np.concatenate((x, cells.ravel(), x[0] - beyond, x[-1] + beyond,
                         [np.nan, np.inf, -np.inf]))
    for nu in (0, 1):
        assert _same_bits(table(xq, nu), ref(xq, nu))
        for t in (x[0], x[-1], xq[-4]):
            assert _same_bits(table(t, nu), ref(t, nu))
    # relative to the sum's own scale, the integral of the terms' absolute
    # values: a cell's terms can cancel to a zero integral
    want = ref.antiderivative()(x)
    got = table.cumulative()
    scale = PPoly(np.abs(c), x).antiderivative()(x)
    assert got.shape == want.shape and got[0] == 0.0
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@given(hermite_segments())
def test_hermite_rows_in_place_match_segment_loop(segments):
    # the rows formed on demand, alone, over the same nodes, or from
    # reciprocal slopes, keep the bits of the per-segment form, one-sided
    # joint slopes included
    from otflow.velocity import CubicTable
    x, y, d, joints = segments
    d = np.where(d == 0.0, 1.0, d)
    table = CubicTable(x, y, d, joints)
    shared = CubicTable(x, 2.0 * y, d[::-1].copy(), joints)
    clock = CubicTable(x, y, d, joints, reciprocal=True)
    for got, data in ((table, (x, y, d)), (shared, (x, 2.0 * y, d[::-1])),
                      (clock, (x, y, 1.0 / d))):
        bx, c = _reference_hermite_ppoly(_segments(*data, joints))
        assert got.x.tobytes() == bx.tobytes()
        assert _same_bits(got.c, c)
        p = np.delete(np.arange(x.size - 1), joints - 1)
        assert all(_same_bits(a, b) for a, b in zip(got.cells(p), c))
    assert shared.xn is table.xn


def test_build_holds_each_node_table_once(peak_traced):
    """An accumulating-cinf build (527,770 breaks) keeps its four node
    columns, the piece anchors and the joints, at most 36 bytes a node,
    and peaks at most 1.4 times that; both tables of each interval read one
    node table."""
    ex = get_example("accumulating-cinf")
    with warnings.catch_warnings(), peak_traced() as mem:
        warnings.simplefilter("ignore")
        field = ex.build()
    nodes = sum(f.v_spline.xn.size for f in field.built_intervals)
    assert mem.held <= 36 * nodes, (mem.held, nodes)
    assert mem.peak <= 1.4 * mem.held, (mem.peak, mem.held)
    for f in field.built_intervals:
        v, F = f.v_spline, f.F_spline
        assert F.xn is v.xn and F.dn is v.yn and F.joints is v.joints
        assert F.reciprocal and not v.reciprocal


def test_cubic_table_rejects_higher_derivatives():
    from otflow.velocity import CubicTable
    table = CubicTable(np.array([0.0, 1.0]), np.ones(2), np.ones(2),
                       np.empty(0, dtype=int))
    with pytest.raises(InputError, match="derivative order"):
        table(0.5, 2)


@given(pl_densities(), pl_densities())
def test_node_tables_match_segment_loop(m0, m1):
    """On random pairs no build fails at a junction: both copies of x and
    of F are bitwise equal at every joint, and each table's value, slope
    and integral are bitwise those of the tables the per-segment loop
    assembles from the same nodes."""
    from scipy.interpolate import PPoly
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = build_velocity(m0, m1)
    except TransportError as e:
        assert "junction mismatch" not in str(e)
        return
    for f in field.built_intervals:
        x, j = f.v_spline.xn, f.v_spline.joints
        F = f.F_spline.yn
        assert x[j - 1].tobytes() == x[j].tobytes()
        assert F[j - 1].tobytes() == F[j].tobytes()
        for table, d in ((f.v_spline, f.v_spline.dn), (f.F_spline, 1.0 / f.v_spline.yn)):
            bx, c = _reference_hermite_ppoly(_segments(x, table.yn, d, j))
            ref = PPoly(c, bx)
            xq = np.concatenate((x, 0.5 * (bx[:-1] + bx[1:])))
            for nu in (0, 1):
                assert _same_bits(table(xq, nu), ref(xq, nu))
            h = np.diff(bx)
            c3, c2, c1, c0 = c
            cell = h * (c0 + h * (c1 / 2.0 + h * (c2 / 3.0 + h * (c3 / 4.0))))
            want = np.concatenate(([0.0], np.cumsum(cell)))
            assert table.cumulative().tobytes() == want.tobytes()


@pytest.mark.parametrize("column", ["x", "F"])
def test_junction_copies_must_match(column):
    """A joint whose two copies of x or of F differ by one ulp raises."""
    from otflow.velocity import IntervalField
    (f,) = build_velocity(Uniform(0.0, 1.0), Uniform(2.0, 3.0)).built_intervals
    v = f.v_spline
    nodes = [a.copy() for a in (v.xn, v.yn, v.dn, f.F_spline.yn)]
    kw = dict(lo=f.lo, hi=f.hi, direction=f.direction, x0=f.x0, seed=f.seed,
              seed_interval=f.seed_interval, time_scale=f.time_scale,
              joints=v.joints, depth_forward=f.depth_forward,
              depth_backward=f.depth_backward, whole_forward=f.whole_forward,
              whole_backward=f.whole_backward, zone_trail=None, zone_lead=None,
              warnings=())
    IntervalField(nodes=nodes, **kw)
    a = nodes[0 if column == "x" else 3]
    k = v.joints[v.joints.size // 2]
    a[k] = np.nextafter(a[k], np.inf)
    with pytest.raises(ConstructionError, match="junction mismatch"):
        IntervalField(nodes=nodes, **kw)


def _argsort_dispatch(field, x, per_interval, fill=0.0, unbuilt=None):
    """Reference for VelocityField1D._dispatch: a stable argsort of the
    points, then one searchsorted slice per interval in list order."""
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x).ravel()
    out = flat.copy() if fill is None else np.full(flat.shape, fill, dtype=float)
    order = np.argsort(flat, kind="stable")
    sx = flat[order]
    for f in field.intervals:
        is_unbuilt = isinstance(f, otflow.velocity.UnbuiltInterval)
        if is_unbuilt and unbuilt is None:
            continue
        i0 = int(np.searchsorted(sx, f.lo, side="left"))
        i1 = int(np.searchsorted(sx, f.hi, side="right"))
        if i1 > i0:
            idx = order[i0:i1]
            out[idx] = unbuilt if is_unbuilt else per_interval(f, flat[idx])
    if x.ndim == 0:
        return float(out[0])
    return out.reshape(np.shape(x))


def _field_with_unbuilt_interval():
    from otflow.config import DEFAULT_CONFIG
    from otflow.measures import AffineImage
    m0 = Uniform(1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = build_velocity(m0, AffineImage(m0, 1.0 / 3.0, -3.0),
                               config=DEFAULT_CONFIG.with_(min_interval_rel=0.6))
    assert field.unbuilt_intervals
    return field


@pytest.mark.parametrize("name", ["affine_built", "gaussian_built",
                                  "bad_fixed_point_built",
                                  "accumulating_c1_built", "unbuilt"])
def test_dispatch_equals_stable_argsort(name, request):
    """Evaluation and flow through _dispatch equal the stable-argsort
    dispatcher bitwise: random points, every interval end (shared ends
    included), points outside the domain, a 2-D array and a scalar."""
    field = (_field_with_unbuilt_interval() if name == "unbuilt"
             else request.getfixturevalue(name)[1])
    lo, hi = field.domain
    rng = np.random.default_rng(7)
    ends = np.array([e for f in field.intervals for e in (f.lo, f.hi)])
    xs = np.concatenate((rng.uniform(lo - 0.1 * (hi - lo), hi, 20000), ends, ends))
    rng.shuffle(xs)
    xs = xs.reshape(-1, 2)
    laws = ((lambda f, p: f.evaluate(p), 0.0, None),
            (lambda f, p: f.Finv_extended(f.F_extended(p) + 0.75), None, np.nan))
    for law, fill, unbuilt in laws:
        for pts in (xs, float(ends[-1]), float(ends[0])):
            got = field._dispatch(pts, law, fill=fill, unbuilt=unbuilt)
            want = _argsort_dispatch(field, pts, law, fill=fill, unbuilt=unbuilt)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.shape(got) == np.shape(want)


def test_clock_inverse_blocks_share_one_newton_loop(affine_built, monkeypatch):
    """A query whose first block converges sweeps before its second gets
    the same bits in blocks of 7 as in one block: every block keeps
    stepping until the whole query has converged."""
    f = affine_built[1].built_intervals[0]
    # the clock values of the last orbit step; some points, solved alone,
    # stop sweeps before the query does and end on other bits
    u = np.random.default_rng(5).uniform(f.F_hi - 1.0, f.F_hi, 3000)
    alone = np.array([f._F_inverse(u[i:i + 1])[0] for i in range(u.size)])
    early = u[alone != f._F_inverse(u)][:7]
    assert early.size == 7
    first = f._F_inverse(early)
    # a point that keeps a query of the early ones stepping past them
    late = next(q for q in u
                if not np.array_equal(f._F_inverse(np.append(early, q))[:7], first))
    u = np.append(early, late)
    want = f._F_inverse(u)
    monkeypatch.setattr(otflow.velocity, "_BLOCK", 7)
    assert want.tobytes() == f._F_inverse(u).tobytes()


@pytest.mark.parametrize("name", ["affine_built", "accumulating_cinf_built"])
def test_block_size_changes_no_bit(name, request, monkeypatch):
    """Flows at t = 1 and 0.5, the field and its slope, in blocks of 7
    points, are bitwise those of the default blocks."""
    from otflow.flow import flow
    field = request.getfixturevalue(name)[1]
    lo, hi = field.domain
    xs = np.random.default_rng(11).uniform(lo, hi, 3000)

    def run():
        return [flow(field, 1.0, xs), flow(field, 0.5, xs),
                field.evaluate(xs), field.derivative(xs)]

    want = run()
    monkeypatch.setattr(otflow.velocity, "_BLOCK", 7)
    assert all(_same_bits(a, b) for a, b in zip(run(), want))


def test_flow_peak_memory_per_point(affine_built, peak_traced):
    """A 100,000-point flow holds its Newton state and a block of
    temporaries: at most 48 bytes a point at its peak."""
    from otflow.flow import flow
    field = affine_built[1]
    lo, hi = field.domain
    xs = np.random.default_rng(3).uniform(lo, hi, 100_000)
    with peak_traced() as mem:
        flow(field, 1.0, xs)
    assert mem.peak <= 48 * xs.size, mem.peak / xs.size
