"""Monotone transport maps and their fixed point structure.

The map contract: every MonotoneMap carries forward(x) = T(x), a fused
jet(x) = (T, T', T'') whose first entry is bitwise forward(x), and a
vectorised inverse(y) = T^(-1)(y).  Orbit marching needs (T, T', T'') at
every depth and T^(-1) on the backward side, and takes them from here alone.

compute_monotone_map builds the increasing rearrangement between two
measures, T = quantile_target o cdf_source, composed through (p, 1-p) pairs
so both tails keep full precision; its jet takes T' from the density ratio
pdf_source(x) / pdf_target(T(x)), with a finite difference fallback where the
ratio degenerates, and T'' from the density derivatives.  map_from_callables
wraps closed-form maps, which bring their exact jet.  This module is the one
place that inverts a map without a closed-form inverse: map_from_callables
gives it the shared fixed-step Newton inverse on its jet, which refuses
values outside the image of its bracket; such a map keeps that bracket as
newton_domain.

find_fixed_points scans g = T(x) - x on a dyadic grid in array passes: a run
of two or more points with |g| <= tol is a plateau; a lone such point, or a
sign change, is a root of g; a lone point without a sign change, or a small
local minimum of |g|, is a touch, a root of g' = T' - 1.  One bracketed Newton
pass on the map's jet refines them all to roundoff.  The complement
decomposes into open intervals on which x and T(x) move the same direction;
each carries that direction sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_CONFIG, BuildConfig
from .errors import InputError, InvalidMapError
from .measures import Measure1D

__all__ = [
    "MonotoneMap",
    "compute_monotone_map",
    "map_from_callables",
    "FixedPointPartition",
    "MovingInterval",
    "find_fixed_points",
]

# probabilities are clamped away from exact 0/1 before quantile composition so
# unbounded targets map support endpoints to (large) finite points
_P_FLOOR = 1e-300

# a fixed end whose map slope lies within this window of 1 is indeterminate:
# orbits converge to it harmonically, not geometrically
_INDETERMINATE_SLOPE_TOL = 1e-8


# ======================================================================
# map objects
# ======================================================================

@dataclass(frozen=True)
class MonotoneMap:
    """Strictly increasing map: forward, fused jet and inverse.

    forward(x) is T(x), jet(x) is (T, T', T'') at once and inverse(y) is
    T^(-1)(y); all three accept scalars or arrays and act elementwise.  The
    one condition binding them: forward(x) equals jet(x)[0] bitwise.
    compute_monotone_map and map_from_callables build maps that meet it.

    The jet is exact: the quantile composition's comes from the measures'
    densities (a finite difference only where their ratio is 0/0), and a
    closed-form map brings its own.  newton_domain is the bracket [lo, hi]
    of inverse when inverse is the shared Newton solve on the jet, the one
    inverse map_from_callables gives a map without a closed form; it accepts
    y in [T(lo), T(hi)] only.  The orbit march then solves T^(-1) itself,
    starting from each node's previous jet, and calls inverse only where
    that start fails.  None, the default, marks a closed-form inverse (the
    quantile compositions among them), which the march always calls.
    """

    forward: Callable
    inverse: Callable
    jet: Callable
    source: Measure1D | None = None
    target: Measure1D | None = None
    newton_domain: tuple[float, float] | None = None

    def derivative(self, x):
        """T'(x), the middle entry of the jet."""
        return self.jet(x)[1]


def compute_monotone_map(m0: Measure1D, m1: Measure1D) -> MonotoneMap:
    """Increasing rearrangement pushing m0 onto m1, via tail-paired quantiles.

    The jet composes the quantiles once and reuses y = T(x) in
    T' = pdf0(x) / pdf1(y) and T'' = (pdf0'(x) - T'^2 pdf1'(y)) / pdf1(y).
    """

    def forward(x):
        return _compose(m0, m1, x)

    def jet(x):
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        y = np.asarray(forward(x_arr), dtype=float)
        p1 = np.atleast_1d(np.asarray(m1.pdf(y), dtype=float))
        tp = _density_ratio(m0, forward, x_arr, p1)
        num = m0.pdf_derivative(x_arr) - tp * tp * m1.pdf_derivative(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            tpp = np.where(p1 != 0.0, num / np.where(p1 != 0.0, p1, 1.0), np.nan)
        if scalar:
            return float(y[0]), float(tp[0]), float(tpp[0])
        return y, tp, tpp

    return MonotoneMap(forward, lambda y: _compose(m1, m0, y), jet, m0, m1)


def _compose(a: Measure1D, b: Measure1D, x):
    """quantile_b o cdf_a at x, through the tail-accurate (p, 1 - p) pair."""
    p, q = a.cdf_pair(x)
    return b.quantile_pair(np.clip(p, _P_FLOOR, 1.0), np.clip(q, _P_FLOOR, 1.0))


def _density_ratio(m0, forward, x, p1):
    """T' = pdf0(x) / p1 on the array x, where p1 = pdf1(T(x)), with a
    central difference of forward where the ratio is not finite (0/0)."""
    p0 = np.atleast_1d(np.asarray(m0.pdf(x), dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(p1 > 0.0, p0 / np.where(p1 > 0.0, p1, 1.0), np.nan)
    bad = ~np.isfinite(out)
    if np.any(bad):
        lo, hi = m0.support
        w_lo, w_hi = m0.window(1e-10)
        h = max(1e-7 * max(w_hi - w_lo, 1e-300), 1e-12)
        xb = x[bad]
        xl = np.maximum(xb - h, lo if math.isfinite(lo) else xb - h)
        xr = np.minimum(xb + h, hi if math.isfinite(hi) else xb + h)
        with np.errstate(invalid="ignore"):
            fd = (np.asarray(forward(xr), dtype=float)
                  - np.asarray(forward(xl), dtype=float)) / (xr - xl)
        out[bad] = fd
    return out


def map_from_callables(forward: Callable, jet: Callable, *,
                       inverse: Callable | None = None,
                       source: Measure1D | None = None,
                       target: Measure1D | None = None,
                       domain: tuple[float, float] | None = None) -> MonotoneMap:
    """Wrap a closed-form map: forward, its exact jet (T, T', T''), whose
    first entry is bitwise forward, and its inverse when it has one.

    A map given without an inverse gets the shared Newton inverse on the jet,
    bracketed by domain (required in that case), which becomes the map's
    newton_domain.  That inverse raises InputError for y outside the image
    [T(lo), T(hi)] of the bracket, whose ends are computed here, once.
    """
    if inverse is not None:
        return MonotoneMap(forward, inverse, jet, source, target)
    if domain is None:
        raise InputError("map_from_callables: domain is required to invert numerically")
    lo, hi = float(domain[0]), float(domain[1])
    y_lo, y_hi = map(float, np.asarray(forward(np.array([lo, hi])), dtype=float))

    def newton_inverse(y):
        y = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y)
        outside = flat[~((flat >= y_lo) & (flat <= y_hi))]
        if outside.size:
            raise InputError(f"inverse: {outside[0]:g} outside the image "
                             f"[{y_lo:g}, {y_hi:g}]")
        return _newton_inverse(forward, lambda x: jet(x)[:2], y, lo, hi)

    return MonotoneMap(forward, newton_inverse, jet, source, target, (lo, hi))


def _bisect_inverse(forward, y, lo, hi, iters: int = 64):
    """Vectorized bisection for a strictly increasing map on [lo, hi]
    (scalars, or arrays shaped like y)."""
    y = np.asarray(y, dtype=float)
    a = np.full(y.shape, lo, dtype=float)
    b = np.full(y.shape, hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        below = np.asarray(forward(mid), dtype=float) < y
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


def _newton_step(fx, d, y):
    """The Newton step (T(x) - y) / T'(x) from fx = T(x) and d = T'(x),
    dividing by 1 where |d| is under 1e-30."""
    return (fx - y) / np.where(np.abs(d) > 1e-30, d, 1.0)


def _newton_inverse(forward, value_slope, y, lo, hi, iters: int = 6, start=None):
    """Vectorized Newton inverse with a bisection fallback per entry.

    value_slope(x) returns (T(x), T'(x)), its first entry bitwise forward(x).
    Seeds at start, by default at y, clipped into [lo, hi] (lo, hi, start
    scalars or arrays shaped like y); the default suits maps near the
    identity.  Takes iters steps, clipping iterates into [lo, hi], and hands
    any entry that has not converged to 1e-14 relative residual over to
    plain bisection on forward.
    """
    y = np.asarray(y, dtype=float)
    x = np.clip(y if start is None else start, lo, hi)
    for _ in range(iters):
        fx, d = value_slope(x)
        x = np.clip(x - _newton_step(fx, d, y), lo, hi)
    resid = np.abs(np.asarray(forward(x), dtype=float) - y)
    bad = resid > 1e-14 * np.maximum(np.abs(y), 1.0)
    if np.any(bad):
        x = np.where(bad, _bisect_inverse(forward, y, lo, hi), x)
    return x


# ======================================================================
# fixed point structure
# ======================================================================

@dataclass(frozen=True)
class MovingInterval:
    """Open interval between fixed boundaries on which the map moves one way."""

    lo: float
    hi: float
    direction: int          # +1 if T(x) > x on the interval, -1 if T(x) < x
    lo_is_fixed: bool       # True when the endpoint is a fixed boundary of the map
    hi_is_fixed: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class FixedPointPartition:
    """Fixed set of a monotone map plus the signed moving complement.

    fixed_intervals are closed, disjoint, sorted; single points appear as
    degenerate [a, a] intervals.  moving_intervals partition the rest of the
    working domain.  indeterminate marks fixed boundaries where |T' - 1| falls
    below _INDETERMINATE_SLOPE_TOL (orbit truncation will be harmonic there).
    """

    domain: tuple[float, float]
    fixed_intervals: tuple[tuple[float, float], ...]
    moving_intervals: tuple[MovingInterval, ...]
    indeterminate: tuple[float, ...] = ()

    @property
    def fixed_points(self) -> tuple[float, ...]:
        """Flat sorted list of fixed-interval endpoints (plateaus contribute two)."""
        out = []
        for a, b in self.fixed_intervals:
            out.append(a)
            if b != a:
                out.append(b)
        return tuple(out)


def find_fixed_points(T: MonotoneMap, *, domain: tuple[float, float] | None = None,
                      config: BuildConfig = DEFAULT_CONFIG,
                      search: tuple[float, float] | None = None) -> FixedPointPartition:
    """Locate the fixed set of T and the signed moving intervals around it.

    domain is the working interval the partition should cover (defaults to the
    convex hull of the source and target windows); search restricts where fixed
    points may occur (defaults to the source window, where the map is defined).

    g = T(x) - x is sampled on the search grid; a grid point is near when
    |g| <= tol.  A run of two or more near points is a plateau with edges
    where |g| = tol.  A lone near point is a root of g when its neighbours'
    signs differ or it ends the grid, and a touch, a root of g' = T' - 1,
    otherwise.  A sign change between points that are not near is a root of
    g.  A local minimum of |g| under max(1e6 tol, (4 h)^2), h the grid step,
    without a sign change is a touch, kept when |g| <= tol there.  One
    bracketed Newton pass refines them all.  Fixed ends with
    |T' - 1| <= 1e-8 (_INDETERMINATE_SLOPE_TOL), or a slope that is not
    finite, are flagged indeterminate.  config supplies eps_tail for the
    default windows, fixed_point_grid and fixed_point_tol_rel.
    """
    if domain is None:
        if T.source is None or T.target is None:
            raise InputError("find_fixed_points: domain required for measure-free maps")
        w0 = T.source.window(config.eps_tail)
        w1 = T.target.window(config.eps_tail)
        domain = (min(w0[0], w1[0]), max(w0[1], w1[1]))
    if search is None:
        search = domain if T.source is None else T.source.window(config.eps_tail)
    lo, hi = float(domain[0]), float(domain[1])
    slo, shi = max(float(search[0]), lo), min(float(search[1]), hi)
    if not shi > slo:
        raise InputError("find_fixed_points: empty search interval")
    width = hi - lo
    tol = config.fixed_point_tol_rel * width

    n = int(config.fixed_point_grid)
    xs = np.linspace(slo, shi, n + 1)
    g = np.asarray(T.forward(xs), dtype=float) - xs
    if not np.all(np.isfinite(g)):
        raise InvalidMapError("find_fixed_points: map returned non-finite values on the grid")
    ag, sgn = np.abs(g), np.sign(g)
    near = ag <= tol

    # runs of near points by first and last index; a lone point is a run of one
    step = np.diff(near.astype(np.int8), prepend=0, append=0)
    first, last = np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1
    run = first < last
    lone, first, last = first[~run], first[run], last[run]
    inner = lone[(lone > 0) & (lone < n)]
    touch = inner[sgn[inner - 1] * sgn[inner + 1] > 0]
    crossing = np.setdiff1d(lone, touch)
    n_lone_touch = touch.size       # kept whatever |g| reads at their root
    cell = np.flatnonzero(~near[:-1] & ~near[1:] & (sgn[:-1] * sgn[1:] < 0))
    cand_tol = max(tol * 1e6, (4.0 * (shi - slo) / n) ** 2)
    minimum = (~near[1:-1] & (sgn[:-2] * sgn[2:] >= 0) & (ag[1:-1] <= cand_tol)
               & (ag[1:-1] < ag[:-2]) & (ag[1:-1] < ag[2:]))
    touch = np.concatenate((touch, 1 + np.flatnonzero(minimum)))

    # brackets [xs[ia], xs[ib]] seeded at xs[seed]: plateau edges solve
    # g = +-tol, crossings g = 0, touches g' = 0 (slope T'')
    left, right = first[first > 0], last[last < n]
    ia = np.concatenate((left - 1, right, np.maximum(crossing - 1, 0), cell, touch - 1))
    ib = np.concatenate((left, right + 1, np.minimum(crossing + 1, n), cell + 1, touch + 1))
    seed = np.concatenate((left, right, crossing,
                           np.where(ag[cell] <= ag[cell + 1], cell, cell + 1), touch))
    c = np.concatenate((sgn[left - 1] * tol, sgn[right + 1] * tol,
                        np.zeros(crossing.size + cell.size + touch.size)))
    turn = np.arange(ia.size) >= ia.size - touch.size
    # orient each bracket so that the bisection fallback sees an increasing function
    sigma = np.where(turn, sgn[ia], np.where(g[ib] >= g[ia], 1.0, -1.0))

    def value_slope(x):
        y, tp, tpp = (np.asarray(a, dtype=float) for a in T.jet(x))
        return (sigma * np.where(turn, tp - 1.0, y - x),
                sigma * np.where(turn, tpp, tp - 1.0))

    # with no touch bracket T.forward, bitwise the jet's value, gives the residual
    residual = ((lambda x: value_slope(x)[0]) if turn.any() else
                (lambda x: sigma * (np.asarray(T.forward(x), dtype=float) - x)))
    r = np.empty(0)
    if ia.size:
        r = _newton_inverse(residual, value_slope, sigma * c,
                            xs[ia], xs[ib], start=xs[seed])
    r_lo, r_hi, points, r_touch = np.split(r, np.cumsum(
        (left.size, right.size, crossing.size + cell.size)))
    p_lo, p_hi = xs[first], xs[last]
    p_lo[first > 0], p_hi[last < n] = r_lo, r_hi
    if r_touch.size:
        keep = np.abs(np.asarray(T.forward(r_touch), dtype=float) - r_touch) <= tol
        keep[:n_lone_touch] = True
        points = np.concatenate((points, r_touch[keep]))
    fixed = _merge_intervals(list(zip(p_lo, p_hi)) + [(p, p) for p in points],
                             gap=max(tol, 4.0 * (shi - slo) / n * 1e-6))

    # fixed ends whose slope is numerically 1, or not finite
    ends = np.unique(np.asarray(fixed, dtype=float))
    indeterminate = ()
    if ends.size:
        off = np.abs(np.asarray(T.jet(ends)[1], dtype=float) - 1.0)
        indeterminate = tuple(map(float, ends[~(off > _INDETERMINATE_SLOPE_TOL)]))

    # --- moving complement ----------------------------------------------------
    moving: list[MovingInterval] = []
    prev = lo
    for a, b in fixed:
        if a > prev + max(tol, 0.0):
            moving.append(_make_moving(T, prev, a, prev > lo or _is_fixed_at(fixed, prev),
                                       True, slo, shi, tol))
        prev = max(prev, b)
    if hi > prev + max(tol, 0.0):
        moving.append(_make_moving(T, prev, hi, _is_fixed_at(fixed, prev), False,
                                   slo, shi, tol))

    return FixedPointPartition(domain=(lo, hi),
                               fixed_intervals=tuple(fixed),
                               moving_intervals=tuple(moving),
                               indeterminate=indeterminate)


def _is_fixed_at(fixed, x):
    return any(abs(x - a) == 0.0 or abs(x - b) == 0.0 for a, b in fixed)


def _make_moving(T, a, b, lo_fixed, hi_fixed, slo, shi, tol):
    """Build a MovingInterval, reading the direction inside the searchable part."""
    pa, pb = max(a, slo), min(b, shi)
    if pb <= pa:
        # interval lies outside where T is defined; direction from the nearer side
        probes = np.array([np.clip(0.5 * (a + b), slo, shi)])
    else:
        probes = pa + (pb - pa) * np.array([0.25, 0.5, 0.75])
    gv = np.asarray(T.forward(probes), dtype=float) - probes
    s = np.sign(gv[np.abs(gv) > tol])
    if s.size == 0:
        raise InvalidMapError(
            f"moving interval ({a:.6g}, {b:.6g}): displacement is numerically zero; "
            "fixed point detection missed a plateau")
    if not np.all(s == s[0]):
        raise InvalidMapError(
            f"moving interval ({a:.6g}, {b:.6g}): displacement changes sign "
            "away from the detected fixed set; refine the fixed point grid")
    return MovingInterval(a, b, int(s[0]), lo_fixed, hi_fixed)


def _merge_intervals(intervals, gap):
    if not intervals:
        return []
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    out = [list(ivs[0])]
    for a, b in ivs[1:]:
        if a <= out[-1][1] + gap:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]
