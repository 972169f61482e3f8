"""Maps near an indeterminate fixed point whose realizing velocities blow up.

The construction places anchor points a_0 = 1/2 > a_1 > ... -> 0 with gaps
b_i = a_i - a_(i+1), and defines a displacement D > 0 on (0, 1/2] by gluing one
smooth profile per gap so that the map x -> x - D(x) sends each anchor to the
next.  The gap sequence is chosen so the anchor derivatives multiply to
infinity: any sign-definite velocity field realizing the map through the
functional equation v(T(x)) = T'(x) v(x) is then unbounded near 0, and for the
slower gap sequence not even locally integrable.

Two gap sequences:
  quadratic    b_i ~ 1/(i+10)^2     (velocity unbounded near 0)
  log_squared  b_i ~ 1/((i+6) log^2(i+6))   (velocity not L1 near 0)

The profile is one C^2 family: quintic-smoothstep ramps onto a plateau, then
an exactly linear tail of slope -1/4 on [9/10, 1].  The linear tail keeps
preimages of anchor neighborhoods uniformly deep inside the previous gap, and
the C^2 joins make the glued map twice differentiable across anchors, so
propagated derivative tables never mix one-sided values.  Closed-form bounds:
the slope stays in [-1/2, plateau height], the plateau height stays below 3/2
whenever the left-end slope parameter is below 1/2, and the whole map keeps
T' within [1/2, 3/2] whenever consecutive gaps shrink by at most 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import polygamma

from .config import DEFAULT_CONFIG, BuildConfig
from .errors import ConstructionError, InputError
from .measures import Uniform
from .monotone import (FixedPointPartition, MonotoneMap, MovingInterval,
                       _newton_inverse)
from .velocity import SeedSpec, build_velocity

__all__ = [
    "BumpProfile",
    "CounterexampleMap",
    "build_counterexample",
    "probe_velocity_growth",
    "probe_non_integrability",
    "GrowthResult",
    "DivergenceResult",
]

# profile region boundaries: ramp up, plateau, ramp down, linear tail
_R1, _R2, _R3 = 0.15, 0.75, 0.9
_TAIL_SLOPE = -0.25


def _sstep(w):
    """Cubic smoothstep: 0 -> 1 with zero slope at both ends.

    Used to ramp the profile slope, so the profile curvature vanishes at
    region joins; the low polynomial degree keeps propagated fields easy to
    interpolate at fixed node counts.
    """
    return w * w * (3.0 - 2.0 * w)


def _sstep_d(w):
    return 6.0 * w * (1.0 - w)


def _sstep_anti(w):
    return w * w * w * (1.0 - 0.5 * w)


class BumpProfile:
    """One-parameter family q(u; g) of gap profiles on [0, 1].

    q(0) = 0, q(1) = 1; left-end slope q'(0) = -g, right-end slope -1/4 with
    q' exactly -1/4 on [9/10, 1]; the interior plateau height balances the
    integral to 1.  All evaluations are vectorized and broadcast over (u, g).
    """

    @staticmethod
    def plateau(g):
        return (1.04375 + 0.075 * np.asarray(g, dtype=float)) / 0.75

    def jet(self, u, g):
        """(q, q', q'') at (u, g), one region split for all three."""
        u = np.asarray(u, dtype=float)
        a = -np.asarray(g, dtype=float)
        h = self.plateau(g)
        u, a, h = np.broadcast_arrays(u, a, h)
        val, slope, curv = np.empty_like(u), np.empty_like(u), np.zeros_like(u)
        w3 = _R3 - _R2
        q1 = _R1 * (a + h) / 2.0                      # value at _R1
        q2 = q1 + h * (_R2 - _R1)                     # value at _R2
        q3 = q2 + h * w3 + (_TAIL_SLOPE - h) * w3 * 0.5   # value at _R3
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

    def certify(self, g_max: float):
        """Closed-form range checks for all parameters up to g_max."""
        if not 0.0 < g_max < 0.5:
            raise ConstructionError(
                f"profile slope parameter must lie in (0, 1/2), worst is {g_max:g}")
        h_max = float(self.plateau(g_max))
        if h_max > 1.5:
            raise ConstructionError(
                f"profile plateau {h_max:g} exceeds 3/2 at parameter {g_max:g}")
        # slope range is [min(-g, -1/4), plateau]: ramps are monotone between
        # their endpoint values, so no interior extremum escapes it
        return {"slope_min": -max(g_max, 0.25), "slope_max": h_max}


# ======================================================================
# gap sequences
# ======================================================================

class _QuadraticSeq:
    """b_i = gamma/(i+10)^2 with gamma making the gaps sum to 1/2."""

    variant = "quadratic"
    offset = 10

    def __init__(self):
        self.tail0 = float(polygamma(1, self.offset))
        self.gamma = 0.5 / self.tail0

    def gap(self, i):
        i = np.asarray(i, dtype=float)
        return self.gamma / (i + self.offset) ** 2

    def anchor(self, i):
        """a_i = sum of gaps from i on, via the exact trigamma tail."""
        i = np.asarray(i, dtype=float)
        return self.gamma * polygamma(1, i + self.offset)

    def drop(self, i):
        """1 - b_(i+1)/b_i in cancellation-free closed form."""
        i = np.asarray(i, dtype=float)
        o = self.offset
        return (2.0 * i + 2 * o + 1) / (i + o + 1) ** 2


class _LogSquaredSeq:
    """b_i = gamma/((i+k) log^2(i+k)); k keeps consecutive-gap ratios >= 2/3."""

    variant = "log_squared"
    offset = 6
    _K = 256    # explicit terms before the midpoint tail estimate

    def __init__(self):
        self.tail0 = self._tail(0)
        self.gamma = 0.5 / self.tail0

    def _f(self, t):
        t = np.asarray(t, dtype=float) + self.offset
        ln = np.log(t)
        return 1.0 / (t * ln * ln)

    def _tail(self, i: int) -> float:
        js = np.arange(i, i + self._K, dtype=float)
        head = float(np.sum(self._f(js)))
        c = i + self._K - 0.5 + self.offset
        ln = math.log(c)
        remainder = 1.0 / ln - (ln + 2.0) / (24.0 * c * c * ln ** 3)
        return head + remainder

    def gap(self, i):
        return self.gamma * self._f(i)

    def anchor(self, i):
        i = np.asarray(i)
        out = np.array([self.gamma * self._tail(int(k)) for k in np.atleast_1d(i)])
        return out if i.ndim else float(out[0])

    def drop(self, i):
        return 1.0 - self._f(np.asarray(i, dtype=float) + 1.0) / self._f(i)


_SEQUENCES = {"quadratic": _QuadraticSeq, "log_squared": _LogSquaredSeq}


# ======================================================================
# the glued map
# ======================================================================

class CounterexampleMap:
    """Monotone self-map of (0, 1] with T(x) = x - displacement(x).

    anchors[i] follow the recursion anchors[i+1] = anchors[i] - gaps[i]
    starting from 1/2, so T(anchors[i]) == anchors[i+1] holds bitwise.  Above
    1/2 the displacement continues by a cubic tail; below the tabulated range
    it pinches linearly to 0 (marked by table_floor).
    """

    def __init__(self, variant: str, sequence, bump: BumpProfile, n_anchors: int):
        self.variant = variant
        self.sequence = sequence
        self.bump = bump
        self.gamma = sequence.gamma
        self.n_anchors = int(n_anchors)

        n = self.n_anchors
        self.gaps = np.asarray(sequence.gap(np.arange(n + 2)), dtype=float)
        anchors = np.empty(n + 1)
        anchors[0] = 0.5
        for i in range(n):
            anchors[i + 1] = anchors[i] - self.gaps[i]
        self.anchors = anchors
        self.table_floor = float(anchors[-1])
        if not np.all(np.diff(anchors) < 0) or self.table_floor <= 0:
            raise ConstructionError(
                "anchor recursion left the positive axis; deepen the gap "
                "sequence or reduce n_anchors")

        b = self.gaps
        # left-end slope parameter of the profile on gap j (C^1 junction match)
        self.gbar = b[:-2] * (b[1:-1] - b[2:]) / (4.0 * b[1:-1] * (b[:-2] - b[1:-1]))
        self.drop_table = 1.0 - b[1:-1] / b[:-2]

        # cubic continuation of the displacement on [1/2, 1]
        b0, b1 = float(b[0]), float(b[1])
        s0 = -(b0 - b1) / (4.0 * b0)
        w = 0.5
        delta = -b0 / 2.0
        self._ext = (b0, s0, (3.0 * delta / w - 2.0 * s0) / w,
                     (-2.0 * delta / w + s0) / (w * w))
        self._pinch_slope = float(b[n] / anchors[n])

    # ------------------------------------------------------------------
    def _locate(self, x):
        """Gap index j with anchors[j+1] < x <= anchors[j], vectorized.

        The bottom anchor belongs to the deepest tabulated gap.
        """
        asc = self.anchors[::-1]
        pos = np.searchsorted(asc, x, side="left")
        return np.minimum(self.n_anchors - pos, self.n_anchors - 1)

    def _parts(self, x):
        """(D, D', D'') of the displacement on [0, 1], one region split for
        all three: the cubic continuation for x > 1/2, the linear pinch below
        the table floor, and the gap profiles in between."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x).astype(float)
        mid = (x >= self.table_floor) & (x <= 0.5)
        if mid.all():
            parts = self._gap_parts(x)
        else:
            parts = np.zeros((3,) + x.shape)
            disp, slope, curv = parts
            ext = x > 0.5
            if np.any(ext):
                c0, c1, c2, c3 = self._ext
                t = x[ext] - 0.5
                disp[ext] = ((c3 * t + c2) * t + c1) * t + c0
                slope[ext] = (3.0 * c3 * t + 2.0 * c2) * t + c1
                curv[ext] = 6.0 * c3 * t + 2.0 * c2
            low = (x > 0.0) & (x < self.table_floor)
            disp[low] = x[low] * self._pinch_slope
            slope[low] = self._pinch_slope
            if np.any(mid):
                for out, part in zip(parts, self._gap_parts(x[mid])):
                    out[mid] = part
        if scalar:
            return tuple(float(p[0]) for p in parts)
        return tuple(parts)

    def _gap_parts(self, xm):
        """(D, D', D'') on the tabulated gaps: one gap lookup and one bump
        evaluation at the position u inside gap j; D is exactly b_j at each
        anchor."""
        j = self._locate(xm)
        bj, bj1 = self.gaps[j], self.gaps[j + 1]
        u = np.clip((xm - self.anchors[j + 1]) / bj, 0.0, 1.0)
        q, dq, ddq = self.bump.jet(u, self.gbar[j])
        disp = bj1 + (bj - bj1) * q
        exact = xm == self.anchors[j]
        disp[exact] = bj[exact]
        return disp, (bj - bj1) / bj * dq, (bj - bj1) / (bj * bj) * ddq

    @staticmethod
    def _on_domain(x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise InputError("counterexample map is defined on [0, 1]")
        return x

    def displacement(self, x):
        return self._parts(self._on_domain(x))[0]

    # map callables ----------------------------------------------------
    def forward(self, x):
        return np.asarray(x, dtype=float) - self.displacement(x)

    def jet(self, x):
        """(T, T', T'') at x in one pass over the regions."""
        x = self._on_domain(x)
        disp, slope, curv = self._parts(x)
        return x - disp, 1.0 - slope, -curv

    def inverse(self, y):
        """T^(-1) on the image (0, T(1)]: the linear pinch in closed form
        below the floor's image, else the shared Newton inverse inside the
        gap that T maps onto y's gap ([1/2, 1] above the anchors)."""
        y = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y)
        top = float(self.forward(1.0))
        outside = ~((flat > 0.0) & (flat <= top))
        if np.any(outside):
            raise InputError(f"inverse: {flat[outside][0]:g} outside the "
                             f"image (0, {top:g}]")
        out = flat / (1.0 - self._pinch_slope)
        solve = flat > self.table_floor * (1.0 - self._pinch_slope)
        ys = flat[solve]
        # T maps gap j onto gap j + 1; the deepest gap's image ends below
        # the floor, where _locate clips to that same gap
        j = np.where(ys > self.table_floor, self._locate(ys) - 1, self.n_anchors - 1)
        above = j < 0
        j = np.maximum(j, 0)
        lo = np.where(above, 0.5, self.anchors[j + 1])
        hi = np.where(above, 1.0, self.anchors[j])
        out[solve] = _newton_inverse(self.forward, lambda x: self.jet(x)[:2],
                                     ys, lo, hi)
        return float(out[0]) if y.ndim == 0 else out

    def anchor_derivative(self, i):
        """T' at the i-th anchor, in closed form from the gap sequence."""
        b = self.sequence.gap
        i = np.asarray(i, dtype=float)
        return 1.0 + (b(i) - b(i + 1)) / (4.0 * b(i))

    def to_monotone_map(self) -> MonotoneMap:
        return MonotoneMap(self.forward, self.inverse, self.jet,
                           source=Uniform(0.0, 0.5), target=None,
                           label=f"counterexample-{self.variant}")


def build_counterexample(variant: str = "quadratic", *, n_anchors: int = 12000,
                         grid_points: int = 100000) -> CounterexampleMap:
    """Construct and certify a counterexample map.

    Certification: gap ratios >= 2/3 (keeps T' within [1/2, 3/2]), profile
    slope parameters < 1/2, unit gap sum within 1e-10, bitwise anchor mapping,
    and T' range plus displacement positivity on a dense grid.
    """
    if variant not in _SEQUENCES:
        raise InputError(f"unknown variant {variant!r}; "
                         f"choose from {sorted(_SEQUENCES)}")
    seq = _SEQUENCES[variant]()
    cmap = CounterexampleMap(variant, seq, BumpProfile(), n_anchors)

    total = cmap.gamma * seq.tail0
    if abs(total - 0.5) > 1e-10:
        raise ConstructionError(f"gap sum {total!r} deviates from 1/2")
    ratios = 1.0 - cmap.drop_table
    if ratios.min() < 2.0 / 3.0:
        j = int(np.argmin(ratios))
        raise ConstructionError(
            f"consecutive gap ratio {ratios[j]:.6g} at index {j} is below 2/3; "
            "the map derivative bound fails for this sequence")
    g_max = float(np.max(cmap.gbar))
    if not g_max < 0.5:
        raise ConstructionError(
            f"profile slope parameter reaches {g_max:.6g} >= 1/2")
    cmap.bump.certify(g_max)

    img = cmap.forward(cmap.anchors[:-1])
    if not np.array_equal(img, cmap.anchors[1:]):
        k = int(np.argmax(img != cmap.anchors[1:]))
        raise ConstructionError(
            f"anchor {k} maps to {img[k]!r} instead of {cmap.anchors[k + 1]!r}")

    xs = np.linspace(cmap.table_floor, 1.0, grid_points)
    tp = cmap.jet(xs)[1]
    if tp.min() < 0.5 or tp.max() > 1.5:
        raise ConstructionError(
            f"map derivative range [{tp.min():.6g}, {tp.max():.6g}] leaves [1/2, 3/2]")
    disp = cmap.displacement(xs)
    if disp.min() <= 0.0:
        raise ConstructionError("displacement loses positivity on the grid")
    return cmap


# ======================================================================
# probes
# ======================================================================

# indices per block of the growth scan: small enough that the scan's
# temporaries stay a few MB
_GROWTH_BLOCK = 2 ** 18


@dataclass
class GrowthResult:
    """Anchor-derivative product scan along the orbit of 1/2."""

    variant: str
    rows: list = dc_field(default_factory=list)
    crossing_index: int | None = None
    crossing_value: float | None = None
    i_scanned: int = 0
    product_monotone: bool = True
    bound_holds: bool = True


def probe_velocity_growth(cmap: CounterexampleMap, i_max: int = 30_000_000, *,
                          target_product: float = 1e3) -> GrowthResult:
    """Scan P_i = prod of T'(anchor_j) for j < i and certify its divergence.

    Every index is checked, one block of indices at a time, for strict growth
    (each factor > 1) and for the term-wise lower bound
    P_i >= (1/4) * sum of (1 - b_(j+1)/b_j).  The running sums carry across
    blocks sequentially, so the results do not depend on the block size.
    Reported rows are geometrically thinned; the scan stops at the end of the
    block where the product first exceeds target_product (or at i_max).
    """
    seq = cmap.sequence
    res = GrowthResult(variant=cmap.variant)
    row_marks = _geometric_marks(i_max)
    log_p = 0.0
    sum_drop = 0.0
    log_target = math.log(target_product)
    start = 0
    while start < i_max:
        n = min(_GROWTH_BLOCK, i_max - start)
        drops = np.asarray(seq.drop(np.arange(start, start + n, dtype=float)),
                           dtype=float)
        if drops.min() <= 0.0:
            res.product_monotone = False
        # entry k is the sum over factors j < start + k, the previous block's
        # total leading: P at index i uses factors j < i
        lp = np.cumsum(np.concatenate(([log_p], np.log1p(drops / 4.0))))
        sd = np.cumsum(np.concatenate(([sum_drop], drops)))
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


def _geometric_marks(i_max: int):
    marks = {0, 1, 2}
    v = 5
    while v < i_max:
        marks.add(v)
        v = int(v * 2)
    return sorted(marks)


@dataclass
class DivergenceResult:
    """Partial absolute-mass integrals of a built velocity near the fixed end.

    l1_partial comes from an exact orbit cascade (quadrature points chained
    through the analytic map with accumulated derivative products); the
    l1_field column integrates the interpolated field instead and is
    resolution-limited for deep orbit gaps, where the true speed varies over
    many orders of magnitude between gap endpoints and gap interior.
    """

    variant: str
    levels: tuple
    rows: list = dc_field(default_factory=list)
    anchor_speed_monotone: bool = True
    seed_floor: float = 0.0
    n_quad_points: int = 0


def probe_non_integrability(cmap: CounterexampleMap,
                            levels=(10, 100, 1000, 10000), *,
                            config: BuildConfig = DEFAULT_CONFIG,
                            seed: SeedSpec | None = None,
                            octaves: int = 44) -> DivergenceResult:
    """Build a velocity for the map on uniform[0, 1/2] mass and tabulate
    cumulative integrals of |v| over the first m orbit gaps.

    Rows per level m: the depth-m anchor, the exact partial integral of |v|
    down to it with its increment from the previous level, the interpolated
    field's value of the same integral, the proof-side lower bound (tenth of
    a gap times the derivative product times the seed floor), the speed at
    the anchor, and the defect of the field's own clock at the anchor from
    the integer m.
    """
    levels = tuple(sorted(int(m) for m in levels))
    if levels[0] < 1:
        raise InputError("levels must be positive orbit depths")
    depth = levels[-1]
    if depth + 4 > cmap.n_anchors:
        raise InputError(
            f"deepest level {depth} needs n_anchors > {depth + 4}; "
            f"rebuild the map with more anchors (have {cmap.n_anchors})")

    T = cmap.to_monotone_map()
    partition = FixedPointPartition(
        domain=(0.0, 0.5),
        fixed_intervals=((0.0, 0.0),),
        moving_intervals=(MovingInterval(0.0, 0.5, -1, True, False),),
        indeterminate=(0.0,))
    fld = build_velocity(transport_map=T, partition=partition, seed=seed,
                         config=config.with_(orbit_max_steps=depth))
    itf = fld.built_intervals[0]

    # spline-route per-piece absolute mass, ordered by orbit depth.  The
    # interval moves down from its seed at 1/2, so its anchors in descending
    # order are the orbit, and the piece of depth d spans the d-th gap; each
    # anchor's node speed is the one its piece recorded when marching from it
    V = itf.v_spline.antiderivative()
    orbit = itf.anchors[::-1]
    cum_field = np.cumsum(np.abs(V(orbit[:depth]) - V(orbit[1:depth + 1])))
    anchor_speed = np.abs(itf.anchor_v[::-1][:depth + 1])
    mass_exact = _orbit_mass_cascade(cmap, itf, depth, octaves)
    cum_exact = np.cumsum(mass_exact)

    # proof-side bound: |v| >= seed_floor * product on the last tenth of a gap
    b0 = float(cmap.gaps[0])
    xs = np.linspace(0.5 - b0 / 10.0, 0.5, 513)
    seed_floor = float(np.min(np.abs(itf.v_spline(xs))))
    drops = np.asarray(cmap.sequence.drop(np.arange(depth, dtype=float)))
    products = np.exp(np.concatenate(([0.0], np.cumsum(np.log1p(drops / 4.0)))))
    bound_terms = 0.1 * np.asarray(cmap.gaps[:depth]) * products[:depth] * seed_floor
    cum_bound = np.cumsum(bound_terms)

    res = DivergenceResult(variant=cmap.variant, levels=levels,
                           seed_floor=seed_floor,
                           n_quad_points=8 * (2 * octaves + 1))
    res.anchor_speed_monotone = bool(np.all(np.diff(anchor_speed) > 0))
    f_top = float(itf.F_spline(itf.x0))
    prev = 0.0
    for m in levels:
        a_m = float(cmap.anchors[m])
        clock = abs(float(itf.F_spline(a_m)) - f_top)
        row = {"m": m, "delta": a_m,
               "l1_partial": float(cum_exact[m - 1]),
               "increment": float(cum_exact[m - 1] - prev),
               "l1_field": float(cum_field[m - 1]),
               "lower_bound": float(cum_bound[m - 1]),
               "anchor_speed": float(anchor_speed[m]),
               "clock_defect": clock - m}
        prev = float(cum_exact[m - 1])
        res.rows.append(row)
    return res


def _orbit_mass_cascade(cmap, itf, depth: int, octaves: int = 44):
    """Exact per-gap integrals of |v|, by substitution back to the seed gap.

    Changing variables through d map applications turns the integral of |v|
    over the depth-d gap into the seed-gap integral of |v| times the squared
    d-fold derivative product.  The product is accumulated by chaining
    quadrature points through the analytic map, never interpolating.  Its
    mass concentrates in boundary layers at both seed endpoints (orbits that
    hug the anchors keep the largest products), with roughly unit logarithmic
    variation per octave of endpoint distance, so the panels are graded
    geometrically toward both ends.
    """
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(8)
    lo, hi = itf.seed_interval
    lo, hi = min(lo, hi), max(lo, hi)
    width = hi - lo
    fracs = 0.5 ** np.arange(1, octaves + 1)
    edges = np.concatenate((
        [lo], lo + width * fracs[::-1], hi - width * fracs, [hi]))
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    x0 = (mid + half * gl_nodes[None, :]).ravel()
    weights = (half * gl_w[None, :]).ravel()

    v0 = np.abs(itf.v_spline(x0))
    mass = np.empty(depth)
    cur = x0.copy()
    g = np.ones_like(x0)
    for d in range(depth):
        mass[d] = float(np.sum(weights * v0 * g * g))
        cur, tp, _ = cmap.jet(cur)
        g = g * tp
    return mass
