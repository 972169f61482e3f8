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

The profile is one C^2 family: ramps whose slope follows a cubic smoothstep
onto a plateau, then an exactly linear tail of slope -1/4 on [9/10, 1].  The
linear tail keeps preimages of anchor neighborhoods uniformly deep inside the previous gap, and
the C^2 joins make the glued map twice differentiable across anchors, so
propagated derivative tables never mix one-sided values.  Closed-form bounds:
the slope stays in [-1/2, plateau height], the plateau height stays below 3/2
whenever the left-end slope parameter is below 1/2, and the whole map keeps
T' within [1/2, 3/2] whenever consecutive gaps shrink by at most 1/3.

The glued displacement is tabulated once per map as piecewise polynomials, so
a map evaluation costs the same few array operations at every orbit depth.
The probes repeat small steps thousands of times, so numpy's fixed cost per
call sets their speed, and each step makes few calls and allocates little.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import ConstructionError, InputError
from .measures import Uniform
from .monotone import (FixedPointPartition, MonotoneMap, MovingInterval,
                       map_from_callables)
from .velocity import build_velocity

__all__ = [
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


class BumpProfile:
    """One-parameter family q(u; g) of gap profiles on [0, 1].

    q(0) = 0, q(1) = 1; left-end slope q'(0) = -g, right-end slope -1/4 with
    q' exactly -1/4 on [9/10, 1]; the interior plateau height balances the
    integral to 1.  Evaluations are vectorized over g.
    """

    @staticmethod
    def plateau(g):
        return (1.04375 + 0.075 * np.asarray(g, dtype=float)) / 0.75

    def coefficients(self, g):
        """Per-region Taylor coefficients of q, shape (4, 5) + shape of g.

        Entry [r, i] multiplies (u - u_r)^i on region r, where u_r is the
        region's left end, except for the tail, which is expanded about its
        right end u = 1 so that q(1) = 1 holds exactly (the plateau height
        makes the two agree in exact arithmetic).  Each ramp moves the slope
        s0 -> s1 across its width by a cubic smoothstep, 3 w^2 - 2 w^3 in the
        region's own coordinate w, so q'' vanishes at every region join and
        q is C^2; the low degree keeps propagated fields easy to interpolate.
        Plateau and tail are linear.  All coefficients are affine in g.
        """
        a = -np.asarray(g, dtype=float)
        h = self.plateau(g)
        w3 = _R3 - _R2
        q1 = _R1 * (a + h) / 2.0                      # value at _R1
        q2 = q1 + h * (_R2 - _R1)                     # value at _R2
        zero, one = np.zeros_like(a), np.ones_like(a)

        def ramp(v0, s0, s1, w):
            return (v0, s0, zero, (s1 - s0) / (w * w), -(s1 - s0) / (2.0 * w ** 3))

        return np.array([ramp(zero, a, h, _R1),
                         (q1, h, zero, zero, zero),
                         ramp(q2, h, _TAIL_SLOPE, w3),
                         (one, _TAIL_SLOPE * one, zero, zero, zero)])

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

# Bernoulli numbers B_2, ..., B_14 of the trigamma's asymptotic series, and
# the argument from which the series truncated after them is used: there
# its first omitted term is about 1e-20 of psi_1(x), far below an ulp.
_TRIGAMMA_B = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
               -691.0 / 2730.0, 7.0 / 6.0)
_TRIGAMMA_FROM = 20.0


def _trigamma(x):
    """psi_1(x) = sum of 1/(x+k)^2 over k >= 0, for x >= 1.

    Upward recurrence psi_1(x) = 1/x^2 + psi_1(x+1) until the argument
    reaches _TRIGAMMA_FROM, then the asymptotic series
    1/y + 1/(2y^2) + sum of B_2k / y^(2k+1); the recurrence terms are summed
    smallest first.  On [10, 4e7] it lies within 2 ulp of the exact value,
    and within 4 ulp of scipy.special.polygamma(1, x) (Moshier's Cephes
    Hurwitz zeta, itself up to 3 ulp off), but for about 3 points in a
    million of [10, 20), where the two differ by 5.
    """
    x = np.asarray(x, dtype=float)
    steps = np.maximum(np.ceil(_TRIGAMMA_FROM - x), 0.0)
    head = np.zeros_like(x)
    for k in range(int(steps.max(initial=0.0)) - 1, -1, -1):
        u = x + k
        head += np.where(k < steps, 1.0 / (u * u), 0.0)
    y = x + steps
    w = 1.0 / (y * y)
    s = _TRIGAMMA_B[-1]
    for b in _TRIGAMMA_B[-2::-1]:
        s = s * w + b
    return head + ((s * w) / y + 0.5 * w + 1.0 / y)


class _QuadraticSeq:
    """b_i = gamma/(i+10)^2 with gamma making the gaps sum to 1/2."""

    variant = "quadratic"
    offset = 10

    def __init__(self):
        self.tail0 = float(_trigamma(self.offset))
        self.gamma = 0.5 / self.tail0

    def gap(self, i):
        i = np.asarray(i, dtype=float)
        return self.gamma / (i + self.offset) ** 2

    def anchor(self, i):
        """a_i = sum of gaps from i on = gamma psi_1(i + 10), by the in-repo
        trigamma _trigamma: within 2 ulp of the exact value, and within
        4 ulp of scipy's Cephes polygamma (5 at rare points below 20)."""
        i = np.asarray(i, dtype=float)
        return self.gamma * _trigamma(i + self.offset)

    def drops(self, start: int, out):
        """The drops 1 - b_(i+1)/b_i of the out.size indices from start, into
        out, in cancellation-free closed form: (2u - 1)/u^2 of exact
        integers, u = i + 11, while u^2 < 2^53 (i < 9.4e7)."""
        u = np.arange(start + self.offset + 1.0, start + self.offset + 1.0 + out.size)
        np.subtract(np.multiply(u, 2.0, out), 1.0, out)
        return np.divide(out, np.multiply(u, u, u), out)


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

    def drops(self, start: int, out):
        """The drops 1 - b_(i+1)/b_i of the out.size indices from start, into
        out, from the sequence on its out.size + 1 terms by _f's operations."""
        t = np.arange(start + self.offset + 0.0, start + self.offset + out.size + 1.0)
        ln = np.log(t)
        t *= ln
        t *= ln
        f = np.divide(1.0, t, t)
        return np.subtract(1.0, np.divide(f[1:], f[:-1], out), out)


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

    The displacement D is one piecewise-polynomial table, built once here:
    the pinch on [0, floor), the four profile regions of every gap, and the
    cubic on (1/2, 1], each piece a quartic in x minus the piece's origin.
    (D, D', D'') at any number of points is then one search, one gather and
    three Horner sums in place (the exact cascade gathers by runs instead,
    _gap_rows).  Each gap's first piece is expanded about its lower anchor
    and its tail about its upper anchor, so D is exactly b_j at every
    anchor.  1/2 and the floor are orbit points, and 1/2 seeds the probes'
    orbit, whose T'' there enters every anchor's node data; so both read
    their gap's profile, not the continuation or the pinch.  The table is
    right-continuous, which gives the floor to the deepest gap, and the
    continuation starts one ulp above 1/2.
    """

    def __init__(self, variant: str, sequence, bump: BumpProfile, n_anchors: int):
        self.variant = variant
        self.sequence = sequence
        self.bump = bump
        self.gamma = sequence.gamma
        self.n_anchors = int(n_anchors)

        n = self.n_anchors
        self.gaps = np.asarray(sequence.gap(np.arange(n + 2)), dtype=float)
        # the recursion, in one sequential pass
        self.anchors = anchors = np.subtract.accumulate(
            np.concatenate(([0.5], self.gaps[:n])))
        self.table_floor = float(anchors[-1])
        if not np.all(np.diff(anchors) < 0) or self.table_floor <= 0:
            raise ConstructionError(
                "anchor recursion left the positive axis; deepen the gap "
                "sequence or reduce n_anchors")

        b = self.gaps
        # left-end slope parameter of the profile on gap j (C^1 junction match)
        self.gbar = b[:-2] * (b[1:-1] - b[2:]) / (4.0 * b[1:-1] * (b[:-2] - b[1:-1]))
        self.drop_table = 1.0 - b[1:-1] / b[:-2]
        self._pinch_slope = float(b[n] / anchors[n])

        # gap j: D = b_(j+1) + (b_j - b_(j+1)) q((x - anchors[j+1]) / b_j);
        # rows are the regions, columns the gaps from the deepest up
        lower, bj, bj1 = anchors[:0:-1], b[n - 1::-1], b[n:0:-1]
        starts = lower + np.multiply.outer((0.0, _R1, _R2, _R3), bj)
        origins = np.vstack((starts[:3], anchors[n - 1::-1]))
        coef = bump.coefficients(self.gbar[::-1]) * (
            (bj - bj1) / bj ** np.arange(5)[:, None])
        coef[:, 0] += bj1

        # cubic continuation of the displacement on (1/2, 1]
        b0, b1 = float(b[0]), float(b[1])
        s0 = -(b0 - b1) / (4.0 * b0)
        w = 0.5
        delta = -b0 / 2.0
        ext = (b0, s0, (3.0 * delta / w - 2.0 * s0) / w,
               (-2.0 * delta / w + s0) / (w * w), 0.0)

        self._breaks = np.concatenate(
            ([0.0], starts.T.ravel(), [np.nextafter(0.5, 1.0)]))
        self._ends = self._breaks[1:]     # x is in piece k if k are at or below it
        c = np.column_stack(([0.0, self._pinch_slope, 0.0, 0.0, 0.0],
                             coef.transpose(1, 2, 0).reshape(5, -1), ext))
        i = np.arange(5)[:, None]
        # rows: origin, then the coefficients of D, of D' and of D'', each
        # from the highest power down
        self._table = np.vstack((
            np.concatenate(([0.0], origins.T.ravel(), [0.5])),
            c[::-1], (i[1:] * c[1:])[::-1], ((i[2:] * (i[2:] - 1)) * c[2:])[::-1]))

    # ------------------------------------------------------------------
    @staticmethod
    def _horner(rows, t, order: int):
        """[D, ..., D^(order)] at t, summed in place over the gathered rows
        from each one's leading coefficient (outputs by position: numpy parses
        out= slower)."""
        out = []
        for lead, end in ((1, 6), (6, 10), (10, 13))[:order + 1]:
            acc = rows[lead]
            for c in rows[lead + 1:end]:
                np.multiply(acc, t, acc)
                np.add(acc, c, acc)
            out.append(acc)
        return out

    def _rows(self, x, n: int):
        """The first n table rows of the pieces of the 1-d points x in [0, 1]."""
        return self._table[:n].take(self._ends.searchsorted(x, "right"), 1)

    def _displacement(self, x, order: int):
        """[D, ..., D^(order)] at the 1-d points x in [0, 1], as row views."""
        rows = self._rows(x, (6, 10, 13)[order])
        return self._horner(rows, np.subtract(x, rows[0], rows[0]), order)

    def _gap_rows(self, x, gap: int, descends):
        """Rows 0-9 (origin, D and D' coefficients) of the pieces of the 1-d
        points x, expected in gap j = gap.  If no point descends (tested into
        the bool buffer descends) and the window of gap j's pieces and one
        more on each side covers them, one search of its breaks into x cuts
        the pieces' runs (a point on a break starts a run, as in the full
        search), and each column repeats over its run; else the full search."""
        # pieces: the pinch, then four per gap from the deepest up; the
        # window starts one piece below gap j's first
        lo = 4 * (self.n_anchors - 1 - gap)
        window = self._breaks[lo:lo + 7]
        if (window[0] <= x[0] and x[-1] < window[-1]
                and not np.less(x[1:], x[:-1], descends).any()):
            cuts = x.searchsorted(window)
            return self._table[:10, lo:lo + window.size - 1].repeat(
                cuts[1:] - cuts[:-1], 1)
        return self._rows(x, 10)

    @staticmethod
    def _on_domain(x):
        x = np.asarray(x, dtype=float)    # the second test passes empty and NaN
        if not (x.size and 0.0 <= x.min() and x.max() <= 1.0) and (
                (x < 0.0).any() or (x > 1.0).any()):
            raise InputError("counterexample map is defined on [0, 1]")
        return x

    def displacement(self, x):
        x = self._on_domain(x)    # the copy holds D, not all rows gathered
        return self._displacement(x.reshape(-1), 0)[0].reshape(x.shape).copy()[()]

    # map callables ----------------------------------------------------
    def forward(self, x):
        x = self._on_domain(x)
        return x - self._displacement(x.reshape(-1), 0)[0].reshape(x.shape)

    def jet(self, x):
        """(T, T', T'') at x from one table lookup: x - D, 1 - D' and -D''."""
        x = self._on_domain(x)
        flat = x.reshape(-1)
        disp, slope, curv = self._displacement(flat, 2)
        y, tp, tpp = jet = np.empty((3, flat.size))
        np.subtract(flat, disp, y)
        np.subtract(1.0, slope, tp)
        np.negative(curv, tpp)
        return (y, tp, tpp) if x.ndim == 1 else tuple(jet.reshape((3,) + x.shape))

    def anchor_derivative(self, i):
        """T' at the i-th anchor, in closed form from the gap sequence."""
        b = self.sequence.gap
        i = np.asarray(i, dtype=float)
        return 1.0 + (b(i) - b(i + 1)) / (4.0 * b(i))

    def to_monotone_map(self) -> MonotoneMap:
        """The map with the shared Newton inverse on [0, 1]."""
        return map_from_callables(self.forward, self.jet, domain=(0.0, 1.0),
                                  source=Uniform(0.0, 0.5))


# points of the dense grid on which build_counterexample certifies the map
_CERTIFY_GRID = 100000


def build_counterexample(variant: str = "quadratic", *,
                         n_anchors: int = 12000) -> CounterexampleMap:
    """Construct and certify a counterexample map.

    Certification: gap ratios >= 2/3 (keeps T' within [1/2, 3/2]), profile
    slope parameters < 1/2, unit gap sum within 1e-10, bitwise anchor mapping,
    and T' range plus displacement positivity on a grid of _CERTIFY_GRID
    points.
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

    disp, slope = cmap._displacement(np.linspace(cmap.table_floor, 1.0, _CERTIFY_GRID), 1)
    tp = 1.0 - slope
    if tp.min() < 0.5 or tp.max() > 1.5:
        raise ConstructionError(
            f"map derivative range [{tp.min():.6g}, {tp.max():.6g}] leaves [1/2, 3/2]")
    if disp.min() <= 0.0:
        raise ConstructionError("displacement loses positivity on the grid")
    return cmap


# ======================================================================
# probes
# ======================================================================

# indices per block of the growth scan: each temporary is 256 KB, small
# enough to stay in cache; no result depends on the block size
_GROWTH_BLOCK = 2 ** 15


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

    log P and the drop sum are one complex cumsum, as real and imaginary
    parts, each bitwise its float64 cumsum.  If every drop of a block is
    positive, both sums are nondecreasing, so its first product against its
    last bound, with a margin of 2^-30 for exp's rounding, settles every
    index; other blocks test each index.
    """
    seq = cmap.sequence
    res = GrowthResult(variant=cmap.variant)
    row_marks = _geometric_marks(i_max)
    log_target = math.log(target_product)
    # entry k: the sums over factors j < start + k, the previous block's
    # totals leading (P at index i uses factors j < i)
    sums, terms = np.zeros(_GROWTH_BLOCK + 1, dtype=complex), np.empty(_GROWTH_BLOCK)
    start = 0
    while start < i_max:
        n = min(_GROWTH_BLOCK, i_max - start)
        z = sums[:n + 1]
        lp, sd = z.real, z.imag
        drops = seq.drops(start, terms[:n])
        if not (positive := drops.min() > 0.0):
            res.product_monotone = False
        sd[1:] = drops
        # d * 0.25 is d / 4 exactly: both round the same real number
        np.log1p(np.multiply(drops, 0.25, drops), lp[1:])
        np.cumsum(z, out=z)
        if not (positive and np.exp(lp[0]) >= 0.25 * sd[n - 1] * (1.0 + 2.0 ** -30)) \
                and np.any(np.exp(lp[:-1]) < 0.25 * sd[:-1]):
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
        start += n
        if lp[n] > log_target:
            k = int(np.searchsorted(lp, log_target, side="right"))
            res.crossing_index = start - n + k
            res.crossing_value = float(np.exp(lp[k]))
            break
        z[0] = z[n]
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
                            levels=(10, 100, 1000, 10000)) -> DivergenceResult:
    """Build a velocity for the map on uniform[0, 1/2] mass and tabulate
    cumulative integrals of |v| over the first m orbit gaps.

    The build takes the default config and the default "affine" seed, with
    its march capped at the deepest level.

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
    fld = build_velocity(transport_map=T, partition=partition,
                         config=DEFAULT_CONFIG.with_(orbit_max_steps=depth))
    itf = fld.built_intervals[0]

    # spline-route per-piece absolute mass, ordered by orbit depth.  The
    # interval moves down from its seed at 1/2, so its anchors in descending
    # order are the orbit, and the piece of depth d spans the d-th gap; each
    # anchor's node speed is the one its piece recorded when marching from it.
    # The anchors are breaks of the table, where its integral is tabulated:
    # its ends, and break joints[i-1] - i (joints are no breaks) for 0 < i <= J
    joints = itf.v_spline.joints
    breaks = np.concatenate(([0], joints - np.arange(1, joints.size + 1), [-1]))
    V = itf.v_spline.cumulative()[breaks][::-1]
    cum_field = np.cumsum(np.abs(V[:depth] - V[1:depth + 1]))
    anchor_speed = np.abs(itf.anchor_v[::-1][:depth + 1])
    mass_exact = _orbit_mass_cascade(cmap, itf, depth)
    cum_exact = np.cumsum(mass_exact)

    # proof-side bound: |v| >= seed_floor * product on the last tenth of a gap
    b0 = float(cmap.gaps[0])
    xs = np.linspace(0.5 - b0 / 10.0, 0.5, 513)
    seed_floor = float(np.min(np.abs(itf.v_spline(xs))))
    drops = cmap.sequence.drops(0, np.empty(depth))
    products = np.exp(np.concatenate(([0.0], np.cumsum(np.log1p(drops / 4.0)))))
    bound_terms = 0.1 * np.asarray(cmap.gaps[:depth]) * products[:depth] * seed_floor
    cum_bound = np.cumsum(bound_terms)

    res = DivergenceResult(variant=cmap.variant, levels=levels,
                           seed_floor=seed_floor,
                           n_quad_points=8 * (2 * _OCTAVES + 1))
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


# geometric panel octaves toward each end of the seed gap in the exact cascade
_OCTAVES = 44
# depths per row-wise sum of the cascade; no result depends on it
_CASCADE_BLOCK = 256


def _orbit_mass_cascade(cmap, itf, depth: int):
    """Exact per-gap integrals of |v|, by substitution back to the seed gap.

    Changing variables through d map applications turns the integral of |v|
    over the depth-d gap into the seed-gap integral of |v| times the squared
    d-fold derivative product.  The product is accumulated by chaining
    quadrature points through the analytic map, never interpolating.  Its
    mass concentrates in boundary layers at both seed endpoints (orbits that
    hug the anchors keep the largest products), with roughly unit logarithmic
    variation per octave of endpoint distance, so the panels are graded
    geometrically toward both ends.

    The depth-d points lie in gap d, in the ascending order of the panels,
    which the increasing map keeps, so each depth gathers gap d's
    coefficients by the runs of its points (_gap_rows), and the points and
    the product advance in place.
    """
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(8)
    lo, hi = itf.seed_interval
    lo, hi = min(lo, hi), max(lo, hi)
    width = hi - lo
    fracs = 0.5 ** np.arange(1, _OCTAVES + 1)
    edges = np.concatenate((
        [lo], lo + width * fracs[::-1], hi - width * fracs, [hi]))
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    x0 = (mid + half * gl_nodes[None, :]).ravel()
    weights = (half * gl_w[None, :]).ravel()

    wv = weights * np.abs(itf.v_spline(x0))
    mass = np.empty(depth)
    # the map sends (0, 1] into itself, so one domain check covers every depth
    cur = cmap._on_domain(x0)
    g = np.ones_like(x0)
    descends = np.empty(x0.size - 1, dtype=bool)
    # the products of a block of depths, one row each, summed row by row
    block = np.empty((min(depth, _CASCADE_BLOCK), x0.size))
    for d0 in range(0, depth, _CASCADE_BLOCK):
        rows = block[:min(_CASCADE_BLOCK, depth - d0)]
        for i, row in enumerate(rows):
            row[:] = g
            c = cmap._gap_rows(cur, d0 + i, descends)
            disp, slope = cmap._horner(c, np.subtract(cur, c[0], c[0]), 1)
            np.subtract(cur, disp, cur)
            np.multiply(g, np.subtract(1.0, slope, slope), g)
        mass[d0:d0 + len(rows)] = np.sum(wv * rows * rows, axis=1)
    return mass
