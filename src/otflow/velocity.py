"""Autonomous velocity fields whose unit-time flow realizes a monotone map.

Construction, per moving interval of the map's fixed point partition:

  1. Seed.  Pick an anchor x0 (the trailing interval end when it is free, the
     midpoint of the source portion when the trailing end is a fixed point) and
     prescribe v freely on the seed interval [x0, T(x0)], subject only to
     v(T(x0)) = T'(x0) v(x0).  Two polynomial profiles are offered: "affine",
     the line between the two forced end values (the default), and "cubic",
     whose far-end slope also meets the derivative recursion below, so v is
     C^1 across every orbit joint.  The profile is scaled so the travel time
     across the seed, integral of dx/v, is exactly one.

  2. Closure.  Propagate node tables through the functional equation
     v(T(x)) = T'(x) v(x) and its derivative recursion
     v'(T(x)) = v'(x) + v(x) T''(x)/T'(x), forward by T toward the leading end
     and backward by T^(-1) toward the trailing end.  Each orbit step yields
     one interpolation piece whose node values and node derivatives satisfy
     the functional equation exactly; between nodes the field is a cubic
     Hermite interpolant.  The field keeps only the node table (x, v, v', F);
     its CubicTable objects form each cell from its node pair where it is
     read, in scipy PPoly's arithmetic, so values and slopes are bitwise
     scipy's without importing its interpolation package.

  3. Primitive.  Alongside v the primitive F with F' = 1/v is accumulated:
     quadrature on the seed, then exact unit shifts F(T(x)) = F(x) + 1 across
     pieces, which makes the unit-travel-time property a structural identity
     at the nodes.  Its table reads the same nodes, with slopes 1/v.  F is
     the interval's one clock: the flow phi(t, x) = F^(-1)(F(x) + t) inverts
     the F table itself by Newton inside its piece, so phi is a group to
     roundoff and the flow's semigroup check guards that inversion.  Lookups
     and the inversion work in blocks of _BLOCK points; the Newton state and
     its stop rule cover the whole query, so the result is that of one pass.

Marching is lockstep: the build seeds every moving interval first, then
advances all of their marches (forward, and backward toward a fixed trailing
end) one orbit depth per round.  The live marches are one struct of arrays,
forward segments first, with per-node index data that changes only when the
layout does (a clip, a thinning, a stop).  Only x has to be computed one
depth after another: a depth makes one map jet call, (T, T', T'') at once,
on the forward sources followed by the backward images, and the two tests
that decide whether another depth follows.  The backward images come from
one T.inverse call when the inverse is closed form; when it is the shared
Newton solve (the map's newton_domain), the march solves it on the jet from
each node's Taylor guess, with a second jet call, or T.inverse, only for
entries that guess leaves over one ulp.  v, v' and F, a running product and
two running sums along each node's orbit, follow over a block of depths at
once.  Each block's tables are recorded whole, into a few large chunks, and
every march gathers its pieces once at the end.  A march records the depth at
which a clip first cut its source: the pieces before it span whole orbit
gaps, one unit of travel time each, and every later piece is the image of a
cut one, so each field keeps the count of whole pieces per direction.  The
map callables act elementwise, so every interval gets bitwise the tables it
would get alone.
Each march stops on its own: at its free end ("complete"), below the step
floor ("min-step"), at the step cap ("max-steps"), or where the applied map's
domain ends ("boundary").  Near fixed ends the remaining gap is recorded as a
truncation zone where the field continues by the linear pinch
v = rate * (x - fp).  Moving intervals narrower than a resolution floor are
left unbuilt and flagged.

Array convention: while marching, node arrays are kept in motion order (from
the anchor toward the image), so index relations are direction independent:
a forward piece's first node coincides with its source's last node, a backward
piece's last node coincides with its source's first node.  Junction nodes are
bitwise equal in x and F by evaluation chaining (forward) or explicit pinning
(backward); v and v' may differ there, so the node table keeps both copies.
The gather scatters the rounds once into each interval's node table, in
ascending x, which its field keeps as it is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .config import DEFAULT_CONFIG, BuildConfig
from .errors import (ConstructionError, DegenerateOrbitError, InputError,
                     NormalizationError, SearchFailureError, SeedSignError,
                     TransportError)
from .measures import Measure1D, translate
from .monotone import (FixedPointPartition, MonotoneMap, MovingInterval,
                       _newton_step, compute_monotone_map, find_fixed_points)

__all__ = [
    "TruncationZone",
    "IntervalField",
    "UnbuiltInterval",
    "VelocityField1D",
    "build_velocity",
    "julia_residual",
    "approximate_lipschitz",
    "ApproximateResult",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


# ======================================================================
# seed profiles
# ======================================================================

SEED_KINDS = ("affine", "cubic")


def _seed_polynomial(T: MonotoneMap, x0: float, x1: float,
                     seed: str) -> Polynomial:
    """The (unnormalized) seed profile of kind seed as a polynomial in
    (x - x0), starting from the step s = x1 - x0 at the anchor.  The overall
    scale is irrelevant: unit-time normalization fixes it."""
    v0 = s = x1 - x0
    tp0 = float(np.asarray(T.derivative(x0), dtype=float))
    if not (math.isfinite(tp0) and tp0 > 0):
        raise ConstructionError(f"map derivative {tp0} at seed anchor {x0:.6g}")
    v1 = tp0 * v0

    if seed == "affine":
        # line through (x0, v0) and (x1, T'(x0) v0), in powers of (x - x0)
        return Polynomial([v0, (v1 - v0) / s])

    # cubic: matching values and derivatives, the anchor slope the affine
    # one, the far-end slope taken from the derivative recursion
    d1 = (v1 - v0) / s
    tpp0 = float(T.jet(x0)[2])
    d1_img = d1 + v0 * tpp0 / tp0
    a2 = (3.0 * (v1 - v0) / s - 2.0 * d1 - d1_img) / s
    a3 = (2.0 * (v0 - v1) / s + d1 + d1_img) / (s * s)
    return Polynomial([v0, d1, a2, a3])


def _validate_seed_sign(p: Polynomial, x0: float, x1: float):
    vals = p(np.linspace(0.0, x1 - x0, 129))
    ref = math.copysign(1.0, vals[0])
    if np.any(np.sign(vals) != ref) or np.any(vals == 0.0):
        raise SeedSignError(
            f"seed profile changes sign or vanishes on [{x0:.6g}, {x1:.6g}]; "
            "choose a different kind")


def _seed_primitive(p: Polynomial, xs_motion: np.ndarray) -> np.ndarray:
    """Cumulative integral of 1/p from the anchor, along the motion order."""
    t = xs_motion - xs_motion[0]
    a, b = t[:-1], t[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = mid + half * _GL_NODES[None, :]
    gaps = np.sum(_GL_WEIGHTS[None, :] / p(nodes), axis=1) * half[:, 0]
    return np.concatenate(([0.0], np.cumsum(gaps)))


# ======================================================================
# truncation zones and assembled per-interval fields
# ======================================================================

@dataclass(frozen=True)
class TruncationZone:
    """Unbuilt gap between the last orbit anchor and a fixed interval end.

    On the zone the field continues by the linear pinch v = rate * (x - fp).
    flagged marks zones at an indeterminate fixed point (map slope equal to 1
    within tolerance), where orbit convergence is harmonic rather than
    geometric and the pinch continuation is unverified.
    """

    side: str              # "trail" | "lead"
    fp: float
    edge: float            # last built node toward the fixed end
    edge_F: float
    rate: float
    flagged: bool
    reason: str            # "min-step" | "max-steps"

    @property
    def lo(self) -> float:
        return min(self.fp, self.edge)

    @property
    def hi(self) -> float:
        return max(self.fp, self.edge)

    def velocity(self, x):
        return self.rate * (x - self.fp)

    def primitive(self, x):
        ratio = (x - self.fp) / (self.edge - self.fp)
        with np.errstate(divide="ignore"):
            return self.edge_F + np.log(ratio) / self.rate

    def position(self, u):
        return self.fp + (self.edge - self.fp) * np.exp(self.rate * (u - self.edge_F))

    def record(self) -> dict:
        """The zone as reported: fixed end, edge, pinch rate, flag, reason."""
        return {"fp": self.fp, "edge": self.edge, "rate": self.rate,
                "flagged": self.flagged, "reason": self.reason}


@dataclass(frozen=True)
class UnbuiltInterval:
    """Moving interval left without a field."""

    lo: float
    hi: float
    direction: int
    reason: str


class IntervalField:
    """Velocity field and unit-time primitive on one moving interval.

    The field keeps one node table, the gathered orbit pieces (x, v, v', F)
    in ascending x with both copies of every junction node, and two
    CubicTable views of it: v_spline, the field, and F_spline, the clock F
    with F' = 1/v and F(T(x)) = F(x) + 1.  Each cell is formed from its node
    pair where it is read, in PPoly's arithmetic.  The flow inverts F_spline
    cell by cell, so no separate table of F^(-1) exists.
    anchors and anchor_v hold x and v at the ends of the orbit pieces.
    whole_forward and whole_backward count the pieces of each march that
    span whole orbit gaps: those before a clip first cut the march.
    """

    def __init__(self, *, lo, hi, direction, x0, seed, seed_interval, time_scale,
                 nodes, joints, depth_forward, depth_backward, whole_forward,
                 whole_backward, zone_trail, zone_lead, warnings):
        self.lo = float(lo)
        self.hi = float(hi)
        self.direction = int(direction)
        self.x0 = float(x0)
        self.seed = seed
        self.seed_interval = (float(seed_interval[0]), float(seed_interval[1]))
        self.time_scale = float(time_scale)
        self.zone_trail = zone_trail
        self.zone_lead = zone_lead
        self.warnings = tuple(warnings)
        self.depth_forward = int(depth_forward)
        self.depth_backward = int(depth_backward)
        self.whole_forward = int(whole_forward)
        self.whole_backward = int(whole_backward)
        self._assemble(*nodes, joints)

    # ------------------------------------------------------------------
    def _assemble(self, x, v, dv, F, joints):
        """Tables over the node arrays (x, v, dv, F) of all pieces, in
        ascending x; joints index the first node of every piece but the
        first.  F rises along the motion, so its ends are the clock's range."""
        _check_nodes(x, F, joints)
        F_ends = (float(F[0]), float(F[-1]))
        self.F_lo, self.F_hi = F_ends if self.direction > 0 else F_ends[::-1]
        # the node ending each ascending piece, and the first node
        bounds = np.concatenate(([0], joints - 1, [x.size - 1]))
        self.anchors = x[bounds]
        self.anchor_v = v[bounds]
        self.built_lo, self.built_hi = float(x[0]), float(x[-1])
        self.v_spline = CubicTable(x, v, dv, joints)
        self.F_spline = CubicTable(x, F, v, joints, reciprocal=True)

    # ------------------------------------------------------------------
    def _extend(self, x, inside_law, zone_law, fill, *, primitive_side=False):
        """inside_law on the built range, zone_law(zone, points) on each zone's
        points, fill elsewhere.  With primitive_side, x holds clock values:
        the built range is [F_lo, F_hi], the trail zone lies below it and the
        lead zone above."""
        x = np.asarray(x, dtype=float)
        lo, hi = ((self.F_lo, self.F_hi) if primitive_side
                  else (self.built_lo, self.built_hi))
        inside = (x >= lo) & (x <= hi)
        if inside.all():
            return inside_law(x)
        out = np.full_like(x, fill)
        if np.any(inside):
            out[inside] = inside_law(x[inside])
        for zone in (self.zone_trail, self.zone_lead):
            if zone is None:
                continue
            if primitive_side:
                sel = x < lo if zone.side == "trail" else x > hi
            else:
                sel = (x >= zone.lo) & (x <= zone.hi) & ~inside
            if np.any(sel):
                out[sel] = zone_law(zone, x[sel])
        return out

    def evaluate(self, x):
        return self._extend(x, self.v_spline, TruncationZone.velocity, 0.0)

    def evaluate_derivative(self, x):
        return self._extend(x, lambda xs: self.v_spline(xs, 1),
                            lambda zone, _: zone.rate, 0.0)

    def F_extended(self, x):
        """Unit-time primitive, extended through zones by the pinch law."""
        return self._extend(x, self.F_spline, TruncationZone.primitive, np.nan)

    def Finv_extended(self, u):
        """Inverse of F_extended: the point whose clock reads u."""
        return self._extend(u, self._F_inverse, TruncationZone.position, np.nan,
                            primitive_side=True)

    def _F_inverse(self, u):
        """Solve F_spline(x) = u for u in [F_lo, F_hi].

        The cell holding u is found from the clock's values at the nodes
        (a reversed view of them when the interval moves down) and formed
        once; Newton then runs on its cubic in the local coordinate
        s = x - (its left node), from the linear guess, clipped to the cell.
        It stops once every step is within a few ulps of the cell width, so
        F_spline(x) reproduces u to roundoff.  The state (cell, rows, s)
        covers the whole query and the arithmetic runs in blocks; only a
        sweep in which every block converged ends the loop, so each point
        takes the same steps as in one pass, bitwise.
        """
        table = self.F_spline
        xn, clock = table.xn, table.yn[1:-1]
        shape, u = np.shape(u), np.ravel(u)
        if self.direction > 0:
            p = np.searchsorted(clock, u, side="right")
        else:
            p = clock.size - np.searchsorted(clock[::-1], u, side="left")
        h, a3, a2, a1, r0, s = (np.empty(u.size) for _ in range(6))
        blocks = _blocks(u.size)
        for b in blocks:
            pb, hb = p[b], h[b]
            hb[:] = xn[1:][pb] - xn[pb]
            a3[b], a2[b], a1[b], r0[b] = table.cells(pb)
            r0[b] -= u[b]
            np.clip(-r0[b] * hb / (((a3[b] * hb + a2[b]) * hb + a1[b]) * hb),
                    0.0, hb, out=s[b])
        for _ in range(_NEWTON_MAX_STEPS):
            done = True
            for b in blocks:
                sb = s[b]
                step = ((((a3[b] * sb + a2[b]) * sb + a1[b]) * sb + r0[b])
                        / ((3.0 * a3[b] * sb + 2.0 * a2[b]) * sb + a1[b]))
                np.clip(sb - step, 0.0, h[b], out=sb)
                done = done and bool(np.all(np.abs(step) <= _NEWTON_TOL * h[b]))
            if done:
                break
        for b in blocks:
            s[b] += xn[p[b]]
        return s.reshape(shape)[()]

    def describe(self) -> dict:
        d = {
            "interval": [self.lo, self.hi],
            "direction": self.direction,
            "seed_anchor": self.x0,
            "seed_interval": list(self.seed_interval),
            "seed_kind": self.seed,
            "time_scale": self.time_scale,
            "built_range": [self.built_lo, self.built_hi],
            "depth_forward": self.depth_forward,
            "depth_backward": self.depth_backward,
            "warnings": list(self.warnings),
        }
        for name, zone in (("zone_trail", self.zone_trail),
                           ("zone_lead", self.zone_lead)):
            if zone is not None:
                d[name] = zone.record()
        return d


# Newton on one cubic piece converges quadratically from the linear guess
# (2-4 steps in practice); the cap only bounds a pathological piece
_NEWTON_MAX_STEPS = 16
_NEWTON_TOL = 4.0 * np.finfo(float).eps
# points per block of a table lookup or a clock inversion: the temporaries
# stay a block long whatever the query's size, and no result depends on it
_BLOCK = 2 ** 13


def _blocks(n):
    """Slices of _BLOCK consecutive entries that cover range(n)."""
    return [slice(b, b + _BLOCK) for b in range(0, n, _BLOCK)]


def _check_nodes(x, F, joints):
    """Raise ConstructionError unless both copies of x and of F at every
    junction are bitwise equal and x rises strictly inside every piece."""
    for a in (x, F):
        off = np.flatnonzero(a[joints - 1] != a[joints])
        if off.size:
            k = joints[off[0]]
            raise ConstructionError(f"piece junction mismatch: {a[k - 1]!r} vs {a[k]!r}")
    rising = x[1:] > x[:-1]
    rising[joints - 1] = True
    if not rising.all():
        raise ConstructionError("assembled breakpoints are not strictly increasing")


class CubicTable:
    """Piecewise cubic Hermite table over a node table: abscissae xn
    ascending, values yn, slopes dn (1.0 / dn when reciprocal).  joints index
    the first node of every piece but the first, which repeats the abscissa
    of the node before it with its own value and slope.  x and c, formed on
    demand, are the table in scipy's PPoly layout: the breaks (one copy of
    each junction) and the rows, shape (4, x.size - 1), highest power first.

    table(t, nu) repeats PPoly(c, x)(t, nu) operation for operation, _BLOCK
    points at a time, so the value (nu = 0) and the slope (nu = 1) are
    bitwise scipy's.  The cell is the one whose nodes bound t, the later
    piece's at a junction; points beyond either end take the end cells'
    cubics; NaN gives NaN.  The sum starts from 0.0 at the constant term,
    with powers of s = t - xn[cell] built by repeated multiplication and the
    slope's factors 2 and 3 applied last.  Like PPoly, it raises no
    floating-point warning.
    """

    __slots__ = ("xn", "yn", "dn", "joints", "reciprocal", "_inner")

    def __init__(self, xn, yn, dn, joints, *, reciprocal=False):
        self.xn, self.yn, self.dn = xn, yn, dn
        self.joints, self.reciprocal = joints, reciprocal
        self._inner = xn[1:-1]

    @property
    def x(self) -> np.ndarray:
        """The breaks: the nodes without the later copy of each junction."""
        return np.delete(self.xn, self.joints)

    @property
    def c(self) -> np.ndarray:
        return np.array(self.cells(
            np.delete(np.arange(self.xn.size - 1), self.joints - 1)))

    def cells(self, p):
        """Fresh rows (c3, c2, c1, c0) of the cells whose left nodes are p,
        formed from the node pairs in the order of operations of h = xr - xl,
        m = (yr - yl)/h, c2 = ((3m - 2dl) - dr)/h, c3 = ((dl + dr) - 2m)/(h h);
        once per run of equal p where runs average two entries or more."""
        flat = np.ravel(p)
        new = np.ones(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=new[1:])
        first = np.flatnonzero(new)
        shared = 2 * first.size <= flat.size
        rows = self._form(flat[first] if shared else flat)
        if shared:
            rows = np.repeat(rows, np.diff(first, append=flat.size), axis=1)
        return tuple(r.reshape(np.shape(p))[()] for r in rows)

    def _form(self, p):
        xn, yn, dn = self.xn, self.yn, self.dn
        dl, dr = dn[p], dn[1:][p]
        if self.reciprocal:
            dl, dr = 1.0 / dl, 1.0 / dr
        h = xn[1:][p] - xn[p]
        yl = yn[p]
        m = (yn[1:][p] - yl) / h
        return ((dl + dr - 2.0 * m) / (h * h), (3.0 * m - 2.0 * dl - dr) / h,
                dl, yl)

    def __call__(self, t, nu: int = 0):
        if nu not in (0, 1):
            raise InputError(f"CubicTable: derivative order {nu!r} is not 0 or 1")
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty(flat.shape)
        for b in _blocks(flat.size):
            p = np.searchsorted(self._inner, flat[b], side="right")
            c3, c2, c1, c0 = self.cells(p)
            with np.errstate(invalid="ignore", over="ignore"):
                s = flat[b] - self.xn[p]
                out[b] = (c0 + 0.0 + c1 * s + c2 * (s * s) + c3 * (s * s * s) if nu == 0
                          else c1 + 0.0 + c2 * s * 2.0 + c3 * (s * s) * 3.0)
        return out.reshape(t.shape)[()]

    def cumulative(self) -> np.ndarray:
        """Integral of the table from x[0] to every break: the cells' exact
        integrals h (c0 + h (c1/2 + h (c2/3 + h c3/4))), summed in order."""
        h = np.diff(self.x)
        c3, c2, c1, c0 = self.c
        cell = h * (c0 + h * (c1 / 2.0 + h * (c2 / 3.0 + h * (c3 / 4.0))))
        return np.concatenate(([0.0], np.cumsum(cell)))


# ======================================================================
# orbit marching
# ======================================================================

def _local_hermite(x, y, dy, xq):
    """Value and slope at xq of the cubic Hermite interpolant of the nodes (x
    monotone), from the node pair around xq, in scipy's PPoly arithmetic."""
    xs, ys, dys = (x, y, dy) if x[0] <= x[-1] else (x[::-1], y[::-1], dy[::-1])
    i = min(max(int(np.searchsorted(xs, xq, side="right")) - 1, 0), xs.size - 2)
    h, s = xs[i + 1] - xs[i], xq - xs[i]
    m = (ys[i + 1] - ys[i]) / h
    t = (dys[i] + dys[i + 1] - 2 * m) / h
    c2, c3 = (m - dys[i]) / h - t, t / h
    return (float(ys[i] + dys[i] * s + c2 * (s * s) + c3 * (s * s * s)),
            float(dys[i] + 2.0 * c2 * s + 3.0 * c3 * (s * s)))


class _March:
    """One orbit march: the node tables of one interval, propagated in one
    direction a depth at a time by _march_lockstep.

    seed is the seed piece (x, v, dv, F) in motion order.  forward=True
    applies the map, False its inverse; clip = (lo, hi) bounds where the
    applied map is defined; stop_at is the free end that completes the march
    (None toward a fixed end).  cut is the depth whose source a clip first
    cut (None if none did).  After marching, interval_nodes holds the node
    tables of its interval in ascending x, sizes the node counts of the
    march's own pieces in motion order (the deepest piece first when
    backward), one piece per depth, and reason the stop reason.
    """

    def __init__(self, seed_arrays, *, forward, clip, stop_at, motion_sign,
                 min_step, width, interval):
        self.seed = seed_arrays
        self.forward = forward
        self.clip = clip
        self.stop_at = stop_at
        self.reach_sign = motion_sign if forward else -motion_sign
        self.ascending = motion_sign > 0
        self.min_step = min_step
        self.tol_reach = 1e-12 * width
        self.name = (f"interval ({interval[0]:.6g}, {interval[1]:.6g}), "
                     f"{'forward' if forward else 'backward'} march")
        self.reason = "max-steps"
        self.cut = None
        self.interval_nodes = None
        self.sizes = np.empty(0, dtype=int)

    @property
    def whole(self) -> int:
        """The number of pieces that span whole orbit gaps: those before the
        cut, as each later piece is the image of a cut one."""
        return self.sizes.size if self.cut is None else self.cut - 1

    @property
    def edge(self):
        """(x, v, F) at the far end of the last piece, or of the seed: the
        interval's last node in motion order when forward, its first when
        backward."""
        x, v, _, F = self.interval_nodes
        i = -1 if self.forward == self.ascending else 0
        return float(x[i]), float(v[i]), float(F[i])


# from depth _DEEP_PIECE_DEPTH on, a march's source tables are thinned to
# _DEEP_PIECE_NODES nodes, to save memory and keep each round's concatenated
# map call small
_DEEP_PIECE_DEPTH = 64
_DEEP_PIECE_NODES = 12


def _clip_and_thin(m: _March, nodes, depth):
    """m's live source nodes (x, v, dv, F, guess) restricted to its clip
    window, the exact boundary point inserted at the far end (its own first
    guess), and thinned when deep; None when under two nodes stay inside
    (the march stops at the boundary).  The first cut sets m.cut."""
    clip_lo, clip_hi = m.clip
    x, v, dv, F, _ = nodes
    keep = (x >= clip_lo) & (x <= clip_hi)
    n_keep = int(np.count_nonzero(keep))
    if n_keep < 2:
        m.reason = "boundary"
        return None
    if n_keep < x.size:
        if m.cut is None:
            m.cut = depth
        bound = clip_hi if (x.max() > clip_hi) else clip_lo
        v_b, dv_b = _local_hermite(x, v, dv, bound)
        with np.errstate(divide="ignore"):
            F_b, _ = _local_hermite(x, F, 1.0 / v, bound)
        nodes = tuple(a[keep] for a in nodes)
        at, far = (n_keep, -1) if m.forward else (0, 0)
        if nodes[0][far] != bound:
            nodes = tuple(np.insert(a, at, b) for a, b in
                          zip(nodes, (bound, v_b, dv_b, F_b, bound)))
    if depth >= _DEEP_PIECE_DEPTH and nodes[0].size > _DEEP_PIECE_NODES:
        idx = np.unique(np.round(
            np.linspace(0, nodes[0].size - 1, _DEEP_PIECE_NODES)).astype(int))
        nodes = tuple(a[idx] for a in nodes)
    return nodes


def _within_ulp(step, x):
    """Whether each Newton step is at most one ulp of its iterate x; a NaN
    step is not."""
    return np.abs(step) <= np.spacing(np.abs(x))


def _solved_jet(T: MonotoneMap, x, guess, nf):
    """(at, T, T', T'') of a round whose map has newton_domain: at is x on
    the forward sources x[:nf] and T^(-1)(x) on the backward ones, with the
    jet at at.

    One T.jet call evaluates the forward sources and the backward guesses,
    clipped into the Newton bracket, together.  A guess whose Newton step
    there is at most one ulp is the image, and that jet its jet.  The others
    take one clipped Newton step and one more T.jet call; entries still over
    one ulp fall back on T.inverse and a T.jet call there.  Every test acts
    on its own entry, so the result is elementwise.
    """
    lo, hi = T.newton_domain
    y = x[nf:]
    g = np.minimum(np.maximum(guess[nf:], lo), hi)
    at = np.concatenate((x[:nf], g))
    img, tp, tpp = T.jet(at)
    step = _newton_step(img[nf:], tp[nf:], y)
    off = np.flatnonzero(~_within_ulp(step, g))
    if not off.size:
        return at, img, tp, tpp
    y_off = y[off]
    x2 = np.minimum(np.maximum(g[off] - step[off], lo), hi)
    jet2 = [np.array(a, dtype=float) for a in T.jet(x2)]
    still = ~_within_ulp(_newton_step(jet2[0], jet2[1], y_off), x2)
    if still.any():
        x3 = np.asarray(T.inverse(y_off[still]), dtype=float)
        x2[still] = x3
        for a, b in zip(jet2, T.jet(x3)):
            a[still] = b
    off += nf
    img, tp, tpp = (np.array(a, dtype=float) for a in (img, tp, tpp))
    at[off] = x2
    img[off], tp[off], tpp[off] = jet2
    return at, img, tp, tpp


class _Layout:
    """The live marches as one struct of arrays, advanced a block of depths
    at a time by march.

    nodes are the marches' live source tables (x, v, dv, F, guess)
    concatenated, forward marches first; bounds delimit each march's
    segment.  guess, used on backward nodes only, is the first guess of
    T^(-1)(x): the second-order Taylor inverse from the jet the node's own
    depth evaluated, or x itself where no such jet exists (the seed, a clip
    boundary).  The per-node and per-segment data change only when the
    layout does, so they are computed here once: clip windows, value signs
    and step signs (+1 forward, -1 backward) repeated per node, the far node
    of each segment, the backward junctions to pin, and per segment the stop
    constants as Python floats, which the depth-by-depth stop test reads.
    """

    def __init__(self, marches, ids, tables):
        live = [marches[i] for i in ids]
        self.live, self.ids, self.nodes = live, np.asarray(ids), [
            np.concatenate(a) for a in zip(*tables)]
        self.sizes = np.array([t[0].size for t in tables])
        self.bounds = np.concatenate(([0], np.cumsum(self.sizes)))
        fwd = np.array([m.forward for m in live])
        n_seg_fwd = int(np.count_nonzero(fwd))
        self.n_fwd = int(self.bounds[n_seg_fwd])

        def per_node(values):
            return np.repeat(np.asarray(values, dtype=float), self.sizes)

        self.clip_lo = per_node([m.clip[0] for m in live])
        self.clip_hi = per_node([m.clip[1] for m in live])
        self.sign = per_node([math.copysign(1.0, t[1][0]) for t in tables])
        self.step_sign = per_node(np.where(fwd, 1.0, -1.0))
        self.far = np.where(fwd, self.bounds[1:] - 1, self.bounds[:-1])
        # a backward piece's last node is its source's first node
        self.pin_to = self.bounds[n_seg_fwd + 1:] - 1
        self.pin_from = self.bounds[n_seg_fwd:-1]
        # free end (NaN where none completes the march: it compares false),
        # reach sign, minus the reach tolerance, and step floor
        self.stop = [(math.nan if m.stop_at is None else float(m.stop_at),
                      float(m.reach_sign), -m.tol_reach, m.min_step) for m in live]
        self.max_size = int(self.sizes.max())

    def split(self, nodes, keep=None) -> dict:
        """Per-march tables of the kept segments (all by default), by march
        index."""
        b = self.bounds
        kept = range(self.ids.size) if keep is None else np.flatnonzero(keep)
        return {int(self.ids[k]): tuple(a[b[k]:b[k + 1]] for a in nodes)
                for k in kept}

    def march(self, T, depth, n_rows):
        """Advance up to n_rows depths from depth on; returns the block's
        tables (x, v, dv, F), one row per depth, and the segments to keep
        (None while every node stays in its window and no march stops).
        self.nodes becomes the last depth's live tables.

        A depth computes only what the next map call depends on: the map
        call (one T.jet on the forward sources followed by the backward
        images, which come from one T.inverse call for a closed-form inverse
        or _solved_jet for a map with newton_domain), x with each backward
        junction pinned bitwise (T^(-1)(T(x)) drifts by roundoff), the next
        guesses of a solved map (the Taylor inverse a + r/T' - T'' r^2/(2 T'^3),
        r = y - T(a), from the jet at a of the node y), and the two tests
        that decide whether another depth follows: every node inside its
        window (false for NaN and inf), and no march complete (far node at
        its free end) or stalled (far node moved at most the step floor).
        Then v(T(x)) = T'(x) v(x), forward, or its inverse, backward, runs
        as one running product per column, v' and F as running sums, and
        the pinned columns take the previous row of their source column.
        These run in depth order per entry, so every entry is bitwise that
        of a depth-by-depth march; v' stays elementwise at pinned junctions,
        where with a C^0 seed junction v has a genuine kink.  A block
        that fails the finite and sign check may have made map calls past
        its failing depth.
        """
        x, v, dv, F, guess = self.nodes
        nf, n = self.n_fwd, x.size
        solve = T.newton_domain is not None and nf < n
        X, TP, TPP = np.empty((3, n_rows, n))
        far = x[self.far].tolist()
        for r in range(1, n_rows + 1):
            if solve:
                at, img, tp, tpp = _solved_jet(T, x, guess, nf)
            else:
                at = x if nf == n else np.concatenate(
                    (x[:nf], np.asarray(T.inverse(x[nf:]), dtype=float)))
                img, tp, tpp = T.jet(at)
            new = X[r - 1]
            if nf == n:
                new[:] = img
            else:
                np.concatenate((img[:nf], at[nf:]), out=new)
                new[self.pin_to] = x[self.pin_from]
            TP[r - 1], TPP[r - 1] = tp, tpp
            if solve:
                res = new - img     # entries of forward nodes come out unused
                guess = at + res / tp - tpp * (res * res) / (2.0 * tp ** 3)
            x, prev, far = new, far, new[self.far].tolist()
            ends = ["complete" if rs * (f - s) >= neg_tol else
                    "min-step" if abs(f - p) <= floor else None
                    for f, p, (s, rs, neg_tol, floor) in zip(far, prev, self.stop)]
            if any(ends) or np.count_nonzero(
                    (x >= self.clip_lo) & (x <= self.clip_hi)) < n:
                break
        else:
            ends = None
        X, TP, TPP = X[:r], TP[:r], TPP[:r]
        fwd, bwd, to, src = slice(None, nf), slice(nf, None), self.pin_to, self.pin_from
        V = np.concatenate((v[None], TP))
        np.multiply.accumulate(V[:, fwd], axis=0, out=V[:, fwd])
        np.divide.accumulate(V[:, bwd], axis=0, out=V[:, bwd])
        V[1:, to] = V[:-1, src]
        # in place, each dv step is step_sign * (v_src * T'' / T') of its
        # source's v_src: v forward, v / T' backward
        DV = np.concatenate((dv[None], V[:-1]))
        step = DV[1:]
        step[:, bwd] /= TP[:, bwd]
        step *= TPP
        step /= TP
        step *= self.step_sign
        np.add.accumulate(DV, axis=0, out=DV)
        FF = np.concatenate((F[None], np.broadcast_to(self.step_sign, TP.shape)))
        np.add.accumulate(FF, axis=0, out=FF)
        FF[1:, to] = FF[:-1, src]

        finite = np.isfinite(X) & np.isfinite(V[1:]) & np.isfinite(DV[1:])
        ok = finite & (V[1:] * self.sign > 0.0)
        if not ok.all():
            row, i = divmod(int(np.argmin(ok)), n)
            b = self.bounds
            k = int(np.searchsorted(b, i, side="right")) - 1
            name = self.live[k].name
            if finite[row, b[k]:b[k + 1]].all():
                raise ConstructionError(
                    f"{name}: propagated field changed sign at depth "
                    f"{depth + row}; the map derivative is not positive there")
            raise ConstructionError(
                f"{name}: orbit march produced non-finite node data "
                f"at depth {depth + row}")
        self.nodes = [X[-1], V[r], DV[r], FF[r], guess if solve else X[-1]]
        if ends is not None:
            for m, e in zip(self.live, ends):
                m.reason = e or m.reason
            ends = [e is None for e in ends]
        return (X, V[1:], DV[1:], FF[1:]), ends


def _march_lockstep(T, marches, cfg: BuildConfig):
    """Advance every march one orbit depth per round until each stops, at
    most cfg.orbit_max_steps rounds.

    The live marches form one _Layout, which marches blocks of depths of
    about _MARCH_BLOCK node values each (_Layout.march).  The per-march clip
    and thinning, and a new layout, come only after a depth where a node
    left its window or a march stopped, and at the thinning depth.  Each
    block's tables (x, v, dv, F) are recorded, without the guesses, into a
    _Rounds; every march gathers its pieces once at the end.  The map
    callables and the backward solve act elementwise, so each march's tables
    are bitwise those it would get marching alone, whatever the blocks.
    """
    # the seed nodes are their own first guesses
    tables = {i: (*m.seed, m.seed[0]) for i, m in enumerate(marches)}
    layout, rounds, depth = None, _Rounds(), 1
    while depth <= cfg.orbit_max_steps:
        if layout is None:
            tables = {i: t for i, t in ((i, _clip_and_thin(marches[i], t, depth))
                                        for i, t in tables.items()) if t is not None}
            if not tables:
                break
            ids = sorted(tables, key=lambda i: not marches[i].forward)
            layout = _Layout(marches, ids, [tables[i] for i in ids])
        n = int(layout.bounds[-1])
        # a segment over the deep size is thinned at _DEEP_PIECE_DEPTH
        deep = layout.max_size > _DEEP_PIECE_NODES
        last = min(cfg.orbit_max_steps, _DEEP_PIECE_DEPTH - 1 if deep else math.inf)
        rows = min(rounds.room(n), max(_MARCH_BLOCK // n, 1), last + 1 - depth)
        block, keep = layout.march(T, depth, rows)
        rounds.extend(block, layout)
        depth += len(block[0])
        if keep is not None or (deep and depth >= _DEEP_PIECE_DEPTH):
            tables, layout = layout.split(layout.nodes, keep), None
    _gather_pieces(marches, rounds)


# node values per march block, so a block is _MARCH_BLOCK // n depths of n
# live nodes; rows of recorded rounds per chunk
_MARCH_BLOCK = 2 ** 12
_ROUND_CHUNK = 2 ** 15


class _Rounds:
    """The recorded rounds: their tables (x, v, dv, F) in order, column by
    column, and per block its layout's (march ids, segment sizes) repeated
    per round.

    Each block is copied into preallocated chunks of at least _ROUND_CHUNK
    rows per column, so the tables take a few large blocks, which go back
    whole when released, rather than four small arrays per round.  A chunk
    ends at a round boundary: room caps a block at the rounds that fit.
    """

    def __init__(self):
        self.columns = ([], [], [], [])
        self.filled = []        # rows used in each chunk
        self.pieces = []

    def room(self, n) -> int:
        """Rounds of n nodes that fit the last chunk, opening a new chunk
        when none do."""
        if not self.filled or self.filled[-1] + n > self.columns[0][-1].size:
            for col in self.columns:
                col.append(np.empty(max(_ROUND_CHUNK, n)))
            self.filled.append(0)
        return (self.columns[0][-1].size - self.filled[-1]) // n

    def extend(self, block, layout):
        """Record a block's rounds, which room made fit, in the last chunk."""
        at, (rows, n) = self.filled[-1], block[0].shape
        for col, a in zip(self.columns, block):
            col[-1][at:at + rows * n] = a.ravel()
        self.filled[-1] = at + rows * n
        self.pieces.append((np.tile(layout.ids, rows), np.tile(layout.sizes, rows)))

    def release(self, col):
        """Column col of every round, in order, chunk by chunk, each let go."""
        chunks = self.columns[col][::-1]
        self.columns[col].clear()
        for n in self.filled:
            yield chunks.pop()[:n]


def _gather_pieces(marches, rounds: _Rounds):
    """Set each march's interval_nodes and piece sizes from the recorded
    rounds.

    The marches of one interval share its seed piece, and their nodes go
    into the interval's one set of tables (x, v, dv, F) in ascending x: in
    motion order the backward pieces deepest first, the seed, the forward
    pieces, read backward when the interval moves down.  Each march holds
    those tables as interval_nodes.  All
    tables are slices of one array per column, into which each recorded
    chunk, then each seed, is scattered and released, so the gather holds
    the rounds and one column.
    """
    if not marches:
        return
    empty = np.empty(0, dtype=int)
    ids = np.concatenate([p[0] for p in rounds.pieces] + [empty])
    count = np.concatenate([p[1] for p in rounds.pieces] + [empty])
    # per interval, by seed: a march, and its backward and forward pieces
    intervals = {}
    for i, m in enumerate(marches):
        own = np.flatnonzero(ids == i)
        if not m.forward:
            own = own[::-1]
        m.sizes = count[own]
        intervals.setdefault(id(m.seed), [m, empty, empty])[1 + m.forward] = own
    # per run of source rows, the recorded pieces and then the seeds: its
    # rows, and base and step such that its source row r goes to table row
    # base + step r
    n_pieces = ids.size
    del ids                 # the scatter keeps only what it reads
    count = np.concatenate((count, [m.seed[0].size for m, _, _ in intervals.values()]))
    first = np.cumsum(count) - count
    base, step = np.empty_like(count), np.empty(count.size, dtype=np.int8)
    spans, at = {}, 0
    for k, (key, (m, back, fwd)) in enumerate(intervals.items()):
        runs = np.concatenate((back, [n_pieces + k], fwd))    # in motion order
        n = count[runs]
        total = int(n.sum())
        pos = np.cumsum(n) - n
        sign = 1 if m.ascending else -1
        base[runs] = (at + pos if sign > 0 else at + total - 1 - pos) - sign * first[runs]
        step[runs] = sign
        spans[key], at = (at, total), at + total
    columns = []
    for col in range(4):
        out = np.empty(at)
        r0 = k0 = 0
        for block in itertools.chain(rounds.release(col),
                                     (m.seed[col] for m, _, _ in intervals.values())):
            r1 = r0 + block.size
            k1 = int(np.searchsorted(first, r1))
            rows = np.arange(r0, r1)
            rows *= np.repeat(step[k0:k1], count[k0:k1])
            rows += np.repeat(base[k0:k1], count[k0:k1])
            out[rows] = block
            r0, k0 = r1, k1
        columns.append(out)
    for m in marches:
        lo, total = spans[id(m.seed)]
        m.interval_nodes = tuple(a[lo:lo + total] for a in columns)


# ======================================================================
# per-interval build
# ======================================================================

@dataclass
class _SeededInterval:
    """A moving interval between its seed step and its finish step."""

    itv: MovingInterval
    seed: str
    x0: float
    x1: float
    tau: float
    lead: float
    lead_fixed: bool
    trail: float
    forward: _March
    backward: _March | None     # marches only toward a fixed trailing end


# orbit march step floor, relative to the working width
_ORBIT_MIN_STEP_REL = 1e-12
# interpolation nodes of the seed piece, and so of every orbit piece until
# the deep thinning
_NODES_PER_PIECE = 64


def _seed_interval(T: MonotoneMap, itv: MovingInterval, seed: str,
                   cfg: BuildConfig, map_domain, map_range, width):
    """Anchor, seed piece and march states of one interval, or an
    UnbuiltInterval when there is nothing to build."""
    if itv.width < cfg.min_interval_rel * width:
        return UnbuiltInterval(itv.lo, itv.hi, itv.direction, "sub-resolution")
    direction = itv.direction
    if direction > 0:
        trail, lead = itv.lo, itv.hi
        trail_fixed, lead_fixed = itv.lo_is_fixed, itv.hi_is_fixed
    else:
        trail, lead = itv.hi, itv.lo
        trail_fixed, lead_fixed = itv.hi_is_fixed, itv.lo_is_fixed

    src_lo = max(itv.lo, map_domain[0])
    src_hi = min(itv.hi, map_domain[1])
    if not src_hi > src_lo:
        return UnbuiltInterval(itv.lo, itv.hi, direction, "no-source-overlap")

    min_step = _ORBIT_MIN_STEP_REL * width

    if trail_fixed:
        x0 = 0.5 * (src_lo + src_hi)
    else:
        x0 = src_lo if direction > 0 else src_hi
    x1 = float(np.asarray(T.forward(x0), dtype=float))
    if abs(x1 - x0) <= min_step:
        raise DegenerateOrbitError(
            f"seed anchor {x0:.6g} is numerically fixed (step {x1 - x0:.3g})")

    poly = _seed_polynomial(T, x0, x1, seed)
    _validate_seed_sign(poly, x0, x1)

    xs = np.linspace(x0, x1, _NODES_PER_PIECE)
    F_raw = _seed_primitive(poly, xs)
    tau = float(F_raw[-1])
    if not (math.isfinite(tau) and tau > 0):
        raise NormalizationError(f"seed travel time {tau} is not a positive number")
    v_nodes = tau * poly(xs - x0)
    dv_nodes = tau * poly.deriv()(xs - x0)
    F_nodes = F_raw / tau
    F_nodes[0] = 0.0
    F_nodes[-1] = 1.0
    seed_piece = (xs, v_nodes, dv_nodes, F_nodes)

    march_kw = dict(motion_sign=direction, min_step=min_step, width=width,
                    interval=(itv.lo, itv.hi))
    forward = _March(seed_piece, forward=True, clip=map_domain,
                     stop_at=None if lead_fixed else lead, **march_kw)
    backward = (_March(seed_piece, forward=False, clip=map_range, stop_at=None,
                       **march_kw) if trail_fixed else None)
    return _SeededInterval(itv=itv, seed=seed, x0=x0, x1=x1, tau=tau, lead=lead,
                           lead_fixed=lead_fixed, trail=trail, forward=forward,
                           backward=backward)


def _finish_interval(s: _SeededInterval, indeterminate, width) -> IntervalField:
    """Zones, warnings and the assembled field of a marched interval."""
    warnings: list[str] = []
    fwd, bwd = s.forward, s.backward
    zone_lead = None
    if s.lead_fixed:
        zone_lead = _truncation_zone("lead", s.lead, fwd, s.itv, indeterminate,
                                     width, warnings)
    elif fwd.reason == "max-steps":
        warnings.append("forward march hit the step cap before the free end")
    elif abs(fwd.edge[0] - s.lead) > 1e-6 * width:
        warnings.append(
            f"forward march stopped at {fwd.edge[0]:.6g}, short of the free end "
            f"{s.lead:.6g}")

    zone_trail, before = None, []
    if bwd is not None:
        before = [bwd]
        zone_trail = _truncation_zone("trail", s.trail, bwd, s.itv, indeterminate,
                                      width, warnings)

    # motion order: backward pieces deepest first, the seed, forward pieces;
    # the node tables run in ascending x
    sizes = np.concatenate([m.sizes for m in before]
                           + [[fwd.seed[0].size], fwd.sizes])
    if s.itv.direction < 0:
        sizes = sizes[::-1]
    return IntervalField(lo=s.itv.lo, hi=s.itv.hi, direction=s.itv.direction,
                         x0=s.x0, seed=s.seed, seed_interval=(s.x0, s.x1),
                         time_scale=s.tau, nodes=fwd.interval_nodes,
                         joints=np.cumsum(sizes[:-1], dtype=int),
                         depth_forward=fwd.sizes.size,
                         depth_backward=0 if bwd is None else bwd.sizes.size,
                         whole_forward=fwd.whole,
                         whole_backward=0 if bwd is None else bwd.whole,
                         zone_trail=zone_trail, zone_lead=zone_lead,
                         warnings=warnings)


def _truncation_zone(side, fp, march, itv, indeterminate, width, warnings):
    """Zone from the march's last node (x, v, F) to the fixed end fp of itv.

    The pinch rate continues the last node's value linearly to zero at fp.
    At an indeterminate fixed point the zone is flagged and a warning added.
    A last node outside the open interval means the march passed fp, which
    then is no fixed point of the map: ConstructionError.
    """
    e_x, e_v, e_F = march.edge
    if not itv.lo < e_x < itv.hi:
        raise ConstructionError(
            f"{march.name} passed its fixed end {fp!r}: last node {e_x!r}")
    flagged = any(abs(fp - p) <= 1e-9 * width for p in indeterminate)
    if flagged:
        end = "leading" if side == "lead" else "trailing"
        warnings.append(
            f"{end} fixed point {fp:.6g} has map slope 1; truncation at "
            f"{e_x:.6g} after harmonic orbit steps is unverified beyond the zone")
    return TruncationZone(side=side, fp=fp, edge=e_x, edge_F=e_F,
                          rate=e_v / (e_x - fp), flagged=flagged, reason=march.reason)


# ======================================================================
# global field
# ======================================================================

class VelocityField1D:
    """Velocity field on the working domain: zero on the fixed set, built
    per-interval fields on the moving complement."""

    def __init__(self, transport_map: MonotoneMap, partition: FixedPointPartition,
                 intervals, config: BuildConfig):
        self.map = transport_map
        self.partition = partition
        self.intervals = tuple(intervals)
        self.config = config
        self.domain = partition.domain

    @property
    def built_intervals(self) -> tuple[IntervalField, ...]:
        return tuple(f for f in self.intervals if isinstance(f, IntervalField))

    @property
    def unbuilt_intervals(self) -> tuple[UnbuiltInterval, ...]:
        return tuple(f for f in self.intervals if isinstance(f, UnbuiltInterval))

    def _dispatch(self, x, per_interval, fill=0.0, unbuilt=None):
        """Evaluate per_interval(field, subarray) on the points each built
        field owns.  Other points get fill (None keeps the point itself);
        points of unbuilt intervals get unbuilt unless it is None.

        Each field sees its slice of the sorted points, which its table
        lookups need to run fast.  The sort need not be stable: per_interval
        acts elementwise, so the order of tied points changes no value."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        flat = np.atleast_1d(x).ravel()
        out = flat.copy() if fill is None else np.full(flat.shape, fill, dtype=float)
        order = np.argsort(flat)
        sx = flat[order]
        for f in self.intervals:
            is_unbuilt = isinstance(f, UnbuiltInterval)
            if is_unbuilt and unbuilt is None:
                continue
            i0 = int(np.searchsorted(sx, f.lo, side="left"))
            i1 = int(np.searchsorted(sx, f.hi, side="right"))
            if i1 > i0:
                out[order[i0:i1]] = unbuilt if is_unbuilt else per_interval(f, sx[i0:i1])
        if scalar:
            return float(out[0])
        return out.reshape(np.shape(x))

    def evaluate(self, x):
        """Field value; zero on the fixed set and outside the domain."""
        return self._dispatch(x, lambda f, xs: f.evaluate(xs), fill=0.0)

    __call__ = evaluate

    def derivative(self, x):
        return self._dispatch(x, lambda f, xs: f.evaluate_derivative(xs), fill=0.0)

    def truncation_zones(self) -> tuple[TruncationZone, ...]:
        return tuple(z for f in self.built_intervals
                     for z in (f.zone_trail, f.zone_lead) if z is not None)

    def all_warnings(self) -> tuple[str, ...]:
        out = [w for f in self.built_intervals for w in f.warnings]
        for f in self.unbuilt_intervals:
            out.append(f"interval ({f.lo:.6g}, {f.hi:.6g}) left unbuilt: {f.reason}")
        return tuple(out)

    def describe(self) -> dict:
        return {
            "domain": list(self.domain),
            "fixed_intervals": [list(t) for t in self.partition.fixed_intervals],
            "intervals": [f.describe() if isinstance(f, IntervalField)
                          else {"interval": [f.lo, f.hi], "unbuilt": f.reason}
                          for f in self.intervals],
            "warnings": list(self.all_warnings()),
        }


# ======================================================================
# entry points
# ======================================================================

def build_velocity(m0: Measure1D | None = None, m1: Measure1D | None = None, *,
                   transport_map: MonotoneMap | None = None,
                   partition: FixedPointPartition | None = None,
                   seed: str = "affine",
                   config: BuildConfig = DEFAULT_CONFIG,
                   domain: tuple[float, float] | None = None) -> VelocityField1D:
    """Build the autonomous field realizing the monotone map between m0 and m1.

    Either a measure pair or an explicit transport_map must be given.  partition
    overrides fixed point detection (useful when the fixed set is known in
    closed form).  seed names the profile of every moving interval:
    "affine" (the default) or "cubic", which makes v C^1 across the orbit
    joints but can change sign on the seed interval (SeedSignError); any
    other name raises InputError before the map is touched.  config supplies
    eps_tail, the fixed point search settings, orbit_max_steps and
    min_interval_rel; the field keeps it for verification.  The orbit step
    floor and the node counts per piece are fixed: _ORBIT_MIN_STEP_REL,
    _NODES_PER_PIECE, _DEEP_PIECE_DEPTH and _DEEP_PIECE_NODES.
    """
    if seed not in SEED_KINDS:
        raise InputError(f"build_velocity: unknown seed kind {seed!r}; "
                         f"choose one of {SEED_KINDS}")
    T = transport_map
    if T is None:
        if m0 is None or m1 is None:
            raise InputError("build_velocity: need a measure pair or a transport_map")
        T = compute_monotone_map(m0, m1)
    m0 = T.source if m0 is None else m0
    m1 = T.target if m1 is None else m1

    if m0 is not None:
        map_domain = m0.window(config.eps_tail)
    elif domain is not None:
        map_domain = (float(domain[0]), float(domain[1]))
    else:
        raise InputError("build_velocity: need a source measure or an explicit domain")
    if m1 is not None:
        map_range = m1.window(config.eps_tail)
    else:
        map_range = tuple(sorted((float(np.asarray(T.forward(map_domain[0]))),
                                  float(np.asarray(T.forward(map_domain[1]))))))

    if partition is None:
        hull = (min(map_domain[0], map_range[0]), max(map_domain[1], map_range[1]))
        partition = find_fixed_points(T, domain=hull, config=config,
                                      search=map_domain)

    width = partition.domain[1] - partition.domain[0]

    seeded = [_seed_interval(T, itv, seed, config, map_domain, map_range, width)
              for itv in partition.moving_intervals]
    _march_lockstep(T, [m for s in seeded if isinstance(s, _SeededInterval)
                        for m in (s.forward, s.backward) if m is not None],
                    config)
    fields = [_finish_interval(s, partition.indeterminate, width)
              if isinstance(s, _SeededInterval) else s for s in seeded]
    return VelocityField1D(T, partition, fields, config)


# ======================================================================
# verification helpers and the approximate regime
# ======================================================================

def _interval_samples(f: IntervalField, field: VelocityField1D, n: int):
    """Deterministic points of the interval whose image stays in the tables.

    Returns (xs, ys, n_dropped), n_dropped counting the points whose image
    left.  Sampling is restricted to the source window, where the map's
    forward formula is trustworthy; outside it a quantile composition
    saturates.
    """
    T = field.map
    lo, hi = f.built_lo, f.built_hi
    if T.source is not None:
        w = T.source.window(field.config.eps_tail)
        lo, hi = max(lo, w[0]), min(hi, w[1])
    if not hi > lo:
        return np.empty(0), np.empty(0), 0
    xs = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    ys = np.asarray(T.forward(xs), dtype=float)
    ok = (ys >= f.built_lo) & (ys <= f.built_hi)
    return xs[ok], ys[ok], n - int(np.count_nonzero(ok))


# uniform sample points per built interval of the Julia residual
_JULIA_SAMPLES = 256


def julia_residual(field: VelocityField1D) -> dict:
    """Relative residual of v(T(x)) - T'(x) v(x) on built regions, at
    _JULIA_SAMPLES points per interval.

    Sample points whose images leave the built tables are excluded; the
    report counts them.
    """
    T = field.map
    worst = 0.0
    total = 0
    excluded = 0
    for f in field.built_intervals:
        xs, ys, dropped = _interval_samples(f, field, _JULIA_SAMPLES)
        excluded += dropped
        if xs.size == 0:
            continue
        lhs = f.evaluate(ys)
        rhs = np.asarray(T.derivative(xs), dtype=float) * f.evaluate(xs)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        rel = np.abs(lhs - rhs) / scale
        worst = max(worst, float(np.max(rel)))
        total += xs.size
    return {"max_rel": worst, "n_samples": total, "n_excluded": excluded}


@dataclass(frozen=True)
class ApproximateResult:
    """Outcome of the shift search for an approximately realizable target.

    The shifted map, its partition and target are field.map, field.partition
    and field.map.target; that target lies |shift| from m1 in W1."""

    shift: float
    eps: float
    field: VelocityField1D
    candidates_tried: int


# the least |T' - 1| an admissible shift leaves at every fixed boundary
_SLOPE_MARGIN = 1e-5


def approximate_lipschitz(m0: Measure1D, m1: Measure1D, eps: float, *,
                          seed: str = "affine",
                          config: BuildConfig = DEFAULT_CONFIG,
                          budget: int = 64) -> ApproximateResult:
    """Replace m1 by a translate within eps in W1 whose map has no slope-1
    fixed points, then build the field for the shifted problem.

    Deterministic dyadic shift scan: 0, +-eps/2, +-eps/4, +-3 eps/4, ...  A
    candidate is admissible when every detected fixed boundary of the shifted
    map has |T' - 1| > _SLOPE_MARGIN.  Raises SearchFailureError when the budget
    is exhausted.
    """
    if not eps > 0:
        raise InputError("approximate_lipschitz: eps must be positive")
    T = compute_monotone_map(m0, m1)
    tried = 0
    for frac in _dyadic_fractions(budget):
        lam = eps * frac
        tried += 1
        T_lam = _shifted_map(T, m0, m1, lam)
        try:
            partition = find_fixed_points(T_lam, config=config)
        except TransportError:
            continue
        ok = not partition.indeterminate
        for e in partition.fixed_points:
            de = float(np.asarray(T_lam.derivative(e), dtype=float))
            if not np.isfinite(de) or abs(de - 1.0) <= _SLOPE_MARGIN:
                ok = False
                break
        if not ok:
            continue
        fld = build_velocity(transport_map=T_lam, partition=partition, seed=seed,
                             config=config)
        return ApproximateResult(shift=lam, eps=eps, field=fld,
                                 candidates_tried=tried)
    raise SearchFailureError(
        f"no admissible shift within eps={eps:g} after {tried} candidates; "
        "the map's slope-1 fixed points persist under translation")


def _dyadic_fractions(budget: int):
    yield 0.0
    count = 1
    level = 1
    while count < budget:
        denom = 2 ** level
        for k in range(1, denom, 2):
            for s in (1.0, -1.0):
                if count >= budget:
                    return
                yield s * k / denom
                count += 1
        level += 1


def _shifted_map(T: MonotoneMap, m0, m1, lam: float) -> MonotoneMap:
    if lam == 0.0:
        return T

    def forward(x):
        return np.asarray(T.forward(x), dtype=float) - lam

    def jet(x):
        y, tp, tpp = T.jet(x)
        return np.asarray(y, dtype=float) - lam, tp, tpp

    def inverse(y):
        return T.inverse(np.asarray(y, dtype=float) + lam)

    return MonotoneMap(forward, inverse, jet, m0, translate(m1, -lam))
