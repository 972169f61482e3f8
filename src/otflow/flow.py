"""Flow of a built velocity field, density transport, and verification.

The flow never integrates an ODE: phi(t, x) = F^(-1)(F(x) + t) with the
per-interval unit-time primitive F, extended through truncation zones by the
matching logarithmic law, and F^(-1) solved on F's own table.  This makes the
flow a group to roundoff; time one equals T up to the Abel residual of F.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConstructionError, InputError
from .measures import (_GL_NODES, _GL_WEIGHTS, Measure1D, PiecewiseDensity,
                       l1_distance, wasserstein1)
from .velocity import VelocityField1D, _interval_samples, julia_residual

__all__ = [
    "flow",
    "push_measure",
    "PushResult",
    "TransportReport",
    "verify_transport",
]

_REPORT_SCHEMA = 1
_DENSITY_FLOOR = 1e-300


# ======================================================================
# flow
# ======================================================================

def flow(field: VelocityField1D, t: float, x):
    """Position after time t along the field, elementwise in x.

    Points on the fixed set (and outside the working domain) stay put.  Points
    whose orbit leaves the built tables through a free boundary, and points in
    unbuilt intervals, come back NaN.
    """
    t = float(t)
    return field._dispatch(x, lambda f, xs: f.Finv_extended(f.F_extended(xs) + t),
                           fill=None, unbuilt=np.nan)


# ======================================================================
# density transport
# ======================================================================

@dataclass(frozen=True)
class PushResult:
    """Image of a density under the time-t flow, on an evaluation grid."""

    measure: PiecewiseDensity
    t: float
    n: int
    mass_defect: float
    n_fallback: int     # grid points filled by the fixed-point limit law
    n_dropped: int      # grid points with no usable density (set to the floor)


def push_measure(field: VelocityField1D, m: Measure1D, t: float = 1.0, *,
                 n: int = 4097) -> PushResult:
    """Push m forward by the time-t flow and return the image density.

    The density rides the exact change of variables rho_t(y) = rho(x) v(x)/v(y)
    with x = phi(-t, y).  Where the flow leaves y in place (v vanishes at
    fixed points, or the backward step rounds away next to one) the ratio is
    replaced by its limit T'(y)^(-t).  The grid density is renormalized to
    unit mass and the defect recorded.
    """
    t = float(t)
    lo, hi = m.window(field.config.eps_tail)
    lo = max(lo, field.domain[0])
    hi = min(hi, field.domain[1])
    ends = flow(field, t, np.array([lo, hi]))
    y_lo = ends[0] if np.isfinite(ends[0]) else field.domain[0]
    y_hi = ends[1] if np.isfinite(ends[1]) else field.domain[1]
    y_lo = min(max(y_lo, field.domain[0]), field.domain[1])
    y_hi = min(max(y_hi, field.domain[0]), field.domain[1])
    if not y_hi > y_lo:
        raise InputError(f"degenerate push window [{y_lo}, {y_hi}]")
    ys = np.linspace(y_lo, y_hi, n)

    xs = flow(field, -t, ys)
    # interpolation roundoff can push preimages a hair outside the source
    # window, where a compactly supported pdf would punch spurious holes
    xs = np.where(np.isfinite(xs), np.clip(xs, lo, hi), xs)
    with np.errstate(invalid="ignore", divide="ignore"):
        vy = field.evaluate(ys)
        vx = field.evaluate(np.where(np.isfinite(xs), xs, ys))
        dens = m.pdf(np.where(np.isfinite(xs), xs, ys)) * (vx / vy)

    good = np.isfinite(dens) & np.isfinite(xs) & (vy != 0.0) & (xs != ys)
    fallback = ~good & np.isfinite(xs)
    n_fallback = int(np.count_nonzero(fallback))
    if n_fallback:
        tp = np.asarray(field.map.derivative(ys[fallback]), dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            dens_fb = np.asarray(m.pdf(ys[fallback]), dtype=float) * tp ** (-t)
        dens[fallback] = np.where(np.isfinite(dens_fb), dens_fb, 0.0)
    dropped = ~(good | fallback)
    n_dropped = int(np.count_nonzero(dropped))
    dens[dropped] = 0.0
    dens = np.maximum(dens, 0.0)

    mass = float(np.trapezoid(dens, ys))
    if not mass > 0:
        raise ConstructionError("pushed density has no mass on the evaluation grid")
    dens = np.maximum(dens / mass, _DENSITY_FLOOR)
    measure = PiecewiseDensity(ys, dens, kind_label="grid")
    return PushResult(measure=measure, t=t, n=n, mass_defect=mass - 1.0,
                      n_fallback=n_fallback, n_dropped=n_dropped)


# ======================================================================
# verification
# ======================================================================

@dataclass
class TransportReport:
    """Deterministic diagnostics for a built field against its map.

    w1_push and l1_push compare the push of m0 with m1 and are informational:
    they stay outside passed, because they measure the n_push evaluation grid
    of the push as much as the field, and gating them needs construction
    with error control first.
    """

    passed: bool
    julia_max_rel: float
    julia_samples: int
    abel_max_abs: float
    abel_samples: int
    travel_time_max_abs: float
    travel_time_samples: int
    semigroup_max_abs: float
    semigroup_rel: float
    semigroup_samples: int
    monotonicity_violations: int
    monotonicity_pairs: int
    osgood: list = dc_field(default_factory=list)
    w1_push: float | None = None
    l1_push: float | None = None
    push_mass_defect: float | None = None
    zones: list = dc_field(default_factory=list)
    warnings: list = dc_field(default_factory=list)
    tolerances: dict = dc_field(default_factory=dict)
    schema_version: int = _REPORT_SCHEMA

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "schema_version", "passed", "julia_max_rel", "julia_samples",
            "abel_max_abs", "abel_samples", "travel_time_max_abs",
            "travel_time_samples", "semigroup_max_abs", "semigroup_rel",
            "semigroup_samples", "monotonicity_violations",
            "monotonicity_pairs", "osgood", "zones", "warnings", "tolerances")}
        if self.w1_push is not None:
            d["w1_push"] = self.w1_push
            d["l1_push"] = self.l1_push
            d["push_mass_defect"] = self.push_mass_defect
        return d


def _abel_defect(field: VelocityField1D, n: int = 256):
    worst, total = 0.0, 0
    for f in field.built_intervals:
        xs, ys, _ = _interval_samples(f, field, n)
        if xs.size == 0:
            continue
        res = np.abs(f.F_spline(ys) - f.F_spline(xs) - 1.0)
        worst = max(worst, float(res.max()))
        total += xs.size
    return worst, total


def _segment_time(pp, a: float, b: float) -> float:
    """Integral of 1/|pp| over [a, b] by 8-point Gauss-Legendre on each
    polynomial piece, independent of F_spline.

    Working in each piece's local coordinate keeps the arithmetic exact even
    when [a, b] lies within an ulp-scale distance of a large abscissa, where a
    global evaluation of pp would lose the value to cancellation.  Node pairs
    across junctions have zero width and drop out with the empty overlaps.
    """
    xs = pp.xn
    j0 = max(int(np.searchsorted(xs, a, side="right")) - 1, 0)
    j1 = min(int(np.searchsorted(xs, b, side="left")), xs.size - 1)
    j = np.arange(j0, j1)
    s0 = np.maximum(a, xs[j]) - xs[j]
    s1 = np.minimum(b, xs[j + 1]) - xs[j]
    keep = s1 > s0
    j, s0, h = j[keep], s0[keep], (s1 - s0)[keep]
    s = s0[:, None] + h[:, None] * _GL_NODES
    c3, c2, c1, c0 = (c[:, None] for c in pp.cells(j))
    v = ((c3 * s + c2) * s + c1) * s + c0
    return float(np.sum(h * ((1.0 / np.abs(v)) @ _GL_WEIGHTS)))


def _travel_time_defect(field: VelocityField1D, per_interval: int = 5):
    """Travel time across single orbit steps: 1/|v| integrated by fixed-order
    Gauss-Legendre on v's pieces, independent of F_spline, against 1."""
    worst, total = 0.0, 0
    for f in field.built_intervals:
        xs, ys, _ = _interval_samples(f, field, 64)
        if xs.size == 0:
            continue
        pick = np.unique(np.linspace(0, xs.size - 1, per_interval).astype(int))
        for k in pick:
            a, b = sorted((float(xs[k]), float(ys[k])))
            worst = max(worst, abs(_segment_time(f.v_spline, a, b) - 1.0))
            total += 1
    return worst, total


_SEMIGROUP_TIMES = ((0.25, 0.25), (0.5, 0.25), (0.25, 0.5), (0.5, 0.5),
                    (0.75, 0.25), (0.125, 0.375))


def _semigroup_defect(field: VelocityField1D, n: int = 512):
    """Worst |phi(s, phi(t, x)) - phi(s + t, x)| over fixed time pairs.

    The flow is a group by construction, so this reads roundoff unless the
    inversion of the clock F fails.
    """
    lo, hi = field.domain
    xs = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    worst, total = 0.0, 0
    for s, t in _SEMIGROUP_TIMES:
        a = flow(field, s, flow(field, t, xs))
        b = flow(field, s + t, xs)
        ok = np.isfinite(a) & np.isfinite(b)
        if np.any(ok):
            worst = max(worst, float(np.max(np.abs(a[ok] - b[ok]))))
            total += int(np.count_nonzero(ok))
    return worst, total


def _monotonicity(field: VelocityField1D, n_pairs: int = 10000):
    lo, hi = field.domain
    xs = np.linspace(lo, hi, n_pairs + 1)
    violations, pairs = 0, 0
    for t in (0.5, 1.0):
        ph = flow(field, t, xs)
        ok = np.isfinite(ph)
        p = ph[ok]
        violations += int(np.count_nonzero(np.diff(p) < 0))
        pairs += max(p.size - 1, 0)
    return violations, pairs


def _osgood_rows(field: VelocityField1D, m_max: int = 20):
    """Cumulative independent integrals of 1/|v| over successive orbit gaps.

    Per interval, the seed anchor's orbit is followed toward the trailing
    fixed end when the interval has one (where the gaps accumulate without
    bound) across the whole backward pieces, else along the motion across
    the seed and the whole forward pieces.  The m-th cumulative integral must
    equal m, unit travel time per orbit step.  The walk stops where a clip
    first cut the march: every later piece is the image of a cut one, whose
    far end is no orbit point of the anchor, so it spans no orbit gap.
    """
    rows = []
    for i, f in enumerate(field.built_intervals):
        # anchors in motion order: the seed's first node follows the
        # backward pieces
        anchors = f.anchors if f.direction > 0 else f.anchors[::-1]
        k0 = f.depth_backward
        if f.zone_trail is not None:
            seq, n = anchors[k0::-1], f.whole_backward
        else:
            seq, n = anchors[k0:], 1 + f.whole_forward
        acc = 0.0
        for m in range(1, min(m_max, n) + 1):
            a, b = sorted((float(seq[m - 1]), float(seq[m])))
            acc += _segment_time(f.v_spline, a, b)
            rows.append({"interval": i, "m": m, "integral": acc,
                         "deviation": acc - m})
    return rows


def verify_transport(field: VelocityField1D, m0: Measure1D | None = None,
                     m1: Measure1D | None = None, *,
                     n_push: int = 4097) -> TransportReport:
    """Run the deterministic verification battery on a built field.

    Measures default to the ones attached to the field's map.  The
    pushforward comparison (W1 and L1 against the target) runs whenever both
    measures resolve, given or the map's own; otherwise its entries are None.
    """
    cfg = field.config
    m0 = field.map.source if m0 is None else m0
    m1 = field.map.target if m1 is None else m1

    jr = julia_residual(field)
    abel, abel_n = _abel_defect(field)
    tt, tt_n = _travel_time_defect(field)
    sg, sg_n = _semigroup_defect(field)
    width = field.domain[1] - field.domain[0]
    mono_bad, mono_n = _monotonicity(field)
    osgood = _osgood_rows(field)

    w1 = l1 = defect = None
    if m0 is not None and m1 is not None:
        push = push_measure(field, m0, 1.0, n=n_push)
        w1 = wasserstein1(push.measure, m1)
        l1 = l1_distance(push.measure, m1)
        defect = push.mass_defect

    osgood_worst = max((abs(r["deviation"]) for r in osgood), default=0.0)
    tol = {"julia": cfg.tol_julia, "time": cfg.tol_time,
           "semigroup_rel": cfg.tol_time}
    passed = (jr["max_rel"] <= cfg.tol_julia
              and abel <= cfg.tol_time
              and tt <= cfg.tol_time
              and osgood_worst <= cfg.tol_time
              and sg <= cfg.tol_time * max(width, 1.0)
              and mono_bad == 0)

    return TransportReport(
        passed=bool(passed),
        julia_max_rel=jr["max_rel"], julia_samples=jr["n_samples"],
        abel_max_abs=abel, abel_samples=abel_n,
        travel_time_max_abs=tt, travel_time_samples=tt_n,
        semigroup_max_abs=sg, semigroup_rel=sg / max(width, 1e-300),
        semigroup_samples=sg_n,
        monotonicity_violations=mono_bad, monotonicity_pairs=mono_n,
        osgood=osgood,
        w1_push=w1, l1_push=l1, push_mass_defect=defect,
        zones=[{"side": z.side, **z.record()} for z in field.truncation_zones()],
        warnings=list(field.all_warnings()),
        tolerances=tol,
    )
