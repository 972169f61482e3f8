"""Ray decompositions and field assembly in dimension d >= 2.

Some transport problems in R^d split into independent one-dimensional
problems along a family of rays (a Sudakov-type reduction).  Two analytic
classes are supported:

* parallel rays: both measures are products of independent factors and all
  factors agree except one.  Every ray runs along the distinguished axis and
  carries the same conditional pair, namely the two differing factors.
* radial rays: both measures are uniform on balls about a common center.
  Rays are the half-lines through the center; the conditional law of the
  radius carries the surface Jacobian r^(d-1), so on every ray the pair of
  radius distributions is again the same.

In both classes the per-ray conditional pair does not depend on the ray, so
one one-dimensional velocity field drives the whole family: the d-dimensional
field is that scalar field evaluated at the ray coordinate, times the ray
direction.  verify_nd pushes and measures that one pair once; its ray draws
serve only the fiber-mass check.  Pairs outside these classes raise
UnsupportedDecompositionError; general ray extraction from a Kantorovich
potential is out of scope and is the natural extension point.

The velocity is only defined on the transport set (the union of rays meeting
both supports).  Off that set evaluators return NaN and a mask method reports
membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, BuildConfig
from .errors import InputError, MeasureSpecError, UnsupportedDecompositionError
from .flow import flow as flow_1d
from .flow import push_measure
from .measures import (Measure1D, _as_array, _check_prob, _floats, _read_spec,
                       _scalar_like, _spec_fields, measure_to_dict, parse_measure,
                       wasserstein1)
from .monotone import MonotoneMap, compute_monotone_map
from .velocity import VelocityField1D, build_velocity

__all__ = [
    "RadiusLaw", "ProductMeasure", "BallMeasure", "parse_measure_nd",
    "measure_nd_to_dict", "translate_nd", "RayFamilyND", "decompose",
    "per_ray_monotone_map", "VelocityFieldND", "assemble_field",
    "NdTransportReport", "verify_nd",
]

# family-level invariant tolerances
MASS_MATCH_TOL = 1e-10
CONFINEMENT_TOL = 1e-12
RADIAL_REARRANGEMENT_TOL = 1e-6
PER_RAY_W1_TOL = 1e-4
SLICED_W1_TOL = 2e-3

DEFAULT_RAY_COUNT = 64
DEFAULT_DIRECTION_COUNT = 32
# evaluation grid of the conditional pair's push in verify_nd
_PUSH_GRID = 2049


# ======================================================================
# the radius distribution of a uniform ball draw
# ======================================================================

@dataclass(frozen=True)
class RadiusLaw(Measure1D):
    """Law of |X - c| when X is uniform on a d-dimensional ball of radius R.

    Density d r^(d-1) / R^d on [0, R]: the constant volumetric density times
    the spherical surface Jacobian r^(d-1).  This is the conditional measure
    a uniform ball induces on each of its radial rays, identically in the
    ray direction.
    """

    dimension: int
    radius: float

    kind = "radius"

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise MeasureSpecError(f"radius law: dimension must be a positive "
                                   f"integer, got {self.dimension}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise MeasureSpecError(f"radius law: radius must be positive, "
                                   f"got {self.radius}")

    @property
    def support(self):
        return (0.0, self.radius)

    def pdf(self, r):
        r, scalar = _as_array(r)
        d, R = self.dimension, self.radius
        inside = (r >= 0.0) & (r <= R)
        with np.errstate(invalid="ignore"):
            out = np.where(inside, d * np.abs(r) ** (d - 1) / R ** d, 0.0)
        return _scalar_like(out, scalar)

    def pdf_derivative(self, r):
        r, scalar = _as_array(r)
        d, R = self.dimension, self.radius
        inside = (r >= 0.0) & (r <= R)
        if d == 1:
            out = np.zeros_like(r)
        else:
            with np.errstate(invalid="ignore"):
                out = np.where(inside,
                               d * (d - 1) * np.abs(r) ** (d - 2) / R ** d, 0.0)
        return _scalar_like(out, scalar)

    def cell_nodes(self):
        """The support ends, between which the density is constant (d = 1)
        or linear (d = 2); higher dimensions take the quantile grid."""
        if self.dimension <= 2:
            return np.array([0.0, self.radius]), True
        return super().cell_nodes()

    def cdf(self, r):
        r, scalar = _as_array(r)
        out = np.clip(r / self.radius, 0.0, 1.0) ** self.dimension
        return _scalar_like(out, scalar)

    def quantile(self, p):
        p, scalar = _as_array(p)
        _check_prob(p, "radius.quantile")
        return _scalar_like(self.radius * p ** (1.0 / self.dimension), scalar)


# ======================================================================
# d-dimensional measures
# ======================================================================

class MeasureND:
    """Abstract absolutely continuous probability measure on R^d, d >= 2."""

    kind: str = "abstract"

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    @property
    def n_uniform_columns(self) -> int:
        """Columns of unit-uniform draws one sample consumes."""
        raise NotImplementedError

    def sample_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Deterministic map from unit-uniform draws (n, columns) to samples.

        Feeding two measures the same draws couples their samples; for
        measures related by a quantile-wise map the coupling is the monotone
        one, which removes most Monte Carlo noise from paired comparisons.
        """
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_from_uniform(rng.random((int(n), self.n_uniform_columns)))


@dataclass(frozen=True)
class ProductMeasure(MeasureND):
    """Product of independent one-dimensional factors."""

    factors: tuple

    kind = "product"

    def __post_init__(self):
        if len(self.factors) < 2:
            raise MeasureSpecError("product measure: need at least two factors")
        for j, f in enumerate(self.factors):
            if not isinstance(f, Measure1D):
                raise MeasureSpecError(
                    f"product measure: factor {j} is {type(f).__name__}, "
                    "expected a one-dimensional measure")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dimension(self):
        return len(self.factors)

    @property
    def n_uniform_columns(self):
        return len(self.factors)

    def sample_from_uniform(self, u):
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] < self.dimension:
            raise InputError(f"product sampling: need draws of shape (n, {self.dimension})")
        cols = [np.asarray(f.quantile(u[:, j]), dtype=float)
                for j, f in enumerate(self.factors)]
        return np.column_stack(cols)


@dataclass(frozen=True)
class BallMeasure(MeasureND):
    """Uniform probability measure on a solid ball."""

    center: tuple
    radius: float

    kind = "ball"

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1 or center.size < 2:
            raise MeasureSpecError("ball measure: center must be a vector of "
                                   "dimension >= 2")
        if not np.all(np.isfinite(center)):
            raise MeasureSpecError("ball measure: center must be finite")
        center = tuple(float(c) for c in center)
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise MeasureSpecError(f"ball measure: radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dimension(self):
        return len(self.center)

    @property
    def n_uniform_columns(self):
        return self.dimension

    def radius_law(self) -> RadiusLaw:
        return RadiusLaw(self.dimension, self.radius)

    def sample_from_uniform(self, u):
        u = np.asarray(u, dtype=float)
        d = self.dimension
        if u.ndim != 2 or u.shape[1] < d:
            raise InputError(f"ball sampling: need draws of shape (n, {d})")
        r = self.radius * u[:, 0] ** (1.0 / d)
        if d == 2:
            theta = 2.0 * np.pi * u[:, 1]
            dirs = np.column_stack((np.cos(theta), np.sin(theta)))
        elif d == 3:
            z = 2.0 * u[:, 1] - 1.0
            phi = 2.0 * np.pi * u[:, 2]
            s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
            dirs = np.column_stack((s * np.cos(phi), s * np.sin(phi), z))
        else:
            raise InputError("ball sampling: implemented for dimensions 2 and 3")
        return np.asarray(self.center, dtype=float)[None, :] + r[:, None] * dirs


def translate_nd(m: "ProductMeasure | BallMeasure", shift) -> "ProductMeasure | BallMeasure":
    """Pushforward of a d-dimensional measure under x -> x + shift."""
    m = parse_measure_nd(m)
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.size != m.dimension:
        raise InputError(f"translate: shift has size {shift.size}, measure has "
                         f"dimension {m.dimension}")
    if isinstance(m, BallMeasure):
        return BallMeasure(tuple(np.asarray(m.center) + shift), m.radius)
    from .measures import translate as translate_1d
    return ProductMeasure(tuple(translate_1d(f, float(c))
                                for f, c in zip(m.factors, shift)))


def parse_measure_nd(spec) -> MeasureND:
    """Build a d-dimensional measure from a dict, JSON text, or a JSON file path."""
    if isinstance(spec, MeasureND):
        return spec
    spec = _read_spec(spec)
    kind = spec.get("kind")
    if kind == "product":
        return ProductMeasure(*_spec_fields(
            spec, "product measure spec",
            factors=lambda fs: tuple(map(parse_measure, fs))))
    if kind == "ball":
        return BallMeasure(*_spec_fields(spec, "ball measure spec", center=_floats,
                                         radius=float))
    raise MeasureSpecError(f"d-dimensional measure spec: unknown kind {kind!r}")


def measure_nd_to_dict(m: MeasureND) -> dict:
    """Serialize a d-dimensional measure back to its spec dict."""
    if isinstance(m, ProductMeasure):
        return {"kind": "product", "factors": [measure_to_dict(f) for f in m.factors]}
    if isinstance(m, BallMeasure):
        return {"kind": "ball", "center": list(m.center), "radius": m.radius}
    raise MeasureSpecError(f"cannot serialize measure of type {type(m).__name__}")


def _measure_summary(m) -> dict:
    if isinstance(m, RadiusLaw):
        return {"kind": "radius", "dimension": m.dimension, "radius": m.radius}
    return measure_to_dict(m, summary=True)


# ======================================================================
# ray families
# ======================================================================

class RayFamilyND:
    """A parallel or radial family of rays with its shared conditional pair.

    kind "parallel": rays run along coordinate ``axis``; a ray is indexed by
    the d-1 remaining (transverse) coordinates and its conditional pair is
    the two differing product factors, the same pair for every ray.

    kind "radial": rays are half-lines from ``center``, indexed by a unit
    direction; the conditional pair is the two radius laws (surface Jacobian
    included), again the same for every ray.

    conditional_rule records which disintegration produced the pair.
    """

    def __init__(self, kind: str, m0: MeasureND, m1: MeasureND,
                 cond0: Measure1D, cond1: Measure1D, *,
                 axis: int | None = None,
                 transverse0: tuple = (), transverse1: tuple = (),
                 center=None, conditional_rule: str = ""):
        if kind not in ("parallel", "radial"):
            raise InputError(f"ray family: unknown kind {kind!r}")
        self.kind = kind
        self.m0 = m0
        self.m1 = m1
        self.cond0 = cond0
        self.cond1 = cond1
        self.axis = axis
        self.transverse0 = tuple(transverse0)
        self.transverse1 = tuple(transverse1)
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.conditional_rule = conditional_rule
        self.dimension = m0.dimension

    def sample_alphas(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Ray indices drawn from the transverse law (parallel) or uniformly
        on the sphere of directions (radial), at which verify_nd checks the
        fiber masses."""
        n = int(n)
        if self.kind == "parallel":
            cols = [np.asarray(f.quantile(rng.random(n)), dtype=float)
                    for f in self.transverse0]
            return np.column_stack(cols)
        if self.dimension == 2:
            theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
            return np.column_stack((np.cos(theta), np.sin(theta)))
        g = rng.standard_normal((n, self.dimension))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    # ---- disintegration ---------------------------------------------------

    def fiber_mass(self, alpha, side: int = 0) -> float:
        """Density of rays at alpha: the transverse product density (parallel)
        or the uniform density on directions (radial)."""
        factors = (self.transverse0, self.transverse1)[side]
        if self.kind == "parallel":
            alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
            out = 1.0
            for f, a in zip(factors, alpha):
                out *= float(f.pdf(float(a)))
            return out
        d = self.dimension
        surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        return 1.0 / surface

    def fiber_mass_defect(self, alpha) -> float:
        return abs(self.fiber_mass(alpha, 0) - self.fiber_mass(alpha, 1))

    def conditional_mass_defect(self) -> float:
        """Mismatch of per-ray conditional masses (both laws are normalized;
        computed from the cdf range rather than asserted)."""
        vals = []
        for c in (self.cond0, self.cond1):
            lo, hi = c.window(1e-13)
            vals.append(float(c.cdf(hi) - c.cdf(lo)))
        return abs(vals[0] - vals[1])

    def describe(self) -> dict:
        out = {
            "kind": self.kind,
            "dimension": self.dimension,
            "conditional_rule": self.conditional_rule,
            "conditional_source": _measure_summary(self.cond0),
            "conditional_target": _measure_summary(self.cond1),
        }
        if self.kind == "parallel":
            out["axis"] = self.axis
            out["transverse"] = [_measure_summary(f) for f in self.transverse0]
        else:
            out["center"] = [float(c) for c in self.center]
        return out


def _factors_match(a: Measure1D, b: Measure1D) -> bool:
    try:
        return measure_to_dict(a) == measure_to_dict(b)
    except MeasureSpecError:
        return False


def decompose(m0, m1) -> RayFamilyND:
    """Split a supported d-dimensional pair into rays with 1d conditionals.

    Supported classes: two products sharing all factors but (at most) one,
    giving parallel rays along the differing axis; and two balls about the
    same center, giving radial rays.  Anything else raises
    UnsupportedDecompositionError naming the obstruction.
    """
    m0 = parse_measure_nd(m0)
    m1 = parse_measure_nd(m1)
    if m0.dimension != m1.dimension:
        raise InputError(f"decompose: dimensions differ "
                         f"({m0.dimension} vs {m1.dimension})")
    if m0.dimension < 2:
        raise InputError("decompose: use the one-dimensional pipeline below d=2")

    if isinstance(m0, BallMeasure) and isinstance(m1, BallMeasure):
        if tuple(m0.center) != tuple(m1.center):
            raise UnsupportedDecompositionError(
                f"balls centered at {m0.center} and {m1.center}: radial rays "
                "need a common center")
        return RayFamilyND(
            "radial", m0, m1, m0.radius_law(), m1.radius_law(),
            center=m0.center,
            conditional_rule=(f"radius law with surface Jacobian r^{m0.dimension - 1}, "
                              "identical on every ray by symmetry"))

    if isinstance(m0, ProductMeasure) and isinstance(m1, ProductMeasure):
        d = m0.dimension
        diffs = [j for j in range(d)
                 if not _factors_match(m0.factors[j], m1.factors[j])]
        if len(diffs) > 1:
            raise UnsupportedDecompositionError(
                f"product measures differ in factors {diffs}; parallel rays "
                "need all factors shared except one")
        axis = diffs[0] if diffs else 0
        keep = [j for j in range(d) if j != axis]
        return RayFamilyND(
            "parallel", m0, m1, m0.factors[axis], m1.factors[axis], axis=axis,
            transverse0=tuple(m0.factors[j] for j in keep),
            transverse1=tuple(m1.factors[j] for j in keep),
            conditional_rule=("differing product factor; transverse factors "
                              "shared, so the pair is identical on every ray"))

    raise UnsupportedDecompositionError(
        f"no ray decomposition rule for the pair ({m0.kind}, {m1.kind})")


def per_ray_monotone_map(family: RayFamilyND) -> MonotoneMap:
    """Increasing rearrangement between the conditionals, the one map every
    ray of the family shares."""
    return compute_monotone_map(family.cond0, family.cond1)


# ======================================================================
# assembled d-dimensional field
# ======================================================================

def _as_points(x, d: int):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != d:
        raise InputError(f"expected points with {d} coordinates, got shape "
                         f"{tuple(np.shape(x))}")
    return pts, single


class VelocityFieldND:
    """Autonomous velocity field on R^d driving a ray family.

    The scalar ray field is shared (the conditional pair is ray-independent),
    so v(x) = w(s(x)) e(x) with s the ray coordinate and e the ray direction.
    Points off the transport set get NaN; transport_set_mask reports them.
    """

    def __init__(self, family: RayFamilyND, field: VelocityField1D):
        self.family = family
        self.field = field
        self.dimension = family.dimension

    # ---- ray geometry -----------------------------------------------------

    def _ray(self, pts, unit=False):
        """Ray coordinate s of each point of an (n, d) array; with unit,
        (s, e) with e the unit ray directions (zero at a radial center)."""
        fam = self.family
        if fam.kind == "parallel":
            s = pts[:, fam.axis].copy()
            e = np.zeros_like(pts) if unit else None
            if unit:
                e[:, fam.axis] = 1.0
        else:
            e = pts - fam.center[None, :]
            s = np.linalg.norm(e, axis=1)
            if unit:
                e /= np.where(s > 0.0, s, 1.0)[:, None]
                e[s == 0.0] = 0.0
        return (s, e) if unit else s

    def _mask(self, pts, s):
        """transport_set_mask of the points at ray coordinates s."""
        lo, hi = self.field.domain
        ok = (s >= lo) & (s <= hi)
        if self.family.kind == "parallel":
            keep = [j for j in range(self.dimension) if j != self.family.axis]
            for f, j in zip(self.family.transverse0, keep):
                flo, fhi = f.support
                ok &= (pts[:, j] >= flo) & (pts[:, j] <= fhi)
        return ok

    def transport_set_mask(self, pts):
        """True where the field is defined: on a ray of the family, at a ray
        coordinate inside the built working domain."""
        pts, single = _as_points(pts, self.dimension)
        ok = self._mask(pts, self._ray(pts))
        return bool(ok[0]) if single else ok

    # ---- evaluation -------------------------------------------------------

    def velocity(self, pts):
        """v(x) = w(s(x)) e(x); NaN rows off the transport set."""
        pts, single = _as_points(pts, self.dimension)
        s, out = self._ray(pts, unit=True)
        out *= np.asarray(self.field.evaluate(s), dtype=float)[:, None]
        out[~self._mask(pts, s)] = np.nan
        return out[0] if single else out

    def flow(self, t: float, pts):
        """Time-t flow: each point slides along its ray by the 1d flow of the
        shared scalar field.  NaN rows off the transport set or where the 1d
        orbit leaves the built tables.  The ray coordinate serves the flow
        and the mask, and a radial result is scaled in place."""
        pts, single = _as_points(pts, self.dimension)
        s = self._ray(pts)
        off = ~self._mask(pts, s)
        s1 = np.asarray(flow_1d(self.field, float(t), s), dtype=float)
        if self.family.kind == "parallel":
            out = pts.copy()
            out[:, self.family.axis] = s1
        else:
            out = pts - self.family.center[None, :]
            out *= np.where(s > 0.0, s1 / np.where(s > 0.0, s, 1.0), 0.0)[:, None]
            out += self.family.center[None, :]
        out[off] = np.nan
        return out[0] if single else out


def assemble_field(family: RayFamilyND, *,
                   config: BuildConfig = DEFAULT_CONFIG) -> VelocityFieldND:
    """Build the shared scalar ray field and wrap it with the ray geometry.
    The seed is build_velocity's default, "affine"; no caller picks another."""
    field = build_velocity(family.cond0, family.cond1,
                           transport_map=per_ray_monotone_map(family), config=config)
    return VelocityFieldND(family, field)


# ======================================================================
# verification
# ======================================================================

@dataclass
class NdTransportReport:
    """Measured invariants of an assembled d-dimensional field.

    The conditional pair is shared across rays by the class structure, so
    per_ray_w1_max is the W1 of its push, measured once, and holds for all
    n_rays rays; the sampled rays feed fiber_mass_defect_max.
    sliced_w1_* compare the pushed sample cloud against a coupled target
    cloud (same uniform draws through both samplers), so an exact field
    reports values at the flow-accuracy level rather than the Monte Carlo
    noise level.
    radial_rearrangement_rel_max compares flowed radii against the separate
    d-dimensional radial cdf rearrangement (None for parallel families).
    """

    kind: str
    dimension: int
    t: float
    n_samples: int
    n_rays: int
    n_directions: int
    rng_seed: int
    conditional_mass_defect: float
    fiber_mass_defect_max: float
    per_ray_w1_max: float
    sliced_w1_mean: float
    sliced_w1_max: float
    n_unflowed: int
    confinement_max: float
    radial_rearrangement_rel_max: float | None
    tolerances: dict
    checks: dict
    ok: bool
    notes: list

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def verify_nd(field_nd: VelocityFieldND, *, n_samples: int = 100000,
              n_rays: int = DEFAULT_RAY_COUNT,
              n_directions: int = DEFAULT_DIRECTION_COUNT,
              seed: int = 20260823) -> NdTransportReport:
    """Monte Carlo and conditional checks of an assembled field, at the time
    t = 1 whose flow realizes the map.

    The shared conditional pair is pushed and measured once; the n_rays ray
    draws serve the fiber-mass check.  Draws are coupled: the same uniform
    matrix feeds both samplers, so the sliced distance isolates flow error
    instead of sampling noise (and an identity problem reports exactly
    zero).  The reported seed makes reruns byte-identical.  It keeps one
    copy of each cloud: the finite rows are copied only when some row is not.
    """
    if min(n_samples, n_rays, n_directions) < 1:
        raise InputError("verify_nd: n_samples, n_rays and n_directions must be "
                         f"positive, got {n_samples}, {n_rays}, {n_directions}")
    fam = field_nd.family
    rng = np.random.default_rng(seed)
    notes: list = []

    # ---- the conditional pair and the fibers -----------------------------
    cond_defect = fam.conditional_mass_defect()
    alphas = fam.sample_alphas(n_rays, rng)
    fiber_defect = max(fam.fiber_mass_defect(a) for a in alphas)
    pushed = push_measure(field_nd.field, fam.cond0, 1.0, n=_PUSH_GRID)
    w1 = float(wasserstein1(pushed.measure, fam.cond1))

    # ---- coupled sample clouds -------------------------------------------
    cols = max(fam.m0.n_uniform_columns, fam.m1.n_uniform_columns)
    u = rng.random((int(n_samples), cols))
    x0 = fam.m0.sample_from_uniform(u)
    x1 = fam.m1.sample_from_uniform(u)
    del u
    y = field_nd.flow(1.0, x0)
    finite = np.all(np.isfinite(y), axis=1)
    n_unflowed = int(np.count_nonzero(~finite))
    if n_unflowed:
        notes.append(f"{n_unflowed} of {n_samples} samples left the built tables")
        y, x0, x1 = y[finite], x0[finite], x1[finite]

    # ---- sliced distance over a fixed direction grid ---------------------
    d = fam.dimension
    if d == 2:
        ang = np.pi * (np.arange(n_directions) + 0.5) / n_directions
        dirs = np.column_stack((np.cos(ang), np.sin(ang)))
    else:
        g = rng.standard_normal((n_directions, d))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    sliced = []
    for e in dirs:
        a, b = y @ e, x1 @ e
        a.sort()
        b.sort()
        sliced.append(float(np.mean(np.abs(np.subtract(a, b, out=a), out=a))))
    sliced_mean, sliced_max = float(np.mean(sliced)), float(np.max(sliced))

    # ---- ray confinement by columns, and the radial rearrangement -------
    radial_rel = None
    if fam.kind == "parallel":
        worst = [np.max(np.abs(y[:, j] - x0[:, j]), initial=0.0)
                 for j in range(d) if j != fam.axis]
    else:
        r0 = np.linalg.norm(x0 - fam.center[None, :], axis=1)
        safe = np.where(r0 > 0.0, r0, 1.0)
        ry = np.linalg.norm(y - fam.center[None, :], axis=1)
        worst = [np.max(np.abs((y[:, j] - c) - ry * ((x0[:, j] - c) / safe)),
                        initial=0.0) for j, c in enumerate(fam.center)]
        direct = np.asarray(fam.cond1.quantile(fam.cond0.cdf(r0)), dtype=float)
        good = direct > 1e-12
        radial_rel = float(np.max(np.abs(ry[good] - direct[good]) / direct[good],
                                  initial=0.0))
    confinement = float(np.max(worst, initial=0.0))

    tolerances = {
        "conditional_mass": MASS_MATCH_TOL,
        "fiber_mass": MASS_MATCH_TOL,
        "per_ray_w1": PER_RAY_W1_TOL,
        "sliced_w1": SLICED_W1_TOL,
        "confinement": CONFINEMENT_TOL,
        "radial_rearrangement": RADIAL_REARRANGEMENT_TOL,
    }
    checks = {
        "conditional_mass": cond_defect <= MASS_MATCH_TOL,
        "fiber_mass": fiber_defect <= MASS_MATCH_TOL,
        "per_ray_w1": w1 <= PER_RAY_W1_TOL,
        "sliced_w1": math.isfinite(sliced_max) and sliced_max <= SLICED_W1_TOL,
        "confinement": confinement <= CONFINEMENT_TOL,
    }
    if radial_rel is not None:
        checks["radial_rearrangement"] = radial_rel <= RADIAL_REARRANGEMENT_TOL

    return NdTransportReport(
        kind=fam.kind, dimension=d, t=1.0, n_samples=int(n_samples),
        n_rays=int(n_rays), n_directions=int(n_directions), rng_seed=int(seed),
        conditional_mass_defect=cond_defect, fiber_mass_defect_max=fiber_defect,
        per_ray_w1_max=w1, sliced_w1_mean=sliced_mean, sliced_w1_max=sliced_max,
        n_unflowed=n_unflowed, confinement_max=confinement,
        radial_rearrangement_rel_max=radial_rel,
        tolerances=tolerances, checks=checks, ok=all(checks.values()),
        notes=notes)
