"""Named example problems exercising every construction case.

Each entry packages a measure pair, optionally an analytic transport map and
an explicit fixed-point partition, plus whatever closed forms exist for
cross-checking.  The names:

* ``affine``: uniform source, affine image target.  Everything is closed
  form; one interior fixed point when the slope differs from 1.
* ``gaussian``: two normal laws; the map is affine, the field linear around
  the fixed point (or constant for equal spreads).
* ``bad-fixed-point``: uniform source onto a linearly decaying density with
  map slope exactly 1 at the fixed point 0.  Orbits converge harmonically,
  so the build truncates at a step cap and flags the zone.
* ``accumulating-c1`` / ``accumulating-cinf``: maps x + x^3 sin(pi/x)/5 and
  x + exp(-1/x) sin(pi/x)/5 with fixed points 1/n accumulating at 0.  The
  resolved tiers get per-interval fields; the sub-grid tail is treated as
  fixed and marked indeterminate at 0.

Closed forms carried by an example are independent of the build pipeline and
serve as oracles; the builders themselves run the production route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import DEFAULT_CONFIG, BuildConfig
from .errors import InputError
from .measures import (AffineImage, Gaussian, Measure1D, PiecewiseDensity,
                       Uniform, pushforward_by_map)
from .monotone import (FixedPointPartition, MonotoneMap, MovingInterval,
                       map_from_callables)
from .velocity import VelocityField1D, build_velocity

__all__ = ["ExampleProblem", "example_names", "get_example"]


@dataclass(frozen=True)
class ExampleProblem:
    """A measure pair with optional analytic map, partition, and oracles.

    closed maps oracle names to callables (vectorized in x; "flow" takes
    (t, x)).  Builders receiving no transport_map fall back to the quantile
    composition, keeping the closed forms an independent route.
    """

    name: str
    m0: Measure1D
    m1: Measure1D
    description: str
    transport_map: MonotoneMap | None = None
    partition: FixedPointPartition | None = None
    default_max_steps: int | None = None
    closed: dict = dc_field(default_factory=dict)

    def build(self, *, seed: str = "affine",
              config: BuildConfig = DEFAULT_CONFIG) -> VelocityField1D:
        """Build the field; default_max_steps, when set, replaces the
        config's orbit_max_steps."""
        if self.default_max_steps is not None:
            config = config.with_(orbit_max_steps=self.default_max_steps)
        return build_velocity(self.m0, self.m1, transport_map=self.transport_map,
                              partition=self.partition, seed=seed, config=config)


# ======================================================================
# affine family
# ======================================================================

def _affine_oracles(slope: float, shift: float, fp: float | None) -> dict:
    """Closed velocity, flow and fixed point of an increasing affine map:
    the translation by shift when slope is 1, else the dilation about fp."""
    if slope == 1.0:
        return {"velocity": lambda x: np.full_like(np.asarray(x, dtype=float), shift),
                "flow": lambda t, x: np.asarray(x, dtype=float) + shift * t,
                "fixed_point": None}
    rate = math.log(slope)
    return {"velocity": lambda x: (np.asarray(x, dtype=float) - fp) * rate,
            "flow": lambda t, x: fp + slope ** t * (np.asarray(x, dtype=float) - fp),
            "fixed_point": fp}


def _affine_example(alpha: float = 3.0, beta: float = -3.0) -> ExampleProblem:
    """Uniform [1, 2] pushed onto its affine image under x -> alpha x + beta."""
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and alpha > 0):
        raise InputError(f"affine example: slope must be positive, got {alpha}")
    if not math.isfinite(beta):
        raise InputError("affine example: offset must be finite")
    m0 = Uniform(1.0, 2.0)
    m1 = AffineImage(m0, 1.0 / alpha, beta)

    if alpha == 1.0 and beta == 0.0:
        raise InputError("affine example: identity map has no field to build")
    closed = {"map": lambda x: alpha * np.asarray(x, dtype=float) + beta,
              **_affine_oracles(alpha, beta,
                                None if alpha == 1.0 else beta / (1.0 - alpha))}

    return ExampleProblem(
        name="affine", m0=m0, m1=m1,
        description=(f"uniform [1, 2] onto its affine image with slope {alpha:g} "
                     f"and offset {beta:g}; fully closed form"),
        closed=closed)


# ======================================================================
# gaussian pair
# ======================================================================

def _gaussian_example(mean0: float = 0.0, std0: float = 1.0,
                      mean1: float = 1.0, std1: float = 2.0) -> ExampleProblem:
    """Normal onto normal; the monotone map is affine with slope std1/std0."""
    m0 = Gaussian(float(mean0), float(std0))
    m1 = Gaussian(float(mean1), float(std1))
    slope = m1.std / m0.std

    shift = m1.mean - m0.mean
    if slope == 1.0 and shift == 0.0:
        raise InputError("gaussian example: identical laws leave nothing to build")
    fp = None if slope == 1.0 else (
        (m0.std * m1.mean - m1.std * m0.mean) / (m0.std - m1.std))
    closed = {"map": lambda x: slope * (np.asarray(x, dtype=float) - m0.mean) + m1.mean,
              **_affine_oracles(slope, shift, fp)}

    return ExampleProblem(
        name="gaussian", m0=m0, m1=m1,
        description=(f"normal ({m0.mean:g}, {m0.std:g}) onto normal "
                     f"({m1.mean:g}, {m1.std:g}); affine map, linear field"),
        closed=closed)


# ======================================================================
# slope-one fixed point
# ======================================================================

def _bad_fixed_point_example() -> ExampleProblem:
    """Uniform [0, 2] onto the linear density (1/2 - y/9) on [0, 3].

    The map solves y - y^2/9 = x on the increasing branch, so the fixed point
    0 has slope exactly 1 and equal densities on both sides: the orbit
    approaches it harmonically and no continuation past the truncation zone
    is certified.  The partition is supplied in closed form with 0 marked
    indeterminate.
    """
    m0 = Uniform(0.0, 2.0)
    m1 = PiecewiseDensity(np.array([0.0, 3.0]), np.array([0.5, 1.0 / 6.0]))

    def forward(x):
        x = np.asarray(x, dtype=float)
        return (9.0 - np.sqrt(81.0 - 36.0 * x)) / 2.0

    def jet(x):
        r = np.sqrt(81.0 - 36.0 * np.asarray(x, dtype=float))
        return (9.0 - r) / 2.0, 9.0 / r, 162.0 / r ** 3

    def inverse(y):
        y = np.asarray(y, dtype=float)
        return y - y * y / 9.0

    tmap = map_from_callables(forward, jet, inverse=inverse, source=m0, target=m1)
    partition = FixedPointPartition(
        domain=(0.0, 3.0),
        fixed_intervals=((0.0, 0.0),),
        moving_intervals=(MovingInterval(0.0, 3.0, 1, True, False),),
        indeterminate=(0.0,))

    return ExampleProblem(
        name="bad-fixed-point", m0=m0, m1=m1,
        description=("uniform [0, 2] onto the density (1/2 - y/9) on [0, 3]; "
                     "map slope 1 at the fixed point 0, truncation flagged"),
        transport_map=tmap, partition=partition, default_max_steps=2500,
        closed={"map": forward, "map_inverse": inverse, "fixed_point": 0.0})


# ======================================================================
# accumulating fixed points
# ======================================================================

def _accumulating_example(variant: str = "c1", n_tiers: int = 12) -> ExampleProblem:
    """Uniform [0, 1] under a map with fixed points at every 1/n.

    variant "c1" uses the displacement x^3 sin(pi/x)/5 (continuously
    differentiable at 0), variant "cinf" uses exp(-1/x) sin(pi/x)/5 (flat at
    0).  Tiers (1/(n+1), 1/n) up to n_tiers are built with alternating
    directions and good fixed ends; below 1/n_tiers the displacement is
    under machine-resolvable and the tail is treated as part of the fixed
    set, with the accumulation point 0 marked indeterminate.
    """
    n_tiers = int(n_tiers)
    if n_tiers < 3:
        raise InputError("accumulating example: need at least 3 tiers")
    if variant not in ("c1", "cinf"):
        raise InputError(f"accumulating example: unknown variant {variant!r}")

    if variant == "c1":
        def envelope(x):
            return x ** 3 / 5.0

        def envelope_d(x, e):
            return 3.0 * x * x / 5.0

        def envelope_dd(x, e):
            return 6.0 * x / 5.0
    else:
        def envelope(x):
            # -1/x overflows to -inf below about 5.6e-309, where e is 0
            with np.errstate(over="ignore"):
                return np.exp(-1.0 / x) / 5.0

        def envelope_d(x, e):
            return e / x ** 2

        def envelope_dd(x, e):
            return e * (1.0 - 2.0 * x) / x ** 4

    def positive_jet(x, order):
        """The jet of x + envelope(x) sin(pi/x) at points x > 0."""
        e = envelope(x)
        phase = np.pi / x
        s = np.sin(phase)
        y = x + e * s
        if order == 0:
            return y
        e1 = envelope_d(x, e)
        c = np.cos(phase)
        tp = 1.0 + e1 * s - e * c * np.pi / x ** 2
        if order == 1:
            return y, tp
        tpp = (envelope_dd(x, e) * s - 2.0 * e1 * c * np.pi / x ** 2
               + e * (2.0 * c * np.pi / x ** 3 - s * np.pi ** 2 / x ** 4))
        return y, tp, tpp

    def jet(x, order: int = 2):
        """(T, T', T'') up to the given order (T alone for 0), sharing one
        evaluation of the envelope and of the phase pi/x.  At and below 0,
        and at NaN, T is the identity: (x, 1, 0)."""
        x = np.asarray(x, dtype=float)
        if x.size and x.min() > 0.0:
            return positive_jet(x, order)
        positive = x > 0.0
        out = positive_jet(np.where(positive, x, 1.0), order)
        if order == 0:
            return np.where(positive, out, x)
        return tuple(np.where(positive, a, b) for a, b in zip(out, (x, 1.0, 0.0)))

    def forward(x):
        return jet(x, 0)

    m0 = Uniform(0.0, 1.0)
    m1 = pushforward_by_map(m0, forward, derivative=lambda x: jet(x, 1)[1],
                            n=65537)
    # no closed-form inverse: the shared Newton solve on [0, 1], which the
    # orbit march runs on its own jet
    tmap = map_from_callables(forward, jet, source=m0, target=m1, domain=(0.0, 1.0))

    cuts = [1.0 / n for n in range(n_tiers, 0, -1)]
    fixed = [(0.0, cuts[0])] + [(c, c) for c in cuts[1:]]
    moving = []
    for n in range(n_tiers - 1, 0, -1):
        direction = 1 if n % 2 == 0 else -1
        moving.append(MovingInterval(1.0 / (n + 1), 1.0 / n, direction, True, True))
    partition = FixedPointPartition(domain=(0.0, 1.0),
                                    fixed_intervals=tuple(fixed),
                                    moving_intervals=tuple(moving),
                                    indeterminate=(0.0,))

    return ExampleProblem(
        name=f"accumulating-{variant}", m0=m0, m1=m1,
        description=(f"uniform [0, 1] under x + {'x^3' if variant == 'c1' else 'exp(-1/x)'}"
                     f" sin(pi/x)/5; fixed points 1/n accumulating at 0, "
                     f"{n_tiers - 1} tiers built"),
        transport_map=tmap, partition=partition, default_max_steps=6000,
        closed={"map": forward, "fixed_points": tuple(cuts)})


# ======================================================================
# lookup
# ======================================================================

_BUILDERS = {
    "affine": _affine_example,
    "gaussian": _gaussian_example,
    "bad-fixed-point": _bad_fixed_point_example,
    "accumulating-c1": lambda **kw: _accumulating_example("c1", **kw),
    "accumulating-cinf": lambda **kw: _accumulating_example("cinf", **kw),
}


def example_names() -> tuple:
    """Registry names, in documentation order."""
    return tuple(_BUILDERS)


def get_example(name: str, **params) -> ExampleProblem:
    """Instantiate a named example, forwarding family parameters.

    affine: alpha, beta.  gaussian: mean0, std0, mean1, std1.
    accumulating-*: n_tiers.  bad-fixed-point takes no parameters.
    """
    try:
        maker = _BUILDERS[name]
    except KeyError:
        known = ", ".join(_BUILDERS)
        raise InputError(f"unknown example {name!r}; known: {known}") from None
    return maker(**params)
