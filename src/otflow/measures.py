"""One-dimensional absolutely continuous measures.

Every measure exposes a density and its derivative, a cdf/quantile pair, and
the nodes between which its density is smooth (cell_nodes).  Supports are
intervals; densities must be strictly positive on the closed support.
Unbounded supports are handled through quantile windows that cut eps_tail mass
from each tail; the distances and the sampled pushforward take the one value
BuildConfig.eps_tail.

Tail accuracy matters because monotone transport maps are built as
quantile(target) o cdf(source): composing through probabilities near 1 loses all
precision unless the upper tail is carried separately.  Measures therefore expose
cdf_pair(x) -> (p, q) with p + q = 1 where p is accurate near the left tail and q
near the right tail, and quantile_pair(p, q) which uses whichever side is better
conditioned.

Families:

    uniform           chi_[lo, hi] / (hi - lo)
    gaussian          N(mean, std^2); cdf and quantile by _ndtr / _ndtri, Moshier's
                      Cephes ndtr / ndtri in numpy, within 4 ulp of scipy.special
                      (6 in ndtri's tail branch for s = sqrt(-2 log p) < 8)
    affine_image      pushforward of a base measure under x -> x/alpha + beta,
                      density alpha * base(alpha * (x - beta)), alpha > 0
    piecewise_linear  nodewise linear density, exact quadratic cdf per cell
    grid              same mechanics as piecewise_linear; marks sampled data

Distances: wasserstein1 integrates |F0 - F1| (the 1d W1) and l1_distance
|rho0 - rho1| over the union of both eps_tail windows, on cells whose ends
are the merged nodes of both measures (cell_nodes): the window and finite
support ends, every node of a piecewise density, the pushed nodes of an
affine image's base, and for any other family its quantiles on a fixed
probability grid.  When both measures are piecewise polynomial (uniform,
piecewise_linear, grid, the radius laws of d <= 2 and their affine images)
the density gap is linear and the cdf gap quadratic on each cell, and |gap|
is integrated in closed form, split at the roots.  Otherwise each cell gets
8-point Gauss-Legendre, split first at every sign change its samples show.
No rule is adaptive and no quadrature warning can arise.

JSON round-trip: parse_measure / measure_to_dict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import InvalidMapError, MeasureSpecError

__all__ = [
    "Measure1D",
    "Uniform",
    "Gaussian",
    "AffineImage",
    "PiecewiseDensity",
    "parse_measure",
    "measure_to_dict",
    "translate",
    "wasserstein1",
    "l1_distance",
    "pushforward_by_map",
]

# Relative mass defect tolerated (and silently renormalized) for nodal data.
_MASS_TOL = 1e-6


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, a.ndim == 0


def _scalar_like(value, was_scalar):
    return float(value) if was_scalar else value


# ======================================================================
# base class
# ======================================================================

class Measure1D:
    """Abstract absolutely continuous probability measure on an interval."""

    kind: str = "abstract"

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Upper-tail mass 1 - cdf(x), computed tail-accurately when possible."""
        x, scalar = _as_array(x)
        return _scalar_like(1.0 - np.asarray(self.cdf(x), dtype=float), scalar)

    def cdf_pair(self, x):
        """Return (cdf(x), sf(x)) with each side accurate in its own tail."""
        return self.cdf(x), self.sf(x)

    def quantile(self, p):
        raise NotImplementedError

    def quantile_from_upper(self, q):
        """x such that sf(x) = q; default routes through quantile(1 - q)."""
        q, scalar = _as_array(q)
        out = self.quantile(1.0 - q)
        return _scalar_like(out, scalar)

    def quantile_pair(self, p, q):
        """Quantile from whichever of (p, lower) / (q, upper) is better conditioned."""
        p, scalar = _as_array(p)
        q, _ = _as_array(q)
        use_upper = p > 0.5
        out = np.where(use_upper,
                       self.quantile_from_upper(np.where(use_upper, q, 0.5)),
                       self.quantile(np.where(use_upper, 0.5, p)))
        return _scalar_like(out, scalar)

    def pdf_derivative(self, x):
        raise NotImplementedError

    def cell_nodes(self):
        """(nodes, polynomial): points between which the density is smooth,
        and whether it is a polynomial of degree at most one there.  This
        default cuts at the quantiles of _CELL_P from both tails."""
        ends = [e for e in self.support if math.isfinite(e)]
        return np.concatenate((self.quantile(_CELL_P),
                               self.quantile_from_upper(_CELL_P), ends)), False

    def window(self, eps_tail: float) -> tuple[float, float]:
        """Effective support: exact for bounded supports, quantile-trimmed otherwise."""
        lo, hi = self.support
        if not math.isfinite(lo):
            lo = float(self.quantile(eps_tail))
        if not math.isfinite(hi):
            hi = float(self.quantile_from_upper(eps_tail))
        return lo, hi


# ======================================================================
# analytic families
# ======================================================================

@dataclass(frozen=True)
class Uniform(Measure1D):
    """Normalized indicator of [lo, hi]."""

    lo: float
    hi: float

    kind = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise MeasureSpecError("uniform: lo/hi must be finite")
        if not self.hi > self.lo:
            raise MeasureSpecError(f"uniform: need hi > lo, got [{self.lo}, {self.hi}]")

    @property
    def support(self):
        return (self.lo, self.hi)

    def pdf(self, x):
        x, scalar = _as_array(x)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return _scalar_like(out, scalar)

    def pdf_derivative(self, x):
        x, scalar = _as_array(x)
        return _scalar_like(np.zeros_like(x), scalar)

    def cell_nodes(self):
        return np.array([self.lo, self.hi]), True

    def cdf(self, x):
        x, scalar = _as_array(x)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return _scalar_like(out, scalar)

    def sf(self, x):
        x, scalar = _as_array(x)
        out = np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0)
        return _scalar_like(out, scalar)

    def quantile(self, p):
        p, scalar = _as_array(p)
        _check_prob(p, "uniform.quantile")
        return _scalar_like(self.lo + p * (self.hi - self.lo), scalar)

    def quantile_from_upper(self, q):
        q, scalar = _as_array(q)
        _check_prob(q, "uniform.quantile_from_upper")
        return _scalar_like(self.hi - q * (self.hi - self.lo), scalar)


# ======================================================================
# normal cdf and quantile
# ======================================================================
# Moshier's Cephes approximations (ndtr.c, ndtri.c), the ones scipy.special
# evaluates for ndtr and ndtri: the same coefficients, branch seams (one
# folded where the bits agree, see _erf_sides) and Horner order.  Results
# match scipy's bit for bit except where numpy's exp and log round
# differently from the C library's; there they differ by at most 4 ulp,
# but in ndtri's P1/Q1 tail branch, where s - log(s)/s - z P(z)/Q(z)
# cancels near |x| = 1.1 to 1.8: there up to 6 ulp, at about one point in
# a million of that branch, each side 2 to 4 ulp from the exact quantile.
# Coefficient tuples run from the highest power; denominators keep their
# leading 1.

# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# ... and R(x) / S(x) for x >= 8
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
# ndtri(y) = sqrt(2 pi) (v + v w P0(w) / Q0(w)), v = y - 1/2, w = v^2,
# for exp(-2) < y <= 1 - exp(-2)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
# in the tails, with s = sqrt(-2 log y) and z = 1/s:
# |ndtri| = s - log(s)/s - z P(z) / Q(z), by (P1, Q1) for s < 8 and
# (P2, Q2) beyond
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_SQRT1_2 = 0.7071067811865476
_MAXLOG = 7.09782712893383996843E2      # log(DBL_MAX): exp(-x^2) underflows past it
_EXP_M2 = 0.13533528323661269189        # exp(-2)
_SQRT_2PI = 2.50662827463100050242E0


_ERF = (_ERF_T, _ERF_U)
_ERFC_NEAR = (_ERFC_P, _ERFC_Q)
_ERFC_FAR = (_ERFC_R, _ERFC_S)
_NDTRI_CENTRE = (_NDTRI_P0, _NDTRI_Q0)
_NDTRI_NEAR = (_NDTRI_P1, _NDTRI_Q1)
_NDTRI_FAR = (_NDTRI_P2, _NDTRI_Q2)

# Inputs go through in blocks of this many points, which keeps the
# temporaries in cache; every point gets the same bits in any block.
_BLOCK = 16384


def _ratio(x, rational, scale):
    """(scale * num(x)) / den(x) for the (num, den) coefficient tuples, each
    polynomial by Horner from the highest power as Cephes' polevl / p1evl."""
    num, den = rational
    p = _horner(x, num)
    p *= scale
    p /= _horner(x, den)
    return p


def _horner(x, coef):
    """Cephes' polevl, in place; p1evl too, as 1.0*x + c = x + c."""
    acc = coef[0] * x
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _branches(mask, fn_in, fn_out, srcs, outs):
    """fn_in on the points of srcs where mask holds and fn_out on the
    others, their results written into outs: a side without points costs
    no call and a side with all of them no gather."""
    if mask.all():
        sides = ((Ellipsis, fn_in),)
    elif not mask.any():
        sides = ((Ellipsis, fn_out),)
    else:
        sides = ((np.flatnonzero(mask), fn_in), (np.flatnonzero(~mask), fn_out))
    for idx, fn in sides:
        for out, val in zip(outs, fn(*(s[idx] for s in srcs))):
            out[idx] = val


def _evaluate(block_fn, a, n_out):
    """n_out arrays shaped like a, from block_fn(points, *outs) run on one
    _BLOCK of points at a time."""
    a = np.asarray(a, dtype=float)
    flat = a.reshape(-1)
    outs = tuple(np.empty_like(flat) for _ in range(n_out))
    for i in range(0, flat.size, _BLOCK):
        block_fn(flat[i:i + _BLOCK], *(o[i:i + _BLOCK] for o in outs))
    return tuple(o.reshape(a.shape) for o in outs)


def _ndtr_sides(a):
    """(ndtr(-|a|), ndtr(|a|)) from one erf or erfc evaluation per point,
    and x = a/sqrt(2), whose sign says which of them is ndtr(a)."""
    return _evaluate(_ndtr_sides_block, a, 3)


def _ndtr_sides_block(a, near, far, x):
    np.multiply(a, _SQRT1_2, out=x)
    # past 27, exp(-z^2) has underflowed: the clamp keeps inf out of the
    # rationals and changes no branch and no result
    z = np.minimum(np.abs(x), 27.0)
    _branches(z < 1.0, _erf_sides, _erfc_sides, (z,), (near, far))


def _erf_sides(z):
    """The two sides for z < 1: 1/2 -+ erf(z)/2.  From z = sqrt(1/2) on,
    Cephes takes y = (1 - erf(z))/2 and 1 - y instead; there erf(z) > 1/2,
    so 1 - erf(z) and 1/2 - erf(z)/2 are exact, and the bits agree."""
    h = 0.5 * _ratio(z * z, _ERF, z)
    return 0.5 - h, 0.5 + h


def _erfc_sides(z):
    """The two sides for z >= 1 or NaN: y = erfc(z)/2 and 1 - y, with y = 0
    once z^2 passes the underflow threshold."""
    zz = z * z
    y = np.exp(-zz)
    _branches(z < 8.0, lambda w, e: (_ratio(w, _ERFC_NEAR, e),),
              lambda w, e: (_ratio(w, _ERFC_FAR, e),), (z, y), (y,))
    y *= 0.5
    under = zz > _MAXLOG
    if under.any():
        y[under] = 0.0
    return y, 1.0 - y


def _ndtr(a):
    """The standard normal cdf, as Cephes' ndtr."""
    near, far, x = _ndtr_sides(a)
    return np.where(x > 0.0, far, near)


def _ndtri(y):
    """The standard normal quantile, as Cephes' ndtri: -inf at 0, inf at 1
    and NaN off [0, 1]."""
    return _evaluate(_ndtri_block, y, 1)[0]


def _ndtri_block(y, out):
    _branches((y > _EXP_M2) & (y <= 1.0 - _EXP_M2), _ndtri_centre, _ndtri_tails,
              (y,), (out,))


def _ndtri_centre(y):
    v = y - 0.5
    w = v * v
    r = _ratio(w, _NDTRI_CENTRE, w)
    r *= v
    r += v
    r *= _SQRT_2PI
    return (r,)


def _ndtri_tails(y):
    """ndtri where y <= exp(-2) or y > 1 - exp(-2): from the smaller tail
    mass t, s = sqrt(-2 log t) and z = 1/s, |ndtri| = s - log(s)/s -
    z P(z)/Q(z), signed by the side of 1/2."""
    s = np.subtract(1.0, y)
    np.minimum(y, s, out=s)
    inside = s > 0.0
    whole = inside.all()
    if not whole:
        s = np.where(inside, s, 0.5)
    np.log(s, out=s)
    s *= -2.0
    np.sqrt(s, out=s)
    z = np.divide(1.0, s)
    out = np.log(s)
    out /= s
    np.subtract(s, out, out=out)
    _branches(s < 8.0, lambda u: (_ratio(u, _NDTRI_NEAR, u),),
              lambda u: (_ratio(u, _NDTRI_FAR, u),), (z,), (z,))
    out -= z
    np.copysign(out, y - 0.5, out=out)
    if not whole:
        edge = np.where(y == 0.0, -np.inf, np.where(y == 1.0, np.inf, np.nan))
        out = np.where(inside, out, edge)
    return (out,)


@dataclass(frozen=True)
class Gaussian(Measure1D):
    """Normal law N(mean, std^2)."""

    mean: float
    std: float

    kind = "gaussian"

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise MeasureSpecError("gaussian: mean/std must be finite")
        if not self.std > 0:
            raise MeasureSpecError(f"gaussian: need std > 0, got {self.std}")

    @property
    def support(self):
        return (-math.inf, math.inf)

    def _z(self, x):
        return (x - self.mean) / self.std

    def pdf(self, x):
        x, scalar = _as_array(x)
        z = self._z(x)
        out = np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))
        return _scalar_like(out, scalar)

    def pdf_derivative(self, x):
        x, scalar = _as_array(x)
        z = self._z(x)
        out = -z / self.std * np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))
        return _scalar_like(out, scalar)

    def cdf(self, x):
        x, scalar = _as_array(x)
        return _scalar_like(_ndtr(self._z(x)), scalar)

    def sf(self, x):
        x, scalar = _as_array(x)
        return _scalar_like(_ndtr(-self._z(x)), scalar)

    def cdf_pair(self, x):
        """(cdf(x), sf(x)), both from one erf or erfc evaluation per point."""
        x, scalar = _as_array(x)
        near, far, s = _ndtr_sides(self._z(x))
        return (_scalar_like(np.where(s > 0.0, far, near), scalar),
                _scalar_like(np.where(s < 0.0, far, near), scalar))

    def quantile(self, p):
        p, scalar = _as_array(p)
        _check_prob(p, "gaussian.quantile", open_ends=True)
        return _scalar_like(self.mean + self.std * _ndtri(p), scalar)

    def quantile_from_upper(self, q):
        q, scalar = _as_array(q)
        _check_prob(q, "gaussian.quantile_from_upper", open_ends=True)
        return _scalar_like(self.mean - self.std * _ndtri(q), scalar)

    def quantile_pair(self, p, q):
        """The base-class quantile_pair, from one _ndtri call on the better
        conditioned side of each point."""
        p, scalar = _as_array(p)
        q, _ = _as_array(q)
        use_upper = p > 0.5
        r = np.where(use_upper, q, p)
        if not np.all((r > 0.0) & (r < 1.0)):
            _check_prob(np.where(use_upper, q, 0.5), "gaussian.quantile_from_upper",
                        open_ends=True)
            _check_prob(np.where(use_upper, 0.5, p), "gaussian.quantile", open_ends=True)
        s = self.std * _ndtri(r)
        return _scalar_like(np.where(use_upper, self.mean - s, self.mean + s), scalar)


@dataclass(frozen=True)
class AffineImage(Measure1D):
    """Pushforward of a base measure under the increasing map x -> x/alpha + beta.

    Density: alpha * base_pdf(alpha * (y - beta)).  alpha > 0 keeps the map
    orientation preserving.
    """

    base: Measure1D
    alpha: float
    beta: float

    kind = "affine_image"

    def __post_init__(self):
        if not isinstance(self.base, Measure1D):
            raise MeasureSpecError("affine_image: base must be a Measure1D")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise MeasureSpecError(f"affine_image: need finite alpha > 0, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise MeasureSpecError("affine_image: beta must be finite")

    def _pull(self, y):
        return self.alpha * (y - self.beta)

    def _push(self, x):
        return x / self.alpha + self.beta

    @property
    def support(self):
        a, b = self.base.support
        return (self._push(a), self._push(b))

    def pdf(self, y):
        y, scalar = _as_array(y)
        return _scalar_like(self.alpha * self.base.pdf(self._pull(y)), scalar)

    def pdf_derivative(self, y):
        y, scalar = _as_array(y)
        out = self.alpha ** 2 * self.base.pdf_derivative(self._pull(y))
        return _scalar_like(out, scalar)

    def cell_nodes(self):
        nodes, polynomial = self.base.cell_nodes()
        return self._push(nodes), polynomial

    def cdf(self, y):
        y, scalar = _as_array(y)
        return _scalar_like(self.base.cdf(self._pull(y)), scalar)

    def sf(self, y):
        y, scalar = _as_array(y)
        return _scalar_like(self.base.sf(self._pull(y)), scalar)

    def quantile(self, p):
        p, scalar = _as_array(p)
        return _scalar_like(self._push(np.asarray(self.base.quantile(p), dtype=float)), scalar)

    def quantile_from_upper(self, q):
        q, scalar = _as_array(q)
        out = self._push(np.asarray(self.base.quantile_from_upper(q), dtype=float))
        return _scalar_like(out, scalar)


# ======================================================================
# nodal family (piecewise linear density)
# ======================================================================

@dataclass(frozen=True)
class PiecewiseDensity(Measure1D):
    """Piecewise linear density on strictly increasing nodes.

    The cdf is the exact integral of the represented density (quadratic per
    cell); quantiles invert it with the numerically stable quadratic branch.
    Node densities must be strictly positive (positivity on the closed
    support); total mass may deviate from 1 by at most a relative 1e-6 and is
    renormalized, with the defect recorded.
    """

    x: np.ndarray
    density: np.ndarray
    kind_label: str = "piecewise_linear"

    # caches (filled in __post_init__)
    _slope: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _cumr: np.ndarray = field(init=False, repr=False, compare=False)
    mass_defect: float = field(init=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.x, dtype=float)
        ds = np.asarray(self.density, dtype=float)
        if xs.ndim != 1 or ds.ndim != 1 or xs.size != ds.size:
            raise MeasureSpecError("piecewise: x and density must be 1d arrays of equal length")
        if xs.size < 2:
            raise MeasureSpecError("piecewise: need at least 2 nodes")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ds)):
            raise MeasureSpecError("piecewise: x/density must be finite")
        if not np.all(np.diff(xs) > 0):
            raise MeasureSpecError("piecewise: x must be strictly increasing")
        if np.any(ds <= 0):
            j = int(np.argmin(ds))
            raise MeasureSpecError(
                f"piecewise: density must be strictly positive on the closed support; "
                f"node {j} (x={xs[j]:g}) has density {ds[j]:g}")
        if self.kind_label not in ("piecewise_linear", "grid"):
            raise MeasureSpecError(f"piecewise: unknown kind_label {self.kind_label!r}")

        cell_mass = 0.5 * (ds[:-1] + ds[1:]) * np.diff(xs)
        total = float(np.sum(cell_mass))
        if not math.isfinite(total) or abs(total - 1.0) > _MASS_TOL:
            raise MeasureSpecError(
                f"piecewise: total mass {total:.12g} deviates from 1 by more than {_MASS_TOL:g}")
        ds = ds / total
        cell_mass = cell_mass / total
        cum = np.concatenate(([0.0], np.cumsum(cell_mass)))
        cum[-1] = 1.0
        # reverse cumulative kept separately for tail-accurate sf
        cumr = np.concatenate((np.cumsum(cell_mass[::-1])[::-1], [0.0]))
        cumr[0] = 1.0

        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "density", ds)
        object.__setattr__(self, "_slope", np.diff(ds) / np.diff(xs))
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_cumr", cumr)
        object.__setattr__(self, "mass_defect", total - 1.0)

    @property
    def kind(self):  # type: ignore[override]
        return self.kind_label

    @property
    def support(self):
        return (float(self.x[0]), float(self.x[-1]))

    def _cell(self, x):
        j = np.searchsorted(self.x, x, side="right") - 1
        return np.clip(j, 0, self.x.size - 2)

    def pdf(self, x):
        x, scalar = _as_array(x)
        j = self._cell(x)
        out = self.density[j] + self._slope[j] * (x - self.x[j])
        out = np.where((x < self.x[0]) | (x > self.x[-1]), 0.0, out)
        return _scalar_like(out, scalar)

    def pdf_derivative(self, x):
        """Right-continuous cell slope of the represented density."""
        x, scalar = _as_array(x)
        j = self._cell(x)
        out = np.where((x < self.x[0]) | (x > self.x[-1]), 0.0, self._slope[j])
        return _scalar_like(out, scalar)

    def cell_nodes(self):
        return self.x, True

    def cdf(self, x):
        x, scalar = _as_array(x)
        j = self._cell(x)
        s = np.clip(x - self.x[j], 0.0, None)
        out = self._cum[j] + self.density[j] * s + 0.5 * self._slope[j] * s * s
        out = np.where(x <= self.x[0], 0.0, np.where(x >= self.x[-1], 1.0, out))
        return _scalar_like(np.clip(out, 0.0, 1.0), scalar)

    def sf(self, x):
        x, scalar = _as_array(x)
        j = self._cell(x)
        r = np.clip(self.x[j + 1] - x, 0.0, None)
        out = self._cumr[j + 1] + self.density[j + 1] * r - 0.5 * self._slope[j] * r * r
        out = np.where(x <= self.x[0], 1.0, np.where(x >= self.x[-1], 0.0, out))
        return _scalar_like(np.clip(out, 0.0, 1.0), scalar)

    def quantile(self, p):
        p, scalar = _as_array(p)
        _check_prob(p, "piecewise.quantile")
        k = np.clip(np.searchsorted(self._cum, p, side="right") - 1, 0, self.x.size - 2)
        resid = np.clip(p - self._cum[k], 0.0, None)
        s = _solve_cell(self.density[k], self._slope[k], resid)
        out = self.x[k] + np.minimum(s, self.x[k + 1] - self.x[k])
        return _scalar_like(out, scalar)

    def quantile_from_upper(self, q):
        q, scalar = _as_array(q)
        _check_prob(q, "piecewise.quantile_from_upper")
        # _cumr is decreasing; locate the cell whose right cumulative brackets q
        k = np.clip(self.x.size - 1 - np.searchsorted(self._cumr[::-1], q, side="right"),
                    0, self.x.size - 2)
        resid = np.clip(q - self._cumr[k + 1], 0.0, None)
        r = _solve_cell(self.density[k + 1], -self._slope[k], resid)
        out = self.x[k + 1] - np.minimum(r, self.x[k + 1] - self.x[k])
        return _scalar_like(out, scalar)


def _solve_cell(d, g, resid):
    """Smallest s >= 0 with d*s + g*s^2/2 = resid, d > 0, stable for any sign of g."""
    disc = np.maximum(d * d + 2.0 * g * resid, 0.0)
    denom = d + np.sqrt(disc)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0, 2.0 * resid / denom, 0.0)
    return s


def _check_prob(p, where, open_ends=False):
    p = np.asarray(p)
    # NaN fails every comparison, so it is refused with the values out of range
    inside = (p > 0) & (p < 1) if open_ends else (p >= 0) & (p <= 1)
    if not inside.all():
        raise MeasureSpecError(f"{where}: probabilities must lie in "
                               f"{'(0, 1)' if open_ends else '[0, 1]'}")


# ======================================================================
# construction helpers
# ======================================================================

def translate(m: Measure1D, c: float) -> Measure1D:
    """Pushforward of m under x -> x + c."""
    if c == 0.0:
        return m
    return AffineImage(m, 1.0, c)


def pushforward_by_map(m: Measure1D, forward: Callable, *, derivative: Callable,
                       n: int = 4097) -> PiecewiseDensity:
    """Sample the pushforward of m under an increasing map onto a grid measure.

    Nodes are images of an n-point uniform grid over the window of m; the pushed
    density at T(x) is pdf(x) / T'(x), T' the exact derivative.  Raises
    InvalidMapError if the sampled images are not strictly increasing.
    """
    lo, hi = m.window(DEFAULT_CONFIG.eps_tail)
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(forward(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        raise InvalidMapError("pushforward: map returned non-finite values")
    if not np.all(np.diff(ys) > 0):
        j = int(np.argmin(np.diff(ys)))
        raise InvalidMapError(
            f"pushforward: map is not strictly increasing near x={xs[j]:.6g}")
    dT = np.asarray(derivative(xs), dtype=float)
    if np.any(dT <= 0):
        raise InvalidMapError("pushforward: map derivative must be positive")
    dens = m.pdf(xs) / dT
    return PiecewiseDensity(ys, dens, kind_label="grid")


# ======================================================================
# distances
# ======================================================================

# 8-point Gauss-Legendre rule on [0, 1]: exact for polynomials of degree 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS

# Lower-tail probabilities whose quantiles (and the mirrored upper ones) cut
# an analytic measure into cells: equal mass 1/64 in the body, halving mass
# from 1/64 down to 2^-40 in each tail, so that every cell spans a fraction
# of the local scale.
_CELL_P = np.union1d(np.arange(1, 33) / 64.0, 2.0 ** -np.arange(7, 41))

# Bisection steps locating a sign change of an analytic gap inside a cell:
# a root misplaced by d costs O(d^2) of the integral.
_BISECT_STEPS = 40


# Cells per block of _abs_quadratic_integral: it bounds the temporaries,
# and no result depends on it
_CELL_BLOCK = 2 ** 13


def _abs_quadratic_integral(gap, a, b) -> float:
    """Integral of |gap| over the cells [a, b] where gap is a quadratic in
    each cell.  The cells go in blocks of _CELL_BLOCK into one array of
    per-cell integrals, summed once."""
    cells = np.empty(a.size)
    for lo in range(0, a.size, _CELL_BLOCK):
        block = slice(lo, lo + _CELL_BLOCK)
        cells[block] = _abs_quadratic_cells(gap, a[block], b[block])
    return float(np.sum(cells))


def _abs_quadratic_cells(gap, a, b):
    """Per cell [a, b], the integral of |gap|: the quadratic fitted through
    its values at 1/4, 1/2 and 3/4 of the cell (a density may jump at the
    ends), split at its roots, integrated exactly."""
    h = b - a
    g1, g2, g3 = (gap(a + u * h) for u in (0.25, 0.5, 0.75))
    # q(u) = c0 + c1 u + c2 u^2 on u in [0, 1]
    b1 = 2.0 * (g3 - g1)
    c2 = 8.0 * (g1 + g3 - 2.0 * g2)
    c1 = b1 - c2
    c0 = g2 - 0.5 * b1 + 0.25 * c2
    # stable quadratic formula; with c2 = 0 the second root is the linear one
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = c1 * c1 - 4.0 * c2 * c0
        q = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c1))
        roots = np.stack((q / c2, c0 / q), axis=1)
    inside = (disc >= 0.0)[:, None] & (roots > 0.0) & (roots < 1.0)
    r = np.where(inside, roots, 1.0)
    r.sort(axis=1)

    def primitive(u):
        return ((c2 / 3.0 * u + 0.5 * c1) * u + c0) * u

    p1, p2 = primitive(r[:, 0]), primitive(r[:, 1])
    return h * (np.abs(p1) + np.abs(p2 - p1) + np.abs(primitive(1.0) - p2))


def _abs_gauss_legendre(gap, a, b) -> float:
    """Integral of |gap| over the cells [a, b] by 8-point Gauss-Legendre.

    The gap is sampled one ulp inside both ends and at the rule's nodes; a
    cell whose samples change sign is split at each change, located by
    bisection, and its pieces are integrated again.
    """
    h = b - a
    t = np.column_stack((np.nextafter(a, b), a[:, None] + h[:, None] * _GL_NODES,
                         np.nextafter(b, a)))
    g = gap(t)
    up = g >= 0.0
    flips = up[:, 1:] != up[:, :-1]
    plain = ~np.any(flips, axis=1)
    total = float(np.sum(h[plain] * (np.abs(g[plain, 1:-1]) @ _GL_WEIGHTS)))
    if plain.all():
        return total

    cell, k = np.nonzero(flips)
    lo, hi, lo_up = t[cell, k], t[cell, k + 1], up[cell, k]
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        same = (gap(mid) >= 0.0) == lo_up
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    split = np.flatnonzero(~plain)
    pts = np.concatenate((a[split], b[split], 0.5 * (lo + hi)))
    owner = np.concatenate((split, split, cell))
    order = np.lexsort((pts, owner))
    pts, owner = pts[order], owner[order]
    same_cell = owner[1:] == owner[:-1]
    sa, sb = pts[:-1][same_cell], pts[1:][same_cell]
    sh = sb - sa
    gs = gap(sa[:, None] + sh[:, None] * _GL_NODES)
    return total + float(np.sum(sh * (np.abs(gs) @ _GL_WEIGHTS)))


def _abs_gap_integral(law: str, m0: Measure1D, m1: Measure1D) -> float:
    """Integral of |law(m0) - law(m1)| (law "cdf" or "pdf") over both windows.

    Cells are the merged nodes of both measures inside the union of their
    windows (see Measure1D.cell_nodes).  Between nodes, a pair of piecewise
    polynomial measures has a linear density gap and a quadratic cdf gap,
    integrated exactly; any other pair goes through _abs_gauss_legendre.
    """
    w0 = m0.window(DEFAULT_CONFIG.eps_tail)
    w1 = m1.window(DEFAULT_CONFIG.eps_tail)
    lo, hi = min(w0[0], w1[0]), max(w0[1], w1[1])
    n0, poly0 = m0.cell_nodes()
    n1, poly1 = m1.cell_nodes()
    x = np.concatenate(([lo, hi], n0, n1))
    x = np.unique(x[(x >= lo) & (x <= hi)])
    f0, f1 = getattr(m0, law), getattr(m1, law)

    def gap(t):
        return f0(t) - f1(t)

    integral = _abs_quadratic_integral if poly0 and poly1 else _abs_gauss_legendre
    return integral(gap, x[:-1], x[1:])


def wasserstein1(m0: Measure1D, m1: Measure1D) -> float:
    """L1 distance between the cdfs (the 1d Wasserstein-1 distance)."""
    return _abs_gap_integral("cdf", m0, m1)


def l1_distance(m0: Measure1D, m1: Measure1D) -> float:
    """L1 distance between the densities."""
    return _abs_gap_integral("pdf", m0, m1)


# ======================================================================
# JSON round-trip
# ======================================================================

def _read_spec(spec) -> dict:
    """A spec dict from a dict, inline JSON text, or a path to a JSON file.

    Text whose first non-blank character is "{" or "[" is inline JSON (an
    array then fails the object check); any other text names a file.  JSON
    syntax errors carry line and column.
    """
    if isinstance(spec, str):
        text = spec
        origin = "<inline>"
        if not spec.lstrip().startswith(("{", "[")):
            origin = spec
            try:
                with open(spec, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise MeasureSpecError(f"cannot read measure file {spec!r}: {exc}") from exc
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MeasureSpecError(
                f"{origin}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(spec, dict):
        raise MeasureSpecError(f"measure spec must be a JSON object, got {type(spec).__name__}")
    return spec


def _spec_fields(spec: dict, where: str, **convs) -> list:
    """conv(spec[name]) for each name=conv, in order.  MeasureSpecError names
    the fields missing, or the field a conv refuses."""
    missing = [n for n in convs if n not in spec]
    if missing:
        raise MeasureSpecError(f"{where}: missing field(s) {missing}")
    out = []
    for name, conv in convs.items():
        try:
            out.append(conv(spec[name]))
        except (TypeError, ValueError) as exc:
            raise MeasureSpecError(f"{where}: field {name!r}: {exc}") from exc
    return out


def _floats(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def parse_measure(spec) -> Measure1D:
    """Build a measure from a dict, a JSON string, or a path to a JSON file.

    Errors carry the failing field name; JSON syntax errors carry line/column.
    """
    if isinstance(spec, Measure1D):
        return spec
    spec = _read_spec(spec)

    kind = spec.get("kind")
    if kind is None:
        raise MeasureSpecError("measure spec: missing field 'kind'")
    where = f"measure spec kind={kind!r}"
    if kind == "uniform":
        return Uniform(*_spec_fields(spec, where, lo=float, hi=float))
    if kind == "gaussian":
        return Gaussian(*_spec_fields(spec, where, mean=float, std=float))
    if kind == "affine_image":
        return AffineImage(*_spec_fields(spec, where, base=parse_measure,
                                         alpha=float, beta=float))
    if kind in ("piecewise_linear", "grid"):
        return PiecewiseDensity(*_spec_fields(spec, where, x=_floats, density=_floats),
                                kind_label=kind)
    raise MeasureSpecError(f"measure spec: unknown kind {kind!r}")


def measure_to_dict(m: Measure1D, *, summary: bool = False) -> dict:
    """Serialize a measure; summary=True elides large node arrays."""
    if isinstance(m, Uniform):
        return {"kind": "uniform", "lo": m.lo, "hi": m.hi}
    if isinstance(m, Gaussian):
        return {"kind": "gaussian", "mean": m.mean, "std": m.std}
    if isinstance(m, AffineImage):
        return {"kind": "affine_image", "base": measure_to_dict(m.base, summary=summary),
                "alpha": m.alpha, "beta": m.beta}
    if isinstance(m, PiecewiseDensity):
        if summary and m.x.size > 32:
            return {"kind": m.kind_label, "n_nodes": int(m.x.size),
                    "support": [float(m.x[0]), float(m.x[-1])]}
        return {"kind": m.kind_label, "x": [float(t) for t in m.x],
                "density": [float(t) for t in m.density]}
    raise MeasureSpecError(f"cannot serialize measure of type {type(m).__name__}")
