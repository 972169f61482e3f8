"""W1 and L1 distances against references that share no code with them.

The properties run on random piecewise-linear pairs drawn like the
benchmark's random-pl recipe (3 to 8 nodes, gaps and node densities uniform,
normalised to mass 1).  W1 is checked there against its quantile form,
the integral of |Q0 - Q1| over p by composite Gauss-Legendre.  The pushes of
the registry examples and of the Sudakov conditional pairs are checked
against a per-cell adaptive Gauss-Kronrod reference (scipy's quad_vec) on
the merged breakpoints, each cell first split where the gap changes sign on
17 samples; a gap at roundoff level (the affine push) agrees only to
one ulp of the integrand over the window.
"""

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad_vec

from otflow.measures import (AffineImage, Gaussian, PiecewiseDensity, Uniform,
                             l1_distance, translate, wasserstein1)
from otflow.registry import example_names
from otflow.sudakov import ProductMeasure, RadiusLaw, assemble_field, decompose

flow_mod = importlib.import_module("otflow.flow")
measures_mod = importlib.import_module("otflow.measures")

EPS_TAIL = 1e-10
TOL_PROPERTY = 1e-10
GL_X, GL_W = np.polynomial.legendre.leggauss(8)


# ----------------------------------------------------------------------
# random piecewise-linear pairs
# ----------------------------------------------------------------------

@st.composite
def pl_densities(draw):
    n = draw(st.integers(3, 8))
    unit = st.floats(0.2, 1.0)
    gaps = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    dens = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    x = np.cumsum(gaps) + draw(st.floats(-1.0, 1.0))
    mass = float(np.sum(0.5 * (dens[:-1] + dens[1:]) * np.diff(x)))
    return PiecewiseDensity(x, dens / mass)


def sign_changes(gap, t, halvings=60):
    """Points where gap changes sign between consecutive samples t[:, k],
    t[:, k + 1] of each row, located by bisection, and the samples where it
    vanishes."""
    g = gap(t.ravel()).reshape(t.shape)
    zeros = t[g == 0.0]
    row, k = np.nonzero(np.sign(g[:, :-1]) * np.sign(g[:, 1:]) < 0)
    left, right = t[row, k], t[row, k + 1]
    left_sign = np.sign(g[row, k])
    for _ in range(halvings):
        mid = 0.5 * (left + right)
        move = np.sign(gap(mid)) == left_sign
        left, right = np.where(move, mid, left), np.where(move, right, mid)
    return np.concatenate((zeros, 0.5 * (left + right)))


def quantile_w1(m0, m1, panels=8):
    """Integral over p of |Q0 - Q1|, split at the merged cumulative masses
    and at the crossings of the quantiles, by composite Gauss-Legendre."""
    ps = np.union1d(m0.cdf(m0.x), m1.cdf(m1.x))

    def gap(p):
        return m0.quantile(p) - m1.quantile(p)

    t = ps[:-1, None] + np.diff(ps)[:, None] * np.linspace(0.0, 1.0, 65)
    ps = np.unique(np.concatenate((ps, sign_changes(gap, t))))
    edges = (ps[:-1, None] + np.diff(ps)[:, None] * np.arange(panels + 1) / panels)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    p = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * GL_X
    return float(np.sum(0.5 * (b - a) * (np.abs(gap(p.ravel())).reshape(p.shape) @ GL_W)))


class TestDistanceProperties:
    """Metric facts and the quantile form on random piecewise-linear pairs."""

    @given(pl_densities(), pl_densities())
    def test_w1_equals_quantile_form(self, m0, m1):
        assert abs(wasserstein1(m0, m1) - quantile_w1(m0, m1)) <= TOL_PROPERTY

    @given(pl_densities(), st.floats(-3.0, 3.0))
    def test_w1_of_a_translate_is_the_shift(self, m, c):
        assert abs(wasserstein1(m, translate(m, c)) - abs(c)) <= TOL_PROPERTY

    @given(pl_densities(), pl_densities())
    def test_symmetric(self, m0, m1):
        assert wasserstein1(m0, m1) == wasserstein1(m1, m0)
        assert l1_distance(m0, m1) == l1_distance(m1, m0)

    @given(pl_densities(), pl_densities(), pl_densities())
    def test_triangle_inequality(self, a, b, c):
        for dist in (wasserstein1, l1_distance):
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12

    @given(pl_densities(), pl_densities())
    def test_l1_range(self, m0, m1):
        assert l1_distance(m0, m0) == 0.0
        assert 0.0 <= l1_distance(m0, m1) <= 2.0 + 1e-12


# ----------------------------------------------------------------------
# pushes against a per-cell adaptive reference
# ----------------------------------------------------------------------

# quantiles laid on an analytic family's cells by the reference
_REFERENCE_P = np.concatenate((np.arange(1, 100) / 100.0,
                               10.0 ** -np.arange(3, 12), 1.0 - 10.0 ** -np.arange(3, 12)))


def _nodes(m):
    if isinstance(m, PiecewiseDensity):
        return m.x
    if isinstance(m, Uniform):
        return np.array([m.lo, m.hi])
    if isinstance(m, AffineImage):
        return _nodes(m.base) / m.alpha + m.beta
    ends = [e for e in m.support if math.isfinite(e)]
    return np.concatenate((ends, m.quantile(_REFERENCE_P)))


def reference_abs_gap(law, m0, m1, samples=17):
    """(integral, noise): the sum over the merged cells of the adaptive
    Gauss-Kronrod integral of |law(m0) - law(m1)|, each cell split at the
    sign changes of the gap, and one ulp of the integrand over the window.

    A gap that is pure roundoff integrates to a value that depends on where
    it is sampled, so agreement is only defined above that noise.
    """
    w0, w1 = m0.window(EPS_TAIL), m1.window(EPS_TAIL)
    lo, hi = min(w0[0], w1[0]), max(w0[1], w1[1])
    x = np.concatenate(([lo, hi], _nodes(m0), _nodes(m1)))
    x = np.unique(x[(x >= lo) & (x <= hi)])
    f0, f1 = getattr(m0, law), getattr(m1, law)

    def gap(t):
        return f0(t) - f1(t)

    a, b = x[:-1], x[1:]
    t = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, samples)
    # the end samples one ulp inside the cell: a density may jump at a node
    t[:, 0], t[:, -1] = np.nextafter(a, b), np.nextafter(b, a)
    scale = max(np.max(np.abs(f0(t))), np.max(np.abs(f1(t))))
    noise = np.finfo(float).eps * scale * (hi - lo)
    pts = np.unique(np.concatenate((x, sign_changes(gap, t))))
    sa, sh = pts[:-1], np.diff(pts)

    def integrand(v):
        return sh * np.abs(gap(sa + sh * v))

    val, _ = quad_vec(integrand, 0.0, 1.0, epsabs=noise, epsrel=1e-13, norm="max")
    return float(np.sum(val)), noise


def _assert_matches_reference(push, target):
    for law, dist in (("cdf", wasserstein1), ("pdf", l1_distance)):
        ref, noise = reference_abs_gap(law, push, target)
        got = dist(push, target)
        assert abs(got - ref) <= 1e-10 * ref + 1e-16 + noise, (law, got, ref)


@pytest.mark.parametrize("name", example_names())
def test_registry_push_distances_match_reference(name, request):
    ex, field = request.getfixturevalue(f"{name.replace('-', '_')}_built")
    push = flow_mod.push_measure(field, ex.m0, 1.0)
    _assert_matches_reference(push.measure, ex.m1)


SUDAKOV_PRODUCTS = {
    "uniform": ((Gaussian(0.0, 1.0), Uniform(0.0, 1.0)),
                (Gaussian(0.0, 1.0), Uniform(1.0, 3.0))),
    "gaussian": ((Uniform(0.0, 1.0), Gaussian(0.0, 1.0)),
                 (Uniform(0.0, 1.0), Gaussian(1.0, 2.0))),
}


@pytest.mark.parametrize("cond", ["radius", "uniform", "gaussian"])
def test_sudakov_push_distances_match_reference(cond, radial_disks):
    if cond == "radius":
        family, field_nd, _ = radial_disks
    else:
        f0, f1 = SUDAKOV_PRODUCTS[cond]
        family = decompose(ProductMeasure(f0), ProductMeasure(f1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field_nd = assemble_field(family)
    push = flow_mod.push_measure(field_nd.field, family.cond0, 1.0, n=2049)
    _assert_matches_reference(push.measure, family.cond1)


def test_radius_pair_w1_takes_the_closed_form(radial_disks, monkeypatch):
    # the d = 2 radius laws have a linear density on [0, R], so the push of
    # the disks' conditional pair against its target never needs quadrature
    family, field_nd, _ = radial_disks
    push = flow_mod.push_measure(field_nd.field, family.cond0, 1.0, n=2049)
    target = RadiusLaw(2, 2.0)
    ref, noise = reference_abs_gap("cdf", push.measure, target)

    def refuse(*args):
        raise AssertionError("Gauss-Legendre fallback used")

    monkeypatch.setattr(measures_mod, "_abs_gauss_legendre", refuse)
    got = wasserstein1(push.measure, target)
    assert abs(got - ref) <= 1e-10 * ref + 1e-16 + noise, (got, ref)


def _one_shot_quadratic_integral(gap, a, b):
    """The integral of |gap| over all cells [a, b] in one pass: the
    quadratic through the gap at 1/4, 1/2 and 3/4 of each cell, split at its
    roots in the cell and integrated exactly, summed once."""
    h = b - a
    g1, g2, g3 = (gap(a + u * h) for u in (0.25, 0.5, 0.75))
    b1 = 2.0 * (g3 - g1)
    c2 = 8.0 * (g1 + g3 - 2.0 * g2)
    c1 = b1 - c2
    c0 = g2 - 0.5 * b1 + 0.25 * c2
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
    return float(np.sum(h * (np.abs(p1) + np.abs(p2 - p1)
                             + np.abs(primitive(1.0) - p2))))


@pytest.mark.parametrize("block", [None, 1000, 4097])
def test_quadratic_integral_blocks_match_one_shot(block, monkeypatch):
    # 20,000 cells, more than one default block: the blocked integral is
    # bitwise the one-shot sum, whatever the block size
    rng = np.random.default_rng(11)
    x = np.cumsum(rng.uniform(0.1, 1.0, 20001))

    def density():
        d = rng.uniform(0.0, 1.0, x.size)
        return d / np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(x))

    m0 = PiecewiseDensity(x, density())
    m1 = PiecewiseDensity(x + 0.3, density())
    cells = np.unique(np.concatenate((x, x + 0.3)))
    assert cells.size - 1 > measures_mod._CELL_BLOCK
    if block is not None:
        monkeypatch.setattr(measures_mod, "_CELL_BLOCK", block)
    a, b = cells[:-1], cells[1:]
    for law in ("cdf", "pdf"):
        def gap(t, f0=getattr(m0, law), f1=getattr(m1, law)):
            return f0(t) - f1(t)

        want = _one_shot_quadratic_integral(gap, a, b)
        assert measures_mod._abs_quadratic_integral(gap, a, b) == want, law


def test_push_distances_take_bounded_temporaries(accumulating_cinf_built,
                                                 peak_traced):
    # the push of accumulating-cinf has about 69,000 cells; W1 and L1
    # integrate them a block at a time
    ex, field = accumulating_cinf_built
    push = flow_mod.push_measure(field, ex.m0, 1.0).measure
    for dist in (wasserstein1, l1_distance):
        with peak_traced() as mem:
            dist(push, ex.m1)
        assert mem.peak <= 4e6, (dist.__name__, mem.peak)
