"""Ray decompositions in d >= 2: families, assembled fields, verification.

Closed-form oracles: the radius law of a uniform ball draw has cdf (r/R)^d, a
ball-to-ball expansion doubles every radius at time 1, and a pure translation
of a product measure moves points by exactly the shift vector.
"""

import json
import math
import warnings

import numpy as np
import pytest

import otflow.sudakov
import otflow.velocity
from otflow.errors import (InputError, MeasureSpecError,
                           UnsupportedDecompositionError)
from otflow.flow import push_measure
from otflow.measures import Gaussian, Uniform, wasserstein1
from otflow.sudakov import (BallMeasure, ProductMeasure, RadiusLaw,
                            assemble_field, decompose, measure_nd_to_dict,
                            parse_measure_nd, per_ray_monotone_map,
                            translate_nd, verify_nd)


class TestRadiusLaw:
    """Law of |X| for X uniform on a d-ball."""

    def test_pdf_closed_form(self):
        law = RadiusLaw(2, 2.0)
        rs = np.array([0.0, 0.5, 1.0, 1.7, 2.0])
        assert np.allclose(law.pdf(rs), rs / 2.0, atol=1e-15)
        assert law.pdf(-0.1) == 0.0 and law.pdf(2.3) == 0.0

    def test_cdf_and_quantile(self):
        law = RadiusLaw(3, 1.5)
        rs = np.linspace(0.0, 1.5, 77)
        assert np.allclose(law.cdf(rs), (rs / 1.5) ** 3, atol=1e-15)
        ps = np.linspace(0.0, 1.0, 53)
        assert np.allclose(law.quantile(ps), 1.5 * ps ** (1.0 / 3.0), atol=1e-15)
        assert np.allclose(law.cdf(law.quantile(ps)), ps, atol=1e-13)

    def test_total_mass(self):
        law = RadiusLaw(2, 3.0)
        rs = np.linspace(0.0, 3.0, 20001)
        assert abs(np.trapezoid(law.pdf(rs), rs) - 1.0) <= 1e-8

    def test_validation(self):
        with pytest.raises(MeasureSpecError):
            RadiusLaw(0, 1.0)
        with pytest.raises(MeasureSpecError):
            RadiusLaw(2, -1.0)
        with pytest.raises(InputError):
            RadiusLaw(2, 1.0).quantile(1.5)
        for p in (np.nan, -np.inf):
            with pytest.raises(MeasureSpecError):
                RadiusLaw(2, 1.0).quantile(p)


class TestParsing:
    """Dict and JSON specs round-trip through the parser."""

    def test_product_roundtrip(self):
        spec = {"kind": "product", "factors": [
            {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            {"kind": "gaussian", "mean": 0.0, "std": 1.0}]}
        m = parse_measure_nd(spec)
        assert isinstance(m, ProductMeasure) and m.dimension == 2
        assert measure_nd_to_dict(m) == spec

    def test_ball_roundtrip_inline_json(self):
        m = parse_measure_nd(json.dumps(
            {"kind": "ball", "center": [1.0, -2.0, 0.5], "radius": 2.0}))
        assert isinstance(m, BallMeasure)
        assert m.center == (1.0, -2.0, 0.5) and m.radius == 2.0
        assert measure_nd_to_dict(m)["kind"] == "ball"

    def test_spec_file_by_path(self, tmp_path):
        spec = {"kind": "product", "factors": [
            {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            {"kind": "gaussian", "mean": 0.0, "std": 1.0}]}
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(spec))
        m = parse_measure_nd(str(path))
        assert isinstance(m, ProductMeasure)
        assert measure_nd_to_dict(m) == spec

    def test_rejects_unknown_kind(self):
        with pytest.raises(MeasureSpecError):
            parse_measure_nd({"kind": "torus", "radius": 1.0})
        with pytest.raises(MeasureSpecError):
            parse_measure_nd({"kind": "ball", "center": [0, 0]})
        with pytest.raises(MeasureSpecError):
            parse_measure_nd([1, 2, 3])

    def test_translate(self):
        ball = translate_nd(BallMeasure((0.0, 0.0), 1.0), (2.0, -1.0))
        assert ball.center == (2.0, -1.0) and ball.radius == 1.0
        prod = translate_nd(
            ProductMeasure((Uniform(0, 1), Uniform(0, 1))), (1.0, 0.0))
        assert prod.factors[0].support == (1.0, 2.0)
        assert prod.factors[1].support == (0.0, 1.0)
        with pytest.raises(InputError):
            translate_nd(BallMeasure((0.0, 0.0), 1.0), (1.0, 0.0, 0.0))

    def test_high_dimension_ball_sampling_unsupported(self):
        ball = BallMeasure((0.0, 0.0, 0.0, 0.0), 1.0)
        with pytest.raises(InputError):
            ball.sample(10, np.random.default_rng(0))


class TestDecompose:
    """Supported pair classes and the named refusals."""

    def test_products_one_differing_factor(self):
        shared = Gaussian(0.0, 1.0)
        m0 = ProductMeasure((shared, Uniform(0.0, 1.0)))
        m1 = ProductMeasure((shared, Uniform(2.0, 4.0)))
        fam = decompose(m0, m1)
        assert fam.kind == "parallel" and fam.axis == 1
        assert fam.cond0.support == (0.0, 1.0)
        assert fam.cond1.support == (2.0, 4.0)
        assert fam.transverse0 == (shared,)

    def test_identical_products_default_axis(self):
        m = ProductMeasure((Uniform(0, 1), Uniform(0, 1)))
        fam = decompose(m, m)
        assert fam.kind == "parallel" and fam.axis == 0

    def test_concentric_balls(self):
        fam = decompose(BallMeasure((1.0, 1.0), 1.0), BallMeasure((1.0, 1.0), 3.0))
        assert fam.kind == "radial"
        assert isinstance(fam.cond0, RadiusLaw) and fam.cond0.radius == 1.0
        assert fam.cond1.radius == 3.0
        assert tuple(fam.center) == (1.0, 1.0)

    def test_refusals(self):
        u, g = Uniform(0, 1), Gaussian(0, 1)
        with pytest.raises(UnsupportedDecompositionError):
            decompose(BallMeasure((0.0, 0.0), 1.0), BallMeasure((1.0, 0.0), 1.0))
        with pytest.raises(UnsupportedDecompositionError):
            decompose(ProductMeasure((u, u)), ProductMeasure((g, g)))
        with pytest.raises(UnsupportedDecompositionError):
            decompose(ProductMeasure((u, u)), BallMeasure((0.0, 0.0), 1.0))
        with pytest.raises(InputError):
            decompose(ProductMeasure((u, u)),
                      ProductMeasure((u, u, u)))


class TestRayGeometry:
    """Ray draws, fiber densities and the shared map."""

    def test_fiber_mass(self):
        g = Gaussian(0.0, 1.0)
        fam = decompose(ProductMeasure((g, Uniform(0, 1))),
                        ProductMeasure((g, Uniform(1, 2))))
        assert abs(fam.fiber_mass((0.0,)) - g.pdf(0.0)) <= 1e-15
        assert fam.fiber_mass_defect((0.7,)) == 0.0
        radial = decompose(BallMeasure((0.0, 0.0), 1.0),
                           BallMeasure((0.0, 0.0), 2.0))
        assert abs(radial.fiber_mass((1.0, 0.0)) - 1.0 / (2.0 * math.pi)) <= 1e-15

    def test_sample_alphas_shapes(self):
        rng = np.random.default_rng(5)
        par = decompose(ProductMeasure((Uniform(0, 1), Uniform(0, 1))),
                        ProductMeasure((Uniform(0, 1), Uniform(1, 2))))
        assert par.sample_alphas(10, rng).shape == (10, 1)
        rad = decompose(BallMeasure((0.0, 0.0), 1.0), BallMeasure((0.0, 0.0), 2.0))
        a = rad.sample_alphas(16, rng)
        assert a.shape == (16, 2)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_per_ray_map_matches_radius_rearrangement(self):
        fam = decompose(BallMeasure((0.0, 0.0), 1.0), BallMeasure((0.0, 0.0), 2.0))
        tm = per_ray_monotone_map(fam)
        rs = np.linspace(0.05, 0.95, 37)
        assert np.max(np.abs(np.asarray(tm.forward(rs)) - 2.0 * rs)) <= 1e-9


class TestRadialExpansion:
    """Disk of radius 1 onto radius 2: every radius doubles at time 1."""

    def test_report_passes(self, radial_disks):
        _, _, rep = radial_disks
        assert rep.ok, rep.checks
        assert all(rep.checks.values()), rep.checks
        assert rep.rng_seed == 20260823
        assert rep.n_unflowed == 0

    def test_per_ray_rows(self, radial_disks):
        # one W1 for the pair every ray carries, next to the ray count
        _, _, rep = radial_disks
        assert rep.n_rays == 64
        assert rep.per_ray_w1_max <= 1e-4
        assert not {"per_ray_w1", "per_ray_alphas", "skipped_rays"} & set(rep.to_dict())

    def test_flow_doubles_radii(self, radial_disks):
        _, field_nd, _ = radial_disks
        rng = np.random.default_rng(11)
        pts = field_nd.family.m0.sample(2000, rng)
        r = np.linalg.norm(pts, axis=1)
        keep = r >= 0.05
        out = field_nd.flow(1.0, pts[keep])
        rel = np.linalg.norm(out - 2.0 * pts[keep], axis=1) / r[keep]
        assert np.max(rel) <= 1e-6

    def test_velocity_points_outward(self, radial_disks):
        _, field_nd, _ = radial_disks
        pts = np.array([[0.3, 0.0], [0.0, -0.5], [0.4, 0.4]])
        v = field_nd.velocity(pts)
        radial = np.sum(v * pts, axis=1)
        assert np.all(radial > 0)
        # no tangential component: v is parallel to the position vector
        cross = v[:, 0] * pts[:, 1] - v[:, 1] * pts[:, 0]
        assert np.max(np.abs(cross)) <= 1e-12

    def test_off_set_points_are_refused(self, radial_disks):
        _, field_nd, _ = radial_disks
        far = np.array([[50.0, 0.0]])
        assert not field_nd.transport_set_mask(far)[0]
        assert np.all(np.isnan(field_nd.velocity(far)))
        assert np.all(np.isnan(field_nd.flow(1.0, far)))

    def test_report_serializes(self, radial_disks):
        _, _, rep = radial_disks
        text = json.dumps(rep.to_dict())
        assert "per_ray_w1_max" in text and "rng_seed" in text

    def test_radial_rearrangement_column(self, radial_disks):
        _, _, rep = radial_disks
        assert rep.radial_rearrangement_rel_max is not None
        assert rep.radial_rearrangement_rel_max <= 1e-6


class TestSingleMeasurement:
    """verify_nd pushes the shared conditional pair once and measures one
    W1, whatever the number of rays."""

    def test_one_push_and_one_w1_per_check(self, radial_disks, monkeypatch):
        _, field_nd, _ = radial_disks
        calls = {"push_measure": 0, "wasserstein1": 0}

        def counting(name):
            fn = getattr(otflow.sudakov, name)

            def wrapped(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            monkeypatch.setattr(otflow.sudakov, name, wrapped)

        for name in calls:
            counting(name)
        verify_nd(field_nd, n_samples=500)
        assert calls == {"push_measure": 1, "wasserstein1": 1}

    @pytest.mark.parametrize("pair", ["disks", "parallel"])
    def test_w1_is_the_one_push_at_any_ray_count(self, radial_disks, built, pair):
        field_nd = radial_disks[1] if pair == "disks" else built[1]
        fam = field_nd.family
        pushed = push_measure(field_nd.field, fam.cond0, 1.0, n=2049).measure
        want = wasserstein1(pushed, fam.cond1)
        for n_rays in (1, 64):
            rep = verify_nd(field_nd, n_samples=500, n_rays=n_rays)
            assert rep.n_rays == n_rays
            assert np.float64(rep.per_ray_w1_max).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("count", ["n_samples", "n_rays", "n_directions"])
    def test_zero_count_is_refused(self, radial_disks, count):
        # a zero count leaves a check with nothing to measure
        with pytest.raises(InputError):
            verify_nd(radial_disks[1], **{count: 0})


class TestBoundedMemory:
    """The 1-D flow under verify_nd runs in blocks, and the check keeps one
    copy of each sample cloud."""

    def test_block_size_changes_no_bit(self, radial_disks, monkeypatch):
        _, field_nd, _ = radial_disks
        pts = field_nd.family.m0.sample(3000, np.random.default_rng(13))

        def run():
            rep = verify_nd(field_nd, n_samples=3000, n_rays=16)
            return (json.dumps(rep.to_dict(), sort_keys=True),
                    field_nd.flow(1.0, pts).tobytes(),
                    field_nd.flow(0.5, pts).tobytes())

        want = run()
        monkeypatch.setattr(otflow.velocity, "_BLOCK", 7)
        assert run() == want

    def test_verify_peak_memory(self, radial_disks, peak_traced):
        """At its default 100,000 samples the check on the disks peaks at
        most at 14 MiB."""
        _, field_nd, _ = radial_disks
        with warnings.catch_warnings(), peak_traced() as mem:
            warnings.simplefilter("ignore")
            verify_nd(field_nd)
        assert mem.peak <= 14 * 2 ** 20, mem.peak / 2 ** 20


class TestRadialBallsInThree:
    """Concentric 3-balls, radius 1 onto radius 2: the radial family in
    d = 3, with random direction draws for the rays and the slices."""

    def test_ball_sampling_closed_form(self):
        ball = BallMeasure((0.0, 0.0, 0.0), 2.0)
        u = np.random.default_rng(4).random((500, 3))
        pts = ball.sample_from_uniform(u)
        r = np.linalg.norm(pts, axis=1)
        assert np.allclose(r, 2.0 * u[:, 0] ** (1.0 / 3.0), rtol=1e-14)
        # z = r (2 u1 - 1) and the azimuth 2 pi u2
        assert np.allclose(pts[:, 2], r * (2.0 * u[:, 1] - 1.0),
                           rtol=1e-13, atol=1e-15)
        phi = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        assert np.allclose(phi, 2.0 * np.pi * u[:, 2], atol=1e-9)

    def test_verify_and_doubling(self):
        center = (0.0, 0.0, 0.0)
        fam = decompose(BallMeasure(center, 1.0), BallMeasure(center, 2.0))
        assert fam.kind == "radial" and fam.dimension == 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field_nd = assemble_field(fam)
            rep = verify_nd(field_nd, n_samples=5000, n_rays=16, n_directions=8)
        assert rep.ok and all(rep.checks.values())
        assert "radial_rearrangement" in rep.checks
        assert rep.dimension == 3 and rep.n_unflowed == 0
        assert rep.n_rays == 16 and rep.per_ray_w1_max <= 1e-4
        # the ray indices are unit directions drawn on the sphere
        alphas = fam.sample_alphas(16, np.random.default_rng(rep.rng_seed))
        assert alphas.shape == (16, 3)
        assert np.allclose(np.linalg.norm(alphas, axis=1), 1.0, atol=1e-14)
        pts = BallMeasure(center, 1.0).sample(2000, np.random.default_rng(5))
        out = field_nd.flow(1.0, pts)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - 2.0 * pts)) <= 1e-12


@pytest.fixture(scope="module")
def built():
    m0 = ProductMeasure((Uniform(0.0, 1.0), Uniform(0.0, 1.0)))
    m1 = translate_nd(m0, (1.0, 0.0))
    fam = decompose(m0, m1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field_nd = assemble_field(fam)
    return fam, field_nd


class TestParallelTranslation:
    """Square translated along an axis: flow is the shift, exactly."""

    def test_family_shape(self, built):
        fam, _ = built
        assert fam.kind == "parallel" and fam.axis == 0
        assert fam.cond0.support == (0.0, 1.0)
        assert fam.cond1.support == (1.0, 2.0)

    def test_flow_is_the_shift(self, built):
        _, field_nd = built
        rng = np.random.default_rng(3)
        pts = np.column_stack((rng.uniform(0.01, 0.99, 500),
                               rng.uniform(0.0, 1.0, 500)))
        out = field_nd.flow(1.0, pts)
        good = np.all(np.isfinite(out), axis=1)
        assert good.sum() >= 495
        err = out[good] - (pts[good] + np.array([1.0, 0.0]))
        assert np.max(np.abs(err)) <= 1e-9

    def test_transverse_coordinate_frozen(self, built):
        _, field_nd = built
        pts = np.array([[0.5, 0.123], [0.25, 0.875]])
        out = field_nd.flow(0.37, pts)
        assert np.array_equal(out[:, 1], pts[:, 1])

    def test_identity_pair_verifies_exactly(self):
        m = ProductMeasure((Uniform(0.0, 1.0), Uniform(0.0, 1.0)))
        fam = decompose(m, m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field_nd = assemble_field(fam)
            rep = verify_nd(field_nd, n_samples=2000, n_rays=8,
                            n_directions=8, seed=99)
        assert rep.ok
        # coupled draws make the pushed and target clouds literally the same
        assert rep.sliced_w1_max == 0.0
        assert rep.rng_seed == 99
