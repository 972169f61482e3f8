"""Measure layer: densities, CDFs, quantiles, distances, parsing.

Closed-form oracles are written out explicitly next to each assertion; the
Wasserstein values below were derived independently of the implementation
(uniform shifts integrate the CDF gap directly, the centered normal pair uses
the mean absolute value of a standard normal).
"""

import json
import math

import numpy as np
import pytest

from otflow.errors import MeasureSpecError
from otflow.measures import (AffineImage, Gaussian, PiecewiseDensity, Uniform,
                             l1_distance, measure_to_dict, parse_measure,
                             pushforward_by_map, translate, wasserstein1)

TOL_EXACT = 1e-14
TOL_QUAD = 1e-9
TOL_GRID = 1e-6

RNG_SEED = 987123


class TestUniform:
    """Closed forms of the uniform family."""

    def test_pdf_indicator(self):
        m = Uniform(1.0, 2.0)
        xs = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        expect = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        assert np.allclose(m.pdf(xs), expect, atol=TOL_EXACT)

    def test_cdf_ramp(self):
        m = Uniform(1.0, 2.0)
        xs = np.linspace(0.0, 3.0, 61)
        expect = np.clip(xs - 1.0, 0.0, 1.0)
        assert np.max(np.abs(m.cdf(xs) - expect)) <= TOL_EXACT

    def test_quantile_inverts_cdf(self):
        m = Uniform(-2.0, 5.0)
        ps = np.linspace(1e-9, 1.0 - 1e-9, 101)
        assert np.max(np.abs(m.cdf(m.quantile(ps)) - ps)) <= 1e-12

    def test_support_and_window(self):
        m = Uniform(3.0, 7.0)
        assert m.support == (3.0, 7.0)
        lo, hi = m.window(1e-10)
        assert 3.0 <= lo < hi <= 7.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(MeasureSpecError):
            Uniform(2.0, 2.0)


class TestGaussian:
    """Normal distribution against erf-based closed forms."""

    def test_pdf_formula(self):
        m = Gaussian(1.0, 2.0)
        xs = np.linspace(-6.0, 8.0, 57)
        expect = np.exp(-((xs - 1.0) ** 2) / 8.0) / (2.0 * math.sqrt(2 * math.pi))
        assert np.max(np.abs(m.pdf(xs) - expect)) <= 1e-13

    def test_cdf_against_erf(self):
        m = Gaussian(0.0, 1.0)
        for x in (-3.0, -1.0, 0.0, 0.5, 2.0):
            expect = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            assert abs(float(m.cdf(x)) - expect) <= 1e-14, f"cdf({x})"

    def test_quantile_median_and_sigma(self):
        m = Gaussian(3.0, 2.0)
        assert abs(float(m.quantile(0.5)) - 3.0) <= 1e-12
        p_one_sigma = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(float(m.quantile(p_one_sigma)) - 5.0) <= 1e-10

    def test_tail_pairing_keeps_precision(self):
        m = Gaussian(0.0, 1.0)
        q = m.quantile_pair(np.array([1e-300]), np.array([1.0 - 1e-16]))
        assert float(q[0]) < -37.0, "deep lower tail should resolve"

    def test_pdf_derivative(self):
        m = Gaussian(0.0, 1.0)
        xs = np.array([-1.5, 0.0, 0.7])
        expect = -xs * m.pdf(xs)
        assert np.max(np.abs(m.pdf_derivative(xs) - expect)) <= 1e-13


class TestAffineImage:
    """Images of a base measure under x -> x/alpha + beta."""

    def test_uniform_image_is_uniform(self):
        base = Uniform(1.0, 2.0)
        img = AffineImage(base, 1.0 / 3.0, -3.0)
        assert img.support == (0.0, 3.0)
        xs = np.linspace(-0.5, 3.5, 41)
        inside = (xs >= 0.0) & (xs <= 3.0)
        assert np.allclose(img.pdf(xs)[inside], 1.0 / 3.0, atol=TOL_EXACT)
        assert np.allclose(img.pdf(xs)[~inside], 0.0, atol=TOL_EXACT)

    def test_cdf_composition(self):
        base = Gaussian(0.0, 1.0)
        img = AffineImage(base, 0.5, 1.0)
        xs = np.linspace(-5.0, 7.0, 31)
        assert np.max(np.abs(img.cdf(xs) - base.cdf((xs - 1.0) * 0.5))) <= 1e-14

    def test_translate_is_unit_slope_image(self):
        base = Uniform(0.0, 1.0)
        moved = translate(base, 2.5)
        assert moved.support == (2.5, 3.5)
        assert abs(float(moved.quantile(0.25)) - 2.75) <= 1e-12


class TestPiecewiseDensity:
    """Piecewise-linear densities with exact CDF/quantile algebra."""

    def test_mass_validation(self):
        with pytest.raises(MeasureSpecError):
            PiecewiseDensity([0.0, 1.0], [1.0, 1.5])

    def test_trapezoid_cdf(self):
        m = PiecewiseDensity([0.0, 2.0], [0.25, 0.75])
        xs = np.linspace(0.0, 2.0, 21)
        expect = 0.25 * xs + 0.125 * xs ** 2
        assert np.max(np.abs(m.cdf(xs) - expect)) <= 1e-12

    def test_quantile_roundtrip(self):
        m = PiecewiseDensity([0.0, 3.0], [0.5, 1.0 / 6.0])
        ps = np.linspace(1e-6, 1.0 - 1e-6, 301)
        assert np.max(np.abs(m.cdf(m.quantile(ps)) - ps)) <= 1e-10

    def test_positive_density_required(self):
        with pytest.raises(MeasureSpecError):
            PiecewiseDensity([0.0, 1.0, 2.0], [1.0, -0.1, 0.1])


class TestPushforward:
    """Grid pushforward under a strictly increasing map."""

    def test_quadratic_map_density(self):
        m0 = Uniform(0.0, 1.0)
        img = pushforward_by_map(m0, lambda x: np.asarray(x) ** 2 + np.asarray(x),
                                 derivative=lambda x: 2.0 * np.asarray(x) + 1.0,
                                 n=8193)
        ys = np.linspace(0.05, 1.95, 19)
        expect = 1.0 / np.sqrt(1.0 + 4.0 * ys)
        assert np.max(np.abs(img.pdf(ys) - expect) / expect) <= TOL_GRID

    def test_affine_map_matches_affine_image(self):
        m0 = Uniform(1.0, 2.0)
        img = pushforward_by_map(m0, lambda x: 3.0 * np.asarray(x) - 3.0,
                                 derivative=lambda x: np.full_like(
                                     np.asarray(x, dtype=float), 3.0))
        direct = AffineImage(m0, 1.0 / 3.0, -3.0)
        assert wasserstein1(img, direct) <= 1e-8


class TestDistances:
    """W1 and L1 against hand-derived values."""

    def test_w1_uniform_shift(self):
        a = Uniform(0.0, 1.0)
        b = Uniform(0.75, 1.75)
        assert abs(wasserstein1(a, b) - 0.75) <= TOL_QUAD

    def test_w1_normal_mean_shift(self):
        a = Gaussian(0.0, 1.0)
        b = Gaussian(1.0, 1.0)
        assert abs(wasserstein1(a, b) - 1.0) <= TOL_QUAD

    def test_w1_normal_scale(self):
        a = Gaussian(0.0, 1.0)
        b = Gaussian(0.0, 2.0)
        expect = math.sqrt(2.0 / math.pi)
        assert abs(wasserstein1(a, b) - expect) <= TOL_QUAD

    def test_w1_zero_on_equal(self):
        a = Uniform(0.0, 2.0)
        assert wasserstein1(a, Uniform(0.0, 2.0)) <= 1e-12

    def test_l1_disjoint_uniforms(self):
        a = Uniform(0.0, 1.0)
        b = Uniform(2.0, 3.0)
        assert abs(l1_distance(a, b) - 2.0) <= TOL_QUAD


class TestParsing:
    """JSON measure specs round-trip and fail with field diagnostics."""

    def test_roundtrip_kinds(self):
        specs = [
            {"kind": "uniform", "lo": 0.0, "hi": 2.0},
            {"kind": "gaussian", "mean": 1.0, "std": 2.0},
            {"kind": "piecewise_linear", "x": [0.0, 3.0],
             "density": [0.5, 1.0 / 6.0]},
        ]
        for spec in specs:
            m = parse_measure(spec)
            back = measure_to_dict(m)
            assert back["kind"] == spec["kind"]
            again = parse_measure(json.dumps(back))
            assert measure_to_dict(again) == back

    def test_affine_image_nested(self):
        spec = {"kind": "affine_image", "alpha": 1.0 / 3.0, "beta": -3.0,
                "base": {"kind": "uniform", "lo": 1.0, "hi": 2.0}}
        m = parse_measure(spec)
        assert m.support == (0.0, 3.0)

    def test_unknown_kind(self):
        with pytest.raises(MeasureSpecError) as err:
            parse_measure({"kind": "cauchy", "loc": 0.0})
        assert "cauchy" in str(err.value)

    def test_missing_field_named(self):
        with pytest.raises(MeasureSpecError) as err:
            parse_measure({"kind": "uniform", "lo": 0.0})
        assert "hi" in str(err.value)

    def test_spec_file_by_path(self, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"kind": "gaussian", "mean": 1.0, "std": 2.0}))
        m = parse_measure(str(path))
        assert isinstance(m, Gaussian) and (m.mean, m.std) == (1.0, 2.0)

    def test_missing_spec_file_named(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(MeasureSpecError) as err:
            parse_measure(path)
        assert path in str(err.value)

    def test_inline_array_is_json_not_a_path(self):
        with pytest.raises(MeasureSpecError) as err:
            parse_measure('[{"kind": "uniform", "lo": 0.0, "hi": 1.0}]')
        assert "must be a JSON object, got list" in str(err.value)
