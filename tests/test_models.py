import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from geoprofile.geodesy import UtmPoint
from geoprofile.models import (
    M1Params,
    M2Params,
    NonResParams,
    angle_normalizer,
    m1_density,
    m2_density,
    nonres_density,
    radial_normalizer,
    ring_normal_normalizer,
)
from oracles import cartesian_square_integral, polar_disc_integral

TWO_PI = 2.0 * math.pi


def _pt(e, n, zone=18):
    return UtmPoint(zone=zone, easting=e, northing=n)


class TestM1Density:
    def test_peak_at_anchor(self):
        z = _pt(350.0, 4360.0)
        assert m1_density(z, z, M1Params(alpha=2.0)) == pytest.approx(1.0 / 16.0)

    def test_unit_offset_value(self):
        # alpha = 1, offset (1, 0): 0.25 * exp(-pi/4)
        mpmath.mp.dps = 30
        exact = float(mpmath.mpf(1) / 4 * mpmath.exp(-mpmath.pi / 4))
        got = m1_density(_pt(351.0, 4360.0), _pt(350.0, 4360.0), M1Params(alpha=1.0))
        assert got == pytest.approx(exact, rel=1e-12)
        assert got == pytest.approx(0.11398, rel=1e-4)

    def test_integrates_to_one(self):
        alpha = 2.3
        p = M1Params(alpha=alpha)
        z = np.array([350.0, 4360.0])
        total = cartesian_square_integral(
            lambda x, y: m1_density(np.stack(np.broadcast_arrays(x, y), axis=-1), z, p),
            z,
            half_side=30.0 * alpha,
            feature=math.sqrt(2.0 / math.pi) * alpha,
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_mean_distance_is_alpha(self):
        # E||x - z|| under the family equals alpha by construction
        rng = np.random.default_rng(7)
        alpha = 3.0
        sigma = math.sqrt(2.0 / math.pi) * alpha
        pts = rng.normal(0.0, sigma, size=(200_000, 2))
        assert np.hypot(pts[:, 0], pts[:, 1]).mean() == pytest.approx(alpha, rel=0.01)


class TestRingNormalizer:
    def test_small_alpha_limit(self):
        # alpha -> 0: the normalizer tends to 2*pi*sigma^2
        sigma = 1.7
        n = ring_normal_normalizer(1e-9, sigma)
        assert n == pytest.approx(TWO_PI * sigma**2, rel=1e-6)

    def test_matches_brute_force(self):
        alpha, sigma = 2.0, 0.8
        kernel = lambda x, y: np.exp(
            -((np.hypot(x, y) - alpha) ** 2) / (2.0 * sigma**2)
        )
        brute = polar_disc_integral(kernel, (0.0, 0.0), alpha + 10.0 * sigma, sigma)
        assert ring_normal_normalizer(alpha, sigma) == pytest.approx(brute, rel=1e-3)

    def test_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = rng.uniform(0.1, 20.0)
            sigma = rng.uniform(0.05, 5.0)
            bound = (
                TWO_PI
                * math.sqrt(TWO_PI)
                * alpha
                * sigma
                * (1.0 - ndtr(-alpha / sigma))
            )
            assert ring_normal_normalizer(alpha, sigma) >= bound

    def test_vectorized(self):
        alphas = np.array([1.0, 2.0, 3.0])
        sigmas = np.array([0.5, 0.8, 1.1])
        vec = ring_normal_normalizer(alphas, sigmas)
        for i in range(3):
            assert vec[i] == pytest.approx(ring_normal_normalizer(alphas[i], sigmas[i]))


class TestM2Density:
    def test_on_ring_value(self):
        p = M2Params(alpha=2.0, sigma=0.8)
        z = _pt(350.0, 4360.0)
        x = _pt(352.0, 4360.0)  # r = alpha
        assert m2_density(x, z, p) == pytest.approx(
            1.0 / ring_normal_normalizer(2.0, 0.8), rel=1e-12
        )

    def test_buffer_zone_low_not_zero(self):
        p = M2Params(alpha=2.0, sigma=0.8)
        z = _pt(350.0, 4360.0)
        at_anchor = m2_density(z, z, p)
        expected = math.exp(-(2.0**2) / (2.0 * 0.8**2)) / ring_normal_normalizer(2.0, 0.8)
        assert at_anchor == pytest.approx(expected, rel=1e-12)
        assert at_anchor > 0.0

    def test_integrates_to_one(self):
        p = M2Params(alpha=2.0, sigma=0.8)
        z = np.array([0.0, 0.0])
        total = polar_disc_integral(
            lambda x, y: m2_density(np.stack(np.broadcast_arrays(x, y), axis=-1), z, p),
            z,
            r_max=p.alpha + 12.0 * p.sigma,
            sigma_r=p.sigma,
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_ridge_dominates_off_ring(self):
        p = M2Params(alpha=5.0, sigma=1.0)
        z = np.array([0.0, 0.0])
        on_ring = m2_density(np.array([5.0, 0.0]), z, p)
        for r in np.concatenate([np.arange(0.0, 4.51, 0.1), np.arange(5.5, 20.0, 0.1)]):
            assert on_ring > m2_density(np.array([r, 0.0]), z, p)


class TestNonResDensity:
    def test_kernel_peak_unnormalized(self):
        p = NonResParams(alpha=2.0, sigma1=0.8, theta=math.pi / 4, sigma2=math.pi / 6)
        z = np.array([0.0, 0.0])
        x = z + 2.0 * np.array([math.cos(p.theta), math.sin(p.theta)])
        n = radial_normalizer(p.alpha, p.sigma1) * angle_normalizer(p.theta, p.sigma2)
        assert nonres_density(x, z, p) * n == pytest.approx(1.0, rel=1e-12)

    def test_angle_normalizer_closed_form(self):
        theta, sigma2 = math.pi, math.pi / 6
        expected = (
            sigma2
            * math.sqrt(TWO_PI)
            * (ndtr(math.pi / sigma2) - ndtr(-math.pi / sigma2))
        )
        assert angle_normalizer(theta, sigma2) == pytest.approx(expected, rel=1e-14)

    def test_integrates_to_one(self):
        p = NonResParams(alpha=2.0, sigma1=0.8, theta=math.pi / 4, sigma2=math.pi / 6)
        z = np.array([100.0, 200.0])
        total = polar_disc_integral(
            lambda x, y: nonres_density(
                np.stack(np.broadcast_arrays(x, y), axis=-1), z, p
            ),
            z,
            r_max=p.alpha + 12.0 * p.sigma1,
            sigma_r=p.sigma1,
            sigma_phi=p.sigma2,
        )
        assert total == pytest.approx(1.0, abs=2e-3)

    def test_factorization_identity(self):
        p = NonResParams(alpha=3.0, sigma1=1.2, theta=1.0, sigma2=0.5)
        z = np.array([10.0, 20.0])
        rng = np.random.default_rng(11)
        pts = z + rng.normal(0.0, 5.0, size=(64, 2))
        r = np.hypot(pts[:, 0] - z[0], pts[:, 1] - z[1])
        phi = np.arctan2(pts[:, 1] - z[1], pts[:, 0] - z[0]) % TWO_PI
        q1 = np.exp(-((r - p.alpha) ** 2) / (2.0 * p.sigma1**2))
        q2 = np.exp(-((phi - p.theta) ** 2) / (2.0 * p.sigma2**2))
        n = radial_normalizer(p.alpha, p.sigma1) * angle_normalizer(p.theta, p.sigma2)
        np.testing.assert_allclose(nonres_density(pts, z, p) * n, q1 * q2, rtol=1e-12)

    def test_at_anchor_rejected(self):
        p = NonResParams(alpha=2.0, sigma1=0.8, theta=0.0, sigma2=0.5)
        z = _pt(350.0, 4360.0)
        with pytest.raises(ValueError):
            nonres_density(z, z, p)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NonResParams(alpha=2.0, sigma1=0.8, theta=TWO_PI, sigma2=0.5)
        with pytest.raises(ValueError):
            NonResParams(alpha=-1.0, sigma1=0.8, theta=0.0, sigma2=0.5)


class TestSharedProperties:
    """Positivity, symmetry and equivariance across the three families."""

    def _random_cases(self, n=20):
        # offsets scaled to the spread so exponents stay representable
        rng = np.random.default_rng(5)
        for _ in range(n):
            alpha = rng.uniform(0.3, 10.0)
            sigma = rng.uniform(0.1, 3.0)
            z = rng.uniform(-50.0, 50.0, size=2)
            x = z + rng.uniform(-1.0, 1.0, size=2) * (alpha + 10.0 * sigma)
            yield x, z, alpha, sigma

    def test_positive_everywhere(self):
        rng = np.random.default_rng(55)
        for x, z, alpha, sigma in self._random_cases():
            near = z + rng.uniform(-1.0, 1.0, size=2) * 15.0 * alpha
            assert m1_density(near, z, M1Params(alpha)) > 0.0
            assert m2_density(x, z, M2Params(alpha, sigma)) > 0.0
            if not np.allclose(x, z):
                p = NonResParams(alpha, sigma, 1.0, 0.7)
                assert nonres_density(x, z, p) > 0.0

    def test_rotation_invariance_radial_families(self):
        rng = np.random.default_rng(6)
        z = np.array([3.0, -4.0])
        for _ in range(20):
            x = z + rng.normal(0.0, 5.0, size=2)
            ang = rng.uniform(0.0, TWO_PI)
            c, s = math.cos(ang), math.sin(ang)
            rot = z + np.array(
                [
                    c * (x[0] - z[0]) - s * (x[1] - z[1]),
                    s * (x[0] - z[0]) + c * (x[1] - z[1]),
                ]
            )
            p1, p2 = M1Params(2.0), M2Params(2.0, 0.8)
            assert m1_density(rot, z, p1) == pytest.approx(
                m1_density(x, z, p1), abs=1e-12
            )
            assert m2_density(rot, z, p2) == pytest.approx(
                m2_density(x, z, p2), abs=1e-12
            )

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        for x, z, alpha, sigma in self._random_cases(10):
            t = rng.uniform(-100.0, 100.0, size=2)
            p1, p2 = M1Params(alpha), M2Params(alpha, sigma)
            pn = NonResParams(alpha, sigma, 2.0, 0.4)
            assert m1_density(x + t, z + t, p1) == pytest.approx(
                m1_density(x, z, p1), rel=1e-9
            )
            assert m2_density(x + t, z + t, p2) == pytest.approx(
                m2_density(x, z, p2), rel=1e-9
            )
            if not np.allclose(x, z):
                assert nonres_density(x + t, z + t, pn) == pytest.approx(
                    nonres_density(x, z, pn), rel=1e-9
                )

    def test_normalization_random_draws(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            alpha = rng.uniform(0.5, 8.0)
            sigma = rng.uniform(0.3, 2.0)
            kernel = lambda x, y: np.exp(
                -((np.hypot(x, y) - alpha) ** 2) / (2.0 * sigma**2)
            )
            brute = polar_disc_integral(kernel, (0.0, 0.0), alpha + 10.0 * sigma, sigma)
            ratio = brute / ring_normal_normalizer(alpha, sigma)
            assert 0.998 <= ratio <= 1.002
