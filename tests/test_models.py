import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr

from geoprofile.geodesy import UtmPoint
from geoprofile.models import (
    M1Params,
    M2Params,
    NonResParams,
    angle_normalizer,
    m1_density,
    m2_density,
    ndtr,
    nonres_density,
    radial_normalizer,
    ring_normal_normalizer,
)
from oracles import cartesian_square_integral, polar_disc_integral

TWO_PI = 2.0 * math.pi


# below this, exp(-x^2 / 2) underflows and ndtr is exactly 0
UNDERFLOW_EDGE = -math.sqrt(2.0 * 7.09782712893383996843e2)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


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


class TestNdtr:
    """The numpy port against ``scipy.special.ndtr``, bit for bit."""

    @pytest.mark.parametrize("lo, hi", [(-3000.0, 3000.0), (-40.0, 40.0), (-9.0, 9.0), (-1.5, 1.5)])
    def test_seeded_sweep_bit_equal(self, lo, hi):
        values = np.random.default_rng(19).uniform(lo, hi, 200_000)
        np.testing.assert_array_equal(_bits(ndtr(values)), _bits(scipy_ndtr(values)))

    def test_edge_values_bit_equal(self):
        # Cephes branches at |a| / sqrt(2) = 1 and 8, so a = sqrt(2) and
        # 8 sqrt(2) are taken with their neighbours; also signed zeros,
        # infinities and the smallest subnormals. filterwarnings = error
        # makes any warning on inf or NaN fail here
        r2 = math.sqrt(2.0)
        edges = [0.0, 1.0 / r2, 1.0, r2, 8.0 / r2, math.inf, 5e-324]
        for branch in (r2, 8.0 * r2):
            edges += [np.nextafter(branch, 0.0), branch, np.nextafter(branch, math.inf)]
        values = np.array([v for e in edges for v in (e, -e)])
        assert np.signbit(values[1]) and not np.signbit(values[0])
        np.testing.assert_array_equal(_bits(ndtr(values)), _bits(scipy_ndtr(values)))
        assert ndtr(-math.inf) == 0.0 and ndtr(math.inf) == 1.0
        assert math.isnan(ndtr(math.nan))
        assert np.isnan(ndtr(np.array([math.nan, 1.0]))[0])

    def test_underflow_edge(self):
        below = np.nextafter(UNDERFLOW_EDGE, -math.inf)
        steps = np.random.default_rng(23).uniform(-1e-3, 1e-3, 20_000)
        values = np.concatenate([[below, UNDERFLOW_EDGE], UNDERFLOW_EDGE + steps])
        got = ndtr(values)
        np.testing.assert_array_equal(_bits(got), _bits(scipy_ndtr(values)))
        assert np.all(got[values < UNDERFLOW_EDGE] == 0.0)
        assert np.all(got[values > UNDERFLOW_EDGE + 1e-9] > 0.0)

    @pytest.mark.parametrize(
        "value",
        [0.3, -2.0, np.float64(9.0), np.array(-40.0), [1.0, -1.0], np.zeros((2, 3)),
         np.full((4, 1, 2), -5.0), np.zeros(0), np.zeros((3, 0))],
        ids=["float", "negative float", "np.float64", "0-d array", "list", "2-d",
             "3-d", "empty", "empty 2-d"],
    )
    def test_shape_like_the_ufunc(self, value):
        got, want = ndtr(value), scipy_ndtr(value)
        assert type(got) is type(want)
        assert got.ndim == want.ndim and np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_not_contiguous(self):
        values = np.random.default_rng(29).uniform(-30.0, 30.0, (64, 64))[::3, ::-2]
        np.testing.assert_array_equal(_bits(ndtr(values)), _bits(scipy_ndtr(values)))


class TestNdtrAccuracy:
    """Relative error against mpmath. The port repeats Cephes' rounding, so
    it inherits Cephes' accuracy: each bound is at most twice the largest
    error that scipy's ndtr makes on the same seeded points (2.84e-14 at
    x = -20, 1.96e-13 on [-37, -8], 7.5e-15 on [-8, 40])."""

    BANDS = [
        ("x = -20", None, 5e-14),
        ("[-37, -8]", (-37.0, -8.0), 3.5e-13),
        ("[-8, 40]", (-8.0, 40.0), 1.5e-14),
    ]

    @pytest.mark.parametrize("band, span, bound", BANDS, ids=[b[0] for b in BANDS])
    def test_relative_error(self, band, span, bound):
        points = [-20.0] if span is None else np.random.default_rng(7).uniform(*span, 300)
        got = ndtr(points)
        with mpmath.workdps(40):
            exact = [mpmath.ncdf(mpmath.mpf(float(x))) for x in points]
            worst = max(abs(mpmath.mpf(float(g)) / e - 1) for g, e in zip(got, exact))
        assert float(worst) <= bound

    def test_zero_below_underflow_edge(self):
        values = np.random.default_rng(31).uniform(-3000.0, UNDERFLOW_EDGE, 10_000)
        values = values[values < UNDERFLOW_EDGE]
        assert np.all(ndtr(values) == 0.0)


class TestNormalizerChecks:
    """Non-finite values and spreads <= 0 are rejected the same way by all
    three normalizers; theta need only be finite."""

    @pytest.mark.parametrize("fn", [ring_normal_normalizer, radial_normalizer],
                             ids=["ring", "radial"])
    @pytest.mark.parametrize(
        "alpha, sigma, name",
        [
            (math.nan, 1.0, "alpha"),
            (math.inf, 1.0, "alpha"),
            (-1.0, 1.0, "alpha"),
            (0.0, 1.0, "alpha"),
            (2.0, math.nan, "sigma"),
            (2.0, -math.inf, "sigma"),
            (2.0, 0.0, "sigma"),
            (2.0, -0.5, "sigma"),
            (np.array([1.0, math.nan]), np.array([0.5, 0.5]), "alpha"),
            (np.array([1.0, 2.0]), np.array([0.5, 0.0]), "sigma"),
        ],
    )
    def test_distance_normalizers_reject(self, fn, alpha, sigma, name):
        with pytest.raises(ValueError, match=f"^{name}"):
            fn(alpha, sigma)

    @pytest.mark.parametrize(
        "theta, sigma2, name",
        [
            (math.nan, 0.5, "theta"),
            (math.inf, 0.5, "theta"),
            (-math.inf, 0.5, "theta"),
            (1.0, math.nan, "sigma2"),
            (1.0, math.inf, "sigma2"),
            (1.0, 0.0, "sigma2"),
            (1.0, -0.5, "sigma2"),
            (np.array([0.0, math.nan]), np.array([0.5, 0.5]), "theta"),
        ],
    )
    def test_angle_normalizer_rejects(self, theta, sigma2, name):
        with pytest.raises(ValueError, match=f"^{name}"):
            angle_normalizer(theta, sigma2)

    def test_negative_alpha_no_longer_passes(self):
        # it used to return a positive value without complaint
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            radial_normalizer(-1, 1)

    def test_any_finite_theta_is_accepted(self):
        for theta in (0.0, -0.0, -1.0, TWO_PI, 10.0):
            assert angle_normalizer(theta, 0.5) > 0.0


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
                * (1.0 - scipy_ndtr(-alpha / sigma))
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
            * (scipy_ndtr(math.pi / sigma2) - scipy_ndtr(-math.pi / sigma2))
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
