import math

import numpy as np
import pytest
from scipy import stats as sps

from geoprofile.dataset import CSV_HEADER, UTM_CSV_HEADER, SchemaError, read_dataset
from geoprofile.engine import Family
from geoprofile import synthetic
from geoprofile.geodesy import OutOfRangeError, UtmPoint
from geoprofile.models import (
    M1Params,
    M2Params,
    NonResParams,
    ring_normal_normalizer,
)
from geoprofile.synthetic import (
    SyntheticScenario,
    _sample_angles_windowed,
    _sample_radii,
    sample_series,
    series_to_utm_csv,
)

ANCHOR = UtmPoint(18, 350.0, 4365.0)


class TestSampling:
    def test_m1_mean_distance(self):
        sc = SyntheticScenario(
            family=Family.M1,
            true_anchor=ANCHOR,
            true_params=M1Params(alpha=2.0),
            n=10_000,
            seed=1,
        )
        series = sample_series(sc)[0]
        d = series.xy - np.array([ANCHOR.easting, ANCHOR.northing])
        mean_dist = np.hypot(d[:, 0], d[:, 1]).mean()
        assert mean_dist == pytest.approx(2.0, rel=0.02)

    def test_m2_radii_match_exact_density(self):
        alpha, sigma = 5.0, 1.0
        sc = SyntheticScenario(
            family=Family.M2,
            true_anchor=ANCHOR,
            true_params=M2Params(alpha=alpha, sigma=sigma),
            n=4000,
            seed=42,
        )
        series = sample_series(sc)[0]
        d = series.xy - np.array([ANCHOR.easting, ANCHOR.northing])
        radii = np.hypot(d[:, 0], d[:, 1])

        # exact radius law: 2*pi*r*exp(-(r-alpha)^2/(2 sigma^2)) / N
        norm = ring_normal_normalizer(alpha, sigma)
        pdf = lambda r: 2.0 * math.pi * r * np.exp(
            -((r - alpha) ** 2) / (2.0 * sigma**2)
        ) / norm
        edges = np.linspace(alpha - 4.0 * sigma, alpha + 4.0 * sigma, 21)
        counts, _ = np.histogram(np.clip(radii, edges[0], edges[-1]), bins=edges)
        probs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            xs = np.linspace(lo, hi, 64)
            probs.append(np.trapezoid(pdf(xs), xs))
        probs = np.array(probs)
        # fold the tiny tails into the edge bins so totals match
        probs[0] += max(0.0, 1.0 - probs.sum())
        expected = probs / probs.sum() * counts.sum()
        stat = sps.chisquare(counts, expected)
        assert stat.pvalue > 0.01

    def test_nonres_tight_angle_spread(self):
        theta = math.pi / 4
        sc = SyntheticScenario(
            family=Family.NONRES,
            true_anchor=ANCHOR,
            true_params=NonResParams(alpha=15.0, sigma1=2.0, theta=theta, sigma2=0.02),
            n=50,
            seed=7,
        )
        series = sample_series(sc)[0]
        d = series.xy - np.array([ANCHOR.easting, ANCHOR.northing])
        angles = np.arctan2(d[:, 1], d[:, 0]) % (2.0 * math.pi)
        assert np.all(np.abs(angles - theta) < 0.1)

    def test_seed_determinism_bitwise(self):
        sc = SyntheticScenario(
            family=Family.M2,
            true_anchor=ANCHOR,
            true_params=M2Params(alpha=5.0, sigma=1.0),
            n=12,
            replicates=3,
            seed=99,
        )
        a = sample_series(sc)
        b = sample_series(sc)
        for sa, sb in zip(a, b):
            assert (sa.zone, sa.xy.tolist()) == (sb.zone, sb.xy.tolist())

    def test_replicates_differ(self):
        sc = SyntheticScenario(
            family=Family.M1,
            true_anchor=ANCHOR,
            true_params=M1Params(alpha=2.0),
            n=5,
            replicates=2,
            seed=3,
        )
        a, b = sample_series(sc)
        assert (a.zone, a.xy.tolist()) != (b.zone, b.xy.tolist())

    def test_site_outside_the_zone_raises(self):
        sc = SyntheticScenario(
            family=Family.M2,
            true_anchor=UtmPoint(18, 1.0, 4365.0),
            true_params=M2Params(alpha=5.0, sigma=1.0),
            n=12,
            seed=5,
        )
        with pytest.raises(OutOfRangeError, match=r"easting -.* km outside \(0, 1000\)"):
            sample_series(sc)

    @pytest.mark.parametrize(
        "sampler, name",
        [
            (lambda rng: _sample_radii(rng, 5.0, 1.0, 1000), "radial"),
            (lambda rng: _sample_angles_windowed(rng, 1.0, 0.5, 1000), "angle"),
        ],
    )
    def test_rejection_budget(self, monkeypatch, sampler, name):
        monkeypatch.setattr(synthetic, "MAX_REJECTION_DRAWS", 100)
        with pytest.raises(RuntimeError, match=f"^{name} rejection sampler exceeded 100 draws$"):
            sampler(np.random.default_rng(0))

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            SyntheticScenario(Family.M1, ANCHOR, M1Params(2.0), n=2)
        with pytest.raises(ValueError):
            SyntheticScenario(Family.M2, ANCHOR, M1Params(2.0), n=5)


class TestUtmCsv:
    def test_roundtrip(self):
        sc = SyntheticScenario(
            family=Family.M2,
            true_anchor=ANCHOR,
            true_params=M2Params(alpha=5.0, sigma=1.0),
            n=6,
            replicates=2,
            seed=11,
        )
        series = sample_series(sc)
        ds = read_dataset(series_to_utm_csv(series))
        assert ds.offender_ids() == [s.offender_id for s in series]
        for orig, back in zip(series, ds.series):
            assert (orig.zone, orig.xy.tolist()) == (back.zone, back.xy.tolist())
            assert orig.anchor == back.anchor

    def test_rejects_unknown_header(self):
        # the geographic columns followed by the planar ones, as `convert`
        # writes them, are neither layout
        with pytest.raises(SchemaError):
            read_dataset(",".join(CSV_HEADER + UTM_CSV_HEADER[3:]) + "\n")
