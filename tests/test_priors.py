import math

import numpy as np
import pytest
from scipy import stats as sps

from geoprofile.classify import SubtypeKind, SubtypeLabel
from geoprofile.dataset import CrimeSeries, Dataset
from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid
from geoprofile.priors import (
    InsufficientDataError,
    PriorKind,
    bounded_density_1d,
    build_prior_set,
    flat_anchor_prior,
    flat_param_prior,
    kde2d,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def small_grid():
    return Grid(west=0.0, east=20.0, south=0.0, north=20.0, nrows=20, ncols=20)


class TestKde2d:
    def test_mode_at_data_mass(self, small_grid):
        rng = np.random.default_rng(2)
        pts = np.array([[12.3, 7.7]] * 10) + rng.normal(0.0, 0.01, size=(10, 2))
        prior = kde2d(pts, small_grid)
        row, col = np.unravel_index(np.argmax(prior.weights), prior.weights.shape)
        # cell (row 7, col 12) contains (12.3, 7.7) on the 1 km mesh
        assert (row, col) == (7, 12)

    def test_symmetric_pair(self, small_grid):
        pts = np.array([[6.0, 6.0], [14.0, 14.0]])  # symmetric about center (10, 10)
        prior = kde2d(pts, small_grid, bandwidth=(2.0, 2.0))
        flipped = prior.weights[::-1, ::-1]
        np.testing.assert_allclose(prior.weights, flipped, atol=1e-12)

    def test_large_bandwidth_flattens(self, small_grid):
        xs = np.linspace(1.0, 19.0, 10)
        lattice = np.array([(x, y) for x in xs for y in xs])
        prior = kde2d(lattice, small_grid, bandwidth=(40.0, 40.0))
        assert prior.weights.max() / prior.weights.min() < 1.5

    def test_insertion_order_invariant(self, small_grid):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0.0, 20.0, size=(25, 2))
        a = kde2d(pts, small_grid)
        b = kde2d(pts[::-1], small_grid)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-15)

    def test_sum_is_one(self, small_grid):
        rng = np.random.default_rng(13)
        prior = kde2d(rng.uniform(0.0, 20.0, size=(30, 2)), small_grid)
        assert prior.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points(self, small_grid):
        with pytest.raises(InsufficientDataError):
            kde2d(np.array([[1.0, 1.0]]), small_grid)

    def test_accepts_utm_points(self, small_grid):
        pts = [UtmPoint(18, 5.0, 5.0), UtmPoint(18, 6.0, 6.0), UtmPoint(18, 7.0, 5.5)]
        prior = kde2d(pts, small_grid)
        assert prior.weights.sum() == pytest.approx(1.0)


class TestBoundedDensity1d:
    def test_degenerate_samples_unimodal_near_value(self):
        prior = bounded_density_1d([4.0, 4.0, 4.0, 4.0], 0.0, 150.0)
        mode = prior.nodes[np.argmax(prior.density)]
        assert abs(mode - 4.0) < 1.0

    def test_zero_below_support(self):
        rng = np.random.default_rng(3)
        prior = bounded_density_1d(rng.exponential(1.0, size=200), 0.0, 150.0)
        assert prior.pdf(-0.1) == 0.0
        assert prior.pdf(200.0) == 0.0

    def test_gamma_ks_distance(self):
        rng = np.random.default_rng(42)
        samples = rng.gamma(2.0, 1.0, size=1000)
        prior = bounded_density_1d(samples, 0.0, 150.0)
        xs = np.linspace(0.0, 15.0, 2000)
        ks = np.max(np.abs(prior.cdf(xs) - sps.gamma.cdf(xs, a=2.0, scale=1.0)))
        assert ks < 0.08

    def test_integrates_to_one(self):
        rng = np.random.default_rng(8)
        prior = bounded_density_1d(rng.uniform(1.0, 10.0, size=50), 0.0, 150.0)
        assert np.trapezoid(prior.density, prior.nodes) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            bounded_density_1d([1.0, 2.0], 0.0, 10.0)

    def test_quantile_cdf_inverse(self):
        rng = np.random.default_rng(10)
        prior = bounded_density_1d(rng.normal(5.0, 1.0, size=300), 0.0, 150.0)
        for q in [0.05, 0.25, 0.5, 0.75, 0.95]:
            assert prior.cdf(prior.quantile(q)) == pytest.approx(q, abs=1e-3)


def _series(offender_id, anchor_xy, site_offsets):
    anchor = UtmPoint(18, *anchor_xy)
    sites = tuple(
        UtmPoint(18, anchor_xy[0] + dx, anchor_xy[1] + dy) for dx, dy in site_offsets
    )
    return CrimeSeries(offender_id, sites, anchor)


def _population(rng, n_offenders=12):
    """Mixed donors: tight residents, ring residents, far commuters."""
    series, labels = [], {}
    for i in range(n_offenders):
        kind = ("m1", "m2", "nonres")[i % 3]
        anchor = rng.uniform(320.0, 380.0, size=2), rng.uniform(4340.0, 4390.0, size=1)
        anchor_xy = (float(anchor[0][0]), float(4340.0 + rng.uniform(0.0, 50.0)))
        if kind == "m1":
            offsets = rng.normal(0.0, 0.8, size=(5, 2))
            labels[f"o{i}"] = SubtypeLabel(SubtypeKind.M1)
        elif kind == "m2":
            ang = rng.uniform(0.5 * math.pi, math.pi, size=6)
            rad = rng.normal(5.0, 1.0, size=6).clip(2.0)
            offsets = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
            labels[f"o{i}"] = SubtypeLabel(SubtypeKind.M2)
        else:
            ang = rng.normal(0.25 * math.pi, 0.2, size=5)
            rad = rng.normal(18.0, 2.0, size=5).clip(12.0)
            offsets = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
            labels[f"o{i}"] = SubtypeLabel(SubtypeKind.M2)
        series.append(_series(f"o{i}", anchor_xy, offsets))
    return Dataset(tuple(series)), labels


class TestBuildPriorSet:
    def test_counts_and_kinds(self):
        rng = np.random.default_rng(77)
        ds, labels = _population(rng)
        priors = build_prior_set(ds, "o0", labels, Grid())
        assert priors.source_offender_count == len(ds.series) - 1
        for kind in PriorKind:
            assert priors[kind].lo == SUPPORTS_LO[kind]

    def test_angle_support(self):
        rng = np.random.default_rng(78)
        ds, labels = _population(rng)
        priors = build_prior_set(ds, "o1", labels, Grid())
        for kind in (PriorKind.ANGLE_M2, PriorKind.ANGLE_NONRES):
            assert priors[kind].lo == 0.0
            assert priors[kind].hi == pytest.approx(TWO_PI)

    def test_m2_angle_mass_where_donors_point(self):
        # ring donors above aim between pi/2 and pi
        rng = np.random.default_rng(79)
        ds, labels = _population(rng, n_offenders=18)
        priors = build_prior_set(ds, "o0", labels, Grid())
        prior = priors[PriorKind.ANGLE_M2]
        quarter = lambda k: prior.cdf((k + 1) * math.pi / 2) - prior.cdf(k * math.pi / 2)
        masses = [quarter(k) for k in range(4)]
        assert masses[1] == max(masses)

    def test_excluded_offender_ignored(self):
        rng = np.random.default_rng(80)
        ds, labels = _population(rng)
        # moving the excluded offender's sites must not change the priors
        priors_a = build_prior_set(ds, "o2", labels, Grid())
        moved = []
        for s in ds.series:
            if s.offender_id == "o2":
                sites = tuple(
                    UtmPoint(18, p.easting + 15.0, p.northing - 10.0) for p in s.sites
                )
                moved.append(CrimeSeries("o2", sites, s.anchor))
            else:
                moved.append(s)
        priors_b = build_prior_set(Dataset(tuple(moved)), "o2", labels, Grid())
        np.testing.assert_array_equal(priors_a.anchor.weights, priors_b.anchor.weights)
        np.testing.assert_array_equal(
            priors_a[PriorKind.DISTANCE_M2].density,
            priors_b[PriorKind.DISTANCE_M2].density,
        )

    def test_flat_fallback_on_empty_pool(self, caplog):
        # all donors tight residents: no non-resident and no ring donors
        rng = np.random.default_rng(81)
        series, labels = [], {}
        for i in range(6):
            offsets = rng.normal(0.0, 0.7, size=(5, 2))
            series.append(_series(f"t{i}", (350.0 + i, 4360.0), offsets))
            labels[f"t{i}"] = SubtypeLabel(SubtypeKind.M1)
        ds = Dataset(tuple(series))
        with caplog.at_level("WARNING"):
            priors = build_prior_set(ds, "t0", labels, Grid())
        flat = flat_param_prior(PriorKind.DISTANCE_NONRES)
        np.testing.assert_allclose(priors[PriorKind.DISTANCE_NONRES].density, flat.density)
        assert "falling back to flat" in caplog.text

    def test_rejects_tiny_dataset(self):
        rng = np.random.default_rng(82)
        ds, labels = _population(rng, n_offenders=2)
        with pytest.raises(InsufficientDataError):
            build_prior_set(ds, "o0", labels, Grid())


SUPPORTS_LO = {
    PriorKind.DISTANCE_M1: 0.0,
    PriorKind.DISTANCE_M2: 0.0,
    PriorKind.DISTANCE_NONRES: 0.0,
    PriorKind.ANGLE_M2: 0.0,
    PriorKind.ANGLE_NONRES: 0.0,
    PriorKind.SPREAD_RADIAL: 0.05,
    PriorKind.SPREAD_ANGULAR: 0.02,
}


def test_flat_anchor_prior_uniform():
    grid = Grid()
    prior = flat_anchor_prior(grid)
    assert prior.weights.sum() == pytest.approx(1.0)
    assert prior.weights.min() == prior.weights.max()
