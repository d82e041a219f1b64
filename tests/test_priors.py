import math

import numpy as np
import pytest
from scipy import stats as sps

from geoprofile.classify import SubtypeKind, SubtypeLabel
from geoprofile.dataset import CrimeSeries, Dataset, UnknownOffenderError
from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid
from geoprofile.priors import (
    PRIORS,
    InsufficientDataError,
    PriorKind,
    bounded_density_1d,
    build_prior_set,
    flat_anchor_prior,
    flat_param_prior,
    is_nonresident,
    kde2d,
)
from oracles import density_1d_direct, donor_stats_direct, kde2d_direct

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
        prior = kde2d(pts, small_grid)
        flipped = prior.weights[::-1, ::-1]
        np.testing.assert_allclose(prior.weights, flipped, atol=1e-12)

    def test_large_bandwidth_flattens(self, small_grid):
        # donors spread far past the 20 km grid: Silverman's rule gives a
        # bandwidth of about 128 km
        xs = np.linspace(-400.0, 420.0, 10)
        lattice = np.array([(x, y) for x in xs for y in xs])
        prior = kde2d(lattice, small_grid)
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

    def test_accepts_coordinate_pairs(self, small_grid):
        pts = [(5.0, 5.0), (6.0, 6.0), (7.0, 5.5)]
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
    sites = [(anchor_xy[0] + dx, anchor_xy[1] + dy) for dx, dy in site_offsets]
    return CrimeSeries(offender_id, sites, 18, anchor)


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
                moved.append(CrimeSeries("o2", s.xy + (15.0, -10.0), 18, s.anchor))
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
        # one warning names every flat kind with its donor sample count
        (record,) = caplog.records
        assert record.getMessage() == (
            "too few donor samples for 6 prior(s) (distance_m2: 0, distance_nonres: 0, "
            "angle_m2: 0, angle_nonres: 0, spread_radial: 0, spread_angular: 0); "
            "falling back to flat"
        )

    def test_rejects_tiny_dataset(self):
        rng = np.random.default_rng(82)
        ds, labels = _population(rng, n_offenders=2)
        with pytest.raises(InsufficientDataError):
            build_prior_set(ds, "o0", labels, Grid())

    def test_unknown_excluded_offender(self):
        rng = np.random.default_rng(83)
        ds, labels = _population(rng)
        with pytest.raises(UnknownOffenderError) as excinfo:
            build_prior_set(ds, "nope", labels, Grid())
        assert excinfo.value.args == ("unknown offender id 'nope'",)

    def test_donor_groups_route_statistics(self, monkeypatch):
        import geoprofile.priors as priors

        # residents of every subtype and two non-residents, one labelled M3
        m1 = SubtypeLabel(SubtypeKind.M1)
        m2 = SubtypeLabel(SubtypeKind.M2)
        m3 = SubtypeLabel(SubtypeKind.M3, (frozenset({0, 1}), frozenset({2, 3})))
        tight = ((0.5, 0.0), (0.0, 0.7), (-0.2, -0.3))
        ring = ((5.0, 0.0), (0.0, 4.0), (-6.0, 1.0), (1.0, -5.0))
        pairs = ((3.0, 0.0), (3.2, 0.3), (-4.0, 1.0), (-4.1, 1.2))
        far = ((18.0, 2.0), (15.0, 9.0), (17.0, -4.0), (20.0, 1.0))
        population = [  # id, anchor, site offsets, label
            ("x", (330.0, 4350.0), tight[::-1], m1),
            ("m2a", (340.0, 4360.0), ring, m2),
            ("m1", (350.0, 4350.0), tight, m1),
            ("m3", (360.0, 4370.0), pairs, m3),
            ("far_m3", (320.0, 4340.0), far, m3),
            ("m2b", (370.0, 4380.0), ring[::-1], m2),
            ("far_m2", (325.0, 4345.0), far[1:], m2),
        ]
        ds = Dataset(tuple(_series(oid, a, offsets) for oid, a, offsets, _ in population))
        labels = {oid: label for oid, _, _, label in population}
        calls = []
        density = priors.bounded_density_1d

        def record(values, lo, hi):
            calls.append(list(values))
            return density(values, lo, hi)

        monkeypatch.setattr(priors, "bounded_density_1d", record)
        built = build_prior_set(ds, "x", labels, Grid())
        # one call per kind, in the order of PRIORS
        samples = dict(zip(PRIORS, calls, strict=True))

        def stats(offsets):
            radii = [math.hypot(dx, dy) for dx, dy in offsets]
            angles = [math.atan2(dy, dx) % TWO_PI for dx, dy in offsets]
            return {
                "dist": sum(radii) / len(radii),
                "angle": sum(angles) / len(angles),
                "sr": float(np.std(radii, ddof=1)),
                "sa": float(np.std(angles, ddof=1)),
            }

        tight_s, m2a, m2b = stats(tight), stats(ring), stats(ring[::-1])
        far_m3, far_m2 = stats(far), stats(far[1:])
        expected = {  # donor order; the M3 resident feeds nothing
            PriorKind.DISTANCE_M1: [tight_s["dist"]],
            PriorKind.DISTANCE_M2: [m2a["dist"], m2b["dist"]],
            PriorKind.DISTANCE_NONRES: [far_m3["dist"], far_m2["dist"]],
            PriorKind.ANGLE_M2: [m2a["angle"], m2b["angle"]],
            PriorKind.ANGLE_NONRES: [far_m3["angle"], far_m2["angle"]],
            PriorKind.SPREAD_RADIAL: [m2a["sr"], far_m3["sr"], m2b["sr"], far_m2["sr"]],
            PriorKind.SPREAD_ANGULAR: [m2a["sa"], far_m3["sa"], m2b["sa"], far_m2["sa"]],
        }
        assert samples.keys() == expected.keys()
        for kind, values in expected.items():
            assert samples[kind] == pytest.approx(values, rel=1e-12), kind
        assert built.source_offender_count == 6


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


# dx = 0.945 km and dy = 1.098 km, from an origin on no round number
ODD_GRID = Grid(west=301.37, east=377.915, south=4331.21, north=4389.404, nrows=53, ncols=81)


class TestPlainFormulations:
    """The priors reproduce the plain formulations of ``oracles`` bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 299])
    @pytest.mark.parametrize("grid", [Grid(), ODD_GRID], ids=["default", "odd"])
    def test_kde2d(self, n, grid):
        # n runs across numpy's 8-way unroll and its 128-element pairwise
        # block, so a change in the order of a cell's row sum shows
        rng = np.random.default_rng(2000 + n)
        xy = rng.uniform((grid.west, grid.south), (grid.east, grid.north), size=(n, 2))
        np.testing.assert_array_equal(kde2d(xy, grid).weights, kde2d_direct(xy, grid))

    @pytest.mark.parametrize("grid", [Grid(), ODD_GRID], ids=["default", "odd"])
    def test_kde2d_tightly_packed(self, grid):
        # the bandwidth falls to its dx/2, dy/2 floor and most cells underflow
        rng = np.random.default_rng(2400)
        xy = np.array([[340.3, 4361.7]]) + rng.normal(0.0, 0.01, size=(40, 2))
        h = np.std(xy, axis=0, ddof=1) * len(xy) ** (-1.0 / 6.0)
        assert np.all(h < [grid.dx / 2.0, grid.dy / 2.0])
        weights = kde2d(xy, grid).weights
        assert np.count_nonzero(weights == 0.0) > grid.ncells // 2
        np.testing.assert_array_equal(weights, kde2d_direct(xy, grid))

    def test_kde2d_per_axis_bandwidth(self):
        # spreads of 12 and 1.5 km: each axis gets its own bandwidth, both
        # above their dx/2, dy/2 floors
        rng = np.random.default_rng(2401)
        xy = rng.normal((340.0, 4360.0), (12.0, 1.5), size=(50, 2))
        h = np.std(xy, axis=0, ddof=1) * len(xy) ** (-1.0 / 6.0)
        assert np.all(h > [ODD_GRID.dx / 2.0, ODD_GRID.dy / 2.0]) and h[0] > 5.0 * h[1]
        np.testing.assert_array_equal(kde2d(xy, ODD_GRID).weights, kde2d_direct(xy, ODD_GRID))

    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("n", [3, 8, 9, 40, 129, 299])
    def test_density_1d(self, kind, n):
        lo, hi = PRIORS[kind].support
        rng = np.random.default_rng(2500 + n)
        samples = rng.gamma(2.0, 0.1 * (hi - lo) / 2.0, size=n) + lo
        np.testing.assert_array_equal(
            bounded_density_1d(samples, lo, hi).density,
            density_1d_direct(samples, lo, hi),
        )

    def test_density_1d_underflow(self):
        # coincident samples put the bandwidth on its floor, so all but a
        # few nodes of each kernel underflow to exactly zero
        samples = [4.0, 4.0, 4.0, 4.0001, 140.0]
        density = bounded_density_1d(samples, 0.0, 150.0).density
        assert np.count_nonzero(density == 0.0) > 400
        np.testing.assert_array_equal(density, density_1d_direct(samples, 0.0, 150.0))

    def test_donor_statistics(self, monkeypatch):
        import geoprofile.priors as priors

        series, labels = _awkward_donors()
        calls = []
        density = priors.bounded_density_1d

        def record(values, lo, hi):
            calls.append(list(values))
            return density(values, lo, hi)

        monkeypatch.setattr(priors, "bounded_density_1d", record)
        built = build_prior_set(Dataset(tuple(series)), "x", labels, Grid())
        # one call per kind, in the order of PRIORS
        samples = dict(zip(PRIORS, calls, strict=True))

        donors = [s for s in series if s.offender_id != "x"]
        expected = {kind: [] for kind in PRIORS}
        for s in donors:
            stats = donor_stats_direct(s)
            group = labels[s.offender_id].kind.value if stats["resident"] else "NONRES"
            for kind, row in PRIORS.items():
                value = stats[row.statistic]
                if group in row.groups and value is not None:
                    expected[kind].append(value)
        assert samples == expected
        anchors = [(s.anchor.easting, s.anchor.northing) for s in donors]
        np.testing.assert_array_equal(built.anchor.weights, kde2d_direct(anchors, Grid()))
        assert [is_nonresident(s) for s in series] == [
            not donor_stats_direct(s)["resident"] for s in series
        ]


def _awkward_donors():
    """Donors with 1 to 130 sites, crimes on the anchor, exactly 10 km out
    and far away, labelled M1 and M2 in turn; "x" is left out."""
    rng = np.random.default_rng(2600)
    series, labels = [], {}
    counts = [1, 2, 3, 2, 1, *range(3, 131, 3), 128, 129, 130, 8, 9, 16]
    for i, n in enumerate(counts):
        # on a 1/64 km lattice, so a site 10 km south differs by exactly 10
        anchor = tuple(np.round(rng.uniform((320.0, 4340.0), (380.0, 4390.0)) * 64.0) / 64.0)
        radius = (1.5, 6.0, 18.0)[i % 3]
        ang = rng.uniform(0.0, TWO_PI, size=n)
        rad = rng.uniform(0.7, 1.3, size=n) * radius
        offsets = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        if i % 4 == 1:
            offsets[0] = 0.0  # a crime on the anchor has no bearing
        if i % 7 == 2:
            offsets[-1] = (0.0, -10.0)  # exactly NONRESIDENT_MIN_KM away
        oid = "x" if i == 5 else f"d{i}"
        series.append(_series(oid, anchor, offsets))
        labels[oid] = SubtypeLabel((SubtypeKind.M1, SubtypeKind.M2)[i % 2])
    # a lone site on the anchor: no bearing at all, so no angle statistics
    series.append(_series("on_anchor", (350.0, 4360.0), [(0.0, 0.0)]))
    labels["on_anchor"] = SubtypeLabel(SubtypeKind.M2)
    return series, labels
