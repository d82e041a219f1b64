import math
import re
from dataclasses import replace

import numpy as np
import pytest

from geoprofile.dataset import CrimeSeries
from geoprofile.engine import DegenerateSurfaceError
from geoprofile.grid import Grid, cell_center
from geoprofile.rossmo import (
    RossmoParams,
    buffer_radius,
    hit_score_surface,
    rossmo_decay,
)
from oracles import hit_score_direct

GRID = Grid(west=330.0, east=370.0, south=4345.0, north=4380.0, nrows=35, ncols=40)


def _series(xy, offender="r"):
    return CrimeSeries(offender, xy, 18)


class TestBufferRadius:
    def test_mean_of_nn_distances(self):
        # Manhattan nn distances [2, 2, 4] -> b = 4/3
        series = _series([(340.0, 4350.0), (342.0, 4350.0), (346.0, 4350.0)])
        assert buffer_radius(series) == pytest.approx(4.0 / 3.0)

    def test_two_sites(self):
        series = _series([(340.0, 4350.0), (343.0, 4353.0)])
        assert buffer_radius(series) == pytest.approx(3.0)

    def test_manhattan_metric(self):
        # both nearest neighbours lie 3 + 4 = 7 km apart on the Manhattan metric
        series = _series([(0.0, 0.0), (3.0, 4.0)])
        assert buffer_radius(series) == 3.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        xy = rng.uniform(335.0, 365.0, size=(8, 2))
        series = _series(xy)
        nn = []
        for i in range(8):
            nn.append(
                min(
                    abs(xy[i, 0] - xy[j, 0]) + abs(xy[i, 1] - xy[j, 1])
                    for j in range(8)
                    if j != i
                )
            )
        assert buffer_radius(series) == pytest.approx(0.5 * np.mean(nn))

    def test_coincident_sites_rejected(self):
        series = _series([(340.0, 4350.0)] * 3)
        with pytest.raises(ValueError):
            buffer_radius(series)


class TestRossmoDecay:
    def test_continuous_at_buffer_edge(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = RossmoParams(
                b=rng.uniform(0.2, 5.0),
                g=rng.uniform(0.8, 2.0),
                h=rng.uniform(0.8, 2.0),
                k=rng.uniform(0.5, 3.0),
            )
            inside = p.k * p.b ** (p.g - p.h) / (2.0 * p.b - p.b) ** p.g
            outside = p.k / p.b**p.h
            assert abs(inside - outside) <= 1e-12
            assert rossmo_decay(p.b, p) == pytest.approx(outside, abs=1e-12)

    def test_at_origin(self):
        p = RossmoParams(b=1.0)
        assert rossmo_decay(0.0, p) == pytest.approx(1.0 / 2.0**1.2)

    def test_denormal_power_inside_buffer(self):
        # k / d**h overflows here; the buffer branch must replace it quietly
        p = RossmoParams(b=1.0)
        assert rossmo_decay(1e-262, p) == pytest.approx(1.0 / 2.0**1.2)

    def test_outside_buffer(self):
        p = RossmoParams(b=1.0)
        assert rossmo_decay(2.0, p) == pytest.approx(2.0**-1.2)

    def test_peaks_at_buffer_edge(self):
        p = RossmoParams(b=2.0)
        d = np.linspace(0.0, 10.0, 1001)
        scores = rossmo_decay(d, p)
        assert d[np.argmax(scores)] == pytest.approx(2.0)


    @pytest.mark.parametrize("d", [-0.5, math.nan, [1.0, math.nan], [2.0, -1.0]])
    def test_bad_distance_refused(self, d):
        with pytest.raises(ValueError, match="^distance must be >= 0$"):
            rossmo_decay(d, RossmoParams(b=1.0))

    def test_leaves_its_argument_unchanged(self):
        d = np.array([0.0, 0.5, 1.0, 3.0])
        rossmo_decay(d, RossmoParams(b=1.0))
        np.testing.assert_array_equal(d, [0.0, 0.5, 1.0, 3.0])

    @pytest.mark.parametrize(
        "view",
        [lambda a: a.T, lambda a: np.asfortranarray(a), lambda a: a[:, ::2]],
        ids=["transposed", "fortran", "strided"],
    )
    def test_any_memory_layout(self, view):
        # distances on both sides of b, in an array that is not C-contiguous
        d = np.linspace(0.0, 4.0, 24).reshape(4, 6)
        p = RossmoParams(b=1.5, g=1.3, h=0.9)
        np.testing.assert_array_equal(rossmo_decay(view(d), p), view(rossmo_decay(d, p)))


class TestRossmoParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", math.nan),
            ("k", math.inf),
            ("k", 0.0),
            ("g", math.nan),
            ("g", 0.0),
            ("h", math.inf),
            ("h", -1.0),
        ],
    )
    def test_bad_value_names_its_field(self, field, value):
        message = f"{field} must be finite and > 0, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RossmoParams(b=1.0, **{field: value})


class TestHitScoreSurface:
    def test_single_crime_peak_at_buffer_distance(self):
        site = cell_center(GRID, 17, 20)
        series = _series([(site.easting, site.northing)])
        surface = hit_score_surface(series, GRID, RossmoParams(b=1.0))
        row, col = np.unravel_index(np.argmax(surface.mass), surface.mass.shape)
        peak = cell_center(GRID, row, col)
        manhattan = abs(site.easting - peak.easting) + abs(site.northing - peak.northing)
        assert manhattan == pytest.approx(1.0)

    def test_k_scaling_preserves_ranking(self):
        rng = np.random.default_rng(44)
        series = _series(rng.uniform(340.0, 360.0, size=(6, 2)))
        b = buffer_radius(series)
        s1 = hit_score_surface(series, GRID, RossmoParams(b=b, k=1.0))
        s2 = hit_score_surface(series, GRID, RossmoParams(b=b, k=7.3))
        np.testing.assert_array_equal(
            np.argsort(-s1.mass.ravel(), kind="stable"),
            np.argsort(-s2.mass.ravel(), kind="stable"),
        )

    def test_additive_over_crimes(self):
        a, bb = (344.0, 4352.0), (356.0, 4368.0)
        p = RossmoParams(b=1.5)
        both = hit_score_surface(_series([a, bb]), GRID, p)
        only_a = hit_score_surface(_series([a]), GRID, p)
        only_b = hit_score_surface(_series([bb]), GRID, p)
        # normalization divides by the total, so compare unnormalized sums
        raw_both = both.mass * _raw_total(_series([a, bb]), p)
        raw_a = only_a.mass * _raw_total(_series([a]), p)
        raw_b = only_b.mass * _raw_total(_series([bb]), p)
        np.testing.assert_allclose(raw_both, raw_a + raw_b, rtol=1e-12)

    def test_crime_on_cell_center_finite(self):
        site = cell_center(GRID, 5, 5)
        series = _series([(site.easting, site.northing), (350.0, 4360.0)])
        surface = hit_score_surface(series, GRID)
        assert np.all(np.isfinite(surface.mass))

    def test_underflowed_buffer_is_degenerate(self):
        # crimes 1e-300 km apart, one on the only cell center: every decay
        # score divides by a power that underflows to 0, quietly
        series = _series([(500.0, y) for y in (0.0, 1e-300, 2e-300)])
        grid = Grid(west=499.5, east=500.5, south=-0.5, north=0.5, nrows=1, ncols=1)
        with pytest.raises(DegenerateSurfaceError, match="hit scores sum to inf"):
            hit_score_surface(series, grid)

    def test_series_in_another_zone(self):
        series = _series([(340.0, 4350.0), (342.0, 4350.0), (346.0, 4350.0)])
        with pytest.raises(ValueError, match="^offender 'r' is in zone 18, not the grid zone 17$"):
            hit_score_surface(series, replace(GRID, zone=17))

    def test_coincident_fallback_warns(self, caplog):
        series = _series([(350.0, 4360.0)] * 4)
        with caplog.at_level("WARNING"):
            surface = hit_score_surface(series, GRID)
        assert "falls back" in caplog.text
        assert np.all(np.isfinite(surface.mass))


class TestBitIdentity:
    """``hit_score_surface`` reproduces the plain formulation bit for bit."""

    @pytest.mark.parametrize(
        "n", [*range(2, 18), 33, 127, 128, 129, 255, 256, 300]
    )
    def test_random_series(self, n):
        # n runs across numpy's summation blocks (sequential below 8, eight
        # accumulators up to 128, halves above), so a change in the order of
        # a cell's row sum shows
        rng = np.random.default_rng(1000 + n)
        series = _series(rng.uniform((332.0, 4347.0), (368.0, 4378.0), size=(n, 2)))
        params = RossmoParams(b=buffer_radius(series))
        np.testing.assert_array_equal(
            hit_score_surface(series, GRID).mass,
            hit_score_direct(series, GRID, params),
        )

    def test_single_crime(self):
        series = _series([(351.7, 4362.2)])
        params = RossmoParams(b=1.3)
        np.testing.assert_array_equal(
            hit_score_surface(series, GRID, params).mass,
            hit_score_direct(series, GRID, params),
        )

    def test_crime_on_cell_center(self):
        site = cell_center(GRID, 12, 30)
        series = _series([(site.easting, site.northing), (341.3, 4361.7), (352.9, 4370.2)])
        assert np.any(np.all(GRID.centers == series.xy[0], axis=1))
        params = RossmoParams(b=buffer_radius(series))
        np.testing.assert_array_equal(
            hit_score_surface(series, GRID).mass,
            hit_score_direct(series, GRID, params),
        )

    def test_cell_at_buffer_edge(self):
        # cells exactly d == b from the first crime (two cells away on a
        # 1 km grid, three for the single crime); with g != h the two
        # branches differ in the last bit there, so the branch taken shows
        for row, col, others, params in [
            (20, 10, [(355.2, 4350.8)], RossmoParams(b=2.0, g=1.5, h=1.1)),
            (7, 33, [], RossmoParams(b=3.0, g=0.9, h=1.7)),
        ]:
            site = cell_center(GRID, row, col)
            series = _series([(site.easting, site.northing), *others])
            d = np.abs(GRID.centers - series.xy[0]).sum(axis=1)
            assert np.count_nonzero(d == params.b) == 4 * params.b
            assert params.k / params.b**params.h != rossmo_decay(params.b, params)
            np.testing.assert_array_equal(
                hit_score_surface(series, GRID, params).mass,
                hit_score_direct(series, GRID, params),
            )

    @pytest.mark.parametrize(
        "xy, grid",
        [
            ([(326.4, 4352.3), (328.1, 4371.9), (324.0, 4360.5)], GRID),
            ([(373.2, 4350.6), (371.5, 4366.2), (376.9, 4347.1)], GRID),
            ([(341.7, 4341.2), (362.4, 4343.9), (350.3, 4338.0)], GRID),
            ([(338.8, 4383.3), (357.1, 4385.6), (366.6, 4381.4)], GRID),
            (
                np.random.default_rng(78).uniform((331.0, 4346.0), (369.0, 4379.0), size=(7, 2)),
                Grid(west=330.0, east=370.0, south=4345.0, north=4380.0, nrows=14, ncols=32),
            ),
            (
                # one crime on a row of cell centers, one on a column of
                # them, one on both lines: whole rows or columns of offsets
                # are 0
                [
                    (343.2, GRID.north_centers[9]),
                    (GRID.east_centers[27], 4371.8),
                    (GRID.east_centers[27], GRID.north_centers[9]),
                ],
                GRID,
            ),
        ],
        ids=["west", "east", "south", "north", "cells-not-square", "center-lines"],
    )
    def test_awkward_geometry(self, xy, grid):
        # beside the grid, every cell lies on one side of each crime
        series = _series(xy)
        params = RossmoParams(b=buffer_radius(series))
        np.testing.assert_array_equal(
            hit_score_surface(series, grid).mass,
            hit_score_direct(series, grid, params),
        )

    def test_non_default_exponents_and_scale(self):
        rng = np.random.default_rng(77)
        series = _series(rng.uniform((335.0, 4350.0), (365.0, 4375.0), size=(11, 2)))
        params = RossmoParams(b=2.3, g=1.7, h=0.8, k=3.5)
        np.testing.assert_array_equal(
            hit_score_surface(series, GRID, params).mass,
            hit_score_direct(series, GRID, params),
        )

    def test_coincident_fallback(self, caplog):
        series = _series([(350.0, 4360.0)] * 9)
        with caplog.at_level("WARNING"):
            got = hit_score_surface(series, GRID).mass
        params = RossmoParams(b=0.5 * math.hypot(GRID.dx, GRID.dy))
        np.testing.assert_array_equal(got, hit_score_direct(series, GRID, params))


def _raw_total(series, params):
    """Unnormalized hit-score total, recomputed independently."""
    total = 0.0
    for center in GRID.centers:
        for site in series.xy:
            d = abs(center[0] - site[0]) + abs(center[1] - site[1])
            total += rossmo_decay(float(d), params)
    return total
