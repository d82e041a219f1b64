import math
import re

import numpy as np
import pytest

from geoprofile.engine import PosteriorSurface
from geoprofile.geodesy import OutOfRangeError, UtmPoint
from geoprofile.grid import Grid, OutOfGridError, cell_center, locate_cell
from geoprofile.priors import AnchorPrior


@pytest.fixture
def default_grid():
    return Grid()


class TestGeometry:
    def test_default_dimensions(self, default_grid):
        assert default_grid.dx == pytest.approx(1.0)
        assert default_grid.dy == pytest.approx(1.0)
        assert default_grid.ncells == 7000

    def test_corner_centers(self, default_grid):
        assert cell_center(default_grid, 0, 0) == UtmPoint(18, 300.5, 4330.5)
        assert cell_center(default_grid, 69, 99) == UtmPoint(18, 399.5, 4399.5)

    def test_center_index_rejected(self, default_grid):
        with pytest.raises(OutOfGridError):
            cell_center(default_grid, 70, 0)
        with pytest.raises(OutOfGridError):
            cell_center(default_grid, 0, -1)

    def test_centers_row_major(self, default_grid):
        centers = default_grid.centers
        assert centers.shape == (7000, 2)
        # cell (row, col) lives at flat index row * ncols + col
        row, col = 3, 17
        k = row * default_grid.ncols + col
        p = cell_center(default_grid, row, col)
        assert tuple(centers[k]) == (p.easting, p.northing)

    @pytest.mark.parametrize(
        "grid",
        [Grid(), Grid(west=310.0, east=317.5, south=4327.0, north=4332.2, nrows=13, ncols=6)],
        ids=["default", "non-square"],
    )
    def test_cell_center_is_centers_row(self, grid):
        assert grid.east_centers.shape == (grid.ncols,)
        assert grid.north_centers.shape == (grid.nrows,)
        for row in range(grid.nrows):
            for col in range(grid.ncols):
                p = cell_center(grid, row, col)
                e, n = grid.centers[row * grid.ncols + col]
                assert (p.easting, p.northing) == (e, n)


class TestLocateCell:
    def test_lower_corner(self, default_grid):
        assert locate_cell(default_grid, UtmPoint(18, 300.0, 4330.0)) == (0, 0)

    def test_interior_boundary_goes_right(self, default_grid):
        assert locate_cell(default_grid, UtmPoint(18, 301.0, 4330.0)) == (0, 1)

    def test_outer_edges_belong_to_last_cell(self, default_grid):
        assert locate_cell(default_grid, UtmPoint(18, 400.0, 4400.0)) == (69, 99)

    def test_outside_rejected(self, default_grid):
        with pytest.raises(OutOfGridError):
            locate_cell(default_grid, UtmPoint(18, 299.9, 4330.0))

    def test_roundtrip_center(self, default_grid):
        for row, col in [(0, 0), (34, 56), (69, 99)]:
            assert locate_cell(default_grid, cell_center(default_grid, row, col)) == (
                row,
                col,
            )


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        Grid(west=10.0, east=5.0)
    with pytest.raises(ValueError):
        Grid(nrows=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bound", ["west", "east", "south", "north"])
def test_non_finite_bounds_rejected(bound, value):
    with pytest.raises(ValueError, match="^grid bounds must be finite$"):
        Grid(**{bound: value})


@pytest.mark.parametrize(
    "bounds, message",
    [
        # the first corner center is (300.5, -19.5)
        ({"south": -20.0, "north": 50.0}, "northing -19.5 km outside [0, 10000)"),
        # the first is (995.5, 4330.5), the last (1004.5, 4399.5)
        ({"west": 995.0, "east": 1005.0, "ncols": 10}, "easting 1004.5 km outside (0, 1000)"),
    ],
    ids=["first-corner", "last-corner"],
)
def test_center_outside_utm_ranges_rejected(bounds, message):
    with pytest.raises(OutOfRangeError, match=re.escape(message)):
        Grid(**bounds)


def test_point_in_another_zone_rejected():
    # its coordinates are zone 18's frame, not the grid's
    with pytest.raises(ValueError, match="^point is in zone 18, not the grid zone 17$"):
        locate_cell(Grid(zone=17), UtmPoint(18, 350.0, 4360.0))


def _uniform_with(cells):
    """Uniform mass on a 2 x 3 grid, then the given (row, col) values."""
    mass = np.full((2, 3), 1.0 / 6.0)
    for (row, col), value in cells.items():
        mass[row, col] = value
    return mass


class TestCellMass:
    """``AnchorPrior`` and ``PosteriorSurface`` take only a normalised
    (nrows, ncols) mass, each naming its own field in the error."""

    GRID = Grid(west=0.0, east=3.0, south=0.0, north=2.0, nrows=2, ncols=3)

    @pytest.mark.parametrize("make, name", [(PosteriorSurface, "mass"), (AnchorPrior, "weights")])
    @pytest.mark.parametrize(
        "mass, message",
        [
            (np.full((3, 2), 1.0 / 6.0), "must be shaped"),
            (_uniform_with({(0, 0): math.nan}), "must be finite and nonnegative"),
            (_uniform_with({(1, 2): math.inf}), "must be finite and nonnegative"),
            (_uniform_with({(0, 0): -1.0 / 6.0, (0, 1): 0.5}), "must be finite and nonnegative"),
            (np.full((2, 3), 0.2), "must sum to 1, got 1.2"),
        ],
        ids=["shape", "NaN", "inf", "negative", "sum"],
    )
    def test_rejected(self, make, name, mass, message):
        with pytest.raises(ValueError, match=f"^{name} {message}"):
            make(self.GRID, mass)

    @pytest.mark.parametrize("make", [PosteriorSurface, AnchorPrior])
    def test_accepted(self, make):
        mass = _uniform_with({(0, 0): 0.0, (0, 1): 2.0 / 6.0 + 1e-10})
        assert make(self.GRID, mass).grid == self.GRID
