import pytest

from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid, OutOfGridError, cell_center, locate_cell


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
