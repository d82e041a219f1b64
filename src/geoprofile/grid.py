"""Jurisdiction grid: a km-aligned rectangle split into equal cells.

Default geometry covers the study jurisdiction: a 100 km x 70 km UTM
rectangle (easting 300-400, northing 4330-4400, zone 18) as a 70 x 100
mesh of 1 km cells. Row 0 sits at the southern edge; cells are half-open
except that the outer east/north edges belong to the last cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from geoprofile.geodesy import OutOfRangeError, UtmPoint, check_zone

__all__ = [
    "DEFAULT_ZONE",
    "Grid",
    "OutOfGridError",
    "cell_center",
    "check_cell_mass",
    "check_grid_zone",
    "locate_cell",
]

DEFAULT_ZONE = 18


class OutOfGridError(ValueError):
    """A point or index falls outside the grid."""


@dataclass(frozen=True)
class Grid:
    west: float = 300.0
    east: float = 400.0
    south: float = 4330.0
    north: float = 4400.0
    nrows: int = 70
    ncols: int = 100
    zone: int = DEFAULT_ZONE

    def __post_init__(self) -> None:
        bounds = (self.west, self.east, self.south, self.north)
        if not all(math.isfinite(bound) for bound in bounds):
            raise ValueError("grid bounds must be finite")
        if not (self.east > self.west and self.north > self.south):
            raise ValueError("grid bounds must have positive extent")
        if self.nrows < 1 or self.ncols < 1:
            raise ValueError("grid needs at least one row and column")
        check_zone(self.zone, "grid zone")
        # centers grow with row and column: the corner ones bound them all
        for row, col in ((0, 0), (self.nrows - 1, self.ncols - 1)):
            try:
                cell_center(self, row, col)
            except OutOfRangeError as exc:
                raise OutOfRangeError(
                    f"cell center (row {row}, col {col}) out of range: {exc}"
                ) from None

    @property
    def dx(self) -> float:
        return (self.east - self.west) / self.ncols

    @property
    def dy(self) -> float:
        return (self.north - self.south) / self.nrows

    @property
    def ncells(self) -> int:
        return self.nrows * self.ncols

    @cached_property
    def east_centers(self) -> np.ndarray:
        """(ncols,) easting of each column's cell centers, west to east."""
        return self.west + (np.arange(self.ncols) + 0.5) * self.dx

    @cached_property
    def north_centers(self) -> np.ndarray:
        """(nrows,) northing of each row's cell centers, south to north."""
        return self.south + (np.arange(self.nrows) + 0.5) * self.dy

    @cached_property
    def centers(self) -> np.ndarray:
        """(ncells, 2) cell-center coordinates in row-major order."""
        ee, nn = np.meshgrid(self.east_centers, self.north_centers)
        return np.column_stack([ee.ravel(), nn.ravel()])

    def contains(self, p: UtmPoint) -> bool:
        return (
            self.west <= p.easting <= self.east
            and self.south <= p.northing <= self.north
        )


def cell_center(grid: Grid, row: int, col: int) -> UtmPoint:
    """Center of the cell at (row, col); row 0 is the southern edge."""
    if not (0 <= row < grid.nrows and 0 <= col < grid.ncols):
        raise OutOfGridError(f"cell ({row}, {col}) outside {grid.nrows}x{grid.ncols}")
    return UtmPoint(
        zone=grid.zone,
        easting=float(grid.east_centers[col]),
        northing=float(grid.north_centers[row]),
    )


def check_grid_zone(grid: Grid, zone: int, name: str) -> None:
    """Raise ValueError, naming ``name``, unless ``zone``, the UTM zone of a
    series or a point, is the grid's: coordinates in another zone's frame
    are not the grid's."""
    if zone != grid.zone:
        raise ValueError(f"{name} is in zone {zone}, not the grid zone {grid.zone}")


def locate_cell(grid: Grid, p: UtmPoint) -> tuple[int, int]:
    """Cell containing a point; outer east/north edges belong to the last cell."""
    check_grid_zone(grid, p.zone, "point")
    if not grid.contains(p):
        raise OutOfGridError(
            f"point ({p.easting}, {p.northing}) outside grid bounds"
        )
    col = min(int(math.floor((p.easting - grid.west) / grid.dx)), grid.ncols - 1)
    row = min(int(math.floor((p.northing - grid.south) / grid.dy)), grid.nrows - 1)
    return row, col


def check_cell_mass(grid: Grid, mass: np.ndarray, name: str) -> None:
    """Raise ValueError, naming ``mass`` as ``name``, unless it is an
    (nrows, ncols) array of finite nonnegative values that sum to 1 within
    1e-9. A NaN fails the minimum's test and an infinity the sum's."""
    if mass.shape != (grid.nrows, grid.ncols):
        raise ValueError(f"{name} must be shaped (nrows, ncols)")
    total = float(mass.sum())
    if not (mass.min() >= 0.0 and math.isfinite(total)):
        raise ValueError(f"{name} must be finite and nonnegative")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {total}")
