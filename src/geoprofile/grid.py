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

from geoprofile.geodesy import UtmPoint

__all__ = ["DEFAULT_ZONE", "Grid", "OutOfGridError", "cell_center", "locate_cell"]

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
        if not (self.east > self.west and self.north > self.south):
            raise ValueError("grid bounds must have positive extent")
        if self.nrows < 1 or self.ncols < 1:
            raise ValueError("grid needs at least one row and column")

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
    def centers(self) -> np.ndarray:
        """(ncells, 2) cell-center coordinates in row-major order."""
        east = self.west + (np.arange(self.ncols) + 0.5) * self.dx
        north = self.south + (np.arange(self.nrows) + 0.5) * self.dy
        ee, nn = np.meshgrid(east, north)
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
        easting=grid.west + (col + 0.5) * grid.dx,
        northing=grid.south + (row + 0.5) * grid.dy,
    )


def locate_cell(grid: Grid, p: UtmPoint) -> tuple[int, int]:
    """Cell containing a point; outer east/north edges belong to the last cell."""
    if not grid.contains(p):
        raise OutOfGridError(
            f"point ({p.easting}, {p.northing}) outside grid bounds"
        )
    col = min(int(math.floor((p.easting - grid.west) / grid.dx)), grid.ncols - 1)
    row = min(int(math.floor((p.northing - grid.south) / grid.dy)), grid.nrows - 1)
    return row, col
