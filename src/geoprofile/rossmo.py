"""Distance-decay hit-score baseline on the Manhattan metric.

Scores every grid cell as a sum over crime sites of a two-branch decay
kernel: rising toward the buffer edge from inside, falling off as a power
law outside. The buffer radius defaults to half the mean nearest-neighbour
distance between the series' crimes. Only the cell ranking matters
downstream; surfaces are normalized to probability scale purely so they
flow through the same evaluation code as the posterior surfaces.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from geoprofile.dataset import CrimeSeries
from geoprofile.engine import DegenerateSurfaceError, PosteriorSurface, _pairwise_sum
from geoprofile.grid import Grid, check_grid_zone

__all__ = [
    "RossmoParams",
    "buffer_radius",
    "rossmo_decay",
    "hit_score_surface",
]

logger = logging.getLogger(__name__)

DEFAULT_EXPONENT = 1.2


@dataclass(frozen=True)
class RossmoParams:
    """Decay-kernel parameters: buffer radius b (km), exponents, scale."""

    b: float
    g: float = DEFAULT_EXPONENT
    h: float = DEFAULT_EXPONENT
    k: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"buffer radius must be > 0, got {self.b}")
        for name in ("g", "h", "k"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def buffer_radius(series: CrimeSeries) -> float:
    """Half the mean Manhattan nearest-neighbour distance between crimes."""
    if series.n < 2:
        raise ValueError("buffer radius needs at least 2 crime sites")
    xy = series.xy
    d = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=-1)
    np.fill_diagonal(d, np.inf)
    b = 0.5 * float(d.min(axis=-1).mean())
    if b <= 0.0:
        raise ValueError("all crime sites coincide; buffer radius would be 0")
    return b


def rossmo_decay(d, p: RossmoParams):
    """Two-branch decay score at distance d; continuous at d = b."""
    # a C-ordered copy, so the kernel's flat view is d_arr itself
    d_arr = np.array(d, dtype=float, order="C")
    # NaN fails this test too
    if not np.all(d_arr >= 0.0):
        raise ValueError("distance must be >= 0")
    out = _decay_in_place(d_arr, p)
    return float(out) if out.ndim == 0 else out


def _decay_in_place(d: np.ndarray, p: RossmoParams) -> np.ndarray:
    """Overwrite d, a C-contiguous float array of distances >= 0, with the
    decay score at each distance, and return it."""
    flat = d.reshape(-1)
    near = np.flatnonzero(flat <= p.b)
    d_near = flat[near]
    # the far branch everywhere, then the few distances inside the buffer
    # patched over it; either may divide by zero (a crime on a cell center,
    # a power that underflows) or overflow (a denormal power), which leaves
    # inf for the caller to judge. ``**=`` takes the same scalar-exponent
    # route as ``**``, so the bits match the plain formulation's.
    with np.errstate(divide="ignore", over="ignore"):
        flat **= p.h
        np.divide(p.k, flat, out=flat)
        flat[near] = p.k * p.b ** (p.g - p.h) / (2.0 * p.b - d_near) ** p.g
    return d


def hit_score_surface(
    series: CrimeSeries, grid: Grid, params: RossmoParams | None = None
) -> PosteriorSurface:
    """Summed decay scores at every cell center, normalized to sum 1.

    Normalization never changes the ranking (scores are compared among
    themselves); it just makes the surface interchangeable with the
    posterior surfaces downstream.
    """
    check_grid_zone(grid, series.zone, f"offender {series.offender_id!r}")
    if params is None:
        try:
            params = RossmoParams(b=buffer_radius(series))
        except ValueError:
            fallback = 0.5 * math.hypot(grid.dx, grid.dy)
            logger.warning(
                "offender %s: coincident crime sites; buffer radius falls back "
                "to half the cell diagonal (%.3f km)",
                series.offender_id,
                fallback,
            )
            params = RossmoParams(b=fallback)
    # crime-major distances, (n, nrows, ncols), so each crime's scores are
    # one contiguous row of cells: |de| per column, then |dn| per row added
    # (filling, then adding, beats one broadcast add)
    xy = series.xy
    d = np.empty((len(xy), grid.nrows, grid.ncols))
    d[...] = np.abs(grid.east_centers - xy[:, :1])[:, None, :]
    d += np.abs(grid.north_centers - xy[:, 1:])[:, :, None]
    # each cell's crimes summed in the order of numpy's row sum
    scores = _pairwise_sum(_decay_in_place(d, params).reshape(len(xy), grid.ncells))
    total = scores.sum()
    if not (math.isfinite(total) and total > 0.0):
        raise DegenerateSurfaceError(
            f"hit scores sum to {total}; surface carries no information"
        )
    return PosteriorSurface(grid, (scores / total).reshape(grid.nrows, grid.ncols))
