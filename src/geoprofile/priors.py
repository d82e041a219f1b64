"""Leave-one-out priors: anchor-location surface and 1-D parameter priors.

Everything known about the *other* offenders informs the priors for the
one under investigation: their anchor points feed a 2-D kernel density
over the jurisdiction grid, and per-offender summary statistics (mean
crime-to-anchor distance, mean bearing, spreads of both) feed bounded
1-D kernel densities, one per parameter kind. Bandwidths follow
Silverman's rule of thumb; the bounded estimates reflect probability mass
at the support edges instead of letting it leak out.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from geoprofile.classify import SubtypeKind, SubtypeLabel, as_xy
from geoprofile.dataset import Dataset, leave_one_out
from geoprofile.grid import Grid
from geoprofile.models import TWO_PI

__all__ = [
    "PriorKind",
    "ParamPrior",
    "AnchorPrior",
    "PriorSet",
    "InsufficientDataError",
    "kde2d",
    "flat_anchor_prior",
    "bounded_density_1d",
    "flat_param_prior",
    "flat_prior_set",
    "build_prior_set",
    "is_nonresident",
]

logger = logging.getLogger(__name__)

TABLE_NODES = 512
NONRESIDENT_MIN_KM = 10.0

DISTANCE_SUPPORT = (0.0, 150.0)
ANGLE_SUPPORT = (0.0, TWO_PI)
SPREAD_RADIAL_SUPPORT = (0.05, 20.0)
SPREAD_ANGULAR_SUPPORT = (0.02, math.pi)


class InsufficientDataError(ValueError):
    """Too few donor offenders or samples to estimate a prior."""


class PriorKind(enum.Enum):
    DISTANCE_M1 = "distance_m1"
    DISTANCE_M2 = "distance_m2"
    DISTANCE_NONRES = "distance_nonres"
    ANGLE_M2 = "angle_m2"
    ANGLE_NONRES = "angle_nonres"
    SPREAD_RADIAL = "spread_radial"
    SPREAD_ANGULAR = "spread_angular"


SUPPORTS: dict[PriorKind, tuple[float, float]] = {
    PriorKind.DISTANCE_M1: DISTANCE_SUPPORT,
    PriorKind.DISTANCE_M2: DISTANCE_SUPPORT,
    PriorKind.DISTANCE_NONRES: DISTANCE_SUPPORT,
    PriorKind.ANGLE_M2: ANGLE_SUPPORT,
    PriorKind.ANGLE_NONRES: ANGLE_SUPPORT,
    PriorKind.SPREAD_RADIAL: SPREAD_RADIAL_SUPPORT,
    PriorKind.SPREAD_ANGULAR: SPREAD_ANGULAR_SUPPORT,
}


@dataclass(frozen=True, eq=False)
class ParamPrior:
    """Tabulated 1-D prior on a closed support, linear between nodes."""

    kind: PriorKind
    lo: float
    hi: float
    nodes: np.ndarray
    density: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.shape != self.density.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and density must be matching 1-D arrays")
        if np.any(self.density < 0.0):
            raise ValueError("density must be nonnegative")
        total = float(np.trapezoid(self.density, self.nodes))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density must integrate to 1, got {total}")

    @cached_property
    def _cdf_table(self) -> np.ndarray:
        steps = np.diff(self.nodes) * (self.density[1:] + self.density[:-1]) / 2.0
        cdf = np.concatenate([[0.0], np.cumsum(steps)])
        return cdf / cdf[-1]

    def pdf(self, x):
        return np.interp(x, self.nodes, self.density, left=0.0, right=0.0)

    def cdf(self, x):
        return np.interp(x, self.nodes, self._cdf_table, left=0.0, right=1.0)

    def quantile(self, q):
        return np.interp(q, self._cdf_table, self.nodes)


@dataclass(frozen=True, eq=False)
class AnchorPrior:
    """Nonnegative cell weights over the jurisdiction grid, summing to 1."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.shape != (self.grid.nrows, self.grid.ncols):
            raise ValueError("weights must be shaped (nrows, ncols)")
        if np.any(self.weights < 0.0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @cached_property
    def log_weights(self) -> np.ndarray:
        """Flattened row-major log weights; zero-weight cells are -inf."""
        with np.errstate(divide="ignore"):
            return np.log(self.weights.ravel())


@dataclass(frozen=True)
class PriorSet:
    anchor: AnchorPrior
    params: MappingProxyType
    source_offender_count: int

    def __getitem__(self, kind: PriorKind) -> ParamPrior:
        try:
            return self.params[kind]
        except KeyError:
            raise KeyError(f"prior set has no {kind.value} prior") from None


def _silverman_1d(samples: np.ndarray) -> float:
    std = float(np.std(samples, ddof=1)) if len(samples) > 1 else 0.0
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0.0 else std
    return 0.9 * scale * len(samples) ** -0.2


def kde2d(points, grid: Grid, bandwidth: tuple[float, float] | None = None) -> AnchorPrior:
    """Gaussian product-kernel density of donor anchors at the cell centers.

    Per-axis Silverman bandwidth sigma_j * n^(-1/6) unless overridden;
    coincident donors fall back to a 1 m floor so the surface stays finite.
    """
    xy = as_xy(points)
    if len(xy) < 2:
        raise InsufficientDataError("2-D kernel density needs at least 2 points")
    if bandwidth is None:
        n = len(xy)
        h = np.std(xy, axis=0, ddof=1) * n ** (-1.0 / 6.0)
    else:
        h = np.asarray(bandwidth, dtype=float)
    # the kernel must stay resolvable on the cell mesh, or tightly packed
    # donors underflow every center to exactly zero
    h = np.maximum(h, [grid.dx / 2.0, grid.dy / 2.0])

    centers = grid.centers
    de = (centers[:, 0][:, None] - xy[None, :, 0]) / h[0]
    dn = (centers[:, 1][:, None] - xy[None, :, 1]) / h[1]
    weights = np.exp(-0.5 * (de * de + dn * dn)).sum(axis=1)
    total = weights.sum()
    if total <= 0.0:
        raise InsufficientDataError("all donor mass fell outside the grid")
    return AnchorPrior(grid, (weights / total).reshape(grid.nrows, grid.ncols))


def flat_anchor_prior(grid: Grid) -> AnchorPrior:
    return AnchorPrior(grid, np.full((grid.nrows, grid.ncols), 1.0 / grid.ncells))


def bounded_density_1d(
    samples,
    lo: float,
    hi: float,
    kind: PriorKind = PriorKind.DISTANCE_M1,
) -> ParamPrior:
    """Reflection-kernel density on [lo, hi], tabulated on equal nodes.

    Samples are clipped into the support; kernel mass that would spill
    past an edge is folded back in, so hard physical bounds (distances
    cannot be negative) are respected without renormalization tricks.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples for a bounded density, got {len(samples)}"
        )
    if not hi > lo:
        raise ValueError("support must have hi > lo")
    samples = np.clip(samples, lo, hi)
    h = max(_silverman_1d(samples), 1e-3 * (hi - lo))

    nodes = np.linspace(lo, hi, TABLE_NODES)
    mirrored = np.concatenate([samples, 2.0 * lo - samples, 2.0 * hi - samples])
    u = (nodes[:, None] - mirrored[None, :]) / h
    density = np.exp(-0.5 * u * u).sum(axis=1)
    density /= np.trapezoid(density, nodes)
    return ParamPrior(kind=kind, lo=lo, hi=hi, nodes=nodes, density=density)


def flat_param_prior(kind: PriorKind, lo: float | None = None, hi: float | None = None) -> ParamPrior:
    default_lo, default_hi = SUPPORTS[kind]
    lo = default_lo if lo is None else lo
    hi = default_hi if hi is None else hi
    nodes = np.linspace(lo, hi, TABLE_NODES)
    return ParamPrior(
        kind=kind, lo=lo, hi=hi, nodes=nodes, density=np.full(TABLE_NODES, 1.0 / (hi - lo))
    )


def flat_prior_set(grid: Grid, supports: dict[PriorKind, tuple[float, float]] | None = None) -> PriorSet:
    """Uninformative priors: uniform anchor surface and flat parameter priors.

    ``supports`` may narrow individual parameter ranges, e.g. for
    synthetic runs where plausible travel distances are known.
    """
    supports = supports or {}
    params = {
        kind: flat_param_prior(kind, *supports.get(kind, (None, None)))
        for kind in PriorKind
    }
    return PriorSet(
        anchor=flat_anchor_prior(grid),
        params=MappingProxyType(params),
        source_offender_count=0,
    )


def is_nonresident(series) -> bool:
    """Ground-truth residency: no crime within NONRESIDENT_MIN_KM of the
    anchor; a crime exactly that far makes the offender a resident.

    The donor statistics that route donors to the priors hold the one test.
    Used for the evaluation scope; estimation never sees the anchor.
    """
    if series.anchor is None:
        raise ValueError("residency needs a known anchor")
    return not _donor_stats(series).resident


@dataclass
class _DonorStats:
    resident: bool
    mean_dist: float
    mean_angle: float | None
    std_radii: float | None
    std_angles: float | None


def _donor_stats(series) -> _DonorStats:
    xy = series.xy
    anchor = np.array([series.anchor.easting, series.anchor.northing])
    d = xy - anchor
    radii = np.hypot(d[:, 0], d[:, 1])
    nonzero = radii > 0.0
    angles = np.arctan2(d[nonzero, 1], d[nonzero, 0]) % TWO_PI
    return _DonorStats(
        resident=bool(radii.min() <= NONRESIDENT_MIN_KM),
        mean_dist=float(radii.mean()),
        mean_angle=float(angles.mean()) if len(angles) else None,
        std_radii=float(np.std(radii, ddof=1)) if len(radii) > 1 else None,
        std_angles=float(np.std(angles, ddof=1)) if len(angles) > 1 else None,
    )


def _estimate(kind: PriorKind, samples: list[float]) -> ParamPrior:
    lo, hi = SUPPORTS[kind]
    if len(samples) < 3:
        logger.warning(
            "no usable donors for %s prior (%d sample(s)); falling back to flat",
            kind.value,
            len(samples),
        )
        return flat_param_prior(kind)
    return bounded_density_1d(samples, lo, hi, kind=kind)


def build_prior_set(
    ds: Dataset,
    excluded_offender: str,
    subtype_labels: dict[str, SubtypeLabel],
    grid: Grid,
) -> PriorSet:
    """Priors from every offender except the examined one.

    Donor populations per kind: tight residents feed the no-buffer
    distance prior, buffer-zone residents the ring distance and bearing
    priors, non-residents (no crime within 10 km of their anchor) the
    far-travel distance and bearing priors. Spread priors pool the two
    populations whose models carry a spread parameter. A kind with fewer
    than 3 donor samples falls back to a flat prior with a warning.
    """
    donors = leave_one_out(ds, excluded_offender)
    if len(donors.series) < 2:
        raise InsufficientDataError(
            "leave-one-out donor set too small to build an anchor prior"
        )

    anchors = [s.anchor for s in donors.series]
    if any(a is None for a in anchors):
        raise InsufficientDataError("every donor series needs a known anchor")

    samples: dict[PriorKind, list[float]] = {kind: [] for kind in PriorKind}
    for series in donors.series:
        stats = _donor_stats(series)
        label = subtype_labels[series.offender_id]
        if not stats.resident:
            samples[PriorKind.DISTANCE_NONRES].append(stats.mean_dist)
            if stats.mean_angle is not None:
                samples[PriorKind.ANGLE_NONRES].append(stats.mean_angle)
        elif label.kind is SubtypeKind.M1:
            samples[PriorKind.DISTANCE_M1].append(stats.mean_dist)
        elif label.kind is SubtypeKind.M2:
            samples[PriorKind.DISTANCE_M2].append(stats.mean_dist)
            if stats.mean_angle is not None:
                samples[PriorKind.ANGLE_M2].append(stats.mean_angle)
        if not stats.resident or label.kind is SubtypeKind.M2:
            if stats.std_radii is not None:
                samples[PriorKind.SPREAD_RADIAL].append(stats.std_radii)
            if stats.std_angles is not None:
                samples[PriorKind.SPREAD_ANGULAR].append(stats.std_angles)

    params = {kind: _estimate(kind, vals) for kind, vals in samples.items()}
    return PriorSet(
        anchor=kde2d(anchors, grid),
        params=MappingProxyType(params),
        source_offender_count=len(donors.series),
    )
