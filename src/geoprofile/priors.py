"""Leave-one-out priors: anchor-location surface and 1-D parameter priors.

Everything known about the *other* offenders informs the priors for the
one under investigation: their anchor points feed a 2-D kernel density
over the jurisdiction grid, and per-offender summary statistics (mean
crime-to-anchor distance, mean bearing, spreads of both) feed bounded
1-D kernel densities, one per parameter kind, routed by ``PRIORS``.
Bandwidths follow Silverman's rule of thumb; the bounded estimates
reflect probability mass at the support edges instead of letting it
leak out.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Collection, NamedTuple

import numpy as np

from geoprofile.classify import SubtypeLabel, as_xy
from geoprofile.dataset import Dataset
from geoprofile.grid import Grid, check_cell_mass
from geoprofile.models import TWO_PI

__all__ = [
    "PriorKind",
    "PRIORS",
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


class PriorRow(NamedTuple):
    """A kind's support, and the donor groups whose ``statistic`` feeds it.
    A donor's group is its subtype label, or ``"NONRES"`` when no crime
    lies within NONRESIDENT_MIN_KM of its anchor."""

    support: tuple[float, float]
    groups: tuple[str, ...]
    statistic: str


# M3 residents belong to no group here, so they feed no parameter prior.
PRIORS: dict[PriorKind, PriorRow] = {
    PriorKind.DISTANCE_M1: PriorRow((0.0, 150.0), ("M1",), "mean_dist"),
    PriorKind.DISTANCE_M2: PriorRow((0.0, 150.0), ("M2",), "mean_dist"),
    PriorKind.DISTANCE_NONRES: PriorRow((0.0, 150.0), ("NONRES",), "mean_dist"),
    PriorKind.ANGLE_M2: PriorRow((0.0, TWO_PI), ("M2",), "mean_angle"),
    PriorKind.ANGLE_NONRES: PriorRow((0.0, TWO_PI), ("NONRES",), "mean_angle"),
    PriorKind.SPREAD_RADIAL: PriorRow((0.05, 20.0), ("M2", "NONRES"), "std_radii"),
    PriorKind.SPREAD_ANGULAR: PriorRow((0.02, math.pi), ("M2", "NONRES"), "std_angles"),
}


@dataclass(frozen=True, eq=False)
class ParamPrior:
    """Tabulated 1-D prior on a closed support, linear between nodes."""

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
        check_cell_mass(self.grid, self.weights, "weights")

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


def kde2d(points, grid: Grid) -> AnchorPrior:
    """Gaussian product-kernel density of donor anchors at the cell centers.

    Per-axis Silverman bandwidth sigma_j * n^(-1/6), floored at half a
    cell so the surface stays finite.
    """
    xy = as_xy(points)
    if len(xy) < 2:
        raise InsufficientDataError("2-D kernel density needs at least 2 points")
    h = np.std(xy, axis=0, ddof=1) * len(xy) ** (-1.0 / 6.0)
    # the kernel must stay resolvable on the cell mesh, or tightly packed
    # donors underflow every center to exactly zero
    h = np.maximum(h, [grid.dx / 2.0, grid.dy / 2.0])

    # Row-factored, and bit-identical to exp(-0.5 * (de² + dn²)) summed over
    # the donors of each cell: scaling by 0.5 is exact, so the two halves
    # add to the same exponent, and each cell still sums one contiguous
    # N-vector in numpy's pairwise order.
    de = (grid.east_centers[:, None] - xy[None, :, 0]) / h[0]
    dn = (grid.north_centers[:, None] - xy[None, :, 1]) / h[1]
    half_e = -0.5 * (de * de)  # (ncols, N)
    half_n = -0.5 * (dn * dn)  # (nrows, N)
    kernel = np.empty_like(half_e)
    weights = np.empty((grid.nrows, grid.ncols))
    for row, half_row in enumerate(half_n):
        np.exp(np.add(half_e, half_row, out=kernel), out=kernel)
        weights[row] = kernel.sum(axis=1)
    total = weights.sum()
    if total <= 0.0:
        raise InsufficientDataError("all donor mass fell outside the grid")
    return AnchorPrior(grid, weights / total)


def flat_anchor_prior(grid: Grid) -> AnchorPrior:
    return AnchorPrior(grid, np.full((grid.nrows, grid.ncols), 1.0 / grid.ncells))


def bounded_density_1d(samples, lo: float, hi: float) -> ParamPrior:
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
    exponent = -0.5 * u * u
    # exp is exactly 0.0 below about -745.13, and numpy's underflow path
    # costs 15-100x a plain lane, so lanes at or below -746 stay 0.0 unread
    density = np.exp(exponent, out=np.zeros_like(exponent), where=exponent > -746.0)
    density = density.sum(axis=1)
    density /= np.trapezoid(density, nodes)
    return ParamPrior(lo=lo, hi=hi, nodes=nodes, density=density)


def flat_param_prior(kind: PriorKind, lo: float | None = None, hi: float | None = None) -> ParamPrior:
    """Uniform prior on [lo, hi]; a bound left out is that of ``kind``'s support."""
    default_lo, default_hi = PRIORS[kind].support
    lo = default_lo if lo is None else lo
    hi = default_hi if hi is None else hi
    nodes = np.linspace(lo, hi, TABLE_NODES)
    return ParamPrior(lo=lo, hi=hi, nodes=nodes, density=np.full(TABLE_NODES, 1.0 / (hi - lo)))


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
    anchor = np.array([(series.anchor.easting, series.anchor.northing)])
    return not _donor_stats([series], anchor)["resident"][0]


def _ragged_rows(counts: np.ndarray):
    """Per distinct count n: the rows with n entries, and the (k, n) index of
    their entries in a flat array that holds every row back to back."""
    starts = np.cumsum(counts) - counts
    for n in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == n)
        yield n, rows, starts[rows, None] + np.arange(n)


def _donor_stats(donors, anchors: np.ndarray) -> dict[str, np.ndarray]:
    """Columns in donor order: the bool ``resident`` and the statistics
    ``PRIORS`` names, NaN where a donor has too few sites; ``anchors``
    holds the donors' anchors as an (k, 2) array. Bearings leave out
    crimes on the anchor.

    All donors go through one pass: every reduction runs along the rows of
    a (k, n) stack of the donors with n sites (or n bearings), so each
    value is the one a donor's own length-n array would give.
    """
    counts = np.array([s.n for s in donors])
    d = np.concatenate([s.xy for s in donors]) - np.repeat(anchors, counts, axis=0)
    radii = np.hypot(d[:, 0], d[:, 1])
    nonzero = radii > 0.0
    angles = np.arctan2(d[nonzero, 1], d[nonzero, 0]) % TWO_PI
    owner = np.repeat(np.arange(len(donors)), counts)
    bearings = np.bincount(owner[nonzero], minlength=len(donors))

    stats = {"resident": np.empty(len(donors), dtype=bool)}
    for name in ("mean_dist", "mean_angle", "std_radii", "std_angles"):
        stats[name] = np.full(len(donors), np.nan)
    for n, rows, index in _ragged_rows(counts):
        stack = radii[index]
        stats["resident"][rows] = stack.min(axis=1) <= NONRESIDENT_MIN_KM
        stats["mean_dist"][rows] = stack.mean(axis=1)
        if n > 1:
            stats["std_radii"][rows] = stack.std(axis=1, ddof=1)
    for n, rows, index in _ragged_rows(bearings):
        if n == 0:
            continue
        stack = angles[index]
        stats["mean_angle"][rows] = stack.mean(axis=1)
        if n > 1:
            stats["std_angles"][rows] = stack.std(axis=1, ddof=1)
    return stats


def build_prior_set(
    ds: Dataset,
    excluded_offender: str,
    subtype_labels: dict[str, SubtypeLabel],
    grid: Grid,
    kinds: Collection[PriorKind] = frozenset(PriorKind),
) -> PriorSet:
    """Priors from every offender except the examined one: the anchor
    prior and the parameter priors of ``kinds``, which default to all.

    Each donor feeds, in donor order, every kind whose ``PRIORS`` row
    names its group and whose statistic it has. A kind with fewer than 3
    donor samples falls back to a flat prior; one warning names every such
    kind built. An unknown ``excluded_offender`` raises UnknownOffenderError.
    """
    ds.get(excluded_offender)  # UnknownOffenderError for an unknown id
    donors = [s for s in ds.series if s.offender_id != excluded_offender]
    if len(donors) < 2:
        raise InsufficientDataError(
            "leave-one-out donor set too small to build an anchor prior"
        )
    if any(s.anchor is None for s in donors):
        raise InsufficientDataError("every donor series needs a known anchor")
    anchors = np.array([(s.anchor.easting, s.anchor.northing) for s in donors])
    stats = _donor_stats(donors, anchors)
    labels = [subtype_labels[s.offender_id].kind.value for s in donors]
    group = np.where(stats["resident"], labels, "NONRES")
    params, flat = {}, []
    for kind, row in PRIORS.items():
        if kind not in kinds:
            continue
        values = stats[row.statistic]
        samples = values[np.isin(group, row.groups) & ~np.isnan(values)]
        try:
            params[kind] = bounded_density_1d(samples, *row.support)
        except InsufficientDataError:
            params[kind] = flat_param_prior(kind)
            flat.append(f"{kind.value}: {len(samples)}")
    if flat:
        logger.warning(
            "too few donor samples for %d prior(s) (%s); falling back to flat",
            len(flat),
            ", ".join(flat),
        )
    return PriorSet(
        anchor=kde2d(anchors, grid),
        params=MappingProxyType(params),
        source_offender_count=len(donors),
    )
