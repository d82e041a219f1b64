"""Marginal posterior surfaces over the jurisdiction grid.

For each candidate anchor cell z the engine evaluates

    mass(z)  proportional to  h(z) * sum_j w_j * prod_i p(x_i | z, theta_j)

where the theta_j are parameter nodes placed at equal-probability
quantiles of the parameter priors (midpoint rule, weight 1/m each, tensor
product across a family's parameters) and h is the anchor prior. Products
over crimes run in log space with a per-cell max shift before
exponentiation, so series of 30+ crimes cannot underflow. The shifted
exponents of the node sum are floored at LOG_SUM_EXP_FLOOR (-700) before
exponentiation: numpy's exp is about ten times slower per element where
its result underflows (below about -708), and a floored term, under
1e-304, cannot change a per-cell sum that already holds the peak's own
term of exactly 1. Only the node sum is floored; normalizing the surface
keeps the exact zeros of cells far below the grid's peak.

The families are data: FAMILIES lists each one's Gaussian blocks, each in
one per-crime scalar (distance r or bearing phi), with its parameters'
default prior kinds and node counts and a map from the parameter nodes to
the Gaussian's mean, spread and log normaliser. A block's sum over crimes
depends on the cell only through per-cell sums of the scalar and its
square, so the node sweep is a dense array operation, not a per-cell loop.
A family's tensor sum over all its nodes factorizes exactly into the
product of its block sums, so the blocks' log-quadratures add.

The methods are data too: METHODS gives each posterior method its
resident buffer-zone model and the weight of its non-resident surface.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from geoprofile.classify import SubtypeKind, SubtypeLabel
from geoprofile.dataset import CrimeSeries
from geoprofile.grid import Grid
from geoprofile.models import (
    TWO_PI,
    angle_normalizer,
    radial_normalizer,
    ring_normal_normalizer,
)
from geoprofile.priors import PriorKind, PriorSet

__all__ = [
    "Family",
    "MethodId",
    "ModelSpec",
    "METHODS",
    "PosteriorSurface",
    "DegenerateSurfaceError",
    "posterior_surface",
    "multimodel_combine",
    "m3_surface",
    "run_method",
    "method_surfaces",
    "NONRES_WEIGHT_FROM_FREQUENCIES",
]

# offenders far from home are one in eleven of the study population; the
# frequency-weighted methods use that split
NONRES_WEIGHT_FROM_FREQUENCIES = 1.0 / 11.0

ANCHOR_COINCIDENCE_KM = 1e-12
ANCHOR_NUDGE_KM = 1e-6

# Floor on the peak-shifted exponents of the node log-sum-exp. numpy's exp
# runs about ten times slower per element once its result underflows
# (arguments below about -708). A floored term is below 1e-304 and joins a
# per-cell sum that holds the peak's own term, exactly 1, so the sum is
# unchanged bit for bit.
LOG_SUM_EXP_FLOOR = -700.0


class Family(enum.Enum):
    M1 = "M1"
    M2 = "M2"
    NONRES = "NONRES"


class MethodId(enum.Enum):
    ONE_A = "1a"
    ONE_B = "1b"
    TWO_AI = "2ai"
    TWO_AII = "2aii"
    TWO_BI = "2bi"
    TWO_BII = "2bii"
    ROSSMO = "rossmo"


class Param(NamedTuple):
    name: str
    prior: PriorKind  # default prior kind
    nodes: int  # default node count


class Block(NamedTuple):
    scalar: str  # per-crime scalar: "r" (distance) or "phi" (bearing)
    params: tuple[Param, ...]
    gaussian: Callable  # flattened node tensor -> (mean, spread, log normaliser)


FAMILIES: dict[Family, tuple[Block, ...]] = {
    # isotropic normal: x = r, mean 0, 2 s^2 = 4 alpha^2 / pi, normaliser 4 alpha^2
    Family.M1: (
        Block("r", (Param("alpha", PriorKind.DISTANCE_M1, 32),),
              lambda a: (0.0, a * math.sqrt(2.0 / math.pi), np.log(4.0 * a**2))),
    ),
    Family.M2: (
        Block("r", (Param("alpha", PriorKind.DISTANCE_M2, 32),
                    Param("sigma", PriorKind.SPREAD_RADIAL, 8)),
              lambda a, s: (a, s, np.log(ring_normal_normalizer(a, s)))),
    ),
    Family.NONRES: (
        Block("r", (Param("alpha", PriorKind.DISTANCE_NONRES, 32),
                    Param("sigma1", PriorKind.SPREAD_RADIAL, 8)),
              lambda a, s: (a, s, np.log(radial_normalizer(a, s)))),
        Block("phi", (Param("theta", PriorKind.ANGLE_NONRES, 32),
                      Param("sigma2", PriorKind.SPREAD_ANGULAR, 8)),
              lambda t, s: (t, s, np.log(angle_normalizer(t, s)))),
    ),
}
_PARAMS = {
    f: {p.name: p for block in blocks for p in block.params}
    for f, blocks in FAMILIES.items()
}
QUADRATURE_PARAMS = tuple(dict.fromkeys(p for params in _PARAMS.values() for p in params))


def check_quadrature(quadrature: Mapping[str, int] | None) -> None:
    """Reject a node count for a parameter no family has, or one below 1."""
    for param, count in (quadrature or {}).items():
        if param not in QUADRATURE_PARAMS:
            raise ValueError(
                f"unknown quadrature parameter {param!r}; "
                f"choose from {', '.join(QUADRATURE_PARAMS)}"
            )
        if int(count) < 1:
            raise ValueError(f"node count for {param} must be >= 1, got {count}")


class DegenerateSurfaceError(RuntimeError):
    """Every cell underflowed; the posterior carries no information."""


@dataclass(frozen=True)
class ModelSpec:
    """Likelihood family plus its parameter-quadrature configuration."""

    family: Family
    quadrature: Mapping[str, int] | None = None
    fixed_overrides: Mapping[str, float] | None = None
    prior_kinds: Mapping[str, PriorKind] | None = None

    def __post_init__(self) -> None:
        check_quadrature(self.quadrature)

    def node_count(self, param: str) -> int:
        return int((self.quadrature or {}).get(param, _PARAMS[self.family][param].nodes))

    def prior_kind(self, param: str) -> PriorKind:
        return (self.prior_kinds or {}).get(param, _PARAMS[self.family][param].prior)


@dataclass(frozen=True, eq=False)
class PosteriorSurface:
    """Normalized probability mass over grid cells, row 0 at the south edge."""

    grid: Grid
    mass: np.ndarray

    def __post_init__(self) -> None:
        if self.mass.shape != (self.grid.nrows, self.grid.ncols):
            raise ValueError("mass must be shaped (nrows, ncols)")
        if not np.all(np.isfinite(self.mass)) or np.any(self.mass < 0.0):
            raise ValueError("mass must be finite and nonnegative")
        if abs(float(self.mass.sum()) - 1.0) > 1e-9:
            raise ValueError(f"mass must sum to 1, got {self.mass.sum()}")


def _quadrature_nodes(spec: ModelSpec, param: str, priors: PriorSet) -> np.ndarray:
    override = (spec.fixed_overrides or {}).get(param)
    prior = priors[spec.prior_kind(param)]
    if override is not None:
        if not prior.lo <= override <= prior.hi:
            raise ValueError(
                f"fixed {param}={override} outside prior support "
                f"[{prior.lo}, {prior.hi}]"
            )
        nodes = np.array([float(override)])
    else:
        m = spec.node_count(param)
        nodes = np.asarray(prior.quantile((np.arange(m) + 0.5) / m), dtype=float)
    if param != "theta":
        # distances and spreads must stay strictly positive for the
        # normalizers even when a prior's support touches zero
        nodes = np.maximum(nodes, 1e-9)
    return nodes


def _sum_stats(x: np.ndarray, count) -> np.ndarray:
    """(cells, 4) per-cell [sum x^2, sum x, count, 1] of a per-crime scalar."""
    cells = len(x)
    return np.column_stack(
        [(x * x).sum(axis=1), x.sum(axis=1), np.broadcast_to(count, cells), np.ones(cells)]
    )


def _gaussian_coeffs(n: int, mu, s, log_norm) -> np.ndarray:
    """(4, nodes) coefficients on ``_sum_stats`` columns of the summed log density

        sum_i -(x_i - mu)^2 / (2 s^2)  -  n log_norm

    one column per node (mu, s, log_norm).
    """
    inv = 1.0 / (2.0 * s * s)
    return np.stack([-inv, 2.0 * mu * inv, -mu * mu * inv, -n * log_norm])


def _log_quad(stats: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """log of the equal-weight node average of exp(stats @ coeffs), per cell."""
    vals = stats @ coeffs
    peak = vals.max(axis=1)
    # a cell that underflowed at every node is shifted by 0, not by -inf
    # (which would give NaN); adding back its -inf peak keeps it -inf
    vals -= np.where(np.isfinite(peak), peak, 0.0)[:, None]
    np.maximum(vals, LOG_SUM_EXP_FLOOR, out=vals)
    np.exp(vals, out=vals)
    return np.log(vals.sum(axis=1)) + peak - math.log(coeffs.shape[1])


def _log_marginal_likelihood(
    series: CrimeSeries, spec: ModelSpec, priors: PriorSet, grid: Grid
) -> np.ndarray:
    """log of the quadrature sum per cell, flattened row-major: the sum of
    the family's block log-quadratures, in FAMILIES order."""
    xy = series.xy
    n = len(xy)
    d = grid.centers[:, None, :] - xy[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=-1))
    on_anchor = r < ANCHOR_COINCIDENCE_KM
    log_mass = 0.0
    for block in FAMILIES[spec.family]:
        if block.scalar == "r":
            stats = _sum_stats(np.where(on_anchor, ANCHOR_NUDGE_KM, r), n)
        else:
            # A crime site exactly on a candidate anchor has no bearing; it is
            # treated as sitting a nominal 1e-6 km away in the preferred
            # direction, which zeroes its bearing residual for every node.
            phi = np.arctan2(-d[..., 1], -d[..., 0]) % TWO_PI
            phi = np.where(on_anchor | (phi >= TWO_PI), 0.0, phi)
            stats = _sum_stats(phi, n - on_anchor.sum(axis=1))
        nodes = np.meshgrid(
            *(_quadrature_nodes(spec, p.name, priors) for p in block.params),
            indexing="ij",
        )
        mu, s, log_norm = block.gaussian(*(x.ravel() for x in nodes))
        log_mass += _log_quad(stats, _gaussian_coeffs(n, mu, s, log_norm))
    return log_mass


def _normalize_log_mass(log_mass: np.ndarray, grid: Grid) -> PosteriorSurface:
    peak = float(np.max(log_mass))
    if not math.isfinite(peak):
        raise DegenerateSurfaceError(
            "posterior underflowed in every cell; surface carries no information"
        )
    mass = np.exp(log_mass - peak)
    mass /= mass.sum()  # fixed row-major reduction order
    return PosteriorSurface(grid, mass.reshape(grid.nrows, grid.ncols))


def posterior_surface(
    series: CrimeSeries, spec: ModelSpec, priors: PriorSet, grid: Grid
) -> PosteriorSurface:
    """Marginal anchor posterior for one series under one model family."""
    if priors.anchor.grid != grid:
        raise ValueError("anchor prior grid does not match the target grid")
    log_mass = _log_marginal_likelihood(series, spec, priors, grid)
    return _normalize_log_mass(log_mass + priors.anchor.log_weights, grid)


def multimodel_combine(
    surfaces: Sequence[PosteriorSurface], weights: Sequence[float]
) -> PosteriorSurface:
    """Cellwise convex combination of posterior surfaces."""
    if not surfaces:
        raise ValueError("need at least one surface")
    if len(weights) != len(surfaces):
        raise ValueError("one weight per surface required")
    weights = [float(w) for w in weights]
    if any(w < 0.0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    grid = surfaces[0].grid
    for s in surfaces[1:]:
        if s.grid != grid:
            raise ValueError("surfaces must share one grid")
    mass = np.zeros_like(surfaces[0].mass)
    for w, s in zip(weights, surfaces):
        mass += w * s.mass
    return PosteriorSurface(grid, mass)


class Method(NamedTuple):
    buffer: ModelSpec  # model of buffer-zone (M2 and M3) residents
    nonres_weight: float | None  # of the non-resident surface; None: the caller's


# the ring family, or the distance-and-bearing family of Mohler & Short
# under the resident travel and bearing priors
_RING = ModelSpec(Family.M2)
_DIRECTIONAL = ModelSpec(
    Family.NONRES, prior_kinds={"alpha": PriorKind.DISTANCE_M2, "theta": PriorKind.ANGLE_M2}
)
METHODS: dict[MethodId, Method] = {
    MethodId.ONE_A: Method(_RING, 0.0),
    MethodId.ONE_B: Method(_DIRECTIONAL, 0.0),
    MethodId.TWO_AI: Method(_RING, 0.5),
    MethodId.TWO_AII: Method(_RING, None),
    MethodId.TWO_BI: Method(_DIRECTIONAL, 0.5),
    MethodId.TWO_BII: Method(_DIRECTIONAL, None),
}


def m3_surface(
    series: CrimeSeries,
    label: SubtypeLabel,
    priors: PriorSet,
    grid: Grid,
) -> PosteriorSurface:
    """Clustered residents: one no-buffer model per cluster plus one buffer model.

    Each cluster contributes a no-buffer surface whose evidence is just
    that cluster's sites; the buffer surface (the ring family of the ``1a``
    row) sees all sites. The R component models weigh equally.
    """
    if label.kind is not SubtypeKind.M3:
        raise ValueError("m3_surface requires an M3 label with clusters")
    return run_method(series, MethodId.ONE_A, label, priors, grid)


def method_surfaces(
    series: CrimeSeries,
    methods: Sequence[MethodId],
    label: SubtypeLabel,
    priors: PriorSet,
    grid: Grid,
    nonres_weight: float = NONRES_WEIGHT_FROM_FREQUENCIES,
    quadrature: Mapping[str, int] | None = None,
) -> dict[MethodId, PosteriorSurface]:
    """Surfaces for several methods at once, each component posterior computed once.

    The resident surface follows the label. An M1 label has no buffer
    zone, so every method shares one M1 surface. Otherwise each buffer
    model family gets one surface on all sites. An M3 label blends each
    of those equally with one M1 surface per cluster, fitted to that
    cluster's sites and shared by every buffer model. The non-resident
    surface is computed once, and only if some method weighs it.
    """
    if any(m not in METHODS for m in methods):
        raise ValueError("the hit-score baseline is not a posterior method")
    rows = {m: METHODS[m] for m in methods}
    if not rows:
        return {}

    def surface(spec: ModelSpec, part: CrimeSeries = series) -> PosteriorSurface:
        return posterior_surface(part, replace(spec, quadrature=quadrature), priors, grid)

    m1 = ModelSpec(Family.M1)
    # one buffer model per family: a spec holding prior_kinds cannot be hashed
    buffers = {row.buffer.family: row.buffer for row in rows.values()}
    if label.kind is SubtypeKind.M1:
        resident = dict.fromkeys(buffers, surface(m1))
    else:
        resident = {family: surface(buffer) for family, buffer in buffers.items()}
    if label.kind is SubtypeKind.M3:
        clusters = [surface(m1, series.restrict(cluster)) for cluster in label.clusters]
        equal = [1.0 / (len(clusters) + 1)] * (len(clusters) + 1)
        resident = {f: multimodel_combine([*clusters, s], equal) for f, s in resident.items()}
    weights = {
        m: nonres_weight if row.nonres_weight is None else row.nonres_weight
        for m, row in rows.items()
    }
    nonres = surface(ModelSpec(Family.NONRES)) if any(weights.values()) else None
    out = {}
    for method, w in weights.items():
        base = resident[rows[method].buffer.family]
        out[method] = multimodel_combine([base, nonres], [1.0 - w, w]) if w else base
    return out


def run_method(
    series: CrimeSeries,
    method: MethodId,
    label: SubtypeLabel,
    priors: PriorSet,
    grid: Grid,
    nonres_weight: float = NONRES_WEIGHT_FROM_FREQUENCIES,
    quadrature: Mapping[str, int] | None = None,
) -> PosteriorSurface:
    """Posterior surface for one series under one method's wiring."""
    return method_surfaces(
        series, [method], label, priors, grid, nonres_weight, quadrature
    )[method]
