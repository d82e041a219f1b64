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

Grid cells are the contiguous axis throughout: the per-crime scalars are
laid out (crimes, cells), built from each crime's offsets to the grid's
columns and rows, and the node exponents (nodes, cells). Each cell's
crimes and nodes are summed by column adds that replay numpy's row-sum
order (``_pairwise_sum``), so every surface is bit for bit the cell-major
formulation, ``log_marginal_likelihood_direct`` in tests/oracles.py.

The node sweep of a block (``_log_quad``) splits its cells in two parts
at a multiple of 16 cells. Where the process may use two CPUs, the
calling thread computes the first part and one long-lived worker thread
the second, each in its own columns of one exponent buffer that the
caller allocates; otherwise the caller computes both. Each part fills
its columns by matmul sub-calls of at most ``BLAS_ONE_THREAD_MAX``
multiply-adds, OpenBLAS's bound for running a call on its calling thread,
so the library's own threads never wake to compete for the second core.
Each sub-call covers a multiple of 16 cells, and a grid's remainder past
the last multiple gets a sub-call of its own: one matmul over all cells
gives those remainder cells other bits than the cell-major formulation.
Every other pass is elementwise per cell, so the split changes no bits.

The methods are data too: METHODS gives each posterior method its
resident buffer-zone model and the weight of its non-resident surface.
``method_surfaces`` computes an offender's per-cell statistics once per
scalar and each distinct block quadrature once, so the ring model and the
directional model share their radial block.
"""

from __future__ import annotations

import contextvars
import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from geoprofile.classify import SubtypeKind, SubtypeLabel
from geoprofile.dataset import CrimeSeries
from geoprofile.grid import Grid, check_cell_mass, check_grid_zone
from geoprofile.models import TWO_PI, angle_normalizer, radial_normalizer
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
    "prior_kinds",
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

# OpenBLAS runs a dgemm on its calling thread alone while M * N * K is at
# most SMP_THRESHOLD_MIN (65536) times GEMM_MULTITHREAD_THRESHOLD (4), the
# defaults in its interface/gemm.c and Makefile.system. Above that it wakes
# its own worker threads, which then spin on the core the sweep's second
# part needs.
BLAS_ONE_THREAD_MAX = 4 * 65536

# The two parts of the node sweep and its matmul sub-calls start on
# multiples of this many cells; a remainder past the last multiple gets a
# sub-call of its own (``_log_quad_part``).
_CELL_ALIGN = 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The node sweep runs in two parts, the second on one long-lived worker
# thread, where the process may use two CPUs; otherwise in one part.
_PARTS = 2 if _usable_cpus() >= 2 else 1
_WORKER: ThreadPoolExecutor


def _new_worker() -> None:
    """Bind a fresh one-thread pool; its thread starts on the first submit."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(1, thread_name_prefix="geoprofile-sweep")


_new_worker()
if hasattr(os, "register_at_fork"):
    # a forked child holds no copy of the parent's worker thread
    os.register_at_fork(after_in_child=_new_worker)


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


def _radial(a, s):
    """The ring normal in r: mean alpha, spread sigma and the log of its
    radius integral."""
    return a, s, np.log(radial_normalizer(a, s))


FAMILIES: dict[Family, tuple[Block, ...]] = {
    # isotropic normal: x = r, mean 0, 2 s^2 = 4 alpha^2 / pi, normaliser 4 alpha^2
    Family.M1: (
        Block("r", (Param("alpha", PriorKind.DISTANCE_M1, 32),),
              lambda a: (0.0, a * math.sqrt(2.0 / math.pi), np.log(4.0 * a**2))),
    ),
    # the ring is the distance-and-bearing family's radial block under a
    # uniform bearing: the uniform's density 1 / (2 pi) is one constant
    # factor per crime, which normalising the surface removes
    Family.M2: (
        Block("r", (Param("alpha", PriorKind.DISTANCE_M2, 32),
                    Param("sigma", PriorKind.SPREAD_RADIAL, 8)),
              _radial),
    ),
    Family.NONRES: (
        Block("r", (Param("alpha", PriorKind.DISTANCE_NONRES, 32),
                    Param("sigma1", PriorKind.SPREAD_RADIAL, 8)),
              _radial),
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


def check_nonres_weight(weight: float) -> None:
    """Reject a non-resident weight outside [0, 1], NaN included."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"nonres_weight must lie in [0, 1], got {weight!r}")


class DegenerateSurfaceError(RuntimeError):
    """The surface carries no information: a posterior that underflowed in
    every cell, or hit scores without a finite positive sum."""


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
        check_cell_mass(self.grid, self.mass, "mass")


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


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sums over the first axis of ``x``, bit for bit as numpy's
    ``sum(axis=1)`` adds the same values laid out as the rows of ``x.T``.

    numpy's pairwise summation of a contiguous row: sequential below 8
    values; up to 128, eight accumulators combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order; above
    that, the two halves split at a multiple of 8, each summed the same
    way. Here each of those adds is one column add, in place in ``x``;
    the sums land in ``x[0]``, which is returned.
    """
    n = len(x)
    if n < 8:
        for i in range(1, n):
            x[0] += x[i]
    elif n <= 128:
        blocks = n - n % 8
        for i in range(8, blocks, 8):
            x[:8] += x[i : i + 8]
        x[0:8:2] += x[1:8:2]
        x[0:8:4] += x[2:8:4]
        x[0] += x[4]
        for i in range(blocks, n):
            x[0] += x[i]
    else:
        half = n // 2 - (n // 2) % 8
        _pairwise_sum(x[:half])
        x[0] += _pairwise_sum(x[half:])
    return x[0]


def _sum_stats(x: np.ndarray, count) -> np.ndarray:
    """(cells, 4) per-cell [sum x^2, sum x, count, 1] of a per-crime scalar
    laid out (crimes, cells); ``x`` is summed in place."""
    cells = x.shape[1]
    return np.column_stack(
        [_pairwise_sum(x * x), _pairwise_sum(x), np.broadcast_to(count, cells), np.ones(cells)]
    )


def _gaussian_coeffs(n: int, mu, s, log_norm) -> np.ndarray:
    """(4, nodes) coefficients on ``_sum_stats`` columns of the summed log density

        sum_i -(x_i - mu)^2 / (2 s^2)  -  n log_norm

    one column per node (mu, s, log_norm).
    """
    inv = 1.0 / (2.0 * s * s)
    return np.stack([-inv, 2.0 * mu * inv, -mu * mu * inv, -n * log_norm])


def _log_quad(stats: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """log of the equal-weight node average of exp(stats @ coeffs), per cell.

    The exponents are laid out (nodes, cells), so every pass runs along
    contiguous cells and the node sum replays numpy's row-sum order. Where
    ``_PARTS`` is 2, the worker thread computes the second part of the
    cells (module docstring) in a copy of the caller's context, so the
    caller's ``np.errstate`` holds there too; an error in either part is
    raised once both parts have finished.
    """
    ncells = len(stats)
    # the sub-calls run several times as fast on a C-contiguous coeffs.T
    # as on its transposed view
    lhs = np.ascontiguousarray(coeffs.T)
    vals = np.empty((len(lhs), ncells))
    quad = np.empty(ncells)
    # the caller, which starts first, takes the larger part
    split = (ncells // 2 + _CELL_ALIGN - 1) // _CELL_ALIGN * _CELL_ALIGN
    if _PARTS == 1 or split >= ncells:
        _log_quad_part(lhs, stats.T, vals, quad, 0, ncells)
        return quad
    second = _WORKER.submit(
        contextvars.copy_context().run, _log_quad_part, lhs, stats.T, vals, quad, split, ncells
    )
    try:
        _log_quad_part(lhs, stats.T, vals, quad, 0, split)
    finally:
        wait((second,))
    second.result()
    return quad


def _log_quad_part(lhs, rhs, vals, quad, start: int, stop: int) -> None:
    """``_log_quad`` of cells [start, stop) into ``quad``, through the same
    columns of ``vals``; ``lhs`` is a C-contiguous coeffs.T, ``rhs`` is
    stats.T.

    The exponents are filled by matmul sub-calls that each stay within
    ``BLAS_ONE_THREAD_MAX``, so OpenBLAS computes them on this thread.
    Each covers a multiple of ``_CELL_ALIGN`` cells, but for a remainder,
    which gets a sub-call of its own with the aligned block before it:
    in a larger sub-call OpenBLAS gives a remainder's cells other bits
    than the cell-major product.
    """
    nodes, k = lhs.shape
    cells = max(_CELL_ALIGN, BLAS_ONE_THREAD_MAX // (k * nodes) // _CELL_ALIGN * _CELL_ALIGN)
    tail = stop - (stop - start) % _CELL_ALIGN
    if tail < stop:
        tail = max(start, tail - _CELL_ALIGN)
    edges = sorted({*range(start, tail, cells), tail, stop})
    for a, b in zip(edges, edges[1:]):
        # node tensors past BLAS_ONE_THREAD_MAX / (k * _CELL_ALIGN) nodes
        # take more than one sub-call per cell block
        rows = max(1, BLAS_ONE_THREAD_MAX // (k * (b - a)))
        for r in range(0, nodes, rows):
            np.matmul(lhs[r : r + rows], rhs[:, a:b], out=vals[r : r + rows, a:b])
    vals = vals[:, start:stop]
    peak = vals.max(axis=0)
    # a cell that underflowed at every node is shifted by 0, not by -inf
    # (which would give NaN); adding back its -inf peak keeps it -inf
    vals -= np.where(np.isfinite(peak), peak, 0.0)
    np.maximum(vals, LOG_SUM_EXP_FLOOR, out=vals)
    np.exp(vals, out=vals)
    quad[start:stop] = np.log(_pairwise_sum(vals)) + peak - math.log(nodes)


def _scalar_stats(series: CrimeSeries, grid: Grid, scalars) -> dict[str, np.ndarray]:
    """``_sum_stats`` of each named per-crime scalar over the grid's cells.
    The (crimes, cells) geometry they come from is freed on return."""
    xy = series.xy
    n = len(xy)
    # crime-major offsets of each crime from the cell centres' columns and
    # rows: x - c is exactly -(c - x), so squares and bearings match the
    # cell-major formulation in tests/oracles.py bit for bit
    ex = xy[:, :1] - grid.east_centers
    ny = xy[:, 1:] - grid.north_centers
    r = np.empty((n, grid.nrows, grid.ncols))
    r[...] = (ex * ex)[:, None, :]
    r += (ny * ny)[:, :, None]
    r = np.sqrt(r, out=r).reshape(n, grid.ncells)
    on_anchor = r < ANCHOR_COINCIDENCE_KM
    stats = {}
    if "r" in scalars:
        stats["r"] = _sum_stats(np.where(on_anchor, ANCHOR_NUDGE_KM, r), n)
    if "phi" in scalars:
        # A crime site exactly on a candidate anchor has no bearing; it is
        # treated as sitting a nominal 1e-6 km away in the preferred
        # direction, which zeroes its bearing residual for every node.
        phi = np.arctan2(ny[:, :, None], ex[:, None, :]).reshape(n, grid.ncells)
        # the turn to [0, 2 pi) as np.mod gives it: -pi on the branch cut
        # becomes pi and a zero becomes +0.0
        phi += np.where(phi < 0.0, TWO_PI, 0.0)
        phi[on_anchor | (phi >= TWO_PI)] = 0.0
        stats["phi"] = _sum_stats(phi, n - on_anchor.sum(axis=0))
    return stats


class _Terms:
    """One series' per-cell statistics and block log-quadratures on one
    grid under one prior set, each computed once.

    The statistics of every scalar the named families read are built up
    front. A block's log-quadrature is kept under its scalar, its Gaussian
    map and each parameter's prior kind, node count and fixed value: two
    blocks that agree on those sum the same node tensor over the same
    statistics. So the ring model shares the directional model's radial
    block whenever their radial priors and nodes agree.
    """

    def __init__(self, series: CrimeSeries, priors: PriorSet, grid: Grid, families) -> None:
        self.series, self.priors, self.grid = series, priors, grid
        scalars = {block.scalar for family in families for block in FAMILIES[family]}
        self.stats = _scalar_stats(series, grid, scalars)
        self._quads: dict[tuple, np.ndarray] = {}

    def log_likelihood(self, spec: ModelSpec) -> np.ndarray:
        """log of ``spec``'s quadrature sum per cell, flattened row-major:
        the sum of its family's block log-quadratures, in FAMILIES order."""
        # a new array: the kept block arrays are never written
        return sum(self._block(block, spec) for block in FAMILIES[spec.family])

    def _block(self, block: Block, spec: ModelSpec) -> np.ndarray:
        fixed = spec.fixed_overrides or {}
        key = (block.scalar, block.gaussian, tuple(
            (spec.prior_kind(p.name), spec.node_count(p.name), fixed.get(p.name))
            for p in block.params
        ))
        if key not in self._quads:
            nodes = np.meshgrid(
                *(_quadrature_nodes(spec, p.name, self.priors) for p in block.params),
                indexing="ij",
            )
            mu, s, log_norm = block.gaussian(*(x.ravel() for x in nodes))
            coeffs = _gaussian_coeffs(len(self.series.xy), mu, s, log_norm)
            self._quads[key] = _log_quad(self.stats[block.scalar], coeffs)
        return self._quads[key]


def _log_marginal_likelihood(
    series: CrimeSeries, spec: ModelSpec, priors: PriorSet, grid: Grid
) -> np.ndarray:
    """log of the quadrature sum per cell, flattened row-major: the sum of
    the family's block log-quadratures, in FAMILIES order."""
    return _Terms(series, priors, grid, [spec.family]).log_likelihood(spec)


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
    series: CrimeSeries,
    spec: ModelSpec,
    priors: PriorSet,
    grid: Grid,
    *,
    terms: _Terms | None = None,
) -> PosteriorSurface:
    """Marginal anchor posterior for one series under one model family.

    ``terms``, if given, holds this series' statistics and block
    quadratures on ``grid`` under ``priors``, shared with other surfaces.
    """
    check_grid_zone(grid, series.zone, f"offender {series.offender_id!r}")
    if priors.anchor.grid != grid:
        raise ValueError("anchor prior grid does not match the target grid")
    if terms is None:
        terms = _Terms(series, priors, grid, [spec.family])
    elif terms.series is not series or terms.priors is not priors or terms.grid != grid:
        raise ValueError("shared terms belong to another series, prior set or grid")
    log_mass = terms.log_likelihood(spec)
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


class _Plan(NamedTuple):
    """The models ``method_surfaces`` fits, and how it blends them."""

    resident: dict[MethodId, ModelSpec]  # fitted to all sites; one model per family
    cluster: ModelSpec | None  # fitted to each cluster's sites of an M3 label
    nonres: ModelSpec | None  # the non-resident model, if some method weighs it
    weights: dict[MethodId, float]  # of the non-resident surface


def _plan(
    methods: Sequence[MethodId], label: SubtypeLabel, nonres_weight: float
) -> _Plan:
    """The one routing of methods and a label to models.

    An M1 label has no buffer zone, so every method's resident model is
    the M1 model. Otherwise it is the method's buffer model, and an M3
    label adds the M1 model fitted to each cluster. The non-resident
    model is fitted only if some method gives it a non-zero weight.
    """
    if any(m not in METHODS for m in methods):
        raise ValueError("the hit-score baseline is not a posterior method")
    rows = {m: METHODS[m] for m in methods}
    m1 = ModelSpec(Family.M1)
    weights = {
        m: nonres_weight if row.nonres_weight is None else row.nonres_weight
        for m, row in rows.items()
    }
    return _Plan(
        resident={
            m: m1 if label.kind is SubtypeKind.M1 else row.buffer for m, row in rows.items()
        },
        cluster=m1 if label.kind is SubtypeKind.M3 else None,
        nonres=ModelSpec(Family.NONRES) if any(weights.values()) else None,
        weights=weights,
    )


def prior_kinds(
    methods: Sequence[MethodId],
    label: SubtypeLabel,
    nonres_weight: float = NONRES_WEIGHT_FROM_FREQUENCIES,
) -> frozenset[PriorKind]:
    """The parameter prior kinds ``method_surfaces`` reads for these
    methods, this label and this weight: those of every model it fits."""
    plan = _plan(methods, label, nonres_weight)
    specs = [*plan.resident.values(), plan.cluster, plan.nonres]
    return frozenset(
        spec.prior_kind(param)
        for spec in specs
        if spec is not None
        for param in _PARAMS[spec.family]
    )


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

    ``_plan`` picks the models. Each resident model family gets one
    surface on all sites. An M3 label blends each of those equally with
    one M1 surface per cluster, fitted to that cluster's sites and shared
    by every buffer model. The non-resident surface is computed once. The
    surfaces on all sites share the series' statistics and every block
    quadrature they have in common. ``priors`` needs only the kinds
    ``prior_kinds`` names.
    """
    plan = _plan(methods, label, nonres_weight)
    if not plan.resident:
        return {}
    # every model fitted to all sites reads one set of statistics and
    # block quadratures; nothing outlives this call
    fitted = [*plan.resident.values(), plan.nonres]
    terms = _Terms(series, priors, grid, {s.family for s in fitted if s is not None})

    def surface(spec: ModelSpec, part: CrimeSeries | None = None) -> PosteriorSurface:
        spec = replace(spec, quadrature=quadrature)
        if part is not None:  # a cluster's sites share nothing
            return posterior_surface(part, spec, priors, grid)
        return posterior_surface(series, spec, priors, grid, terms=terms)

    # keyed by family: a spec holding prior_kinds cannot be hashed
    models = {spec.family: spec for spec in plan.resident.values()}
    resident = {family: surface(spec) for family, spec in models.items()}
    if plan.cluster is not None:
        clusters = [surface(plan.cluster, series.restrict(c)) for c in label.clusters]
        equal = [1.0 / (len(clusters) + 1)] * (len(clusters) + 1)
        resident = {f: multimodel_combine([*clusters, s], equal) for f, s in resident.items()}
    nonres = None if plan.nonres is None else surface(plan.nonres)
    out = {}
    for method, w in plan.weights.items():
        base = resident[plan.resident[method].family]
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
