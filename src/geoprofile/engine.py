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

The families are data: FAMILIES lists each one's Gaussian blocks. A block
names its statistics function, which turns an offender's crime-major
geometry into per-cell sums of one per-crime scalar and its square (the
distance r or the bearing phi), its parameters' default prior kinds and
node counts, and a map from the parameter nodes to the Gaussian's mean,
spread and log normaliser. A block's sum over crimes depends on the cell
only through those sums, so the node sweep is a dense array operation,
not a per-cell loop, and a block in a new scalar is a new row with its
own statistics function. A family's tensor sum over all its nodes
factorizes exactly into the product of its block sums, so the blocks'
log-quadratures add.

Grid cells are the contiguous axis throughout: the per-crime scalars are
laid out (crimes, cells), built from each crime's offsets to the grid's
columns and rows, and the node exponents (nodes, cells). Each cell's
crimes and nodes are summed by column adds that replay numpy's row-sum
order (``_pairwise_sum``), so every surface is bit for bit the cell-major
formulation, ``log_marginal_likelihood_direct`` in tests/oracles.py.

The node sweep of a block (``_log_quad``) fills the exponents by matmul
sub-calls of at most ``BLAS_ONE_THREAD_MAX`` multiply-adds, OpenBLAS's
bound for running a call on its calling thread, so the library's own
threads never wake to compete for the second core. Each sub-call covers
a multiple of 16 cells, and a grid's remainder past the last multiple
gets a sub-call of its own: one matmul over all cells gives those
remainder cells other bits than the cell-major formulation. The cells
are swept in tiles at most two full sub-calls wide, 1 MiB of exponents
at the bound, and each tile runs the whole pass chain (matmul, peak, shift,
floor, ``exp``, node sum, ``log``) while it sits in a 2 MiB L2 cache;
streaming all cells through each pass in turn missed the cache on most
reads. Where the process may use two CPUs, the calling thread and one
long-lived worker thread claim tiles one at a time until none are
left, each in its own tile buffer that the caller allocates; once
its own loop ends, the caller cancels the worker's task if it has not
started, so a worker that is slow to start costs at most one tile.
Otherwise the caller sweeps every tile. Every pass but the matmul is
elementwise per cell, so neither the tiles nor who sweeps them change
any bits.

The methods are data too: METHODS gives each posterior method its
resident buffer-zone model and the weight of its non-resident surface.
``method_surfaces`` computes an offender's per-cell statistics once per
statistics function and each distinct block quadrature once, so the ring
model and the directional model share their radial block.
"""

from __future__ import annotations

import contextvars
import enum
import math
import os
import threading
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
# its own worker threads, which then spin on the core the sweep's worker
# thread needs.
BLAS_ONE_THREAD_MAX = 4 * 65536

# The node sweep's matmul sub-calls start on multiples of this many cells;
# a remainder past the last multiple gets a sub-call of its own (``_tiles``).
_CELL_ALIGN = 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The node sweep's tiles are shared by the caller and one long-lived worker
# thread where the process may use two CPUs; otherwise the caller sweeps
# them all.
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
    stats: Callable  # (ex, ny, r, on_anchor) of ``_Terms`` -> (cells, 4) ``_sum_stats``
    params: tuple[Param, ...]
    gaussian: Callable  # flattened node tensor -> (mean, spread, log normaliser)


def _distance_stats(ex, ny, r, on_anchor):
    """The distance r, nudged off a cell centre; every crime counts."""
    return _sum_stats(np.where(on_anchor, ANCHOR_NUDGE_KM, r), len(r))


def _bearing_stats(ex, ny, r, on_anchor):
    """The bearing phi in [0, 2 pi). A crime site exactly on a candidate
    anchor has no bearing; it is treated as sitting a nominal 1e-6 km away
    in the preferred direction, which zeroes its bearing residual for
    every node, and it is not counted."""
    phi = np.arctan2(ny[:, :, None], ex[:, None, :]).reshape(r.shape)
    # the turn to [0, 2 pi) as np.mod gives it: -pi on the branch cut
    # becomes pi and a zero becomes +0.0
    phi += np.where(phi < 0.0, TWO_PI, 0.0)
    phi[on_anchor | (phi >= TWO_PI)] = 0.0
    return _sum_stats(phi, len(r) - on_anchor.sum(axis=0))


def _radial(a, s):
    """The ring normal in r: mean alpha, spread sigma and the log of its
    radius integral."""
    return a, s, np.log(radial_normalizer(a, s))


FAMILIES: dict[Family, tuple[Block, ...]] = {
    # isotropic normal: x = r, mean 0, 2 s^2 = 4 alpha^2 / pi, normaliser 4 alpha^2
    Family.M1: (
        Block(_distance_stats, (Param("alpha", PriorKind.DISTANCE_M1, 32),),
              lambda a: (0.0, a * math.sqrt(2.0 / math.pi), np.log(4.0 * a**2))),
    ),
    # the ring is the distance-and-bearing family's radial block under a
    # uniform bearing: the uniform's density 1 / (2 pi) is one constant
    # factor per crime, which normalising the surface removes
    Family.M2: (
        Block(_distance_stats, (Param("alpha", PriorKind.DISTANCE_M2, 32),
                                Param("sigma", PriorKind.SPREAD_RADIAL, 8)),
              _radial),
    ),
    Family.NONRES: (
        Block(_distance_stats, (Param("alpha", PriorKind.DISTANCE_NONRES, 32),
                                Param("sigma1", PriorKind.SPREAD_RADIAL, 8)),
              _radial),
        Block(_bearing_stats, (Param("theta", PriorKind.ANGLE_NONRES, 32),
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
    way. Here each of those adds is one column add, and the eight
    accumulators are one ``np.add.reduce`` over the outer axis of the
    first ``blocks`` values viewed as (blocks / 8, 8, ...): numpy reduces
    an outer axis strictly in order. ``x`` is scratch: the sums are
    written into it or into a new array, one row of which is returned.
    """
    n = len(x)
    if n < 8:
        for i in range(1, n):
            x[0] += x[i]
        return x[0]
    if n <= 128:
        blocks = n - n % 8
        acc = x[:8] if blocks == 8 else np.add.reduce(x[:blocks].reshape(-1, 8, *x.shape[1:]))
        acc[0:8:2] += acc[1:8:2]
        acc[0:8:4] += acc[2:8:4]
        acc[0] += acc[4]
        for i in range(blocks, n):
            acc[0] += x[i]
        return acc[0]
    half = n // 2 - (n // 2) % 8
    first = _pairwise_sum(x[:half])
    first += _pairwise_sum(x[half:])
    return first


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
    contiguous cells and the node sum replays numpy's row-sum order. The
    cells are cut into tiles (``_tiles``), each swept whole in a tile
    buffer that the caller allocates. Where ``_PARTS`` is 2, the caller
    and the worker thread claim tiles one at a time until none are left;
    the worker runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds there too. Once its own loop ends, the
    caller cancels the worker's task if it has not started and otherwise
    waits for it; an error in either is raised after that wait, the
    caller's first.
    """
    ncells = len(stats)
    # the sub-calls run several times as fast on a C-contiguous coeffs.T
    # as on its transposed view
    lhs = np.ascontiguousarray(coeffs.T)
    quad = np.empty(ncells)
    tiles = _tiles(ncells, lhs.size)
    width = max(edges[-1] - edges[0] for edges in tiles)
    claims = (iter(tiles), threading.Lock())
    if _PARTS == 1 or len(tiles) == 1:
        _sweep(lhs, stats.T, np.empty((len(lhs), width)), quad, claims)
        return quad
    mine, theirs = np.empty((2, len(lhs), width))
    worker = _WORKER.submit(
        contextvars.copy_context().run, _sweep, lhs, stats.T, theirs, quad, claims
    )
    try:
        _sweep(lhs, stats.T, mine, quad, claims)
    finally:
        # a task still queued has no tile left to claim
        if not worker.cancel():
            wait((worker,))
    if not worker.cancelled():
        worker.result()
    return quad


def _tiles(ncells: int, size: int) -> list[list[int]]:
    """The edges of ``_log_quad``'s matmul sub-calls over ``ncells`` cells
    for a coeffs.T of ``size`` entries, cut into tiles at most two full
    sub-calls wide: a tile is the edges of its sub-calls.

    Each sub-call stays within ``BLAS_ONE_THREAD_MAX``, so OpenBLAS
    computes it on its calling thread, and covers a multiple of
    ``_CELL_ALIGN`` cells, but for a remainder, which gets a sub-call of
    its own with the aligned block before it: in a larger sub-call
    OpenBLAS gives a remainder's cells other bits than the cell-major
    product. The remainder's short sub-calls join the tile before them
    where they fit. At ``BLAS_ONE_THREAD_MAX`` a tile holds at most 1 MiB
    of exponents, whatever the node count, which stays in a 2 MiB L2
    cache through the whole pass chain.
    """
    cells = max(_CELL_ALIGN, BLAS_ONE_THREAD_MAX // size // _CELL_ALIGN * _CELL_ALIGN)
    tail = ncells - ncells % _CELL_ALIGN
    if tail < ncells:
        tail = max(0, tail - _CELL_ALIGN)
    edges = sorted({*range(0, tail, cells), tail, ncells})
    tiles = [[0]]
    for a, b in zip(edges, edges[1:]):
        if b - tiles[-1][0] > 2 * cells:
            tiles.append([a])
        tiles[-1].append(b)
    return tiles


def _sweep(lhs, rhs, buf, quad, claims) -> None:
    """Sweep tiles in ``buf`` until none are left to claim; ``claims`` is
    the tiles' shared iterator and the lock that hands each out once."""
    tiles, lock = claims
    while True:
        with lock:
            edges = next(tiles, None)
        if edges is None:
            return
        _log_quad_tile(lhs, rhs, buf, quad, edges)


def _log_quad_tile(lhs, rhs, buf, quad, edges) -> None:
    """``_log_quad`` of one tile's cells [edges[0], edges[-1]) into
    ``quad``, through the first columns of ``buf``: the matmul, peak,
    shift, floor, ``exp``, node sum and ``log`` all run while the tile's
    exponents sit in cache. ``lhs`` is a C-contiguous coeffs.T, ``rhs``
    is stats.T, and each pair of consecutive edges is one sub-call.
    """
    nodes, k = lhs.shape
    start, stop = edges[0], edges[-1]
    vals = buf[:, : stop - start]
    for a, b in zip(edges, edges[1:]):
        # node tensors past BLAS_ONE_THREAD_MAX / (k * _CELL_ALIGN) nodes
        # take more than one sub-call per cell block
        rows = max(1, BLAS_ONE_THREAD_MAX // (k * (b - a)))
        for r in range(0, nodes, rows):
            np.matmul(lhs[r : r + rows], rhs[:, a:b], out=vals[r : r + rows, a - start : b - start])
    peak = vals.max(axis=0)
    # a cell that underflowed at every node is shifted by 0, not by -inf
    # (which would give NaN); adding back its -inf peak keeps it -inf
    vals -= np.where(np.isfinite(peak), peak, 0.0)
    np.maximum(vals, LOG_SUM_EXP_FLOOR, out=vals)
    np.exp(vals, out=vals)
    quad[start:stop] = np.log(_pairwise_sum(vals)) + peak - math.log(nodes)


class _Terms:
    """One series' per-cell statistics and block log-quadratures on one
    grid under one prior set, each computed once.

    The statistics that the named families' blocks name are built up
    front, each function once, from one crime-major geometry. A block's
    log-quadrature is kept under its statistics function, its Gaussian
    map and each parameter's prior kind, node count and fixed value: two
    blocks that agree on those sum the same node tensor over the same
    statistics. So the ring model shares the directional model's radial
    block whenever their radial priors and nodes agree.
    """

    def __init__(self, series: CrimeSeries, priors: PriorSet, grid: Grid, families) -> None:
        self.series, self.priors, self.grid = series, priors, grid
        xy = series.xy
        n = len(xy)
        # crime-major geometry: the offsets ex (crimes, cols) and ny (crimes,
        # rows) of each crime from the cell centres' columns and rows, then
        # distances r and crimes on a centre (crimes, cells). x - c is exactly
        # -(c - x), so squares and bearings match the cell-major formulation
        # in tests/oracles.py bit for bit
        ex = xy[:, :1] - grid.east_centers
        ny = xy[:, 1:] - grid.north_centers
        r = np.empty((n, grid.nrows, grid.ncols))
        r[...] = (ex * ex)[:, None, :]
        r += (ny * ny)[:, :, None]
        r = np.sqrt(r, out=r).reshape(n, grid.ncells)
        on_anchor = r < ANCHOR_COINCIDENCE_KM
        # the geometry is freed on return, before any quadrature
        stats = dict.fromkeys(block.stats for family in families for block in FAMILIES[family])
        self.stats = {f: f(ex, ny, r, on_anchor) for f in stats}
        self._quads: dict[tuple, np.ndarray] = {}

    def log_likelihood(self, spec: ModelSpec) -> np.ndarray:
        """log of ``spec``'s quadrature sum per cell, flattened row-major:
        the sum of its family's block log-quadratures, in FAMILIES order."""
        # a new array: the kept block arrays are never written
        return sum(self._block(block, spec) for block in FAMILIES[spec.family])

    def _block(self, block: Block, spec: ModelSpec) -> np.ndarray:
        fixed = spec.fixed_overrides or {}
        key = (block.stats, block.gaussian, tuple(
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
            self._quads[key] = _log_quad(self.stats[block.stats], coeffs)
        return self._quads[key]


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
