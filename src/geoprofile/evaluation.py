"""Search-fraction evaluation of anchor-point methods.

Cells are examined in descending posterior order (ties resolved by
row-major index, so results are reproducible); the per-offender score is
the fraction of the jurisdiction explored before reaching the cell that
contains the true anchor. Accumulation curves aggregate those fractions
over a population at fixed exploration thresholds, matching how competing
methods are usually tabulated against each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# compare_methods labels with label_dataset; perfbench's tracer still looks
# up evaluation.classify by name, so the name stays bound here
from geoprofile.classify import SubtypeLabel, classify, label_dataset  # noqa: F401
from geoprofile.dataset import CrimeSeries, Dataset, csv_text
from geoprofile.engine import (
    DegenerateSurfaceError,
    MethodId,
    NONRES_WEIGHT_FROM_FREQUENCIES,
    PosteriorSurface,
    check_nonres_weight,
    check_quadrature,
    method_surfaces,
    prior_kinds,
)
from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid, check_grid_zone, locate_cell
from geoprofile.priors import DonorTable, InsufficientDataError, build_prior_set, is_nonresident
from geoprofile.rossmo import hit_score_surface

__all__ = [
    "Scope",
    "SearchResult",
    "AccumulationCurve",
    "FailureRecord",
    "EvaluationReport",
    "RESIDENTS_THRESHOLDS",
    "ALL_THRESHOLDS",
    "is_nonresident",
    "rank_cells",
    "search_fraction",
    "accumulation_curve",
    "offender_surfaces",
    "compare_methods",
]

RESIDENTS_THRESHOLDS = tuple(t / 100.0 for t in (*range(1, 11), 16, 17))
ALL_THRESHOLDS = tuple(t / 100.0 for t in (1, 5, 10, 15, 20, 25, 36, 37, 38, 39))


class Scope(enum.Enum):
    RESIDENTS_ONLY = "residents"
    ALL = "all"


@dataclass(frozen=True)
class SearchResult:
    offender_id: str
    method: MethodId
    cells_examined: int
    fraction: float

    def __post_init__(self) -> None:
        if self.cells_examined < 1:
            raise ValueError("cells_examined is 1-based")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")


@dataclass(frozen=True)
class AccumulationCurve:
    method: MethodId
    thresholds: tuple[float, ...]
    found_fraction: tuple[float, ...]


@dataclass(frozen=True)
class FailureRecord:
    offender_id: str
    method: str
    message: str


def _ranking(surface: PosteriorSurface) -> np.ndarray:
    # stable argsort of the negated mass: ties stay in row-major order
    return np.argsort(-surface.mass.ravel(), kind="stable")


def rank_cells(surface: PosteriorSurface) -> list[tuple[int, int]]:
    """All cells, best first; deterministic under ties."""
    rows, cols = np.divmod(_ranking(surface), surface.grid.ncols)
    return list(zip(rows.tolist(), cols.tolist()))


def search_fraction(
    surface: PosteriorSurface,
    anchor: UtmPoint,
    offender_id: str = "",
    method: MethodId = MethodId.ROSSMO,
) -> SearchResult:
    """1-based rank of the anchor's cell in the surface ordering."""
    row, col = locate_cell(surface.grid, anchor)
    target = row * surface.grid.ncols + col
    mass = surface.mass.ravel()
    # same tie rule as _ranking: equal cells earlier in row-major order win
    rank = 1 + int(np.count_nonzero(mass > mass[target]))
    rank += int(np.count_nonzero(mass[:target] == mass[target]))
    return SearchResult(
        offender_id=offender_id,
        method=method,
        cells_examined=rank,
        fraction=rank / surface.grid.ncells,
    )


def accumulation_curve(
    results: Sequence[SearchResult],
    thresholds: Sequence[float],
    method: MethodId = MethodId.ROSSMO,
) -> AccumulationCurve:
    """Fraction of anchors found within each exploration threshold."""
    if not results:
        raise ValueError("need at least one search result")
    if any(not 0.0 < t <= 1.0 for t in thresholds):
        raise ValueError("thresholds must lie in (0, 1]")
    fractions = np.array([r.fraction for r in results])
    found = tuple(float((fractions <= t).mean()) for t in thresholds)
    return AccumulationCurve(
        method=method, thresholds=tuple(float(t) for t in thresholds), found_fraction=found
    )


@dataclass
class EvaluationReport:
    scope: Scope
    thresholds: tuple[float, ...]
    methods: tuple[MethodId, ...]
    results: list[SearchResult] = field(default_factory=list)
    curves: list[AccumulationCurve] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    subtypes: dict[str, str] = field(default_factory=dict)

    def results_csv(self) -> str:
        return csv_text(
            ("offender_id", "method", "subtype", "cells_examined", "fraction"),
            (
                (r.offender_id, r.method.value, self.subtypes.get(r.offender_id, ""),
                 r.cells_examined, r.fraction)
                for r in self.results
            ),
        )

    def curves_csv(self) -> str:
        return csv_text(
            ("method", "threshold", "found_fraction"),
            (
                (curve.method.value, t, f)
                for curve in self.curves
                for t, f in zip(curve.thresholds, curve.found_fraction)
            ),
        )

    def format_table(self) -> str:
        """Threshold-by-method matrix of found fractions."""
        header = ["explored"] + [f"{t:.0%}" for t in self.thresholds]
        widths = [max(8, len(h)) for h in header]
        rows = [header]
        for curve in self.curves:
            rows.append(
                [curve.method.value] + [f"{f:.4f}" for f in curve.found_fraction]
            )
        out = []
        for row in rows:
            out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(out)


def offender_surfaces(
    ds: Dataset,
    series: CrimeSeries,
    methods: Sequence[MethodId],
    labels: Mapping[str, SubtypeLabel],
    grid: Grid,
    nonres_weight: float,
    quadrature: Mapping[str, int] | None,
    *,
    table: DonorTable | None = None,
) -> dict[MethodId, PosteriorSurface]:
    """One offender's surfaces, in the order of ``methods``: one LOO prior
    build, from ``table`` if given, and one ``method_surfaces`` call for
    the posterior methods, then the hit score. Domain errors are raised,
    the posterior part's first."""
    posterior = [m for m in methods if m is not MethodId.ROSSMO]
    surfaces = {}
    if posterior:
        label = labels[series.offender_id]
        kinds = prior_kinds(posterior, label, nonres_weight)
        priors = build_prior_set(ds, series.offender_id, labels, grid, kinds, table=table)
        surfaces = method_surfaces(
            series, posterior, label, priors, grid, nonres_weight, quadrature
        )
    if MethodId.ROSSMO in methods:
        surfaces[MethodId.ROSSMO] = hit_score_surface(series, grid)
    return {m: surfaces[m] for m in methods}


def compare_methods(
    ds: Dataset,
    methods: Sequence[MethodId],
    scope: Scope,
    grid: Grid | None = None,
    nonres_weight: float = NONRES_WEIGHT_FROM_FREQUENCIES,
    classifier_options: dict | None = None,
    quadrature: dict | None = None,
) -> EvaluationReport:
    """Full pipeline over a dataset: classify, leave-one-out priors,
    per-method surfaces, search fractions, accumulation curves.

    Per-offender domain failures are recorded, not logged, and skipped:
    no anchor, an anchor outside the grid, too few donors for the
    leave-one-out priors, a posterior that underflows in every cell, hit
    scores without a finite positive sum. Other exceptions propagate.
    A repeated method is scored once. A ``nonres_weight`` outside [0, 1],
    a bad ``quadrature`` (a parameter no family has, a count below 1) and
    a series in another zone than the grid's are the caller's errors and
    raise before any offender is scored.
    """
    check_nonres_weight(nonres_weight)
    check_quadrature(quadrature)
    grid = grid or Grid()
    for series in ds.series:
        check_grid_zone(grid, series.zone, f"offender {series.offender_id!r}")
    methods = tuple(dict.fromkeys(methods))
    thresholds = (
        RESIDENTS_THRESHOLDS if scope is Scope.RESIDENTS_ONLY else ALL_THRESHOLDS
    )
    labels = label_dataset(ds, **(classifier_options or {}))
    report = EvaluationReport(
        scope=scope,
        thresholds=thresholds,
        methods=methods,
        subtypes={oid: label.kind.value for oid, label in labels.items()},
    )

    # the posterior methods and the hit score fail apart
    rossmo = (MethodId.ROSSMO,) if MethodId.ROSSMO in methods else ()
    groups = [g for g in (tuple(m for m in methods if m not in rossmo), rossmo) if g]
    # the residency test and every LOO build of this call read one set of
    # donor statistics and shared densities; nothing outlives the call
    table = DonorTable(ds, labels)
    for series in ds.series:
        oid = series.offender_id
        if series.anchor is None:
            report.failures.append(FailureRecord(oid, "", "no anchor in dataset"))
            continue
        if scope is Scope.RESIDENTS_ONLY and not table.resident(oid):
            continue
        if not grid.contains(series.anchor):
            report.failures.append(
                FailureRecord(oid, "", "anchor outside the jurisdiction grid")
            )
            continue

        surfaces: dict[MethodId, PosteriorSurface] = {}
        for group in groups:
            try:
                surfaces |= offender_surfaces(
                    ds, series, group, labels, grid, nonres_weight, quadrature, table=table
                )
            except (InsufficientDataError, DegenerateSurfaceError) as exc:
                report.failures.extend(FailureRecord(oid, m.value, str(exc)) for m in group)

        for m in methods:
            if m in surfaces:
                report.results.append(
                    search_fraction(surfaces[m], series.anchor, oid, m)
                )

    for m in methods:
        method_results = [r for r in report.results if r.method is m]
        if method_results:
            report.curves.append(accumulation_curve(method_results, thresholds, m))
    return report
