"""Offender subtype classification from crime-site geometry alone.

Residents split into three behavioural subtypes: tight single-area
offenders (no buffer zone), spread-out irregular offenders (buffer zone),
and offenders whose sites form several distinct clusters. The rules below
use only pairwise distances between crime sites; the anchor point is
unknown at classification time, so residency itself is not decided here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from geoprofile.dataset import MIN_SERIES_LENGTH

__all__ = [
    "SubtypeKind",
    "SubtypeLabel",
    "check_options",
    "nn_distances",
    "classify",
    "classify_all",
    "label_dataset",
]

NN_THRESHOLD_KM = 2.0
CLUSTER_CUTOFF_KM = 2.0
SINGLE_CLUSTER_COVERAGE = 0.8
MULTI_CLUSTER_COVERAGE = 0.6

# pairwise entries (series x sites x sites) per batch of ``classify_all``,
# which bounds a batch's (k, n, n, 2) coordinate differences at 4 MB
_BATCH_ENTRIES = 1 << 18


class SubtypeKind(enum.Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"


@dataclass(frozen=True)
class SubtypeLabel:
    kind: SubtypeKind
    clusters: tuple[frozenset[int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if (self.kind is SubtypeKind.M3) != bool(self.clusters):
            raise ValueError("clusters must be nonempty exactly for M3 labels")
        seen: set[int] = set()
        for cluster in self.clusters:
            if len(cluster) < 2:
                raise ValueError("every cluster needs at least 2 sites")
            if seen & cluster:
                raise ValueError("clusters must be disjoint")
            seen |= cluster


def as_xy(sites) -> np.ndarray:
    """Site coordinates as an (n, 2) float array."""
    out = np.asarray(sites, dtype=float)
    if out.ndim != 2 or out.shape[1] != 2:
        raise ValueError(f"expected (n, 2) site coordinates, got shape {out.shape}")
    return out


def _pairwise(xy: np.ndarray) -> np.ndarray:
    """Euclidean distances between the sites of an (..., n, 2) array, (..., n, n)."""
    diff = xy[..., None, :] - xy[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _nearest(d: np.ndarray) -> np.ndarray:
    """Row minima of (..., n, n) pairwise matrices over the other sites;
    ``d`` is kept."""
    d = d.copy()
    n = d.shape[-1]
    d[..., range(n), range(n)] = np.inf
    return d.min(axis=-1)


def _components(d: np.ndarray, cutoff: float) -> np.ndarray:
    """Single-linkage components of (..., n, n) pairwise matrices at the
    cutoff, as closed reachability: entry (i, j) is True exactly when sites
    i and j lie in one component."""
    n = d.shape[-1]
    linked = d <= cutoff
    linked[..., range(n), range(n)] = True  # a NaN site still reaches itself
    # squaring doubles the length of the paths the matrix holds, so a few
    # squarings close it; 0/1 products sum exactly in floating point
    while True:
        paths = linked.astype(float)
        grown = np.matmul(paths, paths) > 0.0
        if np.array_equal(grown, linked):
            return linked
        linked = grown


def _clusters(linked: np.ndarray) -> list[frozenset[int]]:
    """The components of 2 or more sites of one series, from its closed
    reachability, in order of each component's smallest site index."""
    clusters = []
    for site, row in enumerate(linked.tolist()):
        members = [j for j, near in enumerate(row) if near]
        if members[0] == site and len(members) >= 2:
            clusters.append(frozenset(members))
    return clusters


def check_options(
    nn_threshold_km: float = NN_THRESHOLD_KM,
    cluster_cutoff_km: float = CLUSTER_CUTOFF_KM,
    single_cluster_coverage: float = SINGLE_CLUSTER_COVERAGE,
    multi_cluster_coverage: float = MULTI_CLUSTER_COVERAGE,
) -> None:
    """Raise ValueError unless both km thresholds are finite and > 0 and
    both coverages lie in [0, 1], which no NaN or infinity does."""
    for name, km in (
        ("nearest-neighbour threshold", nn_threshold_km),
        ("cluster cutoff", cluster_cutoff_km),
    ):
        if not (math.isfinite(km) and km > 0.0):
            raise ValueError(f"{name} must be > 0 and finite, got {km!r}")
    for name, share in (
        ("single-cluster coverage", single_cluster_coverage),
        ("multi-cluster coverage", multi_cluster_coverage),
    ):
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {share!r}")


def _labels(
    d: np.ndarray,
    *,
    nn_threshold_km: float = NN_THRESHOLD_KM,
    cluster_cutoff_km: float = CLUSTER_CUTOFF_KM,
    single_cluster_coverage: float = SINGLE_CLUSTER_COVERAGE,
    multi_cluster_coverage: float = MULTI_CLUSTER_COVERAGE,
) -> list[SubtypeLabel]:
    """Subtype labels of k series of n sites each from their (k, n, n)
    pairwise matrices.

    Tight offenders (median nearest-neighbour distance within the
    threshold, essentially one cluster) have no buffer zone. Several
    clusters covering most sites mean cluster-wise modelling. Everything
    else gets the buffer-zone subtype. The median is used rather than the
    mean so one far-flung site cannot flip the label.
    """
    n = d.shape[-1]
    linked = _components(d, cluster_cutoff_km)
    # each site's component size, and whether it is the component's first site
    size = linked.sum(axis=-1)
    first = linked.argmax(axis=-1) == np.arange(n)
    n_clusters = (first & (size >= 2)).sum(axis=-1)
    coverage = (size >= 2).sum(axis=-1) / n
    m1 = (
        (np.median(_nearest(d), axis=-1) <= nn_threshold_km)
        & (n_clusters == 1)
        & (coverage >= single_cluster_coverage)
    )
    m3 = (n_clusters >= 2) & (coverage >= multi_cluster_coverage)
    labels = []
    for series_linked, is_m1, is_m3 in zip(linked, m1.tolist(), m3.tolist()):
        if is_m1:
            labels.append(SubtypeLabel(SubtypeKind.M1))
        elif is_m3:
            labels.append(SubtypeLabel(SubtypeKind.M3, tuple(_clusters(series_linked))))
        else:
            labels.append(SubtypeLabel(SubtypeKind.M2))
    return labels


def nn_distances(sites) -> np.ndarray:
    """Euclidean distance from each site to its nearest other site."""
    xy = as_xy(sites)
    if len(xy) < 2:
        raise ValueError("need at least 2 sites for nearest-neighbour distances")
    return _nearest(_pairwise(xy))


def classify(sites, **options) -> SubtypeLabel:
    """Subtype of one series from its site geometry: ``classify_all`` of
    that series alone."""
    return classify_all([sites], **options)[0]


def classify_all(xys, **options) -> list[SubtypeLabel]:
    """Subtype of each series of ``xys``, of MIN_SERIES_LENGTH or more sites
    each, by ``_labels``' rules and keyword options, which ``check_options``
    checks first, even when ``xys`` is empty.

    Series of one length are labelled together, a batch of them per pass:
    their pairwise matrices are stacked, so the nearest-neighbour medians
    and the single-linkage components of the batch are array operations.
    """
    check_options(**options)
    xys = list(xys)
    by_length: dict[int, list[int]] = {}
    for i, xy in enumerate(xys):
        xys[i] = xy = as_xy(xy)
        if len(xy) < MIN_SERIES_LENGTH:
            raise ValueError(f"need at least {MIN_SERIES_LENGTH} sites to classify")
        by_length.setdefault(len(xy), []).append(i)
    labels: list[SubtypeLabel] = [None] * len(xys)
    for n, members in by_length.items():
        step = max(1, _BATCH_ENTRIES // (n * n))
        for start in range(0, len(members), step):
            batch = members[start : start + step]
            d = _pairwise(np.stack([xys[i] for i in batch]))
            for i, label in zip(batch, _labels(d, **options)):
                labels[i] = label
    return labels


def label_dataset(ds, **options) -> dict[str, SubtypeLabel]:
    """Each offender's ``classify_all`` label, keyed by id in the dataset's order."""
    return dict(zip(ds.offender_ids(), classify_all([s.xy for s in ds.series], **options)))
