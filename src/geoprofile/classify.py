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

from geoprofile.geodesy import UtmPoint

__all__ = [
    "SubtypeKind",
    "SubtypeLabel",
    "nn_distances",
    "detect_clusters",
    "classify",
]

NN_THRESHOLD_KM = 2.0
CLUSTER_CUTOFF_KM = 2.0
SINGLE_CLUSTER_COVERAGE = 0.8
MULTI_CLUSTER_COVERAGE = 0.6


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
    """Coerce a site sequence (UtmPoint or coordinate pairs) to an (n, 2) array."""
    if len(sites) and isinstance(sites[0], UtmPoint):
        return np.array([(s.easting, s.northing) for s in sites], dtype=float)
    out = np.asarray(sites, dtype=float)
    if out.ndim != 2 or out.shape[1] != 2:
        raise ValueError(f"expected (n, 2) site coordinates, got shape {out.shape}")
    return out


def _pairwise(xy: np.ndarray, metric: str) -> np.ndarray:
    diff = xy[:, None, :] - xy[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff**2).sum(axis=-1))
    if metric == "manhattan":
        return np.abs(diff).sum(axis=-1)
    raise ValueError(f"unknown metric {metric!r}")


def _nearest(d: np.ndarray) -> np.ndarray:
    """Row minima of a pairwise matrix over the other sites; ``d`` is kept."""
    d = d.copy()
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array, bit for bit, from one sort: the middle
    value, or the mean of the two middle values for an even length; NaN
    if any value is NaN (the sort puts NaN last)."""
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _components(d: np.ndarray, cutoff: float) -> list[frozenset[int]]:
    """Clusters of a pairwise matrix at the cutoff, as ``detect_clusters``."""
    if cutoff <= 0.0:
        raise ValueError("cutoff must be > 0")
    adjacent = (d <= cutoff).tolist()
    seen = [False] * len(adjacent)
    clusters = []
    for start in range(len(adjacent)):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        for i in members:  # grows while it is read: a breadth-first search
            for j, near in enumerate(adjacent[i]):
                if near and not seen[j]:
                    seen[j] = True
                    members.append(j)
        if len(members) >= 2:
            clusters.append(frozenset(members))
    return clusters


def nn_distances(sites, metric: str = "euclidean") -> np.ndarray:
    """Distance from each site to its nearest other site."""
    xy = as_xy(sites)
    if len(xy) < 2:
        raise ValueError("need at least 2 sites for nearest-neighbour distances")
    return _nearest(_pairwise(xy, metric))


def detect_clusters(sites, cutoff: float = CLUSTER_CUTOFF_KM) -> list[frozenset[int]]:
    """Single-linkage components at the cutoff; isolated sites are not clusters.

    Components are connected components of the graph with an edge wherever
    two sites are within ``cutoff`` of each other, so chains link up.
    Returned in order of each component's smallest site index.
    """
    xy = as_xy(sites)
    if len(xy) < 2:
        raise ValueError("need at least 2 sites to detect clusters")
    return _components(_pairwise(xy, "euclidean"), cutoff)


def classify(
    sites,
    *,
    nn_threshold_km: float = NN_THRESHOLD_KM,
    cluster_cutoff_km: float = CLUSTER_CUTOFF_KM,
    single_cluster_coverage: float = SINGLE_CLUSTER_COVERAGE,
    multi_cluster_coverage: float = MULTI_CLUSTER_COVERAGE,
) -> SubtypeLabel:
    """Assign a subtype from site geometry.

    Tight offenders (median nearest-neighbour distance within the
    threshold, essentially one cluster) have no buffer zone. Several
    clusters covering most sites mean cluster-wise modelling. Everything
    else gets the buffer-zone subtype. The median is used rather than the
    mean so one far-flung site cannot flip the label.
    """
    xy = as_xy(sites)
    if len(xy) < 3:
        raise ValueError("need at least 3 sites to classify")
    d = _pairwise(xy, "euclidean")
    clusters = _components(d, cluster_cutoff_km)
    coverage = sum(len(c) for c in clusters) / len(xy)
    if (
        _median(_nearest(d)) <= nn_threshold_km
        and len(clusters) == 1
        and len(clusters[0]) / len(xy) >= single_cluster_coverage
    ):
        return SubtypeLabel(SubtypeKind.M1)
    if len(clusters) >= 2 and coverage >= multi_cluster_coverage:
        return SubtypeLabel(SubtypeKind.M3, tuple(clusters))
    return SubtypeLabel(SubtypeKind.M2)
