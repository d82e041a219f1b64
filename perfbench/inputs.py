"""Seeded input populations for the benchmark, written as CSV.

Inputs come from this file alone (Python's ``random.Random``), never from
``geoprofile.synthetic``, so a library change cannot change what the
benchmark feeds it. The same seed gives byte-identical files.

Population shape follows the study grid: anchors uniform over easting
320-380 km and northing 4345-4385 km, well inside the default 100 x 70 km
grid. Behaviour classes are assigned in a fixed cycle and series lengths
from a balanced, shuffled list. Each series is redrawn until its geometry
gets the subtype its class is meant to have under the classification rule
(copied below), so every seed has the same subtype mix and the same mix of
engine work; the seed moves only the geometry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PLANAR_HEADER = (
    "offender_id,crime_id,ucr_code,zone,"
    "crime_easting_km,crime_northing_km,anchor_easting_km,anchor_northing_km"
)
LATLON_HEADER = "offender_id,crime_id,ucr_code,crime_lat,crime_lon,anchor_lat,anchor_lon"

ZONE = 18
ANCHOR_EAST_KM = (320.0, 380.0)
ANCHOR_NORTH_KM = (4345.0, 4385.0)
SERIES_LENGTHS = tuple(range(3, 15))  # n in [3, 15)
MIN_SERIES_LENGTH = 3  # the library drops shorter series on load

# Geographic box whose projection into UTM zone 18 lies inside the anchor
# rectangle above (corners project to roughly E 323-378, N 4348-4383 km).
ANCHOR_LAT = (39.27, 39.58)
ANCHOR_LON = (-77.05, -76.42)
KM_PER_DEG_LAT = 110.95

# Behaviour classes in the order they are assigned: tight residents,
# buffer-zone residents, far-travelling non-residents, clustered residents.
CLASS_CYCLE = ("M1", "M2", "NONRES", "M1", "M2", "M3")
SUBTYPE_OF_CLASS = {"M1": "M1", "M2": "M2", "NONRES": "M2", "M3": "M3"}
MAX_DRAWS = 10_000

# geoprofile.classify defaults: nearest-neighbour threshold and single-
# linkage cutoff (km), coverage needed for one cluster and for several
NN_THRESHOLD_KM = CLUSTER_CUTOFF_KM = 2.0
SINGLE_CLUSTER_COVERAGE, MULTI_CLUSTER_COVERAGE = 0.8, 0.6


@dataclass(frozen=True)
class Offender:
    offender_id: str
    behaviour: str
    anchor: tuple[float, float]
    crimes: tuple[tuple[float, float], ...]


def _normal_radius(rng: random.Random, mean: float, sd: float) -> float:
    while True:
        r = rng.gauss(mean, sd)
        if r > 0.0:
            return r


def _offsets(rng: random.Random, behaviour: str, n: int) -> list[tuple[float, float]]:
    """Crime-site offsets (km) from the anchor for one behaviour class."""
    if behaviour == "M1":
        spread = math.sqrt(2.0 / math.pi) * 1.5
        return [(rng.gauss(0.0, spread), rng.gauss(0.0, spread)) for _ in range(n)]
    if behaviour == "M2":
        out = []
        for _ in range(n):
            r, a = _normal_radius(rng, 5.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            out.append((r * math.cos(a), r * math.sin(a)))
        return out
    if behaviour == "NONRES":
        out = []
        for _ in range(n):
            r, a = _normal_radius(rng, 15.0, 2.0), rng.gauss(1.0, 0.3)
            out.append((r * math.cos(a), r * math.sin(a)))
        return out
    # M3: two tight clusters on opposite sides of the anchor, at least two
    # sites each, far enough apart that single linkage keeps them separate
    a0 = rng.uniform(0.0, 2.0 * math.pi)
    centres = []
    for k in range(2):
        r, a = rng.uniform(4.0, 7.0), a0 + k * math.pi + rng.uniform(-0.5, 0.5)
        centres.append((r * math.cos(a), r * math.sin(a)))
    out = []
    for i in range(n):
        cx, cy = centres[i % 2]
        out.append((cx + rng.gauss(0.0, 0.4), cy + rng.gauss(0.0, 0.4)))
    return out


def subtype(points: list[tuple[float, float]]) -> str:
    """Subtype of a series under the classification rule, computed independently."""
    n = len(points)
    near = [[math.dist(p, q) <= CLUSTER_CUTOFF_KM for q in points] for p in points]
    component = [-1] * n
    sizes = []
    for start in range(n):
        if component[start] < 0:
            component[start], stack, size = len(sizes), [start], 0
            while stack:
                i = stack.pop()
                size += 1
                for j in range(n):
                    if near[i][j] and component[j] < 0:
                        component[j] = component[start]
                        stack.append(j)
            sizes.append(size)
    clusters = [size for size in sizes if size >= 2]
    nn = sorted(min(math.dist(p, q) for j, q in enumerate(points) if j != i)
                for i, p in enumerate(points))
    median_nn = nn[n // 2] if n % 2 else (nn[n // 2 - 1] + nn[n // 2]) / 2.0
    if (
        median_nn <= NN_THRESHOLD_KM
        and len(clusters) == 1
        and clusters[0] / n >= SINGLE_CLUSTER_COVERAGE
    ):
        return "M1"
    if len(clusters) >= 2 and sum(clusters) / n >= MULTI_CLUSTER_COVERAGE:
        return "M3"
    return "M2"


def _series(rng: random.Random, behaviour: str, n: int) -> list[tuple[float, float]]:
    """Offsets for one series, redrawn until they have the class's subtype."""
    for _ in range(MAX_DRAWS):
        offsets = _offsets(rng, behaviour, n)
        if subtype(offsets) == SUBTYPE_OF_CLASS[behaviour]:
            return offsets
    raise RuntimeError(f"no {behaviour} series of {n} crimes in {MAX_DRAWS} draws")


def _lengths(rng: random.Random, count: int, lengths=SERIES_LENGTHS) -> list[int]:
    """Balanced series lengths: every length equally often, seeded order."""
    out = [lengths[i % len(lengths)] for i in range(count)]
    rng.shuffle(out)
    return out


def planar_population(seed: int, n_offenders: int) -> list[Offender]:
    """Mixed M1 / M2 / M3 / non-resident population on the planar frame."""
    rng = random.Random(f"planar:{seed}:{n_offenders}")
    lengths = _lengths(rng, n_offenders)
    out = []
    for i in range(n_offenders):
        behaviour = CLASS_CYCLE[i % len(CLASS_CYCLE)]
        n = max(lengths[i], 4) if behaviour == "M3" else lengths[i]
        anchor = (rng.uniform(*ANCHOR_EAST_KM), rng.uniform(*ANCHOR_NORTH_KM))
        crimes = tuple(
            (anchor[0] + dx, anchor[1] + dy) for dx, dy in _series(rng, behaviour, n)
        )
        out.append(Offender(f"p{i:05d}", behaviour, anchor, crimes))
    return out


def latlon_population(seed: int, n_offenders: int, short_share: float = 0.05) -> list[Offender]:
    """Mixed population in WGS84 degrees; about ``short_share`` of the
    offenders have only 1 or 2 crimes, which ingestion drops."""
    rng = random.Random(f"latlon:{seed}:{n_offenders}")
    n_short = round(n_offenders * short_share)
    lengths = _lengths(rng, n_offenders - n_short) + _lengths(rng, n_short, (1, 2))
    rng.shuffle(lengths)
    out = []
    for i, n in enumerate(lengths):
        behaviour = CLASS_CYCLE[i % len(CLASS_CYCLE)]
        if behaviour == "M3" and n >= MIN_SERIES_LENGTH:
            n = max(n, 4)
        lat, lon = rng.uniform(*ANCHOR_LAT), rng.uniform(*ANCHOR_LON)
        km_per_deg_lon = KM_PER_DEG_LAT * math.cos(math.radians(lat))
        offsets = _series(rng, behaviour, n) if n >= MIN_SERIES_LENGTH else (
            _offsets(rng, behaviour, n)
        )
        crimes = tuple(
            (lat + dy / KM_PER_DEG_LAT, lon + dx / km_per_deg_lon) for dx, dy in offsets
        )
        out.append(Offender(f"g{i:05d}", behaviour, (lat, lon), crimes))
    return out


def planar_csv(population: list[Offender]) -> str:
    lines = [PLANAR_HEADER]
    for o in population:
        for k, (e, n) in enumerate(o.crimes):
            lines.append(
                f"{o.offender_id},{o.offender_id}_{k},0000,{ZONE},"
                f"{e!r},{n!r},{o.anchor[0]!r},{o.anchor[1]!r}"
            )
    return "\n".join(lines) + "\n"


def latlon_csv(population: list[Offender]) -> str:
    lines = [LATLON_HEADER]
    for o in population:
        for k, (lat, lon) in enumerate(o.crimes):
            lines.append(
                f"{o.offender_id},{o.offender_id}_{k},0000,"
                f"{lat!r},{lon!r},{o.anchor[0]!r},{o.anchor[1]!r}"
            )
    return "\n".join(lines) + "\n"


def kept(population: list[Offender]) -> list[Offender]:
    """Offenders the library keeps on load (series of 3 or more crimes)."""
    return [o for o in population if len(o.crimes) >= MIN_SERIES_LENGTH]
