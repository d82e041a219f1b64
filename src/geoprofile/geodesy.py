"""WGS84 geographic to UTM planar conversion.

Forward transverse Mercator on the WGS84 ellipsoid via the Krueger
series in the third flattening n (conformal latitude, then a trig series
to the n^6 terms), so in-zone accuracy is far below a meter. The series
is written once, over numpy arrays: one call projects a whole file's
points, a block of them per pass. Results are kept in kilometers: every
travel-distance parameter downstream is in km.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeoPoint",
    "UtmPoint",
    "OutOfRangeError",
    "utm_zone",
    "latlon_to_utm",
]

# WGS84 ellipsoid
_A_M = 6378137.0
_F = 1.0 / 298.257223563
_E = math.sqrt(_F * (2.0 - _F))

# UTM conventions
SCALE = 0.9996
FALSE_EASTING_KM = 500.0
FALSE_NORTHING_SOUTH_KM = 10000.0

# points per array pass of the Krueger series: blocks this small keep its
# temporary arrays small enough for the allocator to reuse their memory;
# one pass over a 19,000-point file left more of it resident
_BLOCK_POINTS = 2048

# Krueger series in n = f / (2 - f); coefficients through n^6.
_N = _F / (2.0 - _F)
_RECT_RADIUS_M = (_A_M / (1.0 + _N)) * (
    1.0 + _N**2 / 4.0 + _N**4 / 64.0 + _N**6 / 256.0
)
_ALPHA = (
    _N / 2.0 - 2.0 * _N**2 / 3.0 + 5.0 * _N**3 / 16.0 + 41.0 * _N**4 / 180.0
    - 127.0 * _N**5 / 288.0 + 7891.0 * _N**6 / 37800.0,
    13.0 * _N**2 / 48.0 - 3.0 * _N**3 / 5.0 + 557.0 * _N**4 / 1440.0
    + 281.0 * _N**5 / 630.0 - 1983433.0 * _N**6 / 1935360.0,
    61.0 * _N**3 / 240.0 - 103.0 * _N**4 / 140.0 + 15061.0 * _N**5 / 26880.0
    + 167603.0 * _N**6 / 181440.0,
    49561.0 * _N**4 / 161280.0 - 179.0 * _N**5 / 168.0
    + 6601661.0 * _N**6 / 7257600.0,
    34729.0 * _N**5 / 80640.0 - 3418889.0 * _N**6 / 1995840.0,
    212378941.0 * _N**6 / 319334400.0,
)


class OutOfRangeError(ValueError):
    """Coordinate outside the domain of the projection."""


@dataclass(frozen=True)
class GeoPoint:
    """Geographic coordinates, decimal degrees on WGS84."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise OutOfRangeError("latitude and longitude must be finite")
        if not -90.0 <= self.lat <= 90.0:
            raise OutOfRangeError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon < 180.0:
            raise OutOfRangeError(f"longitude {self.lon} outside [-180, 180)")


@dataclass(frozen=True)
class UtmPoint:
    """Planar UTM coordinates in kilometers."""

    zone: int
    easting: float
    northing: float

    def __post_init__(self) -> None:
        if not 1 <= self.zone <= 60:
            raise OutOfRangeError(f"zone {self.zone} outside [1, 60]")
        if not 0.0 < self.easting < 1000.0:
            raise OutOfRangeError(f"easting {self.easting} km outside (0, 1000)")
        if not 0.0 <= self.northing < 10000.0:
            raise OutOfRangeError(f"northing {self.northing} km outside [0, 10000)")


def utm_zone(lon: float) -> int:
    """UTM zone number (1..60) for a longitude in decimal degrees."""
    if not math.isfinite(lon):
        raise OutOfRangeError("longitude must be finite")
    if not -180.0 <= lon < 180.0:
        raise OutOfRangeError(f"longitude {lon} outside [-180, 180)")
    zone = int(math.floor((lon + 180.0) / 6.0)) + 1
    return min(max(zone, 1), 60)


def central_meridian(zone: int) -> float:
    """Central meridian of a UTM zone, decimal degrees."""
    return zone * 6.0 - 183.0


def _krueger(lat: np.ndarray, lon: np.ndarray, zone: np.ndarray):
    """Easting and northing in km of points in their zones: the Krueger
    series, one numpy pass over the given points."""
    phi = np.radians(lat)
    lam = np.radians(lon - central_meridian(zone))
    # wrap to [-pi, pi] as math.remainder does, so forced zones far from
    # the point still project: fmod is exact, and so is moving a remainder
    # past pi by one turn
    lam = np.fmod(lam, 2.0 * math.pi)
    lam[lam > math.pi] -= 2.0 * math.pi
    lam[lam < -math.pi] += 2.0 * math.pi

    sphi = np.sin(phi)
    # conformal latitude, expressed through its tangent
    t = np.sinh(np.arctanh(sphi) - _E * np.arctanh(_E * sphi))
    xi = np.arctan2(t, np.cos(lam))
    eta = np.arcsinh(np.sin(lam) / np.hypot(t, np.cos(lam)))

    x = xi.copy()
    y = eta.copy()
    for j, a in enumerate(_ALPHA, start=1):
        x += a * np.sin(2 * j * xi) * np.cosh(2 * j * eta)
        y += a * np.cos(2 * j * xi) * np.sinh(2 * j * eta)

    k = SCALE * _RECT_RADIUS_M / 1000.0
    easting = k * y + FALSE_EASTING_KM
    northing = k * x
    northing[lat < 0.0] += FALSE_NORTHING_SOUTH_KM
    return easting, northing


def _project(lat: np.ndarray, lon: np.ndarray, zone: np.ndarray):
    """Easting and northing in km of one block of points in their zones;
    the first point outside the UTM domain raises OutOfRangeError."""
    # points past 84 degrees raise below; clipped, they keep the series finite
    easting, northing = _krueger(np.clip(lat, -84.0, 84.0), lon, zone)
    ok = (
        (np.abs(lat) <= 84.0)
        & (easting > 0.0)
        & (easting < 1000.0)
        & (northing >= 0.0)
        & (northing < 10000.0)
    )
    if not ok.all():
        i = int(np.argmin(ok))
        if abs(lat[i]) > 84.0:
            raise OutOfRangeError(f"latitude {float(lat[i])} outside UTM domain [-84, 84]")
        # the point's own check raises the range error of its coordinates
        UtmPoint(int(zone[i]), float(easting[i]), float(northing[i]))
    return easting, northing


def latlon_to_utm(
    p: GeoPoint | Sequence[GeoPoint] | np.ndarray, forced_zone: int | None = None
) -> UtmPoint | list[UtmPoint] | np.ndarray:
    """Project a geographic point to UTM kilometers; a sequence of points
    gives the list of their projections, the series evaluated over arrays.
    An (n, 2) array of latitudes and longitudes gives the (n, 2) array of
    their eastings and northings on ``forced_zone``, which it needs.

    With ``forced_zone`` the projection uses that zone's central meridian
    even for points that nominally belong to a neighbouring zone, so one
    jurisdiction can share a single planar frame. A point outside the UTM
    domain raises OutOfRangeError, the first such point of a sequence.
    """
    if isinstance(p, GeoPoint):
        return latlon_to_utm((p,), forced_zone)[0]
    if forced_zone is not None and not 1 <= forced_zone <= 60:
        raise OutOfRangeError(f"forced zone {forced_zone} outside [1, 60]")
    if isinstance(p, np.ndarray):
        if forced_zone is None:
            raise ValueError("an array of points needs a forced zone")
        out = np.empty((len(p), 2))
        for start in range(0, len(p), _BLOCK_POINTS):
            block = p[start : start + _BLOCK_POINTS]
            # contiguous columns, as the sequence branch builds them
            easting, northing = _project(
                block[:, 0].copy(), block[:, 1].copy(), np.full(len(block), float(forced_zone))
            )
            out[start : start + len(block), 0] = easting
            out[start : start + len(block), 1] = northing
        return out
    out = []
    for start in range(0, len(p), _BLOCK_POINTS):
        block = p[start : start + _BLOCK_POINTS]
        lat = np.array([q.lat for q in block], dtype=float)
        lon = np.array([q.lon for q in block], dtype=float)
        if forced_zone is None:
            zones = [utm_zone(q.lon) for q in block]
        else:
            zones = [forced_zone] * len(block)
        easting, northing = _project(lat, lon, np.array(zones, dtype=float))
        out.extend(map(UtmPoint, zones, easting.tolist(), northing.tolist()))
    return out
