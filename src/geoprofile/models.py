"""Per-crime likelihood densities for the three offender model families.

Three families describe how one crime site x scatters around an anchor
point z, all on the planar km frame:

* isotropic normal, peaked at the anchor itself (no buffer zone),
  parameterized by the mean offense distance;
* ring normal, peaked on a circle of a preferred radius around the anchor
  (buffer zone of low but nonzero probability inside the ring);
* distance-and-bearing product, a ring normal in radius times a normal in
  the bearing angle, for offenders who favour a direction of travel.

Every function accepts ``UtmPoint`` or plain ``(..., 2)`` arrays of
(easting, northing) km, so grids evaluate in one vectorized call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from geoprofile.geodesy import UtmPoint

__all__ = [
    "M1Params",
    "M2Params",
    "NonResParams",
    "m1_density",
    "ring_normal_normalizer",
    "m2_density",
    "radial_normalizer",
    "angle_normalizer",
    "nonres_density",
]

TWO_PI = 2.0 * math.pi


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class M1Params:
    """No-buffer family: ``alpha`` is the mean offense distance in km."""

    alpha: float

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)


@dataclass(frozen=True)
class M2Params:
    """Ring family: ``alpha`` the ring radius, ``sigma`` the radial spread (km)."""

    alpha: float
    sigma: float

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)
        _check_positive("sigma", self.sigma)


@dataclass(frozen=True)
class NonResParams:
    """Distance-and-bearing family.

    alpha: mean offense distance, km.
    sigma1: radial spread, km.
    theta: preferred bearing, radians counterclockwise from east, [0, 2*pi).
    sigma2: bearing spread, radians.
    """

    alpha: float
    sigma1: float
    theta: float
    sigma2: float

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)
        _check_positive("sigma1", self.sigma1)
        _check_positive("sigma2", self.sigma2)
        if not (math.isfinite(self.theta) and 0.0 <= self.theta < TWO_PI):
            raise ValueError(f"theta must lie in [0, 2*pi), got {self.theta}")


def _as_xy(p) -> np.ndarray:
    if isinstance(p, UtmPoint):
        return np.array([p.easting, p.northing], dtype=float)
    return np.asarray(p, dtype=float)


def _displacement(x, z) -> np.ndarray:
    return _as_xy(x) - _as_xy(z)


def _maybe_scalar(value: np.ndarray, scalar: bool):
    return float(value) if scalar else value


def m1_density(x, z, p: M1Params):
    """Isotropic normal density (per km^2) centred on the anchor.

    The standard deviation is tied to the mean offense distance alpha so
    that E||x - z|| = alpha exactly.
    """
    d = _displacement(x, z)
    d2 = np.sum(d * d, axis=-1)
    a2 = p.alpha * p.alpha
    out = np.exp(-(math.pi / (4.0 * a2)) * d2) / (4.0 * a2)
    return _maybe_scalar(out, np.ndim(d2) == 0)


def ring_normal_normalizer(alpha, sigma):
    """Planar integral of exp(-(r - alpha)^2 / (2 sigma^2)) over R^2, km^2.

    Closed form via the polar radius integral; accepts scalar or array
    parameter values.
    """
    alpha = np.asarray(alpha, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(alpha <= 0.0) or np.any(sigma <= 0.0):
        raise ValueError("alpha and sigma must be > 0")
    n = TWO_PI * sigma**2 * np.exp(-(alpha**2) / (2.0 * sigma**2)) + (
        TWO_PI * math.sqrt(TWO_PI) * alpha * sigma * (1.0 - ndtr(-alpha / sigma))
    )
    return _maybe_scalar(n, n.ndim == 0)


def m2_density(x, z, p: M2Params):
    """Ring normal density (per km^2): maximal on the radius-alpha circle."""
    d = _displacement(x, z)
    r = np.sqrt(np.sum(d * d, axis=-1))
    n = ring_normal_normalizer(p.alpha, p.sigma)
    out = np.exp(-((r - p.alpha) ** 2) / (2.0 * p.sigma**2)) / n
    return _maybe_scalar(out, np.ndim(r) == 0)


def radial_normalizer(alpha, sigma1):
    """Radius integral of r * exp(-(r - alpha)^2 / (2 sigma1^2)) over r > 0."""
    alpha = np.asarray(alpha, dtype=float)
    sigma1 = np.asarray(sigma1, dtype=float)
    n = sigma1**2 * np.exp(-(alpha**2) / (2.0 * sigma1**2)) + (
        math.sqrt(TWO_PI) * alpha * sigma1 * (1.0 - ndtr(-alpha / sigma1))
    )
    return _maybe_scalar(n, n.ndim == 0)


def angle_normalizer(theta, sigma2):
    """Integral of exp(-(phi - theta)^2 / (2 sigma2^2)) over phi in [0, 2*pi)."""
    theta = np.asarray(theta, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    n = sigma2 * math.sqrt(TWO_PI) * (
        ndtr((TWO_PI - theta) / sigma2) - ndtr(-theta / sigma2)
    )
    return _maybe_scalar(n, n.ndim == 0)


def nonres_density(x, z, p: NonResParams):
    """Distance-and-bearing density (per km^2).

    Product of a radial ring kernel and a bearing kernel, jointly
    normalized; the bearing kernel lives on [0, 2*pi) with no wraparound,
    so mass near the 0/2*pi cut is deliberately not shared across it.
    Undefined at x == z (no bearing there); the posterior grid engine has
    its own convention for that single degenerate cell.
    """
    d = _displacement(x, z)
    r = np.sqrt(np.sum(d * d, axis=-1))
    if np.any(r == 0.0):
        raise ValueError("bearing at the anchor point is undefined (x == z)")
    phi = np.arctan2(d[..., 1], d[..., 0]) % TWO_PI
    q1 = np.exp(-((r - p.alpha) ** 2) / (2.0 * p.sigma1**2))
    q2 = np.exp(-((phi - p.theta) ** 2) / (2.0 * p.sigma2**2))
    n = radial_normalizer(p.alpha, p.sigma1) * angle_normalizer(p.theta, p.sigma2)
    out = q1 * q2 / n
    return _maybe_scalar(out, np.ndim(r) == 0)
