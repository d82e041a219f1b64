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

The closed-form normalizers need the standard normal CDF. ``ndtr`` is a
numpy port of Cephes ``ndtr``/``erf``/``erfc`` (Moshier, *Methods and
Programs for Mathematical Functions*, 1989). It returns the bits of the
compiled Cephes code for every input, so the surfaces are those of the C
function, and the package needs nothing beyond numpy. That holds where the
C build rounds each multiply and each add of Horner's rule, as a baseline
x86-64 build does; a build that fuses them (FMA) can differ in the last
bit. The ``exp(-x^2)`` in ``erfc`` goes through ``math.exp``, the libm
``exp`` that Cephes calls, one element at a time: numpy's vectorized
``exp`` is another implementation and differs from libm in the last bit on
0.02-1.7% of values. Each rational and the ``exp`` run only on the values
of their own branch, which keeps a call of a few hundred parameter nodes
cheap. Normalizers per cell and node, millions of values per surface,
would need a ``np.exp`` variant instead, held to a stated tolerance rather
than to bit equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "ndtr",
]

TWO_PI = 2.0 * math.pi

# Cephes ndtr.c's rationals, numerator over denominator: erf(x) =
# x T(x^2)/U(x^2) for |x| < 1, and erfc(x) = exp(-x^2) P(x)/Q(x) for
# 1 <= x < 8 and exp(-x^2) R(x)/S(x) from 8 on. U, Q and S are monic.
# Each polynomial is padded with leading zeros to nine coefficients, so
# that one Horner loop runs every branch; for a finite argument w the
# padding gives 0 * w + 0 = 0 and then 0 * w + c = c, the bits of Cephes'
# polevl/p1evl. Axes: coefficient, numerator/denominator, branch.
_NDTR_RATIONALS = np.array([
    [
        [0.0, 0.0, 0.0, 0.0,  # T
         9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
         7.00332514112805075473e3, 5.55923013010394962768e4],
        [0.0, 0.0, 0.0, 1.0,  # U
         3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
         2.26290000613890934246e4, 4.92673942608635921086e4],
    ],
    [
        [2.46196981473530512524e-10, 5.64189564831068821977e-1,  # P
         7.46321056442269912687e0, 4.86371970985681366614e1, 1.96520832956077098242e2,
         5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
         5.57535335369399327526e2],
        [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,  # Q
         3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
         2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2],
    ],
    [
        [0.0, 0.0, 0.0,  # R
         5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
         6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
        [0.0, 0.0, 1.0,  # S
         2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
         1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0],
    ],
]).transpose(2, 1, 0).copy()
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x^2) underflows past it
_NDTR_EDGES = np.array([1.0, 64.0])  # x^2 where Cephes changes branch: |x| = 1, 8
_SQRT1_2 = 7.07106781186547524401e-1


def ndtr(a):
    """Standard normal CDF of real ``a``, bit for bit as Cephes ``ndtr`` computes it.

    Returns a float for 0-d input and an array of ``a``'s shape otherwise,
    as the ufunc does. NaN maps to NaN, -inf to 0 and inf to 1.
    """
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    # where exp(-x^2) underflows erfc is 0, so ndtr is 0 or 1 by sign, and
    # NaN stays NaN; every other value is overwritten below
    y = np.heaviside(x, 0.5)
    xx = x * x
    live = (xx <= _MAXLOG).nonzero()[0]
    xl, xxl = x[live], xx[live]
    # Cephes' branch: erf for |x| < 1, erfc by P/Q below 8, by R/S from 8 on
    branch = np.searchsorted(_NDTR_EDGES, xxl, side="right")
    tail = branch > 0
    w = np.where(tail, np.abs(xl), xxl)
    coef = _NDTR_RATIONALS.take(branch, axis=2)  # contiguous, for the loop
    pq = coef[0]  # numerator, denominator
    for c in coef[1:]:
        pq *= w
        pq += c
    # erf: x T/U; erfc: (exp(-x^2) P) / Q, with libm's exp as in Cephes
    f = xl.copy()
    m = -xxl[tail]
    f[tail] = np.fromiter(map(math.exp, m.tolist()), dtype=float, count=m.size)
    h = 0.5 * (f * pq[0] / pq[1])
    # 0.5 + 0.5 erf(x) for |x| < 1, else 0.5 erfc(|x|), reflected for x > 0
    y[live] = np.where(tail, np.where(xl > 0.0, 1.0 - h, h), 0.5 + h)
    return y.reshape(a.shape)[()]


def _checked(name: str, value, positive: bool = True) -> np.ndarray:
    """``value`` as a float array; raises unless every element is finite,
    and > 0 if ``positive``."""
    v = np.asarray(value, dtype=float)
    ok = np.isfinite(v)
    if positive:
        ok &= v > 0.0
    if not ok.all():
        rule = "finite and > 0" if positive else "finite"
        raise ValueError(f"{name} must be {rule}, got {v[~ok][0]}")
    return v


@dataclass(frozen=True)
class M1Params:
    """No-buffer family: ``alpha`` is the mean offense distance in km."""

    alpha: float

    def __post_init__(self) -> None:
        _checked("alpha", self.alpha)


@dataclass(frozen=True)
class M2Params:
    """Ring family: ``alpha`` the ring radius, ``sigma`` the radial spread (km)."""

    alpha: float
    sigma: float

    def __post_init__(self) -> None:
        _checked("alpha", self.alpha)
        _checked("sigma", self.sigma)


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
        _checked("alpha", self.alpha)
        _checked("sigma1", self.sigma1)
        _checked("sigma2", self.sigma2)
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
    alpha = _checked("alpha", alpha)
    sigma = _checked("sigma", sigma)
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
    alpha = _checked("alpha", alpha)
    sigma1 = _checked("sigma1", sigma1)
    n = sigma1**2 * np.exp(-(alpha**2) / (2.0 * sigma1**2)) + (
        math.sqrt(TWO_PI) * alpha * sigma1 * (1.0 - ndtr(-alpha / sigma1))
    )
    return _maybe_scalar(n, n.ndim == 0)


def angle_normalizer(theta, sigma2):
    """Integral of exp(-(phi - theta)^2 / (2 sigma2^2)) over phi in [0, 2*pi)."""
    theta = _checked("theta", theta, positive=False)
    sigma2 = _checked("sigma2", sigma2)
    # both limits in one ndtr call: its cost is mostly per call, not per value
    hi, lo = ndtr(np.stack(((TWO_PI - theta) / sigma2, -theta / sigma2)))
    n = sigma2 * math.sqrt(TWO_PI) * (hi - lo)
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
