"""Synthetic offenders drawn from the likelihood families themselves.

Used for oracle-style testing (posterior recovery of a known anchor) and
for exercising the pipeline without the real dataset. The radial sampler
targets the exact planar density, whose radius law carries the polar
Jacobian r, via rejection from a truncated normal proposal; a naive
normal in r would not match the likelihood being tested.

Series are exported in the planar CSV layout: the canonical geographic
one is not reproducible without an inverse projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from geoprofile.dataset import UTM_CSV_HEADER, CrimeSeries, csv_text
from geoprofile.engine import Family
from geoprofile.geodesy import UtmPoint, in_utm
from geoprofile.models import TWO_PI, M1Params, M2Params, NonResParams

__all__ = [
    "SyntheticScenario",
    "sample_series",
    "series_to_utm_csv",
]

MAX_REJECTION_DRAWS = 10**6

_PARAM_TYPES = {Family.M1: M1Params, Family.M2: M2Params, Family.NONRES: NonResParams}


@dataclass(frozen=True)
class SyntheticScenario:
    family: Family
    true_anchor: UtmPoint
    true_params: M1Params | M2Params | NonResParams
    n: int
    replicates: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("need at least 3 crimes per series")
        if self.replicates < 1:
            raise ValueError("need at least 1 replicate")
        expected = _PARAM_TYPES[self.family]
        if not isinstance(self.true_params, expected):
            raise ValueError(
                f"{self.family.value} scenario needs {expected.__name__} parameters"
            )


def _rejection(name: str, n: int, accepted) -> np.ndarray:
    """The first n values that ``accepted(batch)`` keeps from batches of
    proposals, at most MAX_REJECTION_DRAWS proposals in all."""
    out = np.empty(n)
    filled = 0
    draws = 0
    while filled < n:
        budget = MAX_REJECTION_DRAWS - draws
        if budget <= 0:
            raise RuntimeError(f"{name} rejection sampler exceeded {MAX_REJECTION_DRAWS} draws")
        batch = min(max(4 * (n - filled), 128), budget)
        draws += batch
        keep = accepted(batch)
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def _sample_radii(rng, alpha: float, sigma: float, n: int) -> np.ndarray:
    """Radii from the density proportional to r * exp(-(r-alpha)^2 / 2 sigma^2).

    Proposal: normal(alpha, sigma) truncated to r > 0. Acceptance weight
    r / r_cap with r_cap = alpha + 10 sigma, which truncates the target's
    far tail at negligible mass (< exp(-50)).
    """
    r_cap = alpha + 10.0 * sigma

    def accepted(batch: int) -> np.ndarray:
        proposal = rng.normal(alpha, sigma, size=batch)
        u = rng.random(batch)
        return proposal[(proposal > 0.0) & (proposal <= r_cap) & (u * r_cap < proposal)]

    return _rejection("radial", n, accepted)


def _sample_angles_windowed(rng, theta: float, sigma2: float, n: int) -> np.ndarray:
    """Normal(theta, sigma2) conditioned on [0, 2*pi), matching the model."""

    def accepted(batch: int) -> np.ndarray:
        proposal = rng.normal(theta, sigma2, size=batch)
        return proposal[(proposal >= 0.0) & (proposal < TWO_PI)]

    return _rejection("angle", n, accepted)


def sample_series(sc: SyntheticScenario) -> list[CrimeSeries]:
    """Replicated series around the true anchor; bitwise-repeatable by seed.
    A site outside the UTM rectangle raises OutOfRangeError, as a
    ``UtmPoint`` of it would."""
    zone = sc.true_anchor.zone
    anchor_xy = np.array([sc.true_anchor.easting, sc.true_anchor.northing])
    seeds = np.random.SeedSequence(sc.seed).spawn(sc.replicates)
    out = []
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if sc.family is Family.M1:
            spread = math.sqrt(2.0 / math.pi) * sc.true_params.alpha
            offsets = rng.normal(0.0, spread, size=(sc.n, 2))
        elif sc.family is Family.M2:
            radii = _sample_radii(rng, sc.true_params.alpha, sc.true_params.sigma, sc.n)
            angles = rng.uniform(0.0, TWO_PI, size=sc.n)
            offsets = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        else:
            radii = _sample_radii(rng, sc.true_params.alpha, sc.true_params.sigma1, sc.n)
            angles = _sample_angles_windowed(
                rng, sc.true_params.theta, sc.true_params.sigma2, sc.n
            )
            offsets = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        xy = anchor_xy + offsets
        ok = in_utm(*xy.T)
        if not ok.all():
            # the first such site's own check raises its range error
            UtmPoint(zone, *xy[np.argmin(ok)].tolist())
        out.append(CrimeSeries(f"synth{k:04d}", xy, zone, sc.true_anchor))
    return out


def series_to_utm_csv(series_list) -> str:
    """Planar CSV layout, read back by ``dataset.read_dataset``."""
    rows = []
    for series in series_list:
        anchor = series.anchor
        anchor_cells = ("", "") if anchor is None else (anchor.easting, anchor.northing)
        for i, (easting, northing) in enumerate(series.xy.tolist()):
            rows.append(
                (
                    series.offender_id,
                    f"{series.offender_id}_{i}",
                    "0000",
                    series.zone,
                    easting,
                    northing,
                    *anchor_cells,
                )
            )
    return csv_text(UTM_CSV_HEADER, rows)
