"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 1-8 are self-contained (synthetic data, brute-force oracles).
Criteria 9-12 need the real Baltimore series file; point
``GEOPROFILE_BALTIMORE_CSV`` at it (or drop it at data/baltimore.csv)
and they run as a regression suite, otherwise they are skipped.
"""

import math
import os
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import reference_tm
from geoprofile.classify import classify
from geoprofile.dataset import read_dataset
from geoprofile.engine import (
    Family,
    MethodId,
    ModelSpec,
    PosteriorSurface,
    multimodel_combine,
    posterior_surface,
)
from geoprofile.evaluation import (
    Scope,
    SearchResult,
    accumulation_curve,
    compare_methods,
    search_fraction,
)
from geoprofile.geodesy import UtmPoint, latlon_to_utm
from geoprofile.grid import Grid, cell_center, locate_cell
from geoprofile.models import (
    M1Params,
    M2Params,
    NonResParams,
    angle_normalizer,
    m1_density,
    m2_density,
    nonres_density,
    radial_normalizer,
    ring_normal_normalizer,
)
from geoprofile.priors import (
    PriorKind,
    PriorSet,
    bounded_density_1d,
    build_prior_set,
    flat_anchor_prior,
    flat_param_prior,
    flat_prior_set,
)
from geoprofile.rossmo import RossmoParams, hit_score_surface
from geoprofile.synthetic import SyntheticScenario, sample_series
from oracles import cartesian_square_integral, polar_disc_integral

TWO_PI = 2.0 * math.pi
GRID = Grid()

BALTIMORE_CSV = os.environ.get(
    "GEOPROFILE_BALTIMORE_CSV",
    str(Path(__file__).resolve().parent.parent / "data" / "baltimore.csv"),
)
HAVE_BALTIMORE = Path(BALTIMORE_CSV).is_file()
needs_baltimore = pytest.mark.skipif(
    not HAVE_BALTIMORE, reason="Baltimore series CSV not supplied"
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Property suite (no external data)
# ---------------------------------------------------------------------------


def test_c01_normalizer_correctness():
    rng = np.random.default_rng(1001)
    worst_ring = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.5, 20.0)
        sigma = rng.uniform(0.1, 5.0)
        kernel = lambda x, y: np.exp(
            -((np.hypot(x, y) - alpha) ** 2) / (2.0 * sigma**2)
        )
        brute = polar_disc_integral(kernel, (0.0, 0.0), alpha + 10.0 * sigma, sigma)
        worst_ring = max(
            worst_ring, abs(ring_normal_normalizer(alpha, sigma) / brute - 1.0)
        )

    rng = np.random.default_rng(1002)
    worst_prod = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.5, 20.0)
        s1 = rng.uniform(0.1, 5.0)
        theta = rng.uniform(0.0, TWO_PI)
        s2 = rng.uniform(0.05, 1.5)

        def kernel(x, y):
            r = np.hypot(x, y)
            phi = np.arctan2(y, x) % TWO_PI
            return np.exp(-((r - alpha) ** 2) / (2.0 * s1**2)) * np.exp(
                -((phi - theta) ** 2) / (2.0 * s2**2)
            )

        brute = polar_disc_integral(
            kernel, (0.0, 0.0), alpha + 10.0 * s1, s1, sigma_phi=s2
        )
        closed = radial_normalizer(alpha, s1) * angle_normalizer(theta, s2)
        worst_prod = max(worst_prod, abs(closed / brute - 1.0))

    _report(
        "criterion 1: closed-form normalizers vs brute-force quadrature",
        worst_ring <= 1e-3 and worst_prod <= 2e-3,
        f"ring rel err {worst_ring:.2e} <= 1e-3, product rel err {worst_prod:.2e} <= 2e-3",
    )


def test_c02_density_normalization():
    worst = {"m1": 0.0, "m2": 0.0, "nonres": 0.0}
    rng = np.random.default_rng(2001)
    for _ in range(10):
        alpha = rng.uniform(0.5, 20.0)
        p = M1Params(alpha)
        total = cartesian_square_integral(
            lambda x, y: m1_density(np.stack(np.broadcast_arrays(x, y), axis=-1), (0.0, 0.0), p),
            (0.0, 0.0),
            half_side=30.0 * alpha,
            feature=math.sqrt(2.0 / math.pi) * alpha,
        )
        worst["m1"] = max(worst["m1"], abs(total - 1.0))

    rng = np.random.default_rng(2002)
    for _ in range(10):
        p = M2Params(rng.uniform(0.5, 20.0), rng.uniform(0.1, 5.0))
        total = polar_disc_integral(
            lambda x, y: m2_density(np.stack(np.broadcast_arrays(x, y), axis=-1), (0.0, 0.0), p),
            (0.0, 0.0),
            r_max=p.alpha + 12.0 * p.sigma,
            sigma_r=p.sigma,
        )
        worst["m2"] = max(worst["m2"], abs(total - 1.0))

    rng = np.random.default_rng(2003)
    for _ in range(10):
        p = NonResParams(
            rng.uniform(0.5, 20.0),
            rng.uniform(0.1, 5.0),
            rng.uniform(0.0, TWO_PI),
            rng.uniform(0.05, 1.5),
        )
        total = polar_disc_integral(
            lambda x, y: nonres_density(np.stack(np.broadcast_arrays(x, y), axis=-1), (0.0, 0.0), p),
            (0.0, 0.0),
            r_max=p.alpha + 12.0 * p.sigma1,
            sigma_r=p.sigma1,
            sigma_phi=p.sigma2,
        )
        worst["nonres"] = max(worst["nonres"], abs(total - 1.0))

    _report(
        "criterion 2: densities integrate to 1 (10 random draws per family)",
        all(v <= 2e-3 for v in worst.values()),
        ", ".join(f"{k} max |err| {v:.2e}" for k, v in worst.items()),
    )


def _collapse_case(rng, family):
    anchor = np.array([rng.uniform(340.0, 360.0), rng.uniform(4350.0, 4380.0)])
    if family is Family.M1:
        params = M1Params(rng.uniform(1.0, 4.0))
        overrides = {"alpha": params.alpha}
        density = m1_density
        offsets = rng.normal(0.0, math.sqrt(2.0 / math.pi) * params.alpha, size=(8, 2))
    elif family is Family.M2:
        params = M2Params(rng.uniform(2.0, 6.0), rng.uniform(0.5, 1.5))
        overrides = {"alpha": params.alpha, "sigma": params.sigma}
        density = m2_density
        ang = rng.uniform(0.0, TWO_PI, size=8)
        rad = rng.normal(params.alpha, params.sigma, size=8).clip(0.3)
        offsets = rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        params = NonResParams(
            rng.uniform(8.0, 16.0),
            rng.uniform(1.0, 3.0),
            rng.uniform(0.5, 5.5),
            rng.uniform(0.2, 0.6),
        )
        overrides = {
            "alpha": params.alpha,
            "sigma1": params.sigma1,
            "theta": params.theta,
            "sigma2": params.sigma2,
        }
        density = nonres_density
        ang = rng.normal(params.theta, params.sigma2, size=8) % TWO_PI
        rad = rng.normal(params.alpha, params.sigma1, size=8).clip(0.5)
        offsets = rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    from geoprofile.dataset import CrimeSeries

    return CrimeSeries("c", anchor + offsets, 18), params, overrides, density


def test_c03_posterior_collapse_oracle():
    priors = flat_prior_set(GRID)
    worst = 0.0
    underflow_ok = True
    rng = np.random.default_rng(3001)
    for family in Family:
        for _ in range(5):
            series, params, overrides, density = _collapse_case(rng, family)
            spec = ModelSpec(family, fixed_overrides=overrides)
            surface = posterior_surface(series, spec, priors, GRID)
            log_mass = np.zeros(GRID.ncells)
            with np.errstate(divide="ignore"):
                for site in series.xy:
                    log_mass += np.log(density(site, GRID.centers, params))
            direct = np.exp(log_mass - log_mass.max())
            direct /= direct.sum()
            direct = direct.reshape(GRID.nrows, GRID.ncols)
            # relative comparison where the oracle has representable mass;
            # where its product underflowed, the engine must agree it is nil
            positive = direct > 0.0
            worst = max(
                worst,
                float(
                    np.max(np.abs(surface.mass[positive] / direct[positive] - 1.0))
                ),
            )
            underflow_ok &= bool(np.all(surface.mass[~positive] <= 1e-300))
    _report(
        "criterion 3: single-node posterior equals direct likelihood product",
        worst <= 1e-10 and underflow_ok,
        f"max relative cell error {worst:.2e} <= 1e-10, "
        f"underflowed cells agree: {underflow_ok}",
    )


def _argmax_cell(surface: PosteriorSurface) -> tuple[int, int]:
    row, col = np.unravel_index(int(np.argmax(surface.mass)), surface.mass.shape)
    return int(row), int(col)


def test_c04_synthetic_recovery():
    # ring scenario: flat parameter priors on plausible ranges suffice
    anchor = UtmPoint(18, 350.0, 4365.0)
    priors = flat_prior_set(
        GRID,
        {
            PriorKind.DISTANCE_M2: (0.5, 30.0),
            PriorKind.SPREAD_RADIAL: (0.1, 5.0),
        },
    )
    sc = SyntheticScenario(
        Family.M2, anchor, M2Params(5.0, 1.0), n=12, replicates=50, seed=42
    )
    true_rc = locate_cell(GRID, anchor)
    hits_ring = 0
    for series in sample_series(sc):
        surface = posterior_surface(series, ModelSpec(Family.M2), priors, GRID)
        row, col = _argmax_cell(surface)
        if max(abs(row - true_rc[0]), abs(col - true_rc[1])) <= 2:
            hits_ring += 1

    # distance-and-bearing scenario: the anchor distance along the bearing
    # ray is only weakly identified by the likelihood, so the fixture uses
    # donor-informed parameter priors, the regime the pipeline operates in
    anchor2 = UtmPoint(18, 340.0, 4350.0)
    rng = np.random.default_rng(7)
    params = {k: flat_param_prior(k) for k in PriorKind}
    params[PriorKind.DISTANCE_NONRES] = bounded_density_1d(
        rng.normal(15.0, 2.0, 30).clip(10.5), 0.0, 150.0, kind=PriorKind.DISTANCE_NONRES
    )
    params[PriorKind.SPREAD_RADIAL] = bounded_density_1d(
        rng.normal(2.0, 0.5, 30).clip(0.3), 0.05, 20.0, kind=PriorKind.SPREAD_RADIAL
    )
    params[PriorKind.SPREAD_ANGULAR] = bounded_density_1d(
        rng.normal(math.pi / 8, 0.10, 30).clip(0.05),
        0.02,
        math.pi,
        kind=PriorKind.SPREAD_ANGULAR,
    )
    params[PriorKind.ANGLE_NONRES] = bounded_density_1d(
        rng.normal(math.pi / 4, 0.2, 30).clip(0.0),
        0.0,
        TWO_PI,
        kind=PriorKind.ANGLE_NONRES,
    )
    priors2 = PriorSet(flat_anchor_prior(GRID), MappingProxyType(params), 0)
    sc2 = SyntheticScenario(
        Family.NONRES,
        anchor2,
        NonResParams(15.0, 2.0, math.pi / 4, math.pi / 8),
        n=12,
        replicates=50,
        seed=42,
    )
    true_rc2 = locate_cell(GRID, anchor2)
    hits_bearing = 0
    for series in sample_series(sc2):
        surface = posterior_surface(series, ModelSpec(Family.NONRES), priors2, GRID)
        row, col = _argmax_cell(surface)
        if max(abs(row - true_rc2[0]), abs(col - true_rc2[1])) <= 2:
            hits_bearing += 1

    _report(
        "criterion 4: posterior argmax recovers synthetic anchors",
        hits_ring >= 45 and hits_bearing >= 40,
        f"ring {hits_ring}/50 >= 45, bearing {hits_bearing}/50 >= 40",
    )


def test_c05_rossmo_continuity_and_ranking():
    rng = np.random.default_rng(5001)
    worst_gap = 0.0
    for _ in range(100):
        p = RossmoParams(
            b=rng.uniform(0.2, 5.0),
            g=rng.uniform(0.8, 2.0),
            h=rng.uniform(0.8, 2.0),
            k=rng.uniform(0.5, 3.0),
        )
        inside = p.k * p.b ** (p.g - p.h) / (2.0 * p.b - p.b) ** p.g
        outside = p.k / p.b**p.h
        worst_gap = max(worst_gap, abs(inside - outside))

    from geoprofile.dataset import CrimeSeries

    series = CrimeSeries("k", rng.uniform([335.0, 4350.0], [365.0, 4375.0], size=(6, 2)), 18)
    from geoprofile.rossmo import buffer_radius

    b = buffer_radius(series)
    s1 = hit_score_surface(series, GRID, RossmoParams(b=b, k=1.0))
    s2 = hit_score_surface(series, GRID, RossmoParams(b=b, k=7.3))
    same_ranking = np.array_equal(
        np.argsort(-s1.mass.ravel(), kind="stable"),
        np.argsort(-s2.mass.ravel(), kind="stable"),
    )
    _report(
        "criterion 5: decay continuity at the buffer edge and k-scaling ranking",
        worst_gap <= 1e-12 and same_ranking,
        f"max branch gap {worst_gap:.2e} <= 1e-12, argsort equal under k*7.3: {same_ranking}",
    )


def test_c06_multimodel_identities():
    rng = np.random.default_rng(6001)
    mass_a = rng.random((GRID.nrows, GRID.ncols))
    mass_b = rng.random((GRID.nrows, GRID.ncols))
    a = PosteriorSurface(GRID, mass_a / mass_a.sum())
    b = PosteriorSurface(GRID, mass_b / mass_b.sum())

    identity_ok = np.array_equal(multimodel_combine([a], [1.0]).mass, a.mass)
    w = 0.43
    linear_ok = np.array_equal(
        multimodel_combine([a, b], [w, 1.0 - w]).mass, w * a.mass + (1.0 - w) * b.mass
    )
    rejected = False
    try:
        multimodel_combine([a, b], [0.5, 0.499])
    except ValueError:
        rejected = True
    _report(
        "criterion 6: multimodel identity, linearity, weight-sum validation",
        identity_ok and linear_ok and rejected,
        f"identity bitwise {identity_ok}, linearity exact {linear_ok}, "
        f"sum=0.999 rejected {rejected}",
    )


def test_c07_evaluation_mechanics():
    uniform = PosteriorSurface(
        GRID, np.full((GRID.nrows, GRID.ncols), 1.0 / GRID.ncells)
    )
    tie_ok = True
    for row, col in [(0, 0), (12, 57), (42, 3), (69, 99)]:
        result = search_fraction(uniform, cell_center(GRID, row, col))
        tie_ok &= result.cells_examined == row * GRID.ncols + col + 1

    rng = np.random.default_rng(7001)
    results = []
    for fraction in rng.uniform(0.002, 1.0, size=40):
        cells = max(1, round(fraction * GRID.ncells))
        results.append(
            SearchResult("x", MethodId.ONE_A, cells, cells / GRID.ncells)
        )
    curve = accumulation_curve(results, np.linspace(0.01, 1.0, 30), MethodId.ONE_A)
    monotone = all(
        x <= y for x, y in zip(curve.found_fraction, curve.found_fraction[1:])
    )
    _report(
        "criterion 7: search-fraction tie-break formula and curve monotonicity",
        tie_ok and monotone,
        f"row-major tie-break exact {tie_ok}, curve monotone {monotone}, "
        f"final {curve.found_fraction[-1]:.4f}",
    )


def test_c08_geodesy_reference_agreement():
    rng = np.random.default_rng(8001)
    worst_m = 0.0
    for _ in range(100):
        lat = rng.uniform(38.0, 40.0)
        lon = rng.uniform(-78.0, -72.0)
        ((easting, northing),) = latlon_to_utm(np.array([[lat, lon]]), 18).tolist()
        e_ref, n_ref = reference_tm.forward(lat, lon, 18)
        worst_m = max(
            worst_m,
            math.hypot(easting * 1000.0 - e_ref, northing * 1000.0 - n_ref),
        )
    ((easting, northing),) = latlon_to_utm(np.array([[0.0, -75.0]]), 18).tolist()
    origin_ok = abs(easting - 500.0) <= 1e-9 and abs(northing - 0.0) <= 1e-9
    _report(
        "criterion 8: projection agrees with the independent reference",
        worst_m < 1.0 and origin_ok,
        f"max deviation {worst_m:.4f} m < 1 m, central meridian/equator exact {origin_ok}",
    )


# ---------------------------------------------------------------------------
# Dataset regression suite (needs the real series file)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baltimore():
    return read_dataset(Path(BALTIMORE_CSV).read_text(encoding="utf-8"))


@needs_baltimore
def test_c09_ingestion_counts(baltimore):
    lengths = [s.n for s in baltimore.series]
    ok = (
        len(baltimore.series) == 88
        and baltimore.total_crimes == 962
        and min(lengths) >= 3
        and max(lengths) <= 33
    )
    _report(
        "criterion 9: ingestion counts",
        ok,
        f"{len(baltimore.series)} offenders, {baltimore.total_crimes} crimes, "
        f"series lengths [{min(lengths)}, {max(lengths)}]",
    )


@needs_baltimore
def test_c10_residents_only_evaluation(baltimore):
    report = compare_methods(
        baltimore,
        [MethodId.ONE_A, MethodId.ONE_B, MethodId.ROSSMO],
        Scope.RESIDENTS_ONLY,
    )
    frac = {m: [] for m in (MethodId.ONE_A, MethodId.ONE_B, MethodId.ROSSMO)}
    for r in report.results:
        frac[r.method].append(r.fraction)
    n_res = len(frac[MethodId.ROSSMO])

    rossmo_all_found = max(frac[MethodId.ROSSMO])
    a_ok = 0.16 < rossmo_all_found <= 0.18
    b_ok = max(frac[MethodId.ONE_A]) <= 0.12 and max(frac[MethodId.ONE_B]) <= 0.12
    slack = 1.0 / n_res + 1e-12
    c_ok = True
    for t in [x for x in report.thresholds if x >= 0.03]:
        found_rossmo = np.mean(np.array(frac[MethodId.ROSSMO]) <= t)
        for m in (MethodId.ONE_A, MethodId.ONE_B):
            found_m = np.mean(np.array(frac[m]) <= t)
            c_ok &= found_m >= found_rossmo - slack
    _report(
        "criterion 10: residents-only evaluation vs the baseline",
        a_ok and b_ok and c_ok,
        f"baseline finds all at {rossmo_all_found:.2%} (17% +-1pt): {a_ok}; "
        f"posterior methods done by 12%: {b_ok}; weak dominance >=3%: {c_ok}",
    )


@needs_baltimore
def test_c11_all_scope_evaluation(baltimore):
    methods = [
        MethodId.TWO_AI,
        MethodId.TWO_AII,
        MethodId.TWO_BI,
        MethodId.TWO_BII,
        MethodId.ROSSMO,
    ]
    report = compare_methods(baltimore, methods, Scope.ALL)
    frac = {m: [] for m in methods}
    for r in report.results:
        frac[r.method].append(r.fraction)

    at_1pct = {
        m: float(np.mean(np.array(frac[m]) <= 0.01)) for m in methods
    }
    gap_ok = (
        at_1pct[MethodId.TWO_AII] >= at_1pct[MethodId.ROSSMO] + 0.05
        and at_1pct[MethodId.TWO_BII] >= at_1pct[MethodId.ROSSMO] + 0.05
    )
    done_ok = all(
        max(frac[m]) <= 0.41
        for m in (MethodId.TWO_AI, MethodId.TWO_AII, MethodId.TWO_BI, MethodId.TWO_BII)
    )
    _report(
        "criterion 11: all-offender evaluation vs the baseline",
        gap_ok and done_ok,
        f"found at 1%: baseline {at_1pct[MethodId.ROSSMO]:.4f}, "
        f"freq-weighted {at_1pct[MethodId.TWO_AII]:.4f}/{at_1pct[MethodId.TWO_BII]:.4f} "
        f"(+5pt gap: {gap_ok}); all posterior methods done by 41%: {done_ok}",
    )


@needs_baltimore
def test_c12_angle_prior_regression(baltimore):
    labels = {s.offender_id: classify(s.xy) for s in baltimore.series}
    ok = True
    details = []
    for oid in baltimore.offender_ids()[:3]:
        priors = build_prior_set(baltimore, oid, labels, GRID)
        prior = priors[PriorKind.ANGLE_M2]
        quarters = [
            float(prior.cdf((k + 1) * math.pi / 2) - prior.cdf(k * math.pi / 2))
            for k in range(4)
        ]
        ok &= quarters[1] == max(quarters)
        details.append(f"{oid}: Q2 mass {quarters[1]:.3f}")
    _report(
        "criterion 12: ring residents prefer bearings in the second quadrant",
        ok,
        "; ".join(details),
    )
