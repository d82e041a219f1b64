"""Brute-force quadrature helpers shared by the unit and acceptance tests.

These integrate densities numerically without using any closed-form
normalizer, so they stay independent of the code paths they check.
"""

import csv
import io
import logging
import math
from operator import itemgetter

import numpy as np

from geoprofile import dataset, engine, geodesy, models
from geoprofile.geodesy import GeoPoint, OutOfRangeError, UtmPoint

TWO_PI = 2.0 * np.pi


def polar_disc_integral(f_xy, center, r_max, sigma_r, sigma_phi=None):
    """Integrate f_xy(x, y) over the disc of radius r_max around center.

    Trapezoid in radius, midpoint in angle (the angular kernel may be
    discontinuous across the 0/2*pi cut, so neither endpoint is sampled).
    Node counts scale with the smallest feature size in each direction.
    """
    n_r = int(np.clip(16.0 * r_max / sigma_r, 1000, 12000))
    if sigma_phi is None:
        n_phi = 720
    else:
        n_phi = int(np.clip(16.0 * TWO_PI / sigma_phi, 720, 8000))

    r = np.linspace(0.0, r_max, n_r)
    dphi = TWO_PI / n_phi
    phi = (np.arange(n_phi) + 0.5) * dphi

    cx, cy = center
    radial = np.empty(n_r)
    for lo in range(0, n_r, 2048):
        hi = min(lo + 2048, n_r)
        # the r = 0 row contributes nothing but must not sit exactly on the
        # center, where angular kernels are undefined
        rr = np.maximum(r[lo:hi, None], 1e-12)
        x = cx + rr * np.cos(phi)[None, :]
        y = cy + rr * np.sin(phi)[None, :]
        radial[lo:hi] = f_xy(x, y).sum(axis=1) * dphi * r[lo:hi]
    return float(np.trapezoid(radial, r))


def cartesian_square_integral(f_xy, center, half_side, feature):
    """Trapezoid integral of f_xy over a centred square of given half side."""
    n = int(np.clip(3.0 * 2.0 * half_side / feature, 301, 4001))
    cx, cy = center
    x = np.linspace(cx - half_side, cx + half_side, n)
    y = np.linspace(cy - half_side, cy + half_side, n)
    vals = f_xy(x[:, None], y[None, :])
    return float(np.trapezoid(np.trapezoid(vals, y, axis=1), x))


def hit_score_direct(series, grid, params):
    """Normalized hit-score mass, (nrows, ncols), written out the plain way.

    Manhattan distances come from the (ncells, 2) cell centers, the decay
    fills its two branches through boolean masks, and each cell's crimes
    are summed along the rows of one (ncells, n) array, so the result is
    the bit pattern that ``geoprofile.rossmo.hit_score_surface`` must keep.
    """
    centers = grid.centers
    xy = series.xy
    d = np.abs(centers[:, None, 0] - xy[None, :, 0]) + np.abs(
        centers[:, None, 1] - xy[None, :, 1]
    )
    scores = np.empty_like(d)
    far = d > params.b
    scores[far] = params.k / d[far] ** params.h
    scores[~far] = (
        params.k
        * params.b ** (params.g - params.h)
        / (2.0 * params.b - d[~far]) ** params.g
    )
    total = scores.sum(axis=1)
    return (total / total.sum()).reshape(grid.nrows, grid.ncols)


def kde2d_direct(xy, grid, bandwidth=None):
    """Anchor-prior weights, (nrows, ncols), from one (ncells, N) exponent.

    The plain formulation of ``geoprofile.priors.kde2d``: every cell center
    against every donor anchor, summed along the rows. The library must
    keep this bit pattern.
    """
    xy = np.asarray(xy, dtype=float)
    if bandwidth is None:
        h = np.std(xy, axis=0, ddof=1) * len(xy) ** (-1.0 / 6.0)
    else:
        h = np.asarray(bandwidth, dtype=float)
    h = np.maximum(h, [grid.dx / 2.0, grid.dy / 2.0])
    centers = grid.centers
    de = (centers[:, 0][:, None] - xy[None, :, 0]) / h[0]
    dn = (centers[:, 1][:, None] - xy[None, :, 1]) / h[1]
    weights = np.exp(-0.5 * (de * de + dn * dn)).sum(axis=1)
    return (weights / weights.sum()).reshape(grid.nrows, grid.ncols)


def density_1d_direct(samples, lo, hi):
    """Reflection-kernel density on 512 equal nodes of [lo, hi], with every
    ``exp`` taken, those that underflow to zero included: the plain
    formulation of ``geoprofile.priors.bounded_density_1d``."""
    samples = np.clip(np.asarray(samples, dtype=float), lo, hi)
    std = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0.0 else std
    h = max(0.9 * scale * len(samples) ** -0.2, 1e-3 * (hi - lo))
    nodes = np.linspace(lo, hi, 512)
    mirrored = np.concatenate([samples, 2.0 * lo - samples, 2.0 * hi - samples])
    u = (nodes[:, None] - mirrored[None, :]) / h
    density = np.exp(-0.5 * u * u).sum(axis=1)
    return density / np.trapezoid(density, nodes)


def donor_stats_direct(series):
    """One donor's residency and travel statistics, computed on its own.

    Residency is a crime within 10 km of the anchor. Bearings leave out
    crimes on the anchor; a statistic needing more samples than there are
    is None.
    """
    xy = series.xy
    anchor = np.array([series.anchor.easting, series.anchor.northing])
    d = xy - anchor
    radii = np.hypot(d[:, 0], d[:, 1])
    nonzero = radii > 0.0
    angles = np.arctan2(d[nonzero, 1], d[nonzero, 0]) % TWO_PI
    return {
        "resident": bool(radii.min() <= 10.0),
        "mean_dist": float(radii.mean()),
        "mean_angle": float(angles.mean()) if len(angles) else None,
        "std_radii": float(np.std(radii, ddof=1)) if len(radii) > 1 else None,
        "std_angles": float(np.std(angles, ddof=1)) if len(angles) > 1 else None,
    }


def surface_csv_direct(surface):
    """A surface's CSV text, one f-string per cell from the (ncells, 2)
    cell centers, as ``geoprofile.cli.write_surface_csv`` must write it."""
    grid = surface.grid
    lines = ["row,col,easting,northing,mass"]
    masses = surface.mass.ravel().tolist()
    for k, (easting, northing) in enumerate(grid.centers.tolist()):
        row, col = divmod(k, grid.ncols)
        lines.append(f"{row},{col},{easting!r},{northing!r},{masses[k]!r}")
    return "\n".join(lines) + "\n"


def surface_pgm_direct(surface):
    """A surface's 8-bit ASCII PGM text, each value formatted by ``str`` of
    its numpy integer, as ``geoprofile.cli.write_surface_pgm`` must write it."""
    grid = surface.grid
    scaled = np.rint(surface.mass / surface.mass.max() * 255.0).astype(int)
    lines = ["P2", f"{grid.ncols} {grid.nrows}", "255"]
    for row in range(grid.nrows - 1, -1, -1):
        lines.append(" ".join(str(v) for v in scaled[row]))
    return "\n".join(lines) + "\n"


def latlon_to_utm_direct(lat, lon, zone):
    """UTM easting and northing in km of one point in ``zone``: the Krueger
    series one ``math`` call at a time, as the plain formulation of
    ``geoprofile.geodesy.latlon_to_utm``."""
    phi = math.radians(lat)
    # wrap to (-pi, pi] so zones far from the point still project
    lam = math.remainder(math.radians(lon - geodesy.central_meridian(zone)), TWO_PI)
    sphi = math.sin(phi)
    t = math.sinh(math.atanh(sphi) - geodesy._E * math.atanh(geodesy._E * sphi))
    xi = math.atan2(t, math.cos(lam))
    eta = math.asinh(math.sin(lam) / math.hypot(t, math.cos(lam)))
    x, y = xi, eta
    for j, a in enumerate(geodesy._ALPHA, start=1):
        x += a * math.sin(2 * j * xi) * math.cosh(2 * j * eta)
        y += a * math.cos(2 * j * xi) * math.sinh(2 * j * eta)
    k = geodesy.SCALE * geodesy._RECT_RADIUS_M / 1000.0
    northing = k * x
    if lat < 0.0:
        northing += geodesy.FALSE_NORTHING_SOUTH_KM
    return k * y + geodesy.FALSE_EASTING_KM, northing


def _sum_stats_direct(x, count):
    """(cells, 4) per-cell [sum x^2, sum x, count, 1], summed along rows."""
    cells = len(x)
    return np.column_stack(
        [(x * x).sum(axis=1), x.sum(axis=1), np.broadcast_to(count, cells), np.ones(cells)]
    )


def _log_quad_direct(stats, coeffs):
    """Floored node log-sum-exp of one (cells, nodes) array, summed along rows."""
    vals = stats @ coeffs
    peak = vals.max(axis=1)
    vals -= np.where(np.isfinite(peak), peak, 0.0)[:, None]
    np.maximum(vals, engine.LOG_SUM_EXP_FLOOR, out=vals)
    np.exp(vals, out=vals)
    return np.log(vals.sum(axis=1)) + peak - math.log(coeffs.shape[1])


def _log_quad_one_call(stats, coeffs):
    """The node log-sum-exp laid out (nodes, cells) as one matmul and one
    pass per step over all cells: ``geoprofile.engine._log_quad`` before
    its cells were split into parts and sub-calls."""
    vals = coeffs.T @ stats.T
    peak = vals.max(axis=0)
    vals -= np.where(np.isfinite(peak), peak, 0.0)
    np.maximum(vals, engine.LOG_SUM_EXP_FLOOR, out=vals)
    np.exp(vals, out=vals)
    return np.log(engine._pairwise_sum(vals)) + peak - math.log(coeffs.shape[1])


def log_marginal_likelihood_direct(series, spec, priors, grid, blocks=None):
    """Per-cell log quadrature sum, flattened row-major, laid out cell-major.

    The plain formulation of ``geoprofile.engine._log_marginal_likelihood``:
    offsets ``(ncells, n, 2)`` from every cell center, each cell's crimes
    summed along the rows of a ``(ncells, n)`` array and each cell's nodes
    along the rows of a ``(ncells, nodes)`` array, so the result is the bit
    pattern that the engine must keep. ``blocks`` replaces the family's
    ``engine.FAMILIES`` row.
    """
    xy = series.xy
    n = len(xy)
    d = grid.centers[:, None, :] - xy[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=-1))
    on_anchor = r < engine.ANCHOR_COINCIDENCE_KM
    log_mass = 0.0
    for block in blocks or engine.FAMILIES[spec.family]:
        if block.scalar == "r":
            stats = _sum_stats_direct(np.where(on_anchor, engine.ANCHOR_NUDGE_KM, r), n)
        else:
            phi = np.arctan2(-d[..., 1], -d[..., 0]) % TWO_PI
            phi = np.where(on_anchor | (phi >= TWO_PI), 0.0, phi)
            stats = _sum_stats_direct(phi, n - on_anchor.sum(axis=1))
        nodes = np.meshgrid(
            *(engine._quadrature_nodes(spec, p.name, priors) for p in block.params),
            indexing="ij",
        )
        mu, s, log_norm = block.gaussian(*(x.ravel() for x in nodes))
        log_mass += _log_quad_direct(stats, engine._gaussian_coeffs(n, mu, s, log_norm))
    return log_mass


def _ring_normal(alpha, sigma):
    """The ring normal's mean, spread and log planar normaliser."""
    return alpha, sigma, np.log(models.ring_normal_normalizer(alpha, sigma))


def ring_log_likelihood_direct(series, spec, priors, grid):
    """The ring (M2) family's per-cell log quadrature sum as the paper
    writes it: each crime's ring normal density, normalised over the plane
    by ``ring_normal_normalizer``. The engine drops the uniform bearing's
    constant 2 pi from that normaliser, so its M2 log-likelihood differs
    from this one by n log 2 pi per cell, up to rounding."""
    (block,) = engine.FAMILIES[engine.Family.M2]
    ring = block._replace(gaussian=_ring_normal)
    return log_marginal_likelihood_direct(series, spec, priors, grid, blocks=(ring,))


def _geo_point(lat, lon):
    return GeoPoint(float(lat), float(lon))


def _utm_point(zone, easting, northing):
    return UtmPoint(int(zone), float(easting), float(northing))


def _utm_anchor(zone, easting, northing):
    if not (easting.strip() or northing.strip()):
        return None
    return _utm_point(zone, easting, northing)


def _row_point(row_num, names, make, cells):
    try:
        return make(*cells)
    except ValueError as exc:
        raise dataset.RowError(
            f"row {row_num}: {','.join(names)}={','.join(cells)!r}: {exc}"
        ) from None


_DIRECT_LAYOUTS = {
    tuple(dataset.CSV_HEADER): (
        (_geo_point, itemgetter(3, 4)),
        (_geo_point, itemgetter(5, 6)),
    ),
    tuple(dataset.UTM_CSV_HEADER): (
        (_utm_point, itemgetter(3, 4, 5)),
        (_utm_anchor, itemgetter(3, 6, 7)),
    ),
}


def _direct_rows(text):
    """``(offender_id, site, anchor)`` per data row, one point object per
    cell group, checked row by row."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise dataset.SchemaError("empty file: expected a header row") from None
    header = tuple(h.strip().lstrip("\ufeff") for h in header)
    if header not in _DIRECT_LAYOUTS:
        expected = " or ".join(",".join(h) for h in _DIRECT_LAYOUTS)
        raise dataset.SchemaError(
            f"header mismatch: expected {expected}, got {','.join(header)}"
        )
    (make_site, site_of), (make_anchor, anchor_of) = _DIRECT_LAYOUTS[header]
    site_names, anchor_names = site_of(header), anchor_of(header)
    for row_num, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise dataset.RowError(
                f"row {row_num}: expected {len(header)} fields, got {len(row)}"
            )
        offender_id = row[0].strip()
        if not offender_id:
            raise dataset.RowError(f"row {row_num}: empty offender_id")
        site = _row_point(row_num, site_names, make_site, site_of(row))
        anchor = _row_point(row_num, anchor_names, make_anchor, anchor_of(row))
        yield offender_id, site, anchor


def _direct_same_place(a, b):
    if isinstance(a, GeoPoint):
        return max(abs(a.lat - b.lat), abs(a.lon - b.lon)) <= dataset.ANCHOR_CONSISTENCY_DEG
    return a == b


def _direct_on_zone(points, zone):
    if points and isinstance(points[0], GeoPoint):
        latlon = np.array([(p.lat, p.lon) for p in points])
        return [UtmPoint(zone, *xy) for xy in geodesy.latlon_to_utm(latlon, zone).tolist()]
    for point in points:
        if point is not None and point.zone != zone:
            raise OutOfRangeError(f"zone {point.zone} is not the configured zone {zone}")
    return points


def read_dataset_direct(text, zone=18):
    """``geoprofile.dataset.read_dataset`` written row by row: every row
    parsed and checked into point objects, grouped by offender in a dict,
    then all kept points put on ``zone`` by one ``latlon_to_utm`` call.
    Ids, ``xy`` bits, anchors, the warnings for dropped offenders and the
    text of every error are what the loader must keep."""
    if not 1 <= zone <= 60:
        raise OutOfRangeError(f"configured zone {zone} outside [1, 60]")
    by_offender = {}
    for offender_id, site, anchor in _direct_rows(text):
        by_offender.setdefault(offender_id, []).append((site, anchor))

    points, spans = [], []
    for offender_id, pairs in by_offender.items():
        anchor = pairs[0][1]
        if any(not _direct_same_place(a, anchor) for _, a in pairs):
            raise dataset.DataError(f"offender {offender_id}: inconsistent anchor coordinates")
        if len(pairs) < dataset.MIN_SERIES_LENGTH:
            logging.getLogger("geoprofile.dataset").warning(
                "excluding offender %s: only %d crime(s), need %d",
                offender_id, len(pairs), dataset.MIN_SERIES_LENGTH,
            )
            continue
        start = len(points)
        points.extend(site for site, _ in pairs)
        points.append(anchor)
        spans.append((offender_id, start, len(points)))

    try:
        on_zone = _direct_on_zone(points, zone)
    except OutOfRangeError:
        for offender_id, start, stop in spans:
            try:
                _direct_on_zone(points[start:stop], zone)
            except OutOfRangeError as exc:
                raise dataset.DataError(f"offender {offender_id}: {exc}") from exc
        raise
    return dataset.Dataset(
        tuple(
            dataset.CrimeSeries(
                offender_id,
                [(p.easting, p.northing) for p in on_zone[start : stop - 1]],
                zone,
                on_zone[stop - 1],
            )
            for offender_id, start, stop in spans
        )
    )
