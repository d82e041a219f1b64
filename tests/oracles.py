"""Brute-force quadrature helpers shared by the unit and acceptance tests.

These integrate densities numerically without using any closed-form
normalizer, so they stay independent of the code paths they check.
"""

import numpy as np

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
