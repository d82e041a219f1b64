import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from geoprofile import engine
from geoprofile.classify import SubtypeKind, SubtypeLabel, label_dataset
from geoprofile.dataset import CrimeSeries, Dataset, read_dataset
from geoprofile.engine import (
    DegenerateSurfaceError,
    Family,
    MethodId,
    ModelSpec,
    NONRES_WEIGHT_FROM_FREQUENCIES,
    PosteriorSurface,
    _log_quad,
    _normalize_log_mass,
    _pairwise_sum,
    m3_surface,
    method_surfaces,
    multimodel_combine,
    posterior_surface,
    prior_kinds,
    run_method,
)
from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid, locate_cell
from geoprofile.models import M1Params, M2Params, NonResParams, m1_density, m2_density, nonres_density
from geoprofile.priors import PriorKind, build_prior_set, flat_prior_set
from oracles import (
    _log_quad_one_call,
    log_marginal_likelihood_direct,
    ring_log_likelihood_direct,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import inputs  # noqa: E402

GRID = Grid(west=330.0, east=370.0, south=4345.0, north=4380.0, nrows=35, ncols=40)
PRIORS = flat_prior_set(GRID)


def _series(xy, anchor=None, offender="t"):
    anchor_pt = UtmPoint(18, *anchor) if anchor is not None else None
    return CrimeSeries(offender, xy, 18, anchor_pt)


def _rand_sites(rng, center, spread, n):
    return center + rng.normal(0.0, spread, size=(n, 2))


def _direct_surface(series, density, params, grid):
    """Normalized per-cell product of per-crime densities, no quadrature."""
    centers = grid.centers
    log_mass = np.zeros(len(centers))
    for site in series.xy:
        vals = np.array([density(site, c, params) for c in centers])
        log_mass += np.log(vals)
    mass = np.exp(log_mass - log_mass.max())
    mass /= mass.sum()
    return mass.reshape(grid.nrows, grid.ncols)


class TestPosteriorCollapse:
    """Single-node parameter priors collapse the integral to a point value."""

    def test_m1(self):
        rng = np.random.default_rng(101)
        series = _series(_rand_sites(rng, np.array([350.0, 4360.0]), 2.0, 8))
        spec = ModelSpec(Family.M1, fixed_overrides={"alpha": 2.5})
        surface = posterior_surface(series, spec, PRIORS, GRID)
        direct = _direct_surface(series, m1_density, M1Params(2.5), GRID)
        np.testing.assert_allclose(surface.mass, direct, rtol=1e-10)

    def test_m2(self):
        rng = np.random.default_rng(102)
        series = _series(_rand_sites(rng, np.array([352.0, 4362.0]), 3.0, 10))
        spec = ModelSpec(Family.M2, fixed_overrides={"alpha": 4.0, "sigma": 1.2})
        surface = posterior_surface(series, spec, PRIORS, GRID)
        direct = _direct_surface(series, m2_density, M2Params(4.0, 1.2), GRID)
        np.testing.assert_allclose(surface.mass, direct, rtol=1e-10)

    def test_nonres(self):
        rng = np.random.default_rng(103)
        series = _series(_rand_sites(rng, np.array([355.0, 4365.0]), 4.0, 6))
        spec = ModelSpec(
            Family.NONRES,
            fixed_overrides={
                "alpha": 12.0,
                "sigma1": 2.0,
                "theta": math.pi / 3,
                "sigma2": 0.5,
            },
        )
        surface = posterior_surface(series, spec, PRIORS, GRID)
        params = NonResParams(12.0, 2.0, math.pi / 3, 0.5)
        direct = _direct_surface(series, nonres_density, params, GRID)
        np.testing.assert_allclose(surface.mass, direct, rtol=1e-10)


class TestPosteriorSurface:
    def test_single_crime_m1_argmax_at_site(self):
        series = _series([(351.3, 4361.7)])
        surface = posterior_surface(series, ModelSpec(Family.M1), PRIORS, GRID)
        row, col = np.unravel_index(np.argmax(surface.mass), surface.mass.shape)
        assert (row, col) == locate_cell(GRID, UtmPoint(18, *series.xy[0].tolist()))

    def test_surface_sums_to_one(self):
        rng = np.random.default_rng(104)
        series = _series(_rand_sites(rng, np.array([350.0, 4360.0]), 2.0, 12))
        for family in Family:
            surface = posterior_surface(series, ModelSpec(family), PRIORS, GRID)
            assert surface.mass.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(surface.mass >= 0.0)

    def test_ring_recovery_argmax_near_truth(self):
        rng = np.random.default_rng(105)
        anchor = np.array([350.0, 4362.0])
        angles = rng.uniform(0.0, 2.0 * math.pi, size=12)
        radii = rng.normal(5.0, 1.0, size=12)
        sites = anchor + radii[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
        series = _series(sites)
        surface = posterior_surface(series, ModelSpec(Family.M2), PRIORS, GRID)
        row, col = np.unravel_index(np.argmax(surface.mass), surface.mass.shape)
        true_row, true_col = locate_cell(GRID, UtmPoint(18, *anchor))
        assert max(abs(row - true_row), abs(col - true_col)) <= 2

    def test_anchor_prior_grid_mismatch(self):
        series = _series([(350.0, 4360.0), (351.0, 4361.0), (352.0, 4362.0)])
        other = Grid(west=0.0, east=10.0, south=0.0, north=10.0, nrows=10, ncols=10)
        with pytest.raises(ValueError, match="grid"):
            posterior_surface(series, ModelSpec(Family.M1), PRIORS, other)

    def test_series_in_another_zone(self):
        grid = replace(GRID, zone=17)
        series = _series([(350.0, 4360.0), (351.0, 4361.0), (352.0, 4362.0)])
        with pytest.raises(ValueError, match="^offender 't' is in zone 18, not the grid zone 17$"):
            posterior_surface(series, ModelSpec(Family.M2), flat_prior_set(grid), grid)

    def test_missing_prior_kind(self):
        from types import MappingProxyType

        from geoprofile.priors import PriorSet, flat_anchor_prior

        partial = PriorSet(
            anchor=flat_anchor_prior(GRID),
            params=MappingProxyType({}),
            source_offender_count=0,
        )
        series = _series([(350.0, 4360.0), (351.0, 4361.0), (352.0, 4362.0)])
        with pytest.raises(KeyError, match="distance_m1"):
            posterior_surface(series, ModelSpec(Family.M1), partial, GRID)

    @pytest.mark.parametrize(
        "quadrature, message",
        [({"alpah": 3}, "unknown quadrature parameter"), ({"sigma": 0}, "must be >= 1")],
        ids=["misspelled", "zero"],
    )
    def test_bad_quadrature_rejected(self, quadrature, message):
        # a count for a parameter the family does not use is checked too
        with pytest.raises(ValueError, match=message):
            ModelSpec(Family.M1, quadrature=quadrature)

    def test_override_outside_support_rejected(self):
        series = _series([(350.0, 4360.0)])
        spec = ModelSpec(Family.M1, fixed_overrides={"alpha": 1e6})
        with pytest.raises(ValueError, match="support"):
            posterior_surface(series, spec, PRIORS, GRID)

    def test_quadrature_refinement_stable(self):
        # fixture mirrors the pipeline: donor-estimated priors concentrated
        # around the truth, where the default node counts are converged
        from types import MappingProxyType

        from geoprofile.priors import (
            PriorSet,
            bounded_density_1d,
            flat_anchor_prior,
            flat_param_prior,
        )

        rng = np.random.default_rng(106)
        anchor = np.array([350.0, 4362.0])
        angles = rng.uniform(0.0, 2.0 * math.pi, size=10)
        radii = rng.normal(4.0, 1.0, size=10)
        sites = anchor + radii[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
        series = _series(sites)
        params = {k: flat_param_prior(k) for k in PriorKind}
        params[PriorKind.DISTANCE_M2] = bounded_density_1d(
            rng.normal(4.0, 0.8, size=25).clip(0.5),
            0.0,
            150.0,
        )
        params[PriorKind.SPREAD_RADIAL] = bounded_density_1d(
            rng.normal(1.1, 0.15, size=25).clip(0.1),
            0.05,
            20.0,
        )
        priors = PriorSet(flat_anchor_prior(GRID), MappingProxyType(params), 0)
        coarse = posterior_surface(series, ModelSpec(Family.M2), priors, GRID)
        fine_spec = ModelSpec(Family.M2, quadrature={"alpha": 64, "sigma": 16})
        fine = posterior_surface(series, fine_spec, priors, GRID)
        assert np.max(np.abs(coarse.mass - fine.mass)) < 1e-3

    def test_likelihood_scale_invariance(self):
        # a constant per-crime factor shifts every cell's log mass equally
        rng = np.random.default_rng(107)
        log_mass = rng.normal(-500.0, 40.0, size=GRID.ncells)
        a = _normalize_log_mass(log_mass.copy(), GRID)
        b = _normalize_log_mass(log_mass + 12 * math.log(7.3), GRID)
        np.testing.assert_allclose(a.mass, b.mass, atol=1e-12)

    def test_degenerate_surface_raises(self):
        with pytest.raises(DegenerateSurfaceError):
            _normalize_log_mass(np.full(GRID.ncells, -np.inf), GRID)

    def test_cells_far_below_peak_get_exactly_zero_mass(self):
        # the node sum's exponent floor must not leak into normalization:
        # rank ties and the posterior-collapse oracle rely on exact zeros
        log_mass = np.full(GRID.ncells, -3.0)
        log_mass[0] = 0.0
        far = np.arange(1, GRID.ncells, 7)
        log_mass[far] = -745.5 - np.linspace(0.0, 1e4, len(far))
        log_mass[-1] = -np.inf
        mass = _normalize_log_mass(log_mass, GRID).mass.ravel()
        assert np.all(mass[far] == 0.0)
        assert mass[-1] == 0.0
        assert np.all(mass[np.isfinite(log_mass) & (log_mass > -745.0)] > 0.0)

    def test_crime_on_cell_center_nonres_finite(self):
        # site exactly on a candidate cell center must not produce NaN
        center_pt = (330.5, 4345.5)
        series = _series([center_pt, (340.0, 4350.0), (341.0, 4351.0)])
        surface = posterior_surface(series, ModelSpec(Family.NONRES), PRIORS, GRID)
        assert np.all(np.isfinite(surface.mass))


class TestMultimodelCombine:
    def _uniform(self):
        mass = np.full((GRID.nrows, GRID.ncols), 1.0 / GRID.ncells)
        return PosteriorSurface(GRID, mass)

    def _peaked(self, seed):
        rng = np.random.default_rng(seed)
        mass = rng.random((GRID.nrows, GRID.ncols))
        return PosteriorSurface(GRID, mass / mass.sum())

    def test_identity(self):
        s = self._peaked(1)
        out = multimodel_combine([s], [1.0])
        assert np.array_equal(out.mass, s.mass)

    def test_mean_of_two(self):
        a, b = self._peaked(2), self._peaked(3)
        out = multimodel_combine([a, b], [0.5, 0.5])
        np.testing.assert_array_equal(out.mass, 0.5 * a.mass + 0.5 * b.mass)

    def test_linearity_exact(self):
        a, b = self._peaked(4), self._peaked(5)
        w = 0.371
        out = multimodel_combine([a, b], [w, 1.0 - w])
        np.testing.assert_array_equal(out.mass, w * a.mass + (1.0 - w) * b.mass)

    def test_weight_sum_enforced(self):
        a, b = self._peaked(6), self._peaked(7)
        with pytest.raises(ValueError, match="sum to 1"):
            multimodel_combine([a, b], [0.5, 0.499])

    def test_negative_weight_rejected(self):
        a, b = self._peaked(8), self._peaked(9)
        with pytest.raises(ValueError, match="nonnegative"):
            multimodel_combine([a, b], [1.5, -0.5])

    def test_grid_mismatch_rejected(self):
        a = self._peaked(10)
        other_grid = Grid(west=0.0, east=40.0, south=0.0, north=35.0, nrows=35, ncols=40)
        b = PosteriorSurface(other_grid, a.mass.copy())
        with pytest.raises(ValueError, match="grid"):
            multimodel_combine([a, b], [0.5, 0.5])

    def test_frequency_weights(self):
        a, b = self._peaked(11), self._peaked(12)
        out = multimodel_combine([a, b], [10.0 / 11.0, 1.0 / 11.0])
        np.testing.assert_allclose(
            out.mass, (10.0 * a.mass + b.mass) / 11.0, atol=1e-15
        )


def _two_cluster_series(rng, c1, c2, n1=4, n2=5):
    sites = np.concatenate(
        [_rand_sites(rng, np.asarray(c1), 0.4, n1), _rand_sites(rng, np.asarray(c2), 0.4, n2)]
    )
    return _series(sites), SubtypeLabel(
        SubtypeKind.M3,
        (frozenset(range(n1)), frozenset(range(n1, n1 + n2))),
    )


class TestM3Surface:
    def test_matches_hand_composition(self):
        rng = np.random.default_rng(201)
        series, label = _two_cluster_series(rng, (345.0, 4355.0), (358.0, 4368.0))
        got = m3_surface(series, label, PRIORS, GRID)
        parts = [
            posterior_surface(
                series.restrict(cluster), ModelSpec(Family.M1), PRIORS, GRID
            )
            for cluster in label.clusters
        ]
        parts.append(posterior_surface(series, ModelSpec(Family.M2), PRIORS, GRID))
        expected = multimodel_combine(parts, [1 / 3] * 3)
        np.testing.assert_array_equal(got.mass, expected.mass)

    def test_component_reorder_invariant(self):
        rng = np.random.default_rng(202)
        series, label = _two_cluster_series(rng, (345.0, 4355.0), (358.0, 4368.0))
        flipped = SubtypeLabel(SubtypeKind.M3, label.clusters[::-1])
        a = m3_surface(series, label, PRIORS, GRID)
        b = m3_surface(series, flipped, PRIORS, GRID)
        np.testing.assert_allclose(a.mass, b.mass, atol=1e-15)

    def test_anchor_cluster_gets_more_mass(self):
        rng = np.random.default_rng(203)
        c1, c2 = np.array([345.0, 4355.0]), np.array([360.0, 4370.0])
        series, label = _two_cluster_series(rng, c1, c2)
        surface = m3_surface(series, label, PRIORS, GRID)
        # mass within 4 km of each cluster center
        d1 = np.hypot(GRID.centers[:, 0] - c1[0], GRID.centers[:, 1] - c1[1])
        d2 = np.hypot(GRID.centers[:, 0] - c2[0], GRID.centers[:, 1] - c2[1])
        flat = surface.mass.ravel()
        # both clusters hold posterior mass; an anchor inside cluster 1 is
        # supported by cluster 1's no-buffer component
        assert flat[d1 < 4.0].sum() > 0.2
        assert flat[d2 < 4.0].sum() > 0.2

    def test_requires_m3_label(self):
        rng = np.random.default_rng(204)
        series, _ = _two_cluster_series(rng, (345.0, 4355.0), (358.0, 4368.0))
        with pytest.raises(ValueError):
            m3_surface(series, SubtypeLabel(SubtypeKind.M2), PRIORS, GRID)


class TestRunMethod:
    def _m1_series(self):
        rng = np.random.default_rng(301)
        return _series(_rand_sites(rng, np.array([350.0, 4360.0]), 0.6, 8))

    def test_1a_on_m1_equals_family_posterior(self):
        series = self._m1_series()
        label = SubtypeLabel(SubtypeKind.M1)
        via_method = run_method(series, MethodId.ONE_A, label, PRIORS, GRID)
        direct = posterior_surface(series, ModelSpec(Family.M1), PRIORS, GRID)
        np.testing.assert_array_equal(via_method.mass, direct.mass)

    def test_2ai_is_even_blend(self):
        series = self._m1_series()
        label = SubtypeLabel(SubtypeKind.M1)
        combined = run_method(series, MethodId.TWO_AI, label, PRIORS, GRID)
        resident = posterior_surface(series, ModelSpec(Family.M1), PRIORS, GRID)
        nonres = posterior_surface(series, ModelSpec(Family.NONRES), PRIORS, GRID)
        np.testing.assert_array_equal(
            combined.mass, 0.5 * resident.mass + 0.5 * nonres.mass
        )

    def test_2aii_differs_only_by_weights(self):
        series = self._m1_series()
        label = SubtypeLabel(SubtypeKind.M1)
        surfaces = method_surfaces(
            series, [MethodId.TWO_AI, MethodId.TWO_AII], label, PRIORS, GRID
        )
        resident = posterior_surface(series, ModelSpec(Family.M1), PRIORS, GRID)
        nonres = posterior_surface(series, ModelSpec(Family.NONRES), PRIORS, GRID)
        np.testing.assert_array_equal(
            surfaces[MethodId.TWO_AI].mass, 0.5 * resident.mass + 0.5 * nonres.mass
        )
        np.testing.assert_array_equal(
            surfaces[MethodId.TWO_AII].mass,
            (1.0 - 1.0 / 11.0) * resident.mass + (1.0 / 11.0) * nonres.mass,
        )
        np.testing.assert_allclose(
            surfaces[MethodId.TWO_AII].mass,
            (10.0 * resident.mass + nonres.mass) / 11.0,
            atol=1e-15,
        )

    def test_1b_uses_bearing_family_for_ring_residents(self):
        rng = np.random.default_rng(302)
        anchor = np.array([350.0, 4360.0])
        angles = rng.uniform(0.3, 1.2, size=9)
        radii = rng.normal(6.0, 1.0, size=9)
        sites = anchor + radii[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
        series = _series(sites)
        label = SubtypeLabel(SubtypeKind.M2)
        got = run_method(series, MethodId.ONE_B, label, PRIORS, GRID)
        spec = ModelSpec(
            Family.NONRES,
            prior_kinds={"alpha": PriorKind.DISTANCE_M2, "theta": PriorKind.ANGLE_M2},
        )
        assert {p: spec.prior_kind(p) for p in ("alpha", "sigma1", "theta", "sigma2")} == {
            "alpha": PriorKind.DISTANCE_M2,
            "sigma1": PriorKind.SPREAD_RADIAL,
            "theta": PriorKind.ANGLE_M2,
            "sigma2": PriorKind.SPREAD_ANGULAR,
        }
        expected = posterior_surface(series, spec, PRIORS, GRID)
        np.testing.assert_array_equal(got.mass, expected.mass)

    def test_rossmo_rejected(self):
        series = self._m1_series()
        with pytest.raises(ValueError):
            run_method(series, MethodId.ROSSMO, SubtypeLabel(SubtypeKind.M1), PRIORS, GRID)

    @pytest.mark.parametrize("kind", [SubtypeKind.M1, SubtypeKind.M2, SubtypeKind.M3])
    def test_component_posteriors_computed_once(self, kind, monkeypatch):
        import geoprofile.engine as engine

        if kind is SubtypeKind.M1:
            series, label = self._m1_series(), SubtypeLabel(SubtypeKind.M1)
            # one resident surface for both variants, one non-resident
            expected = {Family.M1: 1, Family.NONRES: 1}
        else:
            rng = np.random.default_rng(303)
            series, label = _two_cluster_series(rng, (345.0, 4355.0), (358.0, 4368.0))
            # one buffer model per variant (variant b's is NONRES) plus the
            # non-resident surface; an M3 label adds two shared cluster
            # components
            expected = {Family.M2: 1, Family.NONRES: 2}
            if kind is SubtypeKind.M2:
                label = SubtypeLabel(SubtypeKind.M2)
            else:
                expected[Family.M1] = 2
        calls = Counter()
        original = engine.posterior_surface

        def counting(series, spec, priors, grid, **shared):
            calls[spec.family] += 1
            return original(series, spec, priors, grid, **shared)

        methods = [m for m in MethodId if m is not MethodId.ROSSMO]
        monkeypatch.setattr(engine, "posterior_surface", counting)
        assert method_surfaces(series, [], label, PRIORS, GRID) == {}
        surfaces = method_surfaces(series, methods, label, PRIORS, GRID)
        monkeypatch.undo()
        assert calls == expected
        for method in methods:
            alone = run_method(series, method, label, PRIORS, GRID)
            np.testing.assert_array_equal(surfaces[method].mass, alone.mass)


# Each posterior method's wiring, written out independently of the engine:
# the resident buffer-zone model and the weight of the non-resident surface
# (None: the caller's nonres_weight).
_RING = ModelSpec(Family.M2)
_DIRECTIONAL = ModelSpec(
    Family.NONRES, prior_kinds={"alpha": PriorKind.DISTANCE_M2, "theta": PriorKind.ANGLE_M2}
)
WIRING = {
    MethodId.ONE_A: (_RING, 0.0),
    MethodId.ONE_B: (_DIRECTIONAL, 0.0),
    MethodId.TWO_AI: (_RING, 0.5),
    MethodId.TWO_AII: (_RING, None),
    MethodId.TWO_BI: (_DIRECTIONAL, 0.5),
    MethodId.TWO_BII: (_DIRECTIONAL, None),
}


def _composition(series, method, label, priors, nonres_weight, quadrature=None):
    """One method's surface from standalone ``posterior_surface`` calls,
    blended as ``WIRING`` says."""
    buffer, weight = WIRING[method]
    weight = nonres_weight if weight is None else weight

    def alone(part, spec):
        return posterior_surface(part, replace(spec, quadrature=quadrature), priors, GRID)

    no_buffer = ModelSpec(Family.M1)
    resident = alone(series, no_buffer if label.kind is SubtypeKind.M1 else buffer)
    if label.kind is SubtypeKind.M3:
        parts = [alone(series.restrict(c), no_buffer) for c in label.clusters]
        resident = multimodel_combine([*parts, resident], [1.0 / (len(parts) + 1)] * (len(parts) + 1))
    if not weight:
        return resident
    nonres = alone(series, ModelSpec(Family.NONRES))
    return multimodel_combine([resident, nonres], [1.0 - weight, weight])


class TestMethodWiring:
    """run_method against a composition of component posteriors by hand."""

    @pytest.mark.parametrize("kind", list(SubtypeKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("method", list(WIRING), ids=lambda m: m.value)
    def test_run_method_equals_composition(self, method, kind):
        rng = np.random.default_rng(310)
        series, m3_label = _two_cluster_series(rng, (345.0, 4355.0), (358.0, 4368.0))
        label = m3_label if kind is SubtypeKind.M3 else SubtypeLabel(kind)
        expected = _composition(series, method, label, PRIORS, 0.3)
        got = run_method(series, method, label, PRIORS, GRID, nonres_weight=0.3)
        np.testing.assert_array_equal(got.mass, expected.mass)


class TestSharedTerms:
    """``method_surfaces`` computes an offender's statistics once per
    statistics function and each distinct block quadrature once, and its
    surfaces are those of standalone ``posterior_surface`` calls bit for
    bit."""

    METHODS = list(WIRING)

    @staticmethod
    def _offender(kind):
        rng = np.random.default_rng(320)
        series, m3_label = _two_cluster_series(rng, (345.0, 4355.0), (358.0, 4368.0))
        return series, m3_label if kind is SubtypeKind.M3 else SubtypeLabel(kind)

    @pytest.mark.parametrize("quadrature", [None, {"sigma": 16}], ids=["default", "sigma16"])
    @pytest.mark.parametrize("prior", ["flat", "loo"])
    @pytest.mark.parametrize("kind", list(SubtypeKind), ids=lambda k: k.value)
    def test_surfaces_equal_standalone_calls(self, kind, prior, quadrature, monkeypatch):
        import geoprofile.engine as engine

        series, label = self._offender(kind)
        priors = PRIORS if prior == "flat" else _loo_priors(GRID)
        original = engine.posterior_surface
        components = []

        def recording(series, spec, priors, grid, **shared):
            surface = original(series, spec, priors, grid, **shared)
            components.append((series, spec, surface))
            return surface

        monkeypatch.setattr(engine, "posterior_surface", recording)
        weight = NONRES_WEIGHT_FROM_FREQUENCIES
        surfaces = method_surfaces(series, self.METHODS, label, priors, GRID, weight, quadrature)
        monkeypatch.undo()
        # the resident, non-resident and cluster surfaces, each recomputed alone
        assert len(components) == (2 if kind is SubtypeKind.M1 else 3) + len(label.clusters)
        for part, spec, surface in components:
            alone = posterior_surface(part, spec, priors, GRID)
            np.testing.assert_array_equal(surface.mass, alone.mass)
        for method in self.METHODS:
            expected = _composition(series, method, label, priors, weight, quadrature)
            np.testing.assert_array_equal(surfaces[method].mass, expected.mass)

    @pytest.mark.parametrize(
        "kind, quadrature, blocks",
        [
            # M1 block, non-resident radial and bearing blocks
            (SubtypeKind.M1, None, 3),
            # ring = directional radial block, directional bearing block,
            # non-resident radial and bearing blocks
            (SubtypeKind.M2, None, 4),
            # 4 as M2, plus one M1 block per cluster
            (SubtypeKind.M3, None, 6),
            # the ring's spread nodes differ from the directional model's
            (SubtypeKind.M2, {"sigma": 16}, 5),
        ],
        ids=["M1", "M2", "M3", "M2-sigma16"],
    )
    def test_each_block_and_statistic_computed_once(self, kind, quadrature, blocks, monkeypatch):
        import geoprofile.engine as engine

        series, label = self._offender(kind)
        calls = Counter()

        def counting(name):
            original = getattr(engine, name)

            def count(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(engine, name, count)

        counting("_log_quad")
        counting("_sum_stats")
        method_surfaces(
            series, self.METHODS, label, PRIORS, GRID, NONRES_WEIGHT_FROM_FREQUENCIES, quadrature
        )
        # r and phi once for all sites, and r once per cluster
        assert calls == {"_log_quad": blocks, "_sum_stats": 2 + len(label.clusters)}

    def test_terms_of_another_series_rejected(self):
        import geoprofile.engine as engine

        rng = np.random.default_rng(321)
        one, other = (_series(_rand_sites(rng, np.array([350.0, 4360.0]), 1.0, 5)) for _ in "ab")
        terms = engine._Terms(one, PRIORS, GRID, [Family.M1])
        with pytest.raises(ValueError, match="another series"):
            posterior_surface(other, ModelSpec(Family.M1), PRIORS, GRID, terms=terms)
        with pytest.raises(ValueError, match="another series"):
            posterior_surface(one, ModelSpec(Family.M1), _loo_priors(GRID), GRID, terms=terms)


class _Recording(dict):
    """A table of parameter priors that records every kind read from it."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, kind):
        self.read.add(kind)
        return super().__getitem__(kind)


class TestPriorPlan:
    """``prior_kinds`` names exactly the priors ``method_surfaces`` reads,
    and those alone give the surfaces of the full prior set."""

    @pytest.mark.parametrize(
        "weight", [0.0, NONRES_WEIGHT_FROM_FREQUENCIES], ids=["weight-0", "weight-default"]
    )
    @pytest.mark.parametrize(
        "methods",
        [[m] for m in WIRING] + [list(WIRING)],
        ids=[m.value for m in WIRING] + ["all"],
    )
    @pytest.mark.parametrize("kind", list(SubtypeKind), ids=lambda k: k.value)
    def test_planned_kinds_are_read(self, kind, methods, weight):
        rng = np.random.default_rng(310)
        series, m3_label = _two_cluster_series(rng, (345.0, 4355.0), (358.0, 4368.0))
        label = m3_label if kind is SubtypeKind.M3 else SubtypeLabel(kind)
        planned = prior_kinds(methods, label, weight)
        full = _loo_priors(GRID)
        recording = replace(full, params=_Recording(full.params))
        surfaces = method_surfaces(series, methods, label, recording, GRID, weight)
        assert recording.params.read == planned

        only = _loo_priors(GRID, planned)
        assert set(only.params) == planned
        alone = method_surfaces(series, methods, label, only, GRID, weight)
        assert alone.keys() == surfaces.keys()
        for method, surface in alone.items():
            np.testing.assert_array_equal(surface.mass, surfaces[method].mass)

    def test_rossmo_rejected(self):
        with pytest.raises(ValueError, match="not a posterior method"):
            prior_kinds([MethodId.ROSSMO], SubtypeLabel(SubtypeKind.M1))


def test_pairwise_sum_replays_numpy_row_sum():
    # numpy's reduction order, replayed by column adds, for every series
    # length up to past two 128-value blocks, then on fewer cells for node
    # tensors whose halves split again (up to 4096 nodes); magnitudes 1e-3
    # to 1e3 make any change of order show in the last bits
    rng = np.random.default_rng(300)
    for cells, lengths in ((7000, range(1, 301)), (64, (511, 512, 513, 1024, 4096))):
        values = 10.0 ** rng.uniform(-3.0, 3.0, size=(cells, max(lengths)))
        for n in lengths:
            rows = np.ascontiguousarray(values[:, :n])
            got = _pairwise_sum(np.ascontiguousarray(rows.T))
            assert np.array_equal(got, rows.sum(axis=1)), n


def test_pairwise_sum_replays_numpy_row_sum_on_column_slices():
    # the node sweep's tiles arrive as the first columns of a wider
    # buffer, whose rows are strided: every length on both sides of the
    # eight-accumulator reduce (8 to 128 values) and the halving above
    # it, then the tile widths of 256 and 32 nodes
    rng = np.random.default_rng(301)
    wide = [(n, 512) for n in (128, 256, 300)] + [(n, 4096) for n in (32, 64, 128, 129)]
    for n, width in [(n, int(rng.integers(1, 97))) for n in range(1, 601)] + wide:
        buf = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, width + int(rng.integers(1, 33))))
        want = np.ascontiguousarray(buf[:, :width].T).sum(axis=1)
        assert np.array_equal(_pairwise_sum(buf[:, :width]), want), (n, width)


class TestLogQuad:
    """The floored node log-sum-exp against the unfloored one."""

    @staticmethod
    def _reference(stats, coeffs):
        vals = stats @ coeffs
        peak = vals.max(axis=1)
        shifted = np.exp(vals - peak[:, None])
        return np.log(shifted.sum(axis=1)) + peak - math.log(coeffs.shape[1])

    @staticmethod
    def _block(seed, cells=500, nodes=256):
        """stats [x, 1] and coeffs [-u, w]: vals = w - u x, spread far below the peak.

        A third of the nodes sit within 720 of the peak, a third land in
        numpy's slow underflow band [-745, -708) and a third below -745.
        """
        rng = np.random.default_rng(seed)
        u = rng.permutation(
            np.concatenate(
                [
                    rng.uniform(0.0, 720.0, nodes - 2 * (nodes // 3)),
                    rng.uniform(712.0, 740.0, nodes // 3),
                    rng.uniform(750.0, 3000.0, nodes // 3),
                ]
            )
        )
        x = rng.uniform(0.995, 1.005, cells)
        stats = np.column_stack([x, np.ones(cells)])
        coeffs = np.stack([-u, rng.uniform(-1.0, 1.0, nodes)])
        return stats, coeffs

    def test_matches_unfloored_reference_in_underflow(self):
        for seed in range(600, 604):
            stats, coeffs = self._block(seed)
            vals = stats @ coeffs
            shifted = vals - vals.max(axis=1, keepdims=True)
            assert np.mean(shifted < -708.0) >= 0.4
            assert np.mean((shifted >= -745.0) & (shifted < -708.0)) >= 0.2
            assert np.mean(shifted < -745.0) >= 0.2
            np.testing.assert_array_equal(
                _log_quad(stats, coeffs), self._reference(stats, coeffs)
            )

    def test_cell_underflowed_at_every_node_stays_neg_inf(self):
        stats, coeffs = self._block(610)
        stats[3, 0] = np.inf  # w - u x is -inf at every node, as every u > 0
        vals = stats @ coeffs
        assert np.all(vals[3] == -np.inf)
        got = _log_quad(stats, coeffs)
        assert got[3] == -np.inf
        rest = np.arange(len(got)) != 3
        np.testing.assert_array_equal(got[rest], self._reference(stats[rest], coeffs))

    def test_cells_mixing_neg_inf_and_finite_nodes(self):
        stats, coeffs = self._block(611)
        coeffs[1, ::5] = -np.inf  # every cell is -inf at a fifth of the nodes
        vals = stats @ coeffs
        assert np.all(vals[:, ::5] == -np.inf) and np.all(np.isfinite(vals[:, 1::5]))
        np.testing.assert_array_equal(
            _log_quad(stats, coeffs), self._reference(stats, coeffs)
        )


class TestSplitSweep:
    """``_log_quad``'s tiles, whichever thread sweeps them, and its matmul
    sub-calls change no bits, keep every BLAS call within OpenBLAS's
    one-thread bound and start one worker thread, which runs in the
    caller's context, whose errors reach the caller and on which a caller
    never waits before it has started."""

    @staticmethod
    def _block(seed, cells, nodes, n=10):
        """Statistics of random crime distances and the Gaussian
        coefficients of random node means and spreads."""
        rng = np.random.default_rng(seed)
        stats = engine._sum_stats(rng.uniform(0.0, 30.0, size=(n, cells)), n)
        mu, s = rng.uniform(0.0, 20.0, nodes), rng.uniform(0.05, 5.0, nodes)
        return stats, engine._gaussian_coeffs(n, mu, s, np.log(s))

    @pytest.mark.parametrize("nodes", [1, 7, 32, 99, 256, 1024, 4096, 5000])
    def test_equals_one_call(self, nodes, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", 2)
        # 7000, the default grid, is 8 past a multiple of 16
        for cells in (16, 48, 272, 1104, 7000):
            if nodes * cells <= 2_000_000:
                stats, coeffs = self._block(nodes + cells, cells, nodes)
                got = _log_quad(stats, coeffs)
                np.testing.assert_array_equal(got, _log_quad_one_call(stats, coeffs))

    @pytest.mark.parametrize("kind", list(SubtypeKind), ids=lambda k: k.value)
    def test_one_part_equals_two(self, kind, monkeypatch):
        series, label = TestSharedTerms._offender(kind)
        surfaces = {}
        for parts in (1, 2):
            monkeypatch.setattr(engine, "_PARTS", parts)
            surfaces[parts] = method_surfaces(series, list(WIRING), label, PRIORS, GRID)
        for method in WIRING:
            np.testing.assert_array_equal(surfaces[1][method].mass, surfaces[2][method].mass)

    @staticmethod
    def _gate(monkeypatch, tile=None):
        """In every ``_log_quad`` call, hold the caller's first tile until
        the worker has claimed one, so both threads sweep;
        ``tile(is_caller, *args)`` replaces the tile function after the
        gate."""
        caller, ready, claimed = threading.current_thread(), threading.Condition(), []
        sweep = engine._log_quad_tile
        tile = tile or (lambda is_caller, *args: sweep(*args))

        def gated(lhs, rhs, buf, quad, edges):
            # a call is known by its output array, which ``claimed`` keeps
            is_caller = threading.current_thread() is caller
            with ready:
                if is_caller:
                    assert ready.wait_for(
                        lambda: any(q is quad for q in claimed), timeout=60
                    ), "the worker never claimed a tile"
                else:
                    claimed.append(quad)
                    ready.notify_all()
            tile(is_caller, lhs, rhs, buf, quad, edges)

        monkeypatch.setattr(engine, "_log_quad_tile", gated)
        return sweep

    def test_blas_calls_within_the_one_thread_bound(self, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", 2)
        self._gate(monkeypatch)
        matmul = np.matmul
        calls = []

        def recording(a, b, **kwargs):
            calls.append((threading.get_ident(), a.shape[0] * a.shape[1] * b.shape[1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(engine.np, "matmul", recording)
        for nodes, cells in ((32, 7000), (256, 7000), (256, 7171), (4096, 275), (5000, 48)):
            calls.clear()
            stats, coeffs = self._block(nodes, cells, nodes)
            np.testing.assert_array_equal(
                _log_quad(stats, coeffs), _log_quad_one_call(stats, coeffs)
            )
            sizes = [size for _, size in calls]
            assert max(sizes) <= engine.BLAS_ONE_THREAD_MAX, (nodes, cells)
            # the sub-calls cover every cell-node once, on two threads
            assert sum(sizes) == 4 * nodes * cells
            assert len({thread for thread, _ in calls}) == 2

    @pytest.mark.parametrize("nodes, cells", [(256, 7000), (32, 7000), (256, 7171), (5000, 48)])
    def test_tiles_cover_every_cell_once(self, nodes, cells):
        tiles = engine._tiles(cells, 4 * nodes)
        # consecutive tiles share an edge; every tile holds a sub-call or more
        assert tiles[0][0] == 0 and tiles[-1][-1] == cells
        assert all(t[-1] == u[0] for t, u in zip(tiles, tiles[1:]))
        assert all(len(t) >= 2 and t == sorted(set(t)) for t in tiles)
        # at the BLAS bound a tile holds at most 1 MiB of exponents, or two
        # aligned cell blocks where a node tensor is larger
        width = max(t[-1] - t[0] for t in tiles)
        assert width * nodes * 8 <= max(2**20, 2 * 8 * nodes * engine._CELL_ALIGN)
        # the sub-calls start on multiples of the alignment; a remainder
        # shares its own sub-call only with the aligned block before it
        edges = sorted({e for t in tiles for e in t})
        assert all(e % engine._CELL_ALIGN == 0 for e in edges[:-1])
        if cells % engine._CELL_ALIGN:
            assert edges[-1] - edges[-2] == engine._CELL_ALIGN + cells % engine._CELL_ALIGN

    @pytest.mark.parametrize("parts", [1, 2])
    def test_sweep_memory_stays_within_two_tiles(self, parts, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", parts)
        stats, coeffs = self._block(390, 7000, 256)
        want = _log_quad_one_call(stats, coeffs)
        tracemalloc.start()
        try:
            got = _log_quad(stats, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # all its exponents at once, as one buffer, would be 14.3 MB
        assert peak < 3 * 2**20
        np.testing.assert_array_equal(got, want)

    def test_caller_never_waits_on_a_worker_that_has_not_started(self, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", 2)
        stats, coeffs = self._block(380, 7000, 256)
        release, got = threading.Event(), []
        busy = engine._WORKER.submit(release.wait, 120)  # the worker is taken
        caller = threading.Thread(target=lambda: got.append(_log_quad(stats, coeffs)))
        try:
            caller.start()
            caller.join(timeout=30)
            finished = not caller.is_alive()
        finally:
            release.set()
            busy.result(timeout=120)
            caller.join(timeout=120)
        assert finished, "the caller waited on a worker that had not started"
        np.testing.assert_array_equal(got[0], _log_quad_one_call(stats, coeffs))

    def test_one_worker_thread(self, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", 2)
        before = threading.active_count()
        rng = np.random.default_rng(330)
        for i in range(20):
            series = _series(_rand_sites(rng, np.array([350.0, 4360.0]), 3.0, 6))
            posterior_surface(series, ModelSpec(Family.M2), PRIORS, GRID)
        assert threading.active_count() <= before + 1
        sweep = [t for t in threading.enumerate() if t.name.startswith("geoprofile-sweep")]
        assert len(sweep) == 1

    def test_concurrent_callers_share_the_worker(self, monkeypatch):
        # more callers than cores, switching threads as often as possible:
        # each caller's tiles write only its own buffers
        monkeypatch.setattr(engine, "_PARTS", 2)
        blocks = [self._block(370 + i, 1104, 256) for i in range(6)]
        assert len(engine._tiles(1104, blocks[0][1].size)) == 3
        want = [_log_quad_one_call(*block) for block in blocks]
        got = [None] * len(blocks)

        def call(i):
            for _ in range(5):
                got[i] = _log_quad(*blocks[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(blocks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("over", ["raise", "ignore"])
    def test_callers_error_state_holds_in_the_worker(self, over, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", 2)
        raised = []

        def recording(is_caller, *args):
            try:
                sweep(*args)
            except FloatingPointError:
                raised.append("caller" if is_caller else "worker")
                raise

        sweep = self._gate(monkeypatch, recording)
        stats, coeffs = self._block(340, 7000, 32)
        # the first cell of every tile, so of the worker's too, overflows
        # at every node
        first = [edges[0] for edges in engine._tiles(7000, coeffs.size)]
        stats[first, 0] = 1e308
        coeffs[0] = np.minimum(coeffs[0], -2.0)
        with np.errstate(over=over):
            if over == "raise":
                with pytest.raises(FloatingPointError, match="overflow"):
                    _log_quad(stats, coeffs)
                assert "worker" in raised
            else:
                got = _log_quad(stats, coeffs)
                assert raised == [] and np.all(got[first] == -np.inf)
                np.testing.assert_array_equal(got, _log_quad_one_call(stats, coeffs))

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", 2)
        error, finished = RuntimeError("the worker's tile failed"), []

        def failing(is_caller, *args):
            if not is_caller:
                raise error
            sweep(*args)
            finished.append("caller")

        sweep = self._gate(monkeypatch, failing)
        stats, coeffs = self._block(350, 7000, 256)
        with pytest.raises(RuntimeError) as info:
            _log_quad(stats, coeffs)
        assert info.value is error
        # the worker stopped at its first tile; the caller swept every other
        assert finished == ["caller"] * (len(engine._tiles(7000, coeffs.size)) - 1)

    def test_caller_error_raised_once_the_worker_finishes(self, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", 2)
        error, finished = RuntimeError("the caller's tile failed"), []

        def failing(is_caller, *args):
            if is_caller:
                raise error
            time.sleep(0.05)
            sweep(*args)
            finished.append("worker")

        sweep = self._gate(monkeypatch, failing)
        stats, coeffs = self._block(351, 7000, 256)
        with pytest.raises(RuntimeError) as info:
            _log_quad(stats, coeffs)
        assert info.value is error
        # the caller stopped at its first tile; the worker swept every other
        assert finished == ["worker"] * (len(engine._tiles(7000, coeffs.size)) - 1)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(engine, "_PARTS", 2)
        stats, coeffs = self._block(360, 7000, 32)
        want = _log_quad(stats, coeffs)  # the parent's worker thread is running
        pid = os.fork()
        if pid == 0:  # the child never returns into the test run
            status = 1
            try:
                signal.alarm(60)  # a child left waiting on no thread dies
                status = 0 if np.array_equal(_log_quad(stats, coeffs), want) else 2
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_part_where_the_process_has_one_cpu(self):
        code = (
            "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from geoprofile import engine; print(engine._PARTS)"
        )
        package_root = str(Path(engine.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        )}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1\n"


def _loo_priors(grid, kinds=frozenset(PriorKind)):
    """Leave-one-out priors of ``kinds`` as the pipeline builds them, from
    mixed donors: compact residents, ring residents and far commuters with
    a bearing."""
    rng = np.random.default_rng(500)
    donors, labels = [], {}
    for i in range(15):
        anchor = rng.uniform((335.0, 4350.0), (365.0, 4375.0))
        radius = (0.8, 5.0, 18.0)[i % 3]
        angles = rng.uniform(0.0, 2.0 * math.pi, 6) if i % 3 < 2 else rng.normal(0.8, 0.2, 6)
        radii = rng.normal(radius, 0.2 * radius, 6).clip(0.1)
        offsets = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        donors.append(_series(anchor + offsets, anchor=anchor, offender=f"o{i}"))
        labels[f"o{i}"] = SubtypeLabel(SubtypeKind.M1 if i % 3 == 0 else SubtypeKind.M2)
    return build_prior_set(Dataset(tuple(donors)), "o0", labels, grid, kinds)


class TestLayoutOracle:
    """A family's log-likelihood, ``_Terms.log_likelihood`` of one series,
    against its cell-major formulation in ``tests/oracles.py``, bit for
    bit, across numpy's summation blocks over crimes and over nodes, every
    family and prior kind, crimes on and in line with cell centres, and
    grids of unequal, single-row and single-column cells."""

    UNEVEN = Grid(west=330.0, east=370.0, south=4345.0, north=4380.0, nrows=28, ncols=50)
    ROW = Grid(west=330.0, east=370.0, south=4360.0, north=4361.5, nrows=1, ncols=60)
    COLUMN = Grid(west=349.0, east=350.25, south=4345.0, north=4380.0, nrows=45, ncols=1)
    SPECS = (ModelSpec(Family.M1), ModelSpec(Family.M2), ModelSpec(Family.NONRES), _DIRECTIONAL)

    @staticmethod
    def _check(series, spec, priors, grid):
        got = engine._Terms(series, priors, grid, [spec.family]).log_likelihood(spec)
        np.testing.assert_array_equal(
            got, log_marginal_likelihood_direct(series, spec, priors, grid)
        )
        return got

    @staticmethod
    def _aligned_sites(grid, rng, n):
        """Random sites, then one on a cell centre and one exactly due east,
        west, north and south of it: zero offsets, +0.0 crime-major and
        -0.0 cell-major, and bearings on the branch cut."""
        col, row = rng.integers(grid.ncols), rng.integers(grid.nrows)
        e, nn = grid.east_centers[col], grid.north_centers[row]
        lo = (grid.west + 0.1, grid.south + 0.1)
        hi = (grid.east - 0.1, grid.north - 0.1)
        aligned = [(e, nn), (e + 1.7, nn), (e - 2.3, nn), (e, nn + 1.1), (e, nn - 0.6)]
        return np.vstack([rng.uniform(lo, hi, size=(n, 2)), aligned])

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 33, 127, 128, 129])
    def test_series_lengths(self, n):
        loo = _loo_priors(GRID)
        rng = np.random.default_rng(700 + n)
        series = _series(rng.uniform((332.0, 4347.0), (368.0, 4378.0), size=(n, 2)))
        for priors in (PRIORS, loo):
            for spec in self.SPECS:
                self._check(series, spec, priors, GRID)

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(Family.M1, fixed_overrides={"alpha": 2.0}),
            ModelSpec(Family.M1, quadrature={"alpha": 7}),
            ModelSpec(Family.M1, quadrature={"alpha": 8}),
            ModelSpec(Family.M1, quadrature={"alpha": 9}),
            ModelSpec(Family.M1, quadrature={"alpha": 300}),
            ModelSpec(Family.M2, quadrature={"alpha": 16, "sigma": 8}),
            ModelSpec(Family.M2, quadrature={"alpha": 43, "sigma": 3}),
            ModelSpec(Family.M2, fixed_overrides={"alpha": 4.0, "sigma": 1.0}),
            ModelSpec(Family.NONRES, quadrature={"alpha": 16, "sigma1": 16, "theta": 32}),
            ModelSpec(
                Family.NONRES,
                quadrature={"alpha": 128, "sigma1": 32, "theta": 128, "sigma2": 32},
            ),
            ModelSpec(
                Family.NONRES,
                fixed_overrides={"alpha": 12.0, "sigma1": 2.0, "theta": 1.0, "sigma2": 0.5},
            ),
        ],
        ids=["1", "7", "8", "9", "300", "128", "129", "1x1", "256x256", "4096x4096", "1x1x1"],
    )
    def test_node_tensors(self, spec):
        rng = np.random.default_rng(710)
        loo = _loo_priors(self.UNEVEN)
        flat = flat_prior_set(self.UNEVEN)
        for grid in (self.ROW, self.COLUMN):
            series = _series(self._aligned_sites(grid, rng, 9))
            self._check(series, spec, flat, grid)
        series = _series(self._aligned_sites(self.UNEVEN, rng, 9))
        for priors in (flat, loo):
            self._check(series, spec, priors, self.UNEVEN)

    @pytest.mark.parametrize("n", [1, 8, 17])
    def test_sites_on_and_in_line_with_cell_centres(self, n):
        rng = np.random.default_rng(720 + n)
        for grid in (Grid(), self.UNEVEN, self.ROW, self.COLUMN):
            series = _series(self._aligned_sites(grid, rng, n))
            for spec in self.SPECS:
                got = self._check(series, spec, flat_prior_set(grid), grid)
                assert np.all(np.isfinite(got))

    # 4293, 1089 and 7171 cells: 5, 1 and 3 past a multiple of 16
    REMAINDER_GRIDS = {
        "53x81": Grid(
            west=301.37, east=377.915, south=4331.21, north=4389.404, nrows=53, ncols=81
        ),
        "33x33": Grid(west=330.0, east=370.0, south=4345.0, north=4380.0, nrows=33, ncols=33),
        "71x101": Grid(nrows=71, ncols=101),
    }

    @pytest.mark.parametrize("name", REMAINDER_GRIDS)
    def test_cell_counts_past_a_multiple_of_16(self, name):
        # one matmul over every cell gives the remainder's cells other bits
        # than the cell-major product
        grid = self.REMAINDER_GRIDS[name]
        priors = flat_prior_set(grid)
        lo, hi = (grid.west + 1.0, grid.south + 1.0), (grid.east - 1.0, grid.north - 1.0)
        for n in (3, 10, 17, 30):
            series = _series(np.random.default_rng(n).uniform(lo, hi, size=(n, 2)))
            for spec in self.SPECS:
                self._check(series, spec, priors, grid)

    def test_all_cells_underflowed_raises(self):
        # log 4 alpha^2 overflows, so every cell is -inf at the one node
        priors = flat_prior_set(GRID, {PriorKind.DISTANCE_M1: (0.0, 1e201)})
        spec = ModelSpec(Family.M1, fixed_overrides={"alpha": 1e200})
        series = _series([(350.0, 4360.0), (351.0, 4361.0)])
        with np.errstate(over="ignore"):
            assert np.all(self._check(series, spec, priors, GRID) == -np.inf)
            with pytest.raises(DegenerateSurfaceError, match="underflowed in every cell"):
                posterior_surface(series, spec, priors, GRID)


def test_ring_surfaces_match_the_papers_normaliser():
    # the engine's M2 block drops the uniform bearing's 2 pi from the ring
    # normaliser; on LOO priors of a benchmark-shaped population its
    # surfaces stay within rtol 1e-9 of the paper's ring likelihood (1.6e-11
    # measured), with the same exact zeros and the same cell ranking
    ds = read_dataset(inputs.planar_csv(inputs.planar_population(1, 60)))
    grid = Grid()
    labels = label_dataset(ds)
    spec = ModelSpec(Family.M2)
    kinds = frozenset({PriorKind.DISTANCE_M2, PriorKind.SPREAD_RADIAL})
    for series in ds.series:
        priors = build_prior_set(ds, series.offender_id, labels, grid, kinds)
        got = posterior_surface(series, spec, priors, grid).mass.ravel()
        log_mass = ring_log_likelihood_direct(series, spec, priors, grid)
        log_mass += priors.anchor.log_weights
        want = np.exp(log_mass - log_mass.max())
        want /= want.sum()
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        np.testing.assert_array_equal(
            np.argsort(-got, kind="stable"), np.argsort(-want, kind="stable")
        )


class TestNewBlock:
    """A block in a new scalar is one new ``FAMILIES`` row: its statistics
    function and its Gaussian map, with no edit of ``_Terms``, ``_log_quad``
    or the cell-major oracle. The toy block reads each crime's easting
    offset from the cell centre as a normal scalar with mean 0 and spread
    alpha."""

    @staticmethod
    def _easting_stats(ex, ny, r, on_anchor):
        x = np.repeat(ex[:, None, :], ny.shape[1], axis=1).reshape(r.shape)
        return engine._sum_stats(x, len(r))

    @staticmethod
    def _easting_stats_direct(d, r, on_anchor):
        """The same statistics, cell-major: each cell's row of offsets."""
        x = -d[..., 0]
        n = x.shape[1]
        return np.column_stack(
            [(x * x).sum(axis=1), x.sum(axis=1), np.full(len(x), n), np.ones(len(x))]
        )

    @pytest.fixture
    def toy(self, monkeypatch):
        import oracles

        block = engine.Block(
            stats=self._easting_stats,
            params=(engine.Param("alpha", PriorKind.DISTANCE_M1, 32),),
            gaussian=lambda a: (0.0, a, np.log(a)),
        )
        monkeypatch.setitem(engine.FAMILIES, Family.M1, (block,))
        monkeypatch.setitem(oracles._STATS_DIRECT, self._easting_stats, self._easting_stats_direct)

    def test_surfaces_equal_cell_major_sum(self, toy):
        rng = np.random.default_rng(330)
        series = _series(_rand_sites(rng, np.array([351.0, 4362.0]), 1.5, 9))
        priors = _loo_priors(GRID)
        spec = ModelSpec(Family.M1)
        log_lik = log_marginal_likelihood_direct(series, spec, priors, GRID)
        # each node's normal densities in the easting offset, summed plainly
        alpha = engine._quadrature_nodes(spec, "alpha", priors)
        x = series.xy[None, :, 0] - GRID.centers[:, None, 0]
        per_node = (-(x[:, :, None] ** 2) / (2.0 * alpha**2) - np.log(alpha)).sum(axis=1)
        np.testing.assert_allclose(
            log_lik,
            np.logaddexp.reduce(per_node, axis=1) - math.log(len(alpha)),
            rtol=1e-12,
        )
        expected = _normalize_log_mass(log_lik + priors.anchor.log_weights, GRID)
        alone = posterior_surface(series, spec, priors, GRID)
        np.testing.assert_array_equal(alone.mass, expected.mass)

        methods = [MethodId.ONE_A, MethodId.TWO_AI]
        shared = method_surfaces(series, methods, SubtypeLabel(SubtypeKind.M1), priors, GRID)
        np.testing.assert_array_equal(shared[MethodId.ONE_A].mass, expected.mass)
        nonres = posterior_surface(series, ModelSpec(Family.NONRES), priors, GRID)
        blend = multimodel_combine([expected, nonres], [0.5, 0.5])
        np.testing.assert_array_equal(shared[MethodId.TWO_AI].mass, blend.mass)


class TestQuadratureOracle:
    """Multi-node marginals vs a direct tensor-product sum over node tuples."""

    SMALL = Grid(west=344.0, east=358.0, south=4354.0, north=4366.0, nrows=12, ncols=14)

    def _flat_small(self):
        from geoprofile.priors import flat_prior_set

        return flat_prior_set(self.SMALL)

    def _prior_sets(self, seed):
        """Flat priors, then seeded reflection-KDE priors like the pipeline's."""
        from types import MappingProxyType

        from geoprofile.priors import PRIORS, PriorSet, bounded_density_1d

        sample_ranges = {
            PriorKind.DISTANCE_M1: (0.5, 5.0),
            PriorKind.DISTANCE_M2: (2.0, 8.0),
            PriorKind.DISTANCE_NONRES: (8.0, 20.0),
            PriorKind.ANGLE_M2: (0.0, 2.0 * math.pi),
            PriorKind.ANGLE_NONRES: (0.0, 2.0 * math.pi),
            PriorKind.SPREAD_RADIAL: (0.3, 3.0),
            PriorKind.SPREAD_ANGULAR: (0.1, 1.0),
        }
        rng = np.random.default_rng(seed)
        params = {
            kind: bounded_density_1d(
                rng.uniform(*sample_ranges[kind], size=12), *PRIORS[kind].support
            )
            for kind in PriorKind
        }
        flat = self._flat_small()
        return flat, PriorSet(flat.anchor, MappingProxyType(params), 12)

    @staticmethod
    def _nodes(prior, m):
        return np.asarray(prior.quantile((np.arange(m) + 0.5) / m), dtype=float)

    def test_m1_marginal_matches_direct_tensor_sum(self):
        rng = np.random.default_rng(400)
        sites = rng.uniform([346.0, 4356.0], [356.0, 4364.0], size=(6, 2))
        series = _series(sites)
        centers = self.SMALL.centers
        for priors in self._prior_sets(400):
            surface = posterior_surface(
                series, ModelSpec(Family.M1, quadrature={"alpha": 5}), priors, self.SMALL
            )
            total = np.zeros(len(centers))
            for a in self._nodes(priors[PriorKind.DISTANCE_M1], 5):
                prod = np.ones(len(centers))
                for site in series.xy:
                    prod = prod * m1_density(site, centers, M1Params(float(a)))
                total += prod
            direct = total / total.sum()
            np.testing.assert_allclose(
                surface.mass.ravel(), direct, rtol=1e-10, atol=1e-300
            )

    def test_m2_marginal_matches_direct_tensor_sum(self):
        rng = np.random.default_rng(401)
        sites = rng.uniform([346.0, 4356.0], [356.0, 4364.0], size=(5, 2))
        series = _series(sites)
        quad = {"alpha": 4, "sigma": 3}
        for priors in self._prior_sets(401):
            surface = posterior_surface(
                series, ModelSpec(Family.M2, quadrature=quad), priors, self.SMALL
            )

            alphas = self._nodes(priors[PriorKind.DISTANCE_M2], 4)
            sigmas = self._nodes(priors[PriorKind.SPREAD_RADIAL], 3)
            centers = self.SMALL.centers
            total = np.zeros(len(centers))
            for a in alphas:
                for s in sigmas:
                    prod = np.ones(len(centers))
                    for site in series.xy:
                        prod = prod * m2_density(
                            site, centers, M2Params(float(a), float(s))
                        )
                    total += prod / (len(alphas) * len(sigmas))
            direct = total / total.sum()
            np.testing.assert_allclose(
                surface.mass.ravel(), direct, rtol=1e-10, atol=1e-300
            )

    def test_nonres_marginal_matches_direct_tensor_sum(self):
        rng = np.random.default_rng(402)
        sites = rng.uniform([346.0, 4356.0], [356.0, 4364.0], size=(4, 2))
        series = _series(sites)
        quad = {"alpha": 4, "sigma1": 2, "theta": 4, "sigma2": 2}
        from geoprofile.priors import PriorKind as PK

        for priors in self._prior_sets(402):
            surface = posterior_surface(
                series, ModelSpec(Family.NONRES, quadrature=quad), priors, self.SMALL
            )

            alphas = self._nodes(priors[PK.DISTANCE_NONRES], 4)
            sigma1s = self._nodes(priors[PK.SPREAD_RADIAL], 2)
            thetas = self._nodes(priors[PK.ANGLE_NONRES], 4)
            sigma2s = self._nodes(priors[PK.SPREAD_ANGULAR], 2)
            centers = self.SMALL.centers
            total = np.zeros(len(centers))
            n_tuples = 0
            for a in alphas:
                for s1 in sigma1s:
                    for t in thetas:
                        for s2 in sigma2s:
                            params = NonResParams(
                                float(a), float(s1), float(t), float(s2)
                            )
                            prod = np.ones(len(centers))
                            for site in series.xy:
                                prod = prod * nonres_density(site, centers, params)
                            total += prod
                            n_tuples += 1
            direct = total / n_tuples
            direct /= direct.sum()
            np.testing.assert_allclose(
                surface.mass.ravel(), direct, rtol=1e-10, atol=1e-300
            )

    def test_nonres_site_on_cell_center_lies_in_preferred_direction(self):
        # a site on a candidate anchor is read as 1e-6 km away along theta
        centers = self.SMALL.centers
        k = 5 * self.SMALL.ncols + 6
        rng = np.random.default_rng(406)
        others = rng.uniform([346.0, 4356.0], [356.0, 4364.0], size=(3, 2))
        series = _series(np.vstack([centers[k], others]))
        quad = {"alpha": 3, "sigma1": 2, "theta": 3, "sigma2": 2}
        away = np.arange(len(centers)) != k
        for priors in self._prior_sets(406):
            surface = posterior_surface(
                series, ModelSpec(Family.NONRES, quadrature=quad), priors, self.SMALL
            )
            total = np.zeros(len(centers))
            for a in self._nodes(priors[PriorKind.DISTANCE_NONRES], 3):
                for s1 in self._nodes(priors[PriorKind.SPREAD_RADIAL], 2):
                    for t in self._nodes(priors[PriorKind.ANGLE_NONRES], 3):
                        for s2 in self._nodes(priors[PriorKind.SPREAD_ANGULAR], 2):
                            params = NonResParams(
                                float(a), float(s1), float(t), float(s2)
                            )
                            prod = np.ones(len(centers))
                            for site in others:
                                prod = prod * nonres_density(site, centers, params)
                            on = np.empty(len(centers))
                            on[away] = nonres_density(centers[k], centers[away], params)
                            nudged = centers[k] + 1e-6 * np.array([np.cos(t), np.sin(t)])
                            on[k] = nonres_density(nudged, centers[k], params)
                            total += prod * on
            direct = total / total.sum()
            assert direct[k] > 1e-200
            np.testing.assert_allclose(
                surface.mass.ravel(), direct, rtol=1e-10, atol=1e-300
            )

    def test_site_order_invariance(self):
        rng = np.random.default_rng(403)
        priors = self._flat_small()
        sites = rng.uniform([346.0, 4356.0], [356.0, 4364.0], size=(7, 2))
        a = posterior_surface(_series(sites), ModelSpec(Family.M2), priors, self.SMALL)
        b = posterior_surface(
            _series(sites[::-1]), ModelSpec(Family.M2), priors, self.SMALL
        )
        np.testing.assert_allclose(a.mass, b.mass, atol=1e-12)

    def test_zero_anchor_prior_cells_get_zero_mass(self):
        from geoprofile.priors import AnchorPrior, PriorSet, flat_param_prior
        from types import MappingProxyType

        weights = np.full((self.SMALL.nrows, self.SMALL.ncols), 1.0)
        weights[:, :7] = 0.0  # western half excluded a priori
        weights /= weights.sum()
        priors = PriorSet(
            anchor=AnchorPrior(self.SMALL, weights),
            params=MappingProxyType({k: flat_param_prior(k) for k in PriorKind}),
            source_offender_count=0,
        )
        rng = np.random.default_rng(404)
        sites = rng.uniform([346.0, 4356.0], [356.0, 4364.0], size=(5, 2))
        surface = posterior_surface(
            _series(sites), ModelSpec(Family.M1), priors, self.SMALL
        )
        assert np.all(surface.mass[:, :7] == 0.0)
        assert surface.mass[:, 7:].sum() == pytest.approx(1.0)
