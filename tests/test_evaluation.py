import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from geoprofile.dataset import CrimeSeries, Dataset
from geoprofile.engine import Family, MethodId, PosteriorSurface
from geoprofile.evaluation import (
    ALL_THRESHOLDS,
    RESIDENTS_THRESHOLDS,
    Scope,
    SearchResult,
    accumulation_curve,
    compare_methods,
    is_nonresident,
    rank_cells,
    search_fraction,
)
from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid, OutOfGridError, cell_center
from geoprofile.models import M1Params, M2Params, NonResParams
from geoprofile.synthetic import SyntheticScenario, sample_series

GRID = Grid(west=330.0, east=370.0, south=4345.0, north=4380.0, nrows=35, ncols=40)


def _uniform_surface(grid=GRID):
    return PosteriorSurface(grid, np.full((grid.nrows, grid.ncols), 1.0 / grid.ncells))


def _random_surface(seed, grid=GRID):
    rng = np.random.default_rng(seed)
    mass = rng.random((grid.nrows, grid.ncols))
    return PosteriorSurface(grid, mass / mass.sum())


class TestRankCells:
    def test_unique_max_first(self):
        mass = np.full((GRID.nrows, GRID.ncols), 1.0)
        mass[12, 34] = 5.0
        surface = PosteriorSurface(GRID, mass / mass.sum())
        assert rank_cells(surface)[0] == (12, 34)

    def test_uniform_row_major(self):
        ranking = rank_cells(_uniform_surface())
        expected = [divmod(k, GRID.ncols) for k in range(GRID.ncells)]
        assert ranking == expected

    def test_matches_naive_sort(self):
        surface = _random_surface(3)
        flat = surface.mass.ravel()
        naive = sorted(range(GRID.ncells), key=lambda k: (-flat[k], k))
        assert rank_cells(surface) == [divmod(k, GRID.ncols) for k in naive]

    def test_permutation(self):
        ranking = rank_cells(_random_surface(4))
        assert len(set(ranking)) == GRID.ncells


class TestSearchFraction:
    def test_top_cell_best_case(self):
        mass = np.full((GRID.nrows, GRID.ncols), 1.0)
        mass[7, 9] = 10.0
        surface = PosteriorSurface(GRID, mass / mass.sum())
        result = search_fraction(surface, cell_center(GRID, 7, 9))
        assert result.cells_examined == 1
        assert result.fraction == pytest.approx(1.0 / GRID.ncells)

    def test_last_cell_worst_case(self):
        mass = np.full((GRID.nrows, GRID.ncols), 1.0)
        mass[0, 0] = 0.5  # strictly smallest mass, ranked last
        surface = PosteriorSurface(GRID, mass / mass.sum())
        result = search_fraction(surface, cell_center(GRID, 0, 0))
        assert result.fraction == 1.0

    def test_uniform_tie_break_formula(self):
        surface = _uniform_surface()
        for row, col in [(0, 0), (3, 17), (34, 39)]:
            result = search_fraction(surface, cell_center(GRID, row, col))
            assert result.cells_examined == row * GRID.ncols + col + 1

    def test_outside_grid_rejected(self):
        with pytest.raises(OutOfGridError):
            search_fraction(_uniform_surface(), UtmPoint(18, 1.0, 1.0))

    def test_plateau_ties_match_rank_cells(self):
        flat = np.ones((GRID.nrows, GRID.ncols))
        two_level = np.where(np.arange(GRID.ncells) % 7 < 3, 2.0, 1.0)
        for mass in (flat, two_level.reshape(GRID.nrows, GRID.ncols)):
            surface = PosteriorSurface(GRID, mass / mass.sum())
            for rank, (row, col) in enumerate(rank_cells(surface), start=1):
                result = search_fraction(surface, cell_center(GRID, row, col))
                assert result.cells_examined == rank


class TestAccumulationCurve:
    def _result(self, fraction, method=MethodId.ONE_A):
        cells = max(1, round(fraction * GRID.ncells))
        return SearchResult("x", method, cells, cells / GRID.ncells)

    def test_step_behavior(self):
        results = [self._result(0.5) for _ in range(4)]
        curve = accumulation_curve(results, [0.4, 0.5, 0.6])
        assert curve.found_fraction == (0.0, 1.0, 1.0)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        results = [self._result(f) for f in rng.uniform(0.001, 1.0, size=30)]
        curve = accumulation_curve(results, np.linspace(0.01, 1.0, 25))
        assert all(
            a <= b for a, b in zip(curve.found_fraction, curve.found_fraction[1:])
        )
        assert curve.found_fraction[-1] == 1.0

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            accumulation_curve([self._result(0.5)], [0.0, 0.5])

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            accumulation_curve([], [0.5])


def _offender(rng, oid, anchor_xy, kind):
    anchor = np.asarray(anchor_xy, dtype=float)
    if kind == "tight":
        offsets = rng.normal(0.0, 0.6, size=(6, 2))
    elif kind == "ring":
        ang = rng.uniform(0.0, 2.0 * math.pi, size=8)
        rad = rng.normal(4.0, 0.8, size=8).clip(1.5)
        offsets = rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    else:  # far commuter
        ang = rng.normal(math.pi / 4, 0.15, size=6)
        rad = rng.normal(15.0, 1.5, size=6).clip(12.0)
        offsets = rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    return CrimeSeries(oid, anchor + offsets, 18, UtmPoint(18, *anchor))


@pytest.fixture(scope="module")
def mini_dataset():
    rng = np.random.default_rng(2024)
    kinds = ["tight", "ring", "tight", "ring", "far", "tight", "ring", "tight"]
    series = []
    for i, kind in enumerate(kinds):
        anchor = (
            rng.uniform(340.0, 360.0),
            rng.uniform(4352.0, 4372.0),
        )
        series.append(_offender(rng, f"s{i}", anchor, kind))
    return Dataset(tuple(series))


class TestCompareMethods:
    def test_full_run_mechanics(self, mini_dataset):
        methods = [MethodId.ONE_A, MethodId.ROSSMO]
        report = compare_methods(
            mini_dataset, methods, Scope.RESIDENTS_ONLY, grid=GRID
        )
        residents = [
            s for s in mini_dataset.series if not is_nonresident(s)
        ]
        per_method = {m: 0 for m in methods}
        for r in report.results:
            per_method[r.method] += 1
        assert per_method[MethodId.ONE_A] == len(residents)
        assert per_method[MethodId.ROSSMO] == len(residents)
        assert report.thresholds == RESIDENTS_THRESHOLDS
        assert len(report.curves) == 2
        for curve in report.curves:
            assert all(
                a <= b
                for a, b in zip(curve.found_fraction, curve.found_fraction[1:])
            )

    def test_all_scope_includes_commuter(self, mini_dataset):
        report = compare_methods(
            mini_dataset, [MethodId.TWO_AII], Scope.ALL, grid=GRID
        )
        ids = {r.offender_id for r in report.results}
        assert "s4" in ids  # the far commuter
        assert report.thresholds == ALL_THRESHOLDS

    def test_determinism(self, mini_dataset):
        methods = [MethodId.ONE_B, MethodId.ROSSMO]
        a = compare_methods(mini_dataset, methods, Scope.RESIDENTS_ONLY, grid=GRID)
        b = compare_methods(mini_dataset, methods, Scope.RESIDENTS_ONLY, grid=GRID)
        assert a.results == b.results
        assert a.results_csv() == b.results_csv()
        assert a.curves_csv() == b.curves_csv()

    def test_anchor_outside_grid_recorded(self, mini_dataset):
        rng = np.random.default_rng(7)
        stray = _offender(rng, "stray", (500.0, 4500.0), "tight")
        # sites far outside the grid, anchor too: evaluation must exclude
        ds = Dataset(mini_dataset.series + (stray,))
        report = compare_methods(ds, [MethodId.ROSSMO], Scope.ALL, grid=GRID)
        assert any(
            f.offender_id == "stray" and "outside" in f.message
            for f in report.failures
        )
        assert all(r.offender_id != "stray" for r in report.results)

    def test_csv_shapes(self, mini_dataset):
        report = compare_methods(
            mini_dataset,
            [MethodId.ONE_A, MethodId.ONE_B, MethodId.ROSSMO],
            Scope.RESIDENTS_ONLY,
            grid=GRID,
        )
        results_lines = report.results_csv().strip().splitlines()
        assert results_lines[0] == "offender_id,method,subtype,cells_examined,fraction"
        assert len(results_lines) == 1 + len(report.results)
        curves_lines = report.curves_csv().strip().splitlines()
        assert len(curves_lines) == 1 + 3 * len(RESIDENTS_THRESHOLDS)
        table = report.format_table()
        assert "1a" in table and "rossmo" in table

    def test_repeated_method_scored_once(self, mini_dataset):
        report = compare_methods(
            mini_dataset, [MethodId.ROSSMO, MethodId.ONE_A, MethodId.ROSSMO], Scope.ALL, grid=GRID
        )
        assert report.methods == (MethodId.ROSSMO, MethodId.ONE_A)
        assert [c.method for c in report.curves] == [MethodId.ROSSMO, MethodId.ONE_A]
        keys = [(r.offender_id, r.method) for r in report.results]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("weight", [-0.1, 1.5, float("nan")])
    def test_bad_nonres_weight_rejected_before_scoring(self, mini_dataset, monkeypatch, weight):
        import geoprofile.evaluation as evaluation

        def unreachable(*args, **kwargs):
            raise AssertionError("an offender was scored")

        monkeypatch.setattr(evaluation, "label_dataset", unreachable)
        with pytest.raises(ValueError, match="nonres_weight"):
            compare_methods(
                mini_dataset, [MethodId.TWO_AII], Scope.ALL, grid=GRID, nonres_weight=weight
            )

    @pytest.mark.parametrize(
        "quadrature, message",
        [({"alpah": 3}, "unknown quadrature parameter 'alpah'"),
         ({"alpha": 0}, "node count for alpha must be >= 1"),
         ({"sigma2": -2}, "node count for sigma2 must be >= 1")],
        ids=["misspelled", "zero", "negative"],
    )
    def test_bad_quadrature_rejected_before_scoring(
        self, mini_dataset, monkeypatch, quadrature, message
    ):
        import geoprofile.evaluation as evaluation

        def unreachable(*args, **kwargs):
            raise AssertionError("an offender was scored")

        monkeypatch.setattr(evaluation, "label_dataset", unreachable)
        with pytest.raises(ValueError, match=message):
            compare_methods(
                mini_dataset, [MethodId.ONE_A], Scope.ALL, grid=GRID, quadrature=quadrature
            )

    def test_bad_classifier_option_rejected_on_an_empty_dataset(self):
        with pytest.raises(ValueError, match="nearest-neighbour threshold"):
            compare_methods(
                Dataset(()), list(MethodId), Scope.ALL, grid=GRID,
                classifier_options={"nn_threshold_km": float("nan")},
            )

    def test_series_in_another_zone_rejected_before_scoring(self, mini_dataset, monkeypatch):
        import geoprofile.evaluation as evaluation

        def unreachable(*args, **kwargs):
            raise AssertionError("an offender was scored")

        monkeypatch.setattr(evaluation, "label_dataset", unreachable)
        # the zone-18 offenders would fit the bounds of the zone-17 grid
        ds = Dataset(mini_dataset.series[:4])
        message = "^offender 's0' is in zone 18, not the grid zone 17$"
        with pytest.raises(ValueError, match=message):
            compare_methods(ds, list(MethodId), Scope.ALL, grid=replace(GRID, zone=17))

    def test_programming_errors_propagate(self, mini_dataset, monkeypatch):
        import geoprofile.evaluation as evaluation

        def broken(*args, **kwargs):
            raise TypeError("broken call")

        monkeypatch.setattr(evaluation, "method_surfaces", broken)
        with pytest.raises(TypeError, match="broken call"):
            compare_methods(mini_dataset, [MethodId.ONE_A], Scope.ALL, grid=GRID)

        def defect(*args, **kwargs):
            raise ValueError("simulated defect")

        # a ValueError is not a domain failure of the posterior step either
        monkeypatch.setattr(evaluation, "method_surfaces", defect)
        with pytest.raises(ValueError, match="simulated defect"):
            compare_methods(mini_dataset, [MethodId.ONE_A], Scope.ALL, grid=GRID)
        monkeypatch.setattr(evaluation, "hit_score_surface", broken)
        with pytest.raises(TypeError, match="broken call"):
            compare_methods(mini_dataset, [MethodId.ROSSMO], Scope.ALL, grid=GRID)
        # nor of the hit score
        monkeypatch.setattr(evaluation, "hit_score_surface", defect)
        with pytest.raises(ValueError, match="simulated defect"):
            compare_methods(mini_dataset, [MethodId.ROSSMO], Scope.ALL, grid=GRID)

    def test_too_few_donors_recorded_per_method(self, mini_dataset, caplog):
        # one donor cannot make an anchor prior; the hit score needs none
        ds = Dataset(mini_dataset.series[:2])
        with caplog.at_level("WARNING"):
            report = compare_methods(ds, list(MethodId), Scope.ALL, grid=GRID)
        assert caplog.records == []  # recorded, and left to the caller to print
        posterior = [m for m in MethodId if m is not MethodId.ROSSMO]
        assert sorted((f.offender_id, f.method) for f in report.failures) == sorted(
            (s.offender_id, m.value) for s in ds.series for m in posterior
        )
        assert all("donor set too small" in f.message for f in report.failures)
        assert [(r.offender_id, r.method) for r in report.results] == [
            (s.offender_id, MethodId.ROSSMO) for s in ds.series
        ]

    def test_non_finite_hit_score_recorded(self):
        # crimes 1e-300 km apart on the equator, one on the only cell
        # center: a buffer radius of 5e-301 km overflows the decay scores
        sites = [(500.0, y) for y in (0.0, 1e-300, 2e-300)]
        ds = Dataset((CrimeSeries("eq", sites, 18, UtmPoint(18, 500.0, 0.1)),))
        grid = Grid(west=499.5, east=500.5, south=-0.5, north=0.5, nrows=1, ncols=1)
        report = compare_methods(ds, [MethodId.ROSSMO], Scope.ALL, grid=grid)
        assert report.results == []
        assert [(f.offender_id, f.method) for f in report.failures] == [("eq", "rossmo")]
        assert "hit scores sum to inf" in report.failures[0].message


class TestDonorTable:
    """One ``compare_methods`` call builds one ``DonorTable``: the residency
    test and every LOO build read its donor statistics and shared 1-D
    densities, and each ``PriorSet`` is the one a build from the donors
    alone gives."""

    @staticmethod
    def _population(seed, n_offenders=12):
        rng = np.random.default_rng(seed)
        kinds = ["tight", "ring", "far"] * (n_offenders // 3)
        return Dataset(tuple(
            _offender(rng, f"d{i}", rng.uniform((340.0, 4352.0), (360.0, 4372.0)), kind)
            for i, kind in enumerate(kinds)
        ))

    @staticmethod
    def _without_anchor(ds, oid):
        return Dataset(tuple(
            replace(s, anchor=None) if s.offender_id == oid else s for s in ds.series
        ))

    @staticmethod
    def _assert_same_priors(got, want):
        np.testing.assert_array_equal(got.anchor.weights, want.anchor.weights)
        assert got.params.keys() == want.params.keys()
        for kind in want.params:
            np.testing.assert_array_equal(got[kind].nodes, want[kind].nodes)
            np.testing.assert_array_equal(got[kind].density, want[kind].density)
        assert got.source_offender_count == want.source_offender_count

    @pytest.mark.parametrize("scope", list(Scope), ids=lambda scope: scope.value)
    @pytest.mark.parametrize("seed, n_offenders", [(1, 12), (2, 12), (3, 12), (6, 60)])
    def test_one_table_per_call(self, seed, n_offenders, scope, monkeypatch):
        import geoprofile.evaluation as evaluation
        import geoprofile.priors as priors

        ds = self._population(seed, n_offenders)
        scored = [
            s.offender_id for s in ds.series if scope is Scope.ALL or not is_nonresident(s)
        ]
        stats_calls, density_calls, builds, tables, kept = [], [], [], set(), []
        donor_stats, density, build = (
            priors._donor_stats, priors.bounded_density_1d, evaluation.build_prior_set
        )

        def counting_stats(*args):
            stats_calls.append(1)
            return donor_stats(*args)

        def recording_density(samples, lo, hi):
            density_calls.append((lo, hi, np.asarray(samples).tobytes()))
            return density(samples, lo, hi)

        def recording_build(ds, oid, labels, grid, kinds, **shared):
            # shared holds the table, where there is one
            tables.update(id(t) for t in shared.values())
            refs.extend(weakref.ref(t) for t in shared.values())
            builds.append((oid, labels, kinds, build(ds, oid, labels, grid, kinds, **shared)))
            kept.extend(len(t._shared) for t in shared.values())
            return builds[-1][-1]

        refs = []
        monkeypatch.setattr(priors, "_donor_stats", counting_stats)
        monkeypatch.setattr(priors, "bounded_density_1d", recording_density)
        monkeypatch.setattr(evaluation, "build_prior_set", recording_build)
        compare_methods(ds, list(MethodId), scope, grid=GRID)
        assert [oid for oid, *_ in builds] == scored
        assert len(stats_calls) == 1
        shared = list(density_calls)
        assert len(shared) == len(set(shared))
        assert len(tables) == 1 and len(refs) == len(builds)
        # at most one shared density per kind, however many builds
        assert len(kept) == len(builds) and max(kept) <= len(priors.PRIORS)
        assert all(ref() is None for ref in refs)  # the table died with the call

        density_calls.clear()
        for oid, labels, kinds, got in builds:
            # the excluded offender without an anchor: a table of its donors alone
            alone = self._without_anchor(ds, oid)
            self._assert_same_priors(got, priors.build_prior_set(alone, oid, labels, GRID, kinds))
        assert len(stats_calls) == 1 + len(builds)
        # one call per distinct support and sample set that the separate
        # builds, which repeat many, need
        assert len(shared) < len(density_calls)
        assert set(shared) == set(density_calls)

    def test_donor_without_an_anchor_still_raises(self):
        from geoprofile.classify import label_dataset
        from geoprofile.priors import DonorTable, InsufficientDataError, build_prior_set

        ds = self._without_anchor(self._population(4), "d5")
        labels = label_dataset(ds)
        table = DonorTable(ds, labels)
        with pytest.raises(InsufficientDataError, match="needs a known anchor"):
            build_prior_set(ds, "d0", labels, GRID, table=table)
        # the offender without an anchor is no donor of its own priors
        self._assert_same_priors(
            build_prior_set(ds, "d5", labels, GRID, table=table),
            build_prior_set(ds, "d5", labels, GRID),
        )
        # and every other offender's build fails for it
        report = compare_methods(ds, [MethodId.ONE_A], Scope.ALL, grid=GRID)
        assert report.results == []
        assert {f.offender_id for f in report.failures} == {s.offender_id for s in ds.series}

    def test_table_of_another_dataset_rejected(self):
        from geoprofile.classify import label_dataset
        from geoprofile.priors import DonorTable, build_prior_set

        ds = self._population(5)
        labels = label_dataset(ds)
        with pytest.raises(ValueError, match="another dataset"):
            build_prior_set(ds, "d0", labels, GRID, table=DonorTable(Dataset(ds.series), labels))

    def test_table_of_other_labels_rejected(self):
        from geoprofile.classify import label_dataset
        from geoprofile.priors import DonorTable, build_prior_set

        # equal labels in another mapping: the table's groups are not checked
        # against them entry by entry, so only its own mapping is accepted
        ds = self._population(5)
        labels = label_dataset(ds)
        with pytest.raises(ValueError, match="other labels"):
            build_prior_set(ds, "d0", labels, GRID, table=DonorTable(ds, dict(labels)))


class TestResidency:
    def test_resident(self):
        rng = np.random.default_rng(8)
        assert not is_nonresident(_offender(rng, "r", (350.0, 4360.0), "tight"))

    def test_nonresident(self):
        rng = np.random.default_rng(9)
        assert is_nonresident(_offender(rng, "n", (340.0, 4352.0), "far"))

    def test_nearest_crime_at_cutoff_is_resident(self, monkeypatch):
        import geoprofile.priors as priors
        from geoprofile.classify import classify

        # every crime exactly 10.0 km from the anchor
        offsets = ((6.0, 8.0), (8.0, 6.0), (-8.0, 6.0))
        edge = CrimeSeries(
            "edge",
            [(350.0 + dx, 4360.0 + dy) for dx, dy in offsets],
            18,
            UtmPoint(18, 350.0, 4360.0),
        )
        assert not is_nonresident(edge)

        rng = np.random.default_rng(10)
        tight = [_offender(rng, f"t{i}", (345.0, 4355.0 + 5 * i), "tight") for i in range(2)]
        ds = Dataset((*tight, edge))
        labels = {s.offender_id: classify(s.xy) for s in ds.series}
        calls = []
        density = priors.bounded_density_1d

        def record(values, lo, hi):
            calls.append(list(values))
            return density(values, lo, hi)

        monkeypatch.setattr(priors, "bounded_density_1d", record)
        priors.build_prior_set(ds, "t0", labels, GRID)
        # one call per kind, in the order of PRIORS
        samples = dict(zip(priors.PRIORS, calls, strict=True))
        assert samples[priors.PriorKind.DISTANCE_NONRES] == []
        resident = samples[priors.PriorKind.DISTANCE_M1] + samples[priors.PriorKind.DISTANCE_M2]
        assert 10.0 in resident


class TestQuarterTurns:
    """A population turned by 0, 90, 180 and 270 degrees about the centre of
    a square grid, a cell corner, so that each turn maps cell centres onto
    cell centres. Each method scores every offender at the same rank on
    every turn, within SPREAD cells, a bound fixed before the first run
    for rounding-level near-ties.

    ``1a`` and ``rossmo`` are invariant in exact arithmetic: Euclidean
    labels and ring and M1 likelihoods, a per-axis anchor KDE whose
    bandwidths swap, and a Manhattan decay. The directional methods read
    bearings cut at due east, and their priors reflect at that cut; each
    of their rows is a strict xfail whose reason holds the measured ranks.
    """

    GRID = Grid(west=315.0, east=385.0, south=4325.0, north=4395.0, nrows=70, ncols=70)
    CENTRE = np.array([350.0, 4360.0])
    SPREAD = 3
    METHODS = (MethodId.ONE_A, MethodId.ROSSMO, MethodId.ONE_B, MethodId.TWO_BII)

    @classmethod
    def _population(cls):
        """4 offenders of 10 crimes per family, anchors 15 km or more inside
        the grid; parameters uniform on the ranges of ``TestLabelCost`` in
        tests/test_classify.py."""
        rng = np.random.default_rng(9)
        params = {
            Family.M1: lambda: M1Params(rng.uniform(0.5, 3.0)),
            Family.M2: lambda: M2Params(rng.uniform(2.0, 8.0), rng.uniform(0.3, 2.0)),
            Family.NONRES: lambda: NonResParams(
                rng.uniform(15.0, 40.0), rng.uniform(0.3, 2.0),
                rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 1.0),
            ),
        }
        series = []
        for family, draw in params.items():
            for k in range(4):
                anchor = UtmPoint(18, *rng.uniform(cls.CENTRE - 20.0, cls.CENTRE + 20.0))
                scenario = SyntheticScenario(
                    family, anchor, draw(), 10, seed=int(rng.integers(2**32))
                )
                (drawn,) = sample_series(scenario)
                series.append(replace(drawn, offender_id=f"{family.value}{k}"))
        return series

    @classmethod
    def _turned(cls, xy, quarter):
        """``xy`` turned by ``quarter`` 90-degree steps counterclockwise."""
        if quarter == 0:
            return xy
        d = xy - cls.CENTRE
        for _ in range(quarter):
            d = np.column_stack([-d[:, 1], d[:, 0]])
        return cls.CENTRE + d

    @pytest.fixture(scope="class")
    def ranks(self):
        """{method: {offender: cells examined on each turn}}"""
        population = self._population()
        out = {m: {s.offender_id: [] for s in population} for m in self.METHODS}
        for quarter in range(4):
            ds = Dataset(tuple(
                CrimeSeries(
                    s.offender_id, self._turned(s.xy, quarter), 18,
                    UtmPoint(18, *self._turned(
                        np.array([[s.anchor.easting, s.anchor.northing]]), quarter
                    )[0]),
                )
                for s in population
            ))
            report = compare_methods(ds, self.METHODS, Scope.ALL, grid=self.GRID)
            assert not report.failures
            for r in report.results:
                out[r.method][r.offender_id].append(r.cells_examined)
        return out

    @pytest.mark.parametrize(
        "method",
        [
            MethodId.ONE_A,
            MethodId.ROSSMO,
            pytest.param(MethodId.ONE_B, marks=pytest.mark.xfail(
                strict=True,
                reason="rank spread over 3 cells for 5 of 12 offenders; "
                "worst M13 at 197, 152, 85 and 178 cells",
            )),
            pytest.param(MethodId.TWO_BII, marks=pytest.mark.xfail(
                strict=True,
                reason="rank spread over 3 cells for 7 of 12 offenders; "
                "worst M13 at 2380, 492, 85 and 957 cells",
            )),
        ],
        ids=lambda m: m.value,
    )
    def test_rank_unchanged_by_turns(self, ranks, method):
        spread = {oid: max(cells) - min(cells) for oid, cells in ranks[method].items()}
        worst = max(spread, key=spread.get)
        assert spread[worst] <= self.SPREAD, (worst, ranks[method][worst], spread)
