import math
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import geoprofile.classify as classify_module
from geoprofile.classify import (
    SubtypeKind,
    SubtypeLabel,
    classify,
    classify_all,
    label_dataset,
    nn_distances,
)
from geoprofile.dataset import Dataset, read_dataset

# the benchmark's seeded populations, from the repository root
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import inputs  # noqa: E402


def test_import_gives_the_module():
    # the package binds no name of its own over the submodule
    assert isinstance(classify_module, types.ModuleType)
    assert classify_module is sys.modules["geoprofile.classify"]


class TestNnDistances:
    def test_collinear(self):
        sites = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]
        np.testing.assert_allclose(nn_distances(sites), [1.0, 1.0, 2.0])

    def test_coincident_pair(self):
        np.testing.assert_allclose(nn_distances([(5.0, 5.0), (5.0, 5.0)]), [0.0, 0.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        sites = rng.uniform(0.0, 50.0, size=(10, 2))
        got = nn_distances(sites)
        for i in range(10):
            best = min(
                math.hypot(*(sites[i] - sites[j])) for j in range(10) if j != i
            )
            assert got[i] == pytest.approx(best)

    def test_too_few_sites(self):
        with pytest.raises(ValueError):
            nn_distances([(0.0, 0.0)])


class TestDetectClusters:
    """Single-linkage clusters, as ``classify`` reports them for M3 series."""

    def test_two_groups(self):
        # the groups' sites interleave, so cluster order is by smallest index
        group1 = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]
        group2 = [(10.0, 0.0), (10.5, 0.0), (10.0, 0.5)]
        sites = [group2[0], group1[0], group1[1], group2[1], group1[2], group2[2]]
        label = classify(sites)
        assert label.kind is SubtypeKind.M3
        assert label.clusters == (frozenset({0, 3, 5}), frozenset({1, 2, 4}))

    def test_single_cluster(self):
        # one component is never reported as clusters
        sites = [(0.0, 0.0), (0.3, 0.1), (0.1, 0.4), (0.2, 0.2)]
        label = classify(sites)
        assert label.kind is SubtypeKind.M1
        assert label.clusters == ()

    def test_chaining(self):
        # each chain links up at 1.9 km steps and breaks at a cutoff below
        chains = [(1.9 * i, 0.0) for i in range(6)] + [(1.9 * i, 50.0) for i in range(6)]
        label = classify(chains)
        assert label.kind is SubtypeKind.M3
        assert label.clusters == (frozenset(range(6)), frozenset(range(6, 12)))
        assert classify(chains, cluster_cutoff_km=1.8).clusters == ()

    def test_isolated_sites_not_clusters(self):
        sites = [(0.0, 0.0), (0.5, 0.0), (50.0, 50.0), (20.0, 0.0), (20.5, 0.0), (20.0, 0.5)]
        label = classify(sites)
        assert label.kind is SubtypeKind.M3
        assert label.clusters == (frozenset({0, 1}), frozenset({3, 4, 5}))

    def test_partition_property(self):
        # the clusters are the components of the within-cutoff graph that
        # have 2 or more sites, in order of their smallest site index
        rng = np.random.default_rng(23)
        sites = rng.uniform(0.0, 30.0, size=(40, 2))
        label = classify(sites, cluster_cutoff_km=3.0, multi_cluster_coverage=0.0)
        assert label.kind is SubtypeKind.M3
        near = np.hypot(*(sites[:, None, :] - sites[None, :, :]).T) <= 3.0
        np.fill_diagonal(near, False)
        owner = {i: k for k, cluster in enumerate(label.clusters) for i in cluster}
        assert set(owner) == set(np.flatnonzero(near.any(axis=1)).tolist())
        for i, j in zip(*np.nonzero(near)):
            assert owner[int(i)] == owner[int(j)]
        assert [min(c) for c in label.clusters] == sorted(min(c) for c in label.clusters)


class TestClassify:
    def test_tight_disc_is_m1(self):
        rng = np.random.default_rng(1)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=8)
        radii = rng.uniform(0.0, 0.75, size=8)
        sites = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        label = classify(sites)
        assert label.kind is SubtypeKind.M1
        assert label.clusters == ()

    def test_spread_irregular_is_m2(self):
        sites = [
            (0.0, 0.0), (4.0, 1.0), (8.5, 3.0), (1.0, 7.0),
            (12.0, 9.0), (5.0, 13.0), (15.0, 2.0), (9.0, 16.0),
        ]
        assert classify(sites).kind is SubtypeKind.M2

    def test_two_tight_groups_is_m3(self):
        group1 = [(0.0, 0.0), (0.4, 0.1), (0.1, 0.5), (0.3, 0.3)]
        group2 = [(12.0, 0.0), (12.4, 0.2), (12.1, 0.4), (12.2, 0.1), (12.3, 0.5)]
        label = classify(group1 + group2)
        assert label.kind is SubtypeKind.M3
        assert len(label.clusters) == 2
        assert {len(c) for c in label.clusters} == {4, 5}

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(4)
        sites = rng.uniform(0.0, 20.0, size=(9, 2))
        base = classify(sites)
        ang = 1.1
        rot = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        moved = sites @ rot.T + np.array([100.0, -40.0])
        assert classify(moved).kind is base.kind

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        sites = rng.uniform(0.0, 20.0, size=(9, 2))
        perm = rng.permutation(9)
        assert classify(sites).kind is classify(sites[perm]).kind

    def test_determinism(self):
        sites = [(0.0, 0.0), (0.4, 0.1), (8.0, 8.0), (8.2, 8.1), (16.0, 0.0)]
        labels = {classify(sites).kind for _ in range(5)}
        assert len(labels) == 1

    def test_too_few_sites(self):
        with pytest.raises(ValueError):
            classify([(0.0, 0.0), (1.0, 1.0)])


class TestSharedMatrix:
    """``classify`` builds one pairwise matrix, read by both of its rules."""

    SITES = [(0.0, 0.0), (0.4, 0.1), (0.1, 0.5), (12.0, 0.0), (12.4, 0.2), (6.0, 9.0)]

    @pytest.fixture
    def built(self, monkeypatch):
        matrices = []
        pairwise = classify_module._pairwise

        def counting(xy):
            matrices.append(pairwise(xy))
            return matrices[-1]

        monkeypatch.setattr(classify_module, "_pairwise", counting)
        return matrices

    def test_one_matrix_per_call(self, built):
        for n in range(3, len(self.SITES) + 1):
            built.clear()
            classify(self.SITES[:n])
            assert len(built) == 1

    def test_nearest_neighbours_leave_the_matrix(self, built):
        # the nearest-neighbour rule masks the diagonal with inf; that must
        # stay out of the matrix the cluster rule thresholds
        label = classify(self.SITES)
        assert label.kind is SubtypeKind.M3
        assert label.clusters == (frozenset({0, 1, 2}), frozenset({3, 4}))
        # classify labels its series as a batch of one: a (1, n, n) stack
        ((d,),) = built
        fresh = classify_module._pairwise(np.array(self.SITES))
        np.testing.assert_array_equal(d, fresh)
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_diagonal_left_out_of_nearest_neighbours(self):
        # one chain at 1.5 km spacing: every nearest neighbour is 1.5 km away,
        # so only a threshold above 1.5 makes it M1; a zero diagonal read as
        # a neighbour would make it M1 at any threshold
        sites = [(1.5 * i, 0.0) for i in range(6)]
        assert classify(sites, nn_threshold_km=1.0).kind is SubtypeKind.M2
        assert classify(sites).kind is SubtypeKind.M1


def _median_rule(values, threshold):
    """The label ``_labels`` gives a series whose nearest-neighbour
    distances are ``values``: site i lies ``values[i]`` from the next site,
    cyclically, and 100 km from the others. Every finite entry links and
    any coverage will do, so only the median rule can keep it from M1."""
    n = len(values)
    d = np.full((n, n), 100.0)
    d[range(n), range(n)] = 0.0
    d[range(n), np.roll(range(n), -1)] = values
    options = {"cluster_cutoff_km": 1e3, "single_cluster_coverage": 0.0}
    return classify_module._labels(d[None], nn_threshold_km=threshold, **options)[0].kind


class TestMedian:
    """The M1 rule thresholds ``np.median`` of the nearest-neighbour
    distances: exactly at it a series is M1, one step below it is not."""

    @staticmethod
    def _check(values):
        median = float(np.median(values))
        assert _median_rule(values, median) is SubtypeKind.M1
        assert _median_rule(values, np.nextafter(median, -math.inf)) is SubtypeKind.M2

    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(4000 + n)
        values = rng.gamma(2.0, 1.5, size=n)
        values[: n // 3] = values[n - 1]  # ties, the largest among them
        rng.shuffle(values)
        self._check(values)

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_all_tied(self, n):
        self._check(np.full(n, 0.1 + 0.2))

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_nan(self, n):
        values = np.arange(1.0, n + 1.0)
        assert _median_rule(values, 1e3) is SubtypeKind.M1
        values[n // 2] = math.nan
        assert _median_rule(values, 1e3) is SubtypeKind.M2


class TestSubtypeLabel:
    def test_m3_requires_clusters(self):
        with pytest.raises(ValueError):
            SubtypeLabel(SubtypeKind.M3)
        with pytest.raises(ValueError):
            SubtypeLabel(SubtypeKind.M1, (frozenset({0, 1}),))

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(ValueError):
            SubtypeLabel(SubtypeKind.M3, (frozenset({0, 1}), frozenset({1, 2})))

    def test_tiny_cluster_rejected(self):
        with pytest.raises(ValueError):
            SubtypeLabel(SubtypeKind.M3, (frozenset({0}),))


class TestClassifyAll:
    """``classify_all`` labels every series as ``classify`` labels each."""

    @staticmethod
    def _check(xys, **options):
        labels = classify_all(xys, **options)
        assert labels == [classify(xy, **options) for xy in xys]
        return labels

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_planar_population(self, seed):
        xys = [np.array(o.crimes) for o in inputs.planar_population(seed, 300)]
        labels = self._check(xys)
        assert {label.kind for label in labels} == set(SubtypeKind)

    def test_latlon_population(self):
        ds = read_dataset(inputs.latlon_csv(inputs.latlon_population(1, 2100)))
        self._check([s.xy for s in ds.series])

    # (name, sites): each a case the rules decide at an edge
    EDGES = [
        ("coincident", [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (5.0, 5.0)]),
        ("all coincident", [(3.0, 3.0)] * 5),
        ("NaN site", [(0.0, 0.0), (math.nan, 0.0), (1.0, 0.0), (0.5, 0.5)]),
        ("NaN pair", [(0.0, 0.0), (math.nan, 1.0), (0.3, 0.0), (9.0, 9.0), (math.nan, 4.0)]),
        ("pair 2.0 km apart", [(0.0, 0.0), (2.0, 0.0), (10.0, 10.0)]),
        ("chain", [(1.9 * i, 0.0) for i in range(6)]),
        ("median at threshold", [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (6.0, 0.0)]),
        (
            "two clusters",
            [(0.0, 0.0), (0.4, 0.1), (0.1, 0.5), (12.0, 0.0), (12.4, 0.2), (6.0, 9.0)],
        ),
        (
            "two chains and strays",
            [(1.5 * i, 0.0) for i in range(4)]
            + [(30.0 + 1.5 * i, 5.0) for i in range(3)]
            + [(60.0, 60.0), (-40.0, 20.0)],
        ),
    ]

    @pytest.mark.parametrize("name, sites", EDGES, ids=[name for name, _ in EDGES])
    def test_edge_alone(self, name, sites):
        self._check([np.array(sites)])

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"nn_threshold_km": 1.0, "cluster_cutoff_km": 3.0},
            {"single_cluster_coverage": 0.5, "multi_cluster_coverage": 0.9},
            {"nn_threshold_km": 2.0 + 1e-12, "cluster_cutoff_km": 1.9},
        ],
    )
    def test_edges_in_one_batch(self, options):
        # every edge case among others of its length, 3 and 129 sites in one
        # call, and enough 129-site series to fill more than one batch
        rng = np.random.default_rng(77)
        xys = [np.array(sites) for _, sites in self.EDGES]
        xys += [rng.uniform(0.0, 6.0, size=(n, 2)) for n in (3, 4, 5, 6, 9) for _ in range(4)]
        xys += [rng.uniform(0.0, 40.0, size=(129, 2)) for _ in range(20)]
        assert 20 * 129 * 129 > classify_module._BATCH_ENTRIES
        xys += [rng.uniform(0.0, 3.0, size=(3, 2))]
        rng.shuffle(xys)
        self._check(xys, **options)

    def test_empty(self):
        assert classify_all([]) == []

    def test_too_few_sites(self):
        with pytest.raises(ValueError, match="at least 3 sites"):
            classify_all([np.zeros((4, 2)), np.zeros((2, 2))])

    def test_bad_cutoff(self):
        with pytest.raises(ValueError, match="cutoff must be > 0"):
            classify_all([np.zeros((4, 2))], cluster_cutoff_km=0.0)

    # each option's rule, and a value outside its range
    BAD_OPTIONS = {
        "nn_threshold_km": ("nearest-neighbour threshold must be > 0 and finite", 0.0),
        "cluster_cutoff_km": ("cluster cutoff must be > 0 and finite", -1.0),
        "single_cluster_coverage": ("single-cluster coverage must lie in [0, 1]", 7.0),
        "multi_cluster_coverage": ("multi-cluster coverage must lie in [0, 1]", -0.1),
    }

    @pytest.mark.parametrize("bad", ["nan", "inf", "range"])
    @pytest.mark.parametrize("option", BAD_OPTIONS)
    def test_bad_option(self, option, bad):
        rule, out_of_range = self.BAD_OPTIONS[option]
        value = out_of_range if bad == "range" else float(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{rule}, got {value!r}')}$"):
            classify_all([np.zeros((4, 2))], **{option: value})

    @pytest.mark.parametrize("option", BAD_OPTIONS)
    def test_bad_option_without_series(self, option):
        # checked before any series is read, so an empty dataset has it too
        rule = f"^{re.escape(self.BAD_OPTIONS[option][0])}, got nan$"
        with pytest.raises(ValueError, match=rule):
            classify_all([], **{option: math.nan})
        with pytest.raises(ValueError, match=rule):
            label_dataset(Dataset(()), **{option: math.nan})

    def test_option_bounds_accepted(self):
        # the smallest positive thresholds, and coverages at both ends
        xys = [np.array([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0), (5.5, 5.0)])]
        for coverage in (0.0, 1.0):
            labels = classify_all(
                xys,
                nn_threshold_km=5e-324,
                cluster_cutoff_km=5e-324,
                single_cluster_coverage=coverage,
                multi_cluster_coverage=coverage,
            )
            assert len(labels) == 1
