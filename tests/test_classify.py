import importlib
import math

import numpy as np
import pytest

from geoprofile.classify import (
    SubtypeKind,
    SubtypeLabel,
    classify,
    detect_clusters,
    nn_distances,
)

# the package re-exports the function ``classify``, which hides the module
classify_module = importlib.import_module("geoprofile.classify")


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

    def test_manhattan_metric(self):
        sites = [(0.0, 0.0), (3.0, 4.0)]
        np.testing.assert_allclose(nn_distances(sites, metric="manhattan"), [7.0, 7.0])

    def test_too_few_sites(self):
        with pytest.raises(ValueError):
            nn_distances([(0.0, 0.0)])


class TestDetectClusters:
    def test_two_groups(self):
        group1 = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]
        group2 = [(10.0, 0.0), (10.5, 0.0), (10.0, 0.5)]
        clusters = detect_clusters(group1 + group2, cutoff=2.0)
        assert sorted(len(c) for c in clusters) == [3, 3]
        assert clusters[0] == frozenset({0, 1, 2})
        assert clusters[1] == frozenset({3, 4, 5})

    def test_single_cluster(self):
        sites = [(0.0, 0.0), (0.3, 0.1), (0.1, 0.4), (0.2, 0.2)]
        clusters = detect_clusters(sites, cutoff=2.0)
        assert clusters == [frozenset(range(4))]

    def test_chaining(self):
        sites = [(1.9 * i, 0.0) for i in range(6)]
        clusters = detect_clusters(sites, cutoff=2.0)
        assert clusters == [frozenset(range(6))]

    def test_isolated_sites_not_clusters(self):
        sites = [(0.0, 0.0), (0.5, 0.0), (50.0, 50.0)]
        clusters = detect_clusters(sites, cutoff=2.0)
        assert clusters == [frozenset({0, 1})]

    def test_partition_property(self):
        rng = np.random.default_rng(23)
        sites = rng.uniform(0.0, 30.0, size=(40, 2))
        clusters = detect_clusters(sites, cutoff=3.0)
        covered = [i for c in clusters for i in c]
        assert len(covered) == len(set(covered))


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

        def counting(xy, metric):
            matrices.append(pairwise(xy, metric))
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
        (d,) = built
        fresh = classify_module._pairwise(np.array(self.SITES), "euclidean")
        np.testing.assert_array_equal(d, fresh)
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_diagonal_left_out_of_nearest_neighbours(self):
        # one chain at 1.5 km spacing: every nearest neighbour is 1.5 km away,
        # so only a threshold above 1.5 makes it M1; a zero diagonal read as
        # a neighbour would make it M1 at any threshold
        sites = [(1.5 * i, 0.0) for i in range(6)]
        assert classify(sites, nn_threshold_km=1.0).kind is SubtypeKind.M2
        assert classify(sites).kind is SubtypeKind.M1


class TestMedian:
    """``_median`` gives ``np.median``'s value bit for bit."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(4000 + n)
        values = rng.gamma(2.0, 1.5, size=n)
        values[: n // 3] = values[n - 1]  # ties, the largest among them
        rng.shuffle(values)
        assert classify_module._median(values) == float(np.median(values))

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_all_tied(self, n):
        values = np.full(n, 0.1 + 0.2)
        assert classify_module._median(values) == float(np.median(values))

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_nan(self, n):
        values = np.arange(1.0, n + 1.0)
        values[n // 2] = math.nan
        assert math.isnan(float(np.median(values)))
        assert math.isnan(classify_module._median(values))


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
