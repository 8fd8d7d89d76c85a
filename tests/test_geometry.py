"""Geometry primitives against brute-force oracles and hand-computed cases."""
import math

import numpy as np
import pytest

from pcmae.dataio import random_rotation
from pcmae.geometry import (PointCloud, build_patches, estimate_normals,
                            estimate_normals_with_stats, farthest_point_sample,
                            knn, normalize_cloud, pair_features, spfh_batch)
from pcmae.selfcheck import fps_oracle


class TestNormalizeCloud:
    def test_already_normalized_sphere_is_unchanged(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(64, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts -= pts.mean(axis=0)
        pts /= np.sqrt((pts ** 2).sum(axis=1).max())
        out = normalize_cloud(PointCloud(pts))
        np.testing.assert_allclose(out.points, pts, atol=1e-12)

    def test_two_point_cloud(self):
        out = normalize_cloud(PointCloud([[2, 0, 0], [4, 0, 0]]))
        np.testing.assert_allclose(out.points, [[-1, 0, 0], [1, 0, 0]], atol=1e-12)

    def test_random_cloud_centroid_and_max_norm(self):
        rng = np.random.default_rng(1)
        out = normalize_cloud(PointCloud(rng.normal(2.0, 3.0, size=(100, 3))))
        assert np.linalg.norm(out.points.mean(axis=0)) < 1e-6
        assert abs(np.sqrt((out.points ** 2).sum(axis=1).max()) - 1.0) < 1e-6

    def test_coincident_points_collapse_to_zero(self):
        out = normalize_cloud(PointCloud(np.ones((5, 3))))
        assert np.all(out.points == 0.0)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError, match="empty cloud"):
            normalize_cloud(PointCloud(np.zeros((0, 3))))


class TestFarthestPointSample:
    def test_single_sample_is_seed_choice(self):
        cloud = PointCloud(np.random.default_rng(2).normal(size=(10, 3)))
        idx = farthest_point_sample(cloud, 1, seed=5)
        expect = int(np.random.default_rng(5).integers(10))
        assert list(idx) == [expect]

    def test_hand_case_picks_far_point(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 0, 0]])
        assert list(farthest_point_sample(cloud, 2, first_index=0)) == [0, 3]

    def test_matches_exhaustive_greedy_on_small_clouds(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            g = int(rng.integers(1, n + 1))
            pts = rng.normal(size=(n, 3))
            first = int(rng.integers(n))
            got = list(farthest_point_sample(PointCloud(pts), g, first_index=first))
            assert got == fps_oracle(pts, g, first)

    def test_indices_distinct_at_full_scale(self):
        cloud = PointCloud(np.random.default_rng(4).normal(size=(1024, 3)))
        idx = farthest_point_sample(cloud, 64, seed=0)
        assert len(set(idx.tolist())) == 64

    def test_oversampling_rejected(self):
        cloud = PointCloud(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="sample count exceeds cloud size"):
            farthest_point_sample(cloud, 4, seed=0)

    def test_deterministic_given_seed(self):
        cloud = PointCloud(np.random.default_rng(5).normal(size=(50, 3)))
        a = farthest_point_sample(cloud, 10, seed=9)
        b = farthest_point_sample(cloud, 10, seed=9)
        assert np.array_equal(a, b)


class TestKnn:
    def test_query_on_cloud_point_returns_it_first(self):
        pts = np.random.default_rng(6).normal(size=(20, 3))
        idx = knn(PointCloud(pts), pts[7], 1)
        assert list(idx) == [7]

    def test_hand_case(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        assert list(knn(cloud, [0.9, 0, 0], 2)) == [1, 0]

    def test_matches_full_sort(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            k = int(rng.integers(1, n + 1))
            pts = rng.normal(size=(n, 3))
            q = rng.normal(size=3)
            d = ((pts - q) ** 2).sum(axis=1)
            want = [i for _, i in sorted((float(dd), i) for i, dd in enumerate(d))[:k]]
            assert list(knn(PointCloud(pts), q, k)) == want

    def test_tie_breaks_toward_lower_index(self):
        cloud = PointCloud([[1, 0, 0], [-1, 0, 0], [0, 1, 0]])
        assert list(knn(cloud, [0, 0, 0], 3)) == [0, 1, 2]

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="k exceeds cloud size"):
            knn(PointCloud(np.zeros((2, 3))), [0, 0, 0], 3)


class TestBuildPatches:
    def test_each_neighborhood_contains_origin(self):
        cloud = PointCloud(np.random.default_rng(8).normal(size=(100, 3)))
        patches = build_patches(cloud, 10, 5, seed=0)
        assert (np.abs(patches.neighborhoods).sum(axis=2) == 0).any(axis=1).all()

    def test_four_point_hand_case(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 0, 0]], dtype=float)
        patches = build_patches(PointCloud(pts), 2, 2, first_index=0)
        assert list(patches.center_indices) == [0, 3]
        # neighbourhood rows = knn result minus the center
        np.testing.assert_allclose(patches.neighborhoods[0], [[0, 0, 0], [1, 0, 0]])
        np.testing.assert_allclose(patches.neighborhoods[1], [[0, 0, 0], [-9, 0, 0]])

    def test_default_shapes(self):
        cloud = PointCloud(np.random.default_rng(9).normal(size=(1024, 3)))
        patches = build_patches(cloud, 64, 32, seed=1)
        assert patches.neighborhoods.shape == (64, 32, 3)
        assert patches.neighbor_indices.shape == (64, 32)
        # un-centered rows are cloud points
        restored = patches.neighborhoods + patches.centers[:, None, :]
        np.testing.assert_allclose(restored, cloud.points[patches.neighbor_indices])


class TestEstimateNormals:
    def test_plane_normals_point_up(self):
        rng = np.random.default_rng(10)
        pts = np.concatenate([rng.uniform(-1, 1, size=(80, 2)), np.zeros((80, 1))], axis=1)
        cloud = estimate_normals(PointCloud(pts), 8)
        np.testing.assert_allclose(cloud.normals, np.tile([0.0, 0.0, 1.0], (80, 1)), atol=1e-9)

    def test_sphere_normals_near_radial(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(1024, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cloud = estimate_normals(PointCloud(pts), 16)
        cos = np.abs((cloud.normals * pts).sum(axis=1))
        assert np.degrees(np.arccos(np.clip(cos, -1, 1))).max() < 10.0

    def test_rotated_plane_normals_follow_rotation(self):
        rng = np.random.default_rng(12)
        pts = np.concatenate([rng.uniform(-1, 1, size=(60, 2)), np.zeros((60, 1))], axis=1)
        rot = random_rotation(rng)
        cloud = estimate_normals(PointCloud(pts @ rot.T), 8)
        target = rot @ np.array([0.0, 0.0, 1.0])
        cos = np.abs(cloud.normals @ target)
        assert np.abs(cos - 1.0).max() < 1e-5

    def test_unit_norm_and_orientation(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(128, 3))
        cloud = estimate_normals(PointCloud(pts), 8)
        np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-6)
        dots = (cloud.normals * (pts - pts.mean(axis=0))).sum(axis=1)
        assert (dots >= -1e-12).all()

    def test_collinear_neighborhood_flagged(self):
        pts = np.zeros((10, 3))
        pts[:, 0] = np.arange(10.0)
        cloud, degenerate = estimate_normals_with_stats(PointCloud(pts), 4)
        assert degenerate == 10
        # any orthogonal unit vector is acceptable
        assert np.abs((cloud.normals * np.array([1.0, 0, 0])).sum(axis=1)).max() < 1e-9


class TestPairFeatures:
    def test_hand_case_parallel_normals(self):
        f = pair_features((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 1))
        assert abs(f.alpha) <= 1e-9 and abs(f.phi) <= 1e-9 and abs(f.theta) <= 1e-9

    def test_hand_case_orthogonal_neighbor_normal(self):
        f = pair_features((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 0))
        assert abs(f.alpha) <= 1e-9
        assert abs(f.phi) <= 1e-9
        assert abs(f.theta - math.pi / 2) <= 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p_q, p_i = rng.normal(size=3), rng.normal(size=3)
            n_q = rng.normal(size=3)
            n_q /= np.linalg.norm(n_q)
            n_i = rng.normal(size=3)
            n_i /= np.linalg.norm(n_i)
            rot = random_rotation(rng)
            a = pair_features(p_q, n_q, p_i, n_i)
            b = pair_features(rot @ p_q, rot @ n_q, rot @ p_i, rot @ n_i)
            assert abs(a.alpha - b.alpha) < 1e-6
            assert abs(a.phi - b.phi) < 1e-6
            assert abs(a.theta - b.theta) < 1e-6

    def test_ranges(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            p_q, p_i = rng.normal(size=3), rng.normal(size=3)
            n_q = rng.normal(size=3)
            n_q /= np.linalg.norm(n_q)
            n_i = rng.normal(size=3)
            n_i /= np.linalg.norm(n_i)
            f = pair_features(p_q, n_q, p_i, n_i)
            assert -1.0 <= f.alpha <= 1.0
            assert -1.0 <= f.phi <= 1.0
            assert -math.pi <= f.theta <= math.pi

    def test_coincident_pair_rejected(self):
        with pytest.raises(ValueError, match="coincident pair"):
            pair_features((1, 2, 3), (0, 0, 1), (1, 2, 3), (0, 0, 1))

    def test_degenerate_frame_flagged(self):
        # offset parallel to the query normal
        f = pair_features((0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0))
        assert f.degenerate
        assert f.alpha == 0.0 and f.theta == 0.0 and abs(f.phi) == 1.0

    def test_paper_literal_alpha_is_zero(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            p_q, p_i = rng.normal(size=3), rng.normal(size=3)
            n_q = rng.normal(size=3)
            n_q /= np.linalg.norm(n_q)
            n_i = rng.normal(size=3)
            n_i /= np.linalg.norm(n_i)
            f = pair_features(p_q, n_q, p_i, n_i, variant="paper-literal")
            assert abs(f.alpha) <= 1e-12


def _cloud_with_normals(rng, n=64):
    pts = rng.normal(size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(pts, normals)


class TestSpfhDescriptor:
    def test_identical_pairs_occupy_single_bins(self):
        # place all neighbours at the same relative pose: one bin per angle
        pts = np.array([[0, 0, 0]] + [[1, 0, 0]] * 4, dtype=float)
        pts[1:] += np.arange(4)[:, None] * 1e-12  # keep points distinct
        normals = np.tile([0.0, 0.0, 1.0], (5, 1))
        hist = spfh_batch(PointCloud(pts, normals), [0], [[1, 2, 3, 4]])[0]
        for block in range(3):
            sub = hist[block * 11:(block + 1) * 11]
            assert (sub > 0).sum() == 1
            assert abs(sub.sum() - 1.0) < 1e-6

    def test_plane_concentrates_alpha_and_theta(self):
        rng = np.random.default_rng(17)
        pts = np.concatenate([rng.uniform(-1, 1, (9, 2)), np.zeros((9, 1))], axis=1)
        pts[0] = 0.0
        normals = np.tile([0.0, 0.0, 1.0], (9, 1))
        hist = spfh_batch(PointCloud(pts, normals), [0], [list(range(1, 9))])[0]
        alpha = hist[:11]
        theta = hist[22:]
        assert alpha[5] == 1.0      # bin containing 0 for range [-1, 1]
        assert theta[5] == 1.0      # bin containing 0 for range [-pi, pi]

    def test_rotation_invariance_of_histogram(self):
        rng = np.random.default_rng(18)
        cloud = _cloud_with_normals(rng)
        centers = np.arange(4)
        nbr = np.stack([np.arange(5, 13) for _ in range(4)])
        base = spfh_batch(cloud, centers, nbr)
        for _ in range(100):
            rot = random_rotation(rng)
            rotated = PointCloud(cloud.points @ rot.T, cloud.normals @ rot.T)
            got = spfh_batch(rotated, centers, nbr)
            assert np.abs(got - base).max() < 1e-5

    def test_neighbor_permutation_invariance(self):
        rng = np.random.default_rng(19)
        cloud = _cloud_with_normals(rng)
        nbr = np.arange(10, 26)[None, :]
        base = spfh_batch(cloud, [3], nbr)
        for _ in range(20):
            perm = rng.permutation(16)
            got = spfh_batch(cloud, [3], nbr[:, perm])
            assert np.array_equal(base, got)

    def test_sub_histograms_sum_to_one(self):
        rng = np.random.default_rng(20)
        cloud = _cloud_with_normals(rng, 128)
        centers = rng.choice(128, 16, replace=False)
        nbr = rng.integers(0, 128, size=(16, 24))
        hist = spfh_batch(cloud, centers, nbr)
        assert (hist >= 0).all()
        for block in range(3):
            np.testing.assert_allclose(hist[:, block * 11:(block + 1) * 11].sum(axis=1),
                                       1.0, atol=1e-6)

    def test_degenerate_neighborhood_rejected(self):
        pts = np.zeros((4, 3))
        normals = np.tile([0.0, 0.0, 1.0], (4, 1))
        with pytest.raises(ValueError, match="degenerate neighborhood"):
            spfh_batch(PointCloud(pts, normals), [0], [[1, 2, 3]])

    def test_center_skipped_in_pairs(self):
        rng = np.random.default_rng(21)
        cloud = _cloud_with_normals(rng)
        with_self = spfh_batch(cloud, [5], [[5, 8, 9, 10]])[0]
        without = spfh_batch(cloud, [5], [[8, 9, 10]])[0]
        np.testing.assert_allclose(with_self, without, atol=1e-12)
