"""The geometry kernels against independent references: FPS on duplicate
points, k-NN under ties and across row blocks against a full sort by
(distance, index), SPFH histograms against per-pair ``pair_features``
binning, and float32 Chamfer terms against the double-loop oracle."""
import math
import tracemalloc

import numpy as np
import pytest

from pcmae import kernels
from pcmae.geometry import PointCloud, build_patches, estimate_normals, pair_features
from pcmae.pipeline import chamfer_l2_t
from pcmae.selfcheck import chamfer_oracle, knn_oracle
from pcmae.tensor import Tensor


class TestKernelBasics:
    def test_fps_distinct_and_knn_self_first(self):
        pts = np.random.default_rng(2).normal(size=(64, 3))
        idx = kernels.fps_indices(pts, 8, 0)
        assert len(set(idx.tolist())) == 8
        nbr = kernels.knn_indices(pts, pts[:4], 5)
        assert nbr.shape == (4, 5)
        assert (nbr[:, 0] == np.arange(4)).all()

    def test_duplicate_points_fps_stays_distinct(self):
        pts = np.zeros((6, 3))
        pts[3:] = 1.0
        idx = kernels.fps_indices(pts, 6, 0)
        assert sorted(idx.tolist()) == list(range(6))


def _tie_clouds():
    rng = np.random.default_rng(3)
    axis = np.arange(4.0)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    duplicated = np.repeat(rng.normal(size=(20, 3)), 3, axis=0)
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ring = np.concatenate([np.stack([np.cos(angles), np.sin(angles), np.zeros(8)], 1),
                           2.0 + rng.random((10, 3))])
    return {
        "lattice": (lattice, lattice[::5]),                       # shells of 6, 12, 8 ...
        "duplicated": (duplicated, duplicated[::4] + 1e-3),       # triples straddle k
        "ring": (ring, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])),
    }


TIE_CLOUDS = _tie_clouds()


class TestKnnTies:
    """Ties that straddle the k-th distance, with k < n and batched queries,
    so the partial selection and its full-sort fallback both run."""

    @pytest.mark.parametrize("name", list(TIE_CLOUDS))
    def test_matches_sort_oracle(self, name):
        points, queries = TIE_CLOUDS[name]
        for k in (1, 2, 3, 4, 5, 7, 9, 13, len(points) - 1):
            want = [knn_oracle(points, q, k) for q in queries]
            assert kernels.knn_indices(points, queries, k).tolist() == want, k


def _block_cloud(kind, n):
    rng = np.random.default_rng(n)
    if kind == "seeded":
        return rng.normal(size=(n, 3))
    if kind == "lattice":       # exact ties everywhere, also across blocks
        return np.round(2.0 * rng.normal(size=(n, 3))) / 2.0
    return np.repeat(rng.normal(size=((n + 2) // 3, 3)), 3, axis=0)[:n]   # duplicated


class TestKnnBlocks:
    """``knn_indices`` walks its queries in row blocks; block edges must not
    show in the result, for any query count around the block size."""

    @pytest.mark.parametrize("kind", ["seeded", "lattice", "duplicated"])
    @pytest.mark.parametrize("n", [1, 3, 256, 1024, 1500])
    def test_matches_sort_oracle_around_block_edges(self, n, kind):
        points = _block_cloud(kind, n)
        rows = max(1, kernels.ROWS_ELEMS // n)
        # queries cycle through the cloud, so small clouds fill several blocks
        order = np.arange(2 * rows + 7) % n
        # knn_oracle(p, q, k) is the first k of knn_oracle(p, q, n): one full
        # oracle sort per distinct query serves every k
        full = {i: knn_oracle(points, points[i], n) for i in np.unique(order)}
        for m in (rows - 1, rows, rows + 1, 2 * rows + 7):
            queries = points[order[:m]]
            for k in sorted({1, 16, n - 1, n} & set(range(1, n + 1))):
                got = kernels.knn_indices(points, queries, k)
                assert got.dtype == np.int64 and got.shape == (m, k)
                want = [full[i][:k] for i in order[:m]]
                assert got.tolist() == want, (m, k)

    def test_distances_sum_x_y_z_in_that_order(self):
        # cyclic permutations of one point have the same three squares, so
        # only the rounding of dx*dx + dy*dy + dz*dz, summed in that order,
        # tells them apart; any other order ranks some of them differently
        base = np.random.default_rng(5).normal(size=(200, 3))
        points = np.concatenate([base, base[:, [1, 2, 0]], base[:, [2, 0, 1]]])
        rows = max(1, kernels.ROWS_ELEMS // len(points))
        origin = np.zeros((rows + 5, 3))
        got = kernels.knn_indices(points, origin, len(points))
        want = knn_oracle(points, origin[0], len(points))
        assert all(row == want for row in got.tolist())

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        points = _block_cloud("lattice", 300)
        queries = np.concatenate([points, points[::3] + 0.25])
        want = {k: kernels.knn_indices(points, queries, k) for k in (1, 16, 300)}
        for rows_elems in (1, 300 * 7, 1 << 30):
            monkeypatch.setattr(kernels, "ROWS_ELEMS", rows_elems)
            for k, w in want.items():
                assert np.array_equal(kernels.knn_indices(points, queries, k), w)

    def test_no_queries(self):
        points = _block_cloud("seeded", 10)
        assert kernels.knn_indices(points, points[:0], 4).shape == (0, 4)

    def test_self_query_memory_is_one_block(self):
        # two distance tiles and the partition's index tile, the output, and
        # a margin; a whole 1024 x 1024 float64 matrix alone is 8 MiB
        points = _block_cloud("seeded", 1024)
        kernels.knn_indices(points, points, 16)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = kernels.knn_indices(points, points, 16)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        tile = max(1, kernels.ROWS_ELEMS // 1024) * 1024 * 8
        assert peak < 3 * tile + out.nbytes + (512 << 10), peak


def spfh_pair_oracle(points, normals, centers, neighbors, bins, variant):
    """Raw histograms, pair counts and degenerate-frame counts built one pair
    at a time from ``pair_features``, binned with the kernel's floor/clip."""
    hist = np.zeros((len(centers), 3 * bins))
    counts = np.zeros(len(centers), dtype=np.int64)
    degenerate = np.zeros(len(centers), dtype=np.int64)
    for row, (c, nbr) in enumerate(zip(centers, neighbors)):
        for j in nbr:
            try:
                f = pair_features(points[c], normals[c], points[j], normals[j], variant)
            except ValueError:          # coincident neighbour: skipped
                continue
            counts[row] += 1
            degenerate[row] += f.degenerate
            cells = (math.floor((f.alpha + 1.0) * bins / 2.0),
                     math.floor((f.phi + 1.0) * bins / 2.0),
                     math.floor((f.theta + math.pi) * bins / (2.0 * math.pi)))
            for block, cell in enumerate(cells):
                hist[row, block * bins + min(max(cell, 0), bins - 1)] += 1.0
    return hist, counts, degenerate


def _spfh_clouds():
    # half the clouds sit on a half-unit lattice: duplicate points, exact ties
    # and axis-aligned offsets
    clouds = []
    for seed in range(20):
        pts = np.random.default_rng(100 + seed).normal(size=(96, 3))
        if seed % 2:
            pts = np.round(2.0 * pts) / 2.0
        clouds.append(estimate_normals(PointCloud(pts), 8))
    return clouds


def _degenerate_cloud():
    # centre 0 has normal +z: neighbours straight above and below give
    # degenerate Darboux frames, point 3 coincides with the centre
    points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -2.0],
                       [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0],
                        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
    return points, normals


class TestSpfhReference:
    @pytest.mark.parametrize("variant", ["standard", "paper-literal"])
    def test_matches_pair_oracle_on_seeded_clouds(self, variant):
        degenerate_seen = coincident_seen = 0
        for cloud in _spfh_clouds():
            patches = build_patches(cloud, 12, 16, first_index=0)
            got = kernels.spfh_histograms(cloud.points, cloud.normals,
                                          patches.center_indices, patches.neighbor_indices,
                                          11, variant == "paper-literal")
            want = spfh_pair_oracle(cloud.points, cloud.normals, patches.center_indices,
                                    patches.neighbor_indices, 11, variant)
            for x, y in zip(got, want):
                assert np.array_equal(x, y)
            degenerate_seen += int(got[2].sum())
            coincident_seen += int((16 - got[1]).sum())
        # the lattice clouds must reach both special cases
        assert coincident_seen > 12 * 20
        assert degenerate_seen > 0

    @pytest.mark.parametrize("variant", ["standard", "paper-literal"])
    def test_matches_pair_oracle_on_degenerate_frames(self, variant):
        points, normals = _degenerate_cloud()
        centers = np.array([0, 4])
        neighbors = np.array([[0, 1, 2, 3, 4, 5], [4, 0, 1, 2, 3, 5]])
        got = kernels.spfh_histograms(points, normals, centers, neighbors, 11,
                                      variant == "paper-literal")
        want = spfh_pair_oracle(points, normals, centers, neighbors, 11, variant)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
        assert got[1].tolist() == [4, 5]
        assert got[2][0] == 2


class TestChamferFloat32:
    def test_terms_match_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(6, 10, 3)).astype(np.float32)
            b = rng.normal(size=(6, 12, 3)).astype(np.float32)
            min_a, arg_a, min_b, arg_b = kernels.chamfer_terms(a, b)
            assert min_a.dtype == np.float32 and min_b.dtype == np.float32
            a64, b64 = a.astype(np.float64), b.astype(np.float64)
            d = ((a64[:, :, None, :] - b64[:, None, :, :]) ** 2).sum(axis=-1)
            for i in range(6):
                got = float(min_a[i].mean() + min_b[i].mean())
                assert got == pytest.approx(chamfer_oracle(a64[i], b64[i]), rel=1e-5)
                # the returned argmins attain the nearest distances
                np.testing.assert_allclose(d[i][np.arange(10), arg_a[i]], d[i].min(axis=1),
                                           rtol=1e-5)
                np.testing.assert_allclose(d[i][arg_b[i], np.arange(12)], d[i].min(axis=0),
                                           rtol=1e-5)

    def test_training_loss_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=(5, 8, 3)).astype(np.float32)
        gt = rng.normal(size=(5, 8, 3)).astype(np.float32)
        loss = chamfer_l2_t(Tensor(pred, requires_grad=True), gt)
        assert loss.data.dtype == np.float32
        want = np.mean([chamfer_oracle(pred[i].astype(np.float64), gt[i].astype(np.float64))
                        for i in range(5)])
        assert float(loss.data) == pytest.approx(want, rel=1e-5)
