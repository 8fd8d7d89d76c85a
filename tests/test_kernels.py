"""The numba kernels and their numpy fallbacks must agree bit-for-bit, and
k-NN must match a full sort by (distance, index)."""
import numpy as np
import pytest

from pcmae import kernels

needs_numba = pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba not importable")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(512, 3))
    queries = pts[rng.choice(512, 32, replace=False)]
    normals = rng.normal(size=(512, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return pts, queries, normals


@needs_numba
class TestPathEquality:
    def test_fps(self, workload):
        pts, _, _ = workload
        for first in (0, 17, 300):
            a = kernels._fps_numba(pts, 48, first)
            b = kernels._fps_numpy(pts, 48, first)
            assert np.array_equal(a, b)

    def test_knn(self, workload):
        pts, queries, _ = workload
        for k in (1, 8, 32):
            a = kernels._knn_numba(pts, queries, k)
            b = kernels._knn_numpy(pts, queries, k)
            assert np.array_equal(a, b)

    def test_spfh(self, workload):
        pts, queries, normals = workload
        centers = np.arange(32, dtype=np.int64)
        nbr = kernels.knn_indices(pts, queries, 16)
        for literal in (False, True):
            a = kernels._spfh_numba(pts, normals, centers, nbr, 11, literal)
            b = kernels._spfh_numpy(pts, normals, centers, nbr, 11, literal)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_chamfer(self, workload):
        rng = np.random.default_rng(1)
        for dtype in (np.float64, np.float32):
            a = rng.normal(size=(6, 10, 3)).astype(dtype)
            b = rng.normal(size=(6, 12, 3)).astype(dtype)
            out_nb = kernels._chamfer_numba(a, b)
            out_np = kernels._chamfer_numpy(a, b)
            for x, y in zip(out_nb, out_np):
                assert np.array_equal(np.asarray(x), np.asarray(y))

    def test_duplicate_points_fps_stays_distinct(self):
        pts = np.zeros((6, 3))
        pts[3:] = 1.0
        for impl in (kernels._fps_numba, kernels._fps_numpy):
            idx = impl(pts, 6, 0)
            assert sorted(idx.tolist()) == list(range(6))


def knn_sort_oracle(points, queries, k):
    """k nearest by a full sort on (squared distance, index)."""
    out = []
    for q in queries:
        diff = points - q
        d = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] + diff[:, 2] * diff[:, 2]
        out.append(sorted(range(len(points)), key=lambda i: (d[i], i))[:k])
    return np.array(out, dtype=np.int64).reshape(len(queries), k)


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
            want = knn_sort_oracle(points, queries, k)
            assert np.array_equal(kernels._knn_numpy(points, queries, k), want), k
            assert np.array_equal(kernels.knn_indices(points, queries, k), want), k


class TestDispatch:
    def test_flag_reflects_environment(self):
        # the module-level flag is resolved at import; both values are legal,
        # but the dispatchers must return consistent results either way
        pts = np.random.default_rng(2).normal(size=(64, 3))
        idx = kernels.fps_indices(pts, 8, 0)
        assert len(set(idx.tolist())) == 8
        nbr = kernels.knn_indices(pts, pts[:4], 5)
        assert nbr.shape == (4, 5)
        assert (nbr[:, 0] == np.arange(4)).all()

    def test_forced_numpy_subprocess(self):
        import subprocess
        import sys

        code = (
            "import os; os.environ['PCMAE_NUMBA']='0';"
            "from pcmae import kernels; import numpy as np;"
            "assert not kernels.USE_NUMBA;"
            "pts = np.random.default_rng(0).normal(size=(32,3));"
            "print(list(kernels.fps_indices(pts, 4, 0)))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        pts = np.random.default_rng(0).normal(size=(32, 3))
        assert str(list(kernels.fps_indices(pts, 4, 0))) == out.stdout.strip()
