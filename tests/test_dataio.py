"""File formats: xyz clouds, manifests, synthetic datasets, checkpoints."""
import math
import struct

import numpy as np
import pytest

from pcmae import tensor
from pcmae.config import ModelConfig, TrainConfig
from pcmae.dataio import (CheckpointError, DataError, load_checkpoint, load_dataset,
                          load_model_checkpoint, load_xyz, manifest_load,
                          resample_cloud, sample_shape, save_checkpoint,
                          save_dataset, save_xyz, synth_shapes)
from pcmae.geometry import PointCloud
from pcmae.pipeline import chamfer_l2, init_pretrain_params
from pcmae.selfcheck import TINY
from pcmae.tensor import ParamStore


class TestXyz:
    def test_basic_two_point_file(self, tmp_path):
        path = tmp_path / "a.xyz"
        path.write_text("0 0 0\n1 0 0\n")
        cloud = load_xyz(path)
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 0, 0]])
        assert cloud.normals is None

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "a.xyz"
        path.write_text("# header\n\n0 0 0\n  \n1 2 3\n")
        assert len(load_xyz(path)) == 2

    def test_normals_parsed(self, tmp_path):
        path = tmp_path / "a.xyz"
        path.write_text("0 0 0 0 0 1\n1 0 0 1 0 0\n")
        cloud = load_xyz(path)
        np.testing.assert_array_equal(cloud.normals, [[0, 0, 1], [1, 0, 0]])

    def test_zero_length_normal_names_line_number(self, tmp_path):
        # carried normals feed every forward; (0, 0, 0) has no direction. A
        # tiny but nonzero normal is kept (its length does not underflow).
        path = tmp_path / "a.xyz"
        path.write_text("0 0 0 0 0 1\n1 0 0 -0 0 0\n")
        with pytest.raises(DataError, match=r"line 2: zero-length normal$"):
            load_xyz(path)
        path.write_text("0 0 0 0 0 1\n1 0 0 1e-300 0 0\n")
        assert load_xyz(path).normals[1, 0] == 1e-300

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("a b c\n")
        with pytest.raises(DataError, match="line 1"):
            load_xyz(path)
        path.write_text("0 0 0\n1 2\n")
        with pytest.raises(DataError, match="line 2"):
            load_xyz(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# nothing\n")
        with pytest.raises(DataError, match="no points"):
            load_xyz(path)

    def test_roundtrip_to_nine_digits(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(50, 3)),
                           rng.normal(size=(50, 3)) / np.sqrt(3))
        path = tmp_path / "rt.xyz"
        save_xyz(path, cloud)
        back = load_xyz(path)
        np.testing.assert_allclose(back.points, cloud.points, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(back.normals, cloud.normals, rtol=1e-8, atol=1e-12)

    def test_downsample_is_subset(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(2048, 3))
        path = tmp_path / "big.xyz"
        save_xyz(path, PointCloud(pts))
        cloud = load_xyz(path, n=1024, seed=3)
        assert len(cloud) == 1024
        d = np.abs(cloud.points[:, None, :] - np.loadtxt(path)[None, :, :]).sum(-1).min(1)
        assert d.max() < 1e-7   # every kept point appears in the file

    def test_upsample_duplicates_originals(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(10, 3))
        out = resample_cloud(PointCloud(pts), 16, seed=0)
        assert len(out) == 16
        np.testing.assert_array_equal(out.points[:10], pts)
        for extra in out.points[10:]:
            assert (np.abs(pts - extra).sum(axis=1) == 0).any()


class TestSynthShapes:
    def test_sphere_samples_on_unit_sphere(self):
        rng = np.random.default_rng(3)
        pts = sample_shape("sphere", 500, rng)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-6)

    def test_dataset_size_and_labels(self):
        items, names = synth_shapes(["cube", "sphere"], per_class=4, n_points=64, seed=4)
        assert len(items) == 8
        assert names == ["cube", "sphere"]
        assert [label for _, label in items] == [0] * 4 + [1] * 4

    def test_normalized_outputs(self):
        items, _ = synth_shapes(["torus"], per_class=2, n_points=128, seed=5)
        for cloud, _ in items:
            assert np.linalg.norm(cloud.points.mean(axis=0)) < 1e-6
            assert abs(np.linalg.norm(cloud.points, axis=1).max() - 1.0) < 1e-6

    def test_deterministic_and_seed_sensitive(self):
        a, _ = synth_shapes(["cone"], per_class=1, n_points=64, seed=6)
        b, _ = synth_shapes(["cone"], per_class=1, n_points=64, seed=6)
        c, _ = synth_shapes(["cone"], per_class=1, n_points=64, seed=7)
        assert np.array_equal(a[0][0].points, b[0][0].points)
        assert np.abs(a[0][0].points - c[0][0].points).max() > 0.0

    def test_classes_are_chamfer_separable(self):
        items, names = synth_shapes(["sphere", "cube", "cylinder", "torus", "cone"],
                                    per_class=10, n_points=128, seed=8)
        by_class = {}
        for cloud, label in items:
            by_class.setdefault(label, []).append(cloud.points)
        intra, inter = [], []
        labels = sorted(by_class)
        for a in labels:
            clouds_a = by_class[a]
            for i in range(len(clouds_a)):
                for j in range(i + 1, len(clouds_a)):
                    intra.append(chamfer_l2(clouds_a[i], clouds_a[j]))
            for b in labels:
                if b <= a:
                    continue
                for ca in clouds_a[:5]:
                    for cb in by_class[b][:5]:
                        inter.append(chamfer_l2(ca, cb))
        assert np.mean(inter) > np.mean(intra)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown shape class"):
            synth_shapes(["pyramid"], per_class=1, n_points=32, seed=0)


def sample_shape_loop(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A per-point loop of scalar draws: the oracle for ``sample_shape``'s
    non-sphere kinds."""
    if kind == "cube":
        face = rng.integers(6, size=n)
        uv = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts = np.empty((n, 3))
        axis = face % 3
        sign = np.where(face < 3, 1.0, -1.0)
        for i in range(n):
            a = axis[i]
            rest = [j for j in range(3) if j != a]
            pts[i, a] = sign[i]
            pts[i, rest[0]] = uv[i, 0]
            pts[i, rest[1]] = uv[i, 1]
        return pts
    if kind == "cylinder":
        lateral = 4.0 * math.pi
        caps = 2.0 * math.pi
        pts = np.empty((n, 3))
        which = rng.uniform(0.0, lateral + caps, size=n)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        for i in range(n):
            if which[i] < lateral:
                pts[i] = (math.cos(theta[i]), math.sin(theta[i]), rng.uniform(-1.0, 1.0))
            else:
                rad = math.sqrt(rng.uniform(0.0, 1.0))
                z = 1.0 if which[i] < lateral + caps / 2.0 else -1.0
                pts[i] = (rad * math.cos(theta[i]), rad * math.sin(theta[i]), z)
        return pts
    if kind == "torus":
        major, minor = 1.0, 0.4
        pts = np.empty((n, 3))
        got = 0
        while got < n:
            u = rng.uniform(0.0, 2.0 * math.pi)
            v = rng.uniform(0.0, 2.0 * math.pi)
            if rng.uniform() > (major + minor * math.cos(v)) / (major + minor):
                continue
            ring = major + minor * math.cos(v)
            pts[got] = (ring * math.cos(u), ring * math.sin(u), minor * math.sin(v))
            got += 1
        return pts
    assert kind == "cone"
    slant = math.sqrt(1.0 + 4.0)
    lateral = math.pi * slant
    base = math.pi
    pts = np.empty((n, 3))
    which = rng.uniform(0.0, lateral + base, size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    for i in range(n):
        if which[i] < lateral:
            t = math.sqrt(rng.uniform())
            pts[i] = (t * math.cos(theta[i]), t * math.sin(theta[i]), 1.0 - 2.0 * t)
        else:
            rad = math.sqrt(rng.uniform(0.0, 1.0))
            pts[i] = (rad * math.cos(theta[i]), rad * math.sin(theta[i]), -1.0)
    return pts


class TestSampleShapeOracle:
    @pytest.mark.parametrize("kind", ["cube", "cylinder", "torus", "cone"])
    def test_same_bytes_and_generator_state_as_the_loop(self, kind):
        # the points, and the generator's next draw after them
        for seed in range(40):
            for n in (0, 1, 2, 17, 256, 1024):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = sample_shape(kind, n, a), sample_shape_loop(kind, n, b)
                assert got.shape == want.shape == (n, 3)
                assert got.tobytes() == want.tobytes(), (kind, seed, n)
                assert a.random() == b.random(), (kind, seed, n)


class TestManifest:
    def _write_dataset(self, root):
        items, names = synth_shapes(["cone", "cube"], per_class=2, n_points=32, seed=9)
        save_dataset(root, "train", items, names)
        return items, names

    def test_roundtrip_via_manifest(self, tmp_path):
        items, names = self._write_dataset(tmp_path)
        manifest = manifest_load(tmp_path, "train")
        assert len(manifest.entries) == 4
        assert manifest.class_index == {"cone": 0, "cube": 1}
        loaded, loaded_names = load_dataset(tmp_path, "train", normalize=False)
        assert loaded_names == names
        assert [label for _, label in loaded] == sorted(label for _, label in items)

    def test_directory_scan_fallback(self, tmp_path):
        items, names = self._write_dataset(tmp_path)
        (tmp_path / "train.csv").unlink()
        manifest = manifest_load(tmp_path, "train")
        assert len(manifest.entries) == 4
        assert manifest.split == "train"

    def test_class_index_sorted(self, tmp_path):
        (tmp_path / "x").mkdir()
        for name, label in [("b.xyz", "cube"), ("a.xyz", "cone")]:
            (tmp_path / "x" / name).write_text("0 0 0\n1 1 1\n")
        (tmp_path / "train.csv").write_text("x/b.xyz,cube\nx/a.xyz,cone\n")
        manifest = manifest_load(tmp_path, "train")
        assert manifest.class_index == {"cone": 0, "cube": 1}
        assert manifest.entries[0][0] == "x/a.xyz"   # sorted by path

    def test_duplicate_paths_rejected(self, tmp_path):
        (tmp_path / "a.xyz").write_text("0 0 0\n")
        (tmp_path / "train.csv").write_text("a.xyz,c1\na.xyz,c2\n")
        with pytest.raises(DataError, match="duplicate path"):
            manifest_load(tmp_path, "train")

    def test_missing_file_rejected(self, tmp_path):
        (tmp_path / "train.csv").write_text("ghost.xyz,c1\n")
        with pytest.raises(DataError, match="missing file"):
            manifest_load(tmp_path, "train")

    def test_missing_split_rejected(self, tmp_path):
        with pytest.raises(DataError):
            manifest_load(tmp_path, "test")


def length_offset(blob: bytes, field: str) -> int:
    """Byte offset of a uint32 length in a checkpoint: the config blob's,
    or the first tensor's name length, ndim or first dimension."""
    (blob_len,) = struct.unpack_from("<I", blob, 8)
    name_at = 12 + blob_len + 4
    (name_len,) = struct.unpack_from("<I", blob, name_at)
    return {"config_blob": 8, "name": name_at, "ndim": name_at + 4 + name_len,
            "payload": name_at + 8 + name_len}[field]


def set_length(blob: bytearray, field: str, value) -> bytearray:
    """``blob`` with one length set to ``value``, or with its top bit set."""
    at = length_offset(blob, field)
    if value == "high_bit":
        value = struct.unpack_from("<I", blob, at)[0] | 0x80000000
    struct.pack_into("<I", blob, at, value)
    return blob


def with_config_block(raw: bytes, blob: bytes) -> bytes:
    """A checkpoint's bytes with its config block replaced by ``blob``."""
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len:]


class TestCheckpoint:
    def test_bitexact_roundtrip(self, tmp_path):
        store = init_pretrain_params(TINY, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        tensors, block = load_checkpoint(path)
        assert sorted(tensors) == store.names()
        for name, t in store.items():
            assert np.array_equal(tensors[name], t.data)
        assert block["model"]["d"] == TINY.d

    def test_two_saves_byte_identical(self, tmp_path):
        store = init_pretrain_params(TINY, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, store, TINY, TrainConfig())
        save_checkpoint(p2, store, TINY, TrainConfig())
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        store = init_pretrain_params(TINY, seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        store = init_pretrain_params(TINY, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        store = init_pretrain_params(TINY, seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["config_blob", "name", "ndim", "payload"])
    @pytest.mark.parametrize("value", [0x7FFFFFFF, 0xFFFFFFFF, "high_bit"])
    def test_oversized_length_rejected(self, tmp_path, field, value):
        # lengths past the end of the file once made the reader allocate them
        # (MemoryError) or overflow (OverflowError) instead of refusing them
        store = init_pretrain_params(TINY, seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        blob = bytearray(path.read_bytes())
        path.write_bytes(bytes(set_length(blob, field, value)))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob", [b"[" * 100000 + b"]" * 100000, b"\xff\xfe{}", b"{"],
                             ids=["nested_too_deep", "not_utf8", "not_json"])
    def test_corrupt_config_block_rejected(self, tmp_path, blob):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_pretrain_params(TINY, seed=7), TINY, TrainConfig())
        path.write_bytes(with_config_block(path.read_bytes(), blob))
        with pytest.raises(CheckpointError, match="corrupt config block"):
            load_checkpoint(path)

    def test_duplicate_tensor_rejected(self, tmp_path):
        # a name listed twice once loaded without complaint, the second
        # payload replacing the first
        store = init_pretrain_params(TINY, seed=9)
        store.add("cls.l0.w", np.ones((TINY.feature_dim, 3)))
        store.add("cls.l1.w", np.zeros((TINY.feature_dim, 3)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        path.write_bytes(path.read_bytes().replace(b"cls.l1.w", b"cls.l0.w"))
        with pytest.raises(CheckpointError, match="duplicate tensor 'cls.l0.w'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        ("drop enc.ln.g", "missing tensor 'enc.ln.g'"),
        ("reshape head.w", r"tensor 'head.w' has shape \(24, 25\), expected \(24, 24\)"),
        ("add enc.b09.ln1.g", "unexpected tensor 'enc.b09.ln1.g'"),
    ], ids=["missing", "misshapen", "unexpected"])
    def test_backbone_layout_checked(self, tmp_path, edit, message):
        # TINY: d = 24 and 3k = 24 (head.w is [d, 3k]), 2 encoder blocks
        cfg = TINY
        store = init_pretrain_params(cfg, seed=5)
        arrays = {name: t.data for name, t in store.items()}
        action, name = edit.split()
        if action == "drop":
            del arrays[name]
        elif action == "reshape":
            arrays[name] = np.zeros((arrays[name].shape[0], arrays[name].shape[1] + 1))
        else:
            arrays[name] = np.ones(cfg.d)
        edited = ParamStore()
        for key, value in arrays.items():
            edited.add(key, value)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, edited, cfg, TrainConfig())
        with pytest.raises(CheckpointError, match=message):
            load_model_checkpoint(path)

    def test_classifier_tensors_load_as_they_are(self, tmp_path):
        store = init_pretrain_params(TINY, seed=5)
        store.add("cls.l0.w", np.ones((TINY.feature_dim, 3), dtype=np.float32))
        path = tmp_path / "classifier.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        loaded, _, _ = load_model_checkpoint(path)
        assert loaded.names() == store.names()
        assert np.array_equal(loaded["cls.l0.w"].data, store["cls.l0.w"].data)

    @pytest.mark.parametrize("config", ["tiny", "default"])
    def test_load_draws_nothing(self, tmp_path, monkeypatch, config):
        # the layout check reads names and shapes only: no generator is made
        # and no weight is drawn, even at the default config's 25.9M weights
        cfg = TINY if config == "tiny" else ModelConfig()
        store = init_pretrain_params(cfg, seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, cfg, TrainConfig())

        def refuse(*args, **kwargs):
            raise AssertionError("load_model_checkpoint drew weights")

        monkeypatch.setattr(tensor, "trunc_normal", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded, loaded_cfg, _ = load_model_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded.names() == store.names()

    def test_restores_into_equivalent_store(self, tmp_path):
        store = init_pretrain_params(TINY, seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        loaded, cfg, _ = load_model_checkpoint(path)
        assert cfg == TINY
        assert loaded.names() == store.names()
        for name, t in store.items():
            assert np.array_equal(loaded[name].data, t.data)

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        store = init_pretrain_params(TINY, seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, TINY, TrainConfig())
        before = path.read_bytes()
        # sorts last, so the header and every other tensor are written before
        # its float32 conversion raises
        store.add("zz", np.zeros(1))
        store["zz"].data = np.array(["not a number"])
        with pytest.raises(ValueError):
            save_checkpoint(path, store, TINY, TrainConfig())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
