"""Token embedding: shapes, gating ranges, permutation symmetries, gradients."""
import numpy as np
import pytest

from pcmae.config import ModelConfig
from pcmae.gradcheck import check_param_gradients
from pcmae.geometry import PatchSet, PointCloud, build_patches, estimate_normals, spfh_batch
from pcmae.selfcheck import TINY, randomize_params
from pcmae.tensor import ParamStore, Tensor
from pcmae import tensor as T
from pcmae.tokenizer import (adaptive_saliency, embed_descriptor, embed_patch_points,
                             gate_forward, gate_macs, init_gate, latent_tokens)

DEFAULT = ModelConfig()


def tiny_store(seed=0, dtype=np.float64, cfg=TINY):
    store = ParamStore()
    init_gate(store, cfg, np.random.default_rng(seed), dtype)
    return store


def randomized_store(seed=0, cfg=TINY):
    store = tiny_store(seed, np.float64, cfg)
    randomize_params(store, seed + 100)
    return store


class TestEmbeddings:
    def test_zero_final_layer_gives_zero_patch_tokens(self):
        store = tiny_store()
        store["gate.patch_embed.l1.w"].data[:] = 0.0
        store["gate.patch_embed.l1.b"].data[:] = 0.0
        out = embed_patch_points(np.random.default_rng(0).normal(size=(4, 8, 3)), store, TINY)
        assert out.shape == (4, 8, 16)
        assert np.all(out.data == 0.0)

    def test_point_permutation_permutes_rows(self):
        store = randomized_store(1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8, 3))
        base = embed_patch_points(x, store, TINY).data
        perm = rng.permutation(8)
        out = embed_patch_points(x[:, perm], store, TINY).data
        assert np.array_equal(out, base[:, perm])

    def test_default_shapes(self):
        store = ParamStore()
        init_gate(store, DEFAULT, np.random.default_rng(3), np.float32)
        x = np.random.default_rng(4).normal(size=(64, 32, 3)).astype(np.float32)
        assert embed_patch_points(x, store, DEFAULT).shape == (64, 32, 128)
        d = np.random.default_rng(5).random((64, 33)).astype(np.float32)
        assert embed_descriptor(d, store, DEFAULT).shape == (64, 128)

    def test_identical_descriptors_identical_rows(self):
        store = randomized_store(6)
        desc = np.tile(np.random.default_rng(7).random(33), (4, 1))
        out = embed_descriptor(desc, store, TINY).data
        assert np.array_equal(out, np.tile(out[0], (4, 1)))

    def test_descriptor_length_validated(self):
        store = tiny_store()
        with pytest.raises(ValueError, match="descriptor length"):
            embed_descriptor(np.zeros((4, 21)), store, TINY)


class TestAdaptiveSaliency:
    def test_zero_mlps_give_half_gates(self):
        store = tiny_store()
        for name in store.names():
            if name.startswith(("gate.ca", "gate.sa")):
                store[name].data[:] = 0.0
        x = Tensor(np.random.default_rng(8).normal(size=(4, 8, 16)))
        weights, salient = adaptive_saliency(x, store, TINY)
        np.testing.assert_allclose(weights.channel.data, 0.5, atol=1e-12)
        np.testing.assert_allclose(weights.spatial.data, 0.5, atol=1e-12)
        np.testing.assert_allclose(salient.data, 0.25 * x.data, atol=1e-12)

    def test_gates_in_open_interval(self):
        store = randomized_store(9)
        x = Tensor(np.random.default_rng(10).normal(0.0, 10.0, size=(4, 8, 16)))
        weights, _ = adaptive_saliency(x, store, TINY)
        for arr in (weights.channel.data, weights.spatial.data):
            assert (arr > 0.0).all() and (arr < 1.0).all()

    def test_gate_shapes(self):
        store = randomized_store(11)
        weights, salient = adaptive_saliency(
            Tensor(np.random.default_rng(12).normal(size=(4, 8, 16))), store, TINY)
        assert weights.channel.shape == (4, 1, 16)
        assert weights.spatial.shape == (4, 8, 1)
        assert salient.shape == (4, 8, 16)

    def test_saliency_gradient(self):
        store = randomized_store(13)
        x0 = np.random.default_rng(14).normal(size=(4, 8, 16))
        err = check_param_gradients(
            lambda: adaptive_saliency(Tensor(x0), store, TINY)[1].mean(),
            store, names=[n for n in store.names() if n.startswith(("gate.ca", "gate.sa"))],
            min_grad=1e-8)
        assert err < 1e-4


class TestLatentTokens:
    def test_zero_fusion_gives_zero_tokens(self):
        store = tiny_store()
        store["gate.fuse.l1.w"].data[:] = 0.0
        store["gate.fuse.l1.b"].data[:] = 0.0
        rng = np.random.default_rng(15)
        p_t = Tensor(rng.normal(size=(4, 8, 16)))
        d_t = Tensor(rng.normal(size=(4, 16)))
        seq = latent_tokens(p_t, p_t, d_t, rng.normal(size=(4, 3)), store, TINY)
        assert seq.tokens.shape == (4, 24)
        assert np.all(seq.tokens.data == 0.0)

    def test_default_token_width(self):
        store = ParamStore()
        init_gate(store, DEFAULT, np.random.default_rng(16), np.float32)
        rng = np.random.default_rng(17)
        p_t = Tensor(rng.normal(size=(64, 32, 128)).astype(np.float32))
        d_t = Tensor(rng.normal(size=(64, 128)).astype(np.float32))
        seq = latent_tokens(p_t, p_t, d_t, rng.normal(size=(64, 3)), store, DEFAULT)
        assert seq.tokens.shape == (64, 384)


def _patched_cloud(seed=18, cfg=TINY):
    rng = np.random.default_rng(seed)
    cloud = estimate_normals(PointCloud(rng.normal(size=(cfg.n, 3))), cfg.k_n)
    patches = build_patches(cloud, cfg.g, cfg.k, first_index=0)
    descs = spfh_batch(cloud, patches.center_indices, patches.neighbor_indices)
    return patches, descs


class TestGateForward:
    def test_point_permutation_invariance_exact(self):
        patches, descs = _patched_cloud()
        store = randomized_store(19)
        base = gate_forward(patches, descs, store, TINY).tokens.data
        rng = np.random.default_rng(20)
        for _ in range(50):
            perm = rng.permutation(TINY.k)
            shuffled = PatchSet(patches.center_indices, patches.centers,
                                patches.neighborhoods[:, perm],
                                patches.neighbor_indices[:, perm])
            out = gate_forward(shuffled, descs, store, TINY).tokens.data
            assert np.array_equal(out, base)

    def test_patch_order_equivariance(self):
        patches, descs = _patched_cloud(21)
        store = randomized_store(22)
        base = gate_forward(patches, descs, store, TINY).tokens.data
        rng = np.random.default_rng(23)
        for _ in range(10):
            perm = rng.permutation(TINY.g)
            shuffled = PatchSet(patches.center_indices[perm], patches.centers[perm],
                                patches.neighborhoods[perm], patches.neighbor_indices[perm])
            out = gate_forward(shuffled, descs[perm], store, TINY).tokens.data
            assert np.array_equal(out, base[perm])

    def test_whole_tokenizer_gradient(self):
        patches, descs = _patched_cloud(24)
        store = randomized_store(25)
        err = check_param_gradients(
            lambda: gate_forward(patches, descs, store, TINY).tokens.mean(),
            store, max_coords=300, rng=26, min_grad=1e-7)
        assert err < 1e-4


class TestGateMacs:
    def test_default_config_hand_count(self):
        # g*k = 2048 points; widths from the default config
        fuse = 2048 * (384 * 384 + 384 * 384)              # 603,979,776
        patch = 2048 * (3 * 128 + 128 * 128)               # 34,340,864
        desc = 64 * (33 * 128 + 128 * 128)                 # descriptors, per patch
        channel = 2 * 64 * (128 * 16 + 16 * 128)           # avg and max branches
        spatial = 2 * 2048 * (1 * 8 + 8 * 1)
        assert gate_macs(ModelConfig()) == fuse + patch + desc + channel + spatial
        assert gate_macs(ModelConfig()) == 640_229_376
        assert 603e6 < fuse < 605e6 and 34e6 < patch < 35e6

    def test_matches_the_affine_work_of_one_forward(self, monkeypatch):
        patches, descs = _patched_cloud(27)
        store = randomized_store(28)
        real, macs = T.affine, []

        def counted(x, w, b):
            out = real(x, w, b)
            macs.append(out.data.size * w.shape[0])         # rows * c_in * c_out
            return out

        monkeypatch.setattr(T, "affine", counted)
        gate_forward(patches, descs, store, TINY)
        assert sum(macs) == gate_macs(TINY)
