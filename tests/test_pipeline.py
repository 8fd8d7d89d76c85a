"""Masked-autoencoder pipeline: masking, reconstruction head, Chamfer loss
against a double-loop oracle, the full pretraining pass, its autodiff memory,
feature extraction."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from pcmae.config import ModelConfig
from pcmae.dataio import random_rotation, synth_shapes
from pcmae.gradcheck import check_param_gradients
from pcmae.geometry import PointCloud, build_patches, estimate_normals
from pcmae.pipeline import (chamfer_l2, chamfer_l2_t, extract_global_feature,
                            extract_global_feature_t, init_pretrain_params,
                            prepare_cloud, pretrain_forward, random_mask,
                            reconstruction_dump, reconstruction_head,
                            reconstruction_head_layout, stack_geometry)
from pcmae.selfcheck import TINY, chamfer_oracle, randomize_params
from pcmae import tensor as T
from pcmae.tensor import ParamStore, Tensor
from pcmae.training import copy_store, extract_features


def random_cloud(seed, n=64):
    return PointCloud(np.random.default_rng(seed).normal(size=(n, 3)))


class TestRandomMask:
    def test_default_partition_sizes(self):
        layout = random_mask(64, 0.6, seed=0)
        assert len(layout.masked_indices) == 38
        assert len(layout.visible_indices) == 26

    def test_two_patch_split(self):
        layout = random_mask(2, 0.5, seed=1)
        assert len(layout.masked_indices) == 1
        assert len(layout.visible_indices) == 1

    def test_cardinality_grid(self):
        for g in (4, 8, 16, 32, 64, 128, 256):
            for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                want = int(r * g)
                if want < 1 or g - want < 1:
                    continue
                layout = random_mask(g, r, seed=g + int(10 * r))
                assert len(layout.masked_indices) == want
                merged = np.concatenate([layout.masked_indices, layout.visible_indices])
                assert sorted(merged.tolist()) == list(range(g))

    def test_determinism_and_seed_sensitivity(self):
        a = random_mask(64, 0.6, seed=7)
        b = random_mask(64, 0.6, seed=7)
        assert np.array_equal(a.masked_indices, b.masked_indices)
        distinct = {tuple(random_mask(64, 0.6, seed=s).masked_indices) for s in range(100)}
        assert len(distinct) > 90

    def test_sorted_indices(self):
        layout = random_mask(32, 0.4, seed=3)
        assert np.all(np.diff(layout.masked_indices) > 0)
        assert np.all(np.diff(layout.visible_indices) > 0)

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ValueError):
            random_mask(4, 0.1, seed=0)   # floor(0.4) = 0 masked
        with pytest.raises(ValueError):
            random_mask(4, 1.0, seed=0)   # ratio must be strictly inside (0, 1)


class TestReconstructionHead:
    def test_zero_parameters_give_zero_patches(self):
        store = ParamStore()
        store.draw(reconstruction_head_layout(TINY), np.random.default_rng(0), np.float64)
        store["head.w"].data[:] = 0.0
        out = reconstruction_head(Tensor(np.random.default_rng(1).normal(size=(3, 24))),
                                  TINY.k, store)
        assert out.shape == (3, 8, 3)
        assert np.all(out.data == 0.0)

    def test_default_shapes(self):
        cfg = ModelConfig()
        store = ParamStore()
        store.draw(reconstruction_head_layout(cfg), np.random.default_rng(2), np.float32)
        assert store["head.w"].data.shape == (384, 96)
        out = reconstruction_head(
            Tensor(np.random.default_rng(3).normal(size=(38, 384)).astype(np.float32)),
            cfg.k, store)
        assert out.shape == (38, 32, 3)

    def test_gradient_through_chamfer(self):
        store = ParamStore()
        store.draw(reconstruction_head_layout(TINY), np.random.default_rng(4), np.float64)
        randomize_params(store, 5)
        rng = np.random.default_rng(6)
        td = rng.normal(size=(3, 24))
        gt = rng.normal(0.0, 0.4, size=(3, 8, 3))
        err = check_param_gradients(
            lambda: chamfer_l2_t(reconstruction_head(Tensor(td), TINY.k, store), gt),
            store)
        assert err < 1e-4


class TestChamfer:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(7).normal(size=(12, 3))
        assert chamfer_l2(pts, pts) == 0.0

    def test_hand_case(self):
        assert chamfer_l2([[0.0, 0, 0]], [[1.0, 0, 0]]) == pytest.approx(2.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = rng.normal(size=(10, 3))
            b = rng.normal(size=(10, 3))
            assert chamfer_l2(a, b) == pytest.approx(chamfer_oracle(a, b), abs=1e-6)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = rng.normal(size=(7, 3))
            b = rng.normal(size=(9, 3))
            assert chamfer_l2(a, b) == chamfer_l2(b, a)

    def test_batched_average(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 6, 3))
        b = rng.normal(size=(4, 5, 3))
        want = np.mean([chamfer_oracle(a[i], b[i]) for i in range(4)])
        assert chamfer_l2(a, b) == pytest.approx(want, abs=1e-6)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            chamfer_l2(np.zeros((0, 3)), np.zeros((3, 3)))

    def test_differentiable_version_matches_and_checks(self):
        rng = np.random.default_rng(11)
        pred = rng.normal(size=(3, 6, 3))
        gt = rng.normal(size=(3, 5, 3))
        t = Tensor(pred.copy(), requires_grad=True)
        loss = chamfer_l2_t(t, gt)
        assert float(loss.data) == pytest.approx(chamfer_l2(pred, gt), abs=1e-12)
        from pcmae.gradcheck import finite_difference_check

        err = finite_difference_check(lambda x: chamfer_l2_t(x, gt), t)
        assert err < 1e-6


class TestPretrainForward:
    def test_loss_finite_nonnegative(self):
        store = init_pretrain_params(TINY, seed=0)
        for seed in range(5):
            out = pretrain_forward(random_cloud(seed), TINY, store, seed=seed)
            assert np.isfinite(out.loss.data)
            assert float(out.loss.data) >= 0.0

    def test_shapes_and_mask(self):
        store = init_pretrain_params(TINY, seed=1)
        out = pretrain_forward(random_cloud(12), TINY, store, seed=3)
        masked = int(TINY.r * TINY.g)
        assert out.prediction.prediction.shape == (masked, TINY.k, 3)
        assert out.prediction.patches_gt.shape == (masked, TINY.k, 3)
        assert len(out.mask.masked_indices) == masked

    def test_perfect_prediction_gives_zero_loss(self):
        # single patch toy: force the head output to equal the gt patch
        cfg = ModelConfig(n=8, g=2, k=4, r=0.5, k_n=4, d=8, heads=2, mlp_ratio=1,
                          enc_depth=1, dec_depth=1, s_mem=2, c_p=4, c_d=4, embed_hidden=4)
        store = init_pretrain_params(cfg, seed=2)
        cloud = random_cloud(13, n=8)
        out = pretrain_forward(cloud, cfg, store, seed=5)
        gt = out.prediction.patches_gt.astype(np.float32)
        loss = chamfer_l2_t(Tensor(gt.copy()), gt)
        assert float(loss.data) == 0.0

    def test_deterministic(self):
        store = init_pretrain_params(TINY, seed=3)
        cloud = random_cloud(14)
        a = pretrain_forward(cloud, TINY, store, seed=8)
        b = pretrain_forward(cloud, TINY, store, seed=8)
        assert float(a.loss.data) == float(b.loss.data)
        assert np.array_equal(a.prediction.prediction, b.prediction.prediction)

    def test_descriptor_path_rotation_invariant(self):
        # the SPFH input to GATE must not change under rigid rotation
        items, _ = synth_shapes(["torus"], per_class=1, n_points=TINY.n, seed=6)
        cloud = items[0][0]
        cloud_n = estimate_normals(cloud, TINY.k_n)
        from pcmae.geometry import build_patches, spfh_batch

        patches = build_patches(cloud_n, TINY.g, TINY.k, first_index=0)
        base = spfh_batch(cloud_n, patches.center_indices, patches.neighbor_indices)
        rng = np.random.default_rng(15)
        q = random_rotation(rng)
        rotated = PointCloud(cloud_n.points @ q.T, cloud_n.normals @ q.T)
        got = spfh_batch(rotated, patches.center_indices, patches.neighbor_indices)
        assert np.abs(got - base).max() < 1e-5

    def test_end_to_end_gradient(self):
        cloud = estimate_normals(random_cloud(16), TINY.k_n)
        store = init_pretrain_params(TINY, seed=4, dtype=np.float64)
        randomize_params(store, 17)
        err = check_param_gradients(
            lambda: pretrain_forward(cloud, TINY, store, seed=9).loss,
            store, max_coords=250, rng=18, min_grad=1e-6)
        assert err < 1e-4


def reference_accumulate(self, g, fresh=False):
    """Copy on every first write, whoever made ``g``."""
    if not self.requires_grad:
        return
    g = T._unbroadcast(np.asarray(g, dtype=self.data.dtype), self.data.shape)
    if self.grad is None:
        self.grad = g.copy()
    else:
        self.grad += g


def reference_backward(self):
    """The whole graph kept alive: every node keeps its grad, closure and
    parents until the caller drops it."""
    topo, seen, stack = [], set(), [(self, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    self.grad = np.ones_like(self.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestTapeMemory:
    """One default-config forward + backward: freeing the graph as it goes
    and keeping fresh gradient arrays changes no gradient bit."""

    @pytest.fixture(scope="class")
    def default_run(self):
        cfg = ModelConfig()
        items, _ = synth_shapes(["torus", "cube"], per_class=1, n_points=cfg.n, seed=5)
        return cfg, init_pretrain_params(cfg, seed=0), [c for c, _ in items]

    @staticmethod
    def grads(cfg, store, cloud):
        store.zero_grads()
        pretrain_forward(cloud, cfg, store, seed=4).loss.backward()
        out = {n: t.grad for n, t in store.items() if t.grad is not None}
        store.zero_grads()
        return out

    def test_gradients_match_reference_bytes(self, default_run, monkeypatch):
        cfg, store, clouds = default_run
        new = self.grads(cfg, store, clouds[1])
        monkeypatch.setattr(Tensor, "_accumulate", reference_accumulate)
        monkeypatch.setattr(Tensor, "backward", reference_backward)
        ref = self.grads(cfg, store, clouds[1])
        assert sorted(new) == sorted(ref) == store.trainable_names()
        for name in ref:
            assert new[name].flags.c_contiguous
            assert new[name].dtype == ref[name].dtype
            assert new[name].tobytes() == ref[name].tobytes(), name

    def test_traced_peak(self, default_run):
        # parameter gradients alone are 99 MB; keeping every interior
        # gradient and first-write copy alive peaked at 203 MB
        cfg, store, clouds = default_run
        self.grads(cfg, store, clouds[0])       # first-call costs stay out
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pretrain_forward(clouds[1], cfg, store, seed=4).loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
            store.zero_grads()
        assert peak < 180 * 2**20, f"{peak / 2**20:.1f} MB"


class TestGlobalFeature:
    def test_length_default(self):
        cfg = ModelConfig()
        store = init_pretrain_params(cfg, seed=5)
        cloud = PointCloud(np.random.default_rng(19).normal(size=(1024, 3)))
        feat = extract_global_feature(cloud, cfg, store)
        assert feat.shape == (768,)

    def test_deterministic(self):
        store = init_pretrain_params(TINY, seed=6)
        cloud = random_cloud(20)
        a = extract_global_feature(cloud, TINY, store)
        b = extract_global_feature(cloud, TINY, store)
        assert np.array_equal(a, b)

    def test_batch_equals_per_cloud_calls(self):
        store = init_pretrain_params(TINY, seed=6)
        clouds = [random_cloud(40 + i) for i in range(5)]
        feats = extract_global_feature(clouds, TINY, store)
        assert feats.shape == (5, TINY.feature_dim)
        rows = [extract_global_feature(c, TINY, store) for c in clouds]
        assert rows[0].shape == (TINY.feature_dim,)
        assert feats.tobytes() == np.stack(rows).tobytes()

    def test_trainable_store_gives_frozen_bytes(self):
        store = init_pretrain_params(TINY, seed=6)
        frozen = copy_store(store)
        for n in frozen.names():
            frozen.set_trainable(n, False)
        clouds = [random_cloud(45 + i) for i in range(3)]
        want = extract_global_feature(clouds, TINY, frozen)
        graph = extract_global_feature_t(clouds, TINY, store)
        assert graph.requires_grad
        assert graph.data.tobytes() == want.tobytes()
        assert extract_global_feature(clouds, TINY, store).tobytes() == want.tobytes()
        assert all(t.requires_grad for _, t in store.items())

    def test_token_permutation_leaves_feature_unchanged(self):
        from pcmae.attention import encoder_forward
        from pcmae.tokenizer import gate_forward

        store = init_pretrain_params(TINY, seed=7, dtype=np.float64)
        randomize_params(store, 21)
        cloud = random_cloud(22)
        patches, descriptors = stack_geometry([cloud], TINY, [0])
        seq = gate_forward(patches, descriptors, store, TINY)
        enc = encoder_forward(seq.tokens, seq.centers, store, TINY)
        base = np.concatenate([enc.data.max(axis=-2), enc.data.mean(axis=-2)], axis=-1)
        rng = np.random.default_rng(23)
        for _ in range(10):
            perm = rng.permutation(TINY.g)
            enc_p = encoder_forward(Tensor(seq.tokens.data[:, perm]), seq.centers[:, perm],
                                    store, TINY)
            got = np.concatenate([enc_p.data.max(axis=-2), enc_p.data.mean(axis=-2)], axis=-1)
            assert np.abs(got - base).max() < 1e-5


class TestReconstructionDump:
    def test_three_point_sets(self):
        store = init_pretrain_params(TINY, seed=8)
        items, _ = synth_shapes(["sphere"], per_class=1, n_points=TINY.n, seed=24)
        cloud = items[0][0]
        inp, visible, predicted = reconstruction_dump(cloud, TINY, store, seed=25)
        assert inp.shape == (TINY.n, 3)
        vis_count = TINY.g - int(TINY.r * TINY.g)
        assert visible.shape == (vis_count * TINY.k, 3)
        assert predicted.shape == (int(TINY.r * TINY.g) * TINY.k, 3)
        # visible points are actual cloud points
        d = np.sqrt(((visible[:, None, :] - inp[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert d.max() < 1e-9

    def test_matches_rebuilt_patches(self):
        # oracle: rebuild the patches from the cloud and the seed's first
        # spawned child, the FPS seed of pretrain_forward
        store = init_pretrain_params(TINY, seed=8)
        items, _ = synth_shapes(["cube"], per_class=1, n_points=TINY.n, seed=26)
        cloud = items[0][0]
        got = reconstruction_dump(cloud, TINY, store, seed=27)
        out = pretrain_forward(cloud, TINY, store, seed=27)
        fps_seed, _ = np.random.SeedSequence(27).spawn(2)
        patches = build_patches(prepare_cloud(cloud, TINY), TINY.g, TINY.k, seed=fps_seed)
        vis = patches.neighborhoods[out.mask.visible_indices] \
            + patches.centers[out.mask.visible_indices][:, None, :]
        pred = out.prediction.prediction + patches.centers[out.mask.masked_indices][:, None, :]
        want = (cloud.points, vis.reshape(-1, 3), pred.reshape(-1, 3))
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """Frozen-backbone features and the gradients of one forward + backward,
    pinned by SHA-256. The row-blocked kNN and the frozen-path shortcuts
    (``reduce_max`` without its argmax, ``log_softmax`` without its softmax)
    change speed only, so they keep these bytes."""

    FEATURES = {
        "tiny": "82e1fd8b36c35f6c94fe15f71be321e263113083cbef20c147f6f1679dc70192",
        "default": "91db4854f16957ac6e1195a4dfb4100bf1f8ba74411a57f533bf925e35bc859c",
    }
    GRADIENTS = {
        "tiny": "32ba1e73e5ea3d46becc2efeebde920ac2004f40c85f4e47736e4fa60e13768b",
        "default": "65b6577430c5211e15db8d53d88dfb769e19b10dbbd308ce40a8c8cc9e71760a",
    }

    @pytest.mark.parametrize("name", ["tiny", "default"])
    def test_features_and_gradients(self, name):
        cfg = TINY if name == "tiny" else ModelConfig()
        store = init_pretrain_params(cfg, seed=0)
        items, _ = synth_shapes(["torus", "cube"], per_class=1, n_points=cfg.n, seed=5)
        clouds = [c for c, _ in items]
        frozen = copy_store(store)
        for n in frozen.names():
            frozen.set_trainable(n, False)
        feats = extract_features(clouds, cfg, frozen)
        assert feats.dtype == np.float32 and feats.shape == (2, cfg.feature_dim)
        assert _sha256([feats]) == self.FEATURES[name]
        # the trainable path computes the same features
        assert extract_features(clouds, cfg, store).tobytes() == feats.tobytes()
        pretrain_forward(items[1][0], cfg, store, seed=4).loss.backward()
        grads = [t.grad for _, t in store.items()]
        assert all(g is not None for g in grads)
        assert _sha256(grads) == self.GRADIENTS[name]


def _grad_digest(store) -> str:
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(name.encode())
        h.update(t.grad.tobytes())
    return h.hexdigest()


class TestPretrainChunk:
    """One ``pretrain_forward`` over a chunk of clouds against one call per
    cloud. Losses and the accumulated gradients, pinned by SHA-256, were
    recorded from the one-graph-per-cloud loop before pretraining built one
    graph per chunk."""

    LOSSES = {
        "tiny": ["0x1.359de40000000p-4", "0x1.d901180000000p-4", "0x1.f830b80000000p-4",
                 "0x1.6856780000000p-4"],
        "default": ["0x1.8d86500000000p-3", "0x1.7be2860000000p-3", "0x1.9000320000000p-3",
                    "0x1.95c8aa0000000p-3"],
    }
    GRADIENTS = {
        "tiny": "6ca95c70ad78cbe782b3ad8756b9976efe4d152de1fe4a0cd59c537b4c56cf62",
        "default": "1c094c5ac12eba9b46cc337353c42f4a5582568bad4b2c6869f481412136ce3d",
    }

    @pytest.mark.parametrize("name", ["tiny", "default"])
    def test_chunk_equals_one_cloud_calls_in_order(self, name):
        # as pretrain_loop weights a minibatch of four: each loss times 1/4
        cfg = TINY if name == "tiny" else ModelConfig()
        items, _ = synth_shapes(["sphere", "cube", "torus", "cylinder"], per_class=1,
                                n_points=cfg.n, seed=41)
        clouds = [c for c, _ in items]
        seeds = [100 + i for i in range(len(clouds))]
        store = init_pretrain_params(cfg, seed=0)
        out = pretrain_forward(clouds, cfg, store, seeds)
        assert out.loss.shape == (len(clouds),)
        chunk_losses = [v.hex() for v in out.loss.data.tolist()]
        (out.loss * (1.0 / len(clouds))).sum().backward()
        chunk_grads = {n: t.grad for n, t in store.items()}
        assert _grad_digest(store) == self.GRADIENTS[name]
        store.zero_grads()
        one_losses = []
        for cloud, seed in zip(clouds, seeds):
            one = pretrain_forward(cloud, cfg, store, seed)
            assert one.loss.shape == ()
            one_losses.append(float(one.loss.data).hex())
            (one.loss * (1.0 / len(clouds))).backward()
        assert chunk_losses == one_losses == self.LOSSES[name]
        for n, t in store.items():
            assert t.grad.tobytes() == chunk_grads[n].tobytes(), n

    def test_chunk_outputs_are_the_one_cloud_outputs(self):
        items, _ = synth_shapes(["sphere", "cube", "torus"], per_class=1,
                                n_points=TINY.n, seed=42)
        clouds = [c for c, _ in items]
        store = init_pretrain_params(TINY, seed=1)
        chunk = pretrain_forward(clouds, TINY, store, [7, 8, 9])
        for b, (cloud, seed) in enumerate(zip(clouds, [7, 8, 9])):
            one = pretrain_forward(cloud, TINY, store, seed)
            assert np.array_equal(chunk.mask.masked_indices[b], one.mask.masked_indices)
            assert np.array_equal(chunk.mask.visible_indices[b], one.mask.visible_indices)
            assert chunk.prediction.prediction[b].tobytes() == one.prediction.prediction.tobytes()
            assert chunk.prediction.patches_gt[b].tobytes() == one.prediction.patches_gt.tobytes()
            assert chunk.patches.neighborhoods[b].tobytes() == one.patches.neighborhoods.tobytes()
