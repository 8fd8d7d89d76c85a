"""Optimizer, schedule, augmentation, training loops, and protocols."""
import hashlib
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pcmae import optim, training
from pcmae import tensor as T
from pcmae.attention import encoder_forward
from pcmae.config import FinetuneProtocol, ModelConfig, TrainConfig
from pcmae.dataio import synth_shapes
from pcmae.geometry import PointCloud
from pcmae.optim import AdamWState, DivergenceError, adamw_step, cosine_lr
from pcmae.pipeline import (extract_global_feature, extract_global_feature_t,
                            init_pretrain_params, patch_descriptors)
from pcmae.selfcheck import TINY, randomize_params
from pcmae.tensor import ParamStore
from pcmae.tokenizer import gate_forward
from pcmae.training import (augment, evaluate_classifier, few_shot_episode,
                            finetune, pretrain_loop, run_few_shot)


def store_digest(store, prefixes=("gate.", "enc.", "dec.", "head.")):
    h = hashlib.sha256()
    for name, t in store.items():
        if name.startswith(prefixes):
            h.update(name.encode())
            h.update(t.data.tobytes())
    return h.hexdigest()


def adamw_reference(store, grads, state, lr, cfg):
    """The whole-array AdamW expression in each parameter's dtype: the oracle
    ``adamw_step`` must match byte for byte (its divergence check is not
    atomic)."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name in store.trainable_names():
        if name not in grads:
            continue
        p = store[name]
        g = grads[name].astype(p.data.dtype)
        if not np.isfinite(g).all():
            raise DivergenceError("divergence")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data, order="C")
            state.v[name] = np.zeros_like(p.data, order="C")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        update = m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * p.data
        p.data = p.data - lr * update
    return state


def adamw_reference_f64(store, grads, state, lr, cfg):
    """The same expression with float64 moments and arithmetic whatever the
    parameter's dtype, rounded back once per step: what ``adamw_step``
    computed before its state took the parameter's dtype. Kept as the drift
    oracle for float32 state."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name in store.trainable_names():
        if name not in grads:
            continue
        p = store[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data, dtype=np.float64)
            state.v[name] = np.zeros_like(p.data, dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        g64 = grads[name].astype(np.float64)
        m *= b1
        m += (1.0 - b1) * g64
        v *= b2
        v += (1.0 - b2) * g64 * g64
        m_hat = m / bc1
        v_hat = v / bc2
        update = m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * p.data.astype(np.float64)
        p.data = (p.data.astype(np.float64) - lr * update).astype(p.data.dtype)
    return state


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCosineLr:
    CFG = TrainConfig(lr_max=0.001, lr_min=1e-6)

    def test_start_is_lr_max(self):
        assert cosine_lr(0, 100, self.CFG) == pytest.approx(0.001, abs=1e-12)

    def test_end_is_lr_min(self):
        assert cosine_lr(100, 100, self.CFG) == pytest.approx(1e-6, abs=1e-12)

    def test_midpoint_is_mean(self):
        assert cosine_lr(50, 100, self.CFG) == pytest.approx((0.001 + 1e-6) / 2, abs=1e-12)


class TestAdamW:
    def test_single_step_hand_value(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        cfg = TrainConfig(weight_decay=0.0)
        adamw_step(store, {"w": np.array([1.0])}, AdamWState(), 0.1, cfg)
        assert store["w"].data[0] == pytest.approx(0.9, abs=1e-6)

    def test_pure_decay_step(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        cfg = TrainConfig(weight_decay=0.05)
        state = adamw_step(store, {"w": np.array([0.0])}, AdamWState(), 0.1, cfg)
        assert store["w"].data[0] == pytest.approx(0.995, abs=1e-12)
        assert np.all(state.m["w"] == 0.0)
        assert np.all(state.v["w"] == 0.0)

    def test_zero_grad_zero_decay_is_identity(self):
        store = ParamStore()
        rng = np.random.default_rng(0)
        store.add("w", rng.normal(size=(4, 4)).astype(np.float32))
        before = store["w"].data.copy()
        adamw_step(store, {"w": np.zeros((4, 4), dtype=np.float32)}, AdamWState(),
                   0.1, TrainConfig(weight_decay=0.0))
        assert np.array_equal(store["w"].data, before)

    def test_frozen_entries_untouched(self):
        store = ParamStore()
        store.add("frozen", np.ones(3), trainable=False)
        store.add("live", np.ones(3))
        adamw_step(store, {"frozen": np.ones(3), "live": np.ones(3)}, AdamWState(),
                   0.1, TrainConfig())
        assert np.array_equal(store["frozen"].data, np.ones(3))
        assert not np.array_equal(store["live"].data, np.ones(3))

    def test_nonfinite_gradient_raises(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        with pytest.raises(DivergenceError, match="divergence"):
            adamw_step(store, {"w": np.array([1.0, np.nan])}, AdamWState(), 0.1,
                       TrainConfig())

    def test_divergence_changes_nothing(self):
        # "a" comes first and would become 0.895 if the step were half-applied
        store = ParamStore()
        store.add("a", np.array([1.0]))
        store.add("b", np.array([1.0]))
        state = AdamWState()
        with pytest.raises(DivergenceError, match="^divergence: non-finite gradient in b$"):
            adamw_step(store, {"a": np.array([1.0]), "b": np.array([np.nan])}, state,
                       0.1, TrainConfig())
        assert store["a"].data[0] == 1.0 and store["b"].data[0] == 1.0
        assert state.t == 0 and state.m == {} and state.v == {}

    def test_divergence_after_a_step_keeps_moments(self):
        store = ParamStore()
        store.add("a", np.array([1.0, 2.0]))
        store.add("b", np.array([1.0, 2.0]))
        state = adamw_step(store, {"a": np.ones(2), "b": np.ones(2)}, AdamWState(),
                           0.1, TrainConfig())
        before = ({n: store[n].data.copy() for n in "ab"},
                  {n: state.m[n].copy() for n in "ab"}, {n: state.v[n].copy() for n in "ab"})
        with pytest.raises(DivergenceError, match="non-finite gradient in a"):
            adamw_step(store, {"a": np.array([np.inf, 0.0]), "b": np.ones(2)}, state,
                       0.1, TrainConfig())
        assert state.t == 1
        for n in "ab":
            assert same_bytes(store[n].data, before[0][n])
            assert same_bytes(state.m[n], before[1][n])
            assert same_bytes(state.v[n], before[2][n])

    def test_misshapen_gradient_changes_nothing(self):
        store = ParamStore()
        store.add("a", np.ones(3))
        store.add("b", np.ones((2, 3)))
        state = AdamWState()
        with pytest.raises(ValueError, match="parameter b"):
            adamw_step(store, {"a": np.ones(3), "b": np.ones(3)}, state, 0.1, TrainConfig())
        assert np.array_equal(store["a"].data, np.ones(3))
        assert state.t == 0 and state.m == {}

    def test_step_memory_is_o_block(self):
        # after the moments exist, a step allocates the new parameter and two
        # block-sized scratch buffers of the parameter's dtype, nothing else
        # of size (64 KiB of slack for views and Python objects)
        rng = np.random.default_rng(0)
        store = ParamStore()
        store.add("w", rng.normal(size=(1000, 1000)).astype(np.float32))
        grads = {"w": rng.normal(size=(1000, 1000)).astype(np.float32)}
        state = adamw_step(store, grads, AdamWState(), 1e-3, TrainConfig())
        tracemalloc.start()
        try:
            adamw_step(store, grads, state, 1e-3, TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000 * 4 + 2 * optim.BLOCK * 4 + 64 * 1024

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_moments_take_the_parameter_dtype(self, dtype):
        store = ParamStore()
        store.add("w", np.ones((3, 4), dtype))
        store.add("b", np.ones(5, np.float64))
        # "b" gets a float32 gradient, which is cast to its parameter's dtype
        grads = {"w": np.full((3, 4), 0.5, dtype), "b": np.full(5, 0.5, np.float32)}
        state = adamw_step(store, grads, AdamWState(), 1e-3, TrainConfig())
        assert state.m["w"].dtype == state.v["w"].dtype == dtype
        assert state.m["b"].dtype == state.v["b"].dtype == np.float64
        assert store["w"].data.dtype == dtype and store["b"].data.dtype == np.float64

    # measured drift over the 200 steps: 2 ulps at lr 1e-3, 12 at lr 5e-2
    @pytest.mark.parametrize("lr, ulps", [(1e-3, 4), (5e-2, 24)])
    def test_float32_state_drift_from_float64_state(self, lr, ulps):
        # float32 moments round where the float64 ones did not; over a fixed
        # gradient sequence whose magnitudes span 1e-12 to 1, parameters stay
        # within a few float32 ulps (of max(|theta|, 1)) of float64-state AdamW
        rng = np.random.default_rng(3)
        init = rng.normal(size=4096).astype(np.float32)
        mags = 10.0 ** rng.uniform(-12.0, 0.0, size=(200, init.size))
        signs = rng.choice([-1.0, 1.0], size=(200, init.size))
        cfg = TrainConfig(weight_decay=0.05)
        store, ref = ParamStore(), ParamStore()
        store.add("w", init.copy())
        ref.add("w", init.copy())
        state, ref_state = AdamWState(), AdamWState()
        for mag, sign in zip(mags, signs):
            g = (mag * sign).astype(np.float32)
            adamw_step(store, {"w": g}, state, lr, cfg)
            adamw_reference_f64(ref, {"w": g}, ref_state, lr, cfg)
            want = ref["w"].data
            unit = np.spacing(np.maximum(np.abs(want), np.float32(1.0)))
            drift = np.abs(store["w"].data.astype(np.float64) - want) / unit
            assert drift.max() <= ulps
        assert state.m["w"].dtype == np.float32
        assert np.abs(store["w"].data - init).max() > 1000 * ulps * np.spacing(np.float32(1))


def oracle_store(dtype, rng):
    """Entries covering the blocked walk: a small tensor, one longer than a
    block and not a multiple of it, a Fortran-ordered matrix, a frozen entry
    and a trainable one that never gets a gradient."""
    store = ParamStore()
    store.add("bias", rng.normal(size=(3, 5)).astype(dtype))
    store.add("big", rng.normal(size=2 * optim.BLOCK + 77).astype(dtype))
    store.add("fortran", np.asfortranarray(rng.normal(size=(37, 41)).astype(dtype)))
    store.add("frozen", rng.normal(size=4).astype(dtype), trainable=False)
    store.add("no_grad", rng.normal(size=6).astype(dtype))
    return store


def oracle_grads(store, rng):
    grads = {}
    for name in ("bias", "big", "fortran", "frozen"):
        data = store[name].data
        g = (rng.normal(size=data.shape) * rng.uniform(1e-4, 1.0)).astype(data.dtype)
        grads[name] = np.asfortranarray(g) if name == "fortran" else g
    return grads


class TestAdamWOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_bytes_match_reference(self, dtype, weight_decay):
        cfg = TrainConfig(weight_decay=weight_decay)
        store = oracle_store(dtype, np.random.default_rng(1))
        ref = oracle_store(dtype, np.random.default_rng(1))
        state, ref_state = AdamWState(), AdamWState()
        rng = np.random.default_rng(2)
        for lr in (1e-3, 3e-4, 1e-4, 5e-2):
            grads = oracle_grads(store, rng)
            held = {n: (store[n].data, store[n].data.copy()) for n in store.names()}
            adamw_step(store, grads, state, lr, cfg)
            adamw_reference(ref, grads, ref_state, lr, cfg)
            assert state.t == ref_state.t
            assert sorted(state.m) == sorted(ref_state.m) == ["bias", "big", "fortran"]
            for name in store.names():
                assert same_bytes(store[name].data, ref[name].data), name
                old, copy = held[name]
                assert same_bytes(old, copy), name   # the old array is never written
            for name in state.m:
                assert same_bytes(state.m[name], ref_state.m[name]), name
                assert same_bytes(state.v[name], ref_state.v[name]), name
                assert state.m[name].flags.c_contiguous


class TestAugment:
    def test_deterministic(self):
        cloud = PointCloud(np.random.default_rng(1).normal(size=(32, 3)))
        a = augment(cloud, seed=5)
        b = augment(cloud, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_scale_and_shift_bounds(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(64, 3))
        pts /= np.abs(np.linalg.norm(pts, axis=1)).max()
        cloud = PointCloud(pts)
        max_in = np.linalg.norm(pts, axis=1).max()
        for seed in range(50):
            out = augment(cloud, seed=seed)
            max_out = np.linalg.norm(out.points, axis=1).max()
            lo = (2 / 3) * max_in - 0.2 * np.sqrt(3)
            hi = 1.5 * max_in + 0.2 * np.sqrt(3)
            assert lo <= max_out <= hi

    def test_recoverable_transform(self):
        # scale and translation can be recovered exactly from the centroid shift
        cloud = PointCloud(np.random.default_rng(3).normal(size=(16, 3)))
        out = augment(cloud, seed=9)
        rng = np.random.default_rng(9)
        scale = rng.uniform(2 / 3, 3 / 2)
        shift = rng.uniform(-0.2, 0.2, size=3)
        np.testing.assert_allclose(out.points, cloud.points * scale + shift, atol=1e-12)

    def test_normals_carried_over(self):
        rng = np.random.default_rng(4)
        normals = rng.normal(size=(8, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(rng.normal(size=(8, 3)), normals)
        out = augment(cloud, seed=2)
        assert np.array_equal(out.normals, normals)


# perfbench's pretrain-tiny model (the acceptance suite's configuration)
BENCH_TINY = ModelConfig(n=256, g=16, k=16, r=0.6, k_n=16, d=96, heads=6, mlp_ratio=4,
                         enc_depth=4, dec_depth=2, s_mem=16, c_p=96, c_d=96, embed_hidden=96)


def tiny_dataset(per_class=2, seed=30):
    items, names = synth_shapes(["sphere", "cube"], per_class=per_class,
                                n_points=TINY.n, seed=seed)
    return items, names


class TestPretrainLoop:
    def test_single_epoch_step_count(self):
        items, _ = tiny_dataset(per_class=1)
        clouds = [c for c, _ in items]
        cfg = TrainConfig(epochs=1, batch_size=128, seed=0)
        store, curve = pretrain_loop(clouds, cfg, TINY)
        assert len(curve) == 1
        assert curve[0][0] == 1

    def test_loss_decreases_end_to_end(self):
        items, _ = synth_shapes(["sphere", "cube"], per_class=4, n_points=TINY.n, seed=31)
        clouds = [c for c, _ in items]
        cfg = TrainConfig(lr_max=5e-4, epochs=50, batch_size=8, seed=0)
        store, curve = pretrain_loop(clouds, cfg, TINY)
        assert curve[-1][1] < curve[0][1]

    def test_bit_identical_reruns(self):
        items, _ = tiny_dataset()
        clouds = [c for c, _ in items]
        cfg = TrainConfig(epochs=3, batch_size=2, seed=11)
        store_a, curve_a = pretrain_loop(clouds, cfg, TINY)
        store_b, curve_b = pretrain_loop(clouds, cfg, TINY)
        assert curve_a == curve_b
        assert store_digest(store_a) == store_digest(store_b)

    def test_artifacts_on_disk(self, tmp_path):
        items, _ = tiny_dataset(per_class=1)
        clouds = [c for c, _ in items]
        cfg = TrainConfig(epochs=2, batch_size=2, seed=0)
        pretrain_loop(clouds, cfg, TINY, out_dir=tmp_path)
        curve_file = tmp_path / "loss_curve.csv"
        assert curve_file.exists()
        lines = curve_file.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 3
        assert (tmp_path / "checkpoint_epoch0002.ckpt").exists()

    def test_returned_store_carries_no_gradients(self):
        clouds = [c for c, _ in tiny_dataset(per_class=1)[0]]
        store, _ = pretrain_loop(clouds, TrainConfig(epochs=1, batch_size=1, seed=0), TINY)
        assert all(t.grad is None for _, t in store.items())

    def test_divergence_names_epoch_and_step(self, monkeypatch):
        # two clouds, batch 1: the third cloud is epoch 2's first step, the
        # run's third
        clouds = [c for c, _ in tiny_dataset(per_class=1)[0]]
        monkeypatch.setattr(training, "pretrain_forward",
                            poisoned_forward(3, lambda loss, nan, store: loss * nan))
        with pytest.raises(DivergenceError,
                           match=r"^divergence: non-finite loss at epoch 2, step 3$"):
            pretrain_loop(clouds, TrainConfig(epochs=2, batch_size=1, seed=0), TINY)


    def test_gradient_divergence_names_epoch_and_step(self, monkeypatch):
        # a finite loss whose backward leaves NaN in the first parameter's
        # gradient at the run's third step
        clouds = [c for c, _ in tiny_dataset(per_class=1)[0]]
        monkeypatch.setattr(training, "pretrain_forward", poisoned_forward(
            3, lambda loss, nan, store: loss + poison(store[store.trainable_names()[0]])))
        first = init_pretrain_params(TINY, seed=0).trainable_names()[0]
        with (pytest.warns(RuntimeWarning),
              pytest.raises(DivergenceError, match=rf"^divergence: non-finite gradient in "
                                                   rf"{first} at epoch 2, step 3$")):
            pretrain_loop(clouds, TrainConfig(epochs=2, batch_size=1, seed=0), TINY)


def poisoned_forward(nth: int, spoil):
    """``training.pretrain_forward`` with the chunk that holds the run's
    ``nth`` cloud (counted from 1) spoiled: its per-cloud losses become
    ``spoil(loss, nan, store)``, where ``nan`` is NaN at that cloud and 1
    elsewhere."""
    real, seen = training.pretrain_forward, []

    def forward(clouds, cfg, store, seeds):
        out = real(clouds, cfg, store, seeds)
        first = len(seen)
        seen.extend(clouds)
        if first < nth <= len(seen):
            nan = np.ones(len(clouds), dtype=out.loss.data.dtype)
            nan[nth - 1 - first] = np.nan
            out.loss = spoil(out.loss, T.Tensor(nan), store)
        return out

    return forward


def poison(param):
    """A scalar that reads 0 but whose backward writes NaN into ``param``'s
    gradient: d sqrt(u)/du is infinite at u = 0, and inf * 0 is NaN."""
    return T.sqrt(param * 0.0).sum()


class TestLoopsMatchReference:
    """Whole loops with the blocked step give the reference's parameters."""

    def run_both(self, monkeypatch, run):
        digest = store_digest(run(), prefixes=("",))
        monkeypatch.setattr(training, "adamw_step", adamw_reference)
        return digest, store_digest(run(), prefixes=("",))

    def test_pretrain_loop(self, monkeypatch):
        clouds = [c for c, _ in tiny_dataset()[0]]
        cfg = TrainConfig(epochs=2, batch_size=2, seed=5, augment=True)
        new, ref = self.run_both(monkeypatch, lambda: pretrain_loop(clouds, cfg, TINY)[0])
        assert new == ref

    def test_global_finetune(self, monkeypatch):
        items, _ = tiny_dataset()
        backbone = init_pretrain_params(TINY, seed=8)
        protocol = FinetuneProtocol(scope="global", head="linear", num_classes=2)
        cfg = TrainConfig(epochs=2, batch_size=2, seed=0, augment=False)
        new, ref = self.run_both(
            monkeypatch, lambda: finetune(backbone, items, protocol, cfg, TINY)[0])
        assert new == ref


class TestFinetune:
    def test_local_scope_backbone_bit_identical(self):
        items, names = tiny_dataset(per_class=3)
        backbone = init_pretrain_params(TINY, seed=1)
        digest_before = store_digest(backbone)
        protocol = FinetuneProtocol(scope="local", head="linear", num_classes=2)
        cfg = TrainConfig(epochs=5, batch_size=4, seed=0, augment=False)
        tuned, _ = finetune(backbone, items, protocol, cfg, TINY)
        assert store_digest(backbone) == digest_before
        assert store_digest(tuned) == digest_before
        assert any(n.startswith("cls.") for n in tuned.names())

    def test_global_scope_moves_backbone(self):
        items, names = tiny_dataset(per_class=2)
        backbone = init_pretrain_params(TINY, seed=2)
        digest_before = store_digest(backbone, prefixes=("gate.", "enc."))
        protocol = FinetuneProtocol(scope="global", head="linear", num_classes=2)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0, augment=False)
        tuned, _ = finetune(backbone, items, protocol, cfg, TINY)
        assert store_digest(tuned, prefixes=("gate.", "enc.")) != digest_before
        assert all(t.grad is None for _, t in tuned.items())

    def test_divergence_names_epoch_and_step(self, monkeypatch):
        # four items, batch 2: the fourth loss is epoch 2's second step
        items, _ = tiny_dataset(per_class=2)
        backbone = init_pretrain_params(TINY, seed=2)
        protocol = FinetuneProtocol(scope="local", head="linear", num_classes=2)
        real, calls = training.cross_entropy, []

        def loss_fn(*args):
            calls.append(1)
            return real(*args) * (float("nan") if len(calls) == 4 else 1.0)

        monkeypatch.setattr(training, "cross_entropy", loss_fn)
        with pytest.raises(DivergenceError,
                           match=r"^divergence: non-finite loss at epoch 2, step 4$"):
            finetune(backbone, items, protocol,
                     TrainConfig(epochs=2, batch_size=2, seed=0, augment=False), TINY)

    def test_gradient_divergence_names_epoch_and_step(self, monkeypatch):
        # global scope, four items, batch 2: the fourth step's logits carry a
        # zero term that leaves NaN in the first parameter's gradient
        items, _ = tiny_dataset(per_class=2)
        backbone = init_pretrain_params(TINY, seed=2)
        protocol = FinetuneProtocol(scope="global", head="linear", num_classes=2)
        real, calls, poisoned = training.classifier_forward, [], []

        def forward(feats, store, *args, **kwargs):
            logits = real(feats, store, *args, **kwargs)
            calls.append(1)
            if len(calls) == 4:
                poisoned.append(store.trainable_names()[0])
                logits = logits + poison(store[poisoned[0]])
            return logits

        monkeypatch.setattr(training, "classifier_forward", forward)
        with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as err:
            finetune(backbone, items, protocol,
                     TrainConfig(epochs=2, batch_size=2, seed=0, augment=False), TINY)
        assert str(err.value) == (f"divergence: non-finite gradient in {poisoned[0]} "
                                  "at epoch 2, step 4")

    @pytest.mark.parametrize("count", [1, 32, 33, 67])
    def test_feature_chunks_equal_per_cloud_rows(self, count, monkeypatch):
        items, _ = tiny_dataset(per_class=(count + 1) // 2, seed=31)
        clouds = [c for c, _ in items[:count]]
        store = init_pretrain_params(TINY, seed=2)
        rows = np.stack([extract_global_feature(c, TINY, store).astype(np.float32)
                         for c in clouds])
        chunks = []
        real = training.extract_global_feature

        def spy(chunk, *args):
            chunks.append([id(c) for c in chunk])
            return real(chunk, *args)

        monkeypatch.setattr(training, "extract_global_feature", spy)
        assert same_bytes(training.extract_features(clouds, TINY, store), rows)
        ids = [id(c) for c in clouds]
        assert chunks == [ids[lo:lo + 32] for lo in range(0, count, 32)]

    def test_linear_head_parameter_count(self):
        items, names = tiny_dataset(per_class=1)
        backbone = init_pretrain_params(TINY, seed=3)
        protocol = FinetuneProtocol(scope="local", head="linear", num_classes=5)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0, augment=False)
        tuned, _ = finetune(backbone, items[:1] * 2, protocol, cfg, TINY)
        count = sum(tuned[n].data.size for n in tuned.names() if n.startswith("cls."))
        assert count == (2 * TINY.d + 1) * 5

    def test_nonlinear_head_trains(self):
        items, names = tiny_dataset(per_class=3)
        backbone = init_pretrain_params(TINY, seed=4)
        protocol = FinetuneProtocol(scope="local", head="nonlinear", num_classes=2)
        cfg = TrainConfig(epochs=10, batch_size=6, seed=0, augment=False)
        tuned, history = finetune(backbone, items, protocol, cfg, TINY)
        assert history[-1][1] < history[0][1] * 1.5   # sanity: finite, not exploding

    def test_synthetic_train_accuracy(self):
        # the wider tiny config: enough patches/width for clean separation
        canon = ModelConfig(n=256, g=16, k=16, r=0.6, d=96, heads=6, mlp_ratio=4,
                            enc_depth=4, dec_depth=2, s_mem=16, c_p=96, c_d=96,
                            embed_hidden=96)
        items, names = synth_shapes(["sphere", "cube", "cylinder", "torus"],
                                    per_class=6, n_points=canon.n, seed=32)
        backbone = init_pretrain_params(canon, seed=5)
        protocol = FinetuneProtocol(scope="local", head="linear", num_classes=4)
        cfg = TrainConfig(lr_max=1e-3, epochs=100, batch_size=12, seed=0, augment=False)
        tuned, _ = finetune(backbone, items, protocol, cfg, canon)
        acc = evaluate_classifier(tuned, canon, protocol, items)
        assert acc >= 0.95


def features_one_graph_per_cloud(clouds, cfg, store):
    """Global fine-tuning's features as built before one graph per minibatch:
    one graph per cloud outside ``T.per_cloud()``, GATE on the unstacked
    patches, and the [1, 2d] rows joined by ``T.concat``."""
    rows = []
    for cloud in clouds:
        patches, descriptors = patch_descriptors(cloud, cfg, 0)
        seq = gate_forward(patches, descriptors, store, cfg)
        encoded = encoder_forward(seq.tokens.reshape((1, cfg.g, -1)), seq.centers[None],
                                  store, cfg)
        feats = T.concat([encoded.max(axis=-2), encoded.mean(axis=-2)], axis=-1)
        rows.append(feats.reshape((1, -1)))
    return T.concat(rows, axis=0)


class TestGlobalFinetuneGraph:
    @pytest.mark.parametrize("head", ["linear", "nonlinear"])
    @pytest.mark.parametrize("config", ["selfcheck", "bench"])
    def test_one_graph_equals_graph_per_cloud(self, config, head):
        # one minibatch of 5 clouds: the loss and every backbone and head
        # gradient are the bytes of the graph-per-cloud construction
        cfg = TINY if config == "selfcheck" else BENCH_TINY
        items, _ = synth_shapes(["sphere", "cube", "torus"], per_class=2, n_points=cfg.n,
                                seed=33)
        clouds, labels = [c for c, _ in items[:5]], np.array([y for _, y in items[:5]])
        protocol = FinetuneProtocol(scope="global", head=head, num_classes=3)
        runs = []
        for features in (features_one_graph_per_cloud, extract_global_feature_t):
            store = init_pretrain_params(cfg, seed=9)
            store.draw(training.classifier_layout(cfg, protocol), np.random.default_rng(10))
            randomize_params(store, 11)
            logits = training.classifier_forward(features(clouds, cfg, store), store, protocol,
                                                 training=True, rng=np.random.default_rng(12))
            loss = training.cross_entropy(logits, labels, protocol.num_classes)
            loss.backward()
            runs.append((loss.data.tobytes(), {name: t.grad.tobytes()
                                               for name, t in store.items()
                                               if t.grad is not None}))
        ref, new = runs
        assert sorted(ref[1]) == [n for n in store.names()
                                  if n.startswith(("gate.", "enc.", "cls."))]
        assert new == ref


class TestEvaluate:
    def test_perfect_and_constant_predictors(self):
        items, names = tiny_dataset(per_class=2)
        backbone = init_pretrain_params(TINY, seed=6)
        protocol = FinetuneProtocol(scope="local", head="linear", num_classes=2)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0, augment=False)
        tuned, _ = finetune(backbone, items, protocol, cfg, TINY)
        # constant predictor: zero the head -> argmax always class 0
        for name in tuned.names():
            if name.startswith("cls."):
                tuned[name].data[:] = 0.0
        acc = evaluate_classifier(tuned, TINY, protocol, items)
        assert acc == pytest.approx(0.5)   # balanced two-class set

    def test_matches_confusion_matrix_tally(self):
        items, names = synth_shapes(["sphere", "cube"], per_class=10,
                                    n_points=TINY.n, seed=33)
        backbone = init_pretrain_params(TINY, seed=7)
        protocol = FinetuneProtocol(scope="local", head="linear", num_classes=2)
        cfg = TrainConfig(epochs=20, batch_size=8, seed=0, augment=False)
        tuned, _ = finetune(backbone, items, protocol, cfg, TINY)
        acc = evaluate_classifier(tuned, TINY, protocol, items)

        from pcmae.pipeline import extract_global_feature
        from pcmae.tensor import Tensor
        from pcmae.training import classifier_forward

        confusion = np.zeros((2, 2), dtype=int)
        for cloud, label in items:
            feats = Tensor(extract_global_feature(cloud, TINY, tuned)
                           .astype(np.float32)[None])
            pred = int(np.argmax(classifier_forward(feats, tuned, protocol).data))
            confusion[label, pred] += 1
        assert acc == pytest.approx(np.trace(confusion) / confusion.sum())


class TestFewShot:
    def _items(self):
        items, names = synth_shapes(["sphere", "cube", "cylinder", "torus", "cone"],
                                    per_class=31, n_points=TINY.n, seed=34)
        return items

    def test_episode_sizes(self):
        items = self._items()
        episode = few_shot_episode(items, n_way=5, m_shot=10, test_per_class=20, seed=0)
        assert len(episode.train) == 50
        assert len(episode.test) == 100

    def test_disjoint_splits(self):
        items = self._items()
        episode = few_shot_episode(items, 3, 5, test_per_class=20, seed=1)
        train_ids = {id(c) for c, _ in episode.train}
        test_ids = {id(c) for c, _ in episode.test}
        assert not (train_ids & test_ids)

    def test_deterministic_and_seed_sensitive(self):
        items = self._items()
        a = few_shot_episode(items, 3, 5, seed=7)
        b = few_shot_episode(items, 3, 5, seed=7)
        assert a.classes == b.classes
        assert [id(c) for c, _ in a.train] == [id(c) for c, _ in b.train]
        distinct = {tuple(few_shot_episode(items, 3, 5, seed=s).classes)
                    for s in range(50)}
        assert len(distinct) > 1

    def test_insufficient_samples_rejected(self):
        items, _ = synth_shapes(["sphere", "cube"], per_class=5, n_points=TINY.n, seed=35)
        with pytest.raises(ValueError, match="insufficient samples per class"):
            few_shot_episode(items, 2, 10, test_per_class=20, seed=0)

    @pytest.mark.parametrize("arg", ["n_way", "m_shot", "episodes", "test_per_class"])
    def test_counts_below_one_rejected(self, arg):
        # before any episode is drawn or any cloud featurized
        items = self._items()
        counts = {"n_way": 2, "m_shot": 3, "episodes": 3, "test_per_class": 20, arg: 0}
        message = rf"^{arg} must be >= 1, got 0$"
        with pytest.raises(ValueError, match=message):
            run_few_shot(init_pretrain_params(TINY, seed=8), items,
                         train_cfg=TrainConfig(epochs=1, batch_size=16, seed=0),
                         model_cfg=TINY, **counts)
        if arg != "episodes":
            del counts["episodes"]
            with pytest.raises(ValueError, match=message):
                few_shot_episode(items, seed=0, **counts)

    def test_local_scope_featurizes_the_union_once(self, monkeypatch):
        # every drawn cloud once, in item order, one featurizer call per
        # FEATURE_CHUNK of them
        items = self._items()
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0, augment=False)
        position = {id(c): i for i, (c, _) in enumerate(items)}
        drawn = set()
        for ep in range(3):
            episode = few_shot_episode(items, 2, 3, test_per_class=20, seed=cfg.seed + ep)
            drawn |= {position[id(c)] for c, _ in episode.train + episode.test}
        union = [id(items[i][0]) for i in sorted(drawn)]
        assert len(union) > training.FEATURE_CHUNK
        chunks = []
        real = training.extract_global_feature

        def spy(chunk, *args):
            chunks.append([id(c) for c in chunk])
            return real(chunk, *args)

        monkeypatch.setattr(training, "extract_global_feature", spy)
        run_few_shot(init_pretrain_params(TINY, seed=8), items, n_way=2, m_shot=3,
                     train_cfg=cfg, model_cfg=TINY, episodes=3, test_per_class=20)
        step = training.FEATURE_CHUNK
        assert chunks == [union[lo:lo + step] for lo in range(0, len(union), step)]

    def test_protocol_report_shape(self):
        items = self._items()
        backbone = init_pretrain_params(TINY, seed=8)
        cfg = TrainConfig(epochs=5, batch_size=16, seed=0, augment=False)
        accs, mean, std = run_few_shot(backbone, items, n_way=2, m_shot=3, train_cfg=cfg,
                                       model_cfg=TINY, episodes=3, test_per_class=20)
        assert len(accs) == 3
        assert mean == pytest.approx(float(np.mean(accs)))
        assert std == pytest.approx(float(np.std(accs)))


class TestPretrainChunkRule:
    def test_clouds_per_graph(self):
        # 1024 patch points: 4 clouds at bench TINY (g * k = 256), 1 at the
        # default config (g * k = 2048)
        assert training.pretrain_chunk(BENCH_TINY) == 4
        assert training.pretrain_chunk(ModelConfig()) == 1


def run_digest(store, curve):
    """SHA-256 of every parameter (name, then bytes) and the exact loss curve."""
    h = hashlib.sha256(store_digest(store, prefixes=("",)).encode())
    h.update(repr([(e, v.hex()) for e, v in curve]).encode())
    return h.hexdigest()


def file_digests(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(root.iterdir())}


class TestPinnedRuns:
    """Short runs of both training loops, pinned by SHA-256: parameters, loss
    curves and the files pretraining writes. The loops may change shape, not
    the generator's draw order or any byte they produce."""

    PRETRAIN = "af6eb3e350ca47d5304c2e7284f4a7b185554c560d47f313d7c5bf685b6cf1aa"
    CHUNKED = "5f3b747b14b977bcdb9e090f414d276233e22067186357c21f24b3543d4ca67e"
    PRETRAIN_FILES = {"checkpoint_epoch0002.ckpt": "4ab81083ac08fa5d",
                      "checkpoint_epoch0003.ckpt": "fc3afc68f3786561",
                      "loss_curve.csv": "f764454c1cfbe0c4"}
    DIVERGED_FILES = {"checkpoint_diverged.ckpt": "8272b9ba68bb3c98",
                      "loss_curve.csv": "b30904d3450cc917"}
    FINETUNE = {
        "local-linear": "725e9fd59ef757b23f2a31ff2805a4cd23c5dbc20623f4044278df2ac3ca481b",
        "local-nonlinear": "d94cc44a77a2a927a4c06095c53e52b952a070ad0f6775ed6d395100c88b1018",
        "global-linear": "91ff9acc4bab868f622e246b9b42f6b9921de14fc46583965474ddf3909fba00",
        "global-nonlinear": "6655472678e62ced329351ccdd566db667294b622a5c113b19b533a3fe70ac64",
    }

    # accuracies per episode, then mean and std, as float hex
    FEW_SHOT = {
        "local-linear": (["0x1.599999999999ap-1", "0x1.0000000000000p-2", "0x1.b333333333333p-2"],
                         "0x1.ccccccccccccdp-2", "0x1.652dca8fabcccp-3"),
        "local-nonlinear": (["0x1.7333333333333p-1", "0x1.999999999999ap-2",
                             "0x1.0000000000000p-1"],
                            "0x1.1555555555555p-1", "0x1.1659522622d37p-3"),
        "global-linear": (["0x1.c000000000000p-1", "0x1.ccccccccccccdp-3", "0x1.599999999999ap-1"],
                          "0x1.2eeeeeeeeeeefp-1", "0x1.1659522622d38p-2"),
    }

    def test_pretrain_loop(self, tmp_path):
        # 5 clouds in batches of 2 (the last batch holds one), a checkpoint
        # at epoch 2 and the final one at epoch 3
        clouds = [c for c, _ in tiny_dataset(per_class=3)[0]][:5]
        cfg = TrainConfig(lr_max=5e-4, epochs=3, batch_size=2, seed=21,
                          checkpoint_epochs=(2,))
        store, curve = pretrain_loop(clouds, cfg, TINY, out_dir=tmp_path)
        assert [e for e, _ in curve] == [1, 2, 3]
        assert run_digest(store, curve) == self.PRETRAIN
        assert file_digests(tmp_path) == self.PRETRAIN_FILES

    def test_pretrain_loop_in_chunks(self):
        # perfbench's pretrain-tiny model; each epoch's first batch of 9 spans
        # four full pretraining chunks and a partial one
        chunk = training.pretrain_chunk(BENCH_TINY)
        assert 2 * chunk < 9 and 9 % chunk
        items, _ = synth_shapes(["sphere", "cube"], per_class=6, n_points=BENCH_TINY.n,
                                seed=30)
        cfg = TrainConfig(lr_max=5e-4, epochs=2, batch_size=9, seed=5, checkpoint_epochs=())
        store, curve = pretrain_loop([c for c, _ in items][:11], cfg, BENCH_TINY)
        assert run_digest(store, curve) == self.CHUNKED

    def test_pretrain_loop_diverged_in_epoch_2(self, tmp_path, monkeypatch):
        # no checkpoint epoch was reached, so the weights as they stand
        # (after epoch 1's one step) are saved as the diverged checkpoint,
        # next to epoch 1's loss row; the third cloud's loss turns NaN
        clouds = [c for c, _ in tiny_dataset(per_class=1)[0]]
        monkeypatch.setattr(training, "pretrain_forward",
                            poisoned_forward(3, lambda loss, nan, store: loss * nan))
        with pytest.raises(DivergenceError, match=r"at epoch 2, step 2$"):
            pretrain_loop(clouds, TrainConfig(epochs=2, batch_size=2, seed=3), TINY,
                          out_dir=tmp_path)
        assert file_digests(tmp_path) == self.DIVERGED_FILES

    @pytest.mark.parametrize("head", ["linear", "nonlinear"])
    @pytest.mark.parametrize("scope", ["local", "global"])
    def test_finetune(self, scope, head):
        items = tiny_dataset(per_class=3)[0][:5]
        backbone = init_pretrain_params(TINY, seed=9)
        protocol = FinetuneProtocol(scope=scope, head=head, num_classes=2)
        cfg = TrainConfig(lr_max=5e-4, epochs=2, batch_size=2, seed=4, augment=False)
        tuned, history = finetune(backbone, items, protocol, cfg, TINY)
        assert [e for e, _ in history] == [1, 2]
        assert run_digest(tuned, history) == self.FINETUNE[f"{scope}-{head}"]

    @pytest.mark.parametrize("scope,head", [("local", "linear"), ("local", "nonlinear"),
                                            ("global", "linear")])
    def test_few_shot(self, scope, head):
        items, _ = synth_shapes(["sphere", "cube", "cylinder", "torus", "cone"],
                                per_class=31, n_points=TINY.n, seed=34)
        cfg = TrainConfig(epochs=5, batch_size=16, seed=0, augment=False)
        accs, mean, std = run_few_shot(init_pretrain_params(TINY, seed=8), items, n_way=2,
                                       m_shot=3, train_cfg=cfg, model_cfg=TINY,
                                       protocol_head=head, protocol_scope=scope,
                                       episodes=3, test_per_class=20)
        got = ([a.hex() for a in accs], mean.hex(), std.hex())
        assert got == self.FEW_SHOT[f"{scope}-{head}"]


def init_digest(store):
    """SHA-256 of every parameter's name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(f"{name} {t.data.dtype.str} {t.data.shape}".encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


class TestInitPins:
    """Seeded initial parameters, pinned by SHA-256: the layout may change
    shape, not the names, the shapes, the draw order or any drawn byte."""

    PRETRAIN = {
        ("tiny", "float32"): "49052f5c769e15215f153e1451b58065fa4553d36105a5131b6c9d61356227e8",
        ("tiny", "float64"): "400fff53ce5a8b87075551b7b1289351b76f5a16a99dac16ddb85e404dd3cab6",
        ("default", "float32"): "287a6c8e09823219499d7f52e73490dd2130d8686a3cc92c37eada494f1531e4",
        ("default", "float64"): "a0df282d20f111d50f496c0fdd820dab0702c5eb42def48f02050feb9b2ba778",
    }
    CLASSIFIER = {
        "linear": "be91ed98877bfe77cca390788b5620312934c200d436f0481b3c2d18b678318d",
        "nonlinear": "b2ffb45d80408e8746c91d4ddabbe32fd379cf8aa1aed33b680d267de34c8e47",
    }

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("config", ["tiny", "default"])
    def test_pretrain_params(self, config, dtype):
        cfg = TINY if config == "tiny" else ModelConfig()
        store = init_pretrain_params(cfg, 0, np.dtype(dtype).type)
        assert init_digest(store) == self.PRETRAIN[(config, dtype)]

    @pytest.mark.parametrize("head", ["linear", "nonlinear"])
    def test_backbone_and_classifier(self, head):
        # finetune draws the head into its copy of the backbone from its generator
        store = init_pretrain_params(TINY, seed=9)
        protocol = FinetuneProtocol(scope="local", head=head, num_classes=40)
        store.draw(training.classifier_layout(TINY, protocol), np.random.default_rng(4))
        assert init_digest(store) == self.CLASSIFIER[head]


@pytest.fixture
def bench_layers(monkeypatch):
    """``LAYERS`` of ``perfbench/bench.py``, imported from the file as it is."""
    here = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(here))      # bench imports its tracer
    spec = importlib.util.spec_from_file_location("perfbench_bench", here / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)   # its dataclasses look it up
    spec.loader.exec_module(bench)
    return bench.LAYERS


class TestBenchHooks:
    """The benchmark times layers by replacing ``owner.attr`` for each entry
    of its ``LAYERS``, so every name must exist and be looked up there at
    call time by the code it measures."""

    def test_every_hook_resolves(self, bench_layers):
        for layer, owner, attr, _ in bench_layers:
            assert callable(getattr(owner, attr, None)), layer

    def test_every_hook_sees_calls(self, bench_layers, monkeypatch, tmp_path):
        # each call also runs the layer's count function on the call's
        # arguments and result, as the traced run does, so a call shape the
        # count does not fit fails here instead of crashing a traced run
        calls = {layer: 0 for layer, _, _, _ in bench_layers}

        def counted(layer, fn, count):
            def wrapper(*args, **kwargs):
                calls[layer] += 1
                out = fn(*args, **kwargs)
                if count is not None:
                    value = count.fn(args, kwargs, out)
                    assert np.isfinite(value) and value >= 0, (layer, value)
                return out
            return wrapper

        for layer, owner, attr, count in bench_layers:
            monkeypatch.setattr(owner, attr, counted(layer, getattr(owner, attr), count))
        items = tiny_dataset(per_class=1)[0]
        backbone, _ = pretrain_loop([c for c, _ in items],
                                    TrainConfig(epochs=1, batch_size=2, seed=0), TINY,
                                    out_dir=tmp_path)
        protocol = FinetuneProtocol(scope="local", head="linear", num_classes=2)
        tuned, _ = finetune(backbone, items, protocol,
                            TrainConfig(epochs=1, batch_size=2, seed=0), TINY)
        evaluate_classifier(tuned, TINY, protocol, items)
        assert [layer for layer, n in calls.items() if n == 0] == []
