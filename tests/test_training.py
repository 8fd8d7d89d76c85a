"""Optimizer, schedule, augmentation, training loops, and protocols."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from pcmae import optim, training
from pcmae import tensor as T
from pcmae.config import FinetuneProtocol, ModelConfig, TrainConfig
from pcmae.dataio import synth_shapes
from pcmae.geometry import PointCloud
from pcmae.optim import AdamWState, DivergenceError, adamw_step, cosine_lr
from pcmae.pipeline import extract_global_feature, init_pretrain_params
from pcmae.selfcheck import TINY
from pcmae.tensor import ParamStore
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
        # two clouds, batch 1: the third forward is epoch 2's first step,
        # the run's third
        clouds = [c for c, _ in tiny_dataset(per_class=1)[0]]
        real, calls = training.pretrain_forward, []

        def forward(*args):
            out = real(*args)
            calls.append(1)
            if len(calls) == 3:
                out.loss = out.loss * float("nan")
            return out

        monkeypatch.setattr(training, "pretrain_forward", forward)
        with pytest.raises(DivergenceError,
                           match=r"^divergence: non-finite loss at epoch 2, step 3$"):
            pretrain_loop(clouds, TrainConfig(epochs=2, batch_size=1, seed=0), TINY)


    def test_gradient_divergence_names_epoch_and_step(self, monkeypatch):
        # a finite loss whose backward leaves NaN in the first parameter's
        # gradient at the run's third step
        clouds = [c for c, _ in tiny_dataset(per_class=1)[0]]
        real, calls = training.pretrain_forward, []

        def forward(cloud, cfg, store, seed):
            out = real(cloud, cfg, store, seed)
            calls.append(1)
            if len(calls) == 3:
                out.loss = out.loss + poison(store[store.trainable_names()[0]])
            return out

        monkeypatch.setattr(training, "pretrain_forward", forward)
        first = init_pretrain_params(TINY, seed=0).trainable_names()[0]
        with (pytest.warns(RuntimeWarning),
              pytest.raises(DivergenceError, match=rf"^divergence: non-finite gradient in "
                                                   rf"{first} at epoch 2, step 3$")):
            pretrain_loop(clouds, TrainConfig(epochs=2, batch_size=1, seed=0), TINY)


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

    def test_feature_cache_ignores_a_stale_entry_under_a_reused_id(self):
        (old, _), (new, _) = tiny_dataset(per_class=1)[0]
        store = init_pretrain_params(TINY, seed=2)
        # as if ``old`` had been freed and ``new`` had been given its id
        cache = {id(new): (old, extract_global_feature(old, TINY, store))}
        feats = training._features_matrix([(new, 0)], TINY, store, cache)
        want = extract_global_feature(new, TINY, store)
        assert same_bytes(feats[0], want.astype(np.float32))
        assert cache[id(new)][0] is new

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

    def test_protocol_report_shape(self):
        items = self._items()
        backbone = init_pretrain_params(TINY, seed=8)
        cfg = TrainConfig(epochs=5, batch_size=16, seed=0, augment=False)
        accs, mean, std = run_few_shot(backbone, items, n_way=2, m_shot=3, train_cfg=cfg,
                                       model_cfg=TINY, episodes=3, test_per_class=20)
        assert len(accs) == 3
        assert mean == pytest.approx(float(np.mean(accs)))
        assert std == pytest.approx(float(np.std(accs)))
