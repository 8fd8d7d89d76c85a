"""Autodiff primitives, parameter store, and the finite-difference harness."""
import contextlib
import math
import re
import zlib

import numpy as np
import pytest

from pcmae import tensor as T
from pcmae.config import FinetuneProtocol, ModelConfig
from pcmae.dataio import synth_shapes
from pcmae.gradcheck import check_param_gradients, finite_difference_check
from pcmae.layers import (LAYER_NORM_EPS, cross_entropy, dropout, layer_norm,
                          layer_norm_layout, mlp_apply, mlp_layout)
from pcmae.pipeline import (extract_global_feature_t, init_pretrain_params,
                            pretrain_forward, pretrain_layout)
from pcmae.selfcheck import TINY
from pcmae.tensor import ParamStore, Tensor, trunc_normal
from pcmae.training import classifier_forward, classifier_layout
from test_training import BENCH_TINY


class TestMlp:
    def _store(self, widths, seed=0):
        store = ParamStore()
        store.draw(mlp_layout("m", widths), np.random.default_rng(seed), np.float64)
        return store

    def test_zero_parameters_give_zero_output(self):
        store = self._store((4, 8, 3))
        for _, t in store.items():
            t.data[:] = 0.0
        out = mlp_apply(Tensor(np.random.default_rng(1).normal(size=(5, 4))), store, "m")
        assert out.shape == (5, 3)
        assert np.all(out.data == 0.0)

    def test_identity_layer_passes_input_through(self):
        store = ParamStore()
        store.add("m.l0.w", np.eye(4))
        store.add("m.l0.b", np.zeros(4))
        x = np.random.default_rng(2).normal(size=(6, 4))
        out = mlp_apply(Tensor(x), store, "m")
        np.testing.assert_array_equal(out.data, x)

    def test_gradient_matches_finite_differences(self):
        store = self._store((5, 7, 2), seed=3)
        x0 = np.random.default_rng(4).normal(size=(4, 5))
        err = check_param_gradients(
            lambda: mlp_apply(Tensor(x0), store, "m").sum(), store)
        assert err < 1e-4

    def test_width_mismatch_rejected(self):
        store = self._store((4, 8, 3))
        with pytest.raises(ValueError, match="mlp dimension mismatch"):
            mlp_apply(Tensor(np.zeros((2, 5))), store, "m")


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = Tensor(np.full((3, 8), 2.5))
        out = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), LAYER_NORM_EPS)
        assert np.abs(out.data).max() < 1e-6

    def test_known_two_value_row(self):
        out = T.layer_norm(Tensor(np.array([[1.0, 3.0]])),
                           Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_normalizes_moments(self):
        rng = np.random.default_rng(5)
        out = T.layer_norm(Tensor(rng.normal(3.0, 2.0, size=(10, 32))),
                           Tensor(np.ones(32)), Tensor(np.zeros(32)), LAYER_NORM_EPS)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    def test_gradient(self):
        store = ParamStore()
        store.draw(layer_norm_layout("ln", 6), np.random.default_rng(0), np.float64)
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(4, 6))
        w = rng.normal(size=(4, 6))
        err = check_param_gradients(
            lambda: (layer_norm(Tensor(x0), store, "ln") * Tensor(w)).sum(), store)
        assert err < 1e-4

    def test_input_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        g = Tensor(np.ones(5))
        b = Tensor(np.zeros(5))
        w = rng.normal(size=(3, 5))
        err = finite_difference_check(
            lambda t: (T.layer_norm(t, g, b, LAYER_NORM_EPS) * Tensor(w)).sum(), x)
        assert err < 1e-4


def composite_affine(x, w, b):
    """The affine layer as matmul + add nodes (the unfused oracle)."""
    return T.matmul(x, w) + b


def composite_layer_norm(x, gain, bias, eps):
    """Layer norm as elementwise and reduction nodes (the unfused oracle)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / T.sqrt(var + eps)
    out = normed * gain
    return out if bias is None else out + bias


class TestFusedOps:
    def _store(self, shapes, seed):
        rng = np.random.default_rng(seed)
        store = ParamStore()
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape))
        return store

    def test_affine_gradient_3d(self):
        store = self._store({"x": (2, 3, 4), "w": (4, 5), "b": (5,), "r": (2, 3, 5)}, 20)
        store.set_trainable("r", False)
        err = check_param_gradients(
            lambda: (T.affine(store["x"], store["w"], store["b"]) * store["r"]).sum(), store)
        assert err < 1e-4

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_layer_norm_gradient_3d(self, with_bias):
        shapes = {"x": (2, 3, 6), "g": (6,), "r": (2, 3, 6)}
        if with_bias:
            shapes["b"] = (6,)
        store = self._store(shapes, 21)
        store.set_trainable("r", False)
        bias = store["b"] if with_bias else None
        err = check_param_gradients(
            lambda: (T.layer_norm(store["x"], store["g"], bias, 1e-5) * store["r"]).sum(),
            store)
        assert err < 1e-4

    # every N-D affine shape (x, w) the TINY benchmark config and the default
    # config run, and the test's own; the composite is numpy's batched matmul
    AFFINE_SHAPES = [((8, 16, 96), (96, 64)),
                     ((16, 16, 1), (1, 8)), ((16, 16, 8), (8, 1)),
                     ((16, 16, 3), (3, 96)), ((16, 16, 96), (96, 96)),
                     ((16, 16, 288), (288, 96)),
                     ((64, 32, 1), (1, 8)), ((64, 32, 8), (8, 1)),
                     ((64, 32, 3), (3, 128)), ((64, 32, 128), (128, 128)),
                     ((64, 32, 384), (384, 384))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_identical_to_composite(self, dtype):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(1.0, 3.0, size=(8, 16, 96)).astype(dtype))
        gain = Tensor(rng.normal(size=96).astype(dtype), requires_grad=True)
        shift = Tensor(rng.normal(size=96).astype(dtype), requires_grad=True)
        pairs = []
        for x_shape, w_shape in self.AFFINE_SHAPES:
            xa = Tensor(rng.normal(1.0, 3.0, size=x_shape).astype(dtype))
            w = Tensor(trunc_normal(rng, w_shape, dtype=dtype), requires_grad=True)
            b = Tensor(rng.normal(size=w_shape[1]).astype(dtype), requires_grad=True)
            pairs.append((T.affine(xa, w, b), composite_affine(xa, w, b)))
        for bias in (shift, None):
            pairs.append((T.layer_norm(x, gain, bias, 1e-5),
                          composite_layer_norm(x, gain, bias, 1e-5)))
        for fused, composite in pairs:
            assert fused.data.dtype == composite.data.dtype == dtype
            assert fused.data.tobytes() == composite.data.tobytes()

    def test_gradients_match_composite(self):
        rng = np.random.default_rng(23)
        data = {"x": rng.normal(size=(3, 5, 8)), "w": rng.normal(size=(8, 8)),
                "b": rng.normal(size=8), "g": rng.normal(size=8), "s": rng.normal(size=8)}
        r = rng.normal(size=(3, 5, 8))
        grads = []
        for lin, norm in ((T.affine, T.layer_norm), (composite_affine, composite_layer_norm)):
            t = {k: Tensor(v.copy(), requires_grad=True) for k, v in data.items()}
            h = norm(lin(t["x"], t["w"], t["b"]), t["g"], t["s"], 1e-5)
            (norm(h, t["g"], None, 1e-5) * Tensor(r)).sum().backward()
            grads.append({k: v.grad for k, v in t.items()})
        for k in data:
            np.testing.assert_allclose(grads[0][k], grads[1][k], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("first_add", [True, False])
    def test_first_gradient_write_does_not_alias(self, first_add):
        # add hands one array to both parents; a later write to one of them
        # must not show up in the other
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        loss = ((a + b) + a * 2.0) if first_add else (a * 2.0 + (a + b))
        loss.sum().backward()
        np.testing.assert_array_equal(a.grad, [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])


class TestPerCloud:
    """A graph built in ``T.per_cloud()`` over B clouds leaves every
    parameter the gradient of B one-cloud graphs backpropagated in order."""

    @staticmethod
    def _params(seed):
        rng = np.random.default_rng(seed)
        return {name: Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
                for name, shape in (("w", (5, 4)), ("b", (4,)), ("g", (4,)),
                                    ("m", (3, 4)), ("tok", (4,)))}

    @staticmethod
    def _losses(x, p, extra_reader):
        # w, b and m are each read twice per cloud; tok through broadcast_to
        lead = x.shape[:-2]
        h = T.gelu(T.affine(x, p["w"], p["b"]))
        h = h + T.affine(x * 0.5, p["w"], p["b"])
        h = T.layer_norm(h, p["g"], p["b"], 1e-5)
        h = T.concat([h, T.broadcast_to(p["tok"], (*lead, 2, 4))], axis=-2)
        h = T.matmul(T.matmul(h, p["m"], transpose_b=True), p["m"])
        loss = (h * h).sum(axis=(-2, -1))
        if extra_reader:        # a plain (non-slab) reader of a shared leaf
            loss = loss + (p["w"] * 0.0).sum()
        return loss

    @pytest.mark.parametrize("extra_reader", [False, True])
    def test_chunk_gradients_equal_one_cloud_graphs(self, extra_reader):
        x = np.random.default_rng(16).normal(size=(4, 6, 5)).astype(np.float32)
        chunk = self._params(17)
        with T.per_cloud():
            losses = self._losses(Tensor(x), chunk, extra_reader)
        assert losses.shape == (4,)
        (losses * 0.25).sum().backward()
        ones = self._params(17)
        for cloud in x:
            (self._losses(Tensor(cloud), ones, extra_reader) * 0.25).backward()
        for name in chunk:
            assert chunk[name].grad.tobytes() == ones[name].grad.tobytes(), name
            assert chunk[name]._slabs is None


def embed_hidden_widths(cfg):
    """(c_in, c_out) of every embedding-MLP hidden layer at ``cfg``: each
    affine ``<prefix>.l<i>`` that a layer norm ``<prefix>.n<i>`` follows."""
    shapes = {name: shape for name, shape, _ in pretrain_layout(cfg)}
    return sorted({shapes[f"{m[1]}.l{m[2]}.w"] for m in
                   (re.fullmatch(r"(.+)\.n(\d+)\.g", name) for name in shapes) if m})


def composite_embed_layer(x, w, b, gain, bias, eps):
    """An embedding MLP's hidden layer as three nodes (the unfused oracle)."""
    return T.gelu(T.layer_norm(T.affine(x, w, b), gain, bias, eps))


class TestAffineNormGelu:
    """``T.affine_norm_gelu`` against the ``affine`` -> ``layer_norm`` ->
    ``gelu`` composite, whose bytes it keeps."""

    CONFIGS = {"selfcheck": TINY, "bench": BENCH_TINY, "default": ModelConfig()}

    @staticmethod
    def _values(c_in, c_out, seed, dtype=np.float32, lead=(3, 5)):
        rng = np.random.default_rng(seed)
        vals = {"x": rng.normal(size=(*lead, c_in)), "w": rng.normal(0.0, 0.3, (c_in, c_out)),
                "b": rng.normal(0.0, 0.1, c_out), "g": rng.normal(1.0, 0.1, c_out),
                "s": rng.normal(0.0, 0.1, c_out), "r": rng.normal(size=(*lead, c_out))}
        return {k: v.astype(dtype) for k, v in vals.items()}

    @staticmethod
    def _run(layer, vals, bias, per_cloud):
        t = {k: Tensor(v.copy(), requires_grad=k != "r") for k, v in vals.items()}
        with T.per_cloud() if per_cloud else contextlib.nullcontext():
            out = layer(t["x"], t["w"], t["b"], t["g"], t["s"] if bias else None,
                        LAYER_NORM_EPS)
            (out * t["r"]).sum().backward()
        return out.data.tobytes(), {k: v.grad.tobytes() for k, v in t.items()
                                    if v.grad is not None}

    @pytest.mark.parametrize("per_cloud", [False, True])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("config", ["selfcheck", "bench", "default"])
    def test_bytes_equal_the_composite(self, config, bias, per_cloud):
        # the output and the gradients of x, w, b, the gain and the bias, at
        # each hidden width: points and positions (c_in 3), descriptors, fuse
        widths = embed_hidden_widths(self.CONFIGS[config])
        assert len(widths) == 3
        for i, (c_in, c_out) in enumerate(widths):
            vals = self._values(c_in, c_out, 40 + i)
            fused = self._run(T.affine_norm_gelu, vals, bias, per_cloud)
            composite = self._run(composite_embed_layer, vals, bias, per_cloud)
            assert sorted(fused[1]) == (["b", "g", "s", "w", "x"] if bias
                                        else ["b", "g", "w", "x"])
            assert fused == composite, (config, c_in, c_out)

    def test_frozen_inputs_compute_no_derivative(self, monkeypatch):
        # GELU's derivative is the only exp of the forward
        vals, real, calls = self._values(33, 96, 45), np.exp, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        args = [Tensor(vals[k]) for k in ("x", "w", "b", "g", "s")]
        frozen = T.affine_norm_gelu(*args, LAYER_NORM_EPS)
        frozen_gelu = T.gelu(Tensor(vals["x"]))
        assert calls == []
        assert frozen._backward is None and frozen_gelu._backward is None
        args[1] = Tensor(vals["w"], requires_grad=True)
        trained = T.affine_norm_gelu(*args, LAYER_NORM_EPS)
        assert len(calls) == 1
        assert trained.data.tobytes() == frozen.data.tobytes()

    @pytest.mark.parametrize("bias", [True, False])
    def test_gradient_against_finite_differences(self, bias):
        store = ParamStore()
        for name, v in self._values(4, 6, 46, np.float64, lead=(2, 3)).items():
            store.add(name, v)
        store.set_trainable("r", False)
        s = store["s"] if bias else None
        err = check_param_gradients(lambda: (T.affine_norm_gelu(
            store["x"], store["w"], store["b"], store["g"], s, LAYER_NORM_EPS)
            * store["r"]).sum(), store)
        assert err < 1e-4

    @pytest.mark.parametrize("per_cloud", [False, True])
    @pytest.mark.parametrize("config", ["selfcheck", "bench", "default"])
    def test_no_norm_bytes_equal_affine_gelu(self, config, per_cloud):
        # the output and the x, w and b gradients at each hidden width without
        # a norm: the transformer feed-forward d -> 4d and the saliency gates
        # c_p -> c_p/8 and 1 -> 8
        cfg = self.CONFIGS[config]
        widths = plain_hidden_widths(cfg)
        assert widths == sorted({(cfg.d, cfg.d * cfg.mlp_ratio), (cfg.c_p, cfg.c_p // 8), (1, 8)})
        for i, (c_in, c_out) in enumerate(widths):
            vals = self._values(c_in, c_out, 50 + i)
            fused = self._run(fused_plain_layer, vals, False, per_cloud)
            composite = self._run(composite_plain_layer, vals, False, per_cloud)
            assert sorted(fused[1]) == ["b", "w", "x"]
            assert fused == composite, (config, c_in, c_out)

    def test_no_norm_frozen_inputs_compute_no_derivative(self, monkeypatch):
        vals, real, calls = self._values(96, 384, 55), np.exp, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        args = [Tensor(vals[k]) for k in ("x", "w", "b")]
        frozen = T.affine_norm_gelu(*args, None, None, LAYER_NORM_EPS)
        assert calls == [] and frozen._backward is None
        args[0] = Tensor(vals["x"], requires_grad=True)
        trained = T.affine_norm_gelu(*args, None, None, LAYER_NORM_EPS)
        assert len(calls) == 1
        assert trained.data.tobytes() == frozen.data.tobytes()

    def test_no_norm_gradient_against_finite_differences(self):
        store = ParamStore()
        for name, v in self._values(4, 6, 56, np.float64, lead=(2, 3)).items():
            if name not in ("g", "s"):
                store.add(name, v)
        store.set_trainable("r", False)
        err = check_param_gradients(lambda: (T.affine_norm_gelu(
            store["x"], store["w"], store["b"], None, None, LAYER_NORM_EPS)
            * store["r"]).sum(), store)
        assert err < 1e-4


def plain_hidden_widths(cfg):
    """(c_in, c_out) of every MLP hidden layer at ``cfg`` without a norm: each
    affine ``<prefix>.l<i>`` that another layer follows and no layer norm
    ``<prefix>.n<i>``."""
    shapes = {name: shape for name, shape, _ in pretrain_layout(cfg)}
    return sorted({shapes[name] for name in shapes
                   if (m := re.fullmatch(r"(.+)\.l(\d+)\.w", name))
                   and f"{m[1]}.l{int(m[2]) + 1}.w" in shapes
                   and f"{m[1]}.n{m[2]}.g" not in shapes})


def composite_plain_layer(x, w, b, gain, bias, eps):
    """A hidden layer without a norm as two nodes (the unfused oracle)."""
    return T.gelu(T.affine(x, w, b))


def fused_plain_layer(x, w, b, gain, bias, eps):
    return T.affine_norm_gelu(x, w, b, None, None, eps)


class TestNoModelPathCallsGelu:
    """Every MLP hidden layer of the model is one ``T.affine_norm_gelu``
    node, so the standalone ``T.gelu`` is left to the tests."""

    def test_forwards_and_heads_run_without_gelu(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a model path called T.gelu")

        monkeypatch.setattr(T, "gelu", refuse)
        items, _ = synth_shapes(["sphere", "cube", "torus"], per_class=1, n_points=TINY.n,
                                seed=57)
        clouds = [c for c, _ in items]
        store = init_pretrain_params(TINY, seed=0)
        out = pretrain_forward(clouds, TINY, store, [1, 2, 3])
        out.loss.sum().backward()
        feats = extract_global_feature_t(clouds, TINY, store)
        for head in ("linear", "nonlinear"):
            protocol = FinetuneProtocol(scope="global", head=head, num_classes=3)
            cls = ParamStore()
            cls.draw(classifier_layout(TINY, protocol), np.random.default_rng(58))
            logits = classifier_forward(feats, cls, protocol, training=True,
                                        rng=np.random.default_rng(59))
            assert logits.shape == (3, 3)


class TestTapeHygiene:
    """A graph is freed as its backward runs: only leaves keep ``.grad``."""

    def test_add_parents_never_alias(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        ((a + b) * Tensor(np.arange(3.0))).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 2.0])

    def test_add_of_a_tensor_to_itself(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x + x
        z = Tensor(np.ones(3), requires_grad=True)
        (y * 3.0 + (y + z)).sum().backward()
        np.testing.assert_array_equal(x.grad, [8.0, 8.0, 8.0])
        np.testing.assert_array_equal(z.grad, [1.0, 1.0, 1.0])
        assert not np.shares_memory(x.grad, z.grad)

    def test_interior_nodes_are_freed_and_leaves_keep_grad(self):
        w = Tensor(np.full((2, 2), 0.5), requires_grad=True)
        x = Tensor(np.ones((3, 2)))
        h = T.gelu(x @ w)
        loss = (h * h).mean()
        loss.backward()
        for node in (h, loss):
            assert node.grad is None and node._parents == ()
        assert w.grad is not None and w.grad.shape == (2, 2)
        assert x.grad is None

    def test_second_backward_raises(self):
        w = Tensor(np.full(3, 2.0), requires_grad=True)
        loss = (w * w).sum()
        loss.backward()
        before = w.grad.copy()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, before)

    def test_new_graph_through_a_consumed_node_raises(self):
        w = Tensor(np.full(3, 2.0), requires_grad=True)
        h = w * 3.0
        h.sum().backward()
        w.zero_grad()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (h * h).sum().backward()
        assert w.grad is None


class TestPooling:
    def test_max_of_one_hot(self):
        x = np.zeros((2, 5))
        x[0, 3] = 7.0
        x[1, 1] = -2.0
        out = Tensor(x).max(axis=1)
        np.testing.assert_array_equal(out.data, [7.0, 0.0])

    def test_mean(self):
        out = Tensor(np.array([[1.0, 2.0, 3.0]])).mean(axis=1)
        assert out.data[0] == 2.0

    def test_max_gradient_routes_to_first_tie(self):
        x = Tensor(np.array([[1.0, 5.0, 5.0, 0.0]]), requires_grad=True)
        out = x.max(axis=1).sum()
        out.backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_max_gradient_away_from_ties(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        err = finite_difference_check(
            lambda t: (t.max(axis=1) * Tensor(np.arange(4.0))).sum(), x)
        assert err < 1e-4

    @pytest.mark.parametrize("shape, axis", [((6, 5, 7), 0), ((6, 5, 7), 1), ((6, 5, 7), -1),
                                             ((3, 4, 8, 5), 2), ((9,), 0)])
    def test_max_gradient_routes_to_np_argmax(self, shape, axis):
        # reduce_max finds the first index equal to the max; that must be
        # np.argmax's index on ties, on NaN slices (np.argmax takes their first
        # NaN, where the max is NaN) and on slices holding +-inf
        rng = np.random.default_rng(15)
        x = rng.integers(0, 3, size=shape).astype(np.float32)     # many ties
        flat = x.reshape(-1)
        flat[rng.choice(flat.size, size=max(1, flat.size // 7), replace=False)] = np.nan
        flat[rng.choice(flat.size, size=max(1, flat.size // 11), replace=False)] = np.inf
        flat[rng.choice(flat.size, size=max(1, flat.size // 11), replace=False)] = -np.inf
        t = Tensor(x, requires_grad=True)
        out = T.reduce_max(t, axis)
        assert out.data.tobytes() == x.max(axis=axis).tobytes()
        out.sum().backward()
        want = np.zeros_like(x)
        np.put_along_axis(want, np.expand_dims(np.argmax(x, axis=axis), axis), 1.0, axis)
        assert t.grad.tobytes() == want.tobytes()

    def test_max_gradient_on_all_nan_and_all_tied_slices(self):
        x = np.array([[np.nan, np.nan, np.nan], [2.0, 2.0, 2.0], [1.0, np.nan, 5.0],
                      [-np.inf, -np.inf, -np.inf]], dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        T.reduce_max(t, 1).sum().backward()
        np.testing.assert_array_equal(t.grad, [[1, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]])

    def test_empty_axis_rejected(self):
        for requires_grad in (False, True):
            with pytest.raises(ValueError):
                Tensor(np.zeros((2, 0)), requires_grad=requires_grad).max(axis=1)


class TestFrozenInputs:
    """``reduce_max`` and ``log_softmax`` skip their backward-only buffers
    (argmax, softmax) when no input requires a gradient: same output bytes
    as the trainable path, and no graph node."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 5, 7)).astype(np.float32)
        x[:, 2] = x[:, 4]                      # ties along axis 1
        return x

    @pytest.mark.parametrize("op", [
        lambda t: T.reduce_max(t, 1),
        lambda t: T.reduce_max(t, 2, keepdims=True),
        lambda t: T.log_softmax(t, axis=-1),
        lambda t: T.log_softmax(t, axis=1),
    ])
    def test_frozen_output_equals_trainable_and_records_nothing(self, op):
        x = self._inputs()
        frozen = op(Tensor(x))
        trained = op(Tensor(x.copy(), requires_grad=True))
        assert frozen.data.dtype == trained.data.dtype
        assert frozen.data.tobytes() == trained.data.tobytes()
        assert not frozen.requires_grad
        assert frozen._backward is None and frozen._parents == ()

    @pytest.mark.parametrize("name, op, frozen_calls, trainable_calls", [
        ("argmax", lambda t: T.reduce_max(t, 1), 0, 1),
        ("exp", lambda t: T.log_softmax(t, axis=-1), 1, 2),     # lse; softmax
    ])
    def test_frozen_path_skips_backward_only_work(self, monkeypatch, name, op,
                                                  frozen_calls, trainable_calls):
        x, real, calls = self._inputs(), getattr(np, name), []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
        op(Tensor(x))
        assert len(calls) == frozen_calls
        calls.clear()
        op(Tensor(x, requires_grad=True))
        assert len(calls) == trainable_calls

    def test_trainable_max_gradient_is_one_hot_at_first_argmax(self):
        x = self._inputs()
        t = Tensor(x, requires_grad=True)
        g = np.random.default_rng(13).normal(size=(6, 7)).astype(np.float32)
        (T.reduce_max(t, 1) * Tensor(g)).sum().backward()
        want = np.zeros_like(x)
        np.put_along_axis(want, np.argmax(x, axis=1)[:, None], g[:, None], 1)
        assert t.grad.tobytes() == want.tobytes()

    def test_trainable_log_softmax_gradient(self):
        x = self._inputs()
        t = Tensor(x, requires_grad=True)
        g = np.random.default_rng(14).normal(size=x.shape).astype(np.float32)
        out = T.log_softmax(t, axis=-1)
        (out * Tensor(g)).sum().backward()
        want = g - np.exp(out.data) * g.sum(axis=-1, keepdims=True)
        assert t.grad.tobytes() == want.tobytes()


class TestFiniteDifferenceHarness:
    def test_quadratic_is_nearly_exact(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = finite_difference_check(lambda t: (t * t).sum(), x)
        assert err < 1e-8

    def test_sigmoid_sum(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=12), requires_grad=True)
        err = finite_difference_check(lambda t: T.sigmoid(t).sum(), x)
        assert err < 1e-6

    def test_nonfinite_rejected(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        with (pytest.warns(RuntimeWarning),
              pytest.raises(ValueError, match="non-finite gradient")):
            finite_difference_check(lambda t: T.log(t).sum(), x)


class TestElementwiseGradients:
    @pytest.mark.parametrize("name,fn", [
        ("gelu", T.gelu),
        ("relu", T.relu),
        ("sigmoid", T.sigmoid),
        ("exp", T.exp),
        ("softmax", lambda t: T.softmax(t, axis=-1)),
        ("log_softmax", lambda t: T.log_softmax(t, axis=-1)),
    ])
    def test_against_finite_differences(self, name, fn):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = Tensor(rng.normal(size=(3, 7)) + 0.1, requires_grad=True)
        w = rng.normal(size=(3, 7))
        err = finite_difference_check(lambda t: (fn(t) * Tensor(w)).sum(), x)
        assert err < 1e-4

    def test_matmul_broadcast_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        out = T.matmul(x, w).sum()
        out.backward()
        err_x = finite_difference_check(
            lambda t: T.matmul(t, Tensor(w.data)).sum(), Tensor(x.data.copy(), True))
        err_w = finite_difference_check(
            lambda t: T.matmul(Tensor(x.data), t).sum(), Tensor(w.data.copy(), True))
        assert err_x < 1e-6 and err_w < 1e-6

    def test_gather_rows_and_concat(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])

        def f(t):
            picked = t[idx]
            joined = T.concat([picked, t[1:3]], axis=0)
            return (joined * joined).mean()

        assert finite_difference_check(f, x) < 1e-6

    def test_sorted_mean_matches_mean_and_is_permutation_exact(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 9, 4))
        a = T.sorted_mean(Tensor(x), axis=1)
        np.testing.assert_allclose(a.data, x.mean(axis=1), atol=1e-12)
        perm = rng.permutation(9)
        b = T.sorted_mean(Tensor(x[:, perm]), axis=1)
        assert np.array_equal(a.data, b.data)

    def test_dropout_modes(self):
        rng = np.random.default_rng(13)
        x = Tensor(np.ones((100, 10)))
        out_eval = dropout(x, 0.5, None, training=False)
        assert out_eval is x
        out_train = dropout(x, 0.5, rng, training=True)
        kept = out_train.data != 0.0
        assert 0.3 < kept.mean() < 0.7
        np.testing.assert_allclose(out_train.data[kept], 2.0)


def erf_ulps(x32: np.ndarray, got: np.ndarray) -> np.ndarray:
    """Distance of float32 results from float32(math.erf(x)), in units of the
    reference's last place."""
    want = np.array([math.erf(float(v)) for v in x32]).astype(np.float32)
    return np.abs(got.astype(np.float64) - want) / np.spacing(np.abs(want))


class TestErf:
    """``tensor._erf`` against ``math.erf``: within 8 float32 ulps and 5e-7 in
    float32, within 5e-8 in float64, odd bit for bit and bounded by 1."""

    GRID = np.concatenate([np.linspace(-8.0, 8.0, 160_001),
                           np.geomspace(1e-38, 8.0, 20_001),
                           -np.geomspace(1e-38, 8.0, 20_001)])

    def test_float64_accuracy(self):
        want = np.array([math.erf(v) for v in self.GRID])
        assert np.abs(T._erf(self.GRID) - want).max() <= 5e-8

    def test_float32_accuracy(self):
        x = self.GRID.astype(np.float32)
        got = T._erf(x)
        assert erf_ulps(x, got).max() <= 8
        want = np.array([math.erf(float(v)) for v in x])
        assert np.abs(got.astype(np.float64) - want).max() <= 5e-7

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_and_bounded(self, dtype):
        rng = np.random.default_rng(30)
        mags = 10.0 ** rng.uniform(-37, 37, 50_000)
        x = np.concatenate([self.GRID, mags, np.linspace(0, 12, 50_001)]).astype(dtype)
        pos, neg = T._erf(x), T._erf(-x)
        assert (-pos).tobytes() == neg.tobytes()
        assert np.all(np.abs(pos) <= 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)
        got = T._erf(x)
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert got[2] == 1.0 and got[3] == -1.0
        assert np.isnan(got[4])

    @pytest.mark.parametrize("n", [0, T.BLOCK - 1, T.BLOCK, T.BLOCK + 1, 2 * T.BLOCK + 77])
    def test_block_straddling_sizes(self, n):
        x = np.random.default_rng(n).normal(0.0, 2.0, n).astype(np.float32)
        got = T._erf(x)
        assert got.shape == (n,) and got.dtype == np.float32
        # a result does not depend on where its block starts
        if n:
            shifted = np.concatenate([T._erf(x[:1]), T._erf(x[1:])])
            assert shifted.tobytes() == got.tobytes()
            assert erf_ulps(x[::97], got[::97]).max() <= 8

    def test_shape_and_dtype_preserved(self):
        x = np.random.default_rng(31).normal(size=(3, 5, 7))
        for dtype in (np.float32, np.float64):
            got = T._erf(x.astype(dtype))
            assert got.shape == x.shape and got.dtype == dtype
            assert got.tobytes() == T._erf(x.astype(dtype).reshape(-1)).tobytes()
        zero_d = T._erf(np.float32(0.5))
        assert zero_d.shape == () and zero_d.dtype == np.float32
        assert T._erf(np.array(0.5)).dtype == np.float64
        empty = T._erf(np.zeros((0, 4), np.float32))
        assert empty.shape == (0, 4) and empty.dtype == np.float32


class TestGelu:
    def test_forward_matches_math_erf_in_float64(self):
        x = np.linspace(-10.0, 10.0, 40_001)
        want = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        got = T.gelu(Tensor(x)).data
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= 2.5e-8 * np.abs(x) + 1e-15)

    def test_blocks_match_the_whole_array_expression(self):
        # float32, across block boundaries: the forward is x * Phi with Phi
        # from one whole-array _erf, and the backward is g * (Phi + x * phi)
        rng = np.random.default_rng(32)
        x = rng.normal(0.0, 2.0, (2 * T.BLOCK + 77,)).astype(np.float32)
        w = rng.normal(size=x.shape).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        y = T.gelu(t)
        (y * Tensor(w)).sum().backward()
        cdf = T._erf(x * np.float32(1.0 / math.sqrt(2.0)))
        cdf += 1.0
        cdf *= 0.5
        assert y.data.dtype == np.float32 and y.data.tobytes() == (x * cdf).tobytes()
        pdf = np.float32(1.0 / math.sqrt(2.0 * math.pi)) * np.exp(np.float32(-0.5) * x * x)
        np.testing.assert_allclose(t.grad, w * (cdf + x * pdf), rtol=1e-6, atol=1e-7)

    def test_backward_multiplies_the_derivative_kept_by_the_forward(self):
        # bytes of g * (Phi + x * phi), phi(x) = exp(-x^2 / 2) / sqrt(2 pi)
        # in the derivative's op order, across block boundaries
        rng = np.random.default_rng(33)
        x = rng.normal(0.0, 2.0, (T.BLOCK + 5,)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        (T.gelu(t) * Tensor(g)).sum().backward()
        cdf = T._erf(x * np.float32(1.0 / math.sqrt(2.0)))
        cdf += 1.0
        cdf *= 0.5
        phi = np.exp(x * x * np.float32(-0.5)) * np.float32(1.0 / math.sqrt(2.0 * math.pi))
        assert t.grad.tobytes() == ((phi * x + cdf) * g).tobytes()


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = cross_entropy(Tensor(np.zeros((4, 8))), np.arange(4) % 8, 8)
        np.testing.assert_allclose(float(loss.data), np.log(8.0), atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        labels = np.array([0, 2, 1, 1, 0])
        err = finite_difference_check(lambda t: cross_entropy(t, labels, 3), x)
        assert err < 1e-6

    def test_label_smoothing_gradient(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        labels = np.array([1, 0, 4, 2])
        err = finite_difference_check(
            lambda t: cross_entropy(t, labels, 5, label_smoothing=0.1), x)
        assert err < 1e-6


class TestParamStore:
    def test_iteration_is_lexicographic(self):
        store = ParamStore()
        store.add("b.x", np.zeros(2))
        store.add("a.y", np.zeros(2))
        store.add("a.b.c", np.zeros(2))
        assert store.names() == ["a.b.c", "a.y", "b.x"]
        assert [n for n, _ in store.items()] == ["a.b.c", "a.y", "b.x"]

    def test_duplicate_names_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(1))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.zeros(1))

    def test_freeze_prefix(self):
        store = ParamStore()
        store.add("enc.w", np.zeros(2))
        store.add("head.w", np.zeros(2))
        store.freeze_prefix("enc.")
        assert store.trainable_names() == ["head.w"]

    def test_trunc_normal_bounds(self):
        rng = np.random.default_rng(16)
        sample = trunc_normal(rng, (10000,), std=0.02, dtype=np.float64)
        assert np.abs(sample).max() <= 0.04
        assert 0.015 < sample.std() < 0.025

    def test_forward_determinism(self):
        rng = np.random.default_rng(17)
        store = ParamStore()
        store.draw(mlp_layout("m", (4, 16, 4)), rng, np.float32)
        x = Tensor(rng.normal(size=(8, 4)).astype(np.float32))
        a = mlp_apply(x, store, "m").data
        b = mlp_apply(x, store, "m").data
        assert np.array_equal(a, b)
