"""Autodiff primitives, parameter store, and the finite-difference harness."""
import math

import numpy as np
import pytest

from pcmae import tensor as T
from pcmae.gradcheck import check_param_gradients, finite_difference_check
from pcmae.layers import (LAYER_NORM_EPS, cross_entropy, dropout, init_layer_norm,
                          init_mlp, layer_norm, mlp_apply, pooled_stats)
from pcmae.tensor import ParamStore, Tensor, trunc_normal


class TestMlp:
    def _store(self, widths, seed=0):
        store = ParamStore()
        init_mlp(store, "m", widths, np.random.default_rng(seed), np.float64)
        return store

    def test_zero_parameters_give_zero_output(self):
        store = self._store((4, 8, 3))
        for _, t in store.items():
            t.data[:] = 0.0
        out = mlp_apply(Tensor(np.random.default_rng(1).normal(size=(5, 4))),
                        store, "m", (4, 8, 3))
        assert out.shape == (5, 3)
        assert np.all(out.data == 0.0)

    def test_identity_layer_passes_input_through(self):
        store = ParamStore()
        store.add("m.l0.w", np.eye(4))
        store.add("m.l0.b", np.zeros(4))
        x = np.random.default_rng(2).normal(size=(6, 4))
        out = mlp_apply(Tensor(x), store, "m", (4, 4))
        np.testing.assert_array_equal(out.data, x)

    def test_gradient_matches_finite_differences(self):
        store = self._store((5, 7, 2), seed=3)
        x0 = np.random.default_rng(4).normal(size=(4, 5))
        err = check_param_gradients(
            lambda: mlp_apply(Tensor(x0), store, "m", (5, 7, 2)).sum(), store)
        assert err < 1e-4

    def test_width_mismatch_rejected(self):
        store = self._store((4, 8, 3))
        with pytest.raises(ValueError, match="mlp dimension mismatch"):
            mlp_apply(Tensor(np.zeros((2, 5))), store, "m", (4, 8, 3))


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
        init_layer_norm(store, "ln", 6, np.float64)
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
        out = pooled_stats(Tensor(x), 1, "max")
        np.testing.assert_array_equal(out.data, [7.0, 0.0])

    def test_mean(self):
        out = pooled_stats(Tensor(np.array([[1.0, 2.0, 3.0]])), 1, "mean")
        assert out.data[0] == 2.0

    def test_max_gradient_routes_to_first_tie(self):
        x = Tensor(np.array([[1.0, 5.0, 5.0, 0.0]]), requires_grad=True)
        out = pooled_stats(x, 1, "max").sum()
        out.backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_max_gradient_away_from_ties(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        err = finite_difference_check(
            lambda t: (pooled_stats(t, 1, "max") * Tensor(np.arange(4.0))).sum(), x)
        assert err < 1e-4

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            pooled_stats(Tensor(np.zeros((2, 0))), 1, "max")


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
        ("tanh", T.tanh),
        ("exp", T.exp),
        ("softmax", lambda t: T.softmax(t, axis=-1)),
        ("log_softmax", lambda t: T.log_softmax(t, axis=-1)),
    ])
    def test_against_finite_differences(self, name, fn):
        rng = np.random.default_rng(abs(hash(name)) % 2**31)
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

    def test_take_rows_and_concat(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])

        def f(t):
            picked = T.take_rows(t, idx)
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
        init_mlp(store, "m", (4, 16, 4), rng, np.float32)
        x = Tensor(rng.normal(size=(8, 4)).astype(np.float32))
        a = mlp_apply(x, store, "m", (4, 16, 4)).data
        b = mlp_apply(x, store, "m", (4, 16, 4)).data
        assert np.array_equal(a, b)
