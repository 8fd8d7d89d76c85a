"""Autodiff primitives, parameter store, and the finite-difference harness."""
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_identical_to_composite(self, dtype):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(1.0, 3.0, size=(8, 16, 96)).astype(dtype))
        w = Tensor(trunc_normal(rng, (96, 64), dtype=dtype), requires_grad=True)
        b = Tensor(rng.normal(size=64).astype(dtype), requires_grad=True)
        gain = Tensor(rng.normal(size=96).astype(dtype), requires_grad=True)
        shift = Tensor(rng.normal(size=96).astype(dtype), requires_grad=True)
        pairs = [(T.affine(x, w, b), composite_affine(x, w, b))]
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
        with pytest.raises(ValueError, match="non-finite gradient"):
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
