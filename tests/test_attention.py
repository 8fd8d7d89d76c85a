"""Attention blocks: normalization invariants, symmetries, gradients, and the
multiply-accumulate scaling claims."""
import numpy as np
import pytest

from pcmae import tensor as T
from pcmae.attention import (attention_macs, decoder_forward, encoder_forward,
                             fit_mac_polynomial, init_block, init_decoder,
                             init_encoder, init_pos_embed,
                             multi_head_external_attention,
                             multi_head_self_attention, positional_embed,
                             stack_macs, transformer_block_forward)
from pcmae.config import BlockConfig, ModelConfig
from pcmae.gradcheck import check_param_gradients
from pcmae.selfcheck import TINY, randomize_params
from pcmae.tensor import ParamStore, Tensor

BLOCK = BlockConfig(d=8, heads=2, mlp_ratio=2, depth=1, s_mem=4)


def block_store(mode, seed=0, cfg=BLOCK, q_proj=True):
    store = ParamStore()
    init_block(store, "b", cfg, mode, np.random.default_rng(seed), np.float64,
               ea_query_projection=q_proj)
    randomize_params(store, seed + 50)
    return store


class TestPositionalEmbed:
    def test_zero_final_layer_gives_zero_tokens(self):
        store = ParamStore()
        init_pos_embed(store, "pos", 24, 8, np.random.default_rng(0), np.float64)
        store["pos.l1.w"].data[:] = 0.0
        store["pos.l1.b"].data[:] = 0.0
        out = positional_embed(np.random.default_rng(1).normal(size=(6, 3)), store,
                               "pos", 24, 8)
        assert out.shape == (6, 24)
        assert np.all(out.data == 0.0)

    def test_identical_centers_identical_rows(self):
        store = ParamStore()
        init_pos_embed(store, "pos", 24, 8, np.random.default_rng(2), np.float64)
        randomize_params(store, 3)
        centers = np.tile([0.3, -0.2, 0.9], (5, 1))
        out = positional_embed(centers, store, "pos", 24, 8).data
        assert np.array_equal(out, np.tile(out[0], (5, 1)))

    def test_default_width(self):
        store = ParamStore()
        cfg = ModelConfig()
        init_pos_embed(store, "pos", cfg.d, cfg.embed_hidden,
                       np.random.default_rng(4), np.float32)
        out = positional_embed(np.random.default_rng(5).normal(size=(26, 3)), store,
                               "pos", cfg.d, cfg.embed_hidden)
        assert out.shape == (26, 384)


class TestSelfAttention:
    def test_single_token_softmax_is_one(self):
        store = block_store("self", 6)
        x = np.random.default_rng(7).normal(size=(1, 8))
        out = multi_head_self_attention(Tensor(x), store, "b.attn", 2)
        # softmax over one key is exactly 1, so the result is v -> out chain
        v = x @ store["b.attn.v.w"].data
        want = v @ store["b.attn.out.w"].data + store["b.attn.out.b"].data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        store = block_store("self", 8)
        x = Tensor(np.random.default_rng(9).normal(size=(5, 8)))
        q = T.matmul(x, store["b.attn.q.w"]).reshape((5, 2, 4)).transpose((1, 0, 2))
        k = T.matmul(x, store["b.attn.k.w"]).reshape((5, 2, 4)).transpose((1, 0, 2))
        scores = T.matmul(q, k.transpose((0, 2, 1))) * (1.0 / 2.0)
        attn = T.softmax(scores, axis=-1)
        np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_gradient(self):
        store = block_store("self", 10)
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(3, 8))
        w = rng.normal(size=(3, 8))
        err = check_param_gradients(
            lambda: (multi_head_self_attention(Tensor(x0), store, "b.attn", 2)
                     * Tensor(w)).sum(),
            store, names=[n for n in store.names() if "attn" in n], min_grad=1e-8)
        assert err < 1e-4


class TestExternalAttention:
    def _attention_matrix(self, store, x):
        m = x.shape[0]
        q = T.matmul(Tensor(x), store["b.attn.q.w"]).reshape((m, 2, 4)).transpose((1, 0, 2))
        raw = T.matmul(q, store["b.attn.mk"].transpose((0, 2, 1)))
        attn = T.softmax(raw, axis=1)
        return (attn / attn.sum(axis=2, keepdims=True)).data

    def test_double_normalized_rows_sum_to_one(self):
        store = block_store("external", 12)
        for m in (1, 2, 9):
            x = np.random.default_rng(13 + m).normal(size=(m, 8))
            attn = self._attention_matrix(store, x)
            np.testing.assert_allclose(attn.sum(axis=2), 1.0, atol=1e-6)

    def test_single_token_row_is_uniform(self):
        store = block_store("external", 14)
        attn = self._attention_matrix(store, np.random.default_rng(15).normal(size=(1, 8)))
        np.testing.assert_allclose(attn, 1.0 / 4.0, atol=1e-12)

    def test_gradient(self):
        store = block_store("external", 16)
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(4, 8))
        w = rng.normal(size=(4, 8))
        err = check_param_gradients(
            lambda: (multi_head_external_attention(Tensor(x0), store, "b.attn", 2)
                     * Tensor(w)).sum(),
            store, names=[n for n in store.names() if "attn" in n], min_grad=1e-8)
        assert err < 1e-4

    def test_query_projection_switch(self):
        with_proj = ParamStore()
        init_block(with_proj, "b", BLOCK, "external", np.random.default_rng(18),
                   np.float64, ea_query_projection=True)
        without = ParamStore()
        init_block(without, "b", BLOCK, "external", np.random.default_rng(18),
                   np.float64, ea_query_projection=False)
        assert "b.attn.q.w" in with_proj
        assert "b.attn.q.w" not in without
        x = Tensor(np.random.default_rng(19).normal(size=(3, 8)))
        out = multi_head_external_attention(x, without, "b.attn", 2)
        assert out.shape == (3, 8)


class TestTransformerBlock:
    @pytest.mark.parametrize("mode", ["self", "external"])
    def test_zeroed_outputs_make_identity(self, mode):
        store = block_store(mode, 20)
        store["b.attn.out.w"].data[:] = 0.0
        store["b.attn.out.b"].data[:] = 0.0
        store["b.mlp.l1.w"].data[:] = 0.0
        store["b.mlp.l1.b"].data[:] = 0.0
        rng = np.random.default_rng(21)
        x = rng.normal(size=(5, 8))
        pos = rng.normal(size=(5, 8))
        out = transformer_block_forward(Tensor(x), Tensor(pos), mode, store, "b", BLOCK)
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("mode", ["self", "external"])
    def test_shape_preserved(self, mode):
        store = block_store(mode, 22)
        for m in (1, 4, 11):
            rng = np.random.default_rng(23 + m)
            out = transformer_block_forward(Tensor(rng.normal(size=(m, 8))),
                                            Tensor(rng.normal(size=(m, 8))),
                                            mode, store, "b", BLOCK)
            assert out.shape == (m, 8)

    @pytest.mark.parametrize("mode", ["self", "external"])
    def test_gradient(self, mode):
        store = block_store(mode, 24)
        rng = np.random.default_rng(25)
        x0 = rng.normal(size=(4, 8))
        pos0 = rng.normal(size=(4, 8))
        w = rng.normal(size=(4, 8))
        err = check_param_gradients(
            lambda: (transformer_block_forward(Tensor(x0), Tensor(pos0), mode,
                                               store, "b", BLOCK) * Tensor(w)).sum(),
            store, min_grad=1e-8)
        assert err < 1e-4


def full_stack_store(seed=0):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    init_encoder(store, TINY, rng, np.float64)
    init_decoder(store, TINY, rng, np.float64)
    randomize_params(store, seed + 1)
    return store


class TestEncoderDecoder:
    def test_encoder_permutation_equivariance(self):
        store = full_stack_store(26)
        rng = np.random.default_rng(27)
        tokens = rng.normal(size=(6, 24))
        centers = rng.normal(size=(6, 3))
        base = encoder_forward(Tensor(tokens), centers, store, TINY).data
        for _ in range(20):
            perm = rng.permutation(6)
            out = encoder_forward(Tensor(tokens[perm]), centers[perm], store, TINY).data
            assert np.abs(out - base[perm]).max() < 1e-5

    def test_encoder_rejects_empty(self):
        store = full_stack_store(28)
        with pytest.raises(ValueError, match="no visible tokens"):
            encoder_forward(Tensor(np.zeros((0, 24))), np.zeros((0, 3)), store, TINY)

    def test_decoder_returns_masked_rows_only(self):
        store = full_stack_store(29)
        rng = np.random.default_rng(30)
        encoded = Tensor(rng.normal(size=(5, 24)))
        out = decoder_forward(encoded, rng.normal(size=(5, 3)),
                              rng.normal(size=(3, 3)), store, TINY)
        assert out.shape == (3, 24)

    def test_decoder_rejects_empty_mask(self):
        store = full_stack_store(31)
        with pytest.raises(ValueError, match="nothing to reconstruct"):
            decoder_forward(Tensor(np.zeros((4, 24))), np.zeros((4, 3)),
                            np.zeros((0, 3)), store, TINY)

    def test_mask_tokens_identical_before_position(self):
        store = full_stack_store(32)
        dup = T.broadcast_to(store["dec.mask_token"].reshape((1, 24)), (7, 24))
        assert np.array_equal(dup.data, np.tile(store["dec.mask_token"].data, (7, 1)))

    def test_decoder_gradient(self):
        store = full_stack_store(33)
        rng = np.random.default_rng(34)
        enc0 = rng.normal(size=(3, 24))
        cv = rng.normal(size=(3, 3))
        cm = rng.normal(size=(2, 3))
        w = rng.normal(size=(2, 24))
        err = check_param_gradients(
            lambda: (decoder_forward(Tensor(enc0), cv, cm, store, TINY) * Tensor(w)).sum(),
            store, max_coords=250, rng=35, min_grad=1e-7)
        assert err < 1e-4


class TestMacAccounting:
    def test_external_has_no_quadratic_term(self):
        cfg = ModelConfig()
        ms = [16, 32, 64, 128]
        macs = [stack_macs("external", m, cfg.encoder_blocks(), True) for m in ms]
        c = fit_mac_polynomial(ms, macs)
        assert abs(c[2]) < 1e-9 * abs(c[1])

    def test_self_attention_quadratic_term_positive(self):
        cfg = ModelConfig()
        ms = [16, 32, 64, 128]
        macs = [stack_macs("self", m, cfg.decoder_blocks()) for m in ms]
        c = fit_mac_polynomial(ms, macs)
        assert c[2] > 0
        # exact coefficient: depth * 2d per block pair of m^2 terms
        assert abs(c[2] - cfg.dec_depth * 2 * cfg.d) / (cfg.dec_depth * 2 * cfg.d) < 1e-6

    def test_exact_counts_small_case(self):
        cfg = BlockConfig(d=8, heads=2, mlp_ratio=2, depth=1, s_mem=4)
        # self: 3*m*d^2 (qkv) + 2*m^2*d (scores+mix) + m*d^2 (out)
        assert attention_macs("self", 5, cfg) == 3 * 5 * 64 + 2 * 25 * 8 + 5 * 64
        # external: m*d^2 (q) + 2*m*S*d (scores+mix) + m*d^2 (out)
        assert attention_macs("external", 5, cfg) == 5 * 64 + 2 * 5 * 4 * 8 + 5 * 64
        assert attention_macs("external", 5, cfg, ea_query_projection=False) == \
            2 * 5 * 4 * 8 + 5 * 64

    def test_linear_growth_of_external(self):
        cfg = ModelConfig()
        m1 = stack_macs("external", 64, cfg.encoder_blocks(), True)
        m2 = stack_macs("external", 128, cfg.encoder_blocks(), True)
        assert m2 == 2 * m1
