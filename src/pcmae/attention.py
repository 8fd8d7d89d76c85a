"""Positional embedding, multi-head self/external attention, pre-norm
transformer blocks, the stacked encoder/decoder, and analytic
multiply-accumulate accounting for the two attention flavours.

External attention replaces pairwise token interaction with small learnable
key/value memories shared across samples; its cost is linear in the token
count. Attention rows are double-normalized: softmax over the token axis,
then l1 over the memory axis, so every token's row sums to 1.
"""
from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .config import BlockConfig, ModelConfig
from .layers import (affine, affine_layout, layer_norm, layer_norm_layout, linear,
                     linear_layout, mlp_apply, mlp_layout)
from .tensor import ParamStore, Tensor


def pos_embed_layout(prefix: str, d: int, hidden: int) -> list:
    return mlp_layout(prefix, (3, hidden, d), norm=True)


def positional_embed(centers: np.ndarray | Tensor, store: ParamStore, prefix: str) -> Tensor:
    """Shared 2-layer MLP mapping patch centers [..., m, 3] to positional tokens
    [..., m, d]."""
    if not isinstance(centers, Tensor):
        dtype = store[f"{prefix}.l0.w"].data.dtype
        centers = Tensor(np.ascontiguousarray(centers, dtype=dtype))
    return mlp_apply(centers, store, prefix)


def block_layout(prefix: str, cfg: BlockConfig, mode: str,
                 ea_query_projection: bool = True) -> list:
    d = cfg.d
    # external attention is invariant to constant token shifts (the token-axis
    # softmax cancels them), which makes a pre-attention LN bias dead weight
    layout = (layer_norm_layout(f"{prefix}.ln1", d, bias=(mode == "self"))
              + layer_norm_layout(f"{prefix}.ln2", d)
              + mlp_layout(f"{prefix}.mlp", (d, d * cfg.mlp_ratio, d))
              + affine_layout(f"{prefix}.attn.out", d, d))
    if mode == "self":
        for proj in "qkv":
            layout += linear_layout(f"{prefix}.attn.{proj}", d, d)
    elif mode == "external":
        if ea_query_projection:
            layout += linear_layout(f"{prefix}.attn.q", d, d)
        memory = (cfg.heads, cfg.s_mem, cfg.d_head)
        layout += [(f"{prefix}.attn.mk", memory, "normal"), (f"{prefix}.attn.mv", memory, "normal")]
    else:
        raise ValueError(f"unknown attention mode: {mode!r}")
    return layout


def _head_axes(lead: int) -> tuple:
    """Axes that swap the two axes after ``lead`` leading ones."""
    return tuple(range(lead)) + (lead + 1, lead, lead + 2)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """[..., m, d] -> [..., heads, m, d/heads]. Leading axes (a batch of
    clouds) pass through, so each cloud's heads are the 2-D path's heads."""
    *lead, m, d = x.shape
    x = x.reshape((*lead, m, heads, d // heads))
    return x.transpose(_head_axes(len(lead)))


def _merge_heads(x: Tensor) -> Tensor:
    """[..., heads, m, d_h] -> [..., m, heads * d_h], the inverse of ``_split_heads``."""
    *lead, h, m, dh = x.shape
    return x.transpose(_head_axes(len(lead))).reshape((*lead, m, h * dh))


def multi_head_self_attention(x: Tensor, store: ParamStore, prefix: str,
                              heads: int) -> Tensor:
    """Scaled dot-product attention over [..., m, d] tokens; leading axes
    (a chunk of clouds) attend separately."""
    d_head = x.shape[-1] // heads
    q = _split_heads(linear(x, store, f"{prefix}.q"), heads)
    k = _split_heads(linear(x, store, f"{prefix}.k"), heads)
    v = _split_heads(linear(x, store, f"{prefix}.v"), heads)
    scores = T.matmul(q, k, transpose_b=True) * (1.0 / math.sqrt(d_head))
    attn = T.softmax(scores, axis=-1)
    out = _merge_heads(T.matmul(attn, v))
    return affine(out, store, f"{prefix}.out")


def external_attention_weights(q_heads: Tensor, m_k: Tensor) -> Tensor:
    """Double-normalized weights [..., h, m, S] of query heads [..., h, m, d_h]
    against the key memory M_k [h, S, d_h].

    Raw scores Q M_k^T are softmax-normalized over the token axis (-2), then
    l1-normalized over the memory axis (-1), so every token's row sums to 1.
    The token softmax is the only step that mixes tokens, and it stays within
    one cloud: leading axes are independent clouds that share the memories.
    """
    raw = T.matmul(q_heads, m_k, transpose_b=True)
    attn = T.softmax(raw, axis=-2)
    return attn / attn.sum(axis=-1, keepdims=True)


def multi_head_external_attention(x: Tensor, store: ParamStore, prefix: str,
                                  heads: int) -> Tensor:
    """Attention of tokens [..., m, d] against learnable per-head memories
    M_k, M_v ([heads, S, d_h]); cost is linear in the token count."""
    q_name = f"{prefix}.q.w"
    if q_name in store:
        q = linear(x, store, f"{prefix}.q")
    else:
        q = x
    attn = external_attention_weights(_split_heads(q, heads), store[f"{prefix}.mk"])
    out = _merge_heads(T.matmul(attn, store[f"{prefix}.mv"]))
    return affine(out, store, f"{prefix}.out")


def transformer_block_forward(x: Tensor, pos: Tensor, mode: str,
                              store: ParamStore, prefix: str, cfg: BlockConfig) -> Tensor:
    """Pre-norm residual block; positional tokens are re-added to the
    attention input at every block."""
    h = layer_norm(x + pos, store, f"{prefix}.ln1")
    if mode == "self":
        attn = multi_head_self_attention(h, store, f"{prefix}.attn", cfg.heads)
    elif mode == "external":
        attn = multi_head_external_attention(h, store, f"{prefix}.attn", cfg.heads)
    else:
        raise ValueError(f"unknown attention mode: {mode!r}")
    x = x + attn
    x = x + mlp_apply(layer_norm(x, store, f"{prefix}.ln2"), store, f"{prefix}.mlp")
    return x


def encoder_layout(cfg: ModelConfig) -> list:
    layout = pos_embed_layout("enc.pos", cfg.d, cfg.embed_hidden)
    blocks = cfg.encoder_blocks()
    for i in range(blocks.depth):
        layout += block_layout(f"enc.b{i:02d}", blocks, "external",
                               ea_query_projection=cfg.ea_query_projection)
    return layout + layer_norm_layout("enc.ln", cfg.d)


def decoder_layout(cfg: ModelConfig) -> list:
    layout = pos_embed_layout("dec.pos", cfg.d, cfg.embed_hidden)
    layout.append(("dec.mask_token", (cfg.d,), "normal"))
    blocks = cfg.decoder_blocks()
    for i in range(blocks.depth):
        layout += block_layout(f"dec.b{i:02d}", blocks, "self")
    return layout + layer_norm_layout("dec.ln", cfg.d)


def encoder_forward(tokens: Tensor, centers: np.ndarray, store: ParamStore,
                    cfg: ModelConfig) -> Tensor:
    """External-attention encoder over (visible) tokens [..., m, d] with their
    centers [..., m, 3] -> [..., m, d].

    Leading axes hold independent clouds: only external attention's token
    softmax mixes tokens, and it stays within a cloud, so a [B, m, d] batch
    gives each cloud the bytes of its own [m, d] call while every affine runs
    on B*m rows at once.
    """
    if tokens.shape[-2] < 1:
        raise ValueError("mask ratio leaves no visible tokens")
    pos = positional_embed(centers, store, "enc.pos")
    blocks = cfg.encoder_blocks()
    x = tokens
    for i in range(blocks.depth):
        x = transformer_block_forward(x, pos, "external", store, f"enc.b{i:02d}", blocks)
    return layer_norm(x, store, "enc.ln")


def decoder_forward(encoded: Tensor, centers_visible: np.ndarray,
                    centers_masked: np.ndarray, store: ParamStore,
                    cfg: ModelConfig) -> Tensor:
    """Self-attention decoder: visible encodings [..., v, d] + duplicated
    mask token in, decoded tokens [..., m, d] at the masked positions out.
    Leading axes hold independent clouds, as in ``encoder_forward``."""
    centers_masked = np.asarray(centers_masked, dtype=np.float64)
    masked_count = centers_masked.shape[-2]
    if masked_count == 0:
        raise ValueError("nothing to reconstruct")
    *lead, n_vis, _ = encoded.shape
    mask_tokens = T.broadcast_to(store["dec.mask_token"], (*lead, masked_count, cfg.d))
    x = T.concat([encoded, mask_tokens], axis=-2)
    all_centers = np.concatenate([np.asarray(centers_visible, dtype=np.float64),
                                  centers_masked], axis=-2)
    pos = positional_embed(all_centers, store, "dec.pos")
    blocks = cfg.decoder_blocks()
    for i in range(blocks.depth):
        x = transformer_block_forward(x, pos, "self", store, f"dec.b{i:02d}", blocks)
    x = layer_norm(x, store, "dec.ln")
    return x[..., n_vis:, :]


# ---------------------------------------------------------------------------
# analytic multiply-accumulate accounting
# ---------------------------------------------------------------------------

def attention_macs(mode: str, m: int, cfg: BlockConfig,
                   ea_query_projection: bool = True) -> int:
    """Exact multiply-accumulate count of one attention layer on m tokens."""
    d, s = cfg.d, cfg.s_mem
    if mode == "self":
        proj = 3 * m * d * d            # q, k, v
        scores = m * m * d              # heads * m * m * d_head
        mix = m * m * d                 # attn @ v
        out = m * d * d
        return proj + scores + mix + out
    if mode == "external":
        proj = m * d * d if ea_query_projection else 0
        scores = m * s * d              # q @ m_k^T across heads
        mix = m * s * d                 # attn @ m_v
        out = m * d * d
        return proj + scores + mix + out
    raise ValueError(f"unknown attention mode: {mode!r}")


def block_macs(mode: str, m: int, cfg: BlockConfig,
               ea_query_projection: bool = True) -> int:
    """Attention + feed-forward MACs of one transformer block."""
    mlp = 2 * m * cfg.d * cfg.d * cfg.mlp_ratio
    return attention_macs(mode, m, cfg, ea_query_projection) + mlp


def stack_macs(mode: str, m: int, cfg: BlockConfig,
               ea_query_projection: bool = True) -> int:
    return cfg.depth * block_macs(mode, m, cfg, ea_query_projection)


def fit_mac_polynomial(token_counts, macs) -> np.ndarray:
    """Least-squares fit of MAC counts to c0 + c1*m + c2*m^2; returns (c0,c1,c2)."""
    ms = np.asarray(token_counts, dtype=np.float64)
    design = np.stack([np.ones_like(ms), ms, ms * ms], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(macs, dtype=np.float64), rcond=None)
    return coeffs
