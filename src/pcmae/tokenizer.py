"""Token embedding for point patches: per-point patch features, SPFH
descriptor features, channel/spatial saliency gating, and max-pool fusion
into one latent token per patch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .geometry import PatchSet
from .layers import mlp_apply, mlp_layout
from .tensor import ParamStore, Tensor


@dataclass
class SaliencyWeights:
    """Sigmoid gates: channel [..., g, 1, c_p] and spatial [..., g, k, 1],
    entries in (0,1)."""

    channel: Tensor
    spatial: Tensor


@dataclass
class TokenSequence:
    """One latent token per patch plus the patch centers for positional use.
    Leading axes, when present, hold a chunk of clouds."""

    tokens: Tensor          # [..., g, d]
    centers: np.ndarray     # [..., g, 3]


def _patch_widths(cfg: ModelConfig):
    return (3, cfg.embed_hidden, cfg.c_p)


def _desc_widths(cfg: ModelConfig):
    return (3 * cfg.bins, cfg.embed_hidden, cfg.c_d)


def _ca_widths(cfg: ModelConfig):
    return (cfg.c_p, max(1, cfg.c_p // 8), cfg.c_p)


_SA_WIDTHS = (1, 8, 1)


def _fuse_widths(cfg: ModelConfig):
    return (2 * cfg.c_p + cfg.c_d, cfg.d, cfg.d)


def gate_layout(cfg: ModelConfig) -> list:
    return (mlp_layout("gate.patch_embed", _patch_widths(cfg), norm=True)
            + mlp_layout("gate.desc_embed", _desc_widths(cfg), norm=True)
            + mlp_layout("gate.ca", _ca_widths(cfg))
            + mlp_layout("gate.sa", _SA_WIDTHS)
            + mlp_layout("gate.fuse", _fuse_widths(cfg), norm=True))


def embed_patch_points(patches: Tensor | np.ndarray, store: ParamStore) -> Tensor:
    """Shared per-point MLP over centered neighbourhoods [..., g, k, 3] ->
    [..., g, k, c_p]."""
    x = T.as_tensor(patches)
    return mlp_apply(x, store, "gate.patch_embed")


def embed_descriptor(descriptors: Tensor | np.ndarray, store: ParamStore,
                     cfg: ModelConfig) -> Tensor:
    """Shared MLP over per-center descriptors [..., g, 3*bins] -> [..., g, c_d]."""
    x = T.as_tensor(descriptors)
    if x.shape[-1] != 3 * cfg.bins:
        raise ValueError(f"descriptor length must be {3 * cfg.bins}")
    return mlp_apply(x, store, "gate.desc_embed")


def adaptive_saliency(p_t: Tensor, store: ParamStore) -> tuple[SaliencyWeights, Tensor]:
    """Channel + spatial sigmoid gates over patch tokens.

    The channel gate pools over the k point positions, the spatial gate over
    channels; each runs one shared MLP on both its avg- and max-pooled
    statistics and sums the two branches before the sigmoid. ``p_t`` is
    [..., g, k, c_p]; every pool stays within one patch.
    """
    *lead, k, c_p = p_t.shape

    # sorted_mean keeps the pooled statistic bit-identical under point
    # permutations, which the token contract requires exactly
    ca_avg = mlp_apply(T.sorted_mean(p_t, axis=-2), store, "gate.ca")
    ca_max = mlp_apply(p_t.max(axis=-2), store, "gate.ca")
    w_ca = T.sigmoid(ca_avg + ca_max).reshape((*lead, 1, c_p))

    sa_avg = mlp_apply(p_t.mean(axis=-1, keepdims=True), store, "gate.sa")
    sa_max = mlp_apply(p_t.max(axis=-1, keepdims=True), store, "gate.sa")
    w_sa = T.sigmoid(sa_avg + sa_max)

    salient = p_t * w_ca * w_sa
    return SaliencyWeights(w_ca, w_sa), salient


def latent_tokens(p_t: Tensor, s_t: Tensor, d_t: Tensor, centers: np.ndarray,
                  store: ParamStore) -> TokenSequence:
    """Fuse patch, salient and descriptor features into [..., g, d] tokens.

    The per-center descriptor row is broadcast along the k axis before
    concatenation; a shared per-point MLP maps to width d and a max-pool over
    the k axis aggregates each patch.
    """
    *lead, k, _ = p_t.shape
    c_d = d_t.shape[-1]
    d_rep = T.broadcast_to(d_t.reshape((*lead, 1, c_d)), (*lead, k, c_d))
    fused = T.concat([p_t, s_t, d_rep], axis=-1)
    fused = mlp_apply(fused, store, "gate.fuse")
    tokens = fused.max(axis=-2)
    return TokenSequence(tokens, np.asarray(centers, dtype=np.float64))


def _mlp_macs(rows: int, widths) -> int:
    return rows * sum(a * b for a, b in zip(widths, widths[1:]))


def gate_macs(cfg: ModelConfig) -> int:
    """Exact multiply-accumulate count of the affine layers of one
    ``gate_forward`` (layer norms, activations and pools not counted): the
    patch and fuse MLPs run on all g*k points, the descriptor MLP and both
    branches of the channel gate on the g patches, both branches of the
    spatial gate on the g*k points. At the default config the fuse MLP is
    604M of 640M."""
    points = cfg.g * cfg.k
    return (_mlp_macs(points, _patch_widths(cfg))
            + _mlp_macs(cfg.g, _desc_widths(cfg))
            + 2 * _mlp_macs(cfg.g, _ca_widths(cfg))
            + 2 * _mlp_macs(points, _SA_WIDTHS)
            + _mlp_macs(points, _fuse_widths(cfg)))


def gate_forward(patches: PatchSet, descriptors: np.ndarray, store: ParamStore,
                 cfg: ModelConfig) -> TokenSequence:
    """Full tokenizer: centered patches + descriptors -> latent token sequence.
    The patch arrays and descriptors may carry leading cloud axes
    (neighborhoods [..., g, k, 3], descriptors [..., g, 3*bins])."""
    dtype = store["gate.fuse.l0.w"].data.dtype
    p_in = Tensor(np.ascontiguousarray(patches.neighborhoods, dtype=dtype))
    d_in = Tensor(np.ascontiguousarray(descriptors, dtype=dtype))
    p_t = embed_patch_points(p_in, store)
    d_t = embed_descriptor(d_in, store, cfg)
    _, s_t = adaptive_saliency(p_t, store)
    return latent_tokens(p_t, s_t, d_t, patches.centers, store)
