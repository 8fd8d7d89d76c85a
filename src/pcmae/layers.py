"""Learnable building blocks: affine layers, MLP stacks, layer norm, pooling
and dropout, all expressed through the autodiff tensor ops and a ParamStore.

Parameter naming is hierarchical and dot-separated, e.g. ``gate.fuse.l0.w``.
Initialization: truncated normal (std 0.02) weights, zero biases, unit
layer-norm gains.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ParamStore, Tensor, trunc_normal

LAYER_NORM_EPS = 1e-5


def init_affine(store: ParamStore, name: str, n_in: int, n_out: int,
                rng: np.random.Generator, dtype=np.float32) -> None:
    store.add(f"{name}.w", trunc_normal(rng, (n_in, n_out), dtype=dtype))
    store.add(f"{name}.b", np.zeros(n_out, dtype=dtype))


def affine(x: Tensor, store: ParamStore, name: str) -> Tensor:
    w = store[f"{name}.w"]
    if x.shape[-1] != w.shape[0]:
        raise ValueError("mlp dimension mismatch")
    return T.affine(x, w, store[f"{name}.b"])


def init_linear(store: ParamStore, name: str, n_in: int, n_out: int,
                rng: np.random.Generator, dtype=np.float32) -> None:
    """Weight-only projection (attention q/k/v: a key/query bias is cancelled
    by the softmax, so none is allocated)."""
    store.add(f"{name}.w", trunc_normal(rng, (n_in, n_out), dtype=dtype))


def linear(x: Tensor, store: ParamStore, name: str) -> Tensor:
    w = store[f"{name}.w"]
    if x.shape[-1] != w.shape[0]:
        raise ValueError("mlp dimension mismatch")
    return T.matmul(x, w)


def init_mlp(store: ParamStore, prefix: str, widths, rng, dtype=np.float32) -> None:
    for i in range(len(widths) - 1):
        init_affine(store, f"{prefix}.l{i}", widths[i], widths[i + 1], rng, dtype)


def mlp_apply(x: Tensor, store: ParamStore, prefix: str, widths) -> Tensor:
    """Affine stack with GELU between layers and none after the last."""
    n_layers = len(widths) - 1
    for i in range(n_layers):
        x = affine(x, store, f"{prefix}.l{i}")
        if i < n_layers - 1:
            x = T.gelu(x)
    return x


def init_embed_mlp(store: ParamStore, prefix: str, widths, rng, dtype=np.float32) -> None:
    """Embedding MLP: affine -> layer norm -> GELU between layers.

    The hidden norms keep activations O(1) under the small-sigma weight init;
    without them stacked 0.02-scale affines attenuate tokens to noise level.
    """
    for i in range(len(widths) - 1):
        init_affine(store, f"{prefix}.l{i}", widths[i], widths[i + 1], rng, dtype)
        if i < len(widths) - 2:
            init_layer_norm(store, f"{prefix}.n{i}", widths[i + 1], dtype)


def embed_mlp_apply(x: Tensor, store: ParamStore, prefix: str, widths) -> Tensor:
    n_layers = len(widths) - 1
    for i in range(n_layers):
        x = affine(x, store, f"{prefix}.l{i}")
        if i < n_layers - 1:
            x = layer_norm(x, store, f"{prefix}.n{i}")
            x = T.gelu(x)
    return x


def init_layer_norm(store: ParamStore, name: str, c: int, dtype=np.float32,
                    bias: bool = True) -> None:
    store.add(f"{name}.g", np.ones(c, dtype=dtype))
    if bias:
        store.add(f"{name}.b", np.zeros(c, dtype=dtype))


def layer_norm(x: Tensor, store: ParamStore, name: str) -> Tensor:
    bias = store[f"{name}.b"] if f"{name}.b" in store else None
    return T.layer_norm(x, store[f"{name}.g"], bias, LAYER_NORM_EPS)


def pooled_stats(x: Tensor, axis: int, mode: str) -> Tensor:
    """Reduce along ``axis``; max routes its gradient to the lowest-index tie."""
    if x.shape[axis] == 0:
        raise ValueError("cannot pool over an empty axis")
    if mode == "max":
        return x.max(axis=axis)
    if mode == "mean":
        return x.mean(axis=axis)
    raise ValueError(f"unknown pooling mode: {mode!r}")


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / np.asarray(keep, dtype=x.data.dtype)
    return x * Tensor(mask)


def cross_entropy(logits: Tensor, labels: np.ndarray, num_classes: int,
                  label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy of [B, C] logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    onehot = np.zeros((labels.size, num_classes), dtype=logits.data.dtype)
    onehot[np.arange(labels.size), labels] = 1.0
    if label_smoothing > 0.0:
        onehot = onehot * (1.0 - label_smoothing) + label_smoothing / num_classes
    logp = T.log_softmax(logits, axis=-1)
    return -(logp * Tensor(onehot)).sum() / float(labels.size)
