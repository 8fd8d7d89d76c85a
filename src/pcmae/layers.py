"""Learnable building blocks: affine layers, MLP stacks, layer norm, pooling
and dropout, all expressed through the autodiff tensor ops and a ParamStore.

Parameter naming is hierarchical and dot-separated, e.g. ``gate.fuse.l0.w``.
A model's parameters are declared as a layout: a list of ``(name, shape,
init)`` entries in draw order, where ``init`` is ``normal`` (truncated
normal, std 0.02: weights), ``zeros`` (biases) or ``ones`` (layer-norm
gains). The ``*_layout`` functions here and in the model modules only name
and shape; ``ParamStore.draw`` is the one place that draws a layout, entry
by entry from one generator, so reading the names and shapes draws nothing.
The forward helpers read a stack's depth from the store.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ParamStore, Tensor

LAYER_NORM_EPS = 1e-5


def affine_layout(name: str, n_in: int, n_out: int) -> list:
    return [(f"{name}.w", (n_in, n_out), "normal"), (f"{name}.b", (n_out,), "zeros")]


def _weight(x: Tensor, store: ParamStore, name: str) -> Tensor:
    w = store[f"{name}.w"]
    if x.shape[-1] != w.shape[0]:
        raise ValueError("mlp dimension mismatch")
    return w


def affine(x: Tensor, store: ParamStore, name: str) -> Tensor:
    return T.affine(x, _weight(x, store, name), store[f"{name}.b"])


def linear_layout(name: str, n_in: int, n_out: int) -> list:
    """Weight-only projection (attention q/k/v: a key/query bias is cancelled
    by the softmax, so none is allocated)."""
    return [(f"{name}.w", (n_in, n_out), "normal")]


def linear(x: Tensor, store: ParamStore, name: str) -> Tensor:
    return T.matmul(x, _weight(x, store, name))


def _depth(store: ParamStore, prefix: str) -> int:
    """Affine layers ``prefix.l0``, ``prefix.l1``, ... of a stack in the store
    (at least one, so a missing stack fails on its first layer)."""
    n = 1
    while f"{prefix}.l{n}.w" in store:
        n += 1
    return n


def mlp_layout(prefix: str, widths) -> list:
    return [entry for i in range(len(widths) - 1)
            for entry in affine_layout(f"{prefix}.l{i}", widths[i], widths[i + 1])]


def mlp_apply(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """Affine stack with GELU between layers and none after the last."""
    n_layers = _depth(store, prefix)
    for i in range(n_layers):
        x = affine(x, store, f"{prefix}.l{i}")
        if i < n_layers - 1:
            x = T.gelu(x)
    return x


def embed_mlp_layout(prefix: str, widths) -> list:
    """Embedding MLP: affine -> layer norm -> GELU between layers.

    The hidden norms keep activations O(1) under the small-sigma weight init;
    without them stacked 0.02-scale affines attenuate tokens to noise level.
    """
    layout = []
    for i in range(len(widths) - 1):
        layout += affine_layout(f"{prefix}.l{i}", widths[i], widths[i + 1])
        if i < len(widths) - 2:
            layout += layer_norm_layout(f"{prefix}.n{i}", widths[i + 1])
    return layout


def embed_mlp_apply(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """Each hidden layer is one ``T.affine_norm_gelu`` node, the bytes of
    ``affine`` -> ``layer_norm`` -> ``T.gelu``; the last layer is ``affine``."""
    n_layers = _depth(store, prefix)
    for i in range(n_layers - 1):
        name = f"{prefix}.l{i}"
        x = T.affine_norm_gelu(x, _weight(x, store, name), store[f"{name}.b"],
                               *_norm_params(store, f"{prefix}.n{i}"), LAYER_NORM_EPS)
    return affine(x, store, f"{prefix}.l{n_layers - 1}")


def layer_norm_layout(name: str, c: int, bias: bool = True) -> list:
    layout = [(f"{name}.g", (c,), "ones")]
    if bias:
        layout.append((f"{name}.b", (c,), "zeros"))
    return layout


def _norm_params(store: ParamStore, name: str) -> tuple:
    """A layer norm's gain and its bias (None when it has none)."""
    bias = store[f"{name}.b"] if f"{name}.b" in store else None
    return store[f"{name}.g"], bias


def layer_norm(x: Tensor, store: ParamStore, name: str) -> Tensor:
    return T.layer_norm(x, *_norm_params(store, name), LAYER_NORM_EPS)


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
