"""AdamW with decoupled weight decay and the cosine learning-rate schedule.

``adamw_step`` keeps both moments, and does its arithmetic, in each
parameter's own dtype, as PyTorch's AdamW does: float32 parameters get
float32 moments (8 bytes of state per parameter), and float64 parameters get
the float64 update. It is one fused pass per tensor: it walks the raveled
gradient, moments and parameter in blocks of ``BLOCK`` elements through two
scratch buffers per dtype, so its working memory is O(block) rather than
about ten full-size temporaries per tensor. Each block applies the textbook
expression's ufuncs in the same order, so parameters and moments are
bit-identical to evaluating it over whole arrays in the parameter's dtype.
Every gradient is checked (finite, and shaped like its parameter) before
anything is written, so a diverging step leaves parameters, moments and the
step count untouched.
"""
from __future__ import annotations

import math

import numpy as np

from .config import TrainConfig
from .tensor import ParamStore

# Elements per block. At 2^15 a float32 block's gradient, moment, parameter,
# output and scratch slices (896 KiB) stay in L2 cache, and the ~16 ufunc
# calls per block cost little next to the arithmetic: on a 2-CPU Xeon a
# default-config float32 step (25.9M parameters) took a median 171-174 ms at
# 2^15, 170-177 at 2^16, 192-193 at 2^17, 193-195 at 2^14 and 230 at 2^13.
BLOCK = 1 << 15


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


def cosine_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """lr_min + 0.5*(lr_max - lr_min)*(1 + cos(pi * step / total_steps))."""
    if total_steps <= 0:
        return cfg.lr_max
    frac = step / total_steps
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(math.pi * frac))


class AdamWState:
    """First/second moment buffers per trainable parameter, each C-ordered
    and of its parameter's dtype, plus a step count."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: int = 0


def adamw_step(store: ParamStore, grads: dict[str, np.ndarray], state: AdamWState,
               lr: float, cfg: TrainConfig) -> AdamWState:
    """One decoupled-weight-decay update over the trainable entries.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).
    Frozen entries and names missing from ``grads`` are untouched. A
    non-finite gradient raises "divergence" naming the first such parameter,
    and a misshapen one raises ValueError, both before any state changes.
    A gradient of another dtype is cast to its parameter's dtype first. Each
    updated parameter gets a fresh array; the old one is never written.
    """
    todo = []
    for name in store.trainable_names():
        if name not in grads:
            continue
        g = grads[name]
        p = store[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter "
                             f"{name} of shape {p.data.shape}")
        if not np.isfinite(g).all():
            raise DivergenceError(f"divergence: non-finite gradient in {name}")
        todo.append((name, p, g))
    state.t += 1
    b1, b2, eps, wd = cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    sizes: dict[np.dtype, int] = {}
    for _, p, g in todo:
        sizes[p.data.dtype] = min(BLOCK, max(sizes.get(p.data.dtype, 0), g.size))
    scratch = {dtype: (np.empty(n, dtype), np.empty(n, dtype)) for dtype, n in sizes.items()}
    for name, p, g in todo:
        dtype = p.data.dtype
        s1, s2 = scratch[dtype]
        if name not in state.m:
            # C order, so the raveled moments below are views, never copies
            state.m[name] = np.zeros(g.shape, dtype)
            state.v[name] = np.zeros(g.shape, dtype)
        m = state.m[name].reshape(-1)
        v = state.v[name].reshape(-1)
        old = p.data.reshape(-1)
        new = np.empty(p.data.shape, dtype)
        out = new.reshape(-1)
        gf = g.astype(dtype, copy=False).reshape(-1)
        for lo in range(0, gf.size, BLOCK):
            hi = min(lo + BLOCK, gf.size)
            n = hi - lo
            t1, t2 = s1[:n], s2[:n]
            gb, mb, vb, pb = gf[lo:hi], m[lo:hi], v[lo:hi], old[lo:hi]
            mb *= b1
            np.multiply(gb, 1.0 - b1, out=t1)
            mb += t1
            vb *= b2
            np.multiply(gb, 1.0 - b2, out=t1)
            t1 *= gb
            vb += t1
            np.divide(mb, bc1, out=t1)                 # m_hat
            np.divide(vb, bc2, out=t2)                 # v_hat
            np.sqrt(t2, out=t2)
            t2 += eps
            t1 /= t2                                   # m_hat / (sqrt(v_hat) + eps)
            np.multiply(pb, wd, out=t2)
            t1 += t2                                   # + weight_decay * theta
            t1 *= lr
            np.subtract(pb, t1, out=out[lo:hi])
        p.data = new
    return state
