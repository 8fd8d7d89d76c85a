"""Minimal reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps an ndarray and records a backward closure per op; calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates ``.grad`` on every tensor that requires it. Only the ops the
pipeline needs are implemented. Training runs in float32; gradient checking
builds the same graphs in float64.

A graph is single-use. As soon as an interior node's closure has run, the
backward drops the node's gradient, closure and parent links, so activations
and gradients are freed while the walk goes on; a second ``backward`` that
reaches a consumed node raises ``RuntimeError``. Only leaves (tensors without
a closure, such as parameters) keep their ``.grad``.

An op computes a buffer that only its backward reads (``reduce_max``'s
argmax, ``log_softmax``'s softmax) only when its input requires a gradient,
so a forward through frozen parameters, such as local-probe featurization,
skips that work.

Gradient ownership: a closure that computes a fresh array for one parent
passes ``fresh=True`` to ``_accumulate``, and the parent keeps that array as
its first gradient (when C-ordered). Closures that pass on their incoming
gradient or a view of it (``add``, which hands one array to both parents,
``reshape``, ``transpose``, ``concat`` pieces, ``broadcast_to`` and the
broadcast view of ``sum``) leave it at the default, and the first write stores
a copy. So no two tensors ever share one gradient array.
"""
from __future__ import annotations

import numpy as np

# GELU constants, rounded to the kernel dtype by ``_Consts`` below
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Elements per block of the erf and GELU kernels. At 2^15 a GELU block's five
# float32 slices (640 KiB) stay in a 2 MiB L2 cache while each ufunc call
# covers enough elements to hide its dispatch cost: on a 2-CPU Xeon, erf over
# 786k float32 took 7.8 ms in 2^12 blocks, 3.4 ms at 2^14, 3.2 ms at 2^15 and
# 3.0 ms at 2^16.
BLOCK = 1 << 15

# erf(z) = tanh(z * P(z^2) / Q(z^2)), a weighted minimax fit of
# atanh(erf(z)) / z on 0 <= z <= 4 (highest degree first). Through tanh the
# rational's rounding error is damped where erf approaches +-1, and the result
# saturates at exactly +-1. Beyond |z| = 4, z^2 is clamped, so the argument
# of tanh keeps growing with |z| (above 9.3) and erf stays within 1.6e-8 of 1.
_ERF_P = (0.0021782808352485204, 0.04264654626161302, 0.2798068091572569,
          1.1283791708431121)
_ERF_Q = (0.00032492415569259915, 0.02368991867396206, 0.15689256043079816, 1.0)
_ERF_Z2_MAX = 16.0


class _Consts:
    """The erf and GELU kernels' constants as 0-d arrays of one dtype. A ufunc
    rounds a Python float operand to the array's dtype anyway, so the values
    are the same; a typed operand just skips that conversion, which is most
    of a small call's cost."""

    def __init__(self, dtype):
        def c(v):
            a = np.array(v, dtype)
            a.flags.writeable = False
            return a

        self.z2_max = c(_ERF_Z2_MAX)
        self.p = tuple(map(c, _ERF_P))
        self.q = tuple(map(c, _ERF_Q))
        self.one, self.half, self.minus_half = c(1.0), c(0.5), c(-0.5)
        self.inv_sqrt2, self.inv_sqrt2pi = c(_INV_SQRT2), c(_INV_SQRT2PI)


_CONSTS = {np.dtype(t): _Consts(t) for t in (np.float32, np.float64)}


def _consts(dtype) -> _Consts:
    """Built once for float32 and float64, on each call for rarer dtypes."""
    return _CONSTS.get(dtype) or _Consts(dtype)


def _consumed(g=None):
    """Stands in for the closure of an interior node whose backward has run."""
    raise RuntimeError("backward through a graph that was already backpropagated; "
                       "rebuild it with a new forward pass")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
            if data.dtype.kind in "iub":
                data = data.astype(np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into ``.grad``. ``fresh`` says the closure computed ``g``
        for this call alone, so a first write may keep it instead of a copy
        (see the module docstring)."""
        if not self.requires_grad:
            return
        g = _unbroadcast(np.asarray(g, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            # kept only when C-ordered: a copy is, and layout steers the
            # summation order of later reductions over this gradient
            self.grad = g if fresh and g.flags.c_contiguous else g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is _consumed:
                _consumed()         # before any gradient is touched
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue            # a leaf: keeps its .grad
            if node.grad is not None:
                node._backward(node.grad)
            # free the interior node's gradient, closure (and the buffers it
            # holds) and parent links as soon as its last reader has run
            node.grad = None
            node._backward = _consumed
            node._parents = ()

    def zero_grad(self) -> None:
        self.grad = None

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        if _is_number(other):
            return add(self, -other)
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if len(axes) > 1 else axes[0])

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce_max(self, axis, keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# --- elementwise ----------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def add(a, b) -> Tensor:
    # python scalars stay scalars so float32 graphs are not promoted
    if _is_number(a):
        a, b = b, a
    if _is_number(b):
        a = as_tensor(a)
        s = b

        def bw_s(g):
            a._accumulate(g)

        return _result(a.data + s, (a,), bw_s)
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def bw(g):
        a._accumulate(g)
        b._accumulate(g)

    return _result(data, (a, b), bw)


def mul(a, b) -> Tensor:
    if _is_number(a):
        a, b = b, a
    if _is_number(b):
        a = as_tensor(a)
        s = b

        def bw_s(g):
            a._accumulate(g * s, fresh=True)

        return _result(a.data * s, (a,), bw_s)
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        a._accumulate(g * b.data, fresh=True)
        b._accumulate(g * a.data, fresh=True)

    return _result(data, (a, b), bw)


def div(a, b) -> Tensor:
    if _is_number(b):
        return mul(a, 1.0 / b)
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def bw(g):
        a._accumulate(g / b.data, fresh=True)
        b._accumulate(-g * a.data / (b.data * b.data), fresh=True)

    return _result(data, (a, b), bw)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def bw(g):
        a._accumulate(g * 0.5 / data, fresh=True)

    return _result(data, (a,), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def bw(g):
        a._accumulate(g * data, fresh=True)

    return _result(data, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        a._accumulate(g / a.data, fresh=True)

    return _result(np.log(a.data), (a,), bw)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        a._accumulate(g * data * (1.0 - data), fresh=True)

    return _result(data, (a,), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def bw(g):
        a._accumulate(g * (a.data > 0.0), fresh=True)

    return _result(data, (a,), bw)


def _erf_block(z: np.ndarray, out: np.ndarray, t: np.ndarray, p: np.ndarray,
               k: _Consts) -> None:
    """Write erf(z) into ``out``. All four are 1-D arrays of one length and
    dtype, which is ``k``'s; ``t`` and ``p`` are scratch, and ``out`` must
    not alias ``z``. Every step is an elementwise ufunc, so the result does
    not depend on where a block starts, and it is odd in z bit for bit."""
    np.multiply(z, z, out=t)
    np.minimum(t, k.z2_max, out=t)
    np.multiply(t, k.p[0], out=p)
    for c in k.p[1:-1]:
        np.add(p, c, out=p)
        np.multiply(p, t, out=p)
    np.add(p, k.p[-1], out=p)
    np.multiply(t, k.q[0], out=out)
    for c in k.q[1:-1]:
        np.add(out, c, out=out)
        np.multiply(out, t, out=out)
    np.add(out, k.q[-1], out=out)
    np.divide(p, out, out=p)
    np.multiply(p, z, out=p)
    np.tanh(p, out=out)


def _erf(x) -> np.ndarray:
    """erf of an array, in its float dtype (integers give float64), walked
    in ``BLOCK``-element slices. Measured against ``math.erf``: within 5
    float32 ulps and 1.6e-7 for every float32 input, within 3.4e-9 in
    float64; +-0, +-inf and nan map to +-0, +-1 and nan."""
    x = np.asarray(x)
    out = np.empty(x.shape, np.result_type(x, np.float32))
    xf, of = x.reshape(-1), out.reshape(-1)
    z, t, p = (np.empty(min(BLOCK, xf.size), out.dtype) for _ in range(3))
    k = _consts(out.dtype)
    with np.errstate(over="ignore"):        # z*z of a huge z saturates
        for lo in range(0, xf.size, BLOCK):
            n = min(BLOCK, xf.size - lo)
            np.copyto(z[:n], xf[lo:lo + n])
            _erf_block(z[:n], of[lo:lo + n], t[:n], p[:n], k)
    return out


def gelu(a) -> Tensor:
    """Exact GELU, x * Phi(x) with the normal CDF Phi(x) = (1 + erf(x / sqrt 2)) / 2.

    erf comes from ``_erf``'s kernel, so its approximation error is bounded:
    within 5 float32 ulps, and 3.4e-9 in float64. The forward writes Phi
    (kept for the backward) and the output block by block, and the backward
    computes g * (Phi + x * phi) the same way in its result's slots, so
    neither makes a full-size temporary."""
    a = as_tensor(a)
    x = a.data.reshape(-1)
    data = np.empty(a.data.shape, np.result_type(x, np.float32))
    out, cdf = data.reshape(-1), np.empty(x.size, data.dtype)
    t = np.empty(min(BLOCK, x.size), data.dtype)
    p = np.empty_like(t)
    k = _consts(data.dtype)
    with np.errstate(over="ignore"):
        for lo in range(0, x.size, BLOCK):
            n = min(BLOCK, x.size - lo)
            xb, cb, ob = x[lo:lo + n], cdf[lo:lo + n], out[lo:lo + n]
            np.multiply(xb, k.inv_sqrt2, out=ob)    # x / sqrt 2, in the output's slot
            _erf_block(ob, cb, t[:n], p[:n], k)
            np.add(cb, k.one, out=cb)
            np.multiply(cb, k.half, out=cb)
            np.multiply(xb, cb, out=ob)

    def bw(g):
        gf = g.reshape(-1)
        dx = np.empty(a.data.shape, data.dtype)
        df = dx.reshape(-1)
        for lo in range(0, x.size, BLOCK):
            xb, db = x[lo:lo + BLOCK], df[lo:lo + BLOCK]
            np.multiply(xb, xb, out=db)
            np.multiply(db, k.minus_half, out=db)
            np.exp(db, out=db)
            np.multiply(db, k.inv_sqrt2pi, out=db)  # phi(x)
            np.multiply(db, xb, out=db)
            np.add(db, cdf[lo:lo + BLOCK], out=db)
            np.multiply(db, gf[lo:lo + BLOCK], out=db)
        a._accumulate(dx, fresh=True)

    return _result(data, (a,), bw)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def bw(g):
        a._accumulate(g * (1.0 - data * data), fresh=True)

    return _result(data, (a,), bw)


# --- linear algebra -------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def bw(g):
        a._accumulate(g @ np.swapaxes(b.data, -1, -2), fresh=True)
        b._accumulate(np.swapaxes(a.data, -1, -2) @ g, fresh=True)

    return _result(data, (a, b), bw)


def _rows(a: np.ndarray) -> np.ndarray:
    """View ``a`` as a 2-D [rows, last axis] matrix."""
    return a.reshape(-1, a.shape[-1])


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` for a 2-D weight ``w`` [c_in, c_out] and bias ``b``
    [c_out] as one node. Both passes flatten x's leading axes, so the forward
    is one 2-D GEMM plus an in-place bias add, and each gradient is one 2-D
    GEMM (input, weight) or one row sum (bias). On every shape the model
    runs, the output is bit-identical to the composite ``matmul`` + ``add``,
    which uses numpy's batched matmul."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    data = _rows(x.data) @ w.data
    data = np.add(data, b.data, out=data if data.dtype == b.data.dtype else None)
    data = data.reshape(x.data.shape[:-1] + w.data.shape[-1:])

    def bw(g):
        g2 = _rows(g)
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.data.shape), fresh=True)
        if w.requires_grad:
            w._accumulate(_rows(x.data).T @ g2, fresh=True)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0), fresh=True)

    return _result(data, (x, w, b), bw)


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Layer norm over the last axis with a gain and a bias (or None), as one
    node.

    The forward repeats the composite expression's numpy ops in order
    (mean, centre, mean square, ``sqrt(var + eps)``, divide, scale, shift),
    so it is bit-identical to it; the backward is the closed form
    ``(gx - mean(gx) - xhat * mean(gx * xhat)) / std`` with ``gx = g * gain``.
    """
    x, gain = as_tensor(x), as_tensor(gain)
    bias = None if bias is None else as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    normed = centered / std
    data = normed * gain.data
    if bias is not None:
        data = data + bias.data

    def bw(g):
        if x.requires_grad:
            gx = g * gain.data
            dx = gx - gx.mean(axis=-1, keepdims=True)
            dx -= normed * (gx * normed).mean(axis=-1, keepdims=True)
            dx /= std
            x._accumulate(dx, fresh=True)
        if gain.requires_grad:
            gain._accumulate(_rows(g * normed).sum(axis=0), fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_rows(g).sum(axis=0), fresh=True)

    return _result(data, (x, gain) if bias is None else (x, gain, bias), bw)


# --- shape ops --------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def bw(g):
        a._accumulate(g.reshape(a.data.shape))

    return _result(data, (a,), bw)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        a._accumulate(g.transpose(inv))

    return _result(data, (a,), bw)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    data = a.data[key]

    def bw(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, key, g)
        a._accumulate(buf, fresh=True)

    return _result(data, (a,), bw)


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0 with an integer index array."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    data = a.data[idx]

    def bw(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        a._accumulate(buf, fresh=True)

    return _result(data, (a,), bw)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _result(data, tuple(tensors), bw)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    data = np.broadcast_to(a.data, shape).copy()

    def bw(g):
        a._accumulate(g)

    return _result(data, (a,), bw)


# --- reductions -------------------------------------------------------------

def _restore_axes(g, axis, keepdims, shape):
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def _axis_count(shape, axis):
    if axis is None:
        return int(np.prod(shape))
    if isinstance(axis, tuple):
        return int(np.prod([shape[ax] for ax in axis]))
    return shape[axis]


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        a._accumulate(_restore_axes(g, axis, keepdims, a.data.shape))

    return _result(data, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = _axis_count(a.data.shape, axis)

    def bw(g):
        a._accumulate(_restore_axes(g, axis, keepdims, a.data.shape) / count, fresh=True)

    return _result(data, (a,), bw)


def sorted_mean(a, axis: int) -> Tensor:
    """Mean reduction with a canonical (sorted) summation order, so the result
    is bit-identical under any permutation along ``axis``. The gradient of a
    mean is uniform, so sorting does not affect the backward pass."""
    a = as_tensor(a)
    data = np.sort(a.data, axis=axis).mean(axis=axis)
    count = a.data.shape[axis]

    def bw(g):
        a._accumulate(_restore_axes(g, axis, False, a.data.shape) / count, fresh=True)

    return _result(data, (a,), bw)


def reduce_max(a, axis=None, keepdims=False) -> Tensor:
    """Max reduction; the gradient routes to the first (lowest-index) argmax."""
    a = as_tensor(a)
    if axis is None or isinstance(axis, tuple):
        raise ValueError("reduce_max requires a single explicit axis")
    data = a.data.max(axis=axis, keepdims=keepdims)
    if not a.requires_grad:
        return Tensor(data)
    arg = np.expand_dims(np.argmax(a.data, axis=axis), axis)

    def bw(g):
        g_exp = g if keepdims else np.expand_dims(g, axis)
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, arg, g_exp, axis)
        a._accumulate(buf, fresh=True)

    return _result(data, (a,), bw)


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a._accumulate(data * (g - dot), fresh=True)

    return _result(data, (a,), bw)


def log_softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    if not a.requires_grad:
        return Tensor(data)
    sm = np.exp(data)

    def bw(g):
        a._accumulate(g - sm * g.sum(axis=axis, keepdims=True), fresh=True)

    return _result(data, (a,), bw)


# --- parameter store --------------------------------------------------------

def trunc_normal(rng: np.random.Generator, shape, std=0.02, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) samples rejected outside +-2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


class ParamStore:
    """Named parameter tensors with a per-entry trainable mask.

    Iteration is always lexicographic by name so optimizer traversal and
    serialization are deterministic.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(data), requires_grad=trainable)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self):
        for name in self.names():
            yield name, self._entries[name]

    def trainable_names(self) -> list[str]:
        return [n for n in self.names() if self._entries[n].requires_grad]

    def set_trainable(self, name: str, trainable: bool) -> None:
        self._entries[name].requires_grad = trainable

    def freeze_prefix(self, prefix: str) -> None:
        for n in self.names():
            if n.startswith(prefix):
                self.set_trainable(n, False)

    def zero_grads(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def load_data(self, arrays: dict[str, np.ndarray]) -> None:
        for n, arr in arrays.items():
            if n not in self._entries:
                raise KeyError(f"unknown parameter: {n}")
            t = self._entries[n]
            if t.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {n}")
            t.data = arr.astype(t.data.dtype, copy=True)
