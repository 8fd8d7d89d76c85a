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
argmax, ``log_softmax``'s softmax, ``gelu``'s derivative) only when its input
requires a gradient, so a forward through frozen parameters, such as
local-probe featurization, skips that work. ``gelu`` keeps its derivative
Phi(x) + x * phi(x) from the forward, and its backward is one multiply.

Every MLP hidden layer, ``gelu(layer_norm(x @ w + b))`` or ``gelu(x @ w +
b)``, is one node, ``affine_norm_gelu``. Its forward and backward run the
private kernels that ``affine``, ``layer_norm`` and ``gelu`` run, in the
same order, so its bytes are the composite's; it keeps only the layer norm's
``normed`` and ``std`` and GELU's derivative until its backward. No model
path calls ``gelu``; it is the composite the tests check the node against.

Gradient ownership: a closure that computes a fresh array for one parent
passes ``fresh=True`` to ``_accumulate``, and the parent keeps that array as
its first gradient (when C-ordered). Closures that pass on their incoming
gradient or a view of it (``add``, which hands one array to both parents,
``reshape``, ``transpose``, ``concat`` pieces, ``broadcast_to`` and the
broadcast view of ``sum``) leave it at the default, and the first write stores
a copy. So no two tensors ever share one gradient array.

Per-cloud parameter gradients: pretraining and global fine-tuning each build
one graph for a chunk of B clouds inside ``per_cloud()``. There every
activation carries the clouds on axis 0, and an operand without that axis (a
parameter) gets its gradient as a slab ``[B, *shape]``, one cloud's
contribution per row: ``affine`` and ``layer_norm`` compute weight, bias and
gain gradients with one stacked ``np.matmul`` or one row sum per cloud, and
``matmul`` and ``broadcast_to`` keep the cloud axis of a parameter operand's
gradient. ``_accumulate_slab`` adds a slab into ``.grad`` one cloud at a
time, so the sums are those of B one-cloud graphs backpropagated in order. A
parameter that several nodes read (the saliency gate's shared MLPs, and in
global fine-tuning every GATE parameter, which runs once per cloud) holds
its slabs until the last one arrives and then adds them interleaved, cloud
by cloud, in the order the backward reached them, which is the order of
one-cloud backwards. Outside ``per_cloud()`` the whole input counts as one
cloud (B = 1); the classifier head is built there, so its [B, 2d] rows keep
one weight GEMM.
"""
from __future__ import annotations

from contextlib import contextmanager

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


_per_cloud = False


@contextmanager
def per_cloud():
    """Ops built inside take axis 0 of their activations as B independent
    clouds and hand each parameter a per-cloud gradient slab (see the module
    docstring)."""
    global _per_cloud
    outer, _per_cloud = _per_cloud, True
    try:
        yield
    finally:
        _per_cloud = outer


def _clouds(x: "Tensor") -> int:
    """Clouds on axis 0 of activation ``x``: B inside ``per_cloud()``, else 1."""
    return x.data.shape[0] if _per_cloud else 1


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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_slabs")

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
        self._slabs = None      # (readers, slabs so far) during a backward

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

    def _accumulate_slab(self, slab: np.ndarray) -> None:
        """Add a per-cloud gradient slab ``[B, *shape]`` cloud by cloud. A
        leaf that several nodes read waits for all their slabs, then adds
        them interleaved (see the module docstring)."""
        if not self.requires_grad:
            return
        if self._slabs is None:
            # a one-cloud slab is fresh; a row of a larger one is kept only
            # as a copy, which frees the rest of the slab
            clouds = len(slab)
            for b in range(clouds):
                self._accumulate(slab[b], fresh=clouds == 1)
            return
        readers, slabs = self._slabs
        slabs.append(slab)
        if len(slabs) == readers:
            self._slabs = (readers, [])
            self._add_slabs(slabs)

    def _add_slabs(self, slabs: list) -> None:
        for b in range(len(slabs[0])):
            for s in slabs:
                self._accumulate(s[b])

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        readers: dict[int, int] = {}        # leaf id -> nodes reading it
        shared: list[Tensor] = []           # leaves that several nodes read
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
                if p._backward is None and p.requires_grad:
                    n = readers[id(p)] = readers.get(id(p), 0) + 1
                    if n == 2:
                        shared.append(p)
                if id(p) not in seen:
                    stack.append((p, False))
        for leaf in shared:
            leaf._slabs = (readers[id(leaf)], [])
        self.grad = np.ones_like(self.data)
        try:
            while topo:
                node = topo.pop()
                if node._backward is None:
                    continue            # a leaf: keeps its .grad
                if node.grad is not None:
                    node._backward(node.grad)
                # free the interior node's gradient, closure (and the buffers
                # it holds) and parent links as soon as its last reader has run
                node.grad = None
                node._backward = _consumed
                node._parents = ()
            for leaf in shared:         # some readers handed plain gradients
                if leaf._slabs[1]:
                    leaf._add_slabs(leaf._slabs[1])
        finally:
            for leaf in shared:
                leaf._slabs = None

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


def _gelu_forward(x: np.ndarray, with_deriv: bool):
    """GELU of ``x`` in its float dtype (integers give float32), and its
    derivative Phi(x) + x * phi(x) when ``with_deriv`` (else None). Both are
    written block by block into their own arrays; Phi lives only in a
    ``BLOCK``-element scratch slice."""
    xf = x.reshape(-1)
    data = np.empty(x.shape, np.result_type(xf, np.float32))
    out = data.reshape(-1)
    deriv = np.empty(x.shape, data.dtype) if with_deriv else None
    df = None if deriv is None else deriv.reshape(-1)
    t, p, c = (np.empty(min(BLOCK, xf.size), data.dtype) for _ in range(3))
    k = _consts(data.dtype)
    for lo in range(0, xf.size, BLOCK):
        n = min(BLOCK, xf.size - lo)
        xb, cb, ob = xf[lo:lo + n], c[:n], out[lo:lo + n]
        with np.errstate(over="ignore"):
            np.multiply(xb, k.inv_sqrt2, out=ob)    # x / sqrt 2, in the output's slot
            _erf_block(ob, cb, t[:n], p[:n], k)
        np.add(cb, k.one, out=cb)
        np.multiply(cb, k.half, out=cb)             # Phi(x)
        np.multiply(xb, cb, out=ob)
        if df is not None:
            db = df[lo:lo + n]
            np.multiply(xb, xb, out=db)
            np.multiply(db, k.minus_half, out=db)
            np.exp(db, out=db)
            np.multiply(db, k.inv_sqrt2pi, out=db)  # phi(x)
            np.multiply(db, xb, out=db)
            np.add(db, cb, out=db)
    return data, deriv


def gelu(a) -> Tensor:
    """Exact GELU, x * Phi(x) with the normal CDF Phi(x) = (1 + erf(x / sqrt 2)) / 2.

    erf comes from ``_erf``'s kernel, so its approximation error is bounded:
    within 5 float32 ulps, and 3.4e-9 in float64. When ``a`` requires a
    gradient, the forward also keeps the derivative Phi(x) + x * phi(x)
    (``_gelu_forward``), so the backward is one multiply; a frozen input
    skips it."""
    a = as_tensor(a)
    data, deriv = _gelu_forward(a.data, a.requires_grad)

    def bw(g):
        a._accumulate(np.multiply(g, deriv, out=deriv), fresh=True)   # a graph runs once

    return _result(data, (a,), bw)


# --- linear algebra -------------------------------------------------------

def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """``a @ b``, or ``a @ swapaxes(b)`` with ``transpose_b``. Inside
    ``per_cloud()`` a ``b`` without a's cloud axis (a parameter) gets its
    gradient per cloud."""
    a, b = as_tensor(a), as_tensor(b)
    b_op = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    data = a.data @ b_op
    slab = _per_cloud and b.ndim < a.ndim

    def bw(g):
        a._accumulate(g @ np.swapaxes(b_op, -1, -2), fresh=True)
        gb = np.swapaxes(a.data, -1, -2) @ g
        if transpose_b:
            gb = np.swapaxes(gb, -1, -2)
        if slab:
            b._accumulate_slab(gb)
        else:
            b._accumulate(gb, fresh=True)

    return _result(data, (a, b), bw)


def _rows(a: np.ndarray) -> np.ndarray:
    """View ``a`` as a 2-D [rows, last axis] matrix."""
    return a.reshape(-1, a.shape[-1])


def _affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    data = _rows(x) @ w
    data = np.add(data, b, out=data if data.dtype == b.dtype else None)
    return data.reshape(x.shape[:-1] + w.shape[-1:])


def _affine_backward(g: np.ndarray, x: Tensor, w: Tensor, b: Tensor, clouds: int) -> None:
    g3 = g.reshape(clouds, -1, g.shape[-1])
    if x.requires_grad:
        x._accumulate(np.matmul(g3, w.data.T).reshape(x.data.shape), fresh=True)
    if w.requires_grad:
        x3 = x.data.reshape(clouds, -1, x.data.shape[-1])
        w._accumulate_slab(np.matmul(x3.transpose(0, 2, 1), g3))
    if b.requires_grad:
        b._accumulate_slab(g3.sum(axis=1))


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` for a 2-D weight ``w`` [c_in, c_out] and bias ``b``
    [c_out] as one node. The forward flattens x's leading axes into one 2-D
    GEMM plus an in-place bias add; on every shape the model runs, its rows
    are bit-identical to the composite ``matmul`` + ``add`` and to each
    cloud's own GEMM. The backward works per cloud (``_clouds``): one stacked
    ``np.matmul`` for the input gradient and one for the weight slab, and one
    row sum per cloud for the bias slab."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    data = _affine_forward(x.data, w.data, b.data)
    clouds = _clouds(x)

    def bw(g):
        _affine_backward(g, x, w, b, clouds)

    return _result(data, (x, w, b), bw)


def _layer_norm_forward(x: np.ndarray, gain: Tensor, bias, eps: float):
    """The layer norm of ``x`` with its ``normed`` and ``std``, which are all
    its backward reads of the forward."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    normed = centered / std
    data = normed * gain.data
    if bias is not None:
        data = data + bias.data
    return data, normed, std


def _layer_norm_backward(g: np.ndarray, gain: Tensor, bias, normed: np.ndarray,
                         std: np.ndarray, clouds: int, input_grad: bool):
    """Add the gain and bias slabs, and return the input gradient when
    ``input_grad`` (else None)."""
    dx = None
    if input_grad:
        gx = g * gain.data
        dx = gx - gx.mean(axis=-1, keepdims=True)
        dx -= normed * (gx * normed).mean(axis=-1, keepdims=True)
        dx /= std
    if gain.requires_grad:
        gain._accumulate_slab((g * normed).reshape(clouds, -1, g.shape[-1]).sum(axis=1))
    if bias is not None and bias.requires_grad:
        bias._accumulate_slab(g.reshape(clouds, -1, g.shape[-1]).sum(axis=1))
    return dx


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Layer norm over the last axis with a gain and a bias (or None), as one
    node.

    The forward repeats the composite expression's numpy ops in order
    (mean, centre, mean square, ``sqrt(var + eps)``, divide, scale, shift),
    so it is bit-identical to it; the backward is the closed form
    ``(gx - mean(gx) - xhat * mean(gx * xhat)) / std`` with ``gx = g * gain``,
    and the gain and bias gradients are row sums per cloud (``_clouds``).
    """
    x, gain = as_tensor(x), as_tensor(gain)
    bias = None if bias is None else as_tensor(bias)
    data, normed, std = _layer_norm_forward(x.data, gain, bias, eps)
    clouds = _clouds(x)

    def bw(g):
        dx = _layer_norm_backward(g, gain, bias, normed, std, clouds, x.requires_grad)
        if dx is not None:
            x._accumulate(dx, fresh=True)

    return _result(data, (x, gain) if bias is None else (x, gain, bias), bw)


def affine_norm_gelu(x, w, b, gain, bias, eps: float) -> Tensor:
    """``gelu(layer_norm(affine(x, w, b), gain, bias, eps))``, an MLP's hidden
    layer, as one node; with ``gain`` None there is no layer norm, and it is
    ``gelu(affine(x, w, b))``. It runs the kernels of ``affine``,
    ``layer_norm`` and ``gelu`` in their order, so its output and every
    gradient are the composite's bytes, but it keeps only the layer norm's
    ``normed`` and ``std`` and GELU's derivative for its backward, where the
    composite's nodes keep the affine output, ``normed``, the layer norm's
    output, Phi and the GELU output."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    parents = (x, w, b)
    y = _affine_forward(x.data, w.data, b.data)
    if gain is not None:
        gain = as_tensor(gain)
        bias = None if bias is None else as_tensor(bias)
        parents += (gain,) if bias is None else (gain, bias)
        y, normed, std = _layer_norm_forward(y, gain, bias, eps)
    data, deriv = _gelu_forward(y, any(p.requires_grad for p in parents))
    clouds = _clouds(x)
    affine_grad = x.requires_grad or w.requires_grad or b.requires_grad

    def bw(g):
        gh = np.multiply(g, deriv, out=deriv)   # a graph runs once
        if gain is not None:
            gh = _layer_norm_backward(gh, gain, bias, normed, std, clouds, affine_grad)
        if gh is not None:
            _affine_backward(gh, x, w, b, clouds)

    return _result(data, parents, bw)


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
    """``a`` broadcast to ``shape``, as numpy's read-only view (the callers
    feed it to ``concat``, which copies). Inside ``per_cloud()`` an ``a``
    without the output's cloud axis (a parameter) gets its gradient per
    cloud."""
    a = as_tensor(a)
    data = np.broadcast_to(a.data, shape)
    slab = _per_cloud and a.ndim < data.ndim

    def bw(g):
        if slab:
            a._accumulate_slab(np.stack([_unbroadcast(gc, a.data.shape) for gc in g]))
        else:
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
    """Max reduction; the gradient routes to the first (lowest-index) argmax.

    That index is found as ``np.argmax`` of "equals the max, or is NaN" (a
    NaN slice's max is NaN, and ``np.argmax`` picks its first NaN): a
    boolean argmax over a non-last axis walks strided memory at about half
    the cost of a float one."""
    a = as_tensor(a)
    if axis is None or isinstance(axis, tuple):
        raise ValueError("reduce_max requires a single explicit axis")
    peak = a.data.max(axis=axis, keepdims=True)
    data = peak if keepdims else np.squeeze(peak, axis)
    if not a.requires_grad:
        return Tensor(data)
    arg = np.argmax((a.data == peak) | (a.data != a.data), axis=axis, keepdims=True)

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
    """Normal(0, std) samples rejected outside +-2 std: each round redraws the
    rejected entries in index order, and only those are tested again."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    redo = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while redo.size:
        fresh = rng.normal(0.0, std, size=redo.size)
        flat[redo] = fresh
        redo = redo[np.abs(fresh) > 2.0 * std]
    return out.astype(dtype)


_FILLS = {"zeros": np.zeros, "ones": np.ones}


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

    def draw(self, layout, rng: np.random.Generator, dtype=np.float32) -> None:
        """Add a layout's ``(name, shape, init)`` entries in order: ``normal``
        takes the next ``trunc_normal`` draw from ``rng``, ``zeros`` and
        ``ones`` take nothing from it."""
        for name, shape, init in layout:
            if init == "normal":
                data = trunc_normal(rng, shape, dtype=dtype)
            else:
                data = _FILLS[init](shape, dtype=dtype)
            self.add(name, data)
