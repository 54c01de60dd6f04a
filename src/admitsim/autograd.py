"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

Small by design: exactly the kernels the sequence models need, a dynamic
tape built through closures, and an AdamW optimizer with decoupled weight
decay.  Dtype follows the input arrays, so the same graph code runs in
float32 for training and float64 for bit-reproducible runs and gradient
checks.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "tensor",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "reshape",
    "transpose",
    "narrow",
    "select_positions",
    "tsum",
    "tmean",
    "logistic",
    "sigmoid",
    "tanh",
    "gelu",
    "softmax",
    "layer_norm",
    "dropout",
    "embedding_sum",
    "lstm_layer",
    "bce_with_logits",
    "backward",
    "AdamW",
    "lr_schedule",
]


class Tensor:
    """A dense array plus the closure that routes gradients to its parents."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward_fn
        self._spent = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    # convenience operators
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a name; ``frozen_rows`` stay pinned at zero."""

    __slots__ = ("name", "frozen_rows")

    def __init__(self, data: np.ndarray, name: str, frozen_rows: tuple[int, ...] = ()) -> None:
        super().__init__(np.asarray(data), requires_grad=True)
        self.name = name
        self.frozen_rows = frozen_rows
        for r in frozen_rows:
            self.data[r] = 0.0


def tensor(data, dtype=None, requires_grad: bool = False) -> Tensor:
    arr = np.asarray(data, dtype=dtype)
    return Tensor(arr, requires_grad=requires_grad)


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(data, parents, backward_fn) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=parents if req else (), backward_fn=backward_fn if req else None)


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data + b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data - b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out_data = a.data * b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(-g)

    return _make(-a.data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = np.matmul(a.data, b.data)

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate(_unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), bw)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def bw(g: np.ndarray) -> None:
        a.accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bw(g: np.ndarray) -> None:
        a.accumulate(g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), bw)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        full[idx] = g
        a.accumulate(full)

    return _make(a.data[idx], (a,), bw)


def select_positions(a: Tensor, positions: np.ndarray) -> Tensor:
    """Pick one time step per batch row from a (B, L, H) tensor."""
    positions = np.asarray(positions, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
    out_data = a.data[rows, positions]

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        full[rows, positions] = g
        a.accumulate(full)

    return _make(out_data, (a,), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g: np.ndarray) -> None:
        if axis is None:
            a.accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _make(out_data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    out = tsum(a, axis=axis, keepdims=keepdims)
    return mul(out, 1.0 / count)


def logistic(z: np.ndarray) -> np.ndarray:
    """The logistic sigmoid of a plain array, as 0.5 (1 + tanh(z / 2)).

    The tanh form cannot overflow for any z, keeps the input's dtype, and
    needs one transcendental call instead of the two exps of the branchy form.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def sigmoid(a: Tensor) -> Tensor:
    out_data = logistic(a.data)

    def bw(g: np.ndarray) -> None:
        a.accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g: np.ndarray) -> None:
        a.accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """GELU in its tanh form: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    x = a.data
    # x * x * x, not x**3: numpy's float32 power is two orders slower
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def bw(g: np.ndarray) -> None:
        d_inner = _GELU_C * (1.0 + 3.0 * 0.044715 * (x * x))
        grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        a.accumulate(g * grad)

    return _make(out_data.astype(x.dtype), (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g: np.ndarray) -> None:
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a.accumulate(out_data * (g - dot))

    return _make(out_data.astype(a.data.dtype), (a,), bw)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g: np.ndarray) -> None:
        h = x.shape[-1]
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            gx = g * gain.data
            term1 = gx
            term2 = gx.mean(axis=-1, keepdims=True)
            term3 = xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            a.accumulate(inv * (term1 - term2 - term3))

    return _make(out_data.astype(x.dtype), (a, gain, bias), bw)


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) so eval is identity."""
    if not training or p <= 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    out_data = a.data * keep

    def bw(g: np.ndarray) -> None:
        a.accumulate(g * keep)

    return _make(out_data, (a,), bw)


def embedding_sum(table: Tensor, idx: np.ndarray) -> Tensor:
    """Look up idx (B, C, L) rows in table (V, H) and sum over channels.

    The backward pass scatters through a (V, B*L) matrix counting how often
    each token occurs at each position, times the (B*L, H) output gradient.
    The count matrix is smaller than the (B*L*C, H) buffer of repeated
    gradient rows that a sort-and-reduce scatter needs whenever V < C*H.
    """
    idx = np.asarray(idx)
    if idx.ndim != 3:
        raise ValueError("expected a (batch, channels, length) index grid")
    # channel by channel: the same sums, without a (B, C, L, H) gather
    out_data = table.data[idx[:, 0]]
    for ch in range(1, idx.shape[1]):
        out_data += table.data[idx[:, ch]]

    def bw(g: np.ndarray) -> None:
        b, c, l = idx.shape
        v, h = table.data.shape
        counts = np.zeros((v, b * l), dtype=g.dtype)
        positions = np.arange(b * l).reshape(b, l)
        # one channel never repeats a (token, position) cell, so += cannot drop a count
        for ch in range(c):
            counts[idx[:, ch], positions] += 1.0
        table.accumulate(counts @ g.reshape(b * l, h))

    return _make(out_data, (table,), bw)


def lstm_layer(x: Tensor, wx: Tensor, wh: Tensor, bias: Tensor) -> Tensor:
    """One LSTM layer over a whole (B, L, D) sequence; returns (B, L, H).

    Gates are laid out [input, forget, candidate, output] along the 4H axis
    of ``wx`` (D, 4H), ``wh`` (H, 4H) and ``bias`` (4H,).  The input
    projection of every position is one matmul ahead of the time loop; the
    loop adds the recurrent term and keeps the gate activations, cells and
    tanh(cell) that backpropagation through time needs.  The backward loop
    only carries the recurrence; the weight, bias and input gradients are
    one matmul or reduction each over the stacked gate gradients.  The
    state starts at zero.
    """
    xd, whd = x.data, wh.data
    b, l, d = xd.shape
    h = whd.shape[0]
    gates = xd @ wx.data + bias.data  # (B, L, 4H), activated in place below
    cells = np.empty((b, l, h), dtype=gates.dtype)
    tanh_cells = np.empty_like(cells)
    hs = np.empty_like(cells)
    h_t = np.zeros((b, h), dtype=gates.dtype)
    c_t = np.zeros_like(h_t)
    for t in range(l):
        z = gates[:, t]
        z += h_t @ whd
        z[:, : 2 * h] = logistic(z[:, : 2 * h])
        z[:, 2 * h : 3 * h] = np.tanh(z[:, 2 * h : 3 * h])
        z[:, 3 * h :] = logistic(z[:, 3 * h :])
        c_t = z[:, h : 2 * h] * c_t + z[:, :h] * z[:, 2 * h : 3 * h]
        cells[:, t] = c_t
        np.tanh(c_t, out=tanh_cells[:, t])
        h_t = z[:, 3 * h :] * tanh_cells[:, t]
        hs[:, t] = h_t

    def bw(g: np.ndarray) -> None:
        dz = np.empty_like(gates)
        dh_next = np.zeros((b, h), dtype=gates.dtype)
        dc_next = np.zeros_like(dh_next)
        for t in range(l - 1, -1, -1):
            gi, gf, gg, go = (gates[:, t, k * h : (k + 1) * h] for k in range(4))
            tc = tanh_cells[:, t]
            dh = g[:, t] + dh_next
            dc = dh * go * (1.0 - tc * tc) + dc_next
            c_prev = cells[:, t - 1] if t > 0 else 0.0
            dz_t = dz[:, t]
            dz_t[:, :h] = dc * gg * gi * (1.0 - gi)
            dz_t[:, h : 2 * h] = dc * c_prev * gf * (1.0 - gf)
            dz_t[:, 2 * h : 3 * h] = dc * gi * (1.0 - gg * gg)
            dz_t[:, 3 * h :] = dh * tc * go * (1.0 - go)
            dc_next = dc * gf
            dh_next = dz_t @ whd.T
        flat_dz = dz.reshape(b * l, 4 * h)
        if x.requires_grad:
            x.accumulate(dz @ wx.data.T)
        if wx.requires_grad:
            wx.accumulate(xd.reshape(b * l, d).T @ flat_dz)
        if wh.requires_grad:
            h_prev = np.zeros_like(hs)
            h_prev[:, 1:] = hs[:, :-1]
            wh.accumulate(h_prev.reshape(b * l, h).T @ flat_dz)
        if bias.requires_grad:
            bias.accumulate(flat_dz.sum(axis=0))

    return _make(hs, (x, wx, wh, bias), bw)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on logits, numerically stable."""
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype)
    if z.shape != y.shape:
        raise ValueError("logits and targets must share a shape")
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out_data = np.asarray(loss.mean(), dtype=z.dtype)

    def bw(g: np.ndarray) -> None:
        p = logistic(z)
        logits.accumulate((g * (p - y) / y.size).astype(z.dtype))

    return _make(out_data, (logits,), bw)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    A graph can be swept once; rebuilding the forward pass is required
    before calling again.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if loss._spent:
        raise RuntimeError("backward already ran on this graph; re-run the forward pass")
    loss._spent = True

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# optimization


class AdamW:
    """Adam with decoupled weight decay (decay shrinks weights directly)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 5e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if p.frozen_rows:
                g = g.copy()
                g[list(p.frozen_rows)] = 0.0
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= lr * update
            if self.weight_decay:
                decay = lr * self.weight_decay * p.data
                if p.frozen_rows:
                    decay[list(p.frozen_rows)] = 0.0
                p.data -= decay


def lr_schedule(step: int, peak: float, warmup: int = 100, total: int = 1000) -> float:
    """Linear warmup to ``peak`` then cosine decay to zero at ``total``."""
    if step < 0 or total <= 0:
        raise ValueError("step and total must be non-negative / positive")
    if step >= total:
        return 0.0 if total > warmup else peak
    if warmup > 0 and step <= warmup:
        return peak * step / warmup
    if total <= warmup:
        return peak
    frac = (step - warmup) / (total - warmup)
    return peak * 0.5 * (1.0 + math.cos(math.pi * frac))
