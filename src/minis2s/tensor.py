"""Dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays and record the operations that produced
them, so that `backward(loss)` can push gradients to every leaf with
``requires_grad=True``. All computation is 64-bit and deterministic: the
same seed and inputs reproduce outputs and gradients bit-exactly.

Stochastic ops (dropout) draw from the rng of the active :class:`Graph`,
entered as a context manager around a forward pass.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError

_graphs: list = []      # the entered Graphs, innermost last
_grad_enabled = True    # False inside no_grad


class no_grad:
    """Context manager that disables tape recording (decode-time speedup):
    no op result is recorded, and no op builds a gradient function."""

    def __enter__(self):
        global _grad_enabled
        self._prev, _grad_enabled = _grad_enabled, False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Graph:
    """Execution context for one forward/backward pass.

    Owns the rng that feeds every stochastic op run inside it and counts the
    ops executed, so replaying with the same seed and inputs is bit-exact.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.op_count = 0

    def __enter__(self) -> "Graph":
        _graphs.append(self)
        return self

    def __exit__(self, *exc):
        _graphs.pop()
        return False

    @staticmethod
    def current() -> Optional["Graph"]:
        return _graphs[-1] if _graphs else None


_tensor_counter = 0
_FLOAT64 = np.dtype(np.float64)     # numpy's one native float64 dtype


class Tensor:
    """A float64 n-dimensional array node in the differentiation tape.

    `_parents` holds the inputs of the op that produced this tensor and
    `_grads` a function of no arguments that builds one gradient function
    per input: `_grads()[i](g)` is what `_parents[i]` gets from this
    node's gradient g. Leaves have neither.
    Gradients accumulate into `.grad` in fixed reverse creation order,
    which makes repeated runs bit-identical. A leaf's first gradient is
    copied into its `grad_buffer`, if set, which then becomes `.grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_buffer", "_parents",
                 "_grads", "_id", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        global _tensor_counter
        # an op's result mostly is a C-ordered float64 array already
        if not (type(data) is np.ndarray and data.dtype is _FLOAT64
                and data.flags.c_contiguous):
            data = np.asarray(data, dtype=np.float64)
            if not data.flags.c_contiguous:
                data = np.ascontiguousarray(data)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.grad_buffer: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._grads: Optional[tuple] = None
        self._backward_done = False
        _tensor_counter += 1
        self._id = _tensor_counter

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is not None:
            self.grad += g
        elif self.grad_buffer is not None:
            np.copyto(self.grad_buffer, g)
            self.grad = self.grad_buffer
        else:
            # a private copy, never an alias: one g may reach several
            # operands (_add hands the same array to both). C order keeps
            # a transposed g from changing later reductions' summation
            # order, so gradients stay bit-identical to zeros-plus-add.
            self.grad = np.array(g, dtype=np.float64, order="C")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    def __sub__(self, other):
        return _add(self, _scale(other, -1.0) if isinstance(other, Tensor) else -other)

    def __neg__(self):
        return _scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return _mul(self, other)
        return _scale(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise DimensionError("tensor/tensor division is not supported")
        return _scale(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return _slice(self, idx)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    # -- reductions ----------------------------------------------------------

    def abs(self) -> "Tensor":
        return absval(self)

    def sum(self) -> "Tensor":
        return tsum(self)

    def mean(self) -> "Tensor":
        return tmean(self)


Grad = Callable[[np.ndarray], np.ndarray]
Grads = Callable[[], Tuple[Grad, ...]]


def _result(data: np.ndarray, parents: Sequence[Tensor],
            grads: Grads) -> Tensor:
    """Wrap an op result, recording the tape node only when gradients
    flow: grads() builds one gradient function per parent, grads()[i](g)
    being the gradient parents[i] gets from the result's gradient g. The
    node keeps grads uncalled until backward reaches it, so an op builds
    no gradient function under no_grad, and a node waiting on the tape
    holds one function, not one per input. backward calls grads()[i]
    only for a parent that needs a gradient."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grads = grads
    if _graphs:
        _graphs[-1].op_count += 1
    return out


def from_op(a: Tensor, data: np.ndarray, grad: Grad) -> Tensor:
    """The result `data` of a one-input op on `a`, recorded so that the
    backward adds grad(g) into a, g being the result's gradient."""
    return _result(data, (a,), lambda: (grad,))


def _once(f: Grad) -> Grad:
    """f, run on the first call only; later calls return that result.
    A node's gradient functions, which backward calls with one g, share
    an intermediate through it: one evaluation serves every input. Call
    it inside an op's grads(), so that the memo is made only for a
    recorded node."""
    memo = {}
    return lambda g: memo[0] if memo else memo.setdefault(0, f(g))


def _fits(shape: tuple, target: tuple) -> bool:
    """Whether an array of `shape` broadcasts to `target` unchanged: it
    has no more axes, and each of its dims, aligned from the right, is 1
    or target's."""
    lead = len(target) - len(shape)
    return lead >= 0 and all(n == 1 or n == t
                             for n, t in zip(shape, target[lead:]))


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    if g.ndim == 2 and len(shape) == 1:
        return g.sum(axis=0)    # a (d,) row vector broadcast over (n, d)
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


def _broadcast(op, a: Tensor, b: Tensor) -> np.ndarray:
    """op(a, b) on the arrays under numpy's broadcasting; shapes it cannot
    broadcast raise DimensionError."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}") \
            from None


def _add(a: Tensor, b) -> Tensor:
    """a + b: a tensor b broadcasts as numpy does, a number adds to every
    entry."""
    if isinstance(b, Tensor):
        return _result(_broadcast(np.add, a, b), (a, b),
                       lambda: (lambda g: _reduce_to(g, a.shape),
                                lambda g: _reduce_to(g, b.shape)))
    return from_op(a, a.data + float(b), lambda g: g)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b, broadcast as numpy does."""
    return _result(_broadcast(np.multiply, a, b), (a, b),
                   lambda: (lambda g: _reduce_to(g * b.data, a.shape),
                            lambda g: _reduce_to(g * a.data, b.shape)))


def _scale(a: Tensor, c) -> Tensor:
    c = float(c)
    return from_op(a, a.data * c, lambda g: g * c)


def matmul_kernel(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for a 2-D w, x's leading axes folded into one gemm (a 3-D @
    runs one per leading index, which can change the last bits)."""
    if x.ndim == 2:
        return x @ w
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[1:])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with np.matmul semantics for operands of rank >= 2:
    leading axes are batch axes and broadcast against each other.

    Against a 2-D b, a's leading axes fold into rows: one gemm forward
    (matmul_kernel) and one per gradient, however many batch axes a has."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError(f"matmul needs operands of rank >= 2, "
                             f"got {a.shape} @ {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    if bd.ndim == 2:
        return _result(matmul_kernel(ad, bd), (a, b), lambda: (
            lambda g: (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.shape),
            lambda g: (ad.reshape(-1, ad.shape[-1]).T
                       @ g.reshape(-1, g.shape[-1]))))
    try:
        data = np.matmul(ad, bd)
    except ValueError:
        raise DimensionError(f"matmul batch axes disagree: {a.shape} @ {b.shape}") \
            from None
    return _result(data, (a, b), lambda: (
        lambda g: _reduce_to(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape),
        lambda g: _reduce_to(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise DimensionError(f"transpose needs rank >= 2, got {a.shape}")
    return from_op(a, a.data.swapaxes(-1, -2).copy(),
                   lambda g: g.swapaxes(-1, -2))


def _slice(a: Tensor, idx) -> Tensor:
    """Indexing by slices, integers and integer arrays; an integer drops
    its axis, and integer arrays gather (numpy's advanced indexing), the
    gradient of a repeated entry adding up."""
    if not isinstance(idx, tuple):
        idx = (idx,)
    if not all(isinstance(s, (slice, int)) or (isinstance(s, np.ndarray)
               and s.dtype.kind in "iu") for s in idx):
        raise DimensionError("only slice, integer and integer-array "
                             "indexing is supported")
    gather = any(isinstance(s, np.ndarray) for s in idx)
    data = a.data[idx] if gather else a.data[idx].copy()

    def grad(g):
        full = np.zeros_like(a.data)
        if gather:
            np.add.at(full, idx, g)
        else:
            full[idx] = g
        return full

    return from_op(a, data, grad)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    if math.prod(shape) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    return from_op(a, a.data.reshape(shape).copy(),
                   lambda g: g.reshape(a.shape))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def grads():
        offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
        index = [slice(None)] * data.ndim
        out = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            index[axis] = slice(lo, hi)
            out.append(lambda g, part=tuple(index): g[part])
        return tuple(out)

    return _result(data, tensors, grads)


# -- elementwise nonlinearities ---------------------------------------------


def relu_kernel(x: np.ndarray) -> np.ndarray:
    """The bits of np.where(x > 0, x, 0.0), without its branch per element."""
    y = np.fmax(x, 0.0)
    y += 0.0        # -0.0 + 0.0 is +0.0
    return y


def relu(a: Tensor) -> Tensor:
    y = relu_kernel(a.data)
    return from_op(a, y, lambda g: g * (y > 0))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return from_op(a, y, lambda g: g * (1.0 - y * y))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only of -|x|."""
    e = np.exp(-np.abs(x))
    # np.where(x >= 0, 1.0, e) without its branch per element, as e <= 1
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    return from_op(a, y, lambda g: g * y * (1.0 - y))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return from_op(a, y, lambda g: g * y)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise DomainError("log of non-positive value")
    return from_op(a, np.log(a.data), lambda g: g / a.data)


def absval(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return from_op(a, np.abs(a.data), lambda g: g * sign)


def tsum(a: Tensor) -> Tensor:
    return from_op(a, np.asarray(a.data.sum()),
                   lambda g: np.full_like(a.data, float(g)))


def tmean(a: Tensor) -> Tensor:
    # the sum over n, as a.data.mean() computes it
    n = a.data.size
    return from_op(a, np.asarray(a.data.sum() / n),
                   lambda g: np.full_like(a.data, float(g) / n))


# -- softmax family ----------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis` (max subtraction)."""
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    return from_op(a, y, lambda g: y * (g - (g * y).sum(axis=axis,
                                                       keepdims=True)))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    y = z - lse
    return from_op(a, y, lambda g: g - np.exp(y) * g.sum(axis=axis,
                                                         keepdims=True))


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) computed without overflow for large |x|."""
    x = a.data
    y = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                 x - np.log1p(np.exp(-np.abs(x))))
    # d/dx log sigmoid(x) = sigmoid(-x)
    return from_op(a, y, lambda g: g * _sigmoid(-x))


# -- normalization and regularization -----------------------------------------


def layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      eps: float = 1e-12):
    """Per-frame normalization over the last axis, then affine, and the
    normalized x and inverse deviation the backward reads. Each mean over
    the axis is its sum divided by d, as .mean() computes it."""
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivar
    return xhat * gain + bias, xhat, ivar


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """layer_norm_kernel, recorded as one tape node."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError("layer_norm gain/bias must have shape (d,)")
    y, xhat, ivar = layer_norm_kernel(x.data, gain.data, bias.data, eps)

    def grads():
        def dx(g):
            gh = g * gain.data
            m1 = gh.sum(axis=-1, keepdims=True) / d
            m2 = (gh * xhat).sum(axis=-1, keepdims=True) / d
            return ivar * (gh - m1 - xhat * m2)

        return (dx, lambda g: (g * xhat).reshape(-1, d).sum(axis=0),
                lambda g: g.reshape(-1, d).sum(axis=0))

    return _result(y, (x, gain, bias), grads)


def dropout(x: Tensor, rate: float, training: bool) -> Tensor:
    """Inverted dropout: scales survivors by 1/(1-rate) at train time,
    the mask drawn from the active Graph's rng."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    graph = Graph.current()
    if graph is None:
        raise RuntimeError("training-mode dropout needs an active Graph")
    keep = graph.rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    # the tape keeps the boolean mask, an eighth of the float factor
    return from_op(x, x.data * (keep * scale), lambda g: g * (keep * scale))


# -- padded batches ------------------------------------------------------------


def length_mask(lens, n: int) -> np.ndarray:
    """(B, n) bool mask, True on row b's first lens[b] of n entries: the
    one statement of which entries of a padded batch are real."""
    return np.arange(n) < np.asarray(lens)[:, None]


def pad_batch(seqs: Sequence, fill) -> Tuple[np.ndarray, np.ndarray]:
    """N (n_i, ...) sequences as one (N, n_max, ...) array, fill past
    each one's end, and their lengths."""
    lens = np.array([len(x) for x in seqs])
    out = np.full((len(seqs), lens.max()) + np.shape(seqs[0])[1:], fill)
    for i, x in enumerate(seqs):
        out[i, :lens[i]] = x
    return out, lens


# -- convolution, pooling, embedding ------------------------------------------


def conv_len(n, kernel: int, stride: int, padding: int):
    """Positions a convolution keeps of n input positions (an int or an
    array) along one axis: floor((n + 2*padding - kernel) / stride) + 1."""
    return (n + 2 * padding - kernel) // stride + 1


def conv(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
         padding: int = 0) -> Tensor:
    """Convolution of every entry of a channels-last batch x (B, *spatial,
    c_in) alike over its d spatial axes; weight (c_out, c_in, *kernel),
    so d = weight.ndim - 2, with the same stride and zero padding on
    every spatial axis. The result is (B, *out, c_out), out[i] being
    conv_len(spatial[i], kernel[i], stride, padding).

    One matrix product over im2col columns ordered (kernel entries,
    c_in): a column block per kernel offset, in row-major order.
    """
    d = weight.ndim - 2
    if d < 1 or x.ndim != d + 2:
        raise DimensionError(f"conv takes x (B, *spatial, c_in) and weight "
                             f"(c_out, c_in, *kernel) of as many spatial "
                             f"axes, got {x.shape} and {weight.shape}")
    n_b, *size, c_in = x.shape
    c_out, w_cin, *kernel = weight.shape
    if w_cin != c_in:
        raise DimensionError(f"conv channel mismatch: input {c_in}, weight {w_cin}")
    if bias.shape != (c_out,):
        raise DimensionError("conv bias must have shape (c_out,)")
    out = [conv_len(n, k, stride, padding) for n, k in zip(size, kernel)]
    if min(out) < 1:
        raise DimensionError(f"conv kernel {tuple(kernel)} does not fit input "
                             f"{tuple(size)} with padding {padding}")
    spatial = range(1, d + 1)
    n_pix, n_col = n_b * math.prod(out), math.prod(kernel) * c_in

    def columns() -> np.ndarray:
        # windows (B, *out, c_in, *kernel) -> (B*prod(out), n_col), c_in
        # moved last; prod(kernel) times x's size, so the backward
        # rebuilds them instead of the tape keeping them
        xpad = np.pad(x.data, ((0, 0), *((padding, padding),) * d, (0, 0))) \
            if padding else x.data
        win = np.lib.stride_tricks.sliding_window_view(xpad, kernel,
                                                       axis=tuple(spatial))
        win = win[(slice(None), *(slice(None, None, stride),) * d)]
        return win.transpose(0, *spatial, *range(d + 2, 2 * d + 2),
                             d + 1).reshape(n_pix, n_col)

    w2 = weight.data.transpose(0, *range(2, d + 2), 1).reshape(c_out, n_col)
    y = columns() @ w2.T + bias.data

    def grads():
        def dx(g):
            gcols = (g.reshape(n_pix, c_out) @ w2).reshape(
                n_b, *out, *kernel, c_in)
            gxpad = np.zeros((n_b, *(n + 2 * padding for n in size), c_in))
            for off in itertools.product(*map(range, kernel)):
                hit = (slice(o, o + stride * m, stride)
                       for o, m in zip(off, out))
                gxpad[(slice(None), *hit)] += gcols[(Ellipsis, *off,
                                                     slice(None))]
            return gxpad[(slice(None), *(slice(padding, padding + n)
                                         for n in size))]

        def dweight(g):
            return (g.reshape(n_pix, c_out).T @ columns()).reshape(
                c_out, *kernel, c_in).transpose(0, d + 1, *spatial)

        return dx, dweight, lambda g: g.reshape(n_pix, c_out).sum(axis=0)

    return _result(y.reshape(n_b, *out, c_out), (x, weight, bias), grads)


def max_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Max pooling over axes 1 and 2 of a channels-last batch (B, h, w,
    c) in windows of kernel x kernel, the stride the kernel; trailing
    rows/cols that do not fill a window are dropped. Ties route the
    gradient to the first maximum, the window read row by row."""
    n_b, h, w, c = x.shape
    h_out, w_out = h // kernel, w // kernel
    if h_out < 1 or w_out < 1:
        raise DimensionError("max_pool2d window does not fit input")
    trimmed = x.data[:, :h_out * kernel, :w_out * kernel]
    # (B, h_out, kh, w_out, kw, c) -> (B, h_out, w_out, c, kh*kw)
    flat = trimmed.reshape(n_b, h_out, kernel, w_out, kernel, c).transpose(
        0, 1, 3, 5, 2, 4).reshape(n_b, h_out, w_out, c, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def grad(g):
        gflat = np.zeros(flat.shape)
        np.put_along_axis(gflat, arg[..., None], g[..., None], axis=-1)
        gx = np.zeros_like(x.data)
        gx[:, :h_out * kernel, :w_out * kernel] = gflat.reshape(
            n_b, h_out, w_out, c, kernel, kernel).transpose(
                0, 1, 4, 2, 5, 3).reshape(n_b, h_out * kernel, w_out * kernel, c)
        return gx

    return from_op(x, out, grad)


def embedding_lookup(ids: Sequence[int], table: Tensor) -> Tensor:
    """Rows of `table` selected by integer ids, a sequence or an array of
    any rank, giving ids.shape + (d,); the gradient scatters back."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim < 1:
        raise DimensionError("embedding ids must be a sequence")
    vocab = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        bad = int(idx[(idx < 0) | (idx >= vocab)][0])
        raise IndexError(f"token id {bad} outside table of {vocab} rows")
    return table[idx]


# -- fused LSTM recurrence ---------------------------------------------------
#
# Gate order i, f, g, o in the fused (d_in, 4d) input and (d, 4d) recurrent
# weights. The helpers take (B, 4d) blocks of gates, one row per batch row;
# lstm_scan and lstm_cell both run on them, so the two ops share one set of
# gate math.


def _lstm_step(z: np.ndarray, c_prev: np.ndarray):
    """One step from gate pre-activations z (..., 4d) and the previous cell
    c_prev (..., d): returns h, c, the gate activations (sigmoid on i, f, o,
    tanh on g) and tanh(c), the last two for the backward."""
    d = c_prev.shape[-1]
    act = _sigmoid(z)
    act[..., 2 * d:3 * d] = np.tanh(z[..., 2 * d:3 * d])
    c = act[..., d:2 * d] * c_prev + act[..., :d] * act[..., 2 * d:3 * d]
    tc = np.tanh(c)
    return act[..., 3 * d:] * tc, c, act, tc


def _lstm_back_factors(act: np.ndarray, tc: np.ndarray, c_prev: np.ndarray):
    """The parts of the backward that need no upstream gradient, for any
    number of steps at once: the (..., 4d) factor m with
    dz = [dc, dc, dc, dh] * m, the factor o * tanh'(c) that moves dh into
    dc, and the forget gate f that carries dc to the previous step."""
    d = tc.shape[-1]
    i, f, g, o = (act[..., :d], act[..., d:2 * d], act[..., 2 * d:3 * d],
                  act[..., 3 * d:])
    deriv = act * (1.0 - act)
    deriv[..., 2 * d:3 * d] = 1.0 - g * g
    m = np.concatenate([g, c_prev, i, tc], axis=-1) * deriv
    return m, o * (1.0 - tc * tc), f


def _lstm_step_back(dh: np.ndarray, dc: np.ndarray, m: np.ndarray,
                    ot: np.ndarray, f: np.ndarray):
    """Backward through one _lstm_step: dL/dh and dL/dc of its outputs give
    dL/dz of its pre-activations and dL/dc_prev."""
    dc = dc + dh * ot
    return np.concatenate([dc, dc, dc, dh], axis=-1) * m, dc * f


def _lstm_check(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor) -> int:
    d = w_hh.shape[0]
    if (w_ih.shape != (x.shape[-1], 4 * d)
            or w_hh.shape != (d, 4 * d) or bias.shape != (4 * d,)):
        raise DimensionError(f"lstm shapes disagree: x {x.shape}, w_ih "
                             f"{w_ih.shape}, w_hh {w_hh.shape}, "
                             f"bias {bias.shape}")
    return d


def lstm_scan(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor,
              lens: Sequence[int], reverse: bool = False) -> Tensor:
    """An LSTM over every row of a padded (B, t, d_in) batch whose row b
    holds lens[b] real steps, from the zero state, recorded as one tape
    node; returns the hidden states in input order, (B, t, d), zero past
    each row's end.

    The input projection x @ w_ih + bias runs once for the whole batch
    and a numpy loop carries the recurrence of every row at once.
    `reverse` scans each row right to left from its own last real step,
    as packed sequences do. Steps past a row's end come after all of its
    real ones in scan order, so they never reach its outputs, and they
    get no gradient. The backward is hand-written BPTT: per-step gate
    gradients dZ, then dW_ih = x^T dZ, dW_hh = H_prev^T dZ, db = sum dZ
    and dx = dZ W_ih^T.
    """
    if x.ndim != 3:
        raise DimensionError(f"lstm_scan takes a padded (B, t, d_in) batch, "
                             f"got {x.shape}")
    d = _lstm_check(x, w_ih, w_hh, bias)
    n_b, n, d_in = x.shape
    lens = np.reshape(lens, n_b)
    # scan step k of row b reads input step pos[b, k]; real[b, k] marks the
    # steps that lie within the row
    pos = np.broadcast_to(np.arange(n), (n_b, n))
    real = length_mask(lens, n)
    if reverse:
        pos = np.where(real, lens[:, None] - 1 - pos, pos)
    rows = np.arange(n_b)[:, None]
    xw = x.data @ w_ih.data + bias.data
    xw = np.ascontiguousarray(xw[rows, pos].transpose(1, 0, 2))  # (n, B, 4d)
    w = w_hh.data
    # row k + 1 of hs and cs is the state after scan step k
    hs = np.zeros((n + 1, n_b, d))
    cs = np.zeros((n + 1, n_b, d))
    act = np.empty((n, n_b, 4 * d))
    tc = np.empty((n, n_b, d))
    for k in range(n):
        hs[k + 1], cs[k + 1], act[k], tc[k] = _lstm_step(xw[k] + hs[k] @ w,
                                                         cs[k])
    out = np.zeros((n_b, n, d))
    out[rows, pos] = np.where(real[..., None], hs[1:].transpose(1, 0, 2), 0.0)

    def grads():
        @_once
        def bptt(g):
            # the gate gradients dz in scan order, (n*B, 4d), and in input
            # order, dz_in
            m, ot, f = _lstm_back_factors(act, tc, cs[:-1])
            g = np.where(real[..., None], g[rows, pos], 0.0)
            g = g.transpose(1, 0, 2)
            dz = np.empty((n, n_b, 4 * d))
            dh = np.zeros((n_b, d))
            dc = np.zeros((n_b, d))
            w_t = w.T
            for k in range(n - 1, -1, -1):
                dz[k], dc = _lstm_step_back(g[k] + dh, dc, m[k], ot[k], f[k])
                dh = dz[k] @ w_t
            dz_in = np.empty((n_b, n, 4 * d))
            dz_in[rows, pos] = dz.transpose(1, 0, 2)
            return dz.reshape(-1, 4 * d), dz_in.reshape(-1, 4 * d)

        return (lambda g: (bptt(g)[1] @ w_ih.data.T).reshape(x.shape),
                lambda g: x.data.reshape(-1, d_in).T @ bptt(g)[1],
                lambda g: hs[:-1].reshape(-1, d).T @ bptt(g)[0],
                lambda g: bptt(g)[1].sum(axis=0))

    return _result(out, (x, w_ih, w_hh, bias), grads)


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor, w_hh: Tensor,
              bias: Tensor) -> Tensor:
    """One LSTM step for B rows, recorded as one tape node: input x
    (B, d_in) and state h, c (B, d) give the new state as [h | c], (B, 2d).
    """
    d = _lstm_check(x, w_ih, w_hh, bias)
    if x.ndim != 2 or h.shape != (x.shape[0], d) or c.shape != h.shape:
        raise DimensionError(f"lstm_cell takes x (B, d_in) and states (B, "
                             f"{d}), got {x.shape}, {h.shape} and {c.shape}")
    z = x.data @ w_ih.data + h.data @ w_hh.data + bias.data
    h_new, c_new, act, tc = _lstm_step(z, c.data)

    def grads():
        back = _once(lambda g: _lstm_step_back(
            g[:, :d], g[:, d:], *_lstm_back_factors(act, tc, c.data)))
        return (lambda g: back(g)[0] @ w_ih.data.T,
                lambda g: back(g)[0] @ w_hh.data.T,
                lambda g: back(g)[1],
                lambda g: x.data.T @ back(g)[0],
                lambda g: h.data.T @ back(g)[0],
                lambda g: back(g)[0].sum(axis=0))

    return _result(np.concatenate([h_new, c_new], axis=1),
                   (x, h, c, w_ih, w_hh, bias), grads)


# -- head-batched attention ---------------------------------------------------
#
# Queries, keys and values travel as (..., n, H*d) rows with the heads side
# by side; inside the ops the heads become a batch axis, (..., H, n, d), and
# leading axes broadcast as in np.matmul.

MASK_BIAS = -1e9


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    # (..., n, H*d) -> (..., H, n, d), a view
    return x.reshape(x.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    # (..., H, n, d) -> (..., n, H*d)
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (-1,))


def _heads_check(a: Tensor, n_heads: int, what: str) -> None:
    if a.ndim < 2 or a.shape[-1] % n_heads:
        raise DimensionError(f"{what} of shape {a.shape} do not split into "
                             f"{n_heads} heads")


def attention_weights_kernel(q: np.ndarray, k: np.ndarray, n_heads: int,
                             mask: Optional[np.ndarray] = None):
    """Per-head attention weights softmax(q_h k_h^T / sqrt(d) + bias) of
    queries (..., n_q, H*d) over keys (..., n_k, H*d), as (..., H, n_q,
    n_k), and the unmasked softmax, heads and scale the backward reads.

    A mask is a boolean array broadcastable to the weights, True where a
    query may see a key. Disallowed pairs get a MASK_BIAS additive bias
    before the softmax and are forced to exactly 0.0 after it, so masking
    holds bit-exactly whatever the scale of the scores.
    """
    qh, kh = _split_heads(q, n_heads), _split_heads(k, n_heads)
    # correctly rounded, as np.sqrt is
    scale = 1.0 / math.sqrt(qh.shape[-1])
    s = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
    if mask is not None:
        if not _fits(mask.shape, s.shape):
            raise DimensionError(f"mask shape {mask.shape} does not fit "
                                 f"weights {s.shape}")
        s = s + np.where(mask, 0.0, MASK_BIAS)
    y = np.exp(s - s.max(axis=-1, keepdims=True))
    y /= y.sum(axis=-1, keepdims=True)
    return (y if mask is None else y * mask), y, qh, kh, scale


def attention_weights(q: Tensor, k: Tensor, n_heads: int,
                      mask: Optional[np.ndarray] = None) -> Tensor:
    """attention_weights_kernel's weights, recorded as one tape node."""
    _heads_check(q, n_heads, "queries")
    _heads_check(k, n_heads, "keys")
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"query width {q.shape[-1]} != key width "
                             f"{k.shape[-1]}")
    try:
        w, y, qh, kh, scale = attention_weights_kernel(q.data, k.data,
                                                       n_heads, mask)
    except ValueError:
        raise DimensionError(f"query and key batch axes disagree: {q.shape} "
                             f"and {k.shape}") from None

    def grads():
        @_once
        def ds(g):
            if mask is not None:
                g = g * mask
            return y * (g - (g * y).sum(axis=-1, keepdims=True)) * scale

        return (lambda g: _reduce_to(_merge_heads(np.matmul(ds(g), kh)),
                                     q.shape),
                lambda g: _reduce_to(_merge_heads(
                    np.matmul(ds(g).swapaxes(-1, -2), qh)), k.shape))

    return _result(w, (q, k), grads)


def mix_heads_kernel(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-head weighted sums of values (..., n_k, H*d) under weights
    (..., H, n_q, n_k), heads merged back to (..., n_q, H*d)."""
    return _merge_heads(np.matmul(w, _split_heads(v, w.shape[-3])))


def mix_heads(w: Tensor, v: Tensor) -> Tensor:
    """mix_heads_kernel, recorded as one tape node."""
    if w.ndim < 3:
        raise DimensionError(f"weights of shape {w.shape} have no head axis")
    n_heads = w.shape[-3]
    _heads_check(v, n_heads, "values")
    if v.shape[-2] != w.shape[-1]:
        raise DimensionError(f"weights over {w.shape[-1]} keys cannot mix "
                             f"{v.shape[-2]} values")
    try:
        out = mix_heads_kernel(w.data, v.data)
    except ValueError:
        raise DimensionError(f"weight and value batch axes disagree: "
                             f"{w.shape} and {v.shape}") from None
    return _result(out, (w, v), lambda: (
        lambda g: _reduce_to(np.matmul(_split_heads(g, n_heads), _split_heads(
            v.data, n_heads).swapaxes(-1, -2)), w.shape),
        lambda g: _reduce_to(_merge_heads(np.matmul(
            w.data.swapaxes(-1, -2), _split_heads(g, n_heads))), v.shape)))


# -- backward pass and gradient checking --------------------------------------


def _spent() -> None:
    """Raised on reaching an op result whose tape a backward has spent."""
    raise RuntimeError("this tensor's tape was spent by an earlier "
                       "backward; rebuild the graph")


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every requires_grad leaf under a scalar loss.

    A second call on the same loss raises; gradients from separate losses
    accumulate into the leaves, which is what gradient accumulation relies
    on. The tape is spent as it runs: once an op's backward has run, its
    result drops its gradient and its parents, so memory falls during the
    pass instead of holding every intermediate gradient on top of the
    forward's tape until the end. A later loss built on a spent result
    cannot reach the leaves through it, so its backward raises.
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran for this loss; rebuild the graph")
    loss._backward_done = True
    if not loss.requires_grad:
        return

    # Parents always predate children, so sorting ancestors by descending
    # creation id is a valid reverse topological order.
    seen = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        if node._grads is _spent:
            _spent()
        seen[node._id] = node
        stack.extend(p for p in node._parents if p.requires_grad)
    order = sorted(seen.values(), key=lambda t: t._id, reverse=True)
    del seen, node

    loss._accumulate(np.ones_like(loss.data))
    for i in range(len(order)):
        node, order[i] = order[i], None
        if node._grads is None:
            continue
        g = node.grad
        if g is not None:
            for p, grad in zip(node._parents, node._grads()):
                if p.requires_grad:
                    p._accumulate(grad(g))
        node.grad, node._grads, node._parents = None, _spent, ()


def grad_check(f: Callable[..., Tensor], xs: Sequence[Tensor], h: float = 1e-5,
               max_coords: Optional[int] = None, rng=None,
               atol: float = 0.0) -> float:
    """Worst relative error between autodiff and central differences.

    `f(*xs)` must be a deterministic scalar-valued tensor function. Each
    coordinate of each input is perturbed by +-h; with `max_coords` set,
    a random subset of coordinates per tensor is checked instead of all
    (used by the large end-to-end suites to stay within budget).
    Relative error uses denominator max(|analytic|, |numeric|, 1e-8).

    `atol` > 0 treats a coordinate as passing when the absolute
    difference is below it, regardless of relative error. Deep
    compositions need this: against a loss of magnitude ~10, float64
    central differences carry ~1e-11 absolute noise, so a coordinate
    whose true gradient is 1e-8 cannot be resolved relatively even
    though both values agree to eight decimal places. Leave at 0 for
    op-level checks.
    """
    xs = list(xs)
    for x in xs:
        x.grad = None
    loss = f(*xs)
    backward(loss)
    analytic = [None if x.grad is None else x.grad.copy() for x in xs]

    if rng is None:
        rng = np.random.default_rng(0)
    elif isinstance(rng, int):
        rng = np.random.default_rng(rng)

    worst = 0.0
    for x, an in zip(xs, analytic):
        if an is None:
            an = np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                up = f(*xs).item()
            flat[i] = orig - h
            with no_grad():
                down = f(*xs).item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = an.reshape(-1)[i]
            diff = abs(numeric - a)
            if diff <= atol:
                continue
            worst = max(worst, diff / max(abs(numeric), abs(a), 1e-8))
    return worst
