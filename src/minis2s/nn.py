"""Parameterized layers on top of the tensor engine.

Modules register parameters (and submodules) automatically on attribute
assignment, so `named_parameters()` walks the whole model with stable
dotted names; the checkpoint writer relies on that ordering, and so does
pack_parameters, which an optimizer calls to lay the parameters out as
views of one vector. `parameter` makes every trainable tensor. Weight
init is uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out)); biases
start at zero. Every constructor that owns weights takes an explicit
numpy Generator so that a single seed reproduces a model bit-exactly.
A model that a checkpoint overwrites is built under `from_checkpoint`,
which draws nothing and refuses a model over twice its checkpoint.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import attention as A
from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


_budget = None      # inside from_checkpoint: [elements left, error text]


@contextlib.contextmanager
def from_checkpoint(total: int, cfg_path: str, ckpt_path: str):
    """Context manager for building the model of cfg_path that the
    checkpoint ckpt_path, of `total` values, then overwrites: `parameter`
    draws nothing, and charges each parameter's size against twice
    `total` before allocating it, raising ConfigError naming both files
    past that. A model within it is built, so that load_into_model can
    name the parameters it and the checkpoint do not share."""
    global _budget
    prev, _budget = _budget, [2 * total, f"{cfg_path}: cannot build the "
                              f"model it describes (over twice the {total} "
                              f"values {ckpt_path} holds)"]
    try:
        yield
    finally:
        _budget = prev


def parameter(shape: tuple, init) -> Tensor:
    """The one maker of trainable tensors: init(shape), a fill such as
    np.zeros or a draw; inside from_checkpoint, an undrawn array."""
    if _budget is None:
        data = init(shape)
    elif math.prod(shape) > _budget[0]:
        raise ConfigError(_budget[1])
    else:
        _budget[0] -= math.prod(shape)
        data = np.empty(shape)
    return Tensor(data, requires_grad=True)


def glorot(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> Tensor:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(shape, functools.partial(rng.uniform, -s, s))


def flat_views(flat: np.ndarray, params: Sequence[Tensor]) -> List[np.ndarray]:
    """Consecutive slices of the vector flat, one per parameter in order,
    each reshaped to its parameter's shape: views, not copies."""
    views, lo = [], 0
    for p in params:
        views.append(flat[lo:lo + p.size].reshape(p.shape))
        lo += p.size
    return views


def pack_parameters(params: Sequence[Tensor]) -> np.ndarray:
    """Copy the values of params, in order, into one new contiguous
    float64 vector and make each p.data its view of it (flat_views).
    Names, shapes and values stay as they were, so checkpoints are the
    same bytes; from here on a write to p.data writes the vector, and a
    write to the vector moves p.data. Returns the vector."""
    flat = np.empty(sum(p.size for p in params))
    for p, view in zip(params, flat_views(flat, params)):
        view[...] = p.data
        p.data = view
    return flat


class Module:
    """Base class: tracks parameters and submodules, owns a training flag."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield prefix + name, p
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def train(self) -> "Module":
        object.__setattr__(self, "training", True)
        for m in self._modules.values():
            m.train()
        return self

    def eval(self) -> "Module":
        object.__setattr__(self, "training", False)
        for m in self._modules.values():
            m.eval()
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._list: List[Module] = []
        for m in mods:
            self.append(m)

    def append(self, mod: Module) -> None:
        self._modules[str(len(self._list))] = mod
        self._list.append(mod)

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i) -> Module:
        return self._list[i]


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.weight = glorot(rng, (d_in, d_out), d_in, d_out)
        self.bias = parameter((d_out,), np.zeros) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    def __init__(self, d: int):
        super().__init__()
        self.gain = parameter((d,), np.ones)
        self.bias = parameter((d,), np.zeros)

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class Dropout(Module):
    def __init__(self, rate: float):
        super().__init__()
        self.rate = rate

    def forward(self, x: Tensor) -> Tensor:
        return T.dropout(x, self.rate, training=self.training)


class Embedding(Module):
    def __init__(self, vocab_size: int, d: int, rng: np.random.Generator):
        super().__init__()
        self.table = glorot(rng, (vocab_size, d), vocab_size, d)

    def forward(self, ids) -> Tensor:
        return T.embedding_lookup(ids, self.table)


class Conv(Module):
    """A tensor.conv over as many spatial axes as `kernel`, a tuple such
    as (5,) or (3, 3), holds; the weight is (c_out, c_in, *kernel)."""

    def __init__(self, c_in: int, c_out: int, kernel: Tuple[int, ...],
                 rng: np.random.Generator, stride: int = 1, padding: int = 0):
        super().__init__()
        self.stride = stride
        self.padding = padding
        k = math.prod(kernel)
        self.weight = glorot(rng, (c_out, c_in) + kernel, c_in * k, c_out * k)
        self.bias = parameter((c_out,), np.zeros)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv(x, self.weight, self.bias, self.stride, self.padding)


class MultiHeadAttention(Module):
    """Owns the projections of H heads of full width d_att: wq, wk and wv,
    (d_att, H*d_att) with head h in columns h*d_att:(h+1)*d_att, and
    w_head, (H*d_att, d_att). forward returns (output, weights) from
    attention.multi_head_attention.

    One draw of (H, 3, d_att, d_att) fills wq, wk and wv head by head (q,
    k and v of head 0 first): the values of per-head glorot draws.
    """

    def __init__(self, d_att: int, d_head: int, rng: np.random.Generator):
        super().__init__()
        self.n_heads = d_head
        s = np.sqrt(6.0 / (d_att + d_att))
        qkv = functools.cache(
            lambda: rng.uniform(-s, s, size=(d_head, 3, d_att, d_att))
            .transpose(1, 2, 0, 3).reshape(3, d_att, d_head * d_att))
        self.wq, self.wk, self.wv = (
            parameter((d_att, d_head * d_att), lambda _, i=i: qkv()[i])
            for i in range(3))
        self.w_head = glorot(rng, (d_att * d_head, d_att), d_att * d_head, d_att)

    def forward(self, q: Tensor, k: Tensor, v: Tensor,
                mask: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
        return A.multi_head_attention(q, k, v, self.wq, self.wk, self.wv,
                                      self.w_head, self.n_heads, mask)


class FeedForward(Module):
    """Position-wise two-layer network with ReLU."""

    def __init__(self, d_att: int, d_ff: int, rng: np.random.Generator):
        super().__init__()
        self.lin1 = Linear(d_att, d_ff, rng)
        self.lin2 = Linear(d_ff, d_att, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.lin2(T.relu(self.lin1(x)))


class LSTMCell(Module):
    """One LSTM step for B rows, fused into a single tape node
    (tensor.lstm_cell). Gate order i, f, g, o in the fused weight
    matrices."""

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator):
        super().__init__()
        self.d_hidden = d_hidden
        self.w_ih = glorot(rng, (d_in, 4 * d_hidden), d_in, 4 * d_hidden)
        self.w_hh = glorot(rng, (d_hidden, 4 * d_hidden), d_hidden, 4 * d_hidden)
        self.bias = parameter((4 * d_hidden,), np.zeros)

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> Tuple[Tensor, Tensor]:
        d = self.d_hidden
        hc = T.lstm_cell(x, h, c, self.w_ih, self.w_hh, self.bias)
        return hc[:, :d], hc[:, d:]


class LSTM(Module):
    """Single-direction LSTM over the rows of a padded (B, t, d_in) batch,
    row b holding lens[b] real steps; returns (B, t, d_hidden), zero past
    each row's end.

    The whole scan is one fused tape node (tensor.lstm_scan): the input
    projection runs once for the batch and the recurrence loops in
    numpy. The weights live in `cell` (gate order i, f, g, o), so the
    parameters are named cell.w_ih, cell.w_hh and cell.bias.
    `reverse=True` scans right to left and emits outputs back in input
    order, each row from its own last step: the backward half of a BLSTM.
    """

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator,
                 reverse: bool = False):
        super().__init__()
        self.cell = LSTMCell(d_in, d_hidden, rng)
        self.reverse = reverse

    def forward(self, x: Tensor, lens) -> Tensor:
        cell = self.cell
        return T.lstm_scan(x, cell.w_ih, cell.w_hh, cell.bias, lens,
                           self.reverse)
