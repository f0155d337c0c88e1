"""Scaled dot-product attention, multi-head attention, causal masking and
sinusoidal positional encodings.

Masking convention: a mask is a boolean (n_q, n_k) array where True marks
an allowed query/key pair. Disallowed pairs get a -1e9 additive bias
before the softmax and are forced to exactly 0.0 after it, so causality
holds bit-exactly regardless of input scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .tensor import Tensor

MASK_BIAS = -1e9
MAX_PE_LEN = 4096


@dataclass
class AttentionConfig:
    d_att: int = 256
    d_head: int = 4
    mask_mode: str = "none"  # none | causal

    def __post_init__(self):
        if self.d_head < 1:
            raise DimensionError(f"d_head must be >= 1, got {self.d_head}")
        if self.mask_mode not in ("none", "causal"):
            raise DimensionError(f"unknown mask_mode {self.mask_mode!r}")


@dataclass
class AttentionRecord:
    """Per-head weight matrices captured during a forward pass.

    `weights` rows are probability distributions over key positions;
    masked entries are exactly 0. `logits` holds the pre-softmax scaled
    scores without the mask bias. Both stay differentiable so losses can
    be placed on the attention matrix itself.
    """

    weights: List[Tensor] = field(default_factory=list)
    logits: List[Tensor] = field(default_factory=list)

    def dump_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("head,row,col,weight\n")
            for h, w in enumerate(self.weights):
                mat = w.data
                for r in range(mat.shape[0]):
                    for c in range(mat.shape[1]):
                        f.write(f"{h},{r},{c},{float(mat[r, c])!r}\n")


def causal_mask(n: int) -> np.ndarray:
    """Lower-triangular allowed matrix: position t may look at u <= t."""
    return np.tril(np.ones((n, n), dtype=bool))


def _aligned_causal_mask(n_q: int, n_k: int) -> np.ndarray:
    # queries are the last n_q positions of the key sequence
    if n_q > n_k:
        raise DimensionError(f"causal mask needs n_q <= n_k, got {n_q} > {n_k}")
    full = causal_mask(n_k)
    return full[n_k - n_q:]


def dot_attention(xq: Tensor, xk: Tensor, xv: Tensor,
                  mask: Optional[np.ndarray] = None,
                  record: Optional[AttentionRecord] = None) -> Tensor:
    """softmax(Xq Xk^T / sqrt(d)) Xv with optional masking.

    Operands are (n, d) matrices or carry leading batch axes, which
    broadcast as in np.matmul; a mask is (n_q, n_k) and applies to every
    batch entry alike.
    """
    if xq.ndim < 2 or xk.ndim < 2 or xv.ndim < 2:
        raise DimensionError("dot_attention operands must have rank >= 2")
    d = xq.shape[-1]
    if xk.shape[-1] != d:
        raise DimensionError(f"query dim {d} != key dim {xk.shape[-1]}")
    if xv.shape[-2] != xk.shape[-2]:
        raise DimensionError(f"key count {xk.shape[-2]} != value count "
                             f"{xv.shape[-2]}")
    logits = (xq @ xk.T) * (1.0 / math.sqrt(d))
    if mask is not None:
        if mask.shape != logits.shape[-2:]:
            raise DimensionError(f"mask shape {mask.shape} does not match scores "
                                 f"{logits.shape[-2:]}")
        bias = np.where(mask, 0.0, MASK_BIAS)
        weights = T.softmax(logits + Tensor(bias))
        weights = weights * Tensor(mask.astype(np.float64))
    else:
        weights = T.softmax(logits)
    if record is not None:
        record.weights.append(weights)
        record.logits.append(logits)
    return weights @ xv


@dataclass
class MhaWeights:
    """One (wq, wk, wv) triple per head plus the shared output projection.

    Per-head projections are d_att x d_att, so each head emits the full
    feature width; the concat of d_head such outputs is brought back to
    d_att by w_head (d_att*d_head x d_att). No biases anywhere.
    """

    wq: List[Tensor]
    wk: List[Tensor]
    wv: List[Tensor]
    w_head: Tensor

    def check(self, d_att: int, d_head: int) -> None:
        if not (len(self.wq) == len(self.wk) == len(self.wv) == d_head):
            raise DimensionError(f"expected {d_head} heads of projections")
        for w in (*self.wq, *self.wk, *self.wv):
            if w.shape != (d_att, d_att):
                raise DimensionError(f"per-head projection must be "
                                     f"({d_att}, {d_att}), got {w.shape}")
        if self.w_head.shape != (d_att * d_head, d_att):
            raise DimensionError(f"w_head must be ({d_att * d_head}, {d_att}), "
                                 f"got {self.w_head.shape}")


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor,
                         config: AttentionConfig, weights: MhaWeights,
                         mask: Optional[np.ndarray] = None,
                         record: Optional[AttentionRecord] = None) -> Tensor:
    """Concatenated per-head dot attention, projected back to d_att."""
    weights.check(config.d_att, config.d_head)
    if mask is None and config.mask_mode == "causal":
        mask = _aligned_causal_mask(q.shape[0], k.shape[0])
    heads = []
    for h in range(config.d_head):
        heads.append(dot_attention(q @ weights.wq[h], k @ weights.wk[h],
                                   v @ weights.wv[h], mask=mask, record=record))
    return T.concat(heads, axis=1) @ weights.w_head


class FusedHeads:
    """A multi-head attention's per-head projections laid side by side,
    (d_att, H*d_att) each, for step-wise decoding: one product projects
    every head of every row. Keys and values come out as (..., H, n,
    d_att), which dot_attention takes with the heads as a batch axis.
    Built from MhaWeights per utterance, so it follows the parameters."""

    def __init__(self, weights: MhaWeights):
        self.n_heads = len(weights.wq)
        self.wq, self.wk, self.wv = (T.concat(ws, axis=1) for ws in
                                     (weights.wq, weights.wk, weights.wv))
        self.w_head = weights.w_head

    def _split(self, x: Tensor) -> Tensor:
        # (..., n, H*d) -> (..., H, n, d)
        *lead, n, width = x.shape
        k = len(lead)
        y = x.reshape(tuple(lead) + (n, self.n_heads, width // self.n_heads))
        return T.transpose(y, tuple(range(k)) + (k + 1, k, k + 2))

    def keys_values(self, x: Tensor):
        """Per-head keys and values of the rows of x, (..., n, d_att)."""
        return self._split(x @ self.wk), self._split(x @ self.wv)

    def attend(self, q_rows: Tensor, keys: Tensor, values: Tensor) -> Tensor:
        """Attention of one query row per hypothesis, (B, d_att), over
        keys and values shared by every row, (H, n_k, d_att), or held per
        row, (B, H, n_k, d_att); equals multi_head_attention of the row."""
        b, d = q_rows.shape
        q = (q_rows @ self.wq).reshape(b, self.n_heads, 1, d)
        out = dot_attention(q, keys, values)
        return out.reshape(b, self.n_heads * d) @ self.w_head


def positional_encoding(max_len: int, d_att: int) -> np.ndarray:
    """Sinusoidal table: PE[pos, 2i] = sin(pos / 10000^(2i/d)),
    PE[pos, 2i+1] = cos(pos / 10000^(2i/d))."""
    if max_len > MAX_PE_LEN:
        raise DimensionError(f"positional encoding capped at {MAX_PE_LEN} "
                             f"positions, requested {max_len}")
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    even = np.arange(0, d_att, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, even / d_att)
    pe = np.zeros((max_len, d_att))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d_att // 2])
    return pe


_pe_cache: dict = {}


def positional_rows(n: int, d: int) -> np.ndarray:
    """PE[:n] for width d, from a table cached per width."""
    if n > MAX_PE_LEN:
        raise DimensionError(f"sequence of {n} frames exceeds the positional "
                             f"encoding cap of {MAX_PE_LEN}")
    if d not in _pe_cache:
        _pe_cache[d] = positional_encoding(MAX_PE_LEN, d)
    return _pe_cache[d][:n]


def add_positional_encoding(x: Tensor) -> Tensor:
    """x + PE[:len(x)]."""
    n, d = x.shape
    return x + Tensor(positional_rows(n, d))


def scaled_positional_encoding(x: Tensor, alpha: Tensor) -> Tensor:
    """x + alpha * PE[:len(x)] with a learnable scalar alpha."""
    n, d = x.shape
    return x + alpha * Tensor(positional_rows(n, d))
