"""Multi-head attention, causal masking and sinusoidal positional
encodings. add_positional_encoding is the one positional add of every
forward and every search or synthesis step: plain, or scaled by a
learnable alpha, from any start position.

Masking convention: a mask is a boolean array, (n_q, n_k) or anything
that broadcasts to the (..., H, n_q, n_k) weights, where True marks an
allowed query/key pair. Disallowed pairs get a -1e9 additive bias before
the softmax and are forced to exactly 0.0 after it, so causality holds
bit-exactly regardless of input scale.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .tensor import Tensor

MAX_PE_LEN = 4096


def causal_mask(n: int) -> np.ndarray:
    """Lower-triangular allowed matrix: position t may look at u <= t."""
    return np.tril(np.ones((n, n), dtype=bool))


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, wq: Tensor,
                         wk: Tensor, wv: Tensor, w_head: Tensor, n_heads: int,
                         mask: Optional[np.ndarray] = None
                         ) -> Tuple[Tensor, Tensor]:
    """Multi-head attention of queries q over keys k and values v, rows
    of width d_att with any leading batch axes; returns the output, q's
    shape, and the weights, (..., H, n_q, n_k).

    wq, wk and wv are (d_att, H*d_att): each head projects to the full
    width, and w_head (H*d_att, d_att) brings the merged heads back. The
    tape records the projections, the two head-batched ops
    (tensor.attention_weights, tensor.mix_heads) and the output projection.
    """
    d = q.shape[-1]
    if wq.shape != (d, n_heads * d) or w_head.shape != (n_heads * d, d):
        raise DimensionError(f"{n_heads} heads of width {d} need wq "
                             f"({d}, {n_heads * d}) and w_head "
                             f"({n_heads * d}, {d}), got {wq.shape} and "
                             f"{w_head.shape}")
    k, v = k @ wk, v @ wv
    weights = T.attention_weights(q @ wq, k, n_heads, mask)
    return T.mix_heads(weights, v) @ w_head, weights


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


def add_positional_encoding(x: Tensor, alpha: Optional[Tensor] = None,
                            start: int = 0) -> Tensor:
    """x + PE[start:start+n], or x + alpha * PE[start:start+n] with a
    learnable scalar alpha, for every row of a batch x (B, n, d): the
    rows a forward gives positions start.. of its sequences. The table is
    built once per width d."""
    n, d = x.shape[-2:]
    if start + n > MAX_PE_LEN:
        raise DimensionError(f"sequence of {start + n} frames exceeds the "
                             f"positional encoding cap of {MAX_PE_LEN}")
    if d not in _pe_cache:
        _pe_cache[d] = positional_encoding(MAX_PE_LEN, d)
    pe = Tensor(_pe_cache[d][start:start + n])
    return x + (pe if alpha is None else alpha * pe)
