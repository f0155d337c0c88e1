"""Attention tests: hand and extended-precision oracles for the weights,
perturbation tests for causality, finite differences for gradients, and
the unfused per-head composition as the oracle of the head-batched path."""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest
from mpmath import mp

from minis2s import attention as A
from minis2s import tensor as T
from minis2s.attention import (add_positional_encoding, causal_mask,
                               multi_head_attention, positional_encoding)
from minis2s.errors import DimensionError
from minis2s.tensor import Tensor, backward, grad_check


def rnd(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


# ---------------------------------------------------------- the oracle
#
# Scaled dot-product attention and multi-head attention as tape
# compositions, one head at a time: the path the head-batched ops
# replaced, kept to check them.


@dataclass
class OracleRecord:
    weights: List[Tensor]
    logits: List[Tensor]


def dot_attention(xq: Tensor, xk: Tensor, xv: Tensor,
                  mask: Optional[np.ndarray] = None,
                  record: Optional[OracleRecord] = None) -> Tensor:
    """softmax(Xq Xk^T / sqrt(d)) Xv; a masked pair gets a -1e9 bias
    before the softmax and weight 0 after it."""
    logits = (xq @ T.transpose(xk)) * (1.0 / math.sqrt(xq.shape[-1]))
    if mask is not None:
        weights = T.softmax(logits + Tensor(np.where(mask, 0.0, -1e9)))
        weights = weights * Tensor(mask.astype(np.float64))
    else:
        weights = T.softmax(logits)
    if record is not None:
        record.weights.append(weights)
        record.logits.append(logits)
    return weights @ xv


@dataclass
class PerHead:
    """One (d, d) projection triple per head plus w_head, (H*d, d)."""
    wq: List[Tensor]
    wk: List[Tensor]
    wv: List[Tensor]
    w_head: Tensor

    def fused(self):
        """The same values as multi_head_attention's (wq, wk, wv, w_head)."""
        cat = lambda ws: Tensor(np.concatenate([w.data for w in ws], axis=1),
                                requires_grad=True)
        return (cat(self.wq), cat(self.wk), cat(self.wv),
                Tensor(self.w_head.data.copy(), requires_grad=True))


def per_head_attention(q: Tensor, k: Tensor, v: Tensor, w: PerHead,
                       mask: Optional[np.ndarray] = None,
                       record: Optional[OracleRecord] = None) -> Tensor:
    heads = [dot_attention(q @ wq, k @ wk, v @ wv, mask=mask, record=record)
             for wq, wk, wv in zip(w.wq, w.wk, w.wv)]
    return T.concat(heads, axis=1) @ w.w_head


def random_weights(d, n_heads, seed) -> PerHead:
    rng = np.random.default_rng(seed)
    t = lambda shape: Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
    return PerHead(wq=[t((d, d)) for _ in range(n_heads)],
                   wk=[t((d, d)) for _ in range(n_heads)],
                   wv=[t((d, d)) for _ in range(n_heads)],
                   w_head=t((d * n_heads, d)))


def one_head(q: Tensor, k: Tensor, v: Tensor,
             mask: Optional[np.ndarray] = None):
    """Single-head attention through the two head-batched ops, weights
    squeezed to (..., n_q, n_k)."""
    w = T.attention_weights(q, k, 1, mask)
    return T.mix_heads(w, v), w.data[..., 0, :, :]


# ---------------------------------------------------------- the two ops


def test_single_key_returns_the_value_row():
    q = rnd((4, 6), 0)
    k = rnd((1, 6), 1)
    v = rnd((1, 6), 2)
    out, _ = one_head(q, k, v)
    for row in range(4):
        np.testing.assert_allclose(out.data[row], v.data[0], rtol=0, atol=0)


def test_zero_queries_give_column_mean_of_values():
    q = Tensor(np.zeros((3, 5)))
    k = rnd((7, 5), 3)
    v = rnd((7, 5), 4)
    out, _ = one_head(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (3, 1)),
                               rtol=1e-14)


def test_2x2_weights_against_extended_precision():
    # Oracle: recompute the whole 2x2 attention at 50 digits.
    mp.dps = 50
    q = np.array([[0.3, -1.1], [2.0, 0.7]])
    k = np.array([[0.5, 0.4], [-0.2, 1.3]])
    v = np.array([[1.0, 2.0], [3.0, -4.0]])
    out, weights = one_head(Tensor(q), Tensor(k), Tensor(v))

    scale = 1 / mp.sqrt(2)
    want_w = np.zeros((2, 2))
    want_o = np.zeros((2, 2))
    for i in range(2):
        logits = [scale * (mp.mpf(q[i, 0]) * k[j, 0] + mp.mpf(q[i, 1]) * k[j, 1])
                  for j in range(2)]
        es = [mp.e ** z for z in logits]
        s = sum(es)
        w = [e / s for e in es]
        for j in range(2):
            want_w[i, j] = float(w[j])
        for d in range(2):
            want_o[i, d] = float(w[0] * v[0, d] + w[1] * v[1, d])
    np.testing.assert_allclose(weights, want_w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, want_o, rtol=0, atol=1e-12)


def test_batched_dot_attention_equals_per_entry():
    q, k, v = rnd((2, 3, 1, 4), 60), rnd((2, 3, 5, 4), 61), rnd((2, 3, 5, 4), 62)
    out, _ = one_head(q, k, v)
    assert out.shape == (2, 3, 1, 4)
    for i in range(2):
        for j in range(3):
            want = dot_attention(Tensor(q.data[i, j]), Tensor(k.data[i, j]),
                                 Tensor(v.data[i, j]))
            np.testing.assert_allclose(out.data[i, j], want.data,
                                       rtol=0, atol=1e-12)
    # keys shared by every batch entry broadcast, and a mask applies to all
    shared_k, shared_v = rnd((3, 5, 4), 63), rnd((3, 5, 4), 64)
    mask = np.array([[True, True, False, True, False]])
    out, _ = one_head(q, shared_k, shared_v, mask=mask)
    want = dot_attention(Tensor(q.data[1, 2]), Tensor(shared_k.data[2]),
                         Tensor(shared_v.data[2]), mask=mask)
    np.testing.assert_allclose(out.data[1, 2], want.data, rtol=0, atol=1e-12)
    f = lambda q, k, v: one_head(q, k, v, mask=mask)[0].sum()
    assert grad_check(f, [q, shared_k, shared_v]) < 1e-6


def test_dot_attention_dim_mismatch():
    with pytest.raises(DimensionError):
        T.attention_weights(rnd((2, 3), 0), rnd((2, 4), 1), 1)
    with pytest.raises(DimensionError):
        T.attention_weights(rnd((2, 6), 0), rnd((2, 6), 1), 4)
    with pytest.raises(DimensionError):
        T.attention_weights(rnd((2, 3), 0), rnd((4, 3), 1), 1,
                            mask=causal_mask(4))
    w = T.attention_weights(rnd((2, 3), 0), rnd((4, 3), 1), 1)
    with pytest.raises(DimensionError):
        T.mix_heads(w, rnd((2, 3), 2))
    with pytest.raises(DimensionError):
        T.mix_heads(rnd((2, 4), 3), rnd((4, 3), 2))


def test_record_rows_are_distributions_and_masked_zero():
    q = rnd((5, 4), 5, scale=3.0)
    k = rnd((5, 4), 6, scale=3.0)
    v = rnd((5, 4), 7)
    _, w = one_head(q, k, v, mask=causal_mask(5))
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(w >= 0)
    upper = ~causal_mask(5)
    assert np.all(w[upper] == 0.0)


def test_fully_masked_row_is_zero():
    # a query that may see no key: the bias alone would spread it evenly
    q, k, v = rnd((3, 4), 74), rnd((5, 4), 75), rnd((5, 4), 76)
    mask = causal_mask(5)[1:4]
    mask[1] = False
    out, w = one_head(q, k, v, mask=mask)
    assert np.all(w[1] == 0.0) and np.all(out.data[1] == 0.0)
    want = dot_attention(q, k, v, mask=mask)
    np.testing.assert_allclose(out.data, want.data, rtol=0, atol=1e-12)
    f = lambda q, k, v: T.tanh(one_head(q, k, v, mask=mask)[0]).sum()
    assert grad_check(f, [q, k, v]) < 1e-5


def test_grad_dot_attention():
    q, k, v = rnd((3, 4), 8), rnd((5, 4), 9), rnd((5, 4), 10)

    def f(q, k, v):
        return T.tanh(one_head(q, k, v)[0]).sum()

    assert grad_check(f, [q, k, v]) < 1e-5


def test_grad_dot_attention_masked():
    q, k, v = rnd((4, 3), 11), rnd((4, 3), 12), rnd((4, 3), 13)
    m = causal_mask(4)

    def f(q, k, v):
        out = one_head(q, k, v, mask=m)[0]
        return (out * out).sum()

    assert grad_check(f, [q, k, v]) < 1e-5


def test_weights_are_a_differentiable_output():
    # a loss on the weights alone, and on weights and output together
    q, k, v = rnd((3, 4), 70), rnd((5, 4), 71), rnd((5, 4), 72)
    R = np.random.default_rng(73).standard_normal((2, 3, 5))

    def f(q, k, v):
        w = T.attention_weights(q, k, 2)
        return (w * Tensor(R)).sum() + T.tanh(T.mix_heads(w, v)).sum()

    assert grad_check(f, [q, k, v]) < 1e-5


# ---------------------------------------------------------- causal masking


def test_causal_mask_values():
    np.testing.assert_array_equal(causal_mask(1), [[True]])
    np.testing.assert_array_equal(
        causal_mask(3),
        np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=bool))


def test_causality_bit_exact_under_future_perturbation():
    q = rnd((6, 4), 14)
    k = rnd((6, 4), 15)
    v = rnd((6, 4), 16)
    m = causal_mask(6)
    base = one_head(q, k, v, mask=m)[0].data.copy()

    k2, v2 = Tensor(k.data.copy()), Tensor(v.data.copy())
    k2.data[4:] += 1e6  # huge perturbation strictly in the future
    v2.data[4:] -= 37.0
    pert = one_head(q, k2, v2, mask=m)[0].data
    # rows 0..3 attend only to keys 0..3, so they cannot move at all
    assert np.array_equal(base[:4], pert[:4])
    assert not np.allclose(base[4:], pert[4:])


def test_permutation_equivariance_without_pe():
    x = rnd((5, 4), 17)
    out = one_head(x, x, x)[0].data
    perm = np.random.default_rng(18).permutation(5)
    xp = Tensor(x.data[perm])
    outp = one_head(xp, xp, xp)[0].data
    np.testing.assert_allclose(outp, out[perm], rtol=1e-12, atol=1e-14)


def test_scale_invariance_logits_scale_by_c_squared():
    # scaling queries and keys by c scales the oracle's logits by c^2,
    # and the op's weights are the softmax of those scaled logits
    q, k, v = rnd((3, 4), 19), rnd((3, 4), 20), rnd((3, 4), 21)
    c = 3.0
    r1, r2 = OracleRecord([], []), OracleRecord([], [])
    dot_attention(q, k, v, record=r1)
    dot_attention(Tensor(q.data * c), Tensor(k.data * c), v, record=r2)
    np.testing.assert_allclose(r2.logits[0].data, c * c * r1.logits[0].data,
                               rtol=1e-12)
    _, w = one_head(Tensor(q.data * c), Tensor(k.data * c), v)
    z = c * c * r1.logits[0].data
    want = np.exp(z - z.max(axis=1, keepdims=True))
    np.testing.assert_allclose(w, want / want.sum(axis=1, keepdims=True),
                               rtol=1e-12)


# ---------------------------------------------------------- multi-head


def test_mha_identity_reduces_to_dot_attention():
    d = 4
    q, k, v = rnd((3, d), 22), rnd((5, d), 23), rnd((5, d), 24)
    eye = Tensor(np.eye(d))
    out, _ = multi_head_attention(q, k, v, eye, eye, eye, eye, 1)
    np.testing.assert_allclose(out.data, dot_attention(q, k, v).data,
                               rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n_heads", [1, 2, 3, 5])
def test_mha_output_shape(n_heads):
    d = 6
    q, k, v = rnd((4, d), 25), rnd((7, d), 26), rnd((7, d), 27)
    out, w = multi_head_attention(q, k, v, *random_weights(d, n_heads, 28).fused(),
                                  n_heads)
    assert out.shape == (4, d)
    assert w.shape == (n_heads, 4, 7)


def test_mha_weight_shape_validation():
    d = 4
    wq, wk, wv, _ = random_weights(d, 2, 29).fused()
    with pytest.raises(DimensionError):
        multi_head_attention(rnd((3, d), 30), rnd((3, d), 31), rnd((3, d), 32),
                             wq, wk, wv, Tensor(np.zeros((d, d))), 2)
    with pytest.raises(DimensionError):
        multi_head_attention(rnd((3, d), 30), rnd((3, d), 31), rnd((3, d), 32),
                             wq, wk, wv, Tensor(np.zeros((2 * d, d))), 3)


def test_mha_causal_mask_mode_and_record():
    d, h = 4, 2
    x = rnd((5, d), 33)
    _, weights = multi_head_attention(x, x, x, *random_weights(d, h, 34).fused(),
                                      h, causal_mask(5))
    assert weights.shape == (h, 5, 5)
    upper = ~causal_mask(5)
    for w in weights.data:
        assert np.all(w[upper] == 0.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)


def test_grad_full_mha():
    d, h = 8, 2
    q, k, v = rnd((3, d), 35, 0.5), rnd((3, d), 36, 0.5), rnd((3, d), 37, 0.5)
    ws = random_weights(d, h, 38).fused()

    def f(*_):
        return T.tanh(multi_head_attention(q, k, v, *ws, h)[0]).sum()

    assert grad_check(f, [q, k, v, *ws], max_coords=12, rng=0) < 1e-5


# ------------------------------------------- head-batched path vs the oracle


def _key_padding(n, n_true):
    key_ok = np.zeros(n, dtype=bool)
    key_ok[:n_true] = True
    return np.tile(key_ok, (n, 1))


def _compare(fused_fn, oracle_fn, inputs, w: PerHead, n_heads):
    """Run both paths under the same random weighting of output and
    weights; outputs, weights and every input and parameter gradient must
    agree within 1e-12."""
    fused_w = w.fused()
    out, weights = fused_fn(*inputs, *fused_w)
    rec = OracleRecord([], [])
    want = oracle_fn(*inputs, rec)
    np.testing.assert_allclose(out.data, want.data, rtol=0, atol=1e-12)
    want_w = np.stack([r.data for r in rec.weights], axis=-3)
    np.testing.assert_allclose(weights.data, want_w, rtol=0, atol=1e-12)

    rng = np.random.default_rng(99)
    R_out = Tensor(rng.standard_normal(out.shape))
    R_w = Tensor(rng.standard_normal(weights.shape))
    backward((out * R_out).sum() + (weights * R_w).sum())
    got = {id(x): x.grad.copy() for x in inputs}
    got_params = [p.grad.copy() for p in fused_w]
    for x in inputs:
        x.grad = None
    R_heads = [R_w.data[..., h, :, :] for h in range(n_heads)]
    oracle_loss = (want * R_out).sum()
    for h in range(n_heads):
        oracle_loss = oracle_loss + (rec.weights[h] * Tensor(R_heads[h])).sum()
    backward(oracle_loss)
    for x in inputs:
        np.testing.assert_allclose(got[id(x)], x.grad, rtol=0, atol=1e-12)
    cat = lambda ws: np.concatenate([p.grad for p in ws], axis=1)
    for g, want_g in zip(got_params, (cat(w.wq), cat(w.wk), cat(w.wv),
                                      w.w_head.grad)):
        np.testing.assert_allclose(g, want_g, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["causal-self", "key-padding", "source"])
def test_fused_path_matches_per_head_oracle(case):
    d, h = 5, 3
    w = random_weights(d, h, 80)
    if case == "source":
        q, src = rnd((4, d), 81), rnd((7, d), 82)
        inputs, mask = [q, src], None
        fused = lambda q, s, *ws: multi_head_attention(q, s, s, *ws, h)
        oracle = lambda q, s, rec: per_head_attention(q, s, s, w, record=rec)
    else:
        x = rnd((6, d), 83)
        mask = causal_mask(6) if case == "causal-self" else _key_padding(6, 4)
        inputs = [x]
        fused = lambda x, *ws: multi_head_attention(x, x, x, *ws, h, mask)
        oracle = lambda x, rec: per_head_attention(x, x, x, w, mask=mask,
                                                   record=rec)
    _compare(fused, oracle, inputs, w, h)


def test_fused_heads_attend_equals_multi_head_attention():
    # the search step's shape: one query row per hypothesis over keys and
    # values held per row, here after a select that reorders and repeats
    # rows, and over source keys shared by every row
    d, h, t = 4, 3, 5
    w = random_weights(d, h, 65)
    history = np.random.default_rng(66).standard_normal((2, t, d))
    prefixes = Tensor(history[[1, 0, 1]], requires_grad=True)   # B = 3
    rows = rnd((3, d), 67)

    def fused(rows, prefixes, wq, wk, wv, w_head):
        out, weights = multi_head_attention(
            rows.reshape(3, 1, d), prefixes, prefixes, wq, wk, wv, w_head, h)
        return out.reshape(3, d), weights

    def oracle(rows, prefixes, rec):
        outs, per_row = [], []
        for b in range(3):
            r = OracleRecord([], [])
            outs.append(per_head_attention(rows[b:b + 1], prefixes[b], prefixes[b],
                                           w, record=r))
            per_row.append(r.weights)
        # the oracle's weights, one (B, 1, n_k) tensor per head
        for hh in range(h):
            rec.weights.append(T.concat([per_row[b][hh] for b in range(3)],
                                        axis=0).reshape(3, 1, t))
        return T.concat(outs, axis=0)

    _compare(fused, oracle, [rows, prefixes], w, h)

    src = rnd((6, d), 68)
    wq, wk, wv, w_head = w.fused()
    got, _ = multi_head_attention(rows.reshape(3, 1, d), src, src,
                                  wq, wk, wv, w_head, h)
    want = per_head_attention(rows, src, src, w)
    np.testing.assert_allclose(got.data.reshape(3, d), want.data,
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------- positional enc


def test_pe_first_row_alternates_zero_one():
    pe = positional_encoding(8, 6)
    np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1])


def test_pe_range_and_sin1():
    pe = positional_encoding(100, 16)
    assert pe.min() >= -1.0 and pe.max() <= 1.0
    assert abs(pe[1, 0] - math.sin(1.0)) < 1e-12


def test_pe_two_index_form():
    d = 8
    pe = positional_encoding(50, d)
    for pos in (3, 17, 49):
        for i in range(d // 2):
            angle = pos / 10000 ** (2 * i / d)
            assert abs(pe[pos, 2 * i] - math.sin(angle)) < 1e-12
            assert abs(pe[pos, 2 * i + 1] - math.cos(angle)) < 1e-12


def test_pe_odd_width():
    pe = positional_encoding(10, 5)
    assert pe.shape == (10, 5)
    np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0])


def test_pe_cap_enforced():
    with pytest.raises(DimensionError):
        positional_encoding(4097, 8)
    with pytest.raises(DimensionError):
        A.add_positional_encoding(Tensor(np.zeros((4097, 8))))


@pytest.mark.parametrize("alpha", [None, 0.6])
def test_pe_start_offsets_the_rows(alpha):
    """A slice of x added from position a equals rows a:b of the add over
    all of x, bit for bit."""
    x = rnd((3, 12, 6), 41).data
    alpha = None if alpha is None else Tensor(alpha)
    full = add_positional_encoding(Tensor(x), alpha).data
    for a, b in ((0, 5), (1, 2), (7, 12)):
        part = add_positional_encoding(Tensor(x[:, a:b]), alpha, start=a)
        np.testing.assert_array_equal(part.data, full[:, a:b])


def test_pe_cap_counts_the_start():
    add_positional_encoding(Tensor(np.zeros((1, 2, 8))), start=4094)
    for n, start in ((1, 4096), (2, 4095)):
        with pytest.raises(DimensionError, match="4097"):
            add_positional_encoding(Tensor(np.zeros((1, n, 8))), start=start)


def test_scaled_pe_alpha_zero_and_one():
    x = rnd((7, 6), 39)
    zero = add_positional_encoding(x, Tensor(0.0))
    np.testing.assert_array_equal(zero.data, x.data)
    one = add_positional_encoding(x, Tensor(1.0))
    np.testing.assert_allclose(one.data, A.add_positional_encoding(x).data,
                               rtol=0, atol=0)


def test_scaled_pe_alpha_gets_gradient():
    x = rnd((5, 4), 40)
    alpha = Tensor(1.0, requires_grad=True)

    def f(x, alpha):
        y = add_positional_encoding(x, alpha)
        return (y * y).sum()

    assert grad_check(f, [x, alpha]) < 1e-5
    backward(f(x, alpha))
    assert alpha.grad is not None and alpha.grad.shape == ()
