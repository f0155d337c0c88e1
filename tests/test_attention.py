"""Attention tests: hand and extended-precision oracles for the weights,
perturbation tests for causality, finite differences for gradients."""

import math

import numpy as np
import pytest
from mpmath import mp

from minis2s import attention as A
from minis2s import tensor as T
from minis2s.attention import (AttentionConfig, AttentionRecord, MhaWeights,
                               causal_mask, dot_attention, multi_head_attention,
                               positional_encoding, scaled_positional_encoding)
from minis2s.errors import DimensionError
from minis2s.tensor import Tensor, backward, grad_check


def rnd(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def identity_weights(d):
    eye = lambda: Tensor(np.eye(d))
    return MhaWeights(wq=[eye()], wk=[eye()], wv=[eye()], w_head=Tensor(np.eye(d)))


def random_weights(d, n_heads, seed):
    rng = np.random.default_rng(seed)
    t = lambda shape: Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
    return MhaWeights(wq=[t((d, d)) for _ in range(n_heads)],
                      wk=[t((d, d)) for _ in range(n_heads)],
                      wv=[t((d, d)) for _ in range(n_heads)],
                      w_head=t((d * n_heads, d)))


# ---------------------------------------------------------- dot attention


def test_single_key_returns_the_value_row():
    q = rnd((4, 6), 0)
    k = rnd((1, 6), 1)
    v = rnd((1, 6), 2)
    out = dot_attention(q, k, v)
    for row in range(4):
        np.testing.assert_allclose(out.data[row], v.data[0], rtol=0, atol=0)


def test_zero_queries_give_column_mean_of_values():
    q = Tensor(np.zeros((3, 5)))
    k = rnd((7, 5), 3)
    v = rnd((7, 5), 4)
    out = dot_attention(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (3, 1)),
                               rtol=1e-14)


def test_2x2_weights_against_extended_precision():
    # Oracle: recompute the whole 2x2 attention at 50 digits.
    mp.dps = 50
    q = np.array([[0.3, -1.1], [2.0, 0.7]])
    k = np.array([[0.5, 0.4], [-0.2, 1.3]])
    v = np.array([[1.0, 2.0], [3.0, -4.0]])
    rec = AttentionRecord()
    out = dot_attention(Tensor(q), Tensor(k), Tensor(v), record=rec)

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
    np.testing.assert_allclose(rec.weights[0].data, want_w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, want_o, rtol=0, atol=1e-12)


def test_batched_dot_attention_equals_per_entry():
    q, k, v = rnd((2, 3, 1, 4), 60), rnd((2, 3, 5, 4), 61), rnd((2, 3, 5, 4), 62)
    out = dot_attention(q, k, v)
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
    out = dot_attention(q, shared_k, shared_v, mask=mask)
    want = dot_attention(Tensor(q.data[1, 2]), Tensor(shared_k.data[2]),
                         Tensor(shared_v.data[2]), mask=mask)
    np.testing.assert_allclose(out.data[1, 2], want.data, rtol=0, atol=1e-12)
    f = lambda q, k, v: dot_attention(q, k, v, mask=mask).sum()
    assert grad_check(f, [q, shared_k, shared_v]) < 1e-6


def test_fused_heads_attend_equals_multi_head_attention():
    d, n_heads = 4, 3
    w = random_weights(d, n_heads, 65)
    cfg = AttentionConfig(d_att=d, d_head=n_heads)
    x_src = rnd((6, d), 66)
    rows = rnd((2, d), 67)
    heads = A.FusedHeads(w)
    keys, values = heads.keys_values(x_src)
    assert keys.shape == (n_heads, 6, d)
    got = heads.attend(rows, keys, values)
    want = multi_head_attention(rows, x_src, x_src, cfg, w)
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)


def test_dot_attention_dim_mismatch():
    with pytest.raises(DimensionError):
        dot_attention(rnd((2, 3), 0), rnd((2, 4), 1), rnd((2, 4), 2))
    with pytest.raises(DimensionError):
        dot_attention(rnd((2, 3), 0), rnd((4, 3), 1), rnd((2, 3), 2))


def test_record_rows_are_distributions_and_masked_zero():
    q = rnd((5, 4), 5, scale=3.0)
    k = rnd((5, 4), 6, scale=3.0)
    v = rnd((5, 4), 7)
    rec = AttentionRecord()
    dot_attention(q, k, v, mask=causal_mask(5), record=rec)
    w = rec.weights[0].data
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(w >= 0)
    upper = ~causal_mask(5)
    assert np.all(w[upper] == 0.0)


def test_grad_dot_attention():
    q, k, v = rnd((3, 4), 8), rnd((5, 4), 9), rnd((5, 4), 10)

    def f(q, k, v):
        return T.tanh(dot_attention(q, k, v)).sum()

    assert grad_check(f, [q, k, v]) < 1e-5


def test_grad_dot_attention_masked():
    q, k, v = rnd((4, 3), 11), rnd((4, 3), 12), rnd((4, 3), 13)
    m = causal_mask(4)

    def f(q, k, v):
        return (dot_attention(q, k, v, mask=m) * dot_attention(q, k, v, mask=m)).sum()

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
    base = dot_attention(q, k, v, mask=m).data.copy()

    k2, v2 = Tensor(k.data.copy()), Tensor(v.data.copy())
    k2.data[4:] += 1e6  # huge perturbation strictly in the future
    v2.data[4:] -= 37.0
    pert = dot_attention(q, k2, v2, mask=m).data
    # rows 0..3 attend only to keys 0..3, so they cannot move at all
    assert np.array_equal(base[:4], pert[:4])
    assert not np.allclose(base[4:], pert[4:])


def test_permutation_equivariance_without_pe():
    x = rnd((5, 4), 17)
    out = dot_attention(x, x, x).data
    perm = np.random.default_rng(18).permutation(5)
    xp = Tensor(x.data[perm])
    outp = dot_attention(xp, xp, xp).data
    np.testing.assert_allclose(outp, out[perm], rtol=1e-12, atol=1e-14)


def test_scale_invariance_logits_scale_by_c_squared():
    q, k, v = rnd((3, 4), 19), rnd((3, 4), 20), rnd((3, 4), 21)
    c = 3.0
    r1, r2 = AttentionRecord(), AttentionRecord()
    dot_attention(q, k, v, record=r1)
    dot_attention(Tensor(q.data * c), Tensor(k.data * c), v, record=r2)
    np.testing.assert_allclose(r2.logits[0].data, c * c * r1.logits[0].data,
                               rtol=1e-12)


# ---------------------------------------------------------- multi-head


def test_mha_identity_reduces_to_dot_attention():
    d = 4
    q, k, v = rnd((3, d), 22), rnd((5, d), 23), rnd((5, d), 24)
    cfg = AttentionConfig(d_att=d, d_head=1)
    out = multi_head_attention(q, k, v, cfg, identity_weights(d))
    np.testing.assert_allclose(out.data, dot_attention(q, k, v).data,
                               rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n_heads", [1, 2, 3, 5])
def test_mha_output_shape(n_heads):
    d = 6
    q, k, v = rnd((4, d), 25), rnd((7, d), 26), rnd((7, d), 27)
    cfg = AttentionConfig(d_att=d, d_head=n_heads)
    out = multi_head_attention(q, k, v, cfg, random_weights(d, n_heads, 28))
    assert out.shape == (4, d)


def test_mha_weight_shape_validation():
    d = 4
    cfg = AttentionConfig(d_att=d, d_head=2)
    w = random_weights(d, 2, 29)
    w.w_head = Tensor(np.zeros((d, d)))
    with pytest.raises(DimensionError):
        multi_head_attention(rnd((3, d), 30), rnd((3, d), 31), rnd((3, d), 32),
                             cfg, w)


def test_mha_causal_mask_mode_and_record():
    d, h = 4, 2
    x = rnd((5, d), 33)
    cfg = AttentionConfig(d_att=d, d_head=h, mask_mode="causal")
    rec = AttentionRecord()
    multi_head_attention(x, x, x, cfg, random_weights(d, h, 34), record=rec)
    assert len(rec.weights) == h
    upper = ~causal_mask(5)
    for w in rec.weights:
        assert np.all(w.data[upper] == 0.0)
        np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)


def test_grad_full_mha():
    d, h = 8, 2
    q, k, v = rnd((3, d), 35, 0.5), rnd((3, d), 36, 0.5), rnd((3, d), 37, 0.5)
    w = random_weights(d, h, 38)
    cfg = AttentionConfig(d_att=d, d_head=h)
    params = [q, k, v, *w.wq, *w.wk, *w.wv, w.w_head]

    def f(*_):
        return T.tanh(multi_head_attention(q, k, v, cfg, w)).sum()

    assert grad_check(f, params, max_coords=12, rng=0) < 1e-5


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


def test_scaled_pe_alpha_zero_and_one():
    x = rnd((7, 6), 39)
    zero = scaled_positional_encoding(x, Tensor(0.0))
    np.testing.assert_array_equal(zero.data, x.data)
    one = scaled_positional_encoding(x, Tensor(1.0))
    np.testing.assert_allclose(one.data, A.add_positional_encoding(x).data,
                               rtol=0, atol=0)


def test_scaled_pe_alpha_gets_gradient():
    x = rnd((5, 4), 40)
    alpha = Tensor(1.0, requires_grad=True)

    def f(x, alpha):
        y = scaled_positional_encoding(x, alpha)
        return (y * y).sum()

    assert grad_check(f, [x, alpha]) < 1e-5
    backward(f(x, alpha))
    assert alpha.grad is not None and alpha.grad.shape == ()


def test_record_csv_dump(tmp_path):
    q, k, v = rnd((2, 3), 41), rnd((2, 3), 42), rnd((2, 3), 43)
    rec = AttentionRecord()
    dot_attention(q, k, v, record=rec)
    path = tmp_path / "att.csv"
    rec.dump_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "head,row,col,weight"
    assert len(lines) == 1 + 4
    h, r, c, w = lines[1].split(",")
    assert (h, r, c) == ("0", "0", "0")
    assert abs(float(w) - rec.weights[0].data[0, 0]) == 0.0
