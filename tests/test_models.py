"""Model-level tests: front-end length arithmetic, body behavior
(causality, reversal symmetry), end-to-end gradients, padded-batch
equivalence, and config validation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from minis2s import attention as A
from minis2s import models
from minis2s import tensor as T
from minis2s.config import experiment_from_items
from minis2s.errors import ConfigError, DataError, DimensionError
from minis2s.models import (BlstmEncoderBody, ConvSubsampler, LstmDecoderBody,
                            ModelConfig, Prenet, Postnet, S2SModel,
                            TokenFrontEnd, TransformerDecoderBody,
                            TransformerDecoderLayer, TransformerEncoderBody,
                            TransformerEncoderLayer, TtsModel, VggSubsampler,
                            build_model, pad_sequences)
from minis2s.nn import LayerNorm, MultiHeadAttention
from minis2s.reserved import BLANK_ID, SOS_EOS_ID
from minis2s.tensor import Tensor, grad_check


def toy_cfg(**kw) -> ModelConfig:
    base = dict(task="asr", body="transformer", e=1, d=1, d_att=8, d_ff=16,
                d_head=2, dropout_rate=0.0, vocab_size=7, feat_dim=5, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def feats(n, dim=5, seed=0):
    """One utterance's (n, dim) frames."""
    return Tensor(np.random.default_rng(seed).standard_normal((n, dim)))


def one(x: Tensor) -> Tensor:
    """One sequence's rows as a batch of one, (1, n, d)."""
    return Tensor(x.data[None], requires_grad=x.requires_grad)


def encode_one(model, x: Tensor):
    """The encoding of one utterance, as a batch of one."""
    return model.encode(*pad_sequences([x.data]))


# ------------------------------------------------------------- front ends


def test_subsample_lengths():
    assert T.conv_len(7, 3, 2, 1) == 4
    assert ConvSubsampler.frames(100) == 25
    assert ConvSubsampler.frames(4) == 1
    assert VggSubsampler.frames(8) == 2


def test_conv_subsampler_shapes_and_short_input():
    rng = np.random.default_rng(0)
    sub = ConvSubsampler(feat_dim=5, d_att=8, dropout_rate=0.0, rng=rng)
    sub.eval()
    out, n_sub = sub(one(feats(100)), [100])
    assert out.shape == (1, 25, 8) and list(n_sub) == [25]
    out, n_sub = sub(one(feats(4)), [4])
    assert out.shape == (1, 1, 8) and list(n_sub) == [1]
    with pytest.raises(DataError):
        sub(one(feats(3)), [3])


def test_vgg_subsampler_shapes():
    rng = np.random.default_rng(1)
    sub = VggSubsampler(feat_dim=8, d_att=8, dropout_rate=0.0, rng=rng)
    sub.eval()
    out, n_sub = sub(one(feats(13, dim=8)), [13])
    assert list(n_sub) == [3] and out.shape[1] >= 3 and out.shape[2] == 8
    with pytest.raises(DataError):
        sub(one(feats(2, dim=8)), [2])


def test_token_front_end_empty_oov_and_pe_difference():
    rng = np.random.default_rng(2)
    fe = TokenFrontEnd(vocab_size=7, d_att=8, dropout_rate=0.0, rng=rng)
    fe.eval()
    assert fe(np.zeros((1, 0), dtype=np.int64)).shape == (1, 0, 8)
    with pytest.raises(IndexError):
        fe([[7]])
    out = fe([[4, 3, 4]]).data[0]
    pe = A.positional_encoding(3, 8)
    np.testing.assert_allclose(out[0] - out[2], pe[0] - pe[2],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("scaled_pe", [False, True])
def test_token_front_end_start_offsets_the_positions(scaled_pe):
    fe = TokenFrontEnd(vocab_size=9, d_att=8, dropout_rate=0.0,
                       rng=np.random.default_rng(3), scaled_pe=scaled_pe)
    fe.eval()
    if scaled_pe:
        fe.alpha.data[...] = 0.6
    ids = np.random.default_rng(4).integers(0, 9, size=(3, 10))
    full = fe(ids).data
    for a, b in ((0, 4), (1, 2), (7, 10)):
        np.testing.assert_array_equal(fe(ids[:, a:b], a).data,
                                      full[:, a:b])


# ------------------------------------------------------------- enc bodies


def test_transformer_encoder_zero_layers_is_identity():
    rng = np.random.default_rng(3)
    body = TransformerEncoderBody(0, 8, 16, 2, 0.0, "none", rng)
    x = one(feats(5, dim=8))
    np.testing.assert_array_equal(body(x, [5]).data, x.data)


def test_transformer_encoder_shape_and_grad():
    rng = np.random.default_rng(4)
    body = TransformerEncoderBody(2, 16, 32, 2, 0.0, "pre", rng)
    body.eval()
    x = Tensor(np.random.default_rng(5).standard_normal((1, 5, 16)),
               requires_grad=True)
    assert body(x, [5]).shape == (1, 5, 16)

    def f(*_):
        return T.tanh(body(x, [5])).sum()

    params = [x] + body.parameters()
    assert grad_check(f, params, max_coords=3, rng=0) < 1e-5


def test_blstm_deterministic():
    rng = np.random.default_rng(6)
    body = BlstmEncoderBody(2, 8, rng)
    x = one(feats(6, dim=8))
    a = body(x, [6]).data
    b = body(x, [6]).data
    assert np.array_equal(a, b)


def test_blstm_reversal_swaps_directions():
    d = 6
    m1 = BlstmEncoderBody(2, d, np.random.default_rng(7))
    m2 = BlstmEncoderBody(2, d, np.random.default_rng(8))
    # m2 takes m1's weights with fwd/bwd cells exchanged and the
    # projection's row blocks swapped to match
    for l1, l2 in zip(m1.layers, m2.layers):
        for attr in ("w_ih", "w_hh", "bias"):
            getattr(l2.fwd.cell, attr).data[:] = getattr(l1.bwd.cell, attr).data
            getattr(l2.bwd.cell, attr).data[:] = getattr(l1.fwd.cell, attr).data
        w = l1.proj.weight.data
        l2.proj.weight.data[:] = np.concatenate([w[d:], w[:d]])
        l2.proj.bias.data[:] = l1.proj.bias.data
    x = one(feats(5, dim=d, seed=9))
    fwd_out = m1(x, [5]).data
    rev_out = m2(Tensor(x.data[:, ::-1].copy()), [5]).data
    np.testing.assert_allclose(rev_out, fwd_out[:, ::-1], rtol=1e-12,
                               atol=1e-14)


def test_blstm_grad():
    body = BlstmEncoderBody(1, 4, np.random.default_rng(10))
    x = Tensor(np.random.default_rng(11).standard_normal((1, 4, 4)),
               requires_grad=True)

    def f(*_):
        return body(x, [4]).sum()

    assert grad_check(f, [x] + body.parameters(), max_coords=4, rng=1) < 1e-5


# ------------------------------------------------------------- dec bodies


def test_transformer_decoder_causality_bit_exact():
    rng = np.random.default_rng(12)
    body = TransformerDecoderBody(2, 8, 16, 2, 0.0, "pre", "paper", rng)
    body.eval()
    x_e = one(feats(4, dim=8, seed=13))
    y = one(feats(6, dim=8, seed=14))
    base = body(y, x_e, [4]).data.copy()
    y2 = Tensor(y.data.copy())
    y2.data[0, 4:] += np.random.default_rng(99).standard_normal((2, 8)) * 50
    pert = body(y2, x_e, [4]).data
    assert np.array_equal(base[:, :4], pert[:, :4])
    assert not np.allclose(base[:, 4:], pert[:, 4:])


def test_decoder_zero_query_source_attention_is_uniform():
    rng = np.random.default_rng(15)
    layer = TransformerDecoderLayer(4, 8, 1, 0.0, "none", "paper", rng)
    layer.eval()
    # zero query projection forces uniform weights over encoder rows
    layer.src_mha.wq.data[:] = 0.0
    layer.src_mha.wv.data[:] = np.eye(4)
    layer.src_mha.w_head.data[:] = np.eye(4)
    x_e = one(feats(5, dim=4, seed=16))
    y = one(feats(3, dim=4, seed=17))
    _, weights = layer(y, x_e, A.causal_mask(3))
    w = weights.data[0, 0]
    np.testing.assert_allclose(w, np.full((3, 5), 0.2), rtol=0, atol=1e-12)


def test_transformer_decoder_src_residual_modes_differ():
    kw = dict(d=1, d_att=8, d_ff=16, d_head=2, dropout_rate=0.0)
    paper = TransformerDecoderBody(normalize="pre", src_residual="paper",
                                   rng=np.random.default_rng(18), **kw)
    conv = TransformerDecoderBody(normalize="pre", src_residual="conventional",
                                  rng=np.random.default_rng(18), **kw)
    x_e, y = one(feats(4, dim=8, seed=19)), one(feats(3, dim=8, seed=20))
    assert not np.allclose(paper(y, x_e, [4]).data, conv(y, x_e, [4]).data)


# the sublayer wiring written out in NumPy, one row sequence at a time


def np_norm(ln, x):
    """A LayerNorm, or normalize = "none"'s identity."""
    if not isinstance(ln, LayerNorm):
        return x
    xc = x - x.mean(axis=-1, keepdims=True)
    sd = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-12)
    return xc / sd * ln.gain.data + ln.bias.data


def np_mha(mha, q, kv, causal=False):
    """Multi-head attention of q (n_q, d) over kv (n_k, d), head by head;
    every head projects to the full width d."""
    d, heads = q.shape[-1], []
    for h in range(mha.n_heads):
        cols = slice(h * d, (h + 1) * d)
        s = (q @ mha.wq.data[:, cols]) @ (kv @ mha.wk.data[:, cols]).T
        s = s / np.sqrt(d)
        if causal:
            s = np.where(np.tril(np.ones(s.shape, dtype=bool)), s, -np.inf)
        w = np.exp(s - s.max(axis=-1, keepdims=True))
        heads.append(w / w.sum(axis=-1, keepdims=True)
                     @ (kv @ mha.wv.data[:, cols]))
    return np.concatenate(heads, axis=-1) @ mha.w_head.data


def np_ff(ff, x):
    h = np.maximum(x @ ff.lin1.weight.data + ff.lin1.bias.data, 0.0)
    return h @ ff.lin2.weight.data + ff.lin2.bias.data


def np_encoder_layer(layer, x, normalize):
    att = lambda h: np_mha(layer.mha, h, h)               # noqa: E731
    if normalize == "pre":
        x = x + att(np_norm(layer.ln1, x))
        return x + np_ff(layer.ff, np_norm(layer.ln2, x))
    x = np_norm(layer.ln1, x + att(x))
    return np_norm(layer.ln2, x + np_ff(layer.ff, x))


def np_decoder_layer(layer, y, x_e, normalize, src_residual):
    self_att = lambda h: np_mha(layer.self_mha, h, h, True)  # noqa: E731
    src_att = lambda q: np_mha(layer.src_mha, q, x_e)        # noqa: E731
    if normalize == "pre":
        y1 = y + self_att(np_norm(layer.ln1, y))
        y2 = (y if src_residual == "paper" else y1) + src_att(
            np_norm(layer.ln2, y1))
        return y2 + np_ff(layer.ff, np_norm(layer.ln3, y2))
    y1 = np_norm(layer.ln1, y + self_att(y))
    y2 = np_norm(layer.ln2, (y if src_residual == "paper" else y1)
                 + src_att(y1))
    return np_norm(layer.ln3, y2 + np_ff(layer.ff, y2))


def _randomize_norms(module, rng):
    for name, p in module.named_parameters():
        if ".ln" in "." + name or name.startswith("final_ln"):
            p.data[...] = rng.standard_normal(p.shape)


@pytest.mark.parametrize("normalize", ["pre", "post", "none"])
@pytest.mark.parametrize("src_residual", ["paper", "conventional"])
def test_transformer_sublayer_wiring_matches_numpy(normalize, src_residual):
    # dropout 0 and every LayerNorm's gain and bias drawn at random: the
    # encoder layer's and the decoder layer's forward, and the decoder
    # body's array step (final norm included), over two padded rows,
    # each equal per row to the written-out wiring of its real frames
    rng = np.random.default_rng(60)
    lens = [5, 3]
    x = rng.standard_normal((2, 5, 8))
    enc = TransformerEncoderLayer(8, 16, 2, 0.0, normalize, rng)
    body = TransformerDecoderBody(1, 8, 16, 2, 0.0, normalize, src_residual,
                                  rng)
    for module in (enc, body):
        _randomize_norms(module, rng)
        module.eval()
    got = enc(Tensor(x), models._key_mask(5, lens)).data
    for b, n in enumerate(lens):
        np.testing.assert_allclose(got[b, :n], np_encoder_layer(
            enc, x[b, :n], normalize), rtol=0, atol=1e-12)

    layer = body.layers[0]
    y = rng.standard_normal((2, 4, 8))
    got = layer(Tensor(y), Tensor(x), A.causal_mask(4),
                models._key_mask(5, lens))[0].data
    want = [np_decoder_layer(layer, y[b], x[b, :n], normalize, src_residual)
            for b, n in enumerate(lens)]
    for b in range(2):
        np.testing.assert_allclose(got[b], want[b], rtol=0, atol=1e-12)

    state = body.init_state(Tensor(x), np.array(lens))
    for t in range(4):
        out, state = body.step(state, Tensor(y[:, t]))
        for b in range(2):
            np.testing.assert_allclose(
                out.data[b], np_norm(body.final_ln, want[b][t])
                if normalize == "pre" else want[b][t], rtol=0, atol=1e-12)


def test_transformer_decoder_grad():
    rng = np.random.default_rng(21)
    body = TransformerDecoderBody(1, 8, 16, 2, 0.0, "pre", "paper", rng)
    body.eval()
    x_e = Tensor(np.random.default_rng(22).standard_normal((1, 3, 8)),
                 requires_grad=True)
    y = Tensor(np.random.default_rng(23).standard_normal((1, 4, 8)),
               requires_grad=True)

    def f(*_):
        return T.tanh(body(y, x_e, [3])).sum()

    assert grad_check(f, [y, x_e] + body.parameters(), max_coords=3, rng=2) < 1e-5


def test_lstm_decoder_attention_normalized_and_single_frame():
    rng = np.random.default_rng(24)
    body = LstmDecoderBody(2, 6, rng)
    x_e = one(feats(5, dim=6, seed=25))
    y0 = one(feats(4, dim=6, seed=26))
    recs = []
    out = body(y0, x_e, [5], records=recs)
    assert out.shape == (1, 4, 6)
    assert recs[0].shape == (1, 1, 4, 5)
    w = recs[0].data[0, 0]
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    frame = Tensor(x_e.data[:, 2:3].copy())
    recs1 = []
    body(y0, frame, [1], records=recs1)
    np.testing.assert_allclose(recs1[0].data, 1.0, atol=0)


def test_lstm_decoder_grad():
    body = LstmDecoderBody(1, 4, np.random.default_rng(27))
    x_e = Tensor(np.random.default_rng(28).standard_normal((1, 3, 4)),
                 requires_grad=True)
    y0 = Tensor(np.random.default_rng(29).standard_normal((1, 3, 4)),
                requires_grad=True)

    def f(*_):
        return body(y0, x_e, [3]).sum()

    assert grad_check(f, [y0, x_e] + body.parameters(), max_coords=3, rng=3) < 1e-5


# ------------------------------------------------------------- s2s model


def test_dec_post_rows_normalized_and_uniform_when_zeroed():
    model = S2SModel(toy_cfg())
    model.eval()
    enc = encode_one(model, feats(9))
    lp = model.decode_logprobs(enc, [[SOS_EOS_ID, 3, 4]])
    assert lp.shape == (1, 3, 7)
    np.testing.assert_allclose(np.exp(lp.data).sum(axis=-1), 1.0, atol=1e-9)

    model.dec_post.weight.data[:] = 0.0
    model.dec_post.bias.data[:] = 0.0
    lp = model.decode_logprobs(enc, [[SOS_EOS_ID, 3]])
    np.testing.assert_allclose(lp.data, -np.log(7.0), rtol=1e-12)


def test_dec_post_extended_precision():
    mp.dps = 50
    model = S2SModel(toy_cfg())
    model.eval()
    enc = encode_one(model, feats(8, seed=30))
    lp = model.decode_logprobs(enc, [[SOS_EOS_ID, 3]]).data[0]
    # recompute the final log-softmax from the pre-softmax activations
    y_d = model.dec_body(model.dec_pre(np.array([[SOS_EOS_ID, 3]])), enc.x_e,
                         enc.n_sub)
    logits = model.dec_post(y_d).data[0]
    for row in range(2):
        s = sum(mp.e ** mp.mpf(v) for v in logits[row])
        for col in range(7):
            want = float(mp.mpf(logits[row, col]) - mp.log(s))
            assert abs(lp[row, col] - want) < 1e-12


def test_end_to_end_asr_grad_both_bodies():
    # Loss touches every head plus the recorded attention weights with
    # generic random weightings, so no parameter has a degenerate
    # near-zero gradient. h=1e-4 keeps central differences above the
    # float64 cancellation floor for this deep composition.
    for body in ("transformer", "rnn"):
        model = S2SModel(toy_cfg(body=body, e=1, d=1))
        model.eval()
        x = feats(8, seed=31)
        ys = [SOS_EOS_ID, 3, 5]
        n_sub = encode_one(model, x).n_sub[0]
        R = Tensor(np.random.default_rng(7).standard_normal((n_sub, 7)))
        R2 = Tensor(np.random.default_rng(8).standard_normal((3, n_sub)))

        def f(*_):
            enc = encode_one(model, x)
            recs = []
            lp = model.decode_logprobs(enc, [ys], records=recs)
            ctc = model.ctc_logprobs(enc)
            att = recs[-1][0, 0]
            return (lp[0, np.arange(3), np.array([3, 5, SOS_EOS_ID])].sum()
                    + (ctc * R).sum() + (att * R2).sum())

        err = grad_check(f, model.parameters(), h=1e-4, max_coords=2, rng=4,
                         atol=1e-7)
        assert err < 1e-5, f"body={body}: {err}"


def test_end_to_end_decoder_causality():
    model = S2SModel(toy_cfg(e=1, d=2))
    model.eval()
    enc = encode_one(model, feats(10, seed=32))
    full = model.decode_logprobs(enc, [[SOS_EOS_ID, 3, 4, 5, 6]]).data[0]
    short = model.decode_logprobs(enc, [[SOS_EOS_ID, 3, 4]]).data[0]
    assert np.array_equal(full[:3], short)


def test_padded_batch_equivalence():
    # each row of a padded batch, front end, body, CTC head and decoder
    # alike, equals its utterance run alone; the shortest row needs every
    # stage's tail re-zeroed and masked
    yss = [[SOS_EOS_ID, 3, 4, 6], [SOS_EOS_ID, 5], [SOS_EOS_ID, 6, 6, 3, 4, 5]]
    for body in ("transformer", "rnn"):
        for enc_pre in ("conv", "vgg"):
            model = S2SModel(toy_cfg(body=body, e=2, d=2, feat_dim=8,
                                     enc_pre=enc_pre, alpha=0.5))
            model.eval()
            xs = [feats(n, dim=8, seed=33 + n).data for n in (13, 18, 9)]
            batch = model.encode(*pad_sequences(xs))
            lp = model.decode_logprobs(batch, yss).data
            ctc = model.ctc_logprobs(batch).data
            for b, (x, ys) in enumerate(zip(xs, yss)):
                enc = encode_one(model, Tensor(x))
                n = enc.n_sub[0]
                assert batch.n_sub[b] == n == model.enc_pre.frames(len(x))
                np.testing.assert_allclose(batch.x_e.data[b, :n],
                                           enc.x_e.data[0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(ctc[b, :n],
                                           model.ctc_logprobs(enc).data[0],
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    lp[b, :len(ys)], model.decode_logprobs(enc, [ys]).data[0],
                    rtol=0, atol=1e-12)


def test_rnn_toy_decoder_tape_ops():
    # eight teacher-forced steps of the rnn-toy LSTM decoder: every
    # utterance holds one row, so laying its rows out as per-utterance
    # blocks and back costs one reshape each way per step, and the
    # step-major rows take one final gather into (B, t, d_att)
    cfg = experiment_from_items({"preset": "rnn-toy"}).model
    cfg.vocab_size, cfg.feat_dim = 12, 8
    model = build_model(cfg)
    model.eval()
    ys = [SOS_EOS_ID, 3, 4, 5, 6, 7, 8, 9]
    enc = encode_one(model, feats(40, dim=8, seed=51))
    y0 = model.dec_pre(np.array([ys]))
    with T.Graph() as g:
        model.dec_body(y0, enc.x_e, enc.n_sub)
    assert g.op_count == 156
    batch = model.encode(*pad_sequences([feats(n, dim=8).data
                                         for n in (40, 31, 22)]))
    y0 = model.dec_pre(np.array([ys] * 3))
    with T.Graph() as g:
        model.dec_body(y0, batch.x_e, batch.n_sub)
    assert g.op_count == 156 + 8        # 8 key-mask additions


def test_body_swap_keeps_interface_shapes():
    shapes = {}
    for body in ("transformer", "rnn"):
        model = S2SModel(toy_cfg(body=body))
        model.eval()
        enc = encode_one(model, feats(9, seed=34))
        lp = model.decode_logprobs(enc, [[SOS_EOS_ID, 3]])
        shapes[body] = (enc.x_e.shape, lp.shape)
    assert shapes["transformer"] == shapes["rnn"]


def _step_through(model, enc, prefixes, orders):
    """Step a batch of hypotheses along their prefixes, reordering rows
    with orders[i] after step i; yields (rows, prefixes consumed)."""
    state = model.init_state(enc).select([0] * len(prefixes))
    last = [SOS_EOS_ID] * len(prefixes)
    for i in range(len(prefixes[0]) + 1):
        rows, state = model.step(state, last)
        yield rows, [p[:i] for p in prefixes]
        if i == len(prefixes[0]):
            return
        order = orders[i % len(orders)]
        state = state.select(order)
        prefixes = [prefixes[j] for j in order]
        last = [p[i] for p in prefixes]


def test_step_rows_are_last_decode_rows():
    # every body and normalization, three hypotheses five tokens deep,
    # rows reordered and repeated between steps as pruning does
    cases = [dict(body="rnn", d=2)]
    cases += [dict(normalize=n, src_residual=r, d=2, d_head=3)
              for n in ("pre", "post", "none")
              for r in ("paper", "conventional")]
    prefixes = [(3, 4, 4, 5, 6), (6, 6, 3, 1, 4), (4, 3, 5, 5, 3)]
    orders = ([2, 0, 1], [1, 1, 0], [0, 2, 2])
    for i, kw in enumerate(cases):
        model = S2SModel(toy_cfg(**kw, seed=40 + i))
        model.eval()
        enc = encode_one(model, feats(13, seed=35 + i))
        steps = 0
        for rows, consumed in _step_through(model, enc, prefixes, orders):
            assert rows.shape == (3, 7)
            for row, p in zip(rows, consumed):
                full = model.decode_logprobs(enc,
                                             [[SOS_EOS_ID] + list(p)]).data
                np.testing.assert_allclose(row, full[0, -1], rtol=0,
                                           atol=1e-9)
            steps += 1
        assert steps == 6


def test_step_leaves_its_input_state_unchanged():
    for body in ("transformer", "rnn"):
        model = S2SModel(toy_cfg(body=body))
        model.eval()
        enc = encode_one(model, feats(9, seed=36))
        state = model.init_state(enc)
        _, state = model.step(state, [SOS_EOS_ID])
        again, _ = model.step(state, [3])
        other, _ = model.step(state, [3])
        np.testing.assert_array_equal(again, other)



def test_ended_utterance_leaves_the_state():
    # three utterances, the longest in the middle: once its rows are gone
    # the source side holds the other two, cut to the longer of them, and
    # their rows, out of utterance order, step as in a state started on
    # those two alone
    for body in ("transformer", "rnn"):
        model = S2SModel(toy_cfg(body=body, d=2))
        model.eval()
        xs = [feats(n, seed=37 + n).data for n in (9, 21, 13)]
        state = model.init_state(model.encode(*pad_sequences(xs)))
        state = state.select([0, 0, 1, 2, 2])
        _, state = model.step(state, [SOS_EOS_ID] * 5)
        state = state.select([3, 0, 4, 1])
        ref = model.init_state(model.encode(*pad_sequences([xs[0], xs[2]])))
        ref = ref.select([0, 0, 1, 1])
        _, ref = model.step(ref, [SOS_EOS_ID] * 4)
        ref = ref.select([2, 0, 3, 1])
        # each Transformer layer's source keys first, or the LSTM's x_e
        source = state.source[0]
        assert source.shape[:2] == (2, ConvSubsampler.frames(13))
        for tokens in ([3, 4, 5, 6], [6, 6, 3, 3]):
            rows, state = model.step(state, tokens)
            want, ref = model.step(ref, tokens)
            np.testing.assert_allclose(rows, want, rtol=0, atol=1e-12)


def test_search_cache_grows_as_concat_then_take():
    # three utterances; between steps, selects reorder, repeat and drop
    # rows and drop whole utterances (the second, then the third), and
    # twice come two in a row, each gathering its rows. After every step
    # each layer's keys and values equal, bit for bit, a reference that
    # concatenates the new position and then gathers the selected rows,
    # and each row is the last row of decode_logprobs over its prefix
    model = S2SModel(toy_cfg(d=2, d_head=3, seed=44))
    model.eval()
    xs = [feats(n, seed=60 + n) for n in (9, 21, 13)]
    encs = [encode_one(model, x) for x in xs]
    plan = [([[0, 0, 1, 1, 2, 2]], [3, 4, 5, 6, 3, 4]),
            ([[5, 1, 1, 4, 0], [0, 2, 3, 3, 4, 1]], [6, 5, 5, 3, 4, 6]),
            ([[1, 4, 5]], [3, 4, 5]),
            ([[2, 0], [1, 1, 0]], [4, 6, 5])]
    state = model.init_state(model.encode(*pad_sequences([x.data
                                                          for x in xs])))
    hyps = [(u, ()) for u in range(3)]           # (utterance, prefix)
    last = [SOS_EOS_ID] * 3
    # (keys, values) per layer: 3 rows, 0 positions, 3 heads x d_att 8
    ref = [(np.zeros((3, 0, 24)),) * 2] * 2
    for step in range(len(plan) + 1):
        rows, state = model.step(state, last)
        caches = state.rows
        ref = [(np.concatenate([k, c.keys[-1][:, None]], axis=1),
                np.concatenate([v, c.values[-1][:, None]], axis=1))
               for c, (k, v) in zip(caches, ref)]
        for c, (k, v) in zip(caches, ref):
            np.testing.assert_array_equal(np.swapaxes(c.keys, 0, 1), k)
            np.testing.assert_array_equal(np.swapaxes(c.values, 0, 1), v)
        for row, (u, prefix) in zip(rows, hyps):
            full = model.decode_logprobs(encs[u],
                                         [[SOS_EOS_ID, *prefix]]).data
            np.testing.assert_allclose(row, full[0, -1], rtol=0, atol=1e-9)
        if step == len(plan):
            break
        orders, last = plan[step]
        for order in orders:
            state = state.select(order)
            hyps = [hyps[j] for j in order]
            ref = [(k[order], v[order]) for k, v in ref]
        hyps = [(u, prefix + (tok,)) for (u, prefix), tok in zip(hyps, last)]
    assert {u for u, _ in hyps} == {0} and ref[0][0].shape[:2] == (3, 5)


# the steppers whose one SearchState the property below drives: the
# Transformer body under each normalization and source residual, the rnn
# body, and the LM
STEPPERS = ([dict(normalize=n, src_residual=r)
             for n in ("pre", "post", "none")
             for r in ("paper", "conventional")] + [dict(body="rnn"), "lm"])


@st.composite
def search_plans(draw):
    """A stepper, 1-3 utterances of unequal frame counts, and per step the
    row maps applied before it (repeating, reordering and dropping rows,
    and so whole utterances) and the token each row then consumes; the
    first step consumes the start id."""
    case = draw(st.integers(0, len(STEPPERS) - 1))
    lens = draw(st.lists(st.integers(4, 24), min_size=1, max_size=3,
                         unique=True))
    b, plan = len(lens), []
    for i in range(draw(st.integers(1, 4))):
        orders = []
        for _ in range(draw(st.integers(0, 2))):
            orders.append(draw(st.lists(st.integers(0, b - 1), min_size=1,
                                        max_size=6)))
            b = len(orders[-1])
        tokens = st.just(SOS_EOS_ID) if i == 0 else st.integers(0, 6)
        plan.append((orders, draw(st.lists(tokens, min_size=b, max_size=b))))
    return case, lens, plan


def test_search_state_select_keeps_every_stepper_exact():
    # every step's rows are the last rows of the teacher-forced pass over
    # each row's prefix, the source holds the utterances left, and the
    # Transformer's keys and values equal a concatenate-then-take
    # reference bit for bit
    models_ = {}

    def stepper(case):
        if case not in models_:
            kw = STEPPERS[case]
            models_[case] = (build_model(ModelConfig(
                task="lm", vocab_size=7, d_att=6, seed=52)) if kw == "lm"
                else S2SModel(toy_cfg(**kw, d=2, d_head=3, seed=53)))
            models_[case].eval()
        return models_[case]

    @settings(PROPERTY, max_examples=150)
    @given(search_plans())
    def check(plan):
        case, lens, steps = plan
        model, kw = stepper(case), STEPPERS[case]
        xs = [feats(n, seed=54 + n).data for n in lens]
        if kw == "lm":
            state = model.init_state().select([0] * len(xs))
            full = lambda u, ys: model.full_logprobs([ys])
        else:
            state = model.init_state(model.encode(*pad_sequences(xs)))
            encs = [model.encode(*pad_sequences([x])) for x in xs]
            full = lambda u, ys: model.decode_logprobs(encs[u], [ys])
        hyps = [(u, ()) for u in range(len(xs))]       # (utterance, prefix)
        # the Transformer's keys and values per layer, (B, t, H*d_att)
        ref = (None if kw == "lm" or "body" in kw
               else [(np.zeros((len(xs), 0, 24)),) * 2] * 2)
        for orders, tokens in steps:
            for order in orders:
                state = state.select(order)
                hyps = [hyps[j] for j in order]
                if ref is not None:
                    ref = [(k[order], v[order]) for k, v in ref]
            rows, state = model.step(state, tokens)
            hyps = [(u, p + (tok,)) for (u, p), tok in zip(hyps, tokens)]
            if state.source:
                # the source holds the utterances with rows, cut to the
                # longest of them
                live = {u for u, _ in hyps}
                assert state.source[0].shape[:2] == (len(live), max(
                    ConvSubsampler.frames(lens[u]) for u in live))
            with T.no_grad():
                for row, (u, prefix) in zip(rows, hyps):
                    np.testing.assert_allclose(
                        row, full(u, list(prefix)).data[0, -1], rtol=0,
                        atol=1e-9)
            if ref is not None:
                ref = [(np.concatenate([k, c.keys[-1][:, None]], axis=1),
                        np.concatenate([v, c.values[-1][:, None]], axis=1))
                       for c, (k, v) in zip(state.rows, ref)]
                for c, (k, v) in zip(state.rows, ref):
                    assert np.array_equal(np.swapaxes(c.keys, 0, 1), k)
                    assert np.array_equal(np.swapaxes(c.values, 0, 1), v)
    check()


def test_synthesis_step_appends_in_place_and_keeps_earlier_states():
    # one row and no select, as in every synthesis step: a state stepped
    # twice with different inputs, once with room in its buffer and once
    # when the buffer doubles, gives two results that each equal a fresh
    # run's outputs, keys and values bit for bit, the first intact after
    # the second step
    model = S2SModel(toy_cfg(d=2, d_head=3, seed=45))
    model.eval()
    body = model.dec_body
    enc = encode_one(model, feats(9, seed=46))
    rng = np.random.default_rng(47)
    ys = [Tensor(rng.standard_normal((1, 8))) for _ in range(40)]

    def run(inputs):
        state = body.init_state(enc.x_e, enc.n_sub)
        for y in inputs:
            out, state = body.step(state, y)
        return out.data, state

    cap = len(run(ys[:1])[1].rows[0].past.keys)
    assert 1 < cap < 38
    for n in (cap - 1, cap):
        _, state = run(ys[:n])
        first, after_first = body.step(state, ys[n])
        second, after_second = body.step(state, ys[n + 1])
        in_place = after_first.rows[0].past is state.rows[0].past
        assert in_place == (n < cap)
        for out, after, y in ((first, after_first, ys[n]),
                              (second, after_second, ys[n + 1])):
            want, ref = run(ys[:n] + [y])
            np.testing.assert_array_equal(out.data, want)
            for c, r in zip(after.rows, ref.rows):
                assert c.t == n + 1
                np.testing.assert_array_equal(c.keys, r.keys)
                np.testing.assert_array_equal(c.values, r.values)


@pytest.mark.parametrize("normalize", ["pre", "post", "none"])
@pytest.mark.parametrize("src_residual", ["paper", "conventional"])
def test_transformer_decoder_step_records_no_tape_op(normalize, src_residual):
    # the body steps on plain arrays: no tape op even with gradients
    # enabled, for one row per utterance and for rows gathered into
    # blocks over a padded source
    model = S2SModel(toy_cfg(d=2, normalize=normalize,
                             src_residual=src_residual, seed=48))
    model.eval()
    body = model.dec_body
    enc = model.encode(*pad_sequences([feats(n, seed=49 + n).data
                                       for n in (9, 14)]))
    rng = np.random.default_rng(50)
    for rows in (None, [0, 1, 1, 0]):
        state = body.init_state(enc.x_e, enc.n_sub)
        if rows is not None:
            state = state.select(rows)
        b = 2 if rows is None else len(rows)
        with T.Graph() as g:
            for _ in range(3):
                _, state = body.step(state, Tensor(rng.standard_normal((b, 8))))
        assert g.op_count == 0


def test_transformer_decoder_step_refuses_training_mode_dropout():
    model = S2SModel(toy_cfg(dropout_rate=0.1))
    model.eval()
    enc = encode_one(model, feats(9, seed=51))
    model.train()
    with T.no_grad(), T.Graph():
        state = model.dec_body.init_state(enc.x_e, enc.n_sub)
        with pytest.raises(RuntimeError, match="eval mode"):
            model.dec_body.step(state, Tensor(np.zeros((1, 8))))


def test_mha_init_keeps_per_head_glorot_order():
    # q, k, v of head 0, then of head 1, ..., then w_head: the draws of
    # one (d, d) parameter per head, laid side by side
    d, h = 4, 3
    mha = MultiHeadAttention(d, h, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    s = np.sqrt(6.0 / (2 * d))
    blocks = [[rng.uniform(-s, s, (d, d)) for _ in range(3)] for _ in range(h)]
    s_head = np.sqrt(6.0 / (h * d + d))
    w_head = rng.uniform(-s_head, s_head, (h * d, d))
    for i, name in enumerate(("wq", "wk", "wv")):
        want = np.concatenate([b[i] for b in blocks], axis=1)
        assert np.array_equal(getattr(mha, name).data, want)
    assert np.array_equal(mha.w_head.data, w_head)
    assert [n for n, _ in mha.named_parameters()] == ["wq", "wk", "wv",
                                                      "w_head"]


def test_transformer_toy_forward_tape_ops():
    # 60 frames and 6 tokens through encoder and decoder; each of the
    # six attentions records three projections, the two head-batched
    # ops and the output projection
    cfg = experiment_from_items({"preset": "transformer-toy"}).model
    cfg.vocab_size, cfg.feat_dim = 12, 8
    model = build_model(cfg)
    with T.Graph() as g:
        enc = encode_one(model, feats(60, dim=8, seed=50))
        model.decode_logprobs(enc, [[SOS_EOS_ID, 3, 4, 5, 6, 7]])
    assert g.op_count <= 110, g.op_count


def test_encode_rejects_a_single_utterance_layout():
    # one utterance is a batch of one; its bare (n, feat_dim) frames name
    # the shape encode expects, and so do the ops and modules under it
    model = S2SModel(toy_cfg())
    with pytest.raises(DimensionError, match=r"\(B, n_max, feat_dim\)"):
        model.encode(feats(9), [9])
    conv = model.enc_pre.conv1
    with pytest.raises(DimensionError, match=r"\(B, \*spatial, c_in\)"):
        T.conv(feats(9), conv.weight, conv.bias)
    lstm = S2SModel(toy_cfg(body="rnn")).enc_body.layers[0].fwd
    with pytest.raises(DimensionError, match=r"\(B, t, d_in\)"):
        lstm(feats(9, dim=8), [9])
    with pytest.raises(DimensionError, match=r"\(B, n\)"):
        model.dec_pre([4, 3, 4])


# ------------------------------------------------------------- config


def test_config_rejects_ctc_for_st():
    with pytest.raises(ConfigError):
        ModelConfig(task="st", vocab_size=7, alpha=0.7).validate()
    cfg = ModelConfig(task="st", vocab_size=7, alpha=1.0, e=1, d=1, d_att=8,
                      d_ff=16, d_head=1, dropout_rate=0.0)
    model = build_model(cfg)
    assert model.ctc_post is None


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        toy_cfg(task="mt").validate()
    with pytest.raises(ConfigError):
        toy_cfg(e=0).validate()
    with pytest.raises(ConfigError):
        toy_cfg(normalize="rms").validate()
    with pytest.raises(ConfigError):
        toy_cfg(vocab_size=3).validate()
    with pytest.raises(ConfigError):
        toy_cfg(alpha=1.5).validate()


def test_paper_scale_defaults():
    cfg = ModelConfig(vocab_size=33)
    assert (cfg.e, cfg.d, cfg.d_att, cfg.d_ff, cfg.d_head) == (12, 6, 256, 2048, 4)


# ------------------------------------------------------------- tts


def tts_cfg(**kw) -> ModelConfig:
    base = dict(task="tts", body="transformer", e=1, d=2, d_att=8, d_ff=16,
                d_head=2, dropout_rate=0.0, vocab_size=7, feat_dim=5,
                reduction_factor=2, prenet_units=8, postnet_layers=3,
                prenet_dropout_rate=0.0, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_prenet_shape_and_determinism_at_zero_rate():
    pre = Prenet(5, 8, 8, rate=0.0, always_dropout=True,
                 rng=np.random.default_rng(36))
    y = feats(4, seed=37)
    a = pre(y).data
    b = pre(y).data
    assert a.shape == (4, 8)
    assert np.array_equal(a, b)


def test_prenet_grad():
    pre = Prenet(5, 8, 6, rate=0.0, always_dropout=False,
                 rng=np.random.default_rng(38))
    pre.eval()
    y = Tensor(np.random.default_rng(39).standard_normal((3, 5)),
               requires_grad=True)

    def f(*_):
        return T.tanh(pre(y)).sum()

    assert grad_check(f, [y] + pre.parameters(), max_coords=4, rng=5) < 1e-5


def test_postnet_zero_final_layer_keeps_coarse():
    model = TtsModel(tts_cfg())
    model.eval()
    last = model.postnet.convs[-1]
    last.weight.data[:] = 0.0
    last.bias.data[:] = 0.0
    enc = model.encode([[3, 4, 5]])
    fb = model.forward_teacher(
        enc, [np.random.default_rng(40).standard_normal((4, 5))])
    np.testing.assert_array_equal(fb.refined.data, fb.coarse.data)


def _postnet_batch(lens, seed=0):
    """Padded (B, n_max, 5) coarse frames whose padding holds noise, so a
    stage that reads past a row's end shows, and the rows alone."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((len(lens), max(lens), 5))
    return x, [x[b, :n].copy() for b, n in enumerate(lens)]


def test_postnet_padded_rows_equal_unpadded_runs():
    # every layer's input and output are re-zeroed past a row's end: with
    # the padding full of noise, each row equals its run alone followed by
    # zeros, and no padded frame gets a gradient
    post = Postnet(5, 8, 3, 0.0, np.random.default_rng(43))
    post.eval()
    lens = [7, 2, 5, 1]
    x, rows = _postnet_batch(lens, seed=44)
    weights = np.random.default_rng(45).standard_normal(x.shape)
    xb = Tensor(x, requires_grad=True)
    T.backward((post(xb, np.array(lens)) * Tensor(weights)).sum())
    out = post(Tensor(x), np.array(lens)).data
    for b, (n, row) in enumerate(zip(lens, rows)):
        xr = Tensor(row[None], requires_grad=True)
        alone = post(xr, [n])
        np.testing.assert_allclose(out[b, :n], alone.data[0], rtol=0,
                                   atol=1e-12)
        assert not out[b, n:].any()
        T.backward((alone * Tensor(weights[b, :n])).sum())
        np.testing.assert_allclose(xb.grad[b, :n], xr.grad[0], rtol=0,
                                   atol=1e-12)
        assert not xb.grad[b, n:].any()


@pytest.mark.parametrize("body", ["transformer", "rnn"])
def test_forward_teacher_padded_rows_equal_unpadded_runs(body):
    # texts and targets of different lengths, r = 2 with odd frame counts:
    # each row's real frames, steps and attention equal its run alone
    model = TtsModel(tts_cfg(body=body, e=2, d=2))
    model.eval()
    rng = np.random.default_rng(46)
    texts = [[3, 4, 5, 6], [5], [6, 3, 4], [4, 4]]
    targets = [rng.standard_normal((n, 5)) for n in (9, 4, 13, 1)]
    enc = model.encode(texts)
    fwd = model.forward_teacher(enc, targets)
    assert list(enc.n_sub) == [4, 1, 3, 2]
    assert list(fwd.n_pad) == [10, 4, 14, 2]
    assert list(fwd.n_steps) == [5, 2, 7, 1]
    assert fwd.coarse.shape == fwd.target.shape == (4, 14, 5)
    for b, (text, target) in enumerate(zip(texts, targets)):
        alone = model.forward_teacher(model.encode([text]), [target])
        n, s, k = fwd.n_pad[b], fwd.n_steps[b], len(text)
        np.testing.assert_array_equal(fwd.target[b, :n], alone.target[0])
        assert not fwd.target[b, n:].any()
        for got, want in ((fwd.coarse, alone.coarse),
                          (fwd.refined, alone.refined)):
            np.testing.assert_allclose(got.data[b, :n], want.data[0], rtol=0,
                                       atol=1e-12)
        np.testing.assert_allclose(fwd.eos_logits.data[b, :s],
                                   alone.eos_logits.data[0], rtol=0,
                                   atol=1e-12)
        for w, w_alone in zip(fwd.records, alone.records):
            np.testing.assert_allclose(w.data[b, :, :s, :k], w_alone.data[0],
                                       rtol=0, atol=1e-12)
            assert not w.data[b, :, :s, k:].any()


def test_reduction_factor_padding_arithmetic():
    model = TtsModel(tts_cfg(reduction_factor=2))
    model.eval()
    target = np.random.default_rng(41).standard_normal((5, 5))
    enc = model.encode([[3, 4]])
    fb = model.forward_teacher(enc, [target])
    assert list(fb.n_pad) == [6] and list(fb.n_steps) == [3]
    assert fb.coarse.shape == (1, 6, 5)
    assert fb.eos_logits.shape == (1, 3)
    padded = model.pad_target(target)
    np.testing.assert_array_equal(padded[5], target[4])
    np.testing.assert_array_equal(fb.target[0], padded)

    r1 = TtsModel(tts_cfg(reduction_factor=1))
    r1.eval()
    fb1 = r1.forward_teacher(r1.encode([[3]]), [target])
    assert list(fb1.n_pad) == [5] and list(fb1.n_steps) == [5]


def test_tts_empty_text_rejected():
    model = TtsModel(tts_cfg())
    with pytest.raises(DataError):
        model.encode([[]])
    with pytest.raises(DataError):
        model.encode([[3], []])


def test_tts_infer_thresholds():
    model = TtsModel(tts_cfg())
    model.eval()
    out, reason = model.infer([3, 4], eos_threshold=0.0, max_frames=20)
    assert reason == "eos" and out.shape[0] == 2  # one step of r=2 frames
    out, reason = model.infer([3, 4], eos_threshold=1.0, max_frames=8)
    assert reason == "cap" and out.shape[0] == 8


def _spy_infer(model, monkeypatch, **kw):
    """infer with the postnet's input (the generated coarse frames), the
    prenet's inputs and the decoder body's step inputs captured."""
    seen = {"postnet": [], "prenet": [], "body": []}
    for name, owner, attr, arg in (("postnet", model.postnet, "forward", 0),
                                   ("prenet", model.prenet, "forward", 0),
                                   ("body", model.dec_body, "step", 1)):
        def spy(*args, _real=getattr(owner, attr), _seen=seen[name], _i=arg):
            _seen.append(args[_i].data.copy())
            return _real(*args)
        monkeypatch.setattr(owner, attr, spy)
    out, reason = model.infer([3, 4, 5], **kw)
    monkeypatch.undo()
    return out, reason, seen


@pytest.mark.parametrize("body,normalize", [
    ("transformer", "pre"), ("transformer", "post"), ("transformer", "none"),
    ("rnn", "pre")])
@pytest.mark.parametrize("threshold,max_frames,n_steps", [
    (1.0, 7, 4),    # cap; r=2 does not divide 7
    (0.0, 7, 1)])   # EOS at step 0
def test_tts_infer_equals_teacher_forcing_on_its_coarse_frames(
        monkeypatch, body, normalize, threshold, max_frames, n_steps):
    model = TtsModel(tts_cfg(body=body, normalize=normalize,
                             prenet_dropout_rate=0.5,
                             prenet_dropout_at_infer=False))
    model.eval()
    out, reason, seen = _spy_infer(model, monkeypatch,
                                   eos_threshold=threshold,
                                   max_frames=max_frames)
    assert reason == ("cap" if threshold == 1.0 else "eos")
    # work: one postnet pass over every coarse frame, as a batch of one,
    # and one new row per step
    assert len(seen["postnet"]) == 1
    assert seen["postnet"][0].shape == (1, 2 * n_steps, 5)
    coarse = seen["postnet"][0][0]
    assert [x.shape[0] for x in seen["prenet"]] == [1] * n_steps
    assert [y.shape[0] for y in seen["body"]] == [1] * n_steps
    # oracle: teacher forcing on the generated coarse frames reproduces them
    fwd = model.forward_teacher(model.encode([[3, 4, 5]]), [coarse])
    np.testing.assert_allclose(fwd.coarse.data[0], coarse, rtol=0, atol=1e-9)
    assert out.shape == (min(max_frames, 2 * n_steps), 5)
    np.testing.assert_allclose(out, fwd.refined.data[0, :max_frames],
                               rtol=0, atol=1e-9)


def test_tts_teacher_grad():
    model = TtsModel(tts_cfg(d=1, postnet_layers=2))
    model.eval()
    # zero step-0 decoder input on zero-init biases puts ReLU exactly at
    # its kink; nudge the biases so FD measures a differentiable point
    model.prenet.lin1.bias.data[:] = 0.05
    model.prenet.lin2.bias.data[:] = 0.05
    target = np.random.default_rng(42).standard_normal((4, 5))

    def f(*_):
        enc = model.encode([[3, 5]])
        fb = model.forward_teacher(enc, [target])
        return (fb.refined.abs().sum() + fb.coarse.abs().sum()
                + T.sigmoid(fb.eos_logits).sum())

    err = grad_check(f, model.parameters(), max_coords=2, rng=6, atol=1e-7)
    assert err < 1e-5


def test_tts_guided_attention_selection():
    model = TtsModel(tts_cfg(d=3, d_head=2))
    model.eval()
    enc = model.encode([[3, 4, 5]])
    fb = model.forward_teacher(enc, [np.zeros((4, 5))])
    sel = model.guided_attention_records(fb.records)
    # 2 heads x last 2 layers, decoder steps x encoder positions
    assert sel.shape == (1, 4, 2, 3)
    np.testing.assert_array_equal(
        sel.data[0], np.concatenate([w.data[0] for w in fb.records[1:]]))

    rnn = TtsModel(tts_cfg(body="rnn", d=2))
    rnn.eval()
    fb = rnn.forward_teacher(rnn.encode([[3, 4, 5], [4]]),
                             [np.zeros((4, 5)), np.zeros((2, 5))])
    # one record of the LSTM decoder's single head
    assert rnn.guided_attention_records(fb.records).shape == (2, 1, 2, 3)


# ------------------------------------------------------------- lm

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    database=None)
LM_VOCAB = 7


@st.composite
def lm_batches(draw):
    """B in 1-4 input id sequences, each starting with the start id: all
    of one length, one of length 1 among the others, or any lengths."""
    b = draw(st.integers(1, 4))
    lens = draw(st.lists(st.integers(1, 6), min_size=b, max_size=b))
    shape = draw(st.sampled_from(["all equal", "length 1", "any"]))
    if shape == "all equal":
        lens = [lens[0]] * b
    elif shape == "length 1":
        lens[draw(st.integers(0, b - 1))] = 1
    tokens = st.integers(0, LM_VOCAB - 1)
    return [[SOS_EOS_ID] + draw(st.lists(tokens, min_size=n - 1,
                                         max_size=n - 1)) for n in lens]


def test_lm_full_logprobs_rows_equal_single_runs_whatever_the_padding():
    lm = build_model(ModelConfig(task="lm", vocab_size=LM_VOCAB, d_att=6,
                                 seed=9))
    pad = T.pad_batch

    @PROPERTY
    @given(lm_batches(), st.integers(0, 2 ** 32 - 1))
    def check(seqs, pad_seed):
        with T.no_grad():
            batch = lm.full_logprobs(seqs).data
            for b, ys in enumerate(seqs):
                np.testing.assert_allclose(
                    batch[b, :len(ys)], lm.full_logprobs([ys]).data[0],
                    rtol=0, atol=1e-10)

            def other_padding(rows, fill):
                ids, lens = pad(rows, fill)
                noise = np.random.default_rng(pad_seed).integers(
                    0, LM_VOCAB, ids.shape)
                past = np.arange(ids.shape[1]) >= lens[:, None]
                return np.where(past, noise, ids), lens

            with mock.patch.object(T, "pad_batch", other_padding):
                repadded = lm.full_logprobs(seqs).data
        for b, ys in enumerate(seqs):
            assert np.array_equal(repadded[b, :len(ys)], batch[b, :len(ys)])
    check()
