"""Batch-equals-singles, refilled-padding and gradient properties of the
batched entry points.

Each property draws, derandomized, B in 1-4 rows of their own lengths:
all equal, one long among short ones, all at the shortest length the
entry point takes, or any; odd and even lengths alike. Row b of the
padded batch must give what the batch of one of row b alone gives,
within 1e-10: in every output, on the row's real part, and in the
gradient of every parameter, where the batch's gradient of a weighted
sum of the real parts must equal the sum of the rows' own. Refilling
the padding of every padded input (tensor.pad_batch filling past each
row's end with draws) must leave every real output and every parameter
gradient as it is, bit for bit.

Batch equals singles: S2SModel.encode (conv and vgg front ends, both
bodies), S2SModel.decode_logprobs (both bodies), TtsModel.forward_teacher
(both bodies, r = 1 and 2), and the tape ops tensor.lstm_scan (both
directions), conv with a 1-d kernel, conv with a 2-d kernel into
max_pool2d, attention_weights and mix_heads under key masks, and
layer_norm. Refilled padding: the three model entry points, in the same
cases. grad_check of the same weighted sum: the three model entry
points, in the same cases, at their smallest shapes (two rows, one a
frame or token longer than the other).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minis2s import tensor as T
from minis2s.models import ModelConfig, S2SModel, TtsModel, pad_sequences
from minis2s.reserved import N_RESERVED, SOS_EOS_ID
from minis2s.tensor import Tensor, backward, grad_check

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None,
                    database=None)
TOL = 1e-10
VOCAB, FEAT_DIM, D_ATT = 7, 5, 8


@st.composite
def row_lengths(draw, shortest, longest, n_b=None):
    """B in 1-4 row lengths in [shortest, longest], or n_b of them."""
    if n_b is None:
        n_b = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["equal", "one long", "shortest", "any"]))
    if kind == "equal":
        return [draw(st.integers(shortest, longest))] * n_b
    if kind == "shortest":
        return [shortest] * n_b
    if kind == "any":
        return draw(st.lists(st.integers(shortest, longest), min_size=n_b,
                             max_size=n_b))
    lens = [draw(st.integers(shortest, shortest + 2))] * n_b
    lens[draw(st.integers(0, n_b - 1))] = draw(st.integers(longest - 2,
                                                           longest))
    return lens


@st.composite
def asr_rows(draw):
    """(frame counts, input token counts) of B utterances."""
    n_tokens = draw(row_lengths(1, 5))
    return draw(row_lengths(4, 13, len(n_tokens))), n_tokens


def _weighted_sum(outs, idx, seed):
    """The sum over every output of run(idx) of its real parts times
    fixed weights, drawn per (output, row)."""
    loss = None
    for k, (out, extents) in enumerate(outs):
        w = np.zeros(out.shape)
        for i, (b, ext) in enumerate(zip(idx, extents)):
            w[(i,) + tuple(map(slice, ext))] = np.random.default_rng(
                [seed, k, b]).standard_normal(ext)
        term = (out * Tensor(w)).sum()
        loss = term if loss is None else loss + term
    return loss


def _weighted_grads(run, idx, leaves, seed):
    """The outputs of run(idx), each with its rows' real extents, and the
    gradients of the leaves of their weighted sum."""
    for p in leaves:
        p.grad = None
    outs = run(idx)
    backward(_weighted_sum(outs, idx, seed))
    return ([(out.data, extents) for out, extents in outs],
            [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for p in leaves])


def assert_batch_equals_singles(run, n_rows, leaves, seed):
    """run(idx) -> [(output, extents)]: the outputs of the padded batch of
    rows idx, each (len(idx), ...), with the real extent of each of its
    rows. Row b of the batch of every row must equal the batch of row b
    alone on its real part, and the batch's leaf gradients the sum of the
    single rows'."""
    idx = list(range(n_rows))
    outs, grads = _weighted_grads(run, idx, leaves, seed)
    summed = [np.zeros_like(g) for g in grads]
    for b in idx:
        alone, alone_grads = _weighted_grads(run, [b], leaves, seed)
        for k, ((out, extents), (want, want_ext)) in enumerate(
                zip(outs, alone)):
            assert tuple(extents[b]) == tuple(want_ext[0]), (k, b)
            real = tuple(map(slice, extents[b]))
            np.testing.assert_allclose(out[b][real], want[0][real], rtol=0,
                                       atol=TOL, err_msg=f"output {k} row {b}")
        summed = [s + g for s, g in zip(summed, alone_grads)]
    for i, (g, s) in enumerate(zip(grads, summed)):
        np.testing.assert_allclose(g, s, rtol=0, atol=TOL,
                                   err_msg=f"gradient of leaf {i}")


def assert_grad_checks(run, n_rows, leaves, seed):
    """run as assert_batch_equals_singles takes it: the leaf gradients of
    the weighted sum of the batch of every row must match central
    differences, on a few coordinates of every leaf."""
    idx = list(range(n_rows))
    err = grad_check(lambda *_: _weighted_sum(run(idx), idx, seed), leaves,
                     h=1e-4, max_coords=3, rng=seed, atol=1e-7)
    assert err < 1e-5, err


def refilled_padding(seed):
    """tensor.pad_batch, patched to fill past each row's end with draws:
    token ids for an integer array, 3 standard normals for a float one."""
    pad = T.pad_batch

    def noisy(seqs, fill):
        out, lens = pad(seqs, fill)
        rng = np.random.default_rng(seed)
        noise = (rng.integers(0, VOCAB, out.shape) if out.dtype.kind == "i"
                 else 3 * rng.standard_normal(out.shape))
        past = ~T.length_mask(lens, out.shape[1])
        return np.where(past.reshape(past.shape + (1,) * (out.ndim - 2)),
                        noise, out), lens

    return mock.patch.object(T, "pad_batch", noisy)


def assert_padding_unread(run, n_rows, leaves, seed):
    """run as assert_batch_equals_singles takes it: the batch of every
    row, its padding refilled, must give every output's real part and
    every leaf gradient bit for bit."""
    idx = list(range(n_rows))
    outs, grads = _weighted_grads(run, idx, leaves, seed)
    with refilled_padding(seed):
        again, again_grads = _weighted_grads(run, idx, leaves, seed)
    for k, ((out, extents), (other, _)) in enumerate(zip(outs, again)):
        for b, ext in enumerate(extents):
            real = (b,) + tuple(map(slice, ext))
            np.testing.assert_array_equal(other[real], out[real],
                                          err_msg=f"output {k} row {b}")
    for i, (g, h) in enumerate(zip(grads, again_grads)):
        np.testing.assert_array_equal(h, g, err_msg=f"gradient of leaf {i}")


def asr_model(body, enc_pre="conv"):
    model = S2SModel(ModelConfig(
        task="asr", body=body, enc_pre=enc_pre, e=2, d=2, d_att=D_ATT,
        d_ff=16, d_head=2, dropout_rate=0.0, vocab_size=VOCAB,
        feat_dim=FEAT_DIM, alpha=1.0, seed=3))
    return model.eval()


def _frames(lens, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, FEAT_DIM)) for n in lens]


def encode_case(body, enc_pre, lens, seed):
    """(run, rows, leaves) of S2SModel.encode over frames of lens."""
    model = asr_model(body, enc_pre)
    xs = _frames(lens, seed)

    def run(idx):
        enc = model.encode(*pad_sequences([xs[b] for b in idx]))
        return [(enc.x_e, [(n, D_ATT) for n in enc.n_sub])]

    return run, len(lens), model.parameters()


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("enc_pre", ["conv", "vgg"])
@PROPERTY
@given(lens=row_lengths(4, 13), seed=st.integers(0, 2 ** 16))
def test_encode_rows_equal_batches_of_one(body, enc_pre, lens, seed):
    assert_batch_equals_singles(*encode_case(body, enc_pre, lens, seed), seed)


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("enc_pre", ["conv", "vgg"])
@PROPERTY
@given(lens=row_lengths(4, 13), seed=st.integers(0, 2 ** 16))
def test_encode_reads_no_padding(body, enc_pre, lens, seed):
    assert_padding_unread(*encode_case(body, enc_pre, lens, seed), seed)


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("enc_pre", ["conv", "vgg"])
def test_encode_grad_check(body, enc_pre):
    assert_grad_checks(*encode_case(body, enc_pre, [4, 5], 11), 11)


def decode_case(body, rows, seed):
    """(run, rows, leaves) of S2SModel.decode_logprobs over utterances of
    rows' frame and input token counts."""
    model = asr_model(body)
    n_frames, n_tokens = rows
    xs = _frames(n_frames, seed)
    rng = np.random.default_rng(seed + 1)
    ys = [[SOS_EOS_ID] + list(rng.integers(N_RESERVED, VOCAB, n - 1))
          for n in n_tokens]

    def run(idx):
        enc = model.encode(*pad_sequences([xs[b] for b in idx]))
        lp = model.decode_logprobs(enc, [ys[b] for b in idx])
        return [(lp, [(len(ys[b]), VOCAB) for b in idx])]

    return run, len(xs), model.parameters()


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@PROPERTY
@given(rows=asr_rows(), seed=st.integers(0, 2 ** 16))
def test_decode_logprobs_rows_equal_batches_of_one(body, rows, seed):
    assert_batch_equals_singles(*decode_case(body, rows, seed), seed)


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@PROPERTY
@given(rows=asr_rows(), seed=st.integers(0, 2 ** 16))
def test_decode_logprobs_reads_no_padding(body, rows, seed):
    assert_padding_unread(*decode_case(body, rows, seed), seed)


@pytest.mark.parametrize("body", ["transformer", "rnn"])
def test_decode_logprobs_grad_check(body):
    assert_grad_checks(*decode_case(body, ([4, 5], [1, 2]), 12), 12)


@st.composite
def tts_rows(draw):
    """(text lengths, target frame counts) of B utterances."""
    n_text = draw(row_lengths(1, 5))
    return n_text, draw(row_lengths(1, 9, len(n_text)))


def teacher_case(body, r, rows, seed):
    """(run, rows, leaves) of TtsModel.forward_teacher over utterances
    of rows' text lengths and frame counts."""
    model = TtsModel(ModelConfig(
        task="tts", body=body, e=1, d=2, d_att=D_ATT, d_ff=16, d_head=2,
        dropout_rate=0.0, vocab_size=VOCAB, feat_dim=FEAT_DIM,
        reduction_factor=r, prenet_units=8, postnet_layers=3,
        prenet_dropout_rate=0.0, seed=4)).eval()
    n_text, n_frames = rows
    rng = np.random.default_rng(seed)
    texts = [list(rng.integers(N_RESERVED, VOCAB, n)) for n in n_text]
    targets = [model.pad_target(rng.standard_normal((n, FEAT_DIM)))
               for n in n_frames]

    def run(idx):
        enc = model.encode([texts[b] for b in idx])
        fwd = model.forward_teacher(enc, [targets[b] for b in idx])
        frames = [(n, FEAT_DIM) for n in fwd.n_pad]
        steps = [(s,) for s in fwd.n_steps]
        return ([(fwd.coarse, frames), (fwd.refined, frames),
                 (fwd.eos_logits, steps)]
                + [(w, [(w.shape[1], s, len(texts[b]))
                        for s, b in zip(fwd.n_steps, idx)])
                   for w in fwd.records])

    return run, len(texts), model.parameters()


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("r", [1, 2])
@PROPERTY
@given(rows=tts_rows(), seed=st.integers(0, 2 ** 16))
def test_forward_teacher_rows_equal_batches_of_one(body, r, rows, seed):
    assert_batch_equals_singles(*teacher_case(body, r, rows, seed), seed)


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("r", [1, 2])
@PROPERTY
@given(rows=tts_rows(), seed=st.integers(0, 2 ** 16))
def test_forward_teacher_reads_no_padding(body, r, rows, seed):
    assert_padding_unread(*teacher_case(body, r, rows, seed), seed)


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("r", [1, 2])
def test_forward_teacher_grad_check(body, r):
    run, n_rows, leaves = teacher_case(body, r, ([1, 2], [1, 2]), 13)
    # the zero step-0 frame meets the prenet's zero biases at ReLU's kink,
    # where central differences read half the slope: every zero-init
    # parameter moves off zero
    for p in leaves:
        if not p.data.any():
            p.data += 0.05
    assert_grad_checks(run, n_rows, leaves, 13)


# -- tape ops -------------------------------------------------------------------


def _leaves(rng, *shapes):
    return [Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
            for shape in shapes]


@pytest.mark.parametrize("reverse", [False, True])
@PROPERTY
@given(lens=row_lengths(1, 7), seed=st.integers(0, 2 ** 16))
def test_lstm_scan_rows_equal_batches_of_one(reverse, lens, seed):
    rng = np.random.default_rng(seed)
    d_in, d = 3, 4
    w_ih, w_hh, bias = _leaves(rng, (d_in, 4 * d), (d, 4 * d), (4 * d,))
    xs = [rng.standard_normal((n, d_in)) for n in lens]

    def run(idx):
        x, n = pad_sequences([xs[b] for b in idx])
        return [(T.lstm_scan(x, w_ih, w_hh, bias, n, reverse),
                 [(k, d) for k in n])]

    assert_batch_equals_singles(run, len(lens), [w_ih, w_hh, bias], seed)


@st.composite
def conv_rows(draw, min_out=1):
    """(kernel, stride, padding, row lengths): each row's output holds at
    least min_out frames."""
    k, stride, padding = (draw(st.integers(1, 4)), draw(st.integers(1, 2)),
                          draw(st.integers(0, 2)))
    shortest = max(1, k - 2 * padding + (min_out - 1) * stride)
    return k, stride, padding, draw(row_lengths(shortest, shortest + 7))


@PROPERTY
@given(rows=conv_rows(), seed=st.integers(0, 2 ** 16))
def test_conv1d_rows_equal_batches_of_one(rows, seed):
    # a kernel reads up to `padding` frames past a row's end: the batch's
    # zero padding there, the convolution's own alone
    k, stride, padding, lens = rows
    rng = np.random.default_rng(seed)
    c_in, c_out = 2, 3
    weight, bias = _leaves(rng, (c_out, c_in, k), (c_out,))
    xs = [rng.standard_normal((n, c_in)) for n in lens]

    def run(idx):
        x, n = pad_sequences([xs[b] for b in idx])
        out = T.conv(x, weight, bias, stride, padding)
        return [(out, [(T.conv_len(m, k, stride, padding), c_out)
                       for m in n])]

    assert_batch_equals_singles(run, len(lens), [weight, bias], seed)


@PROPERTY
@given(rows=conv_rows(min_out=2), seed=st.integers(0, 2 ** 16))
def test_conv2d_max_pool2d_rows_equal_batches_of_one(rows, seed):
    # images (frames, features, c_in), padded on the frame axis; a pooled
    # frame within half a row's convolved frames reads real ones only
    k, _, padding, lens = rows
    rng = np.random.default_rng(seed)
    c_in, c_out, n_feat = 2, 3, 5
    weight, bias = _leaves(rng, (c_out, c_in, k, k), (c_out,))
    imgs = [rng.standard_normal((n, n_feat, c_in)) for n in lens]
    w_out = (n_feat + 2 * padding - k + 1) // 2

    def run(idx):
        x, n = T.pad_batch([imgs[b] for b in idx], 0.0)
        out = T.max_pool2d(T.conv(Tensor(x), weight, bias, padding=padding),
                           2)
        return [(out, [((m + 2 * padding - k + 1) // 2, w_out, c_out)
                       for m in n])]

    assert_batch_equals_singles(run, len(lens), [weight, bias], seed)


@pytest.mark.parametrize("n_heads", [1, 2])
@PROPERTY
@given(n_keys=row_lengths(1, 6), seed=st.integers(0, 2 ** 16))
def test_attention_under_key_masks_rows_equal_batches_of_one(n_heads, n_keys,
                                                             seed):
    # each row's queries see its real keys alone, through the key mask
    rng = np.random.default_rng(seed)
    d_in, width = 3, 2 * n_heads
    n_queries = [int(rng.integers(1, 5)) for _ in n_keys]
    wq, wk, wv = _leaves(rng, (d_in, width), (d_in, width), (d_in, width))
    qs = [rng.standard_normal((n, d_in)) for n in n_queries]
    ks = [rng.standard_normal((n, d_in)) for n in n_keys]

    def run(idx):
        q, nq = pad_sequences([qs[b] for b in idx])
        x, nk = pad_sequences([ks[b] for b in idx])
        mask = T.length_mask(nk, x.shape[1])[:, None, None, :]
        w = T.attention_weights(q @ wq, x @ wk, n_heads, mask)
        return [(w, [(n_heads, i, j) for i, j in zip(nq, nk)]),
                (T.mix_heads(w, x @ wv), [(i, width) for i in nq])]

    assert_batch_equals_singles(run, len(n_keys), [wq, wk, wv], seed)


@PROPERTY
@given(lens=row_lengths(1, 7), seed=st.integers(0, 2 ** 16))
def test_layer_norm_rows_equal_batches_of_one(lens, seed):
    rng = np.random.default_rng(seed)
    d = 4
    gain, bias = _leaves(rng, (d,), (d,))
    xs = [rng.standard_normal((n, d)) for n in lens]

    def run(idx):
        x, n = pad_sequences([xs[b] for b in idx])
        return [(T.layer_norm(x, gain, bias), [(m, d) for m in n])]

    assert_batch_equals_singles(run, len(lens), [gain, bias], seed)


@PROPERTY
@given(lens=row_lengths(0, 5), fill=st.sampled_from([0.0, -1.5, 2, 7]))
def test_pad_batch_keeps_each_row_and_fills_the_rest(lens, fill):
    # the one padder and the one mask agree: row b's first lens[b]
    # entries are its sequence, and fill is everywhere else
    seqs = [np.arange(n * 2).reshape(n, 2) + 10 * b
            for b, n in enumerate(lens)]
    out, got = T.pad_batch(seqs, fill)
    assert list(got) == lens
    real = T.length_mask(got, out.shape[1])
    assert real.sum() == sum(lens)
    np.testing.assert_array_equal(out[real], np.concatenate(seqs))
    assert (out[~real] == fill).all()
