"""Batch-equals-singles properties of the batched entry points.

Each property draws, derandomized, B in 1-4 rows of their own lengths:
all equal, one long among short ones, all at the shortest length the
entry point takes, or any; odd and even lengths alike. Row b of the
padded batch must give what the batch of one of row b alone gives,
within 1e-10: in every output, on the row's real part, and in the
gradient of every parameter, where the batch's gradient of a weighted
sum of the real parts must equal the sum of the rows' own.

Entry points: S2SModel.encode (conv and vgg front ends, both bodies),
S2SModel.decode_logprobs (both bodies), TtsModel.forward_teacher (both
bodies, r = 1 and 2) and tensor.lstm_scan (both directions).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minis2s import tensor as T
from minis2s.models import ModelConfig, S2SModel, TtsModel, pad_sequences
from minis2s.reserved import N_RESERVED, SOS_EOS_ID
from minis2s.tensor import Tensor, backward

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


def _weighted_grads(run, idx, leaves, seed):
    """The outputs of run(idx), each with its rows' real extents, and the
    gradients of the leaves of a sum over every output of its real parts
    times fixed weights, drawn per (output, row)."""
    for p in leaves:
        p.grad = None
    outs = run(idx)
    loss = None
    for k, (out, extents) in enumerate(outs):
        w = np.zeros(out.shape)
        for i, (b, ext) in enumerate(zip(idx, extents)):
            w[(i,) + tuple(map(slice, ext))] = np.random.default_rng(
                [seed, k, b]).standard_normal(ext)
        term = (out * Tensor(w)).sum()
        loss = term if loss is None else loss + term
    backward(loss)
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


def asr_model(body, enc_pre="conv"):
    model = S2SModel(ModelConfig(
        task="asr", body=body, enc_pre=enc_pre, e=2, d=2, d_att=D_ATT,
        d_ff=16, d_head=2, dropout_rate=0.0, vocab_size=VOCAB,
        feat_dim=FEAT_DIM, alpha=1.0, seed=3))
    return model.eval()


def _frames(lens, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, FEAT_DIM)) for n in lens]


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("enc_pre", ["conv", "vgg"])
@PROPERTY
@given(lens=row_lengths(4, 13), seed=st.integers(0, 2 ** 16))
def test_encode_rows_equal_batches_of_one(body, enc_pre, lens, seed):
    model = asr_model(body, enc_pre)
    xs = _frames(lens, seed)

    def run(idx):
        enc = model.encode(*pad_sequences([xs[b] for b in idx]))
        return [(enc.x_e, [(n, D_ATT) for n in enc.n_sub])]

    assert_batch_equals_singles(run, len(lens), model.parameters(), seed)


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@PROPERTY
@given(rows=asr_rows(), seed=st.integers(0, 2 ** 16))
def test_decode_logprobs_rows_equal_batches_of_one(body, rows, seed):
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

    assert_batch_equals_singles(run, len(xs), model.parameters(), seed)


@st.composite
def tts_rows(draw):
    """(text lengths, target frame counts) of B utterances."""
    n_text = draw(row_lengths(1, 5))
    return n_text, draw(row_lengths(1, 9, len(n_text)))


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("r", [1, 2])
@PROPERTY
@given(rows=tts_rows(), seed=st.integers(0, 2 ** 16))
def test_forward_teacher_rows_equal_batches_of_one(body, r, rows, seed):
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

    assert_batch_equals_singles(run, len(texts), model.parameters(), seed)


@pytest.mark.parametrize("reverse", [False, True])
@PROPERTY
@given(lens=row_lengths(1, 7), seed=st.integers(0, 2 ** 16))
def test_lstm_scan_rows_equal_batches_of_one(reverse, lens, seed):
    rng = np.random.default_rng(seed)
    d_in, d = 3, 4
    w_ih, w_hh, bias = (Tensor(rng.standard_normal(shape) * 0.5,
                               requires_grad=True)
                        for shape in ((d_in, 4 * d), (d, 4 * d), (4 * d,)))
    xs = [rng.standard_normal((n, d_in)) for n in lens]

    def run(idx):
        x, n = pad_sequences([xs[b] for b in idx])
        return [(T.lstm_scan(x, w_ih, w_hh, bias, n, reverse),
                 [(k, d) for k in n])]

    assert_batch_equals_singles(run, len(lens), [w_ih, w_hh, bias], seed)
