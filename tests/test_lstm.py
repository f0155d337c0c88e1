"""The fused LSTM ops against the unfused reference composition.

`tensor.lstm_scan` (nn.LSTM) and `tensor.lstm_cell` (nn.LSTMCell) each
record one tape node with a hand-written backward. The reference below
is the per-step composition of matmul, add, slice, sigmoid, tanh and
product nodes that nn.LSTMCell used to build; every output and every
input and parameter gradient of the fused ops must match it within
1e-12.
"""

import numpy as np
import pytest

from minis2s import nn
from minis2s import tensor as T
from minis2s.errors import DimensionError
from minis2s.models import ModelConfig, S2SModel
from minis2s.reserved import SOS_EOS_ID
from minis2s.tensor import Graph, Tensor, backward

TOL = 1e-12


def reference_cell(x, h, c, w_ih, w_hh, bias):
    """One unfused LSTM step, gate order i, f, g, o."""
    d = w_hh.shape[0]
    gates = x @ w_ih + h @ w_hh + bias
    i = T.sigmoid(gates[:, 0:d])
    f = T.sigmoid(gates[:, d:2 * d])
    g = T.tanh(gates[:, 2 * d:3 * d])
    o = T.sigmoid(gates[:, 3 * d:4 * d])
    c_new = f * c + i * g
    h_new = o * T.tanh(c_new)
    return h_new, c_new


def reference_lstm(x, w_ih, w_hh, bias, reverse=False):
    """Unfused scan from the zero state; outputs in input order."""
    t, d = x.shape[0], w_hh.shape[0]
    h = Tensor(np.zeros((1, d)))
    c = Tensor(np.zeros((1, d)))
    outs = [None] * t
    for i in (range(t - 1, -1, -1) if reverse else range(t)):
        h, c = reference_cell(x[i:i + 1], h, c, w_ih, w_hh, bias)
        outs[i] = h
    return T.concat(outs, axis=0)


def _leaf(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _grads(loss_fn, leaves):
    for p in leaves:
        p.grad = None
    out = loss_fn()
    backward(out)
    return out.item(), [np.zeros_like(p.data) if p.grad is None
                        else p.grad.copy() for p in leaves]


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("t", [1, 2, 7])
def test_lstm_scan_matches_reference(reverse, t):
    rng = np.random.default_rng(100 + t + 10 * reverse)
    d_in, d = 5, 4
    x = _leaf(rng, (1, t, d_in))          # one sequence, a batch of one
    w_ih = _leaf(rng, (d_in, 4 * d), 0.5)
    w_hh = _leaf(rng, (d, 4 * d), 0.5)
    bias = _leaf(rng, (4 * d,), 0.5)
    weight = Tensor(rng.standard_normal((t, d)))
    leaves = [x, w_ih, w_hh, bias]

    fused = T.lstm_scan(x, w_ih, w_hh, bias, [t], reverse)
    ref = reference_lstm(x[0], w_ih, w_hh, bias, reverse)
    assert fused.shape == (1, t, d)
    _assert_close(fused.data[0], ref.data)

    # generic weighting through a nonlinearity, so no gradient is trivial
    l_f, g_f = _grads(lambda: (T.tanh(T.lstm_scan(x, w_ih, w_hh, bias, [t],
                                                  reverse)) * weight).sum(),
                      leaves)
    l_r, g_r = _grads(lambda: (T.tanh(reference_lstm(x[0], w_ih, w_hh, bias,
                                                     reverse)) * weight).sum(),
                      leaves)
    assert abs(l_f - l_r) < TOL
    for p, got, want in zip(leaves, g_f, g_r):
        # from the zero state, one step leaves w_hh without gradient
        assert np.abs(want).max() > 0 or (p is w_hh and t == 1)
        _assert_close(got, want)


def test_lstm_module_runs_the_scan_on_its_cell_weights():
    rng = np.random.default_rng(3)
    for reverse in (False, True):
        lstm = nn.LSTM(3, 4, rng, reverse=reverse)
        assert [n for n, _ in lstm.named_parameters()] == \
            ["cell.w_ih", "cell.w_hh", "cell.bias"]
        x = Tensor(rng.standard_normal((1, 6, 3)))
        cell = lstm.cell
        _assert_close(lstm(x, [6]).data[0], reference_lstm(
            x[0], cell.w_ih, cell.w_hh, cell.bias, reverse).data)


@pytest.mark.parametrize("b", [1, 3])
def test_lstm_cell_matches_reference(b):
    rng = np.random.default_rng(200 + b)
    d_in, d = 6, 4
    cell = nn.LSTMCell(d_in, d, rng)
    cell.bias.data[:] = rng.standard_normal(4 * d) * 0.5
    x = _leaf(rng, (b, d_in))
    h = _leaf(rng, (b, d), 0.7)
    c = _leaf(rng, (b, d), 0.7)
    wh = Tensor(rng.standard_normal((b, d)))
    wc = Tensor(rng.standard_normal((b, d)))
    leaves = [x, h, c] + cell.parameters()

    hc = T.lstm_cell(x, h, c, cell.w_ih, cell.w_hh, cell.bias)
    h_ref, c_ref = reference_cell(x, h, c, cell.w_ih, cell.w_hh, cell.bias)
    assert hc.shape == (b, 2 * d)
    # the same sums in the same order: the forward is bit-identical
    assert np.array_equal(hc.data[:, :d], h_ref.data)
    assert np.array_equal(hc.data[:, d:], c_ref.data)

    def loss(step):
        h2, c2 = step(x, h, c)
        return (T.tanh(h2) * wh).sum() + (c2 * wc).sum()

    l_f, g_f = _grads(lambda: loss(cell), leaves)
    l_r, g_r = _grads(lambda: loss(lambda x, h, c: reference_cell(
        x, h, c, cell.w_ih, cell.w_hh, cell.bias)), leaves)
    assert abs(l_f - l_r) < TOL
    for got, want in zip(g_f, g_r):
        assert np.abs(want).max() > 0
        _assert_close(got, want)


def test_lstm_cell_rows_are_independent_and_follow_reordering():
    rng = np.random.default_rng(5)
    cell = nn.LSTMCell(3, 4, rng)
    x = Tensor(rng.standard_normal((3, 3)))
    h = Tensor(rng.standard_normal((3, 4)))
    c = Tensor(rng.standard_normal((3, 4)))
    h_all, c_all = cell(x, h, c)
    rows = [2, 0, 0, 1]       # reordered and repeated, as beam pruning does
    h_sel, c_sel = cell(Tensor(x.data[rows]), Tensor(h.data[rows]),
                        Tensor(c.data[rows]))
    assert np.array_equal(h_sel.data, h_all.data[rows])
    assert np.array_equal(c_sel.data, c_all.data[rows])
    for r in range(3):
        h1, c1 = reference_cell(x[r:r + 1], h[r:r + 1], c[r:r + 1],
                                cell.w_ih, cell.w_hh, cell.bias)
        _assert_close(h_all.data[r:r + 1], h1.data)
        _assert_close(c_all.data[r:r + 1], c1.data)


def test_lstm_forward_is_one_tape_node():
    rng = np.random.default_rng(6)
    lstm = nn.LSTM(3, 4, rng, reverse=True)
    x = Tensor(rng.standard_normal((1, 9, 3)), requires_grad=True)
    with Graph(seed=0) as g:
        out = lstm(x, [9])
    assert g.op_count == 1
    assert out._parents == (x, lstm.cell.w_ih, lstm.cell.w_hh, lstm.cell.bias)
    with Graph(seed=0) as g:
        T.lstm_cell(x[0, 0:2], Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))),
                    lstm.cell.w_ih, lstm.cell.w_hh, lstm.cell.bias)
    assert g.op_count == 2        # the slice of x, then the cell


def test_lstm_ops_reject_mismatched_shapes():
    rng = np.random.default_rng(7)
    w_ih, w_hh, bias = _leaf(rng, (3, 16)), _leaf(rng, (4, 16)), _leaf(rng, (16,))
    with pytest.raises(DimensionError):
        T.lstm_scan(_leaf(rng, (1, 5, 2)), w_ih, w_hh, bias, [5])
    with pytest.raises(DimensionError):
        T.lstm_cell(_leaf(rng, (2, 3)), _leaf(rng, (3, 4)), _leaf(rng, (2, 4)),
                    w_ih, w_hh, bias)


def test_rnn_model_matches_unfused_composition(monkeypatch):
    """A 2-layer BLSTM / LSTM-decoder S2S model with a CTC head: the loss
    and every parameter gradient equal the unfused composition's."""
    cfg = ModelConfig(task="asr", body="rnn", vocab_size=9, feat_dim=5, e=2,
                      d=2, d_att=8, d_ff=16, d_head=2, dropout_rate=0.0,
                      alpha=0.5, seed=4)
    model = S2SModel(cfg)
    model.eval()
    x = Tensor(np.random.default_rng(8).standard_normal((1, 14, 5)))
    ys = [SOS_EOS_ID, 3, 5, 4]
    params = model.parameters()

    def loss():
        enc = model.encode(x, [14])
        lp = model.decode_logprobs(enc, [ys])
        ctc = model.ctc_logprobs(enc)
        return (lp[0, np.arange(4), np.array([3, 5, 4, SOS_EOS_ID])].sum()
                + ctc.sum() * 0.1)

    def batch_of_one_lstm(self, x, lens):
        # one unpadded utterance, a batch of one: its length is the whole
        # sequence
        out = reference_lstm(x[0], self.cell.w_ih, self.cell.w_hh,
                             self.cell.bias, self.reverse)
        return out.reshape((1,) + out.shape)

    l_f, g_f = _grads(loss, params)
    monkeypatch.setattr(nn.LSTM, "forward", batch_of_one_lstm)
    monkeypatch.setattr(nn.LSTMCell, "forward",
                        lambda self, x, h, c: reference_cell(
                            x, h, c, self.w_ih, self.w_hh, self.bias))
    l_r, g_r = _grads(loss, params)
    assert abs(l_f - l_r) < TOL
    for (name, _), got, want in zip(model.named_parameters(), g_f, g_r):
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL, err_msg=name)


@pytest.mark.parametrize("reverse", [False, True])
def test_padded_scan_matches_per_row_scans(reverse):
    # rows of a padded batch with their own lengths, garbage in the
    # padding: each row's outputs and gradients equal a scan of its real
    # steps alone (the reverse one starting at its own last step), the
    # padding's outputs are zero and it gets no gradient
    rng = np.random.default_rng(60 + reverse)
    lstm = nn.LSTM(3, 4, rng, reverse=reverse)
    lens = [6, 2, 4, 1]
    x = _leaf(rng, (4, 6, 3))
    r = rng.standard_normal((4, 6, 4))
    params = lstm.parameters()
    got, got_grads = _grads(lambda: (lstm(x, lens) * Tensor(r)).sum(),
                            [x] + params)
    out = lstm(x, lens).data
    want = 0.0
    want_params = [np.zeros_like(p.data) for p in params]
    for b, n in enumerate(lens):
        xr = Tensor(x.data[b:b + 1, :n], requires_grad=True)
        loss, grads = _grads(lambda: (lstm(xr, [n]) * Tensor(r[b, :n])).sum(),
                             [xr] + params)
        want += loss
        _assert_close(out[b, :n], lstm(xr, [n]).data[0])
        assert not out[b, n:].any()
        _assert_close(got_grads[0][b, :n], grads[0][0])
        assert not got_grads[0][b, n:].any()
        want_params = [w + g for w, g in zip(want_params, grads[1:])]
    assert abs(got - want) < TOL
    for g, w in zip(got_grads[1:], want_params):
        _assert_close(g, w)
