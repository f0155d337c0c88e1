"""Loss-function tests.

The CTC forward is checked against an exhaustive path-enumeration
oracle in extended precision, and its hand-written backward against
central differences plus the per-frame posterior-mass invariant.
"""

import itertools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minis2s import tensor as T
from minis2s.errors import (DimensionError, ImpossibleAlignmentError)
from minis2s.losses import (ctc_log_likelihood, ctc_min_frames,
                            expand_with_blanks, guided_attention_loss,
                            guided_attention_weight, joint_asr_loss,
                            s2s_cross_entropy, tts_l1, weighted_bce)
from minis2s.tensor import Tensor, backward, grad_check

mp.mp.dps = 50


def rand_logprobs(rng, t, v):
    logits = Tensor(rng.standard_normal((t, v)), requires_grad=True)
    return logits, T.log_softmax(logits)


def one(x: Tensor) -> Tensor:
    """One utterance's (t, V) rows as a batch of one, (1, t, V)."""
    return x.reshape((1,) + x.shape)


# -- cross-entropy ------------------------------------------------------------


def test_ce_uniform_vocab4():
    lp = Tensor(np.full((3, 4), np.log(0.25)))
    loss = s2s_cross_entropy(one(lp), [[0, 2, 3]])
    assert abs(loss.item() - 1.3862943611198906188) < 1e-12


def test_ce_matches_extended_precision():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((3, 5))
    targets = [4, 0, 2]
    _, lp = rand_logprobs(np.random.default_rng(0), 3, 5)
    want = mp.mpf(0)
    for i, y in enumerate(targets):
        zs = [mp.mpf(float(z)) for z in logits[i]]
        lse = mp.log(mp.fsum(mp.e**z for z in zs))
        want += -(zs[y] - lse)
    want /= 3
    got = s2s_cross_entropy(one(lp), [targets]).item()
    assert abs(got - float(want)) < 1e-12


def test_ce_row_count_mismatch():
    lp = Tensor(np.zeros((1, 3, 4)))
    with pytest.raises(DimensionError):
        s2s_cross_entropy(lp, [[1, 2, 3, 1]])


def test_ce_denom_replaces_length():
    rng = np.random.default_rng(1)
    _, lp = rand_logprobs(rng, 4, 6)
    mean = s2s_cross_entropy(one(lp), [[1, 2, 3, 2]])
    summed = s2s_cross_entropy(one(lp), [[1, 2, 3, 2]], denom=1.0)
    assert abs(summed.item() - 4.0 * mean.item()) < 1e-12


def test_ce_gradient():
    rng = np.random.default_rng(2)

    def f(logits):
        return s2s_cross_entropy(one(T.log_softmax(logits)), [[1, 0, 2]])

    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    assert grad_check(f, [x]) < 1e-6


# -- CTC ----------------------------------------------------------------------


def collapse(path, blank=0):
    out = []
    prev = None
    for p in path:
        if p != prev and p != blank:
            out.append(p)
        prev = p
    return out


def brute_ctc(u, target, blank=0):
    """Sum over every length-T path whose collapse equals the target."""
    n, v = u.shape
    total = mp.mpf(0)
    for path in itertools.product(range(v), repeat=n):
        if collapse(path, blank) == list(target):
            total += mp.e**mp.fsum(mp.mpf(float(u[t, k]))
                                   for t, k in enumerate(path))
    return float(mp.log(total))


def test_expand_with_blanks():
    assert expand_with_blanks([1, 2]) == [0, 1, 0, 2, 0]
    assert expand_with_blanks([]) == [0]


def test_ctc_min_frames():
    assert ctc_min_frames([]) == 0
    assert ctc_min_frames([1, 2, 3]) == 3
    assert ctc_min_frames([1, 1]) == 3
    assert ctc_min_frames([1, 1, 1]) == 5
    assert ctc_min_frames([1, 2, 2, 3, 3]) == 7


def test_ctc_single_frame_single_label():
    # one frame must emit the one label directly
    _, lp = rand_logprobs(np.random.default_rng(3), 1, 4)
    got = ctc_log_likelihood(one(lp), [[2]], [1]).item()
    assert abs(got - lp.data[0, 2]) < 1e-12


def test_ctc_two_frames_hand_sum():
    _, lp = rand_logprobs(np.random.default_rng(4), 2, 2)
    u = lp.data
    want = np.log(np.exp(u[0, 1] + u[1, 1]) + np.exp(u[0, 0] + u[1, 1])
                  + np.exp(u[0, 1] + u[1, 0]))
    assert abs(ctc_log_likelihood(one(lp), [[1]], [2]).item() - want) < 1e-12


def test_ctc_empty_target_is_all_blanks():
    _, lp = rand_logprobs(np.random.default_rng(5), 4, 3)
    got = ctc_log_likelihood(one(lp), [[]], [4]).item()
    assert abs(got - lp.data[:, 0].sum()) < 1e-12


@pytest.mark.parametrize("n_frames,target,vocab", [
    (3, [1], 3),
    (4, [1, 2], 3),
    (5, [1, 1], 3),
    (6, [2, 1, 3], 4),
    (6, [3, 3, 2], 4),
    (5, [1, 2, 1], 3),
    (6, [1], 2),
    (4, [], 4),
])
def test_ctc_matches_path_enumeration(n_frames, target, vocab):
    _, lp = rand_logprobs(np.random.default_rng(n_frames * 7 + vocab),
                          n_frames, vocab)
    want = brute_ctc(lp.data, target)
    got = ctc_log_likelihood(one(lp), [target], [n_frames]).item()
    assert abs(got - want) < 1e-9


def test_ctc_infeasible_raises():
    _, lp = rand_logprobs(np.random.default_rng(6), 2, 3)
    with pytest.raises(ImpossibleAlignmentError):
        ctc_log_likelihood(one(lp), [[1, 1]], [2])
    with pytest.raises(ImpossibleAlignmentError):
        ctc_log_likelihood(one(lp), [[1, 2, 1]], [2])


def test_ctc_blank_in_target_rejected():
    _, lp = rand_logprobs(np.random.default_rng(7), 4, 3)
    with pytest.raises(DimensionError):
        ctc_log_likelihood(one(lp), [[1, 0, 2]], [4])


@pytest.mark.parametrize("frames,row", [([0, 3], 0), ([3, 0], 1),
                                        ([4, 3], 0), ([3, 9], 1)])
def test_ctc_refuses_frame_counts_outside_the_padded_frames(frames, row):
    # a count of 0 would end its row at frame n_max - 1 (its last frame
    # is count - 1), and a count past n_max at a frame that is not there
    lp = T.log_softmax(Tensor(np.random.default_rng(9).standard_normal(
        (2, 3, 5))))
    with pytest.raises(DimensionError, match=rf"row {row}: {frames[row]} "):
        ctc_log_likelihood(lp, [[], [3]], frames)


def test_ctc_target_outside_vocab():
    _, lp = rand_logprobs(np.random.default_rng(8), 4, 3)
    with pytest.raises(IndexError):
        ctc_log_likelihood(one(lp), [[3]], [4])


def test_ctc_posterior_rows_sum_to_one():
    # d logp / d u[t, :] is the frame-t posterior over symbols
    rng = np.random.default_rng(9)
    u = Tensor(np.log(T.softmax(Tensor(rng.standard_normal((1, 5, 3)))).data),
               requires_grad=True)
    logp = ctc_log_likelihood(u, [[1, 2]], [5])
    backward(logp)
    sums = u.grad[0].sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-10)


def test_ctc_gradient_finite_differences():
    rng = np.random.default_rng(10)

    def f(logits):
        return -ctc_log_likelihood(one(T.log_softmax(logits)), [[1, 2]], [5])

    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    assert grad_check(f, [x]) < 1e-5


def test_ctc_gradient_with_repeat_label():
    rng = np.random.default_rng(11)

    def f(logits):
        return -ctc_log_likelihood(one(T.log_softmax(logits)), [[2, 2]], [6])

    x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    assert grad_check(f, [x]) < 1e-5


LOG_ZERO = -1e30


def _logsumexp(*vals):
    m = max(vals)
    if m <= LOG_ZERO:
        return LOG_ZERO
    return m + np.log(sum(np.exp(v - m) for v in vals))


def scalar_ctc(u, targets, blank=0):
    """The CTC forward-backward one (frame, state) cell at a time:
    returns log p and d log p / d u."""
    n_frames, vocab = u.shape
    z = expand_with_blanks(targets)
    s_len = len(z)
    alpha = np.full((n_frames, s_len), LOG_ZERO)
    alpha[0, 0] = u[0, z[0]]
    if s_len > 1:
        alpha[0, 1] = u[0, z[1]]
    for t in range(1, n_frames):
        for s in range(s_len):
            best = alpha[t - 1, s]
            if s >= 1:
                best = _logsumexp(best, alpha[t - 1, s - 1])
            if s >= 2 and z[s] != blank and z[s] != z[s - 2]:
                best = _logsumexp(best, alpha[t - 1, s - 2])
            alpha[t, s] = best + u[t, z[s]] if best > LOG_ZERO else LOG_ZERO
    tail = (alpha[-1, -1],) + ((alpha[-1, -2],) if s_len > 1 else ())
    logp = _logsumexp(*tail)
    beta = np.full((n_frames, s_len), LOG_ZERO)
    beta[-1, -1] = u[-1, z[-1]]
    if s_len > 1:
        beta[-1, -2] = u[-1, z[-2]]
    for t in range(n_frames - 2, -1, -1):
        for s in range(s_len - 1, -1, -1):
            best = beta[t + 1, s]
            if s + 1 < s_len:
                best = _logsumexp(best, beta[t + 1, s + 1])
            if s + 2 < s_len and z[s + 2] != blank and z[s + 2] != z[s]:
                best = _logsumexp(best, beta[t + 1, s + 2])
            beta[t, s] = best + u[t, z[s]] if best > LOG_ZERO else LOG_ZERO
    grad = np.zeros((n_frames, vocab))
    for t in range(n_frames):
        per_symbol = {}
        for s, k in enumerate(z):
            if alpha[t, s] <= LOG_ZERO or beta[t, s] <= LOG_ZERO:
                continue
            v = alpha[t, s] + beta[t, s]
            per_symbol[k] = _logsumexp(per_symbol[k], v) if k in per_symbol else v
        for k, v in per_symbol.items():
            grad[t, k] = np.exp(v - u[t, k] - logp)
    return logp, grad


@pytest.mark.parametrize("case", range(40))
def test_ctc_matches_scalar_recursion(case):
    """The state-vectorized recursions against the scalar loops, on
    targets with repeats, on tight (minimum-length) and on long inputs."""
    rng = np.random.default_rng(500 + case)
    v = int(rng.integers(2, 7))
    target = [int(rng.integers(1, v)) for _ in range(int(rng.integers(0, 6)))]
    n = ctc_min_frames(target) + int(rng.integers(0, 12))
    if n == 0:
        n = 1
    u = Tensor(T.log_softmax(Tensor(rng.standard_normal((1, n, v)) * 2)).data,
               requires_grad=True)
    want_logp, want_grad = scalar_ctc(u.data[0], target)
    logp = ctc_log_likelihood(u, [target], [n])
    backward(logp)
    assert abs(logp.item() - want_logp) < 1e-12
    np.testing.assert_allclose(u.grad[0], want_grad, rtol=0, atol=1e-12)


# -- joint --------------------------------------------------------------------


def test_joint_hand_value():
    got = joint_asr_loss(Tensor(np.asarray(1.0)), Tensor(np.asarray(2.0)), 0.7)
    assert abs(got.item() - 1.3) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
def test_joint_linear_in_alpha(alpha):
    s2s = Tensor(np.asarray(1.75))
    ctc = Tensor(np.asarray(0.5))
    got = joint_asr_loss(s2s, ctc, alpha).item()
    assert got == alpha * 1.75 + (1.0 - alpha) * 0.5


# -- TTS L1 -------------------------------------------------------------------


def test_tts_l1_hand_value():
    target = np.zeros((1, 2, 3))
    coarse = Tensor(np.full((1, 2, 3), 0.5), requires_grad=True)
    refined = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
    loss = tts_l1(coarse, refined, target, [2])
    assert abs(loss.item() - 0.5) < 1e-12


def test_tts_l1_sums_both_stages():
    rng = np.random.default_rng(12)
    target = rng.standard_normal((3, 4))[None]
    c = Tensor(rng.standard_normal((3, 4))[None])
    r = Tensor(rng.standard_normal((3, 4))[None])
    want = np.abs(c.data - target).mean() + np.abs(r.data - target).mean()
    assert abs(tts_l1(c, r, target, [3]).item() - want) < 1e-12


def test_tts_l1_shape_mismatch():
    with pytest.raises(DimensionError):
        tts_l1(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 3))),
               np.zeros((1, 2, 4)), [2])


def test_tts_l1_reads_real_frames_of_a_padded_batch():
    rng = np.random.default_rng(19)
    lens = [3, 1, 2]
    target = rng.standard_normal((3, 3, 4))
    c = Tensor(rng.standard_normal((3, 3, 4)))
    r = Tensor(rng.standard_normal((3, 3, 4)))
    want = sum(np.abs(x.data[b, :n] - target[b, :n]).sum()
               for x in (c, r) for b, n in enumerate(lens)) / (6 * 4)
    assert abs(tts_l1(c, r, target, lens=lens).item() - want) < 1e-12


def test_tts_l1_gradient():
    rng = np.random.default_rng(13)
    target = rng.standard_normal((3, 2))[None]

    def f(c, r):
        return tts_l1(one(c), one(r), target, [3])

    c = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    r = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    assert grad_check(f, [c, r]) < 1e-6


# -- weighted BCE -------------------------------------------------------------


def test_bce_hand_value_positive():
    # logit 0 on the stop frame, weight 5: loss is 5 log 2
    logits = Tensor(np.zeros((1, 1)))
    loss = weighted_bce(logits, [[1.0]], [1], pos_weight=5.0)
    assert abs(loss.item() - 3.4657359027997265471) < 1e-12


def test_bce_hand_value_negative():
    logits = Tensor(np.zeros((1, 1)))
    loss = weighted_bce(logits, [[0.0]], [1], pos_weight=5.0)
    assert abs(loss.item() - np.log(2.0)) < 1e-12


def test_bce_unit_weight_matches_plain_formula():
    rng = np.random.default_rng(14)
    z = rng.standard_normal(6)
    y = (rng.random(6) > 0.5).astype(float)
    sig = 1.0 / (1.0 + np.exp(-z))
    plain = -(y * np.log(sig) + (1.0 - y) * np.log(1.0 - sig)).mean()
    got = weighted_bce(Tensor(z[None]), y[None], [6], pos_weight=1.0).item()
    assert abs(got - plain) < 1e-12


def test_bce_stable_at_extreme_logits():
    logits = Tensor(np.asarray([[1000.0, -1000.0]]))
    loss = weighted_bce(logits, [[1.0, 1.0]], [2], pos_weight=5.0)
    assert np.isfinite(loss.item())
    # the missed positive at -1000 dominates: 5 * 1000 / 2 frames
    assert abs(loss.item() - 2500.0) < 1e-6


def test_bce_shape_mismatch():
    with pytest.raises(DimensionError):
        weighted_bce(Tensor(np.zeros((1, 3))), [[1.0, 0.0]], [3])


def test_bce_reads_real_steps_of_a_padded_batch():
    rng = np.random.default_rng(20)
    z = rng.standard_normal((2, 4))
    y = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    got = weighted_bce(Tensor(z), y, [3, 1]).item()
    want = (weighted_bce(Tensor(z[:1, :3]), y[:1, :3], [3], denom=4).item()
            + weighted_bce(Tensor(z[1:, :1]), y[1:, :1], [1], denom=4).item())
    assert abs(got - want) < 1e-12


def test_bce_gradient():
    rng = np.random.default_rng(15)
    y = (rng.random(5) > 0.6).astype(float)

    def f(z):
        return weighted_bce(z.reshape(1, 5), y[None], [5], pos_weight=5.0)

    z = Tensor(rng.standard_normal(5), requires_grad=True)
    assert grad_check(f, [z]) < 1e-6


# -- guided attention ----------------------------------------------------------


def test_guided_weight_diagonal_zero():
    w = guided_attention_weight(4, 4)
    assert np.allclose(np.diag(w), 0.0)
    assert np.all(w >= 0.0) and np.all(w < 1.0)


def heads(*mats) -> Tensor:
    """Attention matrices of one utterance as its (1, K, n_dec, n_enc)
    selected heads."""
    return Tensor(np.stack(mats)[None])


def guided_one(att: Tensor, g: float = 0.4) -> Tensor:
    """The guided-attention loss of a batch of one over all its decoder
    steps and encoder positions."""
    return guided_attention_loss(att, [att.shape[2]], [att.shape[3]], g)


def test_guided_antidiagonal_2x2():
    loss = guided_one(heads([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(loss.item() - 0.5421666382283857391) < 1e-12


def test_guided_diagonal_is_zero():
    assert guided_one(heads(np.eye(5))).item() == 0.0


def test_guided_uniform_exceeds_diagonal():
    n = 6
    uniform = guided_one(heads(np.full((n, n), 1.0 / n))).item()
    diag = guided_one(heads(np.eye(n))).item()
    assert uniform > diag


def test_guided_head_average():
    rng = np.random.default_rng(16)
    a = rng.random((3, 5))
    b = rng.random((3, 5))
    la = guided_one(heads(a)).item()
    lb = guided_one(heads(b)).item()
    both = guided_one(heads(a, b)).item()
    assert abs(both - 0.5 * (la + lb)) < 1e-12


def test_guided_batch_sums_utterances_on_their_own_sizes():
    # a padded batch: each utterance reads its own steps and positions,
    # normalized by its own step count, whatever the padding holds
    rng = np.random.default_rng(18)
    sizes = [(3, 5), (2, 2), (4, 3)]
    mats = [rng.random((2, s, n)) for s, n in sizes]
    batch = rng.random((3, 2, 4, 5))
    for b, m in enumerate(mats):
        batch[b, :, :m.shape[1], :m.shape[2]] = m
    got = guided_attention_loss(Tensor(batch), [s for s, _ in sizes],
                                [n for _, n in sizes]).item()
    want = sum(guided_one(Tensor(m[None])).item() for m in mats)
    assert abs(got - want) < 1e-12


def test_guided_sharper_g_penalizes_more():
    a = heads(np.full((4, 4), 0.25))
    assert (guided_one(a, g=0.2).item()
            > guided_one(a, g=0.4).item())


def test_guided_empty_selection_rejected():
    with pytest.raises(DimensionError):
        guided_attention_loss(Tensor(np.zeros((1, 0, 2, 2))), [2], [2])


def test_guided_gradient():
    rng = np.random.default_rng(17)

    def f(logits):
        return guided_one(T.softmax(logits).reshape(1, 1, 3, 4))

    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    assert grad_check(f, [x]) < 1e-6


# -- padded batches -------------------------------------------------------------


@st.composite
def row_lengths(draw):
    """1-4 row lengths: all equal, one long, all 1, or any mix."""
    n_b = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["equal", "one long", "ones", "mixed"]))
    if kind == "equal":
        return [draw(st.integers(1, 4))] * n_b
    if kind == "ones":
        return [1] * n_b
    if kind == "mixed":
        return draw(st.lists(st.integers(1, 4), min_size=n_b, max_size=n_b))
    lens = [draw(st.integers(1, 2))] * n_b
    lens[draw(st.integers(0, n_b - 1))] = draw(st.integers(4, 6))
    return lens


def pad_rows(rows, fill=None):
    """Per-row arrays, ragged on any axis, as one batch: zeros past each
    row's end, or draws from the generator fill."""
    shape = (len(rows),) + tuple(max(r.shape[i] for r in rows)
                                 for i in range(rows[0].ndim))
    out = np.zeros(shape) if fill is None else 3 * fill.standard_normal(shape)
    for b, r in enumerate(rows):
        out[(b,) + tuple(slice(0, n) for n in r.shape)] = r
    return out


def log_softmax_rows(rng, n, v):
    x = rng.standard_normal((n, v))
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def batched_case(loss, lens, rng):
    """(rows, call): the per-row inputs of one loss over rows of the
    given lengths, and call(tensors, idx), the loss of rows idx from
    their padded tensors. The scalar losses share one denominator, so a
    batch's value is the sum of its rows'."""
    n_b, v = len(lens), 5
    if loss == "s2s_cross_entropy":
        ids = [list(rng.integers(0, v, n)) for n in lens]
        rows = [[log_softmax_rows(rng, n, v)] for n in lens]
        return rows, lambda x, idx: s2s_cross_entropy(
            x[0], [ids[b] for b in idx], denom=7.0)
    if loss == "ctc_log_likelihood":
        ids = [list(rng.integers(1, v, n)) for n in lens]
        frames = [ctc_min_frames(y) + int(rng.integers(0, 3)) for y in ids]
        rows = [[log_softmax_rows(rng, n, v)] for n in frames]
        return rows, lambda x, idx: ctc_log_likelihood(
            x[0], [ids[b] for b in idx], [frames[b] for b in idx])
    if loss == "tts_l1":
        rows = [[rng.standard_normal((n, 3)) for _ in range(3)]
                for n in lens]
        return rows, lambda x, idx: tts_l1(
            x[0], x[1], x[2].data, [lens[b] for b in idx], denom=7.0)
    if loss == "weighted_bce":
        rows = [[rng.standard_normal(n), (np.arange(n) == n - 1) * 1.0]
                for n in lens]
        return rows, lambda x, idx: weighted_bce(
            x[0], x[1].data, [lens[b] for b in idx], denom=7.0)
    n_enc = [int(rng.integers(1, 5)) for _ in range(n_b)]
    att = [np.exp(rng.standard_normal((2, s, n)))
           for s, n in zip(lens, n_enc)]
    rows = [[a / a.sum(axis=-1, keepdims=True)] for a in att]
    return rows, lambda x, idx: guided_attention_loss(
        x[0], [lens[b] for b in idx], [n_enc[b] for b in idx])


def run_case(call, rows, idx, fill=None):
    """The loss of rows idx, padded (zeros, or draws from fill), and the
    gradient of its sum with respect to each padded input."""
    xs = [Tensor(pad_rows([rows[b][i] for b in idx], fill),
                 requires_grad=True) for i in range(len(rows[0]))]
    out = call(xs, idx)
    backward(out.sum())
    return out.data, [np.zeros_like(x.data) if x.grad is None else x.grad
                      for x in xs]


LOSSES = ["s2s_cross_entropy", "ctc_log_likelihood", "tts_l1",
          "weighted_bce", "guided_attention_loss"]


@pytest.mark.parametrize("loss", LOSSES)
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(lens=row_lengths(), seed=st.integers(0, 2 ** 16))
def test_padded_batch_rows_equal_batches_of_one(loss, lens, seed):
    # each row of a padded batch gives what the row gives alone (CTC's
    # value per row, the sum of the scalar losses) and gets the
    # gradient it gets alone; padded entries get none, and refilling
    # the padding with other values changes no output and no gradient
    rng = np.random.default_rng(seed)
    rows, call = batched_case(loss, lens, rng)
    idx = list(range(len(lens)))
    out, grads = run_case(call, rows, idx)
    singles = [run_case(call, rows, [b]) for b in idx]
    want = (np.concatenate([o for o, _ in singles]) if out.ndim
            else sum(float(o) for o, _ in singles))
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-10)
    for i, g in enumerate(grads):
        padded = np.ones(g.shape, dtype=bool)
        for b in idx:
            real = (b,) + tuple(slice(0, n) for n in rows[b][i].shape)
            padded[real] = False
            np.testing.assert_allclose(g[real], singles[b][1][i][0],
                                       rtol=0, atol=1e-10)
        assert not g[padded].any()
    refilled, refilled_grads = run_case(call, rows, idx,
                                        np.random.default_rng(seed + 1))
    np.testing.assert_array_equal(refilled, out)
    for g, h in zip(grads, refilled_grads):
        np.testing.assert_array_equal(g, h)


@pytest.mark.parametrize("case", range(12))
def test_batched_ctc_matches_rows_and_enumeration(case):
    """Three rows of their own frame and label counts, finite garbage in
    the padded frames: each batched log-likelihood equals the row's own
    and the path enumeration, each row's gradient its own, and padded
    frames get none."""
    rng = np.random.default_rng(900 + case)
    v = int(rng.integers(2, 5))
    targets, frames = [], []
    for _ in range(3):
        target = [int(rng.integers(1, v)) for _ in range(int(rng.integers(0, 4)))]
        while ctc_min_frames(target) > 5:
            target.pop()
        targets.append(target)
        frames.append(int(rng.integers(max(1, ctc_min_frames(target)), 6)))
    u = T.log_softmax(Tensor(rng.standard_normal((3, max(frames), v)) * 2)).data
    lp = Tensor(u, requires_grad=True)
    w = rng.standard_normal(3)
    ll = ctc_log_likelihood(lp, targets, frames)
    assert ll.shape == (3,)
    backward((ll * Tensor(w)).sum())
    for b, (target, n) in enumerate(zip(targets, frames)):
        row = Tensor(u[b:b + 1, :n], requires_grad=True)
        want = ctc_log_likelihood(row, [target], [n])
        backward(want * w[b])
        assert abs(ll.data[b] - want.item()) < 1e-12
        assert abs(ll.data[b] - brute_ctc(u[b, :n], target)) < 1e-9
        np.testing.assert_allclose(lp.grad[b, :n], row.grad[0], rtol=0,
                                   atol=1e-12)
        assert not lp.grad[b, n:].any()


def test_batched_cross_entropy_reads_only_real_targets():
    rng = np.random.default_rng(12)
    lp = T.log_softmax(Tensor(rng.standard_normal((2, 4, 5)),
                              requires_grad=True))
    targets = [[1, 2, 3, 4], [4, 2]]
    got = s2s_cross_entropy(lp, targets, denom=9.0)
    want = sum(s2s_cross_entropy(Tensor(lp.data[b:b + 1, :len(t)]), [t],
                                 denom=9.0).item()
               for b, t in enumerate(targets))
    assert abs(got.item() - want) < 1e-12
    assert abs(s2s_cross_entropy(lp, targets).item() - want * 9.0 / 6) < 1e-12
    with pytest.raises(DimensionError):
        s2s_cross_entropy(lp, [[1, 2, 3, 4, 1], [2]])


def test_losses_reject_a_single_utterance_layout():
    # one utterance is a batch of one; its bare (t, V) rows name the shape
    # the loss expects
    _, lp = rand_logprobs(np.random.default_rng(13), 4, 3)
    for loss, args in ((s2s_cross_entropy, ([1, 2, 1, 2],)),
                       (ctc_log_likelihood, ([1, 2], [4]))):
        with pytest.raises(DimensionError, match=r"\(B, n_max, V\)"):
            loss(lp, *args)
