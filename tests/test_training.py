"""Optimizer, checkpoint, and training-loop tests.

Checkpoint round-trips must be bit-exact and the loop byte-identical
across reruns with the same seed; accumulation splits must reproduce
the big-batch update to near machine precision.
"""

import itertools
import math
import os
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minis2s import tensor as T
from minis2s.config import experiment_from_items
from minis2s.data import ToySpec, gen_toy, toy_vocab
from minis2s.decoding import BeamConfig, batch_beam_search
from minis2s.errors import ConfigError, DataError, NumericError
from minis2s.losses import (ctc_log_likelihood, ctc_min_frames,
                            guided_attention_weight, joint_asr_loss,
                            s2s_cross_entropy, tts_l1, weighted_bce)
from minis2s.models import ModelConfig, build_model, pad_sequences
from minis2s.reserved import SOS_EOS_ID
from minis2s.tensor import Tensor, backward
from minis2s.training import (DEV_BATCH, Adadelta, Adam, Checkpoint,
                              UPDATE_BLOCK, EarlyStopping, TrainConfig,
                              accumulate_gradients, average_checkpoints,
                              batch_loss, evaluate_dev, load_checkpoint,
                              load_into_model, noam_lr, save_checkpoint,
                              spec_augment, train_lm, train_loop)

Utt = namedtuple("Utt", "utt_id feats tokens")


def asr_cfg(**kw):
    base = dict(task="asr", vocab_size=5, feat_dim=8, e=1, d=1, d_att=16,
                d_ff=32, d_head=2, dropout_rate=0.0, alpha=0.7, seed=1)
    base.update(kw)
    return ModelConfig(**base)


def toy_utts(n=4, seed=0, feat=8):
    rng = np.random.default_rng(seed)
    protos = {3: rng.standard_normal((8, feat)),
              4: rng.standard_normal((8, feat))}
    seqs = [[3, 4], [4, 3], [3, 3], [4, 4], [3], [4], [3, 4], [4, 3]][:n]
    utts = []
    for i, s in enumerate(seqs):
        f = np.concatenate([protos[t] for t in s])
        f = f + 0.05 * rng.standard_normal(f.shape)
        utts.append(Utt(f"u{i:02d}", f, s))
    return utts


def tts_utts(n=4, seed=0, feat=6):
    rng = np.random.default_rng(seed)
    protos = {3: rng.standard_normal((4, feat)),
              4: rng.standard_normal((4, feat))}
    seqs = [[3, 4], [4, 3], [3], [4]][:n]
    return [Utt(f"t{i:02d}", np.concatenate([protos[t] for t in s]), s)
            for i, s in enumerate(seqs)]


def tts_counts(model, utts):
    """The feature elements and decoder steps of utts, each target padded
    to a multiple of r by the model's own pad_target."""
    padded = [model.pad_target(np.asarray(u.feats)) for u in utts]
    r = model.config.reduction_factor
    return (sum(p.size for p in padded),
            sum(p.shape[0] // r for p in padded))


# -- schedule -------------------------------------------------------------------


def test_noam_step_one_value():
    lr = noam_lr(1, d_att=256, warmup=2000)
    assert abs(lr - 0.0625 * 2000 ** -1.5) < 1e-18
    assert abs(lr - 6.9877e-7) < 5e-11


def test_noam_peak_exactly_at_warmup():
    warmup = 50
    lrs = [noam_lr(s, 64, warmup) for s in range(1, 10 * warmup + 1)]
    assert int(np.argmax(lrs)) + 1 == warmup
    # both branches agree at the corner
    assert abs(noam_lr(warmup, 64, warmup)
               - 64 ** -0.5 * warmup ** -0.5) < 1e-18


def test_noam_monotone_either_side():
    warmup = 40
    lrs = [noam_lr(s, 32, warmup) for s in range(1, 200)]
    for a, b in zip(lrs[:warmup - 1], lrs[1:warmup]):
        assert b >= a
    for a, b in zip(lrs[warmup - 1:-1], lrs[warmup:]):
        assert b <= a


def test_noam_rejects_step_zero():
    with pytest.raises(ConfigError):
        noam_lr(0, 256, 2000)


# -- optimizers -----------------------------------------------------------------


def test_adam_single_scalar_hand_step():
    p = Tensor(np.asarray(1.0), requires_grad=True)
    p.grad = np.asarray(0.5)
    opt = Adam([p])
    opt.step(lr=0.1)
    assert abs(p.data - 0.9) < 1e-8


def test_adam_zero_grad_no_move():
    p = Tensor(np.asarray([2.0, -3.0]), requires_grad=True)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt = Adam([p])
    for _ in range(5):
        opt.step(lr=0.5)
    assert np.array_equal(p.data, before)


def test_adam_none_grad_treated_as_zero():
    p = Tensor(np.asarray([1.0]), requires_grad=True)
    Adam([p]).step(lr=0.3)
    assert p.data[0] == 1.0


def test_adam_step_counter():
    p = Tensor(np.asarray(1.0), requires_grad=True)
    opt = Adam([p])
    for i in range(3):
        p.grad = np.asarray(0.1)
        opt.step(lr=0.01)
        assert opt.t == i + 1


def test_adadelta_descends_quadratic():
    x = Tensor(np.asarray(1.0), requires_grad=True)
    opt = Adadelta([x])
    prev = float(x.data) ** 2
    for _ in range(100):
        x.grad = np.asarray(2.0 * float(x.data))
        opt.step(1.0)
        cur = float(x.data) ** 2
        assert cur <= prev + 1e-15
        prev = cur
    assert prev < 1.0 - 1e-3


def test_grad_norm():
    a = Tensor(np.asarray([3.0]), requires_grad=True)
    b = Tensor(np.asarray([4.0]), requires_grad=True)
    a.grad = np.asarray([3.0])
    b.grad = np.asarray([4.0])
    assert abs(Adam([a, b]).step(lr=0.1) - 5.0) < 1e-12
    assert Adam([Tensor(np.ones(2), requires_grad=True)]).step(lr=0.1) == 0.0


class RefAdam:
    """The per-array Adam the flat one replaced: the reference its
    weights and moments must match bit for bit."""

    def __init__(self, params, beta1=0.9, beta2=0.98, eps=1e-9):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            mhat = self.m[i] / (1.0 - b1 ** self.t)
            vhat = self.v[i] / (1.0 - b2 ** self.t)
            p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)


class RefAdadelta:
    """The per-array Adadelta the flat one replaced."""

    def __init__(self, params, rho=0.95, eps=1e-8):
        self.params = list(params)
        self.rho, self.eps = rho, eps
        self.t = 0
        self.eg = [np.zeros_like(p.data) for p in self.params]
        self.ex = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr=1.0):
        self.t += 1
        rho, eps = self.rho, self.eps
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.eg[i] = rho * self.eg[i] + (1.0 - rho) * g * g
            delta = -np.sqrt(self.ex[i] + eps) / np.sqrt(self.eg[i] + eps) * g
            self.ex[i] = rho * self.ex[i] + (1.0 - rho) * delta * delta
            p.data += lr * delta


# parameter shapes whose totals fall under one update block, fill exactly
# two, and overrun two by one float; each holds a 0-d parameter
BLOCK_CASES = {
    "under-one-block": [(), (3, 5), (4, 2, 3)],
    "two-blocks": [(), (3, 5), (2 * UPDATE_BLOCK - 16,)],
    "two-blocks-plus-one": [(), (3, 5), (2 * UPDATE_BLOCK - 15,)],
}


@pytest.mark.parametrize("shapes", BLOCK_CASES.values(), ids=BLOCK_CASES)
@pytest.mark.parametrize("flat_cls, ref_cls, state", [
    (Adam, RefAdam, ("m", "v")),
    (Adadelta, RefAdadelta, ("eg", "ex")),
], ids=["adam", "adadelta"])
def test_flat_optimizer_matches_per_array_reference(shapes, flat_cls,
                                                     ref_cls, state):
    rng = np.random.default_rng(3)
    init = [rng.standard_normal(shape) for shape in shapes]
    params = [Tensor(x, requires_grad=True) for x in init]
    ref_params = [Tensor(x, requires_grad=True) for x in init]
    opt, ref = flat_cls(params), ref_cls(ref_params)
    for _ in range(20):
        lr = float(rng.uniform(1e-3, 1.0))
        for i, (p, q) in enumerate(zip(params, ref_params)):
            # the (3, 5) parameter never gets a gradient; the others now
            # and then none, at scales from 1e-3 to 1e2
            if i == 1 or rng.random() < 0.25:
                p.grad = q.grad = None
            else:
                g = rng.standard_normal(shapes[i]) * 10.0 ** rng.integers(-3, 3)
                p.grad, q.grad = g, g.copy()
        opt.step(lr)
        ref.step(lr)
        assert opt.t == ref.t
        for p, q in zip(params, ref_params):
            assert p.data.tobytes() == q.data.tobytes()
        for name in state:
            want = np.concatenate([np.ravel(a) for a in getattr(ref, name)])
            assert getattr(opt, name).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("opt_cls", [Adam, Adadelta])
def test_optimizer_packs_parameters_into_one_vector(tmp_path, opt_cls):
    model = build_model(asr_cfg())
    before = [(n, p.shape) for n, p in model.named_parameters()]
    save_checkpoint(str(tmp_path / "before.esc"), model)
    opt = opt_cls(model.parameters())
    assert [(n, p.shape) for n, p in model.named_parameters()] == before
    for p in model.parameters():
        assert p.data.flags["C_CONTIGUOUS"]
        assert np.shares_memory(p.data, opt.flat)
    save_checkpoint(str(tmp_path / "after.esc"), model)
    assert ((tmp_path / "before.esc").read_bytes()
            == (tmp_path / "after.esc").read_bytes())
    # loading writes through the views into the vector
    other = load_checkpoint(str(tmp_path / "before.esc"))
    for value in other.params.values():
        value += 1.0
    load_into_model(model, other)
    assert np.array_equal(opt.flat, np.concatenate(
        [np.ravel(v) for v in other.params.values()]))


def test_backward_accumulates_into_the_flat_gradient_vector():
    # after model.zero_grad() and a backward every p.grad is its view of
    # opt.grad, so the step copies nothing; the weights stay those of
    # fresh gradient arrays under the per-array reference
    utts = toy_utts(4)
    model, ref_model = build_model(asr_cfg()), build_model(asr_cfg())
    opt, ref = Adam(model.parameters()), RefAdam(ref_model.parameters())
    for step in range(1, 4):
        model.zero_grad()
        ref_model.zero_grad()
        for m in (model, ref_model):
            with T.Graph(seed=step):
                backward(batch_loss(m, utts, utts)[0])
        for p, q in zip(model.parameters(), ref_model.parameters()):
            assert np.shares_memory(p.grad, opt.grad)
            assert p.grad.tobytes() == q.grad.tobytes()
        opt.step(1e-2)
        ref.step(1e-2)
        for p, q in zip(model.parameters(), ref_model.parameters()):
            assert p.data.tobytes() == q.data.tobytes()
    # with no backward after zero_grad the step sees zero gradients, not
    # the last backward's, which opt.grad still holds
    model.zero_grad()
    ref_model.zero_grad()
    opt.step(1e-2)
    ref.step(1e-2)
    for p, q in zip(model.parameters(), ref_model.parameters()):
        assert p.grad is None and p.data.tobytes() == q.data.tobytes()


def test_non_finite_gradient_updates_nothing():
    p = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    opt = Adam([p])
    p.grad = np.asarray([0.5, 0.5])
    opt.step(lr=0.1)
    data, m, v = p.data.copy(), opt.m.copy(), opt.v.copy()
    p.grad = np.asarray([0.5, np.nan])
    assert math.isnan(opt.step(lr=0.1))
    assert opt.t == 1
    for now, then in ((p.data, data), (opt.m, m), (opt.v, v)):
        assert now.tobytes() == then.tobytes()


# -- accumulation equivalence ----------------------------------------------------


def batch_loss_closures(model, utts, split):
    """One closure per micro-batch, each one padded batch, all normalized
    by the full-batch token count."""
    return [lambda group=utts[lo:hi]: batch_loss(model, group, utts)[0]
            for lo, hi in split]


def utt_loss_oracle(model, utt, n_tokens_total):
    """The joint loss of one utterance encoded and decoded alone,
    normalized by the batch token count: the per-utterance loss that
    training ran before batches got a padded forward."""
    cfg = model.config
    ys = list(utt.tokens)
    enc = model.encode(*pad_sequences([utt.feats]))
    lp = model.decode_logprobs(enc, [[SOS_EOS_ID] + ys])
    ce = s2s_cross_entropy(lp, [ys + [SOS_EOS_ID]], denom=n_tokens_total)
    if not cfg.uses_ctc:
        return ce
    ctc_nll = (-ctc_log_likelihood(model.ctc_logprobs(enc), [ys],
                                   enc.n_sub).sum() / n_tokens_total)
    return joint_asr_loss(ce, ctc_nll, cfg.alpha)


def _grads(model, make_losses):
    model.zero_grad()
    total = 0.0
    with T.Graph(seed=0):
        for loss in make_losses():
            backward(loss)
            total += loss.item()
    return total, [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                   for p in model.parameters()]


@pytest.mark.parametrize("task", ["asr", "st"])
@pytest.mark.parametrize("enc_pre", ["conv", "vgg"])
@pytest.mark.parametrize("body", ["transformer", "rnn"])
def test_batch_loss_matches_per_utterance_oracle(body, enc_pre, task):
    # four utterances of different frame and token counts, odd frame
    # counts included, so every row but the longest is padded
    rng = np.random.default_rng(21)
    utts = []
    for i, (n_tok, extra) in enumerate([(2, 1), (4, 6), (1, 0), (3, 3)]):
        toks = [int(rng.integers(3, 7)) for _ in range(n_tok)]
        utts.append(Utt(f"u{i}", rng.standard_normal((8 * n_tok + 3 + extra,
                                                        8)), toks))
    model = build_model(asr_cfg(task=task, body=body, enc_pre=enc_pre, e=2,
                                d=2, d_att=8, d_ff=16, vocab_size=7,
                                alpha=0.6 if task == "asr" else 1.0))
    n_tok = sum(len(u.tokens) + 1 for u in utts)
    parts = []

    def batch():
        loss, logged = batch_loss(model, utts, utts)
        parts.append(logged)
        return [loss]

    got, got_grads = _grads(model, batch)
    want, want_grads = _grads(model, lambda: [utt_loss_oracle(model, u, n_tok)
                                              for u in utts])
    assert abs(got - want) < 1e-10
    # the logged columns combine into the loss; st logs no ctc column
    alpha = model.config.alpha
    assert set(parts[0]) == ({"s2s", "ctc"} if task == "asr" else {"s2s"})
    assert abs(alpha * parts[0]["s2s"] + (1 - alpha) * parts[0].get("ctc", 0)
               - got) < 1e-12
    for (name, _), g, w in zip(model.named_parameters(), got_grads,
                               want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-10, err_msg=name)


def _tts_utt_loss(model, utt, n_elems_total, n_steps_total, n_utts):
    """The TTS loss of one utterance run alone (a batch of one, so nothing
    is padded), normalized by the batch-global counts: the per-utterance
    loss that training ran before batches got a padded forward. Its
    guided term is the per-head formula, head by head."""
    enc = model.encode([utt.tokens])
    fwd = model.forward_teacher(enc, [utt.feats])
    l1 = tts_l1(fwd.coarse, fwd.refined, model.pad_target(utt.feats)[None],
                [fwd.coarse.shape[1]], denom=n_elems_total)
    eos_y = np.zeros(fwd.eos_logits.shape)
    eos_y[0, -1] = 1.0
    bce = weighted_bce(fwd.eos_logits, eos_y, [eos_y.shape[1]],
                       denom=n_steps_total)
    sel = model.guided_attention_records(fwd.records)
    n_dec, n_enc = sel.shape[2:]
    w = Tensor(guided_attention_weight(n_dec, n_enc))
    per_head = [(sel[0, k] * w).sum() / n_dec for k in range(sel.shape[1])]
    guided = sum(per_head[1:], per_head[0]) / len(per_head)
    return l1 + bce + guided / n_utts


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("normalize", ["pre", "post", "none"])
@pytest.mark.parametrize("body", ["transformer", "rnn"])
def test_tts_batch_loss_matches_per_utterance_oracle(body, normalize, r):
    # four utterances of different token and frame counts, frame counts
    # that r does not divide included, so every row but the longest is
    # padded on both sides
    rng = np.random.default_rng(22)
    utts = [Utt(f"t{i}", rng.standard_normal((n_frames, 6)),
                [int(t) for t in rng.integers(3, 7, n_tok)])
            for i, (n_tok, n_frames) in enumerate([(2, 7), (5, 12), (1, 3),
                                                   (3, 9)])]
    model = build_model(ModelConfig(
        task="tts", body=body, normalize=normalize, vocab_size=7, feat_dim=6,
        e=2, d=2, d_att=8, d_ff=16, d_head=2, dropout_rate=0.0, alpha=1.0,
        reduction_factor=r, prenet_units=8, postnet_layers=3,
        prenet_dropout_rate=0.0, seed=3))
    n_elems, n_steps = tts_counts(model, utts)
    parts = []

    def batch():
        loss, logged = batch_loss(model, utts, utts)
        parts.append(logged)
        return [loss]

    got, got_grads = _grads(model, batch)
    want, want_grads = _grads(model, lambda: [
        _tts_utt_loss(model, u, n_elems, n_steps, 4) for u in utts])
    assert abs(got - want) < 1e-10
    assert abs(sum(parts[0].values()) - got) < 1e-12
    for (name, _), g, w in zip(model.named_parameters(), got_grads,
                               want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("split", [
    [(0, 4)],
    [(0, 1), (1, 2), (2, 3), (3, 4)],
    [(0, 2), (2, 4)],
])
def test_accumulation_matches_big_batch(split):
    utts = toy_utts(4)
    big = build_model(asr_cfg(alpha=1.0))
    micro = build_model(asr_cfg(alpha=1.0))
    with T.Graph(seed=0):
        loss_big = accumulate_gradients(big, batch_loss_closures(big, utts, [(0, 4)]))
    with T.Graph(seed=0):
        loss_micro = accumulate_gradients(micro, batch_loss_closures(micro, utts, split))
    assert abs(loss_big - loss_micro) < 1e-10
    opt_a, opt_b = Adam(big.parameters()), Adam(micro.parameters())
    opt_a.step(lr=0.01)
    opt_b.step(lr=0.01)
    for pa, pb in zip(big.parameters(), micro.parameters()):
        assert np.max(np.abs(pa.data - pb.data)) < 1e-10


@st.composite
def split_batches(draw):
    """1-4 utterance lengths (all equal, one long, or all 1), a split of
    them into contiguous micro-batches, and a seed for their values."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["equal", "one long", "ones"]))
    lens = [1 if kind == "ones" else draw(st.integers(1, 3))] * n
    if kind == "one long":
        lens[draw(st.integers(0, n - 1))] = draw(st.integers(5, 7))
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    return lens, list(zip(bounds, bounds[1:])), draw(st.integers(0, 2 ** 16))


SPLIT_MODELS = {"asr": asr_cfg(vocab_size=5, d_att=8, d_ff=16, seed=3)}
for _r in (1, 2):
    SPLIT_MODELS[f"tts-r{_r}"] = ModelConfig(
        task="tts", vocab_size=5, feat_dim=6, e=1, d=1, d_att=8, d_ff=16,
        d_head=2, dropout_rate=0.0, alpha=1.0, reduction_factor=_r,
        prenet_units=8, postnet_layers=2, prenet_dropout_rate=0.0, seed=4)


def split_utts(task, lens, seed):
    """ASR: lens tokens and 4 frames per CTC frame the tokens need, plus
    up to 3; TTS: 1-3 tokens and lens frames."""
    rng = np.random.default_rng(seed)
    utts = []
    for i, n in enumerate(lens):
        if task == "asr":
            toks = [int(t) for t in rng.integers(3, 5, n)]
            frames = 4 * ctc_min_frames(toks) + int(rng.integers(0, 4))
            utts.append(Utt(f"u{i}", rng.standard_normal((frames, 8)), toks))
        else:
            toks = [int(t) for t in rng.integers(3, 5, rng.integers(1, 4))]
            utts.append(Utt(f"u{i}", rng.standard_normal((n, 6)), toks))
    return utts


@pytest.mark.parametrize("task", sorted(SPLIT_MODELS))
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(case=split_batches())
def test_batch_loss_split_sums_to_the_whole(task, case):
    # micro-batches normalized by the whole batch's counts sum to its
    # loss and gradients; normalized by itself, each logged column is
    # the loss function's own mean over the rows it reads
    lens, split, seed = case
    utts = split_utts(task, lens, seed)
    model = build_model(SPLIT_MODELS[task])
    logged = []

    def whole():
        loss, parts = batch_loss(model, utts, utts)
        logged.append(parts)
        return loss

    def grads():
        return [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in model.parameters()]

    loss = accumulate_gradients(model, [whole])
    want = grads()
    got = accumulate_gradients(model, [
        lambda group=utts[lo:hi]: batch_loss(model, group, utts)[0]
        for lo, hi in split])
    assert abs(got - loss) < 1e-12
    for g, w in zip(grads(), want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)

    with T.no_grad():
        if task == "asr":
            enc = model.encode(*pad_sequences([u.feats for u in utts]))
            lp = model.decode_logprobs(
                enc, [[SOS_EOS_ID] + u.tokens for u in utts])
            means = {"s2s": s2s_cross_entropy(
                lp, [u.tokens + [SOS_EOS_ID] for u in utts])}
        else:
            fwd = model.forward_teacher(model.encode([u.tokens
                                                      for u in utts]),
                                        [u.feats for u in utts])
            eos_y = (np.arange(fwd.eos_logits.shape[1])
                     == fwd.n_steps[:, None] - 1)
            means = {"l1": tts_l1(fwd.coarse, fwd.refined, fwd.target,
                                  fwd.n_pad),
                     "bce": weighted_bce(fwd.eos_logits, eos_y,
                                         fwd.n_steps)}
    for name, mean in means.items():
        assert logged[0][name] == pytest.approx(mean.item(), rel=1e-12)


# -- checkpoints ----------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = build_model(asr_cfg())
    path = str(tmp_path / "m.esc")
    save_checkpoint(path, model, epoch=7)
    assert os.listdir(tmp_path) == ["m.esc"]    # no temp or epoch file left
    ck = load_checkpoint(path)
    assert ck.epoch == 7
    for name, p in model.named_parameters():
        assert np.array_equal(ck.params[name], p.data)
    assert list(ck.params) == [n for n, _ in model.named_parameters()]


def test_checkpoint_scalar_param_roundtrip(tmp_path):
    path = str(tmp_path / "s.esc")
    save_checkpoint(path, {"alpha": np.asarray(2.5), "w": np.ones((2, 3))})
    ck = load_checkpoint(path)
    assert ck.params["alpha"].shape == ()
    assert ck.params["alpha"] == 2.5


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad.esc")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "t.esc")
    save_checkpoint(path, {"w": np.zeros(2)})
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    path = str(tmp_path / "u.esc")
    save_checkpoint(path, {"w": np.zeros(4)})
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[:-8])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_average_identical_and_means(tmp_path):
    a = str(tmp_path / "a.esc")
    b = str(tmp_path / "b.esc")
    save_checkpoint(a, {"w": np.zeros((2, 2))})
    save_checkpoint(b, {"w": np.full((2, 2), 2.0)})
    avg = average_checkpoints([a, b])
    assert np.array_equal(avg.params["w"], np.ones((2, 2)))
    same = average_checkpoints([a, a])
    assert np.array_equal(same.params["w"], np.zeros((2, 2)))


def test_average_order_independent(tmp_path):
    rng = np.random.default_rng(3)
    paths = []
    for i in range(3):
        p = str(tmp_path / f"c{i}.esc")
        save_checkpoint(p, {"w": rng.standard_normal((3, 4))})
        paths.append(p)
    for perm in itertools.permutations(paths):
        got = average_checkpoints(list(perm))
        want = average_checkpoints(paths)
        assert np.array_equal(got.params["w"], want.params["w"])


def test_average_empty_rejected():
    with pytest.raises(DataError):
        average_checkpoints([])


def test_load_into_model_roundtrip(tmp_path):
    m1 = build_model(asr_cfg(seed=1))
    m2 = build_model(asr_cfg(seed=2))
    path = str(tmp_path / "m1.esc")
    save_checkpoint(path, m1)
    load_into_model(m2, load_checkpoint(path))
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)


def test_load_into_model_name_mismatch(tmp_path):
    model = build_model(asr_cfg())
    with pytest.raises(DataError):
        load_into_model(model, Checkpoint(params={"nope": np.zeros(1)}))


# -- early stopping -------------------------------------------------------------


def test_early_stopping_rule_trace():
    es = EarlyStopping(patience=3)
    decisions = [es.update(v) for v in [3.0, 2.0, 2.5, 2.4, 2.6]]
    assert decisions == [False, False, False, False, True]


def test_early_stopping_never_on_improvement():
    es = EarlyStopping(patience=3)
    assert not any(es.update(v) for v in np.linspace(5.0, 1.0, 20))


def test_early_stopping_flat_history():
    es = EarlyStopping(patience=3)
    decisions = [es.update(1.0) for _ in range(4)]
    assert decisions == [False, False, False, True]


def test_early_stopping_needs_min_delta():
    es = EarlyStopping(patience=2, min_delta=1e-4)
    assert not es.update(1.0)
    assert not es.update(1.0 - 5e-5)   # too small to count
    assert es.update(1.0 - 9e-5)


# -- augmentation ---------------------------------------------------------------


def test_spec_augment_identity_when_disabled():
    x = np.random.default_rng(4).standard_normal((20, 16))
    y = spec_augment(x, n_time_masks=0, n_freq_masks=0, seed=1)
    assert np.array_equal(x, y)
    assert y is not x


def test_spec_augment_masks_zero_rest_untouched():
    x = np.random.default_rng(5).standard_normal((30, 16)) + 10.0
    y = spec_augment(x, n_time_masks=2, n_freq_masks=1, max_t=6, max_f=3,
                     seed=2)
    changed = y != x
    assert np.all(y[changed] == 0.0)
    assert np.array_equal(y[~changed], x[~changed])


def test_spec_augment_deterministic_per_seed():
    x = np.random.default_rng(6).standard_normal((25, 16))
    a = spec_augment(x, seed=9)
    b = spec_augment(x, seed=9)
    c = spec_augment(x, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spec_augment_expected_mask_fraction():
    # one time mask, width uniform on 0..max_t: mean width max_t/2
    n, max_t = 50, 10
    x = np.ones((n, 8))
    fractions = []
    for seed in range(1000):
        y = spec_augment(x, n_time_masks=1, n_freq_masks=0, max_t=max_t,
                         seed=seed)
        fractions.append((y.sum(axis=1) == 0).mean())
    want = (max_t / 2) / n
    got = float(np.mean(fractions))
    assert abs(got - want) / want < 0.2


# -- the loop -------------------------------------------------------------------


def test_train_loop_artifacts_and_descent(tmp_path):
    utts = toy_utts(4)
    model = build_model(asr_cfg())
    tcfg = TrainConfig(epochs=30, batch_size=4, optimizer="adam",
                       warmup_steps=100, noam_k=5.0, seed=0, keep_last=5)
    res = train_loop(model, utts, utts[:2], tcfg, str(tmp_path / "run"))
    assert len(res.ckpt_paths) == 30
    assert all(os.path.exists(p) for p in res.ckpt_paths)
    assert os.path.exists(res.avg_path)
    assert len(res.dev_losses) == 30
    rows = open(res.log_path).read().strip().split("\n")
    assert rows[0] == "step,epoch,lr,total,s2s,ctc,l1,bce,guided,grad_norm,wall_ms"
    assert len(rows) == 1 + 30
    first = float(rows[1].split(",")[3])
    last = float(rows[-1].split(",")[3])
    assert last < 0.5 * first
    assert all(r.split(",")[-1] == "0" for r in rows[1:])


def test_train_loop_byte_identical_reruns(tmp_path):
    utts = toy_utts(4)
    outs = []
    for run in ("a", "b"):
        model = build_model(asr_cfg(dropout_rate=0.1))
        tcfg = TrainConfig(epochs=2, batch_size=2, optimizer="adam", seed=3)
        res = train_loop(model, utts, utts[:1], tcfg, str(tmp_path / run))
        outs.append(res)
    log_a = open(outs[0].log_path, "rb").read()
    log_b = open(outs[1].log_path, "rb").read()
    assert log_a == log_b
    for pa, pb in zip(outs[0].ckpt_paths, outs[1].ckpt_paths):
        assert open(pa, "rb").read() == open(pb, "rb").read()
    assert open(outs[0].avg_path, "rb").read() == \
        open(outs[1].avg_path, "rb").read()


def test_train_loop_tts_toy_byte_identical_reruns(tmp_path):
    # tts-toy, dropout and prenet dropout on, one epoch on a small corpus:
    # the log and every checkpoint repeat byte for byte
    cfg = experiment_from_items({"preset": "tts-toy", "epochs": "1",
                                 "d_att": "16", "d_ff": "32",
                                 "prenet_units": "16"})
    spec = ToySpec(task="tts", n_train=20, n_dev=5, n_test=0, seed=1)
    splits = gen_toy(spec)
    cfg.model.vocab_size = len(toy_vocab(spec))
    cfg.model.feat_dim = int(splits["train"][0].feats.shape[1])
    dirs = [tmp_path / run for run in ("a", "b")]
    for out in dirs:
        train_loop(build_model(cfg.model), splits["train"], splits["dev"],
                   cfg.train, str(out))
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert {"log.csv", "ckpt-001.esc", "avg.esc"} <= set(names)
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def tts_cfg():
    return ModelConfig(task="tts", body="transformer", vocab_size=5,
                       feat_dim=6, e=1, d=2, d_att=16, d_ff=32, d_head=2,
                       dropout_rate=0.0, alpha=1.0, reduction_factor=2,
                       prenet_units=8, postnet_layers=3,
                       prenet_dropout_rate=0.0, seed=2)


def test_train_loop_tts_smoke(tmp_path):
    model = build_model(tts_cfg())
    utts = tts_utts(4)
    tcfg = TrainConfig(epochs=2, batch_size=2, optimizer="adam", seed=1)
    res = train_loop(model, utts, utts[:2], tcfg, str(tmp_path / "tts"))
    rows = open(res.log_path).read().strip().split("\n")[1:]
    assert len(rows) == 4
    for r in rows:
        parts = r.split(",")
        assert float(parts[6]) > 0.0     # l1
        assert float(parts[7]) > 0.0     # bce
        assert float(parts[8]) >= 0.0    # guided
        assert float(parts[4]) == 0.0    # no s2s term in tts
    assert len(res.dev_losses) == 2


def test_train_loop_early_stop(tmp_path):
    # the first dev loss sets the best and no later one improves on it
    # by min_delta = 1e9, so patience 1 stops training after epoch 2 of 3,
    # and avg.esc averages the two checkpoints written
    utts = toy_utts(4)
    model = build_model(asr_cfg())
    tcfg = TrainConfig(epochs=3, batch_size=4, optimizer="adam",
                       min_delta=1e9, seed=0, early_stop=True, patience=1)
    res = train_loop(model, utts, utts[:2], tcfg, str(tmp_path / "es"))
    assert res.stopped_early
    assert [os.path.basename(p) for p in res.ckpt_paths] == [
        "ckpt-001.esc", "ckpt-002.esc"]
    assert sorted(os.listdir(tmp_path / "es")) == [
        "avg.esc", "ckpt-001.esc", "ckpt-002.esc", "log.csv"]
    assert len(res.dev_losses) == 2
    epochs = [row.split(",")[1] for row in
              open(res.log_path).read().strip().split("\n")[1:]]
    assert epochs == ["1", "2"]
    first, second = (load_checkpoint(p) for p in res.ckpt_paths)
    avg = load_checkpoint(res.avg_path)
    assert avg.epoch == 2
    for name, value in avg.params.items():
        assert np.array_equal(value, (first.params[name]
                                      + second.params[name]) / 2)


def test_train_loop_empty_data_rejected(tmp_path):
    model = build_model(asr_cfg())
    with pytest.raises(DataError):
        train_loop(model, [], [], TrainConfig(epochs=1), str(tmp_path / "x"))


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_train_loop_names_too_short_utterances_first(tmp_path, alpha):
    rng = np.random.default_rng(1)
    utts = toy_utts(4)
    # 3 frames is under the front end's 4; 12 frames subsample to 3, one
    # short of what 4 labels need under CTC
    short = Utt("short-frames", rng.standard_normal((3, 8)), [3])
    tight = Utt("short-for-ctc", rng.standard_normal((12, 8)), [3, 4, 3, 4])
    out = tmp_path / "run"
    model = build_model(asr_cfg(alpha=alpha))
    with pytest.raises(DataError) as err:
        train_loop(model, utts + [short, tight], utts[:2],
                   TrainConfig(epochs=1, batch_size=2), str(out))
    msg = str(err.value)
    assert msg.startswith("train split")
    assert "short-frames (3 frames)" in msg
    # without a CTC head the 12-frame utterance trains fine
    assert ("short-for-ctc" in msg) == (alpha < 1.0)
    assert not out.exists()

    with pytest.raises(DataError, match="dev split.*short-frames"):
        train_loop(model, utts, [short], TrainConfig(epochs=1), str(out))
    assert not out.exists()


@pytest.mark.parametrize("task", ["asr", "tts"])
def test_train_loop_non_finite_stops_before_any_checkpoint(tmp_path, task):
    if task == "asr":
        model, utts = build_model(asr_cfg()), toy_utts(4)
        poisoned = model.dec_post.weight
    else:
        model, utts = build_model(tts_cfg()), tts_utts(4)
        poisoned = model.feat_head.weight
    poisoned.data[0, 0] = np.nan
    out = tmp_path / "nan"
    with pytest.raises(NumericError, match="epoch 1 step 1"):
        train_loop(model, utts, utts[:2], TrainConfig(epochs=2, batch_size=2),
                   str(out))
    assert not list(out.glob("*.esc"))


def test_tts_denominators_pad_to_the_reduction_factor():
    # batch_loss normalizes L1 by (6 + 4) * 6 elements and BCE by 3 + 2
    # steps: 5 frames count as 6 at r = 2
    model = build_model(tts_cfg())             # r = 2, feat_dim 6
    model.eval()
    utts = [Utt("a", np.ones((5, 6)), [3]), Utt("b", np.ones((4, 6)), [4])]
    with T.no_grad(), T.Graph(seed=0):
        parts = batch_loss(model, utts, utts)[1]
    with T.no_grad(), T.Graph(seed=0):
        fwd = model.forward_teacher(model.encode([u.tokens for u in utts]),
                                    [u.feats for u in utts])
        eos_y = np.zeros(fwd.eos_logits.shape)
        eos_y[[0, 1], [2, 1]] = 1.0
        l1 = tts_l1(fwd.coarse, fwd.refined, fwd.target, [6, 4], denom=1)
        bce = weighted_bce(fwd.eos_logits, eos_y, [3, 2], denom=1)
    assert parts["l1"] * (6 + 4) * 6 == pytest.approx(l1.item(), rel=1e-12)
    assert parts["bce"] * (3 + 2) == pytest.approx(bce.item(), rel=1e-12)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="sgd").validate()


def test_train_loop_with_augmentation_runs(tmp_path):
    # the masks are seeded: two augmented runs repeat byte for byte and
    # differ from a run without masks; TTS targets are never masked
    def run(name, cfg, utts, **augment):
        out = tmp_path / name
        train_loop(build_model(cfg), utts, utts[:1],
                   TrainConfig(epochs=1, batch_size=2, seed=5, **augment),
                   str(out))
        return {p.name: p.read_bytes() for p in out.iterdir()}

    masks = dict(augment=True, max_t=3, max_f=2)
    first = run("a", asr_cfg(), toy_utts(4), **masks)
    assert set(first) == {"log.csv", "ckpt-001.esc", "avg.esc"}
    assert run("b", asr_cfg(), toy_utts(4), **masks) == first
    plain = run("plain", asr_cfg(), toy_utts(4))
    assert all(first[name] != plain[name] for name in first)
    assert (run("tts-a", tts_cfg(), tts_utts(4), **masks)
            == run("tts-plain", tts_cfg(), tts_utts(4)))


def test_train_lm_loss_decreases():
    lm = build_model(ModelConfig(task="lm", vocab_size=6, d_att=12, seed=0))
    seqs = [[3, 4, 5], [3, 4], [4, 5, 3], [5, 5, 4], [3, 3]]
    trace = train_lm(lm, seqs, epochs=4, lr=5e-3, seed=0)
    assert trace[-1] < trace[0]


def test_train_lm_stops_on_a_non_finite_loss():
    lm = build_model(ModelConfig(task="lm", vocab_size=6, d_att=12, seed=0))
    lm.out.bias.data[0] = np.nan
    with pytest.raises(NumericError,
                       match="^epoch 1 step 1: loss nan is not finite$"):
        train_lm(lm, [[3, 4, 5], [3, 4]], epochs=2)


def test_train_lm_stops_on_a_non_finite_gradient_norm(monkeypatch):
    # the norm is read after the step of each sequence; the fourth step
    # is the second of epoch 2
    norms = iter([1.0, 1.0, 1.0, math.inf])
    monkeypatch.setattr(Adam, "step", lambda self, lr: next(norms))
    lm = build_model(ModelConfig(task="lm", vocab_size=6, d_att=12, seed=0))
    with pytest.raises(NumericError, match="^epoch 2 step 4: gradient norm "
                                           "inf is not finite$"):
        train_lm(lm, [[3, 4, 5], [3, 4]], epochs=3)


def test_evaluate_dev_matches_manual_mean():
    utts = toy_utts(2)
    model = build_model(asr_cfg(alpha=1.0))
    model.eval()
    n_tok = sum(len(u.tokens) + 1 for u in utts)
    manual = 0.0
    with T.no_grad(), T.Graph(seed=0):
        for u in utts:
            enc = model.encode(*pad_sequences([u.feats]))
            lp = model.decode_logprobs(enc, [[SOS_EOS_ID] + list(u.tokens)])
            manual += s2s_cross_entropy(lp, [list(u.tokens) + [SOS_EOS_ID]],
                                        denom=n_tok).item()
    got = evaluate_dev(model, utts)
    assert abs(got - manual) < 1e-12

    # TTS: one utterance, and nine, a full DEV_BATCH and a partial one
    spec = ToySpec(task="tts", vocab_size=4, n_train=9, n_dev=0, n_test=0,
                   seed=4)
    corpus = gen_toy(spec)["train"]
    model = build_model(ModelConfig(
        task="tts", vocab_size=len(toy_vocab(spec)),
        feat_dim=corpus[0].feats.shape[1], e=1, d=2, d_att=16, d_ff=32,
        d_head=2, dropout_rate=0.1, alpha=1.0, reduction_factor=2,
        prenet_units=8, postnet_layers=3, prenet_dropout_rate=0.5,
        prenet_dropout_at_infer=False, seed=2))
    assert DEV_BATCH < len(corpus) < 2 * DEV_BATCH
    for dev in (corpus[:1], corpus):
        model.eval()
        n_elems, n_steps = tts_counts(model, dev)
        with T.no_grad(), T.Graph(seed=0):
            manual = sum(_tts_utt_loss(model, u, n_elems, n_steps,
                                       len(dev)).item() for u in dev)
        model.train()
        assert abs(evaluate_dev(model, dev) - manual) < 1e-12
        assert model.training


@pytest.mark.parametrize("training", [False, True])
def test_evaluate_dev_leaves_the_model_in_its_mode(training):
    # a loaded checkpoint is evaluated in eval mode and then searched; the
    # Transformer decoder's search step refuses dropout left on
    utts = toy_utts(2)
    model = build_model(asr_cfg(dropout_rate=0.1))
    model.train() if training else model.eval()
    evaluate_dev(model, utts)
    drop = model.dec_body.layers[0].drop
    assert model.training == drop.training == training
    if not training:
        with T.no_grad():
            enc = model.encode(*pad_sequences([utts[0].feats]))
            batch_beam_search(enc, model, config=BeamConfig(beam_size=2))
