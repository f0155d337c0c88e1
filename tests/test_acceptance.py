"""Top-level acceptance checks, one test per claim the package makes.

Each test prints a single verdict line (visible with `pytest -s`, or in
the captured output on failure) before asserting, so a full run leaves
one PASS/FAIL line per claim:

  A1  gradient suite over every op plus end-to-end ASR/TTS passes
  A2  CTC forward equals brute-force path enumeration; prefix chaining
  A3  decoder causality under future-input perturbation
  A4  beam search equals exhaustive argmax; wider beams never score lower
  A5  micro-batch accumulation reproduces the big-batch update
  A6  toy ASR convergence for both presets plus checkpoint averaging
  A7  toy ST without CTC; CTC on the reordering task is refused
  A8  toy TTS convergence, guided-attention drop, EOS stopping
  A9  metric spot checks against hand-traced values
  A10 byte-identical reruns of a full training recipe

The convergence tests train real (small) models and take a few minutes
in total; everything else is oracle-sized.
"""

import itertools
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from minis2s import tensor as T
from minis2s.attention import add_positional_encoding, multi_head_attention
from minis2s.config import experiment_from_items
from minis2s.data import ToySpec, Utterance, gen_toy, toy_vocab
from minis2s.decoding import BeamConfig, CtcPrefixScorer, batch_beam_search
from minis2s.errors import ConfigError
from minis2s.losses import ctc_log_likelihood, ctc_min_frames
from minis2s.metrics import bleu, cer, wer
from minis2s.models import (ModelConfig, S2SModel, TtsModel, build_model,
                            pad_sequences)
from minis2s.nn import LSTM, LSTMCell
from minis2s.reserved import SOS_EOS_ID
from minis2s.tensor import Tensor, grad_check
from minis2s.training import (Adam, accumulate_gradients, batch_loss,
                              evaluate_dev, load_checkpoint, load_into_model,
                              noam_lr, train_loop)

from test_attention import dot_attention
from test_decoding import enumerate_best, tiny_model


def _verdict(tag: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line)
    return line


# -- shared toy training runs ---------------------------------------------------


def _run_toy_asr(preset: str, out_dir) -> dict:
    cfg = experiment_from_items({"preset": preset})
    spec = ToySpec(task="asr", seed=0)
    splits = gen_toy(spec)
    vocab = toy_vocab(spec)
    cfg.model.vocab_size = len(vocab)
    cfg.model.feat_dim = int(splits["train"][0].feats.shape[1])
    model = build_model(cfg.model)
    t0 = time.perf_counter()
    result = train_loop(model, splits["train"], splits["dev"], cfg.train,
                        str(out_dir))
    wall = time.perf_counter() - t0
    return {"cfg": cfg, "splits": splits, "vocab": vocab, "result": result,
            "wall": wall, "out": str(out_dir)}


@pytest.fixture(scope="module")
def transformer_asr_run(tmp_path_factory):
    return _run_toy_asr("transformer-toy",
                        tmp_path_factory.mktemp("asr-transformer"))


@pytest.fixture(scope="module")
def rnn_asr_run(tmp_path_factory):
    return _run_toy_asr("rnn-toy", tmp_path_factory.mktemp("asr-rnn"))


def _averaged_model(run: dict):
    model = build_model(run["cfg"].model)
    load_into_model(model, load_checkpoint(run["result"].avg_path))
    model.eval()
    return model


def _beam_cer(model, utts, vocab, bcfg) -> float:
    refs, hyps = [], []
    for u in utts:
        with T.no_grad(), T.Graph(seed=0):
            enc = model.encode(*pad_sequences([u.feats]))
            out = batch_beam_search(enc, model, config=bcfg)[0]
        hyps.append(" ".join(vocab.decode(out.best.tokens)))
        refs.append(" ".join(vocab.decode(u.tokens)))
    return cer(refs, hyps)


# -- A1: gradients ----------------------------------------------------------------


def _op_suite(seed: int):
    """One grad_check case per differentiable op, freshly drawn per seed.

    Kinked ops (relu, abs, max pool) get inputs nudged away from the
    kink so central differences measure a differentiable point.
    """
    rng = np.random.default_rng(10_000 + seed)

    def rnd(shape, away=0.0, shift=0.0, scale=1.0):
        a = rng.standard_normal(shape) * scale
        if away:
            a[np.abs(a) < away] += 4.0 * away
        return Tensor(a + shift, requires_grad=True)

    cases = []

    def case(name, f, xs, **kw):
        cases.append((name, f, xs, kw))

    a, b, row = rnd((3, 4)), rnd((3, 4)), rnd((4,))
    case("add-mul-div-broadcast",
         lambda a, b, row: ((a + b * 2.0 - row) / 1.7 + (a * b)).sum(),
         [a, b, row])
    m1, m2 = rnd((3, 4)), rnd((4, 2))
    case("matmul-transpose",
         lambda m1, m2: (T.transpose(m1 @ m2) @ m1).sum(), [m1, m2])
    s = rnd((4, 5))
    case("slice-reshape-concat",
         lambda s: (T.concat([s[1:3], s[0:2]], axis=0).reshape(4, 5)
                    * s[:4]).sum(), [s])
    k = rnd((3, 4), away=0.05)
    case("relu", lambda k: T.relu(k).sum(), [k])
    case("abs", lambda k: k.abs().sum(), [k])
    t1 = rnd((3, 4))
    case("tanh-sigmoid-exp", lambda t1: (T.tanh(t1) * T.sigmoid(t1)
                                         + T.exp(t1 * 0.3)).sum(), [t1])
    pos = rnd((3, 4))
    case("log", lambda pos: T.log(pos.abs() + 0.5).mean(), [pos])
    sm = rnd((3, 5))
    case("softmax-logsoftmax",
         lambda sm: (T.softmax(sm) * T.log_softmax(sm)).sum(), [sm])
    ls = rnd((6,))
    case("log-sigmoid", lambda ls: T.log_sigmoid(ls).sum()
         + T.log_sigmoid(-ls).sum(), [ls])
    x, g0, b0 = rnd((4, 6)), rnd((6,), shift=1.0), rnd((6,))
    case("layer-norm", lambda x, g0, b0: (T.layer_norm(x, g0, b0)
                                          * x).sum(), [x, g0, b0])
    dr = rnd((5, 6))

    def drop_fixed(dr):
        # same Graph seed per call keeps the mask identical across the
        # finite-difference evaluations
        with T.Graph(seed=777):
            return T.dropout(dr, 0.4, training=True).sum()

    case("dropout-fixed-mask", drop_fixed, [dr])
    # the convolutions and scans take batches: one sequence is a batch of one
    c1x, c1w, c1b = rnd((1, 7, 3)), rnd((2, 3, 3)), rnd((2,))
    case("conv1d", lambda c1x, c1w, c1b: T.conv(c1x, c1w, c1b, stride=2,
                                                padding=1).sum(),
         [c1x, c1w, c1b])
    c2x, c2w, c2b = rnd((1, 5, 6, 2)), rnd((3, 2, 2, 3)), rnd((3,))
    case("conv2d", lambda c2x, c2w, c2b: T.conv(c2x, c2w, c2b, stride=2,
                                                padding=1).sum(),
         [c2x, c2w, c2b])
    mp_x = rnd((1, 4, 6, 2), scale=5.0)
    case("max-pool2d", lambda mp_x: T.max_pool2d(mp_x, kernel=2).sum(), [mp_x])
    table = rnd((5, 4))
    case("embedding", lambda table: T.embedding_lookup([0, 2, 2, 4],
                                                       table).sum(), [table])
    pk = rnd((4, 5))
    case("gather-rows", lambda pk: pk[np.arange(4), np.array([1, 0, 4, 2])]
         .sum(), [pk])

    q, kk, v = rnd((4, 6)), rnd((5, 6)), rnd((5, 6))
    mask = np.tril(np.ones((4, 5), dtype=bool))
    case("dot-attention-masked",
         lambda q, kk, v: (dot_attention(q, kk, v, mask=mask)
                           * q[:, :6]).sum(), [q, kk, v])
    # per-head (6, 6) draws in their old order, laid side by side
    per_head = [rnd((6, 6)).data for _ in range(6)]
    wq, wk, wv = (Tensor(np.concatenate(per_head[i:i + 2], axis=1),
                         requires_grad=True) for i in (0, 2, 4))
    w_head = rnd((12, 6))
    y = rnd((4, 6))
    case("multi-head-attention-causal",
         lambda y, *ws: (multi_head_attention(y, y, y, *ws, 2,
                                              np.tril(np.ones((4, 4), bool)))[0]
                         * y).sum(),
         [y, wq, wk, wv, w_head], max_coords=4, rng=seed)
    pe_x, alpha = rnd((5, 8)), rnd(())
    case("scaled-positional-encoding",
         lambda pe_x, alpha: (add_positional_encoding(pe_x, alpha)
                              * pe_x).sum(), [pe_x, alpha])
    lstm = LSTM(4, 5, np.random.default_rng(seed))
    lx = rnd((1, 4, 4))
    case("lstm", lambda lx, *ps: T.tanh(lstm(lx, [4])).sum(),
         [lx] + lstm.parameters(), max_coords=4, rng=seed)
    rlstm = LSTM(4, 5, np.random.default_rng(seed + 1), reverse=True)
    rx = rnd((1, 4, 4))
    case("lstm-reverse", lambda rx, *ps: T.tanh(rlstm(rx, [4])).sum(),
         [rx] + rlstm.parameters(), max_coords=4, rng=seed)
    cell = LSTMCell(4, 5, np.random.default_rng(seed + 2))
    cx, ch, cc = rnd((3, 4)), rnd((3, 5)), rnd((3, 5))

    def cell_loss(cx, ch, cc, *ps):
        h, c = cell(cx, ch, cc)
        return T.tanh(h).sum() + (c * c).sum()

    case("lstm-cell", cell_loss, [cx, ch, cc] + cell.parameters(),
         max_coords=4, rng=seed)
    # two heads of width 3 over a batch of 2, per-row key counts as a mask
    hq, hk, hv = rnd((2, 3, 6)), rnd((2, 4, 6)), rnd((2, 4, 6))
    h_mask = np.ones((2, 1, 3, 4), dtype=bool)
    h_mask[1, :, :, 2:] = False
    h_mask[0, :, 0, 3] = False
    h_r = rnd((2, 2, 3, 4)).data

    def heads_loss(hq, hk, hv):
        w = T.attention_weights(hq, hk, 2, h_mask)
        return (T.tanh(T.mix_heads(w, hv)).sum()
                + (w * Tensor(h_r)).sum())

    case("heads-attention", heads_loss, [hq, hk, hv], max_coords=4, rng=seed)
    # both directions over a padded batch of three rows with their own
    # lengths; frames past a row's end must get no gradient
    for reverse in (False, True):
        plstm = LSTM(4, 5, np.random.default_rng(seed + 3 + reverse),
                     reverse=reverse)
        px = rnd((3, 5, 4))
        p_r = rnd((3, 5, 5)).data

        def padded_loss(px, *ps, plstm=plstm, p_r=p_r):
            return (T.tanh(plstm(px, [5, 2, 4])) * Tensor(p_r)).sum()

        case("lstm-padded" + "-reverse" * reverse, padded_loss,
             [px] + plstm.parameters(), max_coords=4, rng=seed)
    return cases


def _asr_grad_cfg(body, seed):
    return ModelConfig(task="asr", vocab_size=7, feat_dim=5, e=1, d=1,
                       d_att=8, d_ff=16, d_head=2, dropout_rate=0.0,
                       alpha=0.5, seed=seed)


def _tts_grad_cfg(seed):
    return ModelConfig(task="tts", vocab_size=7, feat_dim=5, e=1, d=1,
                       d_att=8, d_ff=16, d_head=2, dropout_rate=0.0,
                       alpha=1.0, reduction_factor=2, prenet_units=8,
                       postnet_layers=2, prenet_dropout_rate=0.0, seed=seed)


def test_a01_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    failures = []
    for seed in range(20):
        for name, f, xs, kw in _op_suite(seed):
            err = grad_check(f, xs, **kw)
            worst = max(worst, err)
            if err >= 1e-5:
                failures.append(f"{name}@seed{seed}: {err:.2e}")

        # end-to-end ASR: loss touches the decoder head, the CTC head and
        # a recorded attention matrix with generic random weightings
        body = "transformer" if seed % 2 == 0 else "rnn"
        model = S2SModel(_asr_grad_cfg(body, seed))
        model.eval()
        x = Tensor(np.random.default_rng(seed).standard_normal((1, 8, 5)))
        ys = [SOS_EOS_ID, 3, 5]
        n_sub = model.encode(x, [8]).n_sub[0]
        R = Tensor(np.random.default_rng(7).standard_normal((n_sub, 7)))
        R2 = Tensor(np.random.default_rng(8).standard_normal((3, n_sub)))

        def f_asr(*_):
            enc = model.encode(x, [8])
            recs = []
            lp = model.decode_logprobs(enc, [ys], records=recs)
            ctc = model.ctc_logprobs(enc)
            att = recs[-1][0, 0]
            return (lp[0, np.arange(3), np.array([3, 5, SOS_EOS_ID])].sum()
                    + (ctc * R).sum() + (att * R2).sum())

        err = grad_check(f_asr, model.parameters(), h=1e-4, max_coords=2,
                         rng=seed, atol=1e-7)
        worst = max(worst, err)
        if err >= 1e-5:
            failures.append(f"asr-{body}@seed{seed}: {err:.2e}")

        tts = TtsModel(_tts_grad_cfg(seed))
        tts.eval()
        # zero decoder input on zero biases puts the prenet ReLU exactly
        # at its kink; nudge so finite differences see a smooth point
        tts.prenet.lin1.bias.data[:] = 0.05
        tts.prenet.lin2.bias.data[:] = 0.05
        target = np.random.default_rng(seed).standard_normal((4, 5))

        def f_tts(*_):
            enc = tts.encode([[3, 5]])
            fb = tts.forward_teacher(enc, [target])
            return (fb.refined.abs().sum() + fb.coarse.abs().sum()
                    + T.sigmoid(fb.eos_logits).sum())

        # default h here: the TTS loss has |.| terms, and a 1e-4 step can
        # straddle their kinks
        err = grad_check(f_tts, tts.parameters(), max_coords=2,
                         rng=seed, atol=1e-7)
        worst = max(worst, err)
        if err >= 1e-5:
            failures.append(f"tts@seed{seed}: {err:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _verdict("A1 gradient suite", ok,
             f"worst rel err {worst:.2e} (< 1e-5) over 20 seeds, "
             f"{elapsed:.0f}s (< 120s)")
    assert not failures, failures[:5]
    assert elapsed < 120.0


# -- A2: CTC against brute force -------------------------------------------------


def _collapse(path, blank=0):
    out, prev = [], None
    for p in path:
        if p != prev and p != blank:
            out.append(p)
        prev = p
    return out


def _brute_ctc(u, target, blank=0):
    """Sum over every length-T path whose collapse equals the target,
    in extended precision."""
    n, v = u.shape
    total = mp.mpf(0)
    for path in itertools.product(range(v), repeat=n):
        if _collapse(path, blank) == list(target):
            total += mp.e ** mp.fsum(mp.mpf(float(u[t, k]))
                                     for t, k in enumerate(path))
    return float(mp.log(total))


def test_a02_ctc_brute_force_oracle():
    worst_full = worst_chain = 0.0
    for case in range(100):
        rng = np.random.default_rng(40_000 + case)
        n = int(rng.integers(1, 7))       # frames T <= 6
        v = int(rng.integers(2, 5))       # vocab with blank, V <= 4
        while True:
            m = int(rng.integers(0, 4))   # target length <= 3
            target = [int(rng.integers(1, v)) for _ in range(m)]
            if ctc_min_frames(target) <= n:
                break
        u = T.log_softmax(Tensor(rng.standard_normal((n, v)))).data
        want = _brute_ctc(u, target)
        # one utterance, a batch of one: (1, T, V) rows, (T, 1, V) frames
        got = ctc_log_likelihood(Tensor(u[None]), [target], [len(u)]).item()
        worst_full = max(worst_full, abs(got - want))

        scorer = CtcPrefixScorer(u[:, None], [len(u)])
        state = scorer.initial_state()
        for tok in target:
            state = scorer.extend(state, [0]).select([0], [tok])
        worst_chain = max(worst_chain,
                          abs(scorer.finish(state, [0])[0] - want))
    ok = worst_full < 1e-9 and worst_chain < 1e-9
    _verdict("A2 CTC oracle", ok,
             f"100 cases, forward vs enumeration {worst_full:.2e}, "
             f"prefix chain {worst_chain:.2e} (< 1e-9)")
    assert worst_full < 1e-9
    assert worst_chain < 1e-9


# -- A3: decoder causality --------------------------------------------------------


def test_a03_decoder_causality():
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        cfg = ModelConfig(task="asr", vocab_size=7, feat_dim=5, e=1,
                          d=int(rng.integers(1, 3)), d_att=8, d_ff=16,
                          d_head=int(rng.integers(1, 3)), dropout_rate=0.0,
                          alpha=0.5, seed=seed,
                          normalize=str(rng.choice(["pre", "post", "none"])))
        model = S2SModel(cfg)
        model.eval()
        enc = model.encode(Tensor(np.random.default_rng(100 + seed)
                                  .standard_normal((1, 12, 5))), [12])
        ys = [SOS_EOS_ID] + [int(rng.integers(3, 7)) for _ in range(6)]
        full = model.decode_logprobs(enc, [ys]).data[0].copy()
        t = int(rng.integers(0, 6))
        pert = list(ys)
        for j in range(t + 1, len(ys)):
            # guaranteed-different replacement token
            pert[j] = 3 + (ys[j] - 3 + 1 + int(rng.integers(0, 3))) % 4
        out = model.decode_logprobs(enc, [pert]).data[0]
        if not np.array_equal(full[:t + 1], out[:t + 1]):
            failures.append(f"seed{seed} t={t}")
    ok = not failures
    _verdict("A3 decoder causality", ok,
             "outputs at steps <= t bit-identical under perturbation of "
             "inputs > t, 20 random models")
    assert not failures, failures


# -- A4: beam search against exhaustive enumeration -------------------------------


def test_a04_beam_search_oracle():
    argmax_fail, mono_fail = [], []
    for seed in range(20):
        model = tiny_model(seed)  # vocab of 5: blank, unk, eos, two tokens
        cfg = BeamConfig(beam_size=256, lam=0.7, gamma=0.0, max_len_ratio=1.0)
        x = np.random.default_rng(3000 + seed).standard_normal((16, 6))
        with T.Graph(seed=0):
            enc = model.encode(*pad_sequences([x]))
            assert enc.n_sub[0] == 4  # so the length budget is max_len = 4
            out = batch_beam_search(enc, model, config=cfg)[0]
            want_comb, want_toks = enumerate_best(
                enc, model, None, cfg, enc.n_sub[0], expand=(1, 3, 4))
            if (out.best.tokens != want_toks
                    or abs(out.best.combined - want_comb) >= 1e-9):
                argmax_fail.append(f"seed{seed}")
            # an unfinished fallback lacks the eos and CTC-finish terms, so
            # its score is not comparable; the sweep only chains finished runs
            best = -np.inf
            for width in (1, 2, 4, 8):
                cfg_w = BeamConfig(beam_size=width, lam=0.7, gamma=0.0,
                                   max_len_ratio=1.0)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    res = batch_beam_search(enc, model, config=cfg_w)[0]
                if not res.stats.finished:
                    continue
                if res.best.combined < best - 1e-12:
                    mono_fail.append(f"seed{seed} width{width}")
                best = max(best, res.best.combined)
    ok = not argmax_fail and not mono_fail
    _verdict("A4 beam search oracle", ok,
             "full-frontier beam equals exhaustive argmax on 20 models; "
             "best score nondecreasing over widths 1,2,4,8")
    assert not argmax_fail, argmax_fail
    assert not mono_fail, mono_fail


# -- A5: gradient accumulation -----------------------------------------------------


def _accum_utts(kind: str, n=4):
    rng = np.random.default_rng(77)
    utts = []
    for i in range(n):
        toks = [int(rng.integers(3, 6)) for _ in range(int(rng.integers(2, 5)))]
        if kind == "asr":
            frames = 4 * (2 * len(toks) + 2)  # CTC-feasible after subsampling
            feats = rng.standard_normal((frames, 8))
        else:
            feats = rng.standard_normal((int(rng.integers(6, 11)), 6))
        utts.append(Utterance(f"u{i}", feats, toks))
    return utts


def _loss_closures(model, utts, split):
    # each group as one padded batch, normalized by the counts of all
    return [lambda group=utts[lo:hi]: batch_loss(model, group, utts)[0]
            for lo, hi in split]


def test_a05_accumulation_equivalence():
    details = []
    ok = True
    for kind in ("asr", "tts"):
        if kind == "asr":
            cfg = ModelConfig(task="asr", vocab_size=6, feat_dim=8, e=1, d=1,
                              d_att=16, d_ff=32, d_head=2, dropout_rate=0.0,
                              alpha=0.7, seed=11)
        else:
            cfg = ModelConfig(task="tts", vocab_size=6, feat_dim=6, e=1, d=1,
                              d_att=16, d_ff=32, d_head=2, dropout_rate=0.0,
                              alpha=1.0, reduction_factor=2, prenet_units=8,
                              postnet_layers=2, prenet_dropout_rate=0.0,
                              seed=12)
        big, micro = build_model(cfg), build_model(cfg)
        utts = _accum_utts(kind)
        with T.Graph(seed=0):
            loss_big = accumulate_gradients(
                big, _loss_closures(big, utts, [(0, 4)]))
        with T.Graph(seed=0):
            loss_micro = accumulate_gradients(
                micro, _loss_closures(micro, utts,
                                      [(0, 1), (1, 2), (2, 3), (3, 4)]))
        Adam(big.parameters()).step(lr=0.01)
        Adam(micro.parameters()).step(lr=0.01)
        loss_diff = abs(loss_big - loss_micro)
        param_diff = max(float(np.max(np.abs(pa.data - pb.data)))
                         for pa, pb in zip(big.parameters(),
                                           micro.parameters()))
        ok = ok and loss_diff < 1e-10 and param_diff < 1e-10
        details.append(f"{kind} loss {loss_diff:.1e} params {param_diff:.1e}")
    _verdict("A5 accumulation equivalence", ok,
             "; ".join(details) + " (< 1e-10)")
    assert ok, details


# -- A6: toy ASR convergence -------------------------------------------------------


def test_a06_toy_asr_convergence(transformer_asr_run, rnn_asr_run):
    tr, rn = transformer_asr_run, rnn_asr_run
    m = tr["cfg"].model
    assert (m.e, m.d, m.d_att, m.d_ff, m.d_head) == (2, 2, 64, 256, 2)
    rm = rn["cfg"].model
    assert rm.body == "rnn" and (rm.e, rm.d) == (2, 1)
    assert tr["cfg"].train.epochs <= 15 and rn["cfg"].train.epochs <= 15

    avg_tr = _averaged_model(tr)
    cer_tr = _beam_cer(avg_tr, tr["splits"]["test"], tr["vocab"],
                       tr["cfg"].beam)
    cer_rnn = _beam_cer(_averaged_model(rn), rn["splits"]["test"],
                        rn["vocab"], rn["cfg"].beam)
    avg_dev = evaluate_dev(avg_tr, tr["splits"]["dev"])
    final_dev = tr["result"].dev_losses[-1]
    ok = (cer_tr < 0.05 and cer_rnn < 0.10
          and tr["wall"] < 600.0 and rn["wall"] < 600.0
          and avg_dev <= final_dev + 1e-3)
    _verdict("A6 toy ASR convergence", ok,
             f"transformer CER {cer_tr:.3f} (< 0.05) in {tr['wall']:.0f}s, "
             f"rnn CER {cer_rnn:.3f} (< 0.10) in {rn['wall']:.0f}s, "
             f"averaged dev {avg_dev:.4f} <= final {final_dev:.4f} + 1e-3")
    assert cer_tr < 0.05
    assert cer_rnn < 0.10
    assert tr["wall"] < 600.0 and rn["wall"] < 600.0
    assert avg_dev <= final_dev + 1e-3


# -- A7: toy ST without CTC --------------------------------------------------------


def test_a07_toy_st_pure_attention(tmp_path):
    # the target order is not monotone in the source, so a CTC branch is
    # structurally wrong and must be refused up front
    with pytest.raises(ConfigError):
        ModelConfig(task="st", vocab_size=8, feat_dim=16, alpha=0.7).validate()

    cfg = experiment_from_items({"preset": "transformer-toy", "task": "st",
                                 "alpha": "1.0", "epochs": "30"})
    # the swap rule has to generalize to unseen sequences, which needs
    # more pattern coverage than the memorizable recognition corpus
    spec = ToySpec(task="st", n_train=600, seed=0)
    splits = gen_toy(spec)
    vocab = toy_vocab(spec)
    cfg.model.vocab_size = len(vocab)
    cfg.model.feat_dim = int(splits["train"][0].feats.shape[1])
    model = build_model(cfg.model)
    result = train_loop(model, splits["train"], splits["dev"], cfg.train,
                        str(tmp_path))
    load_into_model(model, load_checkpoint(result.avg_path))
    model.eval()

    bcfg = BeamConfig(beam_size=8, lam=1.0, gamma=0.0, max_len_ratio=1.5)
    refs, hyps = [], []
    for u in splits["test"]:
        with T.no_grad(), T.Graph(seed=0):
            enc = model.encode(*pad_sequences([u.feats]))
            out = batch_beam_search(enc, model, config=bcfg)[0]
        hyps.append(" ".join(vocab.decode(out.best.tokens)))
        refs.append(" ".join(vocab.decode(u.tokens)))
    acc = 1.0 - wer(refs, hyps)
    ok = acc > 0.9
    _verdict("A7 toy ST pure attention", ok,
             f"token accuracy {acc:.3f} (> 0.9); CTC on the reordering "
             f"task rejected by validation")
    assert acc > 0.9


# -- A8: toy TTS -------------------------------------------------------------------


def _tts_dev_l1_guided(model, dev):
    """Dev L1 summed with per-element normalization, plus mean guided
    attention over the selected heads."""
    model.eval()
    with T.no_grad(), T.Graph(seed=0):     # the split as one padded batch
        parts = batch_loss(model, dev, dev)[1]
    return parts["l1"], parts["guided"]


def test_a08_toy_tts_convergence(tmp_path):
    cfg = experiment_from_items({"preset": "tts-toy"})
    assert cfg.train.epochs == 20
    spec = ToySpec(task="tts", n_train=100, seed=0)
    splits = gen_toy(spec)
    vocab = toy_vocab(spec)
    cfg.model.vocab_size = len(vocab)
    cfg.model.feat_dim = int(splits["train"][0].feats.shape[1])

    model = build_model(cfg.model)
    _, guided_0 = _tts_dev_l1_guided(model, splits["dev"])
    result = train_loop(model, splits["train"], splits["dev"], cfg.train,
                        str(tmp_path))

    probe = build_model(cfg.model)
    l1_trace = []
    for path in result.ckpt_paths[:5]:
        load_into_model(probe, load_checkpoint(path))
        l1_trace.append(_tts_dev_l1_guided(probe, splits["dev"])[0])
    violations = sum(1 for i in range(1, 5)
                     if l1_trace[i] >= l1_trace[i - 1])

    _, guided_final = _tts_dev_l1_guided(model, splits["dev"])
    model.eval()
    reasons = [model.infer(list(u.tokens), eos_threshold=0.5,
                           max_frames=200, seed=0)[1]
               for u in splits["test"]]
    eos_rate = sum(r == "eos" for r in reasons) / len(reasons)

    ok = (violations <= 1 and guided_final < 0.5 * guided_0
          and eos_rate >= 0.8)
    _verdict("A8 toy TTS convergence", ok,
             f"dev L1 first five epochs {[round(v, 4) for v in l1_trace]} "
             f"({violations} violation(s), <= 1 allowed); guided "
             f"{guided_final:.4f} < half of initial {guided_0:.4f}; "
             f"EOS stop rate {eos_rate:.2f} (>= 0.8 at threshold 0.5)")
    assert violations <= 1
    assert guided_final < 0.5 * guided_0
    assert eos_rate >= 0.8


# -- A9: metric spot checks --------------------------------------------------------

# hand-traced word and character rates for fixed ref/hyp pairs
RATE_CASES = [
    ("a b c", "a b c", 0.0, 0.0),
    ("a b c", "a x c", 1 / 3, 1 / 3),
    ("a b c", "a c", 1 / 3, 1 / 3),
    ("a b", "a x b", 1 / 2, 1 / 2),
    ("a", "", 1.0, 1.0),
    ("a b c d", "d c b a", 1.0, 1.0),
    ("the cat sat", "the cat sag", 1 / 3, 1 / 9),
    ("ab b", "a bb", 1.0, 0.0),        # same letters, different word cuts
    ("x y z w", "y z w", 1 / 4, 1 / 4),
    ("a b a b", "b a b a b", 1 / 4, 1 / 4),
]


def test_a09_metric_spot_checks():
    worst = 0.0
    for ref, hyp, want_w, want_c in RATE_CASES:
        worst = max(worst, abs(wer([ref], [hyp]) - want_w))
        worst = max(worst, abs(cer([ref], [hyp]) - want_c))

    sent = "the cat sat on the mat".split()
    exact = bleu([sent], [sent])
    exact_str = bleu(["a b c d e"], ["a b c d e"])

    peak_ok = True
    for warmup in (50, 100, 2000):
        lrs = [noam_lr(s, 64, warmup) for s in range(1, 10 * warmup + 1)]
        peak_ok = peak_ok and int(np.argmax(lrs)) + 1 == warmup

    ok = worst < 1e-12 and exact == 1.0 and exact_str == 1.0 and peak_ok
    _verdict("A9 metric spot checks", ok,
             f"10 hand-traced WER/CER pairs (worst {worst:.1e}), "
             f"BLEU(hyp=ref) = {exact}, schedule peak lands on the "
             f"warmup step")
    assert worst < 1e-12
    assert exact == 1.0 and exact_str == 1.0
    assert peak_ok


# -- A10: determinism --------------------------------------------------------------


def test_a10_training_determinism(transformer_asr_run, tmp_path):
    rerun = _run_toy_asr("transformer-toy", tmp_path / "rerun")
    a_dir = Path(transformer_asr_run["out"])
    b_dir = Path(rerun["out"])
    names_a = sorted(p.name for p in a_dir.iterdir())
    names_b = sorted(p.name for p in b_dir.iterdir())
    diffs = []
    if names_a != names_b:
        diffs.append(f"file sets differ: {names_a} vs {names_b}")
    else:
        diffs = [n for n in names_a
                 if (a_dir / n).read_bytes() != (b_dir / n).read_bytes()]
    ok = not diffs
    _verdict("A10 training determinism", ok,
             f"{len(names_a)} artifacts (log + checkpoints) byte-identical "
             f"across two full runs" if ok else f"differing: {diffs}")
    assert not diffs, diffs
