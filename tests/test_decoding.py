"""Beam-search and prefix-scoring tests.

The central check is exhaustive equivalence: with a wide enough beam,
the search must return exactly the sequence an explicit enumeration of
every candidate ranks first, on many random models. The enumeration and
a reference beam score from independent oracles: full-prefix decoder
and LM rows and a scalar single-token CTC chain, none of which the
incremental search uses.
"""

import functools
import itertools
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minis2s import tensor as T
from minis2s.decoding import (BOUND_MARGIN, BeamConfig, BeamResult,
                              CtcPrefixScorer, CtcPrefixState, Hypothesis,
                              batch_beam_search, combined_score,
                              rank_hypotheses)
from minis2s.errors import (ConfigError, DataError, DimensionError,
                            ImpossibleAlignmentError)
from minis2s.losses import ctc_log_likelihood, ctc_min_frames
from minis2s.models import (EncodedSequence, ModelConfig, build_model,
                            pad_sequences)
from minis2s.reserved import BLANK_ID, SOS_EOS_ID
from minis2s.tensor import Tensor


def rand_logprobs(seed, t, v):
    """One utterance's (t, v) CTC posteriors; the scorer takes them as a
    batch of one, u[:, None]."""
    rng = np.random.default_rng(seed)
    return T.log_softmax(Tensor(rng.standard_normal((t, v)))).data


def tiny_model(seed, vocab=5, feat=6, alpha=0.5):
    cfg = ModelConfig(task="asr", vocab_size=vocab, feat_dim=feat,
                      e=1, d=1, d_att=8, d_ff=16, d_head=2,
                      dropout_rate=0.0, alpha=alpha, seed=seed)
    return build_model(cfg)


def tiny_lm(vocab, d_att, seed):
    return build_model(ModelConfig(task="lm", vocab_size=vocab, d_att=d_att,
                                   seed=seed))


class TableState:
    def __init__(self, pos):
        self.pos = pos

    def select(self, rows):
        return TableState(self.pos)


class TableModel:
    """Stand-in model whose next-token distribution depends only on the
    prefix length; lets tests pin the argmax path exactly."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.config = types.SimpleNamespace(
            vocab_size=self.rows.shape[1], uses_ctc=False)

    def init_state(self, enc):
        return TableState(0)

    def step(self, state, last_tokens):
        row = self.rows[min(state.pos, len(self.rows) - 1)]
        row = row - np.log(np.exp(row).sum())
        return np.tile(row, (len(last_tokens), 1)), TableState(state.pos + 1)


def table_enc(n_sub, d=4):
    """An encoded batch of one utterance of n_sub frames."""
    return EncodedSequence(x_e=Tensor(np.zeros((1, n_sub, d))),
                           n_sub=np.array([n_sub]))


def encode_one(model, x):
    """The encoding of one utterance's (n, feat_dim) frames, a batch of
    one."""
    return model.encode(*pad_sequences([x]))


def join(encs):
    """Encoded batches of one utterance each as one padded batch."""
    x_e, n_sub = pad_sequences([enc.x_e.data[0, :enc.n_sub[0]]
                                for enc in encs])
    return EncodedSequence(x_e=x_e, n_sub=n_sub)


class CtcTableModel(TableModel):
    """TableModel with a CTC head: an encoding's x_e, (B, n_sub, V),
    log-normalized, is its CTC posteriors, so every prefix longer than
    its frames allow scores -inf. decode_logprobs gives the step rows
    of a batch of one for the full-prefix oracle."""

    def __init__(self, rows):
        super().__init__(rows)
        self.config.uses_ctc = True

    def ctc_logprobs(self, enc):
        return T.log_softmax(enc.x_e)

    def decode_logprobs(self, enc, ys_in):
        (ys,) = ys_in
        state, rows = self.init_state(enc), []
        for tok in ys:
            row, state = self.step(state, [tok])
            rows.append(row[0])
        return Tensor(np.array([rows]))


def ctc_table_enc(n_sub, vocab, seed, scale=1.0):
    """n_sub frames of CTC logits, the more peaked the larger scale."""
    x = np.random.default_rng(seed).standard_normal((n_sub, vocab)) * scale
    return EncodedSequence(x_e=Tensor(x[None]), n_sub=np.array([n_sub]))


# -- oracles ---------------------------------------------------------------------


def s2s_row(model, enc, prefix):
    """Full-prefix decoder oracle: the last row of decode_logprobs."""
    with T.no_grad():
        return model.decode_logprobs(enc,
                                     [[SOS_EOS_ID] + list(prefix)]).data[0, -1]


def lm_row(lm, prefix):
    """Full-prefix LM oracle: the last row of full_logprobs."""
    with T.no_grad():
        return lm.full_logprobs([[SOS_EOS_ID] + list(prefix)]).data[0, -1]


def scalar_extend(u, r_n_prev, r_b_prev, last, token):
    """One-label CTC prefix extension, one frame and one label at a time
    (last is None for the empty prefix); returns (psi, r_n, r_b)."""
    n = u.shape[0]
    r_n = np.full(n, -np.inf)
    r_b = np.full(n, -np.inf)
    terms = np.full(n, -np.inf)
    for t in range(n):
        if t == 0:
            phi = 0.0 if last is None else -np.inf
            prev_n = prev_b = -np.inf
        else:
            phi = r_b_prev[t - 1]
            if token != last:
                phi = np.logaddexp(phi, r_n_prev[t - 1])
            prev_n, prev_b = r_n[t - 1], r_b[t - 1]
        r_n[t] = np.logaddexp(prev_n, phi) + u[t, token]
        r_b[t] = np.logaddexp(prev_b, r_n[t - 1] if t else -np.inf) \
            + u[t, BLANK_ID]
        terms[t] = phi + u[t, token]
    m = terms.max()
    psi = float(m + np.log(np.exp(terms - m).sum())) if np.isfinite(m) \
        else -np.inf
    return psi, r_n, r_b


def scalar_chain(u, labels):
    """The scalar extension chained over labels: (psi, r_n, r_b, last)."""
    r_n = np.full(u.shape[0], -np.inf)
    r_b = np.cumsum(u[:, BLANK_ID])
    psi, last = 0.0, None
    for tok in labels:
        psi, r_n, r_b = scalar_extend(u, r_n, r_b, last, tok)
        last = tok
    return psi, r_n, r_b, last


def chain_score(u, labels):
    """Scalar-chain CTC oracle: (prefix score, complete-labeling score)."""
    psi, r_n, r_b, _ = scalar_chain(u, labels)
    return psi, float(np.logaddexp(r_n[-1], r_b[-1]))


def scorer_chain(scorer, labels):
    """The vectorised scorer driven one label at a time."""
    state = scorer.initial_state()
    psi = 0.0
    for tok in labels:
        ext = scorer.extend(state, [0])
        psi = float(ext.psi[0, tok])
        state = ext.select([0], [tok])
    return psi, state


# -- CTC prefix scorer ---------------------------------------------------------


def test_prefix_score_single_frame():
    u = rand_logprobs(0, 1, 4)
    psi, _ = scorer_chain(CtcPrefixScorer(u[:, None], [len(u)]), [2])
    assert abs(psi - u[0, 2]) < 1e-12


def test_prefix_scorer_rejects_a_single_utterance_layout():
    # one utterance is a batch of one, (frames, 1, V); its bare (frames, V)
    # posteriors name the shape the scorer expects
    with pytest.raises(DimensionError, match=r"\(frames, utterances, vocab\)"):
        CtcPrefixScorer(rand_logprobs(0, 3, 4), [3])


def test_prefix_finish_empty_is_all_blank():
    u = rand_logprobs(1, 5, 3)
    scorer = CtcPrefixScorer(u[:, None], [len(u)])
    assert abs(scorer.finish(scorer.initial_state(), [0])[0]
               - u[:, 0].sum()) < 1e-12


@pytest.mark.parametrize("seed", range(50))
def test_prefix_chain_matches_full_ctc(seed):
    rng = np.random.default_rng(100 + seed)
    n, v = int(rng.integers(3, 7)), int(rng.integers(3, 6))
    u = rand_logprobs(200 + seed, n, v)
    while True:
        length = int(rng.integers(0, 4))
        target = [int(rng.integers(1, v)) for _ in range(length)]
        if ctc_min_frames(target) <= n:
            break
    scorer = CtcPrefixScorer(u[:, None], [len(u)])
    _, state = scorer_chain(scorer, target)
    got = scorer.finish(state, [0])[0]
    want = ctc_log_likelihood(Tensor(u[None]), [target], [len(u)]).item()
    assert abs(got - want) < 1e-9


def test_prefix_impossible_goes_neg_inf_without_nan():
    u = rand_logprobs(2, 2, 4)
    scorer = CtcPrefixScorer(u[:, None], [len(u)])
    state = scorer.initial_state()
    psis = []
    for tok in [1, 2, 3]:
        ext = scorer.extend(state, [0])
        assert not np.any(np.isnan(ext.psi))
        psis.append(ext.psi[0, tok])
        state = ext.select([0], [tok])
    assert np.isneginf(psis[-1])
    assert not np.any(np.isnan(state.r_n)) and not np.any(np.isnan(state.r_b))


def test_prefix_blank_column_is_impossible():
    scorer = CtcPrefixScorer(rand_logprobs(3, 3, 4)[:, None], [3])
    ext = scorer.extend(scorer.initial_state(), [0])
    assert np.isneginf(ext.psi[:, 0]).all()
    assert np.isfinite(ext.psi[:, 1:]).all()


def test_prefix_scores_decrease_monotonically():
    u = rand_logprobs(4, 6, 5)
    scorer = CtcPrefixScorer(u[:, None], [len(u)])
    prev = 0.0
    for n in range(1, 4):
        psi, _ = scorer_chain(scorer, [1, 3, 4][:n])
        assert psi <= prev + 1e-12
        prev = psi


@pytest.mark.parametrize("seed", range(12))
def test_vectorised_extend_matches_scalar_chain(seed):
    # a batch of prefixes, among them the empty one, repeated last labels
    # and prefixes too long for the frames; every (prefix, label) cell
    # against the scalar one-label oracle
    rng = np.random.default_rng(500 + seed)
    n, v = int(rng.integers(1, 7)), int(rng.integers(3, 6))
    u = rand_logprobs(600 + seed, n, v)
    prefixes = [[]]
    for _ in range(5):
        length = int(rng.integers(1, 5))
        p = [int(rng.integers(1, v)) for _ in range(length)]
        prefixes.append(p + p[-1:])          # ends on a repeat
        prefixes.append(p)
    prefixes.append([1] * (n + 1))           # needs 2n + 1 frames
    scorer = CtcPrefixScorer(u[:, None], [len(u)])
    states = [scorer_chain(scorer, p)[1] for p in prefixes]
    batch = CtcPrefixState(
        r_n=np.concatenate([s.r_n for s in states], axis=1),
        r_b=np.concatenate([s.r_b for s in states], axis=1),
        last=np.concatenate([s.last for s in states]))
    utt = np.zeros(len(prefixes), dtype=np.int64)
    ext = scorer.extend(batch, utt)
    assert ext.psi.shape == (len(prefixes), v)
    assert not np.isnan(ext.psi).any()
    assert not np.isnan(ext.r_n).any() and not np.isnan(ext.r_b).any()
    assert np.isneginf(ext.psi[-1]).all()
    for b, p in enumerate(prefixes):
        _, r_n, r_b, last = scalar_chain(u, p)
        want_finish = np.logaddexp(r_n[-1], r_b[-1])
        got_finish = scorer.finish(batch, utt)[b]
        assert np.isneginf(got_finish) == np.isneginf(want_finish)
        if np.isfinite(want_finish):
            assert abs(got_finish - want_finish) < 1e-9
        for tok in range(1, v):
            psi, want_n, want_b = scalar_extend(u, r_n, r_b, last, tok)
            for got, want in ((ext.psi[b, tok], psi),
                              (ext.r_n[:, b, tok], want_n),
                              (ext.r_b[:, b, tok], want_b)):
                got, want = np.asarray(got), np.asarray(want)
                np.testing.assert_array_equal(np.isneginf(got),
                                              np.isneginf(want))
                fin = np.isfinite(want)
                assert np.abs(got[fin] - want[fin]).max(initial=0.0) < 1e-9


def test_extension_select_repeats_and_reorders_rows():
    u = rand_logprobs(7, 5, 5)
    scorer = CtcPrefixScorer(u[:, None], [len(u)])
    ext = scorer.extend(scorer.initial_state(), [0])
    state = ext.select([0, 0, 0], [3, 1, 3])
    ext2 = scorer.extend(state, [0, 0, 0])
    np.testing.assert_array_equal(ext2.psi[0], ext2.psi[2])
    for b, first in enumerate([3, 1, 3]):
        for tok in (1, 3, 4):
            want, _ = chain_score(u, [first, tok])
            assert abs(ext2.psi[b, tok] - want) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_padded_extend_and_finish_match_scalar_oracle(seed):
    # three utterances of different frame counts padded to the longest,
    # NaN in the padding; prefixes of every utterance in one batch, each
    # against the scalar oracle over its own utterance's frames only
    rng = np.random.default_rng(700 + seed)
    v = int(rng.integers(3, 6))
    lengths = [int(n) for n in rng.permutation([2, 5, 7])]
    us = [rand_logprobs(800 + 10 * seed + i, n, v)
          for i, n in enumerate(lengths)]
    padded = np.full((max(lengths), len(us), v), np.nan)
    for i, u in enumerate(us):
        padded[:len(u), i] = u
    scorer = CtcPrefixScorer(padded, lengths)
    start = scorer.initial_state()
    cases = []                               # (utterance, prefix)
    for i in (2, 0, 1, 0):
        cases.append((i, []))
        p = [int(rng.integers(1, v)) for _ in range(int(rng.integers(1, 4)))]
        cases += [(i, p), (i, p + p[-1:])]
    cases.append((1, [1] * 5))               # too long for its frames
    states = []
    for i, p in cases:
        state = CtcPrefixState(r_n=start.r_n[:, [i]], r_b=start.r_b[:, [i]],
                               last=start.last[[i]])
        for tok in p:
            state = scorer.extend(state, [i]).select([0], [tok])
        states.append(state)
    # a state of one utterance's prefixes holds only that utterance's
    # frames; -inf fills the rest of the batch's frames
    n_max = max(lengths)

    def frames(r):
        return np.pad(r, ((0, n_max - len(r)), (0, 0)),
                      constant_values=-np.inf)

    batch = CtcPrefixState(
        *(np.concatenate([frames(getattr(s, f)) for s in states], axis=-1)
          for f in ("r_n", "r_b")),
        np.concatenate([s.last for s in states]))
    utt = [i for i, _ in cases]
    assert all(len(s.r_n) == lengths[i] for s, (i, p) in zip(states, cases)
               if p)
    ext = scorer.extend(batch, utt)
    finish = scorer.finish(batch, utt)
    for arr in (ext.psi, ext.r_n, ext.r_b, finish):
        assert not np.isnan(arr).any()
    for b, (i, p) in enumerate(cases):
        u, n = us[i], lengths[i]
        _, r_n, r_b, last = scalar_chain(u, p)
        want_finish = np.logaddexp(r_n[-1], r_b[-1])
        assert np.isneginf(finish[b]) == np.isneginf(want_finish)
        if np.isfinite(want_finish):
            assert abs(finish[b] - want_finish) < 1e-9
        assert np.isneginf(ext.psi[b, BLANK_ID])
        for tok in range(1, v):
            psi, want_n, want_b = scalar_extend(u, r_n, r_b, last, tok)
            for got, want in ((ext.psi[b, tok], psi),
                              (ext.r_n[:n, b, tok], want_n),
                              (ext.r_b[:n, b, tok], want_b)):
                got, want = np.asarray(got), np.asarray(want)
                np.testing.assert_array_equal(np.isneginf(got),
                                              np.isneginf(want))
                fin = np.isfinite(want)
                assert np.abs(got[fin] - want[fin]).max(initial=0.0) < 1e-9


# -- ranking and scores ---------------------------------------------------------


def test_rank_prefers_higher_score_then_shorter_then_lexicographic():
    a = Hypothesis(prefix=(SOS_EOS_ID, 3), combined=-1.0)
    b = Hypothesis(prefix=(SOS_EOS_ID, 1, 1), combined=-0.5)
    c = Hypothesis(prefix=(SOS_EOS_ID, 4, 4), combined=-0.5)
    d = Hypothesis(prefix=(SOS_EOS_ID, 4), combined=-0.5)
    order = rank_hypotheses([a, b, c, d])
    assert [h.tokens for h in order] == [(4,), (1, 1), (4, 4), (3,)]


def test_combined_zero_weight_kills_infinite_term():
    cfg = BeamConfig(lam=1.0, gamma=0.0)
    got = combined_score(-2.5, -np.inf, -np.inf, cfg, use_ctc=True)
    assert got == -2.5


def test_combined_recomputable_from_parts():
    cfg = BeamConfig(lam=0.7, gamma=0.3)
    model = tiny_model(5)
    lm = tiny_lm(5, 8, 1)
    x = np.random.default_rng(6).standard_normal((16, 6))
    with T.Graph(seed=0):
        enc = encode_one(model, x)
        out = batch_beam_search(enc, model, lm=lm, config=cfg)[0]
    for hyp in out.nbest:
        want = 0.7 * hyp.log_s2s + 0.3 * hyp.log_ctc + 0.3 * hyp.log_lm
        assert abs(hyp.combined - want) < 1e-12


def test_beam_config_validation():
    with pytest.raises(ConfigError):
        BeamConfig(beam_size=0).validate()
    with pytest.raises(ConfigError):
        BeamConfig(lam=1.5).validate()
    with pytest.raises(ConfigError):
        BeamConfig(max_len_ratio=0.0).validate()


# -- beam search ----------------------------------------------------------------


def rank_key(comb, toks, cfg):
    """rank_hypotheses' order: length-penalized score, length, tokens."""
    return (-(comb + cfg.length_penalty * len(toks)), len(toks), toks)


def enumerate_best(enc, model, lm, cfg, max_len, expand):
    return enumerate_ranked(enc, model, lm, cfg, max_len, expand)[0]


def enumerate_ranked(enc, model, lm, cfg, max_len, expand):
    """Explicit scoring of every candidate ending in eos within budget,
    from the full-prefix decoder and LM rows and the scalar CTC chain;
    (combined, tokens) pairs, best first."""
    u = model.ctc_logprobs(enc).data[0] if model.config.uses_ctc else None
    rows = []
    for length in range(max_len):
        for toks in itertools.product(expand, repeat=length):
            s2s = 0.0
            lmp = 0.0
            for i in range(length + 1):
                prefix = list(toks[:i])
                step = toks[i] if i < length else SOS_EOS_ID
                s2s += float(s2s_row(model, enc, prefix)[step])
                if lm is not None and cfg.gamma:
                    lmp += float(lm_row(lm, prefix)[step])
            ctc = chain_score(u, toks)[1] if u is not None else 0.0
            comb = combined_score(s2s, ctc, lmp, cfg,
                                  model.config.uses_ctc)
            rows.append((comb, toks))
    rows.sort(key=lambda r: rank_key(*r, cfg))
    return rows


def reference_beam(enc, model, lm, cfg):
    """The beam one hypothesis and one token at a time, scored from the
    oracles, stepping until nothing is live or the budget is spent.
    Returns the ranked n-best as (tokens, combined) pairs, and the step
    at which the search may stop: the first at which, with gamma >= 0,
    beam_size hypotheses are finished and every live one's bound (its
    rank plus max(length_penalty, 0) per token it may still add) is -inf
    or BOUND_MARGIN below the beam_size-th finished rank score; else the
    step at which nothing was live or the budget ran out."""
    vocab = model.config.vocab_size
    use_ctc = model.config.uses_ctc
    use_lm = lm is not None and cfg.gamma != 0.0
    u = model.ctc_logprobs(enc).data[0] if use_ctc else None
    max_len = int(np.ceil(cfg.max_len_ratio * enc.n_sub[0]))
    live = [((), 0.0, 0.0, 0.0)]                  # (tokens, s2s, lm, comb)
    finished = []
    stop = None
    for step in range(max_len):
        cands = []
        for toks, s2s, lmp, _ in live:
            row = s2s_row(model, enc, toks)
            lrow = lm_row(lm, toks) if use_lm else None
            for tok in range(vocab):
                if tok == BLANK_ID:
                    continue
                new_s2s = s2s + float(row[tok])
                new_lm = lmp + float(lrow[tok]) if use_lm else 0.0
                done = tok == SOS_EOS_ID
                new_toks = toks if done else toks + (tok,)
                ctc = 0.0
                if use_ctc:
                    psi, fin = chain_score(u, new_toks)
                    ctc = fin if done else psi
                comb = combined_score(new_s2s, ctc, new_lm, cfg, use_ctc)
                cands.append((comb, new_toks, done, new_s2s, new_lm))
        cands.sort(key=lambda c: rank_key(c[0], c[1], cfg))
        live = []
        for comb, toks, done, s2s, lmp in cands[:cfg.beam_size]:
            if done:
                finished.append((toks, comb))
            else:
                live.append((toks, s2s, lmp, comb))
        if stop is None and cfg.gamma >= 0 \
                and len(finished) >= cfg.beam_size:
            kth = -sorted(rank_key(comb, toks, cfg)[0]
                          for toks, comb in finished)[cfg.beam_size - 1]
            lp = cfg.length_penalty
            if all(comb == -np.inf or comb + lp * len(toks)
                   + max(lp, 0.0) * (max_len - 1 - len(toks))
                   < kth - BOUND_MARGIN for toks, _, _, comb in live):
                stop = step
        if not live:
            break
    finished.sort(key=lambda f: rank_key(f[1], f[0], cfg))
    return finished[:cfg.beam_size], step if stop is None else stop


@pytest.mark.parametrize("seed", range(20))
def test_beam_matches_exhaustive_enumeration(seed):
    model = tiny_model(seed)
    cfg = BeamConfig(beam_size=256, lam=0.7, gamma=0.0, max_len_ratio=1.0)
    x = np.random.default_rng(1000 + seed).standard_normal((16, 6))
    with T.Graph(seed=0):
        enc = encode_one(model, x)
        out = batch_beam_search(enc, model, config=cfg)[0]
        want_comb, want_toks = enumerate_best(
            enc, model, None, cfg, enc.n_sub[0], expand=(1, 3, 4))
    assert out.best.tokens == want_toks
    assert abs(out.best.combined - want_comb) < 1e-9
    assert out.stats.finished


def test_beam_with_lm_matches_enumeration():
    model = tiny_model(99)
    lm = tiny_lm(5, 8, 3)
    cfg = BeamConfig(beam_size=256, lam=0.7, gamma=0.3)
    x = np.random.default_rng(7).standard_normal((16, 6))
    with T.Graph(seed=0):
        enc = encode_one(model, x)
        out = batch_beam_search(enc, model, lm=lm, config=cfg)[0]
        want_comb, want_toks = enumerate_best(
            enc, model, lm, cfg, enc.n_sub[0], expand=(1, 3, 4))
    assert out.best.tokens == want_toks
    assert abs(out.best.combined - want_comb) < 1e-9


def test_gamma_zero_ignores_lm():
    model = tiny_model(11)
    cfg = BeamConfig(beam_size=8, gamma=0.0)
    x = np.random.default_rng(8).standard_normal((12, 6))
    with T.Graph(seed=0):
        enc = encode_one(model, x)
        with_lm = batch_beam_search(enc, model, lm=tiny_lm(5, 8, 4),
                              config=cfg)[0]
        without = batch_beam_search(enc, model, lm=None, config=cfg)[0]
    assert with_lm.best.tokens == without.best.tokens
    assert with_lm.best.combined == without.best.combined


def test_wider_beam_never_scores_lower():
    model = tiny_model(21)
    x = np.random.default_rng(9).standard_normal((16, 6))
    with T.Graph(seed=0):
        enc = encode_one(model, x)
        best = -np.inf
        for beam in [1, 2, 4, 8]:
            cfg = BeamConfig(beam_size=beam, gamma=0.0)
            out = batch_beam_search(enc, model, config=cfg)[0]
            assert out.best.combined >= best - 1e-12
            best = max(best, out.best.combined)


def test_extension_never_raises_combined():
    # all per-step log terms are <= 0, so scores only fall with depth
    model = tiny_model(31)
    cfg = BeamConfig(beam_size=4, gamma=0.0)
    x = np.random.default_rng(10).standard_normal((12, 6))
    with T.Graph(seed=0):
        enc = encode_one(model, x)
        u = model.ctc_logprobs(enc).data[0]
        s2s = 0.0
        prev_comb = 0.0
        prefix = []
        for tok in [1, 3, 1]:
            s2s += float(s2s_row(model, enc, prefix)[tok])
            prefix.append(tok)
            ctc, _ = chain_score(u, prefix)
            comb = combined_score(s2s, ctc, 0.0, cfg, True)
            assert comb <= prev_comb + 1e-12
            prev_comb = comb


def _tiny_rnn_model(seed, vocab=5, feat=6, alpha=0.5):
    cfg = ModelConfig(task="asr", body="rnn", vocab_size=vocab, feat_dim=feat,
                      e=1, d=2, d_att=8, dropout_rate=0.0, alpha=alpha,
                      seed=seed)
    return build_model(cfg)


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("with_lm", [False, True])
@pytest.mark.parametrize("beam", [1, 2, 4, 8])
def test_beam_nbest_matches_reference_beam(body, with_lm, beam):
    for seed in range(3):
        model = (tiny_model(seed) if body == "transformer"
                 else _tiny_rnn_model(seed))
        model.eval()
        lm = tiny_lm(5, 8, 10 + seed) if with_lm else None
        cfg = BeamConfig(beam_size=beam, lam=0.6, gamma=0.4)
        x = np.random.default_rng(40 + seed).standard_normal((20, 6))
        with T.Graph(seed=0):
            enc = encode_one(model, x)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = batch_beam_search(enc, model, lm=lm, config=cfg)[0]
            want, _ = reference_beam(enc, model, lm, cfg)
        if not want:
            assert not out.stats.finished
            continue
        assert [h.tokens for h in out.nbest] == [w[0] for w in want]
        for hyp, (_, comb) in zip(out.nbest, want):
            assert abs(hyp.combined - comb) < 1e-9


def _encode_all(model, frame_counts, seed):
    rng = np.random.default_rng(seed)
    with T.no_grad(), T.Graph(seed=0):
        return [encode_one(model, rng.standard_normal((n, 6)))
                for n in frame_counts]


def _same_result(got, want):
    assert [h.tokens for h in got.nbest] == [h.tokens for h in want.nbest]
    for g, w in zip(got.nbest, want.nbest):
        for part in ("log_s2s", "log_ctc", "log_lm", "combined"):
            a, b = getattr(g, part), getattr(w, part)
            assert a == b or abs(a - b) < 1e-9
        assert g.finished == w.finished
    assert got.best.tokens == want.best.tokens
    assert got.stats == want.stats


@pytest.mark.parametrize("body", ["transformer", "rnn"])
@pytest.mark.parametrize("with_lm", [False, True])
def test_batched_search_equals_search_one_by_one(body, with_lm):
    # five utterances of 1 to 8 encoded frames, so of 1 to 8 steps'
    # budget, searched as one batch and one at a time; with and without a
    # CTC head, beams 1, 4 and 8
    frames = [13, 4, 30, 21, 7]
    ids = [f"utt{i}" for i in range(len(frames))]
    mixed = 0
    for alpha in (0.5, 1.0):
        for beam in (1, 4, 8):
            model = (tiny_model(7, vocab=10, alpha=alpha)
                     if body == "transformer"
                     else _tiny_rnn_model(7, vocab=10, alpha=alpha))
            model.eval()
            lm = tiny_lm(10, 8, 2) if with_lm else None
            cfg = BeamConfig(beam_size=beam, lam=0.6, gamma=0.4)
            encs = _encode_all(model, frames, seed=5)
            assert len({enc.n_sub[0] for enc in encs}) == len(frames)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                batched = batch_beam_search(join(encs), model, lm=lm,
                                            config=cfg, ids=ids)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                alone = [batch_beam_search(enc, model, lm=lm, config=cfg)[0]
                         for enc in encs]
            for got, want in zip(batched, alone):
                _same_result(got, want)
            # one warning per unfinished utterance, naming it
            unfinished = [i for i, r in zip(ids, batched)
                          if not r.stats.finished]
            assert sorted(str(w.message).split(":")[0] for w in caught) \
                == unfinished
            mixed += 0 < len(unfinished) < len(frames)
    # some batch held finished and unfinished utterances side by side
    assert mixed


@pytest.mark.parametrize("seed", range(20))
def test_batched_beam_matches_exhaustive_enumeration(seed):
    # the A4 cases, each searched in a group with two more utterances, of
    # 3 and 4 encoded frames; every result is its own utterance's argmax
    model = tiny_model(seed)
    cfg = BeamConfig(beam_size=256, lam=0.7, gamma=0.0, max_len_ratio=1.0)
    x = np.random.default_rng(3000 + seed).standard_normal((16, 6))
    with T.no_grad(), T.Graph(seed=0):
        encs = [encode_one(model, x)]
    encs += _encode_all(model, [12, 14], seed=2000 + seed)
    assert [enc.n_sub[0] for enc in encs] == [4, 3, 4]
    with T.Graph(seed=0):
        found = batch_beam_search(join(encs), model, config=cfg)
        for enc, out in zip(encs, found):
            want_comb, want_toks = enumerate_best(
                enc, model, None, cfg, enc.n_sub[0], expand=(1, 3, 4))
            assert out.best.tokens == want_toks
            assert abs(out.best.combined - want_comb) < 1e-9
            assert out.stats.finished


def test_batched_search_rejects_an_empty_encoding():
    model = tiny_model(41)
    (enc,) = _encode_all(model, [12], seed=1)
    x_e = np.concatenate([enc.x_e.data, np.zeros_like(enc.x_e.data)])
    with pytest.raises(DataError):
        batch_beam_search(EncodedSequence(x_e=Tensor(x_e),
                                          n_sub=np.array([enc.n_sub[0], 0])),
                          model)
    with pytest.raises(DataError):
        batch_beam_search(EncodedSequence(x_e=Tensor(np.zeros((0, 0, 8))),
                                          n_sub=np.zeros(0, dtype=int)),
                          model)


def greedy_decode(enc, model, max_len=None):
    """Argmax token per step until eos: the beam-1 oracle."""
    n_sub = enc.n_sub[0]
    if n_sub == 0:
        raise DataError("cannot decode an empty encoded sequence")
    state = model.init_state(enc)
    tokens = []
    last = SOS_EOS_ID
    for _ in range(n_sub if max_len is None else max_len):
        rows, state = model.step(state, [last])
        row = np.array(rows[0], copy=True)
        row[BLANK_ID] = -np.inf
        last = int(row.argmax())
        if last == SOS_EOS_ID:
            break
        tokens.append(last)
    return tokens


def test_greedy_matches_table_argmax():
    rows = np.full((4, 4), -8.0)
    rows[0, 3] = 0.0
    rows[1, 1] = 0.0
    rows[2, SOS_EOS_ID] = 0.0
    model = TableModel(rows)
    got = greedy_decode(table_enc(6), model)
    assert got == [3, 1]


def test_lam_one_beam_one_equals_greedy():
    rows = np.full((4, 4), -8.0)
    rows[0, 3] = 0.0
    rows[1, 1] = 0.0
    rows[2, SOS_EOS_ID] = 0.0
    model = TableModel(rows)
    enc = table_enc(6)
    cfg = BeamConfig(beam_size=1, lam=1.0, gamma=0.0)
    out = batch_beam_search(enc, model, config=cfg)[0]
    assert list(out.best.tokens) == greedy_decode(enc, model)
    assert out.best.finished


def test_no_finished_returns_best_live_with_flag():
    # eos never gets mass, so nothing can finish
    rows = np.full((1, 4), 0.0)
    rows[0, SOS_EOS_ID] = -50.0
    model = TableModel(rows)
    cfg = BeamConfig(beam_size=2, lam=1.0, gamma=0.0, max_len_ratio=0.5)
    with pytest.warns(UserWarning):
        out = batch_beam_search(table_enc(4), model, config=cfg)[0]
    assert not out.stats.finished
    assert not out.best.finished
    assert len(out.best.tokens) == 2


def test_search_stats_on_table_paths():
    rows = np.full((4, 4), -8.0)
    rows[0, 3] = 0.0
    rows[1, 1] = 0.0
    rows[2, SOS_EOS_ID] = 0.0
    out = batch_beam_search(table_enc(6), TableModel(rows),
                      config=BeamConfig(beam_size=1, lam=1.0, gamma=0.0))[0]
    # three steps of one hypothesis by the three non-blank tokens; eos
    # retires the only hypothesis at the third
    assert (out.stats.steps, out.stats.scored) == (3, 9)
    assert (out.stats.finished, out.stats.live) == (1, 0)


def test_search_stats_without_finish():
    rows = np.full((1, 4), 0.0)
    rows[0, SOS_EOS_ID] = -50.0
    cfg = BeamConfig(beam_size=2, lam=1.0, gamma=0.0, max_len_ratio=0.5)
    with pytest.warns(UserWarning):
        out = batch_beam_search(table_enc(4), TableModel(rows), config=cfg)[0]
    assert (out.stats.steps, out.stats.scored) == (2, 3 + 6)
    assert (out.stats.finished, out.stats.live) == (0, 2)


# -- retirement by the score bound ---------------------------------------------

CTC_TABLE = np.random.default_rng(0).standard_normal((4, 5))


def _same_nbest(nbest, want):
    """nbest equals (tokens, combined) pairs, -inf scores included."""
    assert [h.tokens for h in nbest] == [toks for toks, _ in want]
    for hyp, (_, comb) in zip(nbest, want):
        assert hyp.combined == comb or abs(hyp.combined - comb) < 1e-9


@pytest.mark.parametrize("length_penalty", [0.0, 1.5])
def test_settled_utterance_retires_with_the_full_search_nbest(length_penalty):
    # two frames allow two tokens at most, under a six-step budget: from
    # step 3 every candidate scores -inf and the 16 slots of the pool are
    # full, so the score bound stops the search there with what searching
    # on would give
    model = CtcTableModel(CTC_TABLE)
    cfg = BeamConfig(beam_size=16, lam=0.5, gamma=0.0, max_len_ratio=3.0,
                     length_penalty=length_penalty)
    enc = ctc_table_enc(2, 5, seed=1)
    out = batch_beam_search(enc, model, config=cfg)[0]
    want, stop = reference_beam(enc, model, None, cfg)
    assert stop == 3
    assert out.stats.steps == stop + 1
    _same_nbest(out.nbest, want)
    ranked = enumerate_ranked(enc, model, None, cfg, 6, expand=(1, 3, 4))
    _same_nbest(out.nbest, [(toks, comb) for comb, toks in ranked[:16]])
    assert out.best is out.nbest[0] and out.stats.finished
    # ten finite hypotheses, then the -inf tail
    assert sum(np.isfinite(h.combined) for h in out.nbest) == 10


@pytest.mark.parametrize("length_penalty", [0.0, 1.5])
def test_utterance_short_of_a_full_pool_runs_to_its_budget(length_penalty):
    # one frame allows one token: every candidate scores -inf from step 2
    # on, but 64 slots do not fill before the last of five steps
    model = CtcTableModel(CTC_TABLE)
    cfg = BeamConfig(beam_size=64, lam=0.5, gamma=0.0, max_len_ratio=5.0,
                     length_penalty=length_penalty)
    enc = ctc_table_enc(1, 5, seed=2)
    out = batch_beam_search(enc, model, config=cfg)[0]
    want, stop = reference_beam(enc, model, None, cfg)
    # the pool may fill at the last step, where the budget ends it anyway
    assert stop == 4
    assert out.stats.steps == 5
    _same_nbest(out.nbest, want)
    assert sum(np.isfinite(h.combined) for h in out.nbest) == 4
    assert out.nbest[-1].combined == -np.inf


def test_batched_retirement_equals_search_one_by_one():
    # utterances of one to three frames under budgets of three to nine
    # steps, some ended early by the score bound and some not, searched as
    # one batch and one at a time
    model = CtcTableModel(CTC_TABLE)
    encs = [ctc_table_enc(n, 5, seed=10 + i)
            for i, n in enumerate([2, 1, 3, 2, 1])]
    early = late = 0
    for beam in (4, 16, 64):
        for length_penalty in (0.0, 1.5):
            cfg = BeamConfig(beam_size=beam, lam=0.5, gamma=0.0,
                             max_len_ratio=3.0, length_penalty=length_penalty)
            batched = batch_beam_search(join(encs), model, config=cfg)
            for enc, got in zip(encs, batched):
                _same_result(got, batch_beam_search(enc, model, config=cfg)[0])
                want, stop = reference_beam(enc, model, None, cfg)
                _same_nbest(got.nbest, want)
                assert got.stats.steps == stop + 1
                early += got.stats.steps < 3 * enc.n_sub[0]
                late += got.stats.steps == 3 * enc.n_sub[0]
    assert early and late


# -- exact ties at the beam cut ------------------------------------------------

# tokens 3, 4 and 5 share every table entry and every CTC column, so their
# extensions of one prefix tie exactly, and so do the prefixes they build
# (3 4 and 4 3, say); from the third step on, eos and tokens 3 to 5 score
# -inf
TIE_TABLE = np.array([[0.0, -0.5, -1.0, -2.0, -2.0, -2.0, -0.5],
                      [0.0, -2.0, -0.5, -2.0, -2.0, -2.0, -2.0],
                      [0.0, -1.0, -np.inf, -np.inf, -np.inf, -np.inf, -0.5]])


def tie_enc(n_sub, seed):
    x = np.random.default_rng(seed).standard_normal((n_sub, 7))
    x[:, 4] = x[:, 5] = x[:, 3]
    return EncodedSequence(x_e=Tensor(x[None]), n_sub=np.array([n_sub]))


@pytest.mark.parametrize("beam", [2, 3])
@pytest.mark.parametrize("length_penalty", [0.0, 0.5])
def test_exact_ties_at_the_beam_cut(beam, length_penalty):
    # three utterances of one to three frames, searched as one batch: the
    # cut falls inside groups of exactly tied cells, finite ones and -inf
    # ones (prefixes longer than their frames allow), and each utterance
    # keeps the n-best of the reference beam and of a search of it alone
    model = CtcTableModel(TIE_TABLE)
    encs = [tie_enc(n, seed=20 + n) for n in (1, 2, 3)]
    cfg = BeamConfig(beam_size=beam, lam=0.5, gamma=0.0, max_len_ratio=3.0,
                     length_penalty=length_penalty)
    batched = batch_beam_search(join(encs), model, config=cfg)
    for enc, got in zip(encs, batched):
        assert got.stats.finished
        _same_result(got, batch_beam_search(enc, model, config=cfg)[0])
        want, _ = reference_beam(enc, model, None, cfg)
        _same_nbest(got.nbest, want)


# -- the score bound, property-checked -----------------------------------------

BOUND_SEARCH = settings(max_examples=300, derandomize=True, deadline=None,
                        database=None)


@functools.lru_cache(maxsize=None)
def _bound_model(body, seed, alpha):
    if body == "table":
        return CtcTableModel(CTC_TABLE)
    model = (tiny_model(seed, alpha=alpha) if body == "transformer"
             else _tiny_rnn_model(seed, alpha=alpha))
    model.eval()
    return model


@st.composite
def bound_cases(draw):
    """A table, tiny transformer or tiny rnn model (the networks with or
    without a CTC head), maybe an LM, one or two utterances and a beam
    config with the bound's preconditions met or not."""
    body = draw(st.sampled_from(("table", "transformer", "rnn")))
    seed = draw(st.integers(0, 2))
    model = _bound_model(body, seed, draw(st.sampled_from((0.5, 1.0))))
    lm = tiny_lm(5, 8, seed) if draw(st.booleans()) else None
    cfg = BeamConfig(beam_size=draw(st.integers(1, 8)),
                     lam=draw(st.sampled_from((0.0, 0.5, 1.0))),
                     gamma=draw(st.sampled_from((0.0, 0.4, -0.4))),
                     max_len_ratio=draw(st.sampled_from((1.0, 1.5))),
                     length_penalty=draw(st.sampled_from((-1.0, 0.0, 1.5))))
    if body == "table":
        # peaked posteriors are where psi's rounding shows
        scale = draw(st.sampled_from((1.0, 30.0)))
        encs = [ctc_table_enc(n, 5, draw(st.integers(0, 99)), scale)
                for n in draw(st.lists(st.integers(1, 6), min_size=1,
                                       max_size=2))]
    else:
        encs = _encode_all(model, draw(st.lists(st.integers(8, 16),
                                                min_size=1, max_size=2)),
                           seed=draw(st.integers(0, 99)))
    return model, lm, encs, cfg


def psi_overshoot(model, enc, depth=3):
    """The most by which the search's CTC scorer puts a prefix's psi, or
    its finish score, above its parent prefix's psi, over every prefix of
    up to depth tokens; -inf without a CTC head."""
    if not model.config.uses_ctc:
        return -np.inf
    scorer = CtcPrefixScorer(np.swapaxes(model.ctc_logprobs(enc).data, 0, 1),
                             enc.n_sub)
    labels = [c for c in range(model.config.vocab_size)
              if c not in (BLANK_ID, SOS_EOS_ID)]
    state, parent, most = scorer.initial_state(), np.zeros(1), -np.inf
    for _ in range(depth):
        utt = np.zeros(len(parent), dtype=np.int64)   # one utterance
        ext = scorer.extend(state, utt)
        child = np.concatenate([ext.psi[:, labels],
                                scorer.finish(state, utt)[:, None]], axis=1)
        live = np.isfinite(parent)
        most = (child[live] - parent[live, None]).max(initial=most)
        rows = np.repeat(np.arange(len(parent)), len(labels))
        toks = np.tile(labels, len(parent))
        state, parent = ext.select(rows, toks), ext.psi[rows, toks]
    return most


@BOUND_SEARCH
@given(bound_cases())
def test_score_bound_keeps_the_full_search_nbest(case):
    # with gamma >= 0 the search may end an utterance before its budget,
    # yet keeps the n-best of the reference beam, which searches to the
    # budget; with gamma < 0 it searches to the budget or until nothing
    # is live
    model, lm, encs, cfg = case
    with warnings.catch_warnings(), T.no_grad():
        warnings.simplefilter("ignore")
        found = batch_beam_search(join(encs), model, lm=lm, config=cfg)
        for enc, got in zip(encs, found):
            # the margin lies far above the rounding the draws see
            assert psi_overshoot(model, enc) < BOUND_MARGIN / 1000
            want, stop = reference_beam(enc, model, lm, cfg)
            assert got.stats.steps == stop + 1
            if not want:
                assert not got.stats.finished
                continue
            _same_nbest(got.nbest, want)


def test_empty_encoding_rejected():
    model = tiny_model(41)
    enc = EncodedSequence(x_e=Tensor(np.zeros((1, 0, 8))), n_sub=np.array([0]))
    with pytest.raises(DataError):
        batch_beam_search(enc, model)
    with pytest.raises(DataError):
        greedy_decode(enc, model)


def test_nbest_is_sorted_and_bounded():
    model = tiny_model(51)
    cfg = BeamConfig(beam_size=5, gamma=0.0)
    x = np.random.default_rng(11).standard_normal((16, 6))
    with T.Graph(seed=0):
        enc = encode_one(model, x)
        out = batch_beam_search(enc, model, config=cfg)[0]
    assert len(out.nbest) <= 5
    scores = [h.combined for h in out.nbest]
    assert scores == sorted(scores, reverse=True)
    assert out.nbest[0] is out.best
    assert all(h.finished for h in out.nbest)


# -- LM scoring -----------------------------------------------------------------


def test_lm_rows_normalize():
    lm = tiny_lm(7, 8, 5)
    state = lm.init_state()
    for tok in (SOS_EOS_ID, 3, 4):
        lp, state = lm.step(state, [tok])
    assert abs(np.exp(lp[0]).sum() - 1.0) < 1e-9


def test_lm_zeroed_head_is_uniform():
    lm = tiny_lm(6, 8, 6)
    lm.out.weight.data[:] = 0.0
    lm.out.bias.data[:] = 0.0
    lp, state = lm.step(lm.init_state(), [SOS_EOS_ID])
    lp, _ = lm.step(state, [1])
    assert abs(lp[0, 3] - (-np.log(6.0))) < 1e-12


def test_lm_step_rows_match_full_logprobs():
    lm = tiny_lm(7, 8, 8)
    prefixes = [(3, 4, 5, 6), (6, 6, 3, 1), (4, 3, 5, 5)]
    state = lm.init_state().select([0, 0, 0])
    last = [SOS_EOS_ID] * 3
    for i in range(5):
        lp, state = lm.step(state, last)
        for b, p in enumerate(prefixes):
            np.testing.assert_allclose(lp[b], lm_row(lm, p[:i]),
                                       rtol=0, atol=1e-9)
        if i == 4:
            break
        # pruning reorders rows and repeats some
        order = ([2, 0, 1], [1, 1, 0], [2, 0, 1], [0, 2, 2])[i]
        state = state.select(order)
        prefixes = [prefixes[j] for j in order]
        last = [p[i] for p in prefixes]
