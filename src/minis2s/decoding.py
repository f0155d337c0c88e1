"""Search-time inference: hybrid beam search over the attention
decoder with incremental CTC prefix scoring and optional recurrent-LM
fusion.

Scores combine as lambda * log p_s2s + (1 - lambda) * log p_ctc
+ gamma * log p_lm; models without a CTC head drop the middle term
(lambda acts as 1). All scoring is in log space; impossible CTC
prefixes carry -inf without ever producing NaN.

The search is incremental and batched over hypotheses and utterances.
It takes the encoder output of a padded batch of utterances, as
S2SModel.encode gives it (one utterance is a batch of one). The decoder
and the LM each carry one models.SearchState with one row per live
hypothesis of every utterance in the batch (`init_state`, `step`,
`select`), and the CTC scorer holds the batch's posteriors from one pass
of the CTC head, so each beam step makes one decoder call, one LM call
and one CTC call, each covering every live hypothesis and every token.
The Transformer decoder's step runs on plain arrays, and its cache is
copied once per step: select gathers the kept rows into a buffer with
room for one more position, and the step appends the new position there
(synthesis selects nothing and appends in place). The live prefixes are
one token array, and pruning is one sort over the non-blank cells of
every utterance that keeps each one's first beam_size. The finished
pool, the length budget and the statistics stay per utterance:
batch_beam_search gives each utterance the result a search of it alone
gives, and one utterance is a batch of one.

An utterance retires once no live row can reach its n-best. With
gamma >= 0 no step raises a score: decoder and LM steps add log-softmax
values <= 0, and CTC's psi never rises with depth and bounds the finish
score. A row's finished descendants thus rank at most its rank plus
max(length_penalty, 0) per token the budget allows; once the pool holds
beam_size hypotheses and every row's bound is -inf or BOUND_MARGIN =
1e-6 (above psi's rounding, seen up to 2.8e-14) below the beam_size-th,
the n-best is final. With gamma < 0 utterances search to their budget.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .errors import DataError, DimensionError, check_settings, setting
from .reserved import BLANK_ID, SOS_EOS_ID

BOUND_MARGIN = 1e-6  # see the module docstring


@dataclass
class BeamConfig:
    beam_size: int = setting(20, "[1, inf)")
    lam: float = setting(0.7, "[0, 1]")  # attention weight; CTC gets 1 - lam
    gamma: float = setting(0.3, "(-inf, inf)")  # LM weight, given an LM
    max_len_ratio: float = setting(1.0, "(0, inf)")
    length_penalty: float = setting(0.0, "(-inf, inf)")  # per-token bonus

    def validate(self) -> None:
        check_settings(self)


@dataclass
class CtcPrefixState:
    """Forward variables of a batch of prefixes, one column per prefix:
    the per-frame log-probability of having emitted the prefix with the
    last symbol non-blank (r_n) or with trailing blanks (r_b), both
    (frames, B) over at least the frames of each prefix's utterance, and
    each prefix's last label (-1 for the empty one)."""

    r_n: np.ndarray
    r_b: np.ndarray
    last: np.ndarray


@dataclass
class CtcExtensions:
    """Every one-label extension of a batch of prefixes: psi[b, c] is the
    total prefix log-probability of prefix b followed by label c (-inf in
    the blank column), and r_n and r_b their (frames, B, V) forward
    variables."""

    psi: np.ndarray
    r_n: np.ndarray
    r_b: np.ndarray

    def select(self, rows, labels) -> CtcPrefixState:
        """The state of the extensions (rows[i], labels[i])."""
        rows = np.asarray(rows, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        return CtcPrefixState(r_n=self.r_n[:, rows, labels],
                              r_b=self.r_b[:, rows, labels], last=labels)


class CtcPrefixScorer:
    """Incremental prefix scoring over fixed per-frame CTC posteriors of
    N utterances padded to the longest, (n_max, N, V), frames first,
    with their frame counts in `lengths`; one utterance is a batch of
    one.

    extend(state, utt) scores every one-label extension of every prefix
    in a batch with one loop over the frames of the longest utterance
    among them; finish(state, utt) scores each prefix as the complete
    labeling (the eos case). utt[b] is prefix b's utterance: the prefix
    sees only its frames, its psi sums over them alone and finish reads
    its last one."""

    def __init__(self, log_probs: np.ndarray, lengths: Sequence[int]):
        u = np.asarray(log_probs, dtype=np.float64)
        if u.ndim != 3 or u.shape[0] < 1:
            raise DimensionError(f"CTC posteriors must be a padded (frames, "
                                 f"utterances, vocab) batch, got {u.shape}")
        self.lengths = np.asarray(lengths)
        # frames past an utterance's end: zeros keep the recursions finite,
        # and psi leaves them out
        self.pad = ~T.length_mask(self.lengths, u.shape[0]).T
        self.u = np.where(self.pad[:, :, None], 0.0, u)

    def initial_state(self) -> CtcPrefixState:
        """The empty prefix of every utterance, one column each."""
        r_b = np.cumsum(self.u[:, :, BLANK_ID], axis=0)
        r_n = np.full(r_b.shape, -np.inf)
        return CtcPrefixState(r_n=r_n, r_b=r_b,
                              last=np.full(self.u.shape[1], -1,
                                           dtype=np.int64))

    def extend(self, state: CtcPrefixState, utt) -> CtcExtensions:
        # only the frames of the longest utterance with a prefix here
        n = int(self.lengths[utt].max())
        u = self.u[:n, utt]                  # (frames, B, V), row by row
        _, batch, vocab = u.shape
        r_b_in = state.r_b[:n]
        # phi[t, b, c]: mass of prefix b up to frame t-1 that label c may
        # follow; a repeat of the last label needs a blank in between
        r_sum = np.logaddexp(r_b_in, state.r_n[:n])
        phi = np.empty((n, batch, vocab))
        phi[1:] = r_sum[:-1, :, None]
        rows = np.flatnonzero(state.last >= 0)
        phi[1:, rows, state.last[rows]] = r_b_in[:-1, rows]
        # at frame 0 the new label is the first emission overall
        phi[0] = np.where(state.last < 0, 0.0, -np.inf)[:, None]
        r_n = np.empty((n, batch, vocab))
        r_b = np.empty((n, batch, vocab))
        r_n[0] = phi[0] + u[0]
        r_b[0] = -np.inf
        u_blank = u[:, :, BLANK_ID, None]
        for t in range(1, n):
            r_n[t] = np.logaddexp(r_n[t - 1], phi[t]) + u[t]
            r_b[t] = np.logaddexp(r_b[t - 1], r_n[t - 1]) + u_blank[t]
        terms = phi + u
        terms[self.pad[:n, utt]] = -np.inf
        m = terms.max(axis=0)
        safe = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            psi = safe + np.log(np.exp(terms - safe).sum(axis=0))
        psi[:, BLANK_ID] = -np.inf
        return CtcExtensions(psi=psi, r_n=r_n, r_b=r_b)

    def finish(self, state: CtcPrefixState, utt) -> np.ndarray:
        """log-probability that the complete labeling equals each prefix,
        read at the last frame of the prefix's utterance."""
        last = self.lengths[utt] - 1
        cols = np.arange(last.shape[0])
        return np.logaddexp(state.r_n[last, cols], state.r_b[last, cols])


@dataclass
class Hypothesis:
    prefix: Tuple[int, ...] = (SOS_EOS_ID,)
    log_s2s: float = 0.0
    log_ctc: float = 0.0
    log_lm: float = 0.0
    combined: float = 0.0
    finished: bool = False

    @property
    def tokens(self) -> Tuple[int, ...]:
        toks = self.prefix[1:]
        if toks and toks[-1] == SOS_EOS_ID:
            toks = toks[:-1]
        return toks


def combined_score(log_s2s, log_ctc, log_lm, config: BeamConfig,
                   use_ctc: bool):
    """Weighted sum of the three scores; floats or arrays of one shape."""
    # zero weights must kill their term even when the score is -inf
    lam = config.lam if use_ctc else 1.0
    total = lam * log_s2s if lam else 0.0
    if use_ctc and (1.0 - lam):
        total = total + (1.0 - lam) * log_ctc
    if config.gamma:
        total = total + config.gamma * log_lm
    return total


def _rank_key(hyp: Hypothesis, config: Optional[BeamConfig] = None):
    score = hyp.combined
    if config is not None and config.length_penalty:
        score += config.length_penalty * len(hyp.tokens)
    return (-score, len(hyp.tokens), hyp.tokens)


def rank_hypotheses(hyps: Sequence[Hypothesis],
                    config: Optional[BeamConfig] = None) -> List[Hypothesis]:
    """Best first; ties go to the shorter hypothesis, then to the
    lexicographically smaller token sequence."""
    return sorted(hyps, key=lambda h: _rank_key(h, config))


@dataclass
class SearchStats:
    """What one beam search did; diagnostics only, never written out."""
    steps: int = 0       # steps run until the bound or the budget ended it
    scored: int = 0      # (hypothesis, token) pairs scored
    finished: int = 0    # hypotheses in the finished pool at exit
    live: int = 0        # unfinished hypotheses left at exit


@dataclass
class BeamResult:
    best: Hypothesis
    nbest: List[Hypothesis] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)


def batch_beam_search(enc, model, lm=None,
                      config: Optional[BeamConfig] = None,
                      ids: Optional[Sequence[str]] = None) -> List[BeamResult]:
    """Breadth-synchronous beam search over decoder steps for the N
    utterances of an encoded batch (an EncodedSequence: x_e (N, n_max,
    d_att) and n_sub) at once; one BeamResult per utterance, in order.

    Every live hypothesis is expanded with every vocabulary token
    except the blank; extensions ending on eos move to the finished
    pool with the CTC termination score. An utterance searches until all
    its beams finish, ceil(max_len_ratio * n_sub) steps elapse or, with
    gamma >= 0, no live row's score bound (module docstring) reaches its
    full n-best, then drops its rows; pruning, the finished
    pool, SearchStats and the fallback to the best unfinished hypothesis
    are its own, so each result equals a search of that utterance alone.
    An utterance that ends with nothing finished raises one UserWarning,
    naming ids[i] when ids are given.

    `model` and `lm` are steppers: `init_state` (the model's over enc),
    then per beam step `step(state, last_tokens)` -> ((B, V)
    log-probabilities, state) over the B live hypotheses of every
    utterance, and `state.select(rows)` after pruning. A beam step makes
    one call of each, and one CTC extend, over all rows; the CTC head
    runs once, over the whole batch.
    """
    config = config or BeamConfig()
    config.validate()
    n_subs = np.asarray(enc.n_sub, dtype=np.int64)
    if not len(n_subs) or n_subs.min() == 0:
        raise DataError("cannot decode an empty encoded sequence")
    max_lens = np.ceil(config.max_len_ratio * n_subs).astype(np.int64)
    vocab = model.config.vocab_size
    use_ctc = bool(getattr(model.config, "uses_ctc", False))
    use_lm = lm is not None and config.gamma != 0.0
    n_utt = len(n_subs)

    if use_ctc:
        scorer = CtcPrefixScorer(
            np.swapaxes(model.ctc_logprobs(enc).data, 0, 1), n_subs)
        ctc_state = scorer.initial_state()
    dec_state = model.init_state(enc)
    lm_state = lm.init_state().select([0] * n_utt) if use_lm else None
    is_eos = np.arange(vocab) == SOS_EOS_ID
    nonblank = np.flatnonzero(np.arange(vocab) != BLANK_ID)

    # the live hypotheses, one row each, grouped by utterance in order:
    # owner[r] is row r's utterance and prefix[r] its tokens, the
    # start-of-sequence id first
    owner = np.arange(n_utt)
    prefix = np.full((n_utt, 1), SOS_EOS_ID)
    s2s = lmp = np.zeros(n_utt)
    finished: List[List[Hypothesis]] = [[] for _ in range(n_utt)]
    unfinished: List[List[Hypothesis]] = [[] for _ in range(n_utt)]
    steps, scored, n_finished = np.zeros((3, n_utt), dtype=np.int64)
    for step in range(int(max_lens.max())):
        last = prefix[:, -1]
        rows_s2s, dec_state = model.step(dec_state, last)
        cand_s2s = s2s[:, None] + rows_s2s
        cand_lm = np.zeros_like(cand_s2s)
        if use_lm:
            rows_lm, lm_state = lm.step(lm_state, last)
            cand_lm = lmp[:, None] + rows_lm
        cand_ctc = np.zeros_like(cand_s2s)
        if use_ctc:
            ext = scorer.extend(ctc_state, owner)
            cand_ctc = np.where(is_eos,
                                scorer.finish(ctc_state, owner)[:, None],
                                ext.psi)
        cand = combined_score(cand_s2s, cand_ctc, cand_lm, config, use_ctc)
        rank = cand
        if config.length_penalty:
            rank = cand + config.length_penalty * np.where(is_eos, step,
                                                           step + 1)

        # every non-blank cell, sorted by utterance and within it as
        # rank_hypotheses ranks: higher score, then the shorter token
        # sequence (eos adds no token), then the smaller one; each
        # utterance keeps its first beam_size cells
        row = np.repeat(np.arange(len(owner)), len(nonblank))
        tok = np.tile(nonblank, len(owner))
        score = rank[:, nonblank].ravel()
        order = np.lexsort((tok, *prefix[row, :0:-1].T, tok != SOS_EOS_ID,
                            -score, owner[row]))
        ranked = owner[row[order]]
        # each cell's place among its utterance's cells
        place = np.arange(len(order)) - np.searchsorted(ranked, ranked)
        win = order[place < config.beam_size]
        win_row, win_tok = row[win], tok[win]
        win_utt, win_eos = owner[win_row], win_tok == SOS_EOS_ID
        n_rows = np.bincount(owner, minlength=n_utt)
        steps += n_rows > 0
        scored += n_rows * len(nonblank)
        n_finished += np.bincount(win_utt[win_eos], minlength=n_utt)

        # eos winners retire to the pool, and so do the other winners of an
        # utterance at its last step. An utterance drops its rows when it
        # is out of survivors or of steps, or, with gamma >= 0, when no live
        # row's bound (see the module docstring) reaches its full n-best.
        out_of_steps = step + 1 == max_lens
        retire = win_eos | out_of_steps[win_utt]
        for b, t in zip(win_row[retire].tolist(), win_tok[retire].tolist()):
            (finished if t == SOS_EOS_ID else unfinished)[owner[b]].append(
                Hypothesis(prefix=tuple(prefix[b].tolist()) + (t,),
                           log_s2s=float(cand_s2s[b, t]),
                           log_ctc=float(cand_ctc[b, t]),
                           log_lm=float(cand_lm[b, t]),
                           combined=float(cand[b, t]),
                           finished=t == SOS_EOS_ID))
        ends = out_of_steps.copy()
        live_rank = np.where(win_eos, -np.inf, rank[win_row, win_tok])
        for u in np.flatnonzero(~ends & (n_finished >= config.beam_size)
                                & (n_rows > 0) & (config.gamma >= 0)):
            kth = -sorted(_rank_key(h, config)[0]
                          for h in finished[u])[config.beam_size - 1]
            bound = (live_rank[win_utt == u].max()
                     + max(config.length_penalty, 0.0)
                     * (max_lens[u] - 2 - step))
            ends[u] = bound == -np.inf or bound < kth - BOUND_MARGIN
        keep = ~win_eos & ~ends[win_utt]
        if not keep.any():
            break
        rows, toks = win_row[keep], win_tok[keep]
        owner = owner[rows]
        prefix = np.column_stack((prefix[rows], toks))
        s2s, lmp = cand_s2s[rows, toks], cand_lm[rows, toks]
        dec_state = dec_state.select(rows)
        if use_lm:
            lm_state = lm_state.select(rows)
        if use_ctc:
            ctc_state = ext.select(rows, toks)

    results = []
    for i in range(n_utt):
        stats = SearchStats(steps=int(steps[i]), scored=int(scored[i]),
                            finished=len(finished[i]),
                            live=len(unfinished[i]))
        pool = rank_hypotheses(finished[i] or unfinished[i], config)
        if not finished[i]:
            who = f"{ids[i]}: " if ids is not None else ""
            warnings.warn(f"{who}no hypothesis finished within the length "
                          "budget; returning the best unfinished one")
        results.append(BeamResult(best=pool[0], nbest=pool[:config.beam_size],
                                  stats=stats))
    return results
