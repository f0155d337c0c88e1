"""Search-time inference: hybrid beam search over the attention
decoder with incremental CTC prefix scoring and optional recurrent-LM
fusion.

Scores combine as lambda * log p_s2s + (1 - lambda) * log p_ctc
+ gamma * log p_lm; models without a CTC head drop the middle term
(lambda acts as 1). All scoring is in log space; impossible CTC
prefixes carry -inf without ever producing NaN.

The search is incremental and batched. The decoder and the LM carry a
cached state with one row per live hypothesis (`init_state`, `step`,
`select`), so each beam step makes one decoder call, one LM call and one
CTC call, each covering every live hypothesis and every token.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError
from .models import BLANK_ID, SOS_EOS_ID


@dataclass
class BeamConfig:
    beam_size: int = 20
    lam: float = 0.7          # weight on the attention score; CTC gets 1 - lam
    gamma: float = 0.3        # LM weight when an LM is supplied
    max_len_ratio: float = 1.0
    length_penalty: float = 0.0  # additive per-token ranking bonus, off by default

    def validate(self) -> None:
        if self.beam_size < 1:
            raise ConfigError(f"beam_size must be >= 1, got {self.beam_size}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must lie in [0, 1], got {self.lam}")
        if self.max_len_ratio <= 0:
            raise ConfigError("max_len_ratio must be positive")


@dataclass
class CtcPrefixState:
    """Forward variables of a batch of prefixes, one column per prefix:
    the per-frame log-probability of having emitted the prefix with the
    last symbol non-blank (r_n) or with trailing blanks (r_b), both
    (frames, B), and each prefix's last label (-1 for the empty one)."""

    r_n: np.ndarray
    r_b: np.ndarray
    last: np.ndarray


@dataclass
class CtcExtensions:
    """Every one-label extension of a batch of prefixes: psi[b, c] is the
    total prefix log-probability of prefix b followed by label c (-inf in
    the blank column), r_n and r_b their (frames, B, V) forward
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
    """Incremental prefix scoring over fixed per-frame CTC posteriors.

    extend() scores every one-label extension of every prefix in a batch
    with one loop over frames; finish() scores each prefix as the
    complete labeling (the eos case)."""

    def __init__(self, log_probs: np.ndarray, blank: int = BLANK_ID):
        log_probs = np.asarray(log_probs, dtype=np.float64)
        if log_probs.ndim != 2 or log_probs.shape[0] < 1:
            raise DataError(f"CTC posteriors must be (frames, vocab), "
                            f"got {log_probs.shape}")
        self.u = log_probs
        self.blank = blank

    def initial_state(self) -> CtcPrefixState:
        """The empty prefix, as a batch of one."""
        n = self.u.shape[0]
        r_b = np.cumsum(self.u[:, self.blank])[:, None]
        r_n = np.full((n, 1), -np.inf)
        return CtcPrefixState(r_n=r_n, r_b=r_b,
                              last=np.full(1, -1, dtype=np.int64))

    def extend(self, state: CtcPrefixState) -> CtcExtensions:
        u = self.u
        n, vocab = u.shape
        batch = state.last.shape[0]
        # phi[t, b, c]: mass of prefix b up to frame t-1 that label c may
        # follow; a repeat of the last label needs a blank in between
        r_sum = np.logaddexp(state.r_b, state.r_n)
        phi = np.empty((n, batch, vocab))
        phi[1:] = r_sum[:-1, :, None]
        rows = np.flatnonzero(state.last >= 0)
        phi[1:, rows, state.last[rows]] = state.r_b[:-1, rows]
        # at frame 0 the new label is the first emission overall
        phi[0] = np.where(state.last < 0, 0.0, -np.inf)[:, None]
        r_n = np.empty((n, batch, vocab))
        r_b = np.empty((n, batch, vocab))
        r_n[0] = phi[0] + u[0]
        r_b[0] = -np.inf
        for t in range(1, n):
            r_n[t] = np.logaddexp(r_n[t - 1], phi[t]) + u[t]
            r_b[t] = np.logaddexp(r_b[t - 1], r_n[t - 1]) + u[t, self.blank]
        terms = phi + u[:, None, :]
        m = terms.max(axis=0)
        safe = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            psi = safe + np.log(np.exp(terms - safe).sum(axis=0))
        psi[:, self.blank] = -np.inf
        return CtcExtensions(psi=psi, r_n=r_n, r_b=r_b)

    def finish(self, state: CtcPrefixState) -> np.ndarray:
        """log-probability that the complete labeling equals each prefix."""
        return np.logaddexp(state.r_n[-1], state.r_b[-1])


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
    steps: int = 0       # beam steps run
    scored: int = 0      # (hypothesis, token) pairs scored
    finished: int = 0    # hypotheses in the finished pool at exit
    live: int = 0        # unfinished hypotheses left at exit


@dataclass
class BeamResult:
    best: Hypothesis
    nbest: List[Hypothesis] = field(default_factory=list)
    no_finished: bool = False
    stats: SearchStats = field(default_factory=SearchStats)


def _prune(rank: np.ndarray, prefixes: List[Tuple[int, ...]],
           k: int) -> List[Tuple[int, int]]:
    """The k best non-blank (row, token) cells of rank (B, V), best first
    in the order of rank_hypotheses: higher score, then the shorter and
    then the lexicographically smaller token sequence."""
    cols = np.array([c for c in range(rank.shape[1]) if c != BLANK_ID])
    scores = rank[:, cols].ravel()
    order = np.argsort(-scores, kind="stable")
    if len(order) > k:
        # only the cells tied with the k-th score need the full key
        order = order[scores[order] >= scores[order[k - 1]]]

    def cell(j: int) -> Tuple[int, int]:
        row, col = divmod(int(j), len(cols))
        return row, int(cols[col])

    def key(j: int):
        row, tok = cell(j)
        toks = prefixes[row][1:] + (() if tok == SOS_EOS_ID else (tok,))
        return (-scores[j], len(toks), toks)

    return [cell(j) for j in sorted(order, key=key)[:k]]


def beam_search(enc, model, lm=None, config: Optional[BeamConfig] = None) -> BeamResult:
    """Breadth-synchronous beam search over decoder steps.

    Every live hypothesis is expanded with every vocabulary token
    except the blank; extensions ending on eos move to the finished
    pool with the CTC termination score. Runs until all beams finish
    or ceil(max_len_ratio * n_sub) steps elapse.

    `model` and `lm` are steppers: `init_state`, then per beam step
    `step(state, last_tokens)` -> ((B, V) log-probabilities, state) over
    the B live hypotheses, and `state.select(rows)` after pruning.
    """
    config = config or BeamConfig()
    config.validate()
    n_sub = enc.x_e.shape[0]
    if n_sub == 0:
        raise DataError("cannot decode an empty encoded sequence")
    max_len = math.ceil(config.max_len_ratio * n_sub)
    vocab = model.config.vocab_size
    use_ctc = bool(getattr(model.config, "uses_ctc", False))
    use_lm = lm is not None and config.gamma != 0.0

    scorer = CtcPrefixScorer(model.ctc_logprobs(enc).data) if use_ctc else None
    ctc_state = scorer.initial_state() if use_ctc else None
    dec_state = model.init_state(enc)
    lm_state = lm.init_state() if use_lm else None
    is_eos = np.arange(vocab) == SOS_EOS_ID

    # the live hypotheses, one row each
    prefixes: List[Tuple[int, ...]] = [(SOS_EOS_ID,)]
    s2s = ctc = lmp = comb = np.zeros(1)
    finished: List[Hypothesis] = []
    stats = SearchStats()
    for _ in range(max_len):
        last = [p[-1] for p in prefixes]
        rows_s2s, dec_state = model.step(dec_state, last)
        cand_s2s = s2s[:, None] + rows_s2s
        cand_lm = np.zeros_like(cand_s2s)
        if use_lm:
            rows_lm, lm_state = lm.step(lm_state, last)
            cand_lm = lmp[:, None] + rows_lm
        cand_ctc = np.zeros_like(cand_s2s)
        if use_ctc:
            ext = scorer.extend(ctc_state)
            cand_ctc = np.where(is_eos, scorer.finish(ctc_state)[:, None],
                                ext.psi)
        cand = combined_score(cand_s2s, cand_ctc, cand_lm, config, use_ctc)
        rank = cand
        if config.length_penalty:
            n_tok = len(prefixes[0]) - 1
            rank = cand + config.length_penalty * np.where(is_eos, n_tok,
                                                           n_tok + 1)
        stats.steps += 1
        stats.scored += len(prefixes) * (vocab - 1)
        # eos extensions compete with the rest for beam slots; the
        # survivors that finished retire to the pool
        rows, toks = [], []
        for b, tok in _prune(rank, prefixes, config.beam_size):
            if tok == SOS_EOS_ID:
                finished.append(Hypothesis(
                    prefix=prefixes[b] + (tok,),
                    log_s2s=float(cand_s2s[b, tok]),
                    log_ctc=float(cand_ctc[b, tok]),
                    log_lm=float(cand_lm[b, tok]),
                    combined=float(cand[b, tok]), finished=True))
            else:
                rows.append(b)
                toks.append(tok)
        prefixes = [prefixes[b] + (tok,) for b, tok in zip(rows, toks)]
        if not prefixes:
            break
        s2s, ctc, lmp, comb = (a[rows, toks] for a in
                               (cand_s2s, cand_ctc, cand_lm, cand))
        dec_state = dec_state.select(rows)
        if use_lm:
            lm_state = lm_state.select(rows)
        if use_ctc:
            ctc_state = ext.select(rows, toks)

    stats.finished, stats.live = len(finished), len(prefixes)
    if finished:
        pool = rank_hypotheses(finished, config)
        return BeamResult(best=pool[0], nbest=pool[:config.beam_size],
                          stats=stats)
    warnings.warn("no hypothesis finished within the length budget; "
                  "returning the best unfinished one")
    live = [Hypothesis(prefix=p, log_s2s=float(s2s[i]), log_ctc=float(ctc[i]),
                       log_lm=float(lmp[i]), combined=float(comb[i]))
            for i, p in enumerate(prefixes)]
    pool = rank_hypotheses(live, config)
    return BeamResult(best=pool[0], nbest=pool[:config.beam_size],
                      no_finished=True, stats=stats)
