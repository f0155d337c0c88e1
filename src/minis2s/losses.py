"""Training objectives: token cross-entropy, CTC, the joint weighted
loss, and the TTS terms (L1, weighted BCE, guided attention).

Every loss takes a padded batch, one utterance being a batch of one,
with each row's real length given: a target list or a count per row.
tensor.length_mask turns the counts into the mask of real entries, and
tensor.pad_batch lays out CTC's ragged label states.
Every loss that normalizes accepts an optional `denom`: passing the
batch-level token/frame count instead of the per-utterance one makes
micro-batch gradient accumulation reproduce the big-batch update
exactly, because each utterance contributes sum/denom with the same
denominator either way.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import DimensionError, ImpossibleAlignmentError
from .reserved import BLANK_ID
from .tensor import Tensor


def s2s_cross_entropy(log_probs: Tensor, targets: Sequence,
                      denom: Optional[float] = None) -> Tensor:
    """Mean negative log-probability of the target tokens.

    log_probs is a padded batch, (B, n_max, V), and `targets` holds one
    target sequence per row, each ending with the end-of-sequence token
    and read from the row's first rows; the rest are padding and play no
    part. `denom` replaces the target count as the normalizer when
    accumulating.
    """
    if log_probs.ndim != 3:
        raise DimensionError(f"cross-entropy takes padded (B, n_max, V) "
                             f"log-probabilities, got {log_probs.shape}")
    lens = [len(ys) for ys in targets]
    if len(lens) != log_probs.shape[0] or max(lens) > log_probs.shape[1]:
        raise DimensionError(f"{log_probs.shape[:2]} prediction rows for "
                             f"target lengths {lens}")
    rows, steps = np.nonzero(T.length_mask(lens, log_probs.shape[1]))
    picked = log_probs[rows, steps,
                       np.concatenate([np.asarray(ys, dtype=np.int64)
                                       for ys in targets])]
    denom = float(sum(lens)) if denom is None else float(denom)
    return -picked.sum() / denom


def expand_with_blanks(targets: Sequence[int]) -> List[int]:
    z = [BLANK_ID]
    for y in targets:
        z.append(y)
        z.append(BLANK_ID)
    return z


def ctc_min_frames(targets: Sequence[int]) -> int:
    """Fewest frames that can carry the target: one per label plus a
    mandatory blank between equal neighbors."""
    targets = list(targets)
    repeats = sum(1 for a, b in zip(targets, targets[1:]) if a == b)
    return len(targets) + repeats


def ctc_log_likelihood(log_probs: Tensor, targets: Sequence,
                       frames: Sequence[int]) -> Tensor:
    """log p(targets | frames) marginalized over all blank-augmented
    monotonic alignments; the log-space forward algorithm of Graves et
    al. (2006), vectorized over the states of each frame.

    `log_probs` is a padded batch, (B, n_max, V), of per-frame log
    distributions over the vocabulary with the blank at BLANK_ID (one
    utterance is a batch of one). It takes one label sequence per row
    and each row's frame count, 1 to n_max, in `frames` and gives the
    (B,) log-likelihoods, each over its own frames and labels alone:
    the recursions run over every row at once, states past a row's
    labels stay at -inf, and the backward recursion starts at each row's
    own last frame. The backward pass distributes the gradient by
    alignment posteriors (forward-backward), hand-derived for this op.
    """
    if log_probs.ndim != 3:
        raise DimensionError(f"CTC takes padded (B, n_max, V) "
                             f"log-probabilities, got {log_probs.shape}")
    u = log_probs.data
    n_b, n_max, vocab = u.shape
    targets = [[int(y) for y in ys] for ys in targets]
    frames = np.reshape(frames, n_b)
    if len(targets) != n_b:
        raise DimensionError(f"{len(targets)} targets for {n_b} rows")
    for b, (ys, n_frames) in enumerate(zip(targets, frames)):
        if not 1 <= n_frames <= n_max:
            raise DimensionError(f"row {b}: {n_frames} frames, outside "
                                 f"[1, {n_max}]")
        for y in ys:
            if not 0 <= y < vocab:
                raise IndexError(f"target id {y} outside vocabulary of {vocab}")
            if y == BLANK_ID:
                raise DimensionError("blank cannot appear in a CTC target")
        if ctc_min_frames(ys) > n_frames:
            raise ImpossibleAlignmentError(
                f"target of {len(ys)} labels needs at least "
                f"{ctc_min_frames(ys)} frames, got {n_frames}")

    z, s_lens = T.pad_batch([expand_with_blanks(ys) for ys in targets],
                            BLANK_ID)
    s_max = z.shape[1]
    rows = np.arange(n_b)
    state_ok = T.length_mask(s_lens, s_max)
    # (frames, B, states); states past a row's labels can never be entered
    uz = np.where(state_ok, u[rows[:, None], :, z].transpose(2, 0, 1), -np.inf)
    # state s may also be entered from s - 2, skipping a blank, unless it
    # is a blank itself or repeats the label two states back; the skip
    # term adds 0 where allowed and -inf where not
    skip = np.full((n_b, s_max), -np.inf)
    skip[:, 2:][(z[:, 2:] != BLANK_ID) & (z[:, 2:] != z[:, :-2])] = 0.0

    # two -inf columns pad the state axis, before it for alpha and after
    # it for beta, so the s - 1, s - 2 (s + 1, s + 2) neighbours are slices
    a = np.full((n_max, n_b, s_max + 2), -np.inf)
    a[0, :, 2:4] = uz[0, :, :2]
    for t in range(1, n_max):
        p = a[t - 1]
        a[t, :, 2:] = np.logaddexp(np.logaddexp(p[:, 2:], p[:, 1:-1]),
                                   p[:, :-2] + skip) + uz[t]
    alpha = a[:, :, 2:]
    # a complete labeling ends in the last label or the blank after it
    last = frames - 1
    end = alpha[last, rows]
    second = np.where(s_lens > 1, end[rows, np.maximum(s_lens - 2, 0)], -np.inf)
    logp = np.logaddexp(end[rows, s_lens - 1], second)

    skip_on = np.full((n_b, s_max), -np.inf)   # state s may move on to s + 2
    skip_on[:, :-2] = skip[:, 2:]
    finals = ~T.length_mask(s_lens - 2, s_max) & state_ok
    # frame n_max stays at -inf: a row's recursion starts at its last frame
    b_pad = np.full((n_max + 1, n_b, s_max + 2), -np.inf)
    for t in range(n_max - 1, -1, -1):
        nx = b_pad[t + 1]
        b_pad[t, :, :-2] = np.logaddexp(
            np.logaddexp(nx[:, :-2], nx[:, 1:-1]), nx[:, 2:] + skip_on) + uz[t]
        ends = last == t
        if ends.any():
            b_pad[t, ends, :-2] = np.where(finals[ends], uz[t, ends], -np.inf)
    beta = b_pad[:n_max, :, :-2]

    def grad(g):
        # alpha and beta both include u[t, z[s]]; remove one copy (states
        # past a row's labels have alpha = beta = -inf and add nothing)
        post = np.exp(alpha + beta - np.where(state_ok, uz, 0.0) - logp[:, None])
        out = np.zeros((n_max, n_b, vocab))
        np.add.at(out, (slice(None), rows[:, None], z), post)
        out *= np.reshape(g, n_b)[:, None]
        return out.transpose(1, 0, 2).reshape(log_probs.shape)

    return T.from_op(log_probs, logp, grad)


def joint_asr_loss(s2s_nll: Tensor, ctc_nll: Tensor, alpha: float) -> Tensor:
    """alpha-weighted sum of the attention and CTC negative
    log-likelihoods."""
    return s2s_nll * alpha + ctc_nll * (1.0 - alpha)


def tts_l1(coarse: Tensor, refined: Tensor, target: np.ndarray,
           lens: Sequence[int], denom: Optional[float] = None) -> Tensor:
    """Mean absolute error against the target frames, summed over the
    pre-Postnet and post-Postnet predictions. Of a padded batch, (B,
    n_max, d), it reads each row's first lens[b] frames only; the mean is
    over the frames read unless `denom` replaces it."""
    target = np.asarray(target, dtype=np.float64)
    if coarse.shape != target.shape or refined.shape != target.shape:
        raise DimensionError(f"prediction shapes {coarse.shape}/{refined.shape} "
                             f"do not match target {target.shape}")
    keep = Tensor(T.length_mask(lens, target.shape[-2])[..., None])
    n_real = int(np.sum(lens)) * target.shape[-1]
    denom = float(n_real) if denom is None else float(denom)
    tgt = Tensor(target)

    def err(pred: Tensor) -> Tensor:
        return ((pred - tgt).abs() * keep).sum()

    return (err(coarse) + err(refined)) / denom


def weighted_bce(eos_logits: Tensor, eos_targets, lens: Sequence[int],
                 pos_weight: float = 5.0,
                 denom: Optional[float] = None) -> Tensor:
    """Binary cross-entropy on the stop flag with positives up-weighted,
    computed through log-sigmoid for stability at large logits. Of a
    padded batch of logits, (B, S_max), with targets of the same shape,
    it reads each row's first lens[b] steps only; the mean is over the
    steps read unless `denom` replaces it."""
    y = np.asarray(eos_targets, dtype=np.float64)
    if eos_logits.shape != y.shape:
        raise DimensionError(f"{eos_logits.shape} logits for {y.shape} targets")
    keep = T.length_mask(lens, y.shape[-1])
    n_real = int(np.sum(lens))
    denom = float(n_real) if denom is None else float(denom)
    pos = T.log_sigmoid(eos_logits) * Tensor(pos_weight * y * keep)
    neg = T.log_sigmoid(-eos_logits) * Tensor((1.0 - y) * keep)
    return -(pos + neg).sum() / denom


def guided_attention_weight(n_dec: int, n_enc: int, g: float = 0.4) -> np.ndarray:
    """Penalty mask that is 0 on the time-normalized diagonal and grows
    toward 1 away from it."""
    t = np.arange(n_dec)[:, None] / n_dec
    u = np.arange(n_enc)[None, :] / n_enc
    return 1.0 - np.exp(-((u - t) ** 2) / (2.0 * g * g))


def guided_attention_loss(att: Tensor, n_dec: Sequence[int],
                          n_enc: Sequence[int], g: float = 0.4) -> Tensor:
    """Per-row penalty mass averaged over the selected heads, summed over
    the utterances of a batch.

    att holds K selected heads of B utterances, (B, K, S_max, n_max);
    utterance b reads its first n_dec[b] decoder steps and n_enc[b]
    encoder positions. Each attention row is a
    distribution, so a head's value sum(A * W) / n_dec is the expected
    penalty under the attention, averaged over decoder steps. The whole
    batch is one product with a (B, 1, S_max, n_max) weight whose row b
    holds W / n_dec[b] and is zero elsewhere.
    """
    if att.ndim != 4 or att.shape[1] == 0:
        raise DimensionError(f"guided attention needs (B, K >= 1, n_dec, "
                             f"n_enc) heads, got {att.shape}")
    n_b, n_heads, s_max, n_max = att.shape
    w = np.zeros((n_b, 1, s_max, n_max))
    for b, (s, n) in enumerate(zip(n_dec, n_enc)):
        w[b, 0, :s, :n] = guided_attention_weight(s, n, g) / s
    return (att * Tensor(w)).sum() / n_heads

