"""Optimization and the training loop: warmup schedule, Adam and
Adadelta, gradient accumulation, binary checkpoints with averaging,
early stopping, feature masking, and a deterministic CSV-logged loop.

A batch is one padded forward and one backward, for ASR, ST and TTS,
and batch_loss(model, batch, whole) is the one loss call: an ASR/ST
batch's frames go in as one (B, n_max, feat_dim) array
(models.pad_sequences), a TTS batch's texts as one (B, n_max) id array
and its targets as one (B, N_max, feat_dim) array, so every tape op of
the encoder, the decoder and the losses covers the whole batch. The dev
loss runs the same way in length-sorted batches of DEV_BATCH. Dropout
masks are drawn once per batch from the step's seeded Graph; feature
masking is seeded per utterance, as before batching.

The fusion LM (`task = lm`) is built, checked and snapshotted like any
other model, but trains in its own loop, train_lm: one sequence per
step, as a batch of one, with Adam at a fixed rate, and one checkpoint,
lm.esc, at the end. Of the training settings it reads `epochs` and the
seed (`train_seed`); the others are not yet applied to it, and it
writes no log.csv and computes no dev loss. A non-finite loss or
gradient norm stops it with a NumericError, as it stops train_loop, so
`train` exits 3 before lm.esc is written.

batch_loss normalizes by the token (ASR/ST) or element and step (TTS)
counts of `whole`: the batch itself in train_loop, the dev set in
evaluate_dev, or the big batch whose micro-batches accumulate, so that
splitting a batch accumulates to exactly the big-batch update.

Adam and Adadelta own the weights' memory: they pack the parameters,
in named_parameters order, into one float64 vector whose views become
each p.data (nn.pack_parameters). Gradients live in one flat vector of
the same layout: each p.grad_buffer is its view of it, so the backward
writes each parameter's first gradient there and adds the rest in
place, and a step copies nothing. A step takes the gradient norm as one
dot product over the vector and updates in place, in cache-sized blocks
of UPDATE_BLOCK floats. Weights and checkpoints are bit-identical to a
per-array update; only the logged grad_norm's last bits follow the dot
product's summation order.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Mapping, Sequence,
                    Tuple)

import numpy as np

from . import losses as L
from . import tensor as T
from .errors import (ConfigError, DataError, NumericError, check_settings,
                     setting)
from .models import pad_sequences
from .nn import flat_views, pack_parameters
from .reserved import SOS_EOS_ID
from .tensor import Tensor, backward

CKPT_MAGIC = b"ESC2"
LOG_COLUMNS = ["step", "epoch", "lr", "total", "s2s", "ctc", "l1", "bce",
               "guided", "grad_norm", "wall_ms"]
# utterances per padded forward of the dev loss; the value moves only
# the rounding of the sum, except where a TTS Prenet keeps its dropout
# at inference (tts-toy): there it also moves the masks drawn
DEV_BATCH = 8


def noam_lr(step: int, d_att: int, warmup: int, k: float = 1.0) -> float:
    """Width-scaled warmup-then-decay rate; peaks exactly at step=warmup."""
    if step < 1:
        raise ConfigError(f"schedule step must be >= 1, got {step}")
    return k * d_att ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


# Floats per block of the in-place optimizer update: a block's slices
# of the parameter, gradient and two state vectors plus two temporaries
# (6 x 256 KiB) stay in a 2 MiB per-core L2 cache across the update's
# ufuncs, where whole-vector ufuncs stream every vector through the
# outer caches once per ufunc. A transformer-toy update took 4.2 ms so,
# 4.9 ms unblocked and 5.5 ms in 4 Ki blocks (call overhead), on a
# 2-core Xeon. Block bounds change no result.
UPDATE_BLOCK = 32_768


class _FlatOptimizer:
    """What Adam and Adadelta share: their parameters packed into one
    vector, `flat`, a gradient vector `grad` of the same layout whose
    views are the parameters' grad_buffers, the step count t, and one
    loop over blocks of these vectors. A subclass's _update(lr) changes
    every parameter and state element in place with out= ufuncs,
    running per element the same operations in the same order as its
    per-array numpy expressions, so the weights are bit-identical to
    theirs."""

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.flat = pack_parameters(self.params)
        self.grad = np.zeros_like(self.flat)
        self._grad_views = flat_views(self.grad, self.params)
        for view, p in zip(self._grad_views, self.params):
            p.grad_buffer = view
        self._tmp = np.empty((2, min(UPDATE_BLOCK, self.flat.size)))
        self.t = 0

    def step(self, lr: float) -> float:
        """Update the parameters at rate lr from `grad` and return the
        gradient 2-norm, one dot product over it. A p.grad that is not
        its view of `grad` (set from outside, or None for zeros) is
        copied in first. A non-finite norm updates nothing: neither the
        parameters nor the state, nor t."""
        for view, p in zip(self._grad_views, self.params):
            if p.grad is not view:
                view[...] = 0.0 if p.grad is None else p.grad
        norm = math.sqrt(self.grad @ self.grad)
        if math.isfinite(norm):
            self.t += 1
            self._update(lr)
        return norm

    def _blocks(self, *state: np.ndarray):
        """Block by block: the slices of the parameter vector, of the
        gradient vector and of each state vector, then the two
        temporaries cut to the block's length."""
        n = self.flat.size
        for lo in range(0, n, UPDATE_BLOCK):
            hi = min(lo + UPDATE_BLOCK, n)
            yield ((self.flat[lo:hi], self.grad[lo:hi])
                   + tuple(s[lo:hi] for s in state)
                   + tuple(tmp[:hi - lo] for tmp in self._tmp))


class Adam(_FlatOptimizer):
    """Adam with bias correction; m and v are flat like the parameters.
    Per element, with c1 = 1 - beta1**t and c2 = 1 - beta2**t:
    m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g, and
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), both divisions kept as
    divisions."""

    def __init__(self, params: Sequence[Tensor], beta1: float = 0.9,
                 beta2: float = 0.98, eps: float = 1e-9):
        super().__init__(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def _update(self, lr: float) -> None:
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, g, m, v, a, b in self._blocks(self.m, self.v):
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(m, c1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, self.eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)


class Adadelta(_FlatOptimizer):
    """Adadelta; the accumulators eg and ex are flat like the parameters.
    Per element: eg = rho*eg + ((1-rho)*g)*g,
    delta = (-sqrt(ex + eps) / sqrt(eg + eps)) * g,
    ex = rho*ex + ((1-rho)*delta)*delta, and p += lr*delta."""

    def __init__(self, params: Sequence[Tensor], rho: float = 0.95,
                 eps: float = 1e-8):
        super().__init__(params)
        self.rho, self.eps = rho, eps
        self.eg = np.zeros_like(self.flat)
        self.ex = np.zeros_like(self.flat)

    def _update(self, lr: float) -> None:
        rho, eps = self.rho, self.eps
        for p, g, eg, ex, a, b in self._blocks(self.eg, self.ex):
            np.multiply(eg, rho, out=eg)
            np.multiply(g, 1.0 - rho, out=a)
            np.multiply(a, g, out=a)
            np.add(eg, a, out=eg)
            np.add(ex, eps, out=a)
            np.sqrt(a, out=a)
            np.negative(a, out=a)
            np.add(eg, eps, out=b)
            np.sqrt(b, out=b)
            np.divide(a, b, out=a)
            np.multiply(a, g, out=a)
            np.multiply(ex, rho, out=ex)
            np.multiply(a, 1.0 - rho, out=b)
            np.multiply(b, a, out=b)
            np.add(ex, b, out=ex)
            np.multiply(a, lr, out=a)
            np.add(p, a, out=p)


def accumulate_gradients(model, micro_losses: Iterable[Callable[[], Tensor]]) -> float:
    """Run backward over several loss closures, summing gradients.

    Each closure must normalize by the batch-global denominator; the
    summed gradients (and returned loss) then equal the single
    big-batch computation.
    """
    model.zero_grad()
    total = 0.0
    for make_loss in micro_losses:
        loss = make_loss()
        backward(loss)
        total += loss.item()
    return total


# -- checkpoints ---------------------------------------------------------------


@dataclass
class Checkpoint:
    params: "OrderedDict[str, np.ndarray]"
    epoch: int = 0


def _named_params(source) -> "OrderedDict[str, np.ndarray]":
    if isinstance(source, Mapping):
        return OrderedDict((k, np.asarray(v, dtype=np.float64))
                           for k, v in source.items())
    return OrderedDict((name, p.data) for name, p in source.named_parameters())


def save_checkpoint(path: str, source, epoch: int = 0) -> None:
    """Binary dump: magic, u32 epoch, u32 count, then per parameter a u16
    name length, the UTF-8 name, u8 rank, u32 dims, and float64 values.
    All integers little-endian; round-trip is bit-exact. The file is
    written beside `path` and renamed over it, so `path` never holds a
    partly written checkpoint."""
    params = _named_params(source)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", epoch, len(params)))
        for name, value in params.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", value.ndim))
            for dim in value.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    at = 4

    def take(n: int, what: str) -> memoryview:
        nonlocal at
        if n > len(raw) - at:
            raise DataError(f"{path}: truncated {what}")
        at += n
        return raw[at - n:at]

    if raw[:4] != CKPT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {bytes(raw[:4])!r}, "
                        f"expected {CKPT_MAGIC!r}")
    (epoch,) = struct.unpack("<I", take(4, "epoch"))
    (count,) = struct.unpack("<I", take(4, "parameter count"))
    params: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"header of parameter {i}"))
        try:
            name = str(take(name_len, f"name of parameter {i}"), "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: name of parameter {i} is not "
                            "UTF-8") from None
        (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name}"))
        payload = take(8 * math.prod(shape), f"values for {name}")
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(params[name]).all():
            raise DataError(f"{path}: {name} holds a non-finite value")
    if at < len(raw):
        raise DataError(f"{path}: trailing bytes after last parameter")
    return Checkpoint(params=params, epoch=epoch)


def average_checkpoints(paths: Sequence[str]) -> Checkpoint:
    """Arithmetic mean per parameter; optimizer state plays no part.

    Inputs are canonicalized by path so any permutation of the same
    files produces bit-identical output. Checkpoints whose parameter
    names or shapes disagree raise DataError naming both files.
    """
    if not paths:
        raise DataError("no checkpoints to average")
    paths = sorted(paths)
    ckpts = [load_checkpoint(p) for p in paths]
    first = ckpts[0].params
    for path, c in zip(paths[1:], ckpts[1:]):
        if list(c.params) != list(first):
            raise DataError(f"checkpoints {paths[0]} and {path} disagree on "
                            f"parameter names")
        for name, value in c.params.items():
            if value.shape != first[name].shape:
                raise DataError(f"{name}: shape {first[name].shape} in "
                                f"{paths[0]}, {value.shape} in {path}")
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name in first:
        out[name] = np.stack([c.params[name] for c in ckpts]).mean(axis=0)
    return Checkpoint(params=out, epoch=max(c.epoch for c in ckpts))


def load_into_model(model, ckpt: Checkpoint, path: str = "checkpoint") -> None:
    """Copy a checkpoint's values into the model's parameters; a name or
    shape mismatch raises DataError naming `path` and the first few keys."""
    have = dict(model.named_parameters())
    if set(have) != set(ckpt.params):
        extra = [n for n in ckpt.params if n not in have]
        missing = [n for n in have if n not in ckpt.params]
        raise DataError(f"{path}: checkpoint/model parameter mismatch: "
                        f"{len(extra)} not in the model {extra[:3]}, "
                        f"{len(missing)} missing {missing[:3]}")
    for name, p in have.items():
        value = ckpt.params[name]
        if p.data.shape != value.shape:
            raise DataError(f"{path}: {name}: shape {value.shape} does not "
                            f"match model {p.data.shape}")
        p.data[...] = value


# -- early stopping and augmentation -------------------------------------------


class EarlyStopping:
    """Stop once the dev loss has not improved by min_delta for
    `patience` consecutive epochs."""

    def __init__(self, patience: int = 3, min_delta: float = 1e-4):
        self.patience = patience
        self.min_delta = min_delta
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, dev_loss: float) -> bool:
        if dev_loss < self.best - self.min_delta:
            self.best = dev_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def spec_augment(x: np.ndarray, n_time_masks: int = 2, n_freq_masks: int = 2,
                 max_t: int = 8, max_f: int = 4,
                 seed: int = 0) -> np.ndarray:
    """Zero random time and frequency bands of a (frames, dims) array."""
    x = np.array(x, copy=True)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    for _ in range(n_time_masks):
        w = int(rng.integers(0, max_t + 1))
        w = min(w, n)
        start = int(rng.integers(0, n - w + 1))
        x[start:start + w, :] = 0.0
    for _ in range(n_freq_masks):
        w = int(rng.integers(0, max_f + 1))
        w = min(w, d)
        start = int(rng.integers(0, d - w + 1))
        x[:, start:start + w] = 0.0
    return x


# -- the loop -------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = setting(15, "[1, inf)")
    batch_size: int = setting(8, "[1, inf)")
    optimizer: str = setting(choices=("adam", "adadelta"))
    warmup_steps: int = setting(2000, "[1, inf)")
    noam_k: float = setting(1.0, "(0, inf)")
    adadelta_lr: float = setting(1.0, "(0, inf)")
    seed: int = setting(0, "[0, inf)", key="train_seed")
    keep_last: int = setting(5, "[1, inf)")   # checkpoint averaging window
    early_stop: bool = False
    patience: int = setting(3, "[1, inf)")
    min_delta: float = setting(1e-4, "(-inf, inf)")
    log_timing: bool = False      # wall_ms stays 0 unless set
    augment: bool = False
    n_time_masks: int = setting(2, "[0, inf)")
    n_freq_masks: int = setting(2, "[0, inf)")
    max_t: int = setting(8, "[0, inf)")
    max_f: int = setting(4, "[0, inf)")

    def validate(self) -> "TrainConfig":
        check_settings(self)
        return self


@dataclass
class TrainResult:
    ckpt_paths: List[str]
    log_path: str
    dev_losses: List[float]
    avg_path: str
    stopped_early: bool = False


def batch_loss(model, batch: Sequence, whole: Sequence
               ) -> Tuple[Tensor, Dict[str, float]]:
    """The loss of batch, one padded forward, normalized by the counts of
    whole: the batch itself, or the set or big batch it is part of, so
    that the losses of a split sum to whole's. Returns the loss and its
    log columns (LOG_COLUMNS' s2s to guided) as floats.

    ASR/ST: the joint loss over whole's target tokens, the end of
    sequence counted. TTS: L1 over whole's feature elements and BCE over
    its decoder steps, an utterance of n frames counting ceil(n/r) steps
    of r frames, plus the guided-attention loss per utterance of whole."""
    cfg = model.config
    if cfg.task == "tts":
        n_steps = sum(model.steps(len(u.feats)) for u in whole)
        enc = model.encode([u.tokens for u in batch])
        fwd = model.forward_teacher(enc, [u.feats for u in batch])
        l1 = L.tts_l1(fwd.coarse, fwd.refined, fwd.target, fwd.n_pad,
                      denom=n_steps * cfg.reduction_factor * cfg.feat_dim)
        eos_y = np.arange(fwd.eos_logits.shape[1]) == fwd.n_steps[:, None] - 1
        bce = L.weighted_bce(fwd.eos_logits, eos_y, fwd.n_steps,
                             denom=n_steps)
        guided = L.guided_attention_loss(
            model.guided_attention_records(fwd.records), fwd.n_steps,
            enc.n_sub) / len(whole)
        parts = {"l1": l1, "bce": bce, "guided": guided}
        loss = l1 + bce + guided
    else:
        n_tokens = sum(len(u.tokens) + 1 for u in whole)
        ys = [list(u.tokens) for u in batch]
        enc = model.encode(*pad_sequences([u.feats for u in batch]))
        lp = model.decode_logprobs(enc, [[SOS_EOS_ID] + y for y in ys])
        parts = {"s2s": L.s2s_cross_entropy(
            lp, [y + [SOS_EOS_ID] for y in ys], denom=n_tokens)}
        loss = parts["s2s"]
        if cfg.uses_ctc:
            ll = L.ctc_log_likelihood(model.ctc_logprobs(enc), ys, enc.n_sub)
            parts["ctc"] = -ll.sum() / n_tokens
            loss = L.joint_asr_loss(loss, parts["ctc"], cfg.alpha)
    return loss, {k: v.item() for k, v in parts.items()}


def make_batches(dataset: Sequence, batch_size: int, rng=None) -> List[List]:
    """Length-bucketed batches, by frame count, in seeded-random order
    when an rng is given and shortest first otherwise."""
    order = sorted(range(len(dataset)),
                   key=lambda i: (len(dataset[i].feats), i))
    batches = [[dataset[i] for i in order[lo:lo + batch_size]]
               for lo in range(0, len(order), batch_size)]
    if rng is not None:
        rng.shuffle(batches)
    return batches


def check_lengths(model, utts: Sequence, split: str,
                  training: bool = True) -> None:
    """Refuse utterances the model cannot take before any work starts:
    frames of another feature dimension than the model's; for ASR/ST,
    fewer frames than the speech front end needs or, when training a
    model with a CTC head, fewer subsampled frames than the CTC target
    needs (decoding never reads the targets); for TTS, an empty text or
    an empty target; for the LM, which reads the tokens only, nothing.
    Raises one DataError naming the split, the count and the first few
    utterance ids."""
    cfg = model.config
    if cfg.task == "lm":
        return
    tts = cfg.task == "tts"
    min_frames = 1 if tts else model.enc_pre.MIN_FRAMES
    bad = []
    for u in utts:
        n, dim = np.shape(u.feats)
        if dim != cfg.feat_dim:
            bad.append(f"{u.utt_id} (feature dimension {dim}, the model's "
                       f"is {cfg.feat_dim})")
        elif tts and not len(u.tokens):
            bad.append(f"{u.utt_id} (no tokens)")
        elif n < min_frames:
            bad.append(f"{u.utt_id} ({n} frames)")
        elif training and cfg.uses_ctc:
            n_sub = model.enc_pre.frames(n)
            need = L.ctc_min_frames(u.tokens)
            if n_sub < need:
                bad.append(f"{u.utt_id} ({n_sub} frames after subsampling, "
                           f"its CTC target needs {need})")
    if bad:
        need = ("at least one token and one frame" if tts else
                f"the front end needs >= {min_frames} frames")
        raise DataError(
            f"{split} split: {len(bad)} utterance(s) the model cannot "
            f"{'train on' if training else 'decode'} ({need}), first few: "
            + ", ".join(bad[:5]))


def _check_finite(value: float, what: str, epoch: int, step: int) -> float:
    """value, or a NumericError naming the epoch and step when it is a
    NaN or an infinity."""
    if not math.isfinite(value):
        raise NumericError(f"epoch {epoch} step {step}: {what} {value!r} "
                           "is not finite")
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


def evaluate_dev(model, dev_set: Sequence) -> float:
    """Mean per-token (ASR/ST) or per-element (TTS) dev loss, run in
    length-sorted batches of DEV_BATCH."""
    training = model.training
    model.eval()
    total = 0.0
    with T.no_grad(), T.Graph(seed=0):
        for batch in make_batches(dev_set, DEV_BATCH):
            total += batch_loss(model, batch, dev_set)[0].item()
    if training:
        model.train()
    return total


def train_loop(model, train_set: Sequence, dev_set: Sequence,
               tcfg: TrainConfig, out_dir: str) -> TrainResult:
    """Deterministic epoch loop: bucketed batches, each one padded
    forward and one backward, per-step CSV logging, a checkpoint per
    epoch, and a final parameter average over the last keep_last
    checkpoints."""
    tcfg.validate()
    if not train_set:
        raise DataError("empty training set")
    check_lengths(model, train_set, "train")
    check_lengths(model, dev_set, "dev")
    os.makedirs(out_dir, exist_ok=True)
    is_tts = model.config.task == "tts"
    if tcfg.optimizer == "adam":
        opt = Adam(model.parameters())
        rate = lambda t: noam_lr(t, model.config.d_att,
                                 tcfg.warmup_steps, tcfg.noam_k)
    else:
        opt = Adadelta(model.parameters())
        rate = lambda t: tcfg.adadelta_lr

    log_path = os.path.join(out_dir, "log.csv")
    stopper = EarlyStopping(tcfg.patience, tcfg.min_delta)
    ckpt_paths: List[str] = []
    dev_losses: List[float] = []
    stopped = False
    step = 0
    with open(log_path, "w", encoding="utf-8", newline="") as log_fh:
        writer = csv.writer(log_fh)
        writer.writerow(LOG_COLUMNS)
        for epoch in range(1, tcfg.epochs + 1):
            model.train()
            rng = np.random.default_rng(tcfg.seed * 1_000_003 + epoch)
            for batch in make_batches(train_set, tcfg.batch_size, rng):
                step += 1
                t0 = time.perf_counter()
                model.zero_grad()
                if tcfg.augment and not is_tts:
                    batch = [type(utt)(utt.utt_id, spec_augment(
                        utt.feats, tcfg.n_time_masks, tcfg.n_freq_masks,
                        tcfg.max_t, tcfg.max_f,
                        seed=tcfg.seed * 31 + step * 7 + i), utt.tokens)
                        for i, utt in enumerate(batch)]
                with T.Graph(seed=tcfg.seed * 999_983 + step):
                    loss, parts = batch_loss(model, batch, batch)
                    backward(loss)
                _check_finite(loss.item(), "loss", epoch, step)
                lr = rate(opt.t + 1)
                # a non-finite gradient leaves the weights as they were
                gnorm = _check_finite(opt.step(lr), "gradient norm", epoch,
                                      step)
                wall = int((time.perf_counter() - t0) * 1000) \
                    if tcfg.log_timing else 0
                writer.writerow(
                    [step, epoch, _fmt(lr), _fmt(loss.item())]
                    + [_fmt(parts.get(k, 0.0)) for k in LOG_COLUMNS[4:9]]
                    + [_fmt(gnorm), wall])
            path = os.path.join(out_dir, f"ckpt-{epoch:03d}.esc")
            save_checkpoint(path, model, epoch=epoch)
            ckpt_paths.append(path)
            if dev_set:
                dev = evaluate_dev(model, dev_set)
                dev_losses.append(dev)
                if tcfg.early_stop and stopper.update(dev):
                    stopped = True
                    break

    avg_path = os.path.join(out_dir, "avg.esc")
    avg = average_checkpoints(ckpt_paths[-tcfg.keep_last:])
    save_checkpoint(avg_path, avg.params, epoch=avg.epoch)
    return TrainResult(ckpt_paths=ckpt_paths, log_path=log_path,
                       dev_losses=dev_losses, avg_path=avg_path,
                       stopped_early=stopped)


def train_lm(lm, sequences: Sequence[Sequence[int]], epochs: int = 5,
             lr: float = 1e-2, seed: int = 0) -> List[float]:
    """Plain cross-entropy training of the fusion LM, one sequence per
    step as a batch of one; returns the per-epoch mean loss trace. A
    non-finite loss or gradient norm raises NumericError naming the
    epoch and step, as in train_loop."""
    if not sequences:
        raise DataError("empty LM training set")
    opt = Adam(lm.parameters())
    trace: List[float] = []
    step = 0
    for epoch in range(epochs):
        rng = np.random.default_rng(seed + epoch)
        order = rng.permutation(len(sequences))
        total = 0.0
        n_tok = sum(len(s) + 1 for s in sequences)
        for i in order:
            ys = list(sequences[i])
            step += 1
            lm.zero_grad()
            with T.Graph(seed=seed * 7919 + epoch * 613 + int(i)):
                lp = lm.full_logprobs([[SOS_EOS_ID] + ys])
                loss = L.s2s_cross_entropy(lp, [ys + [SOS_EOS_ID]])
                backward(loss)
            _check_finite(loss.item(), "loss", epoch + 1, step)
            _check_finite(opt.step(lr), "gradient norm", epoch + 1, step)
            total += loss.item() * (len(ys) + 1) / n_tok
        trace.append(total)
    return trace
