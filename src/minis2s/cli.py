"""Command line front end.

Subcommands cover the whole loop: gen-data, train, decode, eval,
avg-ckpt, synth, report. Exit codes: 0 success, 1 configuration or
usage error, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import attention as A
from . import tensor as T
from .config import (dump_experiment_config, load_experiment_config,
                     load_toy_spec)
from .data import (Vocab, gen_toy, load_dataset, read_id_lines, read_text,
                   save_dataset, toy_vocab, write_feature_file)
from .decoding import batch_beam_search
from .errors import ConfigError, DataError, NumericError
from .metrics import bleu, cer, wer
from .models import build_model, pad_sequences
from .nn import from_checkpoint
from .training import (LOG_COLUMNS, average_checkpoints, check_lengths,
                       load_checkpoint, load_into_model, save_checkpoint,
                       train_lm, train_loop)

# The hypothesis rows one batched decode step covers, at most: decode
# searches groups of SEARCH_ROWS // beam utterances together.
SEARCH_ROWS = 256


def _emit(lines: List[str], out_path: Optional[str]) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise DataError(f"no such {what}: {path}")
    return path


def cmd_gen_data(args) -> int:
    spec = load_toy_spec(args.spec)
    splits = gen_toy(spec)
    vocab = toy_vocab(spec)
    save_dataset(args.out, splits, vocab)
    counts = ", ".join(f"{k}={len(v)}" for k, v in splits.items())
    print(f"wrote {spec.task} dataset to {args.out} ({counts})")
    return 0


def _build(cfg_path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a model too large to allocate refused
    as a config error naming cfg_path; a ConfigError passes unchanged."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ConfigError(f"{cfg_path}: cannot build the model it "
                          f"describes ({exc})") from None


def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    # model.cfg carries the beam section to decode, so it is checked too
    cfg.train.validate()
    cfg.beam.validate()
    train_utts, vocab = load_dataset(args.data, "train")
    dev_utts, _ = load_dataset(args.data, "dev", vocab=vocab)
    if not train_utts:
        raise DataError("empty training split")
    # resolve data-dependent sizes before the snapshot is written
    cfg.model.vocab_size = len(vocab)
    cfg.model.feat_dim = int(train_utts[0].feats.shape[1])
    model = _build(args.config, build_model, cfg.model)
    # refuse what the model cannot take before anything is written
    check_lengths(model, train_utts, "train")
    check_lengths(model, dev_utts, "dev")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "model.cfg"), "w",
              encoding="utf-8") as fh:
        fh.write(dump_experiment_config(cfg))
    vocab.save(os.path.join(args.out, "vocab.txt"))
    if cfg.model.task == "lm":
        losses = train_lm(model, [list(u.tokens) for u in train_utts],
                          epochs=cfg.train.epochs, seed=cfg.train.seed)
        lm_path = os.path.join(args.out, "lm.esc")
        save_checkpoint(lm_path, model, epoch=cfg.train.epochs)
        print(f"lm loss: {losses[0]:.4f} -> {losses[-1]:.4f} "
              f"over {len(losses)} epochs")
        print(f"wrote {lm_path}")
        return 0
    result = train_loop(model, train_utts, dev_utts, cfg.train, args.out)
    dev = result.dev_losses
    print(f"trained {len(result.ckpt_paths)} epochs; "
          + (f"dev loss {dev[0]:.4f} -> {dev[-1]:.4f}" if dev
             else "no dev split, so no dev loss"))
    if result.stopped_early:
        print("stopped early")
    print(f"averaged checkpoint: {result.avg_path}")
    return 0


def _beside(path: str, name: str) -> str:
    """The file `name` in the directory of file `path`."""
    return os.path.join(os.path.dirname(os.path.abspath(path)), name)


def _load_model_from(ckpt_path: str, config_override: Optional[str] = None):
    """The model of a run directory's checkpoint, built from the model.cfg
    beside it (or config_override) and put in eval mode, that config, and
    the vocab.txt beside it, which must hold vocab_size tokens.

    The checkpoint is read first, and the model is built under
    nn.from_checkpoint, undrawn and refused if far larger than it; then
    load_into_model refuses a checkpoint that lacks a parameter or holds
    one of another shape, or writes every parameter."""
    _require_file(ckpt_path, "checkpoint")
    cfg_path = config_override or _beside(ckpt_path, "model.cfg")
    cfg = load_experiment_config(cfg_path)
    ckpt = load_checkpoint(ckpt_path)
    with from_checkpoint(sum(v.size for v in ckpt.params.values()),
                         cfg_path, ckpt_path):
        model = _build(cfg_path, build_model, cfg.model)
    load_into_model(model, ckpt, ckpt_path)
    model.eval()
    vocab_path = _require_file(_beside(ckpt_path, "vocab.txt"),
                               "vocabulary beside the checkpoint")
    vocab = Vocab.load(vocab_path)
    if len(vocab) != cfg.model.vocab_size:
        raise DataError(f"{vocab_path} holds {len(vocab)} tokens, but "
                        f"{cfg_path} says vocab_size = "
                        f"{cfg.model.vocab_size}")
    return model, cfg, vocab


def cmd_decode(args) -> int:
    if args.nbest < 1:
        raise ConfigError(f"--nbest must be at least 1, got {args.nbest}")
    model, cfg, vocab = _load_model_from(args.ckpt, args.config)
    if model.config.task not in ("asr", "st"):
        raise ConfigError("decode handles recognition and translation; "
                          "use synth for tts checkpoints and --lm for "
                          "language models")
    if args.beam is not None:
        cfg.beam.beam_size = args.beam
    if args.lam is not None:
        cfg.beam.lam = args.lam
    if args.gamma is not None:
        cfg.beam.gamma = args.gamma
    cfg.beam.validate()
    lm = None
    if args.lm:
        lm, _, lm_vocab = _load_model_from(args.lm)
        if lm.config.task != "lm":
            raise ConfigError(f"--lm {args.lm}: a run of task = "
                              f"{lm.config.task}, not lm")
        if lm_vocab.tokens != vocab.tokens:
            raise DataError(f"the language model's vocabulary "
                            f"{_beside(args.lm, 'vocab.txt')} differs from "
                            f"the model's {_beside(args.ckpt, 'vocab.txt')}")
    utts, _ = load_dataset(args.data, args.split, vocab=vocab)
    if not utts:
        raise DataError(f"{args.split} split of {args.data} holds no "
                        "utterances")
    check_lengths(model, utts, args.split, training=False)
    # length-sorted groups, so padding stays short; each group is one
    # padded encode and one batched search
    group = max(1, SEARCH_ROWS // cfg.beam.beam_size)
    order = sorted(range(len(utts)), key=lambda i: utts[i].feats.shape[0])
    results = [None] * len(utts)
    for start in range(0, len(order), group):
        idx = order[start:start + group]
        with T.no_grad(), T.Graph(seed=0):
            enc = model.encode(*pad_sequences([utts[i].feats for i in idx]))
            try:
                found = batch_beam_search(enc, model, lm=lm, config=cfg.beam,
                                          ids=[utts[i].utt_id for i in idx])
            except MemoryError as exc:
                # a beam keeps up to beam_size rows per utterance, so a
                # huge one multiplies the live rows until an allocation
                # fails
                where = ("--beam" if args.beam is not None else
                         args.config or _beside(args.ckpt, "model.cfg"))
                raise ConfigError(f"beam_size = {cfg.beam.beam_size} (set "
                                  f"by {where}) holds more hypotheses than "
                                  f"memory does ({exc})") from None
        for i, result in zip(idx, found):
            results[i] = result
    lines = []
    for utt, result in zip(utts, results):
        for hyp in result.nbest[:args.nbest]:
            text = " ".join(vocab.decode(list(hyp.tokens)))
            lines.append(f"{utt.utt_id}\t{text}\t{hyp.combined!r}")
    _emit(lines, args.out)
    if args.out is not None:
        print(f"decoded {len(utts)} utterances to {args.out}")
    return 0


def _read_hyp_file(path: str) -> Dict[str, str]:
    _require_file(path, "transcript file")
    # the text is the second field; decode writes the score as a third
    out = {utt_id: rest[0] for utt_id, rest
           in read_id_lines(path, "text").items()}
    if not out:
        raise DataError(f"{path} holds no transcripts")
    return out


def cmd_eval(args) -> int:
    refs = _read_hyp_file(args.ref)
    hyps = _read_hyp_file(args.hyp)
    if set(refs) != set(hyps):
        missing = sorted(set(refs) ^ set(hyps))[:5]
        raise DataError(f"utterance ids differ between ref and hyp "
                        f"(first few: {missing})")
    ids = sorted(refs)
    ref_list = [refs[i] for i in ids]
    hyp_list = [hyps[i] for i in ids]
    fn = {"wer": wer, "cer": cer, "bleu": bleu}[args.metric]
    value = fn(ref_list, hyp_list)
    print(f"{args.metric} = {float(value)!r}")
    return 0


def cmd_avg_ckpt(args) -> int:
    for path in args.inputs:
        _require_file(path, "checkpoint")
    ckpt = average_checkpoints(args.inputs)
    save_checkpoint(args.out, ckpt.params, epoch=ckpt.epoch)
    print(f"averaged {len(args.inputs)} checkpoints into {args.out}")
    return 0


def cmd_synth(args) -> int:
    model, cfg, vocab = _load_model_from(args.ckpt, args.config)
    if model.config.task != "tts":
        raise ConfigError("synth needs a tts checkpoint")
    tokens = args.text.split()
    if not tokens:
        raise DataError("empty input text")
    ids = vocab.encode(tokens)
    # one decoder step per r frames, each at its own positional row
    max_ok = A.MAX_PE_LEN * model.config.reduction_factor
    if not 1 <= args.max_frames <= max_ok:
        raise ConfigError(f"--max-frames must lie in [1, {max_ok}], "
                          f"got {args.max_frames}")
    frames, reason = model.infer(ids, eos_threshold=args.eos_threshold,
                                 max_frames=args.max_frames,
                                 seed=cfg.model.seed)
    write_feature_file(args.out, np.asarray(frames))
    print(f"wrote {frames.shape[0]} frames to {args.out} (stop={reason})")
    return 0


def cmd_report(args) -> int:
    _require_file(args.log, "training log")
    reader = csv.DictReader(read_text(args.log).split("\n"))
    if reader.fieldnames != LOG_COLUMNS:
        raise DataError(f"{args.log} is not a training log "
                        f"(columns {reader.fieldnames})")
    steps, epochs, totals = [], [], []
    for r in reader:
        where = f"{args.log} line {reader.line_num}"
        if None in r or None in r.values():
            raise DataError(f"{where}: expected {len(LOG_COLUMNS)} fields")
        try:
            epochs.append(int(r["epoch"]))
            totals.append(float(r["total"]))
        except ValueError:
            raise DataError(f"{where}: want a whole epoch and a numeric "
                            f"total, got {r['epoch']!r} and {r['total']!r}") \
                from None
        steps.append(r["step"])
    if not steps:
        raise DataError(f"{args.log} holds no steps")
    best = min(range(len(totals)), key=lambda i: totals[i])
    print(f"steps: {len(steps)}  epochs: {epochs[-1]}")
    print(f"total loss: first {totals[0]:.6f}  last {totals[-1]:.6f}  "
          f"min {totals[best]:.6f} (step {steps[best]})")
    if args.per_epoch:
        by_epoch: Dict[int, List[float]] = {}
        for epoch, total in zip(epochs, totals):
            by_epoch.setdefault(epoch, []).append(total)
        print("epoch  steps  mean_total")
        for epoch in sorted(by_epoch):
            vals = by_epoch[epoch]
            print(f"{epoch:>5}  {len(vals):>5}  {sum(vals)/len(vals):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minis2s",
        description="speech sequence-to-sequence toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a toy dataset")
    p.add_argument("--spec", required=True, help="toy spec config file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="beam-search decode a split")
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", default="test")
    p.add_argument("--config", default=None,
                   help="override the model.cfg beside the checkpoint")
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="attention/ctc interpolation weight")
    p.add_argument("--gamma", type=float, default=None,
                   help="language model fusion weight")
    p.add_argument("--lm", default=None, help="language model checkpoint")
    p.add_argument("--nbest", type=int, default=1,
                   help="hypotheses written per utterance, best first; "
                   "at least 1, and capped at the beam size")
    p.add_argument("--out", default=None, help="hypothesis file (stdout "
                   "when omitted)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score hypotheses against references")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--metric", required=True, choices=("wer", "cer", "bleu"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("avg-ckpt", help="average checkpoints")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_avg_ckpt)

    p = sub.add_parser("synth", help="synthesize features from text")
    p.add_argument("--ckpt", required=True, help="tts checkpoint")
    p.add_argument("--text", required=True, help="space separated tokens")
    p.add_argument("--out", required=True, help="output feature file")
    p.add_argument("--config", default=None)
    p.add_argument("--eos-threshold", type=float, default=0.5)
    p.add_argument("--max-frames", type=int, default=400)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="summarize a training log")
    p.add_argument("--log", required=True, help="training CSV log")
    p.add_argument("--per-epoch", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # unreadable/unwritable paths surface here, not as DataError
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
