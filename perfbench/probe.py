"""Counters and spans recorded from outside minis2s.

The benchmark never edits the program. It replaces functions with thin
wrappers at the place where each is looked up at call time: a method on
its class, or a function in the module namespace that calls it. The
`cli` and `training` modules import `beam_search`, `backward`,
`build_model`, `load_dataset` and friends by name, so those are wrapped
in the importing module, not where they are defined.

Two sets of wrappers exist:

- counting: cheap call counters for the exact-repeat work counts (tape
  ops, decoder and LM scoring calls, CTC prefix extensions). They are
  installed in every run, traced or not.
- tracing: the counting set plus a span around every call into a layer.
  A span records its name, start, end, parent span and utterance id.
  Spans stay in memory until `write_spans` is called at the end of the
  run. Self time is a span's duration minus the time its child spans
  cover, accumulated as spans close.

A name whose target no longer exists (a later refactor renamed it) is
skipped and listed in `missing`; the metrics built on it then read 0.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from minis2s import (attention, cli, decoding, losses, models, nn, tensor,
                     training)

_clock = time.perf_counter


class Probe:
    def __init__(self):
        self.counts: Counter = Counter()
        self.tracing = False
        self.phase = "setup"          # "setup", or an exec phase label
        self.utt = ""                 # utterance id of the current work
        self.spans: List[Tuple] = []  # (id, parent, name, phase, utt, t0, t1)
        # (phase, name) -> [calls, total seconds, self seconds]
        self.stats: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.missing: List[str] = []
        self._stack: List[list] = []  # [span id, t0, child seconds]
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._feat_ids: Dict[int, str] = {}

    # -- counters ------------------------------------------------------

    def take_counts(self) -> Dict[str, int]:
        """Return the counts since the last call and start again at 0."""
        out = dict(self.counts)
        self.counts.clear()
        return out

    # -- spans ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, _clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            self._stack.pop()
            dur = t1 - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            st = self.stats[(self.phase, name)]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            self.spans.append((sid, parent, name, self.phase, self.utt,
                               frame[1], t1))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tphase\tutt\tstart_s\tend_s\n")
            for sid, parent, name, phase, utt, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{phase}\t{utt}\t"
                         f"{t0:.9f}\t{t1:.9f}\n")

    # -- installing wrappers -------------------------------------------

    def _wrap(self, owner, attr: str, name, count: Optional[Callable] = None,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None, traced: bool = True) -> None:
        orig = vars(owner).get(attr)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        probe = self
        span = traced and self.tracing
        name_of = name if callable(name) else (lambda args, _n=name: _n)

        def wrapper(*args, **kwargs):
            if count is not None:
                count(probe.counts, args)
            if before is not None:
                before(args)
            if span:
                result = probe._span(name_of(args), orig, args, kwargs)
            else:
                result = orig(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self, tracing: bool) -> None:
        """Wrap the counting set, plus the span set when `tracing`."""
        self.uninstall()
        self.missing.clear()
        self.tracing = tracing
        self._install_counting()
        if tracing:
            self._install_spans()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.tracing = False

    def _install_counting(self) -> None:
        def tape_ops(c, args):
            c["tape_ops"] += getattr(args[0], "op_count", 0)

        def next_token(c, args):
            c["next_token_calls"] += 1
            c["prefix_tokens"] += (len(args[2]) if len(args) > 2 else 0) + 1

        def extend(c, args):
            c["extend_calls"] += 1

        def lm_call(c, args):
            c["lm_calls"] += 1

        self._wrap(tensor.Graph, "__exit__", "tensor.Graph", count=tape_ops,
                   traced=False)
        self._wrap(models.S2SModel, "next_token_logprobs",
                   "models.S2SModel.next_token_logprobs", count=next_token)
        self._wrap(decoding.CtcPrefixScorer, "extend",
                   "decoding.CtcPrefixScorer.extend", count=extend)
        self._wrap(models.RnnLm, "next_logprobs", "models.RnnLm.next_logprobs",
                   count=lm_call)

    def _install_spans(self) -> None:
        w = self._wrap
        # cli: one span per command, plus the functions it imports by name
        for cmd in ("gen_data", "train", "decode", "eval", "synth"):
            w(cli, f"cmd_{cmd}", f"cli.{cmd.replace('_', '-')}")
        w(cli, "gen_toy", "data.gen_toy")
        w(cli, "load_dataset", "data.load_dataset", after=self._remember_utts)
        w(cli, "build_model", "models.build_model")
        w(cli, "beam_search", "decoding.beam_search")
        w(cli, "cer", "metrics.cer")
        w(cli, "train_loop", "training.train_loop")
        w(cli, "train_lm", "training.train_lm")
        for owner in (cli, training):
            w(owner, "save_checkpoint", "training.save_checkpoint")
            w(owner, "average_checkpoints", "training.average_checkpoints")
        w(cli, "load_checkpoint", "training.load_checkpoint")
        # training internals looked up as module globals of training
        w(training, "backward", "tensor.backward")
        w(training, "evaluate_dev", "training.evaluate_dev")
        w(training, "_asr_utt_loss", "training.utt_loss",
          before=self._utt_from_arg)
        w(training, "_tts_utt_loss", "training.utt_loss",
          before=self._utt_from_arg)
        w(training.Adam, "step", "training.Adam.step")
        w(tensor, "backward", "tensor.backward")
        # losses, looked up as `L.<name>` by training
        for fn in ("ctc_log_likelihood", "s2s_cross_entropy",
                   "guided_attention_loss", "tts_l1", "weighted_bce"):
            w(losses, fn, f"losses.{fn}")
        # attention, looked up as `A.<name>` by nn and models
        w(attention, "multi_head_attention", "attention.multi_head_attention")
        # every module call, named by the class and its layer
        w(nn.Module, "__call__", _module_span_name)
        # model entry points
        w(models.S2SModel, "encode", "models.S2SModel.encode",
          before=self._utt_from_feats)
        w(models.S2SModel, "decode_logprobs",
          "models.S2SModel.decode_logprobs")
        w(models.S2SModel, "ctc_logprobs", "models.S2SModel.ctc_logprobs")
        w(models.TtsModel, "encode", "models.TtsModel.encode")
        w(models.TtsModel, "forward_teacher",
          "models.TtsModel.forward_teacher")
        w(models.TtsModel, "infer", "models.TtsModel.infer")
        w(models.RnnLm, "full_logprobs", "models.RnnLm.full_logprobs")

    # -- utterance ids -------------------------------------------------

    def _utt_from_arg(self, args) -> None:
        utt = args[1] if len(args) > 1 else None
        self.utt = getattr(utt, "utt_id", self.utt)

    def _remember_utts(self, args, result) -> None:
        # decode passes utt.feats itself to the model; map it back to the id
        utts = result[0] if isinstance(result, tuple) else []
        self._feat_ids = {id(u.feats): u.utt_id for u in utts}

    def _utt_from_feats(self, args) -> None:
        x = args[1] if len(args) > 1 else None
        self.utt = self._feat_ids.get(id(getattr(x, "data", None)), self.utt)


_module_names: Dict[type, str] = {}


def _module_span_name(args) -> str:
    cls = type(args[0])
    name = _module_names.get(cls)
    if name is None:
        name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}"
        _module_names[cls] = name
    return name
