"""Per-layer metrics of a traced run, built from the probe's spans and counts.

Denominators:

- `_per_utt`: per operation of the traced execution (a trained
  utterance per epoch, a decoded utterance or a synthesised text),
  from spans of the timed part only, not of the set-up.
- `_per_frame`: per synthesised frame of the named synth length.
- `_per_call`, `_per_step`, `_per_epoch`: mean over every call in the
  traced run, set-up included, so that set-up work shows as well.

`self_ms` is a span's time minus the time of the spans inside it; the
other `ms` figures are whole spans. A layer the workload never calls
reads 0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

SETUP = "setup"


class Summary:
    def __init__(self, stats, counts: Dict[str, int], ops: int,
                 frames: Dict[str, int], output_tokens: int,
                 overhead_s: float, untraced_s: float, n_spans: int):
        self.stats = stats
        self.counts = counts
        self.ops = max(ops, 1)
        self.frames = frames
        self.output_tokens = output_tokens
        self.overhead_s = overhead_s
        self.untraced_s = untraced_s
        self.n_spans = n_spans

    def _sum(self, name: str, col: int, phases=None, setup=False) -> float:
        total = 0.0
        for (phase, span), st in self.stats.items():
            if span != name:
                continue
            if phases is not None and phase not in phases:
                continue
            if phase == SETUP and not setup:
                continue
            total += st[col]
        return total

    def per_utt(self, name: str, col: int = 1) -> float:
        return 1000.0 * self._sum(name, col) / self.ops

    def per_frame(self, name: str, phase: str) -> float:
        frames = self.frames.get(phase, 0)
        return 1000.0 * self._sum(name, 1, {phase}) / frames if frames else 0.0

    def per_call(self, name: str, col: int = 1) -> float:
        calls = self._sum(name, 0, setup=True)
        return 1000.0 * self._sum(name, col, setup=True) / calls \
            if calls else 0.0

    def count_per_utt(self, key: str) -> float:
        return self.counts.get(key, 0) / self.ops

    def tokens_per_extend(self) -> float:
        calls = self.counts.get("extend_calls", 0)
        return self.output_tokens / calls if calls else 0.0


SELF, TOTAL = 2, 1

# name -> (unit, better, value)
Metric = Tuple[str, str, Callable[[Summary], float]]


def _table() -> Dict[str, Metric]:
    t: Dict[str, Metric] = {}

    def ms_utt(name, span, col=TOTAL):
        t[name] = ("ms/utt", "lower", lambda s: s.per_utt(span, col))

    def ms_call(name, span, unit="ms/call", col=TOTAL):
        t[name] = (unit, "lower", lambda s: s.per_call(span, col))

    t["tensor.ops_per_utt"] = ("ops/utt", "lower",
                               lambda s: s.count_per_utt("tape_ops"))
    ms_utt("tensor.backward.ms_per_utt", "tensor.backward")
    for cls in ("LSTM", "LSTMCell", "MultiHeadAttention", "FeedForward",
                "Linear", "LayerNorm", "Conv1d"):
        ms_utt(f"nn.{cls}.self_ms_per_utt", f"nn.{cls}", SELF)
    ms_utt("attention.multi_head_attention.ms_per_utt",
           "attention.multi_head_attention")
    ms_utt("models.S2SModel.encode.ms_per_utt", "models.S2SModel.encode")
    ms_utt("models.S2SModel.decode_logprobs.ms_per_utt",
           "models.S2SModel.decode_logprobs")
    nt = "models.S2SModel.next_token_logprobs"
    t[f"{nt}.calls_per_utt"] = ("calls/utt", "lower",
                                lambda s: s.count_per_utt("next_token_calls"))
    t[f"{nt}.prefix_tokens_per_utt"] = (
        "tokens/utt", "lower", lambda s: s.count_per_utt("prefix_tokens"))
    ms_utt(f"{nt}.ms_per_utt", nt)
    lm = "models.RnnLm.next_logprobs"
    t[f"{lm}.calls_per_utt"] = ("calls/utt", "lower",
                                lambda s: s.count_per_utt("lm_calls"))
    ms_utt(f"{lm}.ms_per_utt", lm)
    ms_utt("models.TtsModel.forward_teacher.ms_per_utt",
           "models.TtsModel.forward_teacher")
    for phase in ("short", "long"):
        for span in ("models.TtsModel.infer", "models.Postnet",
                     "models.Prenet"):
            t[f"{span}.{phase}.ms_per_frame"] = (
                "ms/frame", "lower",
                lambda s, _n=span, _p=phase: s.per_frame(_n, _p))
    for body in ("TransformerEncoderBody", "TransformerDecoderBody",
                 "BlstmEncoderBody", "LstmDecoderBody"):
        ms_utt(f"models.{body}.ms_per_utt", f"models.{body}")
    for fn in ("ctc_log_likelihood", "s2s_cross_entropy",
               "guided_attention_loss"):
        ms_utt(f"losses.{fn}.ms_per_utt", f"losses.{fn}")
    ms_utt("decoding.beam_search.self_ms_per_utt", "decoding.beam_search",
           SELF)
    ext = "decoding.CtcPrefixScorer.extend"
    t[f"{ext}.calls_per_utt"] = ("calls/utt", "lower",
                                 lambda s: s.count_per_utt("extend_calls"))
    ms_utt(f"{ext}.ms_per_utt", ext)
    t["decoding.tokens_per_extend"] = ("tokens/call", "higher",
                                       Summary.tokens_per_extend)
    ms_call("training.Adam.step.ms_per_step", "training.Adam.step", "ms/step")
    ms_call("training.evaluate_dev.ms_per_epoch", "training.evaluate_dev",
            "ms/epoch")
    for span in ("training.save_checkpoint", "training.average_checkpoints",
                 "data.gen_toy", "data.load_dataset", "metrics.cer"):
        ms_call(f"{span}.ms_per_call", span)
    for cmd in ("gen-data", "train", "decode", "eval", "synth"):
        ms_call(f"cli.{cmd}.self_ms_per_call", f"cli.{cmd}", col=SELF)
    t["trace.overhead_s"] = ("s", "lower", lambda s: s.overhead_s)
    t["trace.overhead_share"] = (
        "share", "lower",
        lambda s: s.overhead_s / s.untraced_s if s.untraced_s else 0.0)
    t["trace.spans"] = ("count", "lower", lambda s: float(s.n_spans))
    return t


TABLE = _table()


def per_layer_metrics(summary: Summary) -> Dict[str, dict]:
    return {name: {"value": float(fn(summary)), "unit": unit}
            for name, (unit, _better, fn) in TABLE.items()}


def declared() -> List[dict]:
    """The per_layer entries of BENCHMARK.json, in table order."""
    return [{"name": name, "unit": unit, "better": better}
            for name, (unit, better, _fn) in TABLE.items()]
