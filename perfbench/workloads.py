"""The benchmark's three workloads, driven through `minis2s.cli.main`.

Each workload has a set-up (timed as `setup_s`) and a timed part that
the benchmark executes two or more times. Every command runs with the
arguments a user would type, in this process through `cli.main` (set-up
`gen-data` excepted, see gen_data), so the data, config, cli and
checkpoint layers count as they do for users. The program only ever
sees the corpus that `gen-data` writes and the config files written
here.

An operation is one trained utterance (per epoch), one decoded
utterance or one synthesised text. An execution reports how many it
attempted and how many failed: a non-zero exit, a non-finite loss, an
unfinished beam, or an output that fails its check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import minis2s
from minis2s import cli
from minis2s.config import load_experiment_config
from minis2s.data import read_feature_file
from minis2s.models import build_model
from minis2s.training import load_checkpoint, load_into_model
from speed import Speed

SRC = os.path.dirname(os.path.dirname(os.path.abspath(minis2s.__file__)))

# Loss columns of log.csv that must stay finite.
LOSS_COLUMNS = ("total", "s2s", "ctc", "l1", "bce", "guided", "grad_norm")

# CER bounds for the decode-asr models, fixed from the seed code: over
# seeds 1-10 the transformer read 0-0.11 and the rnn 0-0.008. A model
# that learned nothing reads about 1.
CER_BOUND = {"transformer": 0.3, "rnn": 0.3}


@dataclass
class CliRun:
    rc: int
    out: str
    seconds: float
    warnings: List[str]


def run_cli(argv: List[str], speed: Speed) -> CliRun:
    """One `minis2s` command in this process, stdout captured; its time
    leaves out the speed sampler's."""
    mark = speed.mark()
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - t0 - speed.spent_since(mark)
    return CliRun(rc, out.getvalue(), seconds,
                  [str(w.message) for w in caught])


@dataclass
class Outcome:
    """What one execution of a workload's timed part produced."""

    times: Dict[str, float] = field(default_factory=dict)    # ms per op
    # the same timings scaled to the reference machine speed (speed.py)
    scaled: Dict[str, float] = field(default_factory=dict)
    quality: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    # job -> failed operations; the checks of one job overlap, so a job
    # counts its largest failure, not their sum
    failed_ops: Dict[str, int] = field(default_factory=dict)
    # relative path -> (job, operations of that job)
    artifacts: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    output_tokens: int = 0
    frames: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failed_ops.values())

    def timing(self, name: str, seconds: float, ops: int,
               scale: float) -> None:
        self.times[name] = 1000.0 * seconds / ops
        self.scaled[name] = self.times[name] * scale

    def fail(self, job: str, n: int, why: str) -> None:
        self.failed_ops[job] = max(self.failed_ops.get(job, 0), n)
        self.problems.append(why)


def write_text(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def tree_digest(root: str) -> str:
    """Digest of every file name and its bytes under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def count_lines(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def read_transcripts(path: str) -> List[Tuple[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t", 1)) for line in fh
                if line.strip()]


def gen_data(task: str, seed: int, out: str, speed: Speed, extra: str = "",
             in_process: bool = False) -> None:
    """`minis2s gen-data` as its own process, as a user runs it from the
    shell, so set-up also pays for starting Python and importing the
    toolkit. Writing the corpus's few hundred small files takes 15 ms or
    five times that, in spells, on a shared host; the imports make the
    set-up mostly CPU work, which the speed scaling covers. A traced run
    passes `in_process` so that the data layer's spans are recorded."""
    spec = write_text(out + ".spec", f"task = {task}\nseed = {seed}\n{extra}")
    argv = ["gen-data", "--spec", spec, "--out", out]
    if in_process:
        rc = run_cli(argv, speed).rc
    else:
        with speed.paused():  # the sampler would run beside the child
            rc = subprocess.run(
                [sys.executable, "-m", "minis2s.cli"] + argv,
                env=dict(os.environ, PYTHONPATH=SRC),
                stdout=subprocess.DEVNULL, timeout=120).returncode
    if rc != 0:
        raise RuntimeError(f"gen-data {task} exited {rc}")


# -- training -----------------------------------------------------------------


def train(cfg_text: str, data: str, out: str, res: Outcome, label: str,
          speed: Speed) -> CliRun:
    """Run `train`, check its run directory, and account its operations."""
    os.makedirs(out, exist_ok=True)
    cfg = write_text(out + ".cfg", cfg_text)
    mark = speed.mark()
    run = run_cli(["train", "--config", cfg, "--data", data, "--out", out],
                  speed)
    scale = speed.scale(speed.window(mark))
    n_train = count_lines(os.path.join(data, "train", "manifest.tsv"))
    tcfg = load_experiment_config(cfg).train
    ops = tcfg.epochs * n_train
    res.attempted += ops
    if run.rc != 0:
        res.fail(label, ops, f"{label}: train exited {run.rc}")
        return run
    m = re.search(r"dev loss \S+ -> (\S+)", run.out)
    res.quality[f"dev_loss_{label}"] = float(m.group(1)) if m else math.nan
    try:
        with open(os.path.join(out, "log.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ckpt = load_checkpoint(os.path.join(out, "avg.esc"))
        load_into_model(build_model(
            load_experiment_config(os.path.join(out, "model.cfg")).model),
            ckpt)
    except Exception as exc:  # any unreadable output fails the whole job
        res.fail(label, ops, f"{label}: run directory does not load "
                 f"({exc!r})")
        return run
    want = tcfg.epochs * math.ceil(n_train / tcfg.batch_size)
    if len(rows) != want:
        res.fail(label, ops, f"{label}: log.csv has {len(rows)} rows, "
                 f"want {want}")
        return run
    bad = sum(1 for r in rows
              if not all(math.isfinite(float(r[c])) for c in LOSS_COLUMNS))
    if bad or not math.isfinite(res.quality[f"dev_loss_{label}"]):
        res.fail(label, min(ops, max(bad, 1) * tcfg.batch_size),
                 f"{label}: {bad} log rows or the dev loss not finite")
    rel = os.path.basename(out)
    res.artifacts[f"{rel}/log.csv"] = (label, ops)
    res.artifacts[f"{rel}/avg.esc"] = (label, ops)
    res.timing(f"train_{label}_ms_per_utt", run.seconds, ops, scale)
    return run


# -- workloads ----------------------------------------------------------------


class Workload:
    """`setup` writes what the timed part needs into a fresh directory;
    `execute` runs the timed part once into another and checks it. The
    seed picks the corpus; the models keep their presets' seeds."""

    name = ""
    setups = 6        # set-ups per untraced run; setup_s is their median
    # the two timings this workload reports as job1/job2_ms_per_op
    jobs: Tuple[str, str] = ("", "")

    def __init__(self, seed: int, speed: Speed):
        self.seed = seed
        self.speed = speed
        self.gen_in_process = False   # see gen_data

    def setup(self, out: str) -> None:
        raise NotImplementedError

    def execute(self, setup_dir: str, out: str, probe) -> Outcome:
        raise NotImplementedError


class TrainAsr(Workload):
    """One `train` of transformer-toy, then one of rnn-toy, on the default
    200-utterance toy ASR corpus. The tape, the nn and attention bodies,
    the scalar-loop CTC loss and Adam do the work; decoding does none, so
    a search change must read "no change" here. Training also runs the
    decoder teacher-forced over the whole prefix, the other way the
    decoder is used."""

    name = "train-asr"
    jobs = ("train_transformer_ms_per_utt", "train_rnn_ms_per_utt")
    # epochs per timed `train`, about 4.5 s and 6.5 s of work each
    EPOCHS = {"transformer": 2, "rnn": 1}

    def setup(self, out: str) -> None:
        gen_data("asr", self.seed, os.path.join(out, "data"), self.speed,
                 in_process=self.gen_in_process)

    def execute(self, setup_dir: str, out: str, probe) -> Outcome:
        res = Outcome()
        data = os.path.join(setup_dir, "data")
        for label, epochs in self.EPOCHS.items():
            train(f"preset = {label}-toy\nepochs = {epochs}\n", data,
                  os.path.join(out, label), res, label, self.speed)
        return res


class DecodeAsr(Workload):
    """Set-up trains transformer-toy, rnn-toy and a fusion LM; the timed
    part beam-decodes the 20-utterance test split with each preset's beam
    (8, lambda 0.5), the transformer with the LM at gamma 0.3 and the rnn
    without, then scores CER. Beam search, CTC prefix extension and the
    full-prefix decoder and LM recompute do the work under no_grad;
    backward and Adam do none."""

    name = "decode-asr"
    jobs = ("decode_transformer_ms_per_utt", "decode_rnn_ms_per_utt")
    # One set-up: it trains three models (about 40 s), and a second would
    # double the run.
    setups = 1
    # Decode cost grows with the square of utterance length, and the
    # default corpus's 20 test utterances differ in total squared length
    # by 20% from seed to seed. Fixed-shape utterances (6 tokens of
    # 7-frame prototypes) give every seed the same amount of speech.
    SHAPE = "utt_len_range = 6:6\nproto_len_range = 7:7\n"
    # Search time depends on how soon the beams finish, which is erratic
    # for models trained an epoch or two with the presets' schedules: an
    # inaccurate model ends its hypotheses early. Set-up trains with an
    # earlier learning-rate peak, and the rnn averages only its last two
    # epochs, which brings its CER to about 0 on every seed.
    MODELS = (("transformer", "preset = transformer-toy\nepochs = 4\n"
                              "warmup_steps = 50\n"),
              ("rnn", "preset = rnn-toy\nepochs = 4\nwarmup_steps = 25\n"
                      "keep_last = 2\n"),
              ("lm", "task = lm\nd_att = 64\nepochs = 2\n"))

    def setup(self, out: str) -> None:
        data = os.path.join(out, "data")
        gen_data("asr", self.seed, data, self.speed, self.SHAPE,
                 self.gen_in_process)
        for label, cfg_text in self.MODELS:
            if label == "lm":
                cfg = write_text(os.path.join(out, "lm.cfg"), cfg_text)
                run = run_cli(["train", "--config", cfg, "--data", data,
                               "--out", os.path.join(out, "lm")], self.speed)
                if run.rc != 0:
                    raise RuntimeError(f"lm: train exited {run.rc}")
                load_checkpoint(os.path.join(out, "lm", "lm.esc"))
                continue
            res = Outcome()
            train(cfg_text, data, os.path.join(out, label), res, label,
                  self.speed)
            if res.failed:
                raise RuntimeError("; ".join(res.problems))

    def execute(self, setup_dir: str, out: str, probe) -> Outcome:
        res = Outcome()
        data = os.path.join(setup_dir, "data")
        ref = os.path.join(data, "test", "transcripts.tsv")
        ids = [utt for utt, _ in read_transcripts(ref)]
        os.makedirs(out, exist_ok=True)
        lm = os.path.join(setup_dir, "lm", "lm.esc")
        for label, extra in (("transformer", ["--lm", lm, "--gamma", "0.3"]),
                             ("rnn", [])):
            hyp = os.path.join(out, f"{label}.hyp.tsv")
            mark = self.speed.mark()
            run = run_cli(["decode", "--ckpt",
                           os.path.join(setup_dir, label, "avg.esc"),
                           "--data", data, "--split", "test", "--out", hyp]
                          + extra, self.speed)
            scale = self.speed.scale(self.speed.window(mark))
            res.attempted += len(ids)
            if run.rc != 0:
                res.fail(label, len(ids),
                         f"{label}: decode exited {run.rc}")
                continue
            res.timing(f"decode_{label}_ms_per_utt", run.seconds, len(ids),
                       scale)
            # beam_search warns once per utterance left unfinished
            unfinished = sum("no hypothesis finished" in w
                             for w in run.warnings)
            if unfinished:
                res.fail(label, unfinished, f"{label}: {unfinished} beams "
                         "ended without a finished hypothesis")
            hyps = read_transcripts(hyp)
            if sorted(u for u, _ in hyps) != sorted(ids):
                res.fail(label, len(ids), f"{label}: hypotheses do not "
                         "match the test utterances one to one")
                continue
            res.output_tokens += sum(len(text.split()) for _, text in hyps)
            res.artifacts[os.path.basename(hyp)] = (label, len(ids))
            ev = run_cli(["eval", "--ref", ref, "--hyp", hyp,
                          "--metric", "cer"], self.speed)
            m = re.search(r"cer = (\S+)", ev.out)
            cer = float(m.group(1)) if ev.rc == 0 and m else math.nan
            res.quality[f"cer_{label}"] = cer
            if not cer <= CER_BOUND[label]:
                res.fail(label, len(ids), f"{label}: cer {cer} above "
                         f"bound {CER_BOUND[label]}")
        return res


class Tts(Workload):
    """One `train` of tts-toy, then `synth` of every test text at 40
    frames and of the first five at 320, with EOS stopping off so every
    output has exactly --max-frames frames. Inference recomputes decoder
    and postnet over the whole prefix, so ms/frame grows with length;
    this is the only workload with Conv1d postnet, prenet and
    guided-attention work."""

    name = "tts"
    jobs = ("train_tts_ms_per_utt", "synth_ms_per_frame")
    EPOCHS = 2
    SHORT = 40     # frames for every test text
    LONG = 320     # frames for the first N_LONG test texts
    N_LONG = 5

    def setup(self, out: str) -> None:
        gen_data("tts", self.seed, os.path.join(out, "data"), self.speed,
                 in_process=self.gen_in_process)

    def execute(self, setup_dir: str, out: str, probe) -> Outcome:
        res = Outcome()
        data = os.path.join(setup_dir, "data")
        train(f"preset = tts-toy\nepochs = {self.EPOCHS}\n", data,
              os.path.join(out, "tts"), res, "tts", self.speed)
        if res.failed:
            return res
        ckpt = os.path.join(out, "tts", "avg.esc")
        feat_dim = int(load_experiment_config(
            os.path.join(out, "tts", "model.cfg")).model.feat_dim)
        texts = read_transcripts(os.path.join(data, "test",
                                              "transcripts.tsv"))
        seconds = 0.0
        synth_mark = self.speed.mark()
        for phase, frames, items in (("short", self.SHORT, texts),
                                     ("long", self.LONG, texts[:self.N_LONG])):
            os.makedirs(os.path.join(out, phase), exist_ok=True)
            probe.phase = phase
            mark = self.speed.mark()
            wall = 0.0
            for utt, text in items:
                probe.utt = utt
                rel = f"{phase}/{utt}.esf"
                path = os.path.join(out, rel)
                run = run_cli(["synth", "--ckpt", ckpt, "--text", text,
                               "--out", path, "--eos-threshold", "1.0",
                               "--max-frames", str(frames)], self.speed)
                wall += run.seconds
                res.attempted += 1
                if run.rc != 0:
                    res.fail(rel, 1, f"synth {rel} exited {run.rc}")
                    continue
                feats = read_feature_file(path)
                probe.counts["synth_frames"] += feats.shape[0]
                if feats.shape != (frames, feat_dim) \
                        or not np.isfinite(feats).all():
                    res.fail(rel, 1, f"synth {rel}: shape {feats.shape} or "
                             "values not finite")
                    continue
                res.artifacts[rel] = (rel, 1)
            res.frames[phase] = frames * len(items)
            res.timing(f"synth_{phase}_ms_per_frame", wall, res.frames[phase],
                       self.speed.scale(self.speed.window(mark)))
            seconds += wall
        probe.phase, probe.utt = "exec", ""
        res.timing("synth_ms_per_frame", seconds, sum(res.frames.values()),
                   self.speed.scale(self.speed.window(synth_mark)))
        return res


WORKLOADS = {w.name: w for w in (TrainAsr, DecodeAsr, Tts)}
