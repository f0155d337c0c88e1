"""Same outputs: a commit's training, `decode` and `synth` against this
checkout's.

    python3 tools/same_outputs.py --ref REF [--seeds 1 3]

Generates the corpora and trains perfbench's decode-asr set-up
(transformer-toy, rnn-toy and a fusion LM on its fixed-shape corpus) for
each seed, the same three models on the default toy corpus (seed 0) and
beside them transformer-toy in the wirings no preset trains (WIRINGS:
two sublayer wirings and the VGG front end), perfbench's tts-toy run and
a tts-toy run with RNN bodies, once with this checkout's code and once
with REF's, from a `git archive` copy as tools/pairs.py makes it. Every
training artifact (TRAINED: `log.csv`, `ckpt-*.esc`, `avg.esc`,
`lm.esc`) of the two trees is compared. Then REF and this checkout both run, on this checkout's
checkpoints:

- `decode --beam 8 --nbest 8` of both ASR models, and on the toy
  corpus of the WIRINGS runs, with and without `--lm`, on each test
  split;
- `synth` of the tts test texts at 40 frames, of the first five at 320
  and of the first at 4,000 (LONGEST), EOS stopping off; and of the
  texts at 40 frames with the RNN run.

Compares every file byte for byte, prints one line per file, and exits 1
if any differs or is missing on one side, or any command fails. The line
of a differing file says how far it moved: for a checkpoint (`.esc`) the
largest absolute difference and the parameter that holds it, for a
feature file (`.esf`) the largest absolute difference and its frame, for
a hypothesis file whether the utterance ids and texts agree, line by
line, and the largest score difference. The temporary directory is
removed at the end, also when a command fails.
"""

import argparse
import filecmp
import fnmatch
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
from minis2s.data import read_feature_file  # noqa: E402
from minis2s.training import load_checkpoint  # noqa: E402
from workloads import DecodeAsr, Tts, write_text  # noqa: E402

# the training artifacts compared, as file name patterns
TRAINED = ("log.csv", "ckpt-*.esc", "avg.esc", "lm.esc")

# frames of the one long synth, whose decoder steps attend over 2,000
# cached positions at tts-toy's r = 2
LONGEST = 4000

# transformer-toy runs on the toy corpus in the wirings the presets do
# not train (they are pre-norm, paper residual, conv front end), as
# (label, config)
WIRINGS = (("post", "preset = transformer-toy\nepochs = 2\n"
                    "normalize = post\nsrc_residual = conventional\n"),
           ("none", "preset = transformer-toy\nepochs = 2\n"
                    "normalize = none\n"),
           ("vgg", "preset = transformer-toy\nepochs = 2\nenc_pre = vgg\n"))

# the tts runs, as (label, config)
TTS_RUNS = (("run", f"preset = tts-toy\nepochs = {Tts.EPOCHS}\n"),
            ("rnn", "preset = tts-toy\nepochs = 1\nbody = rnn\n"))

# runs each argv list of a JSON list through minis2s.cli.main, in order,
# and exits with the first non-zero code
RUNNER = ("import json, sys\nfrom minis2s.cli import main\n"
          "for argv in json.load(sys.stdin):\n"
          "    rc = main(argv)\n"
          "    if rc:\n"
          "        sys.exit(f'{argv[0]} exited {rc}: {argv}')\n")


def run_all(src: str, commands) -> None:
    """The commands as one process of the toolkit at src."""
    subprocess.run([sys.executable, "-c", RUNNER],
                   input=json.dumps(commands), text=True, check=True,
                   env=dict(os.environ, PYTHONPATH=src),
                   stdout=subprocess.DEVNULL)


def asr_setup(root: str, seed: int, shape: str, models=DecodeAsr.MODELS):
    """The commands that generate a corpus and train models, DecodeAsr's
    unless given, on it under root."""
    spec = write_text(root + ".spec", f"task = asr\nseed = {seed}\n{shape}")
    commands = [["gen-data", "--spec", spec, "--out", f"{root}/data"]]
    for label, cfg_text in models:
        cfg = write_text(f"{root}.{label}.cfg", cfg_text)
        commands.append(["train", "--config", cfg, "--data", f"{root}/data",
                         "--out", f"{root}/{label}"])
    return commands


def asr_outputs(root: str, labels=("transformer", "rnn")):
    """(output name, argv) of every decode of the set-up under root: of
    each run labels names, without and with the LM."""
    tags = [("", []), (".lm", ["--lm", f"{root}/lm/lm.esc", "--gamma", "0.3"])]
    return [(f"{os.path.basename(root)}.{label}{tag}.nbest.tsv",
             ["decode", "--ckpt", f"{root}/{label}/avg.esc", "--data",
              f"{root}/data", "--beam", "8", "--nbest", "8"] + extra)
            for label in labels for tag, extra in tags]


def tts_outputs(root: str):
    """(output name, argv) of every synth of the tts run under root."""
    with open(f"{root}/data/test/transcripts.tsv", encoding="utf-8") as fh:
        texts = [line.rstrip("\n").split("\t", 1) for line in fh
                 if line.strip()]
    return [(f"tts.{label}.{utt}.{frames}.esf",
             ["synth", "--ckpt", f"{root}/{label}/avg.esc", "--text", text,
              "--eos-threshold", "1.0", "--max-frames", str(frames)])
            for label, frames, items in (
                ("run", Tts.SHORT, texts), ("run", Tts.LONG,
                                             texts[:Tts.N_LONG]),
                ("run", LONGEST, texts[:1]), ("rnn", Tts.SHORT, texts))
            for utt, text in items]


def setup(work: str, seeds):
    """The commands that generate every corpus and train every model
    under work, and the (output name, argv) of every decode of them."""
    commands, outputs = [], []
    for seed in seeds:
        commands += asr_setup(f"{work}/seed{seed}", seed, DecodeAsr.SHAPE)
        outputs += asr_outputs(f"{work}/seed{seed}")
    commands += asr_setup(f"{work}/toy", 0, "", DecodeAsr.MODELS + WIRINGS)
    outputs += asr_outputs(f"{work}/toy", ["transformer", "rnn"]
                           + [w for w, _ in WIRINGS])
    tts = f"{work}/tts"
    spec = write_text(tts + ".spec", "task = tts\nseed = 1\n")
    commands.append(["gen-data", "--spec", spec, "--out", f"{tts}/data"])
    for label, cfg_text in TTS_RUNS:
        cfg = write_text(f"{tts}.{label}.cfg", cfg_text)
        commands.append(["train", "--config", cfg, "--data", f"{tts}/data",
                         "--out", f"{tts}/{label}"])
    return commands, outputs


def trained(work: str):
    """The path, relative to work, of every training artifact under it."""
    return {os.path.relpath(os.path.join(top, name), work)
            for top, _, names in os.walk(work) for name in names
            if any(fnmatch.fnmatch(name, p) for p in TRAINED)}


def moved(ref: str, this: str) -> str:
    """How far the file this moved from ref, for a checkpoint, a feature
    file or a hypothesis file (utt_id, text, score per line); '' for any
    other file."""
    if ref.endswith(".esc"):
        a, b = load_checkpoint(ref).params, load_checkpoint(this).params
        if [(k, v.shape) for k, v in a.items()] != [(k, v.shape)
                                                     for k, v in b.items()]:
            return "parameter names or shapes differ"
        gap = {k: np.abs(a[k] - b[k]).max(initial=0.0) for k in a}
        worst = max(gap, key=gap.get)
        return f"max |diff| {gap[worst]:.3g} in {worst}"
    if ref.endswith(".esf"):
        a, b = read_feature_file(ref), read_feature_file(this)
        if a.shape != b.shape:
            return f"shapes {a.shape} and {b.shape}"
        gap = np.abs(a - b)
        frame = np.unravel_index(gap.argmax(), gap.shape)[0] if gap.size else 0
        return f"max |diff| {gap.max(initial=0.0):.3g} at frame {frame}"
    if ref.endswith(".tsv"):
        a, b = ([line.split("\t") for line in open(p, encoding="utf-8")]
                for p in (ref, this))
        if [r[:2] for r in a] != [r[:2] for r in b]:
            return "ids or texts differ"
        gap = max((abs(float(x[2]) - float(y[2])) for x, y in zip(a, b)),
                  default=0.0)
        return f"ids and texts agree, max |score diff| {gap:.3g}"
    return ""


def compare(pairs) -> int:
    """Prints a line per (name, ref path, this path), with how far a
    differing file moved; the count that differ or are missing on one
    side."""
    differ = 0
    for name, ref, this in pairs:
        found = os.path.isfile(ref) and os.path.isfile(this)
        same = found and filecmp.cmp(ref, this, shallow=False)
        differ += not same
        how = moved(ref, this) if found and not same else ""
        print(f"{'same' if same else 'DIFFERS'}  {name}"
              + (f"  ({how})" if how else ""))
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="commit to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3],
                        help="decode-asr set-up seeds")
    args = parser.parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        ref = os.path.join(tmp, "ref")
        os.mkdir(ref)
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", ref], input=archive, check=True)
        work, ref_work = os.path.join(tmp, "work"), os.path.join(tmp,
                                                                 "ref-work")
        # this checkout's set-up comes last, so its decodes are the ones
        # both sides run
        for side, root, src in (("ref", ref_work, os.path.join(ref, "src")),
                                ("this", work, os.path.join(ROOT, "src"))):
            os.mkdir(root)
            commands, outputs = setup(root, args.seeds)
            print(f"training {len(commands)} set-up steps with {side}",
                  flush=True)
            run_all(src, commands)
        outputs += tts_outputs(f"{work}/tts")
        for side, src in (("ref", os.path.join(ref, "src")),
                          ("this", os.path.join(ROOT, "src"))):
            os.mkdir(os.path.join(tmp, side + "-out"))
            run_all(src, [cmd + ["--out", os.path.join(tmp, side + "-out",
                                                       name)]
                          for name, cmd in outputs])
        names = sorted(trained(work) | trained(ref_work))
        files = ([(n, os.path.join(ref_work, n), os.path.join(work, n))
                  for n in names]
                 + [(n, os.path.join(tmp, "ref-out", n),
                     os.path.join(tmp, "this-out", n)) for n, _ in outputs])
        differ = compare(files)
    except subprocess.CalledProcessError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"\n{len(files) - differ} of {len(files)} files of {args.ref} "
          f"(ref) and this checkout ({len(names)} trained, "
          f"{len(outputs)} decoded or synthesized) are byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
