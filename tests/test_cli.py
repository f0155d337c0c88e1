"""End-to-end command line tests on a micro corpus. Every command runs
through main() so the exit code mapping is exercised too."""

import contextlib
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from minis2s import cli
from minis2s.cli import main
from minis2s.config import experiment_from_items, load_experiment_config
from minis2s.data import Vocab, read_feature_file, write_feature_file
from minis2s.errors import ConfigError
from minis2s.models import build_model
from minis2s.nn import from_checkpoint, glorot
from minis2s.training import (LOG_COLUMNS, load_checkpoint, load_into_model,
                              save_checkpoint)

TOY = """
task = asr
vocab_size = 4
n_train = 10
n_dev = 2
n_test = 2
seed = 5
"""

EXP = """
preset = transformer-toy
e = 1
d = 1
d_att = 16
d_ff = 32
epochs = 2
batch_size = 4
seed = 5
"""

TTS_TOY = """
task = tts
vocab_size = 4
n_train = 6
n_dev = 2
n_test = 2
seed = 3
"""

TTS_EXP = """
preset = tts-toy
e = 1
d = 1
d_att = 16
d_ff = 32
prenet_units = 16
epochs = 1
batch_size = 4
seed = 3
"""


def with_key(text, key, value):
    """Config text with key's line, if any, replaced by `key = value`."""
    lines = [line for line in text.splitlines()
             if not line.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + train once; the artifacts feed most tests below."""
    root = tmp_path_factory.mktemp("cli")
    (root / "toy.cfg").write_text(TOY, encoding="utf-8")
    (root / "exp.cfg").write_text(EXP, encoding="utf-8")
    assert main(["gen-data", "--spec", str(root / "toy.cfg"),
                 "--out", str(root / "data")]) == 0
    assert main(["train", "--config", str(root / "exp.cfg"),
                 "--data", str(root / "data"),
                 "--out", str(root / "run")]) == 0
    return root


@pytest.fixture(scope="module")
def tts_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_tts")
    (root / "toy.cfg").write_text(TTS_TOY, encoding="utf-8")
    (root / "exp.cfg").write_text(TTS_EXP, encoding="utf-8")
    assert main(["gen-data", "--spec", str(root / "toy.cfg"),
                 "--out", str(root / "data")]) == 0
    assert main(["train", "--config", str(root / "exp.cfg"),
                 "--data", str(root / "data"),
                 "--out", str(root / "run")]) == 0
    return root


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["nosuchcmd"]) == 1
    assert main(["train", "--config"]) == 1


def test_gen_data_layout(workspace):
    data = workspace / "data"
    assert (data / "vocab.txt").is_file()
    for split in ("train", "dev", "test"):
        assert (data / split / "manifest.tsv").is_file()
        assert (data / split / "transcripts.tsv").is_file()
    assert len(list((data / "train" / "feats").iterdir())) == 10


def test_train_artifacts(workspace):
    run = workspace / "run"
    assert (run / "model.cfg").is_file()
    assert (run / "vocab.txt").is_file()
    assert (run / "log.csv").is_file()
    assert (run / "ckpt-001.esc").is_file()
    assert (run / "ckpt-002.esc").is_file()
    assert (run / "avg.esc").is_file()
    text = (run / "model.cfg").read_text(encoding="utf-8")
    # snapshot records the sizes resolved from the data
    assert "vocab_size = 7" in text   # 4 letters + 3 reserved
    assert "feat_dim = 16" in text


def test_decode_writes_hypotheses(workspace):
    hyp = workspace / "hyp.tsv"
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"),
               "--split", "test", "--beam", "4", "--out", str(hyp)])
    assert rc == 0
    lines = hyp.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    ids = []
    for line in lines:
        utt_id, text, score = line.split("\t")
        float(score)
        ids.append(utt_id)
    assert ids == ["asr-test-0000", "asr-test-0001"]


def test_decode_to_stdout(workspace, capsys):
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"),
               "--split", "dev", "--beam", "2"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("asr-dev-0000\t")


def test_decode_nbest(workspace):
    hyp = workspace / "nbest.tsv"
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"),
               "--split", "test", "--beam", "4", "--nbest", "3",
               "--out", str(hyp)])
    assert rc == 0
    lines = hyp.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 2
    by_utt = {}
    for line in lines:
        utt_id, _, score = line.split("\t")
        by_utt.setdefault(utt_id, []).append(float(score))
    for scores in by_utt.values():
        assert len(scores) <= 3
        assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("nbest", ["0", "-2"])
def test_decode_rejects_nbest_below_one(workspace, tmp_path, capsys, nbest):
    hyp = tmp_path / "hyp.tsv"
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"), "--nbest", nbest,
               "--out", str(hyp)])
    assert rc == 1
    assert "--nbest" in capsys.readouterr().err
    assert not hyp.exists()
    # the help says how long the list can be
    assert main(["decode", "--help"]) == 0
    assert "capped at the beam size" in " ".join(
        capsys.readouterr().out.split())


def test_decode_on_an_empty_split_exits_two(workspace, tmp_path, capsys):
    (tmp_path / "toy.cfg").write_text(TOY.replace("n_test = 2", "n_test = 0"),
                                      encoding="utf-8")
    data = tmp_path / "data"
    assert main(["gen-data", "--spec", str(tmp_path / "toy.cfg"),
                 "--out", str(data)]) == 0
    hyp = tmp_path / "hyp.tsv"
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(data), "--split", "test", "--out", str(hyp)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "test split" in err and str(data) in err
    assert not hyp.exists()


def test_decode_is_deterministic(workspace, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
            "--data", str(workspace / "data"), "--split", "dev",
            "--beam", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decode_warns_once_per_unfinished_utterance(workspace, tmp_path):
    # a one-step length budget leaves every beam unfinished
    cfg = (workspace / "run" / "model.cfg").read_text(encoding="utf-8")
    cfg = re.sub(r"max_len_ratio = .*", "max_len_ratio = 0.01", cfg)
    (tmp_path / "short.cfg").write_text(cfg, encoding="utf-8")
    hyp = tmp_path / "hyp.tsv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
                   "--config", str(tmp_path / "short.cfg"),
                   "--data", str(workspace / "data"), "--split", "test",
                   "--beam", "2", "--out", str(hyp)])
    assert rc == 0
    unfinished = [str(w.message) for w in caught
                  if "no hypothesis finished" in str(w.message)]
    assert sorted(m.split(":")[0] for m in unfinished) == [
        "asr-test-0000", "asr-test-0001"]
    lines = hyp.read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in lines] == [
        "asr-test-0000", "asr-test-0001"]


def test_decode_groups_do_not_change_hypotheses(workspace, tmp_path,
                                                monkeypatch):
    # one utterance per search against the whole split in one search:
    # the same lines in split order, scores within 1e-9
    args = ["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
            "--data", str(workspace / "data"), "--split", "dev",
            "--beam", "4", "--nbest", "4"]
    assert main(args + ["--out", str(tmp_path / "all.tsv")]) == 0
    monkeypatch.setattr(cli, "SEARCH_ROWS", 4)
    assert main(args + ["--out", str(tmp_path / "one.tsv")]) == 0
    rows = [[line.split("\t") for line in
             (tmp_path / name).read_text(encoding="utf-8").splitlines()]
            for name in ("all.tsv", "one.tsv")]
    assert len(rows[0]) == len(rows[1]) > 2
    for a, b in zip(*rows):
        assert a[:2] == b[:2]
        assert abs(float(a[2]) - float(b[2])) < 1e-9
    assert [r[0] for r in rows[0]][0] == "asr-dev-0000"


def test_eval_all_metrics(workspace, capsys):
    hyp = workspace / "hyp.tsv"
    if not hyp.is_file():
        main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
              "--data", str(workspace / "data"),
              "--split", "test", "--beam", "4", "--out", str(hyp)])
        capsys.readouterr()     # the decode's own "decoded ..." line
    ref = str(workspace / "data" / "test" / "transcripts.tsv")
    for metric in ("wer", "cer", "bleu"):
        assert main(["eval", "--ref", ref, "--hyp", str(hyp),
                     "--metric", metric]) == 0
        out = capsys.readouterr().out.strip()
        name, _, value = out.partition(" = ")
        assert name == metric
        float(value)


def test_eval_perfect_hypotheses(workspace, capsys):
    ref = str(workspace / "data" / "test" / "transcripts.tsv")
    assert main(["eval", "--ref", ref, "--hyp", ref,
                 "--metric", "wer"]) == 0
    assert capsys.readouterr().out.strip() == "wer = 0.0"


def test_eval_rejects_mismatched_ids(workspace, tmp_path):
    ref = workspace / "data" / "test" / "transcripts.tsv"
    other = tmp_path / "other.tsv"
    other.write_text("different-id\ta b\n", encoding="utf-8")
    assert main(["eval", "--ref", str(ref), "--hyp", str(other),
                 "--metric", "wer"]) == 2


@pytest.mark.parametrize("text,line,what", [
    ("u1\ta b\nu2\n", 2, "expected utt_id<TAB>text"),
    ("u1\ta b\t-1.5\n\nu1\tb\n", 3, "duplicate utterance id 'u1'")])
def test_eval_names_the_bad_hypothesis_line(workspace, tmp_path, capsys,
                                            text, line, what):
    hyp = tmp_path / "hyp.tsv"
    hyp.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--ref", str(hyp), "--hyp", str(hyp),
                 "--metric", "wer"]) == 2
    assert f"{hyp}:{line}: {what}" in capsys.readouterr().err


def test_avg_ckpt_matches_training_average(workspace, tmp_path):
    run = workspace / "run"
    out = tmp_path / "avg2.esc"
    rc = main(["avg-ckpt", "--out", str(out),
               str(run / "ckpt-001.esc"), str(run / "ckpt-002.esc")])
    assert rc == 0
    assert out.read_bytes() == (run / "avg.esc").read_bytes()
    a = load_checkpoint(str(out))
    b = load_checkpoint(str(run / "ckpt-001.esc"))
    assert set(a.params) == set(b.params)


@pytest.mark.parametrize("b_params", [{"w": np.zeros((3, 2))},
                                      {"v": np.zeros((2, 3))}])
def test_avg_ckpt_refuses_disagreeing_checkpoints(tmp_path, capsys,
                                                  b_params):
    a, b, out = tmp_path / "a.esc", tmp_path / "b.esc", tmp_path / "o.esc"
    save_checkpoint(str(a), {"w": np.zeros((2, 3))})
    save_checkpoint(str(b), b_params)
    capsys.readouterr()
    assert main(["avg-ckpt", "--out", str(out), str(b), str(a)]) == 2
    err = capsys.readouterr().err
    assert "data error: " in err and str(a) in err and str(b) in err
    if "w" in b_params:
        assert "w: shape (2, 3)" in err and "(3, 2)" in err
    else:
        assert "disagree on parameter names" in err
    assert "Traceback" not in err and not out.exists()


def test_report_summary(workspace, capsys):
    assert main(["report", "--log", str(workspace / "run" / "log.csv")]) == 0
    out = capsys.readouterr().out
    assert "steps:" in out and "total loss:" in out


def test_report_per_epoch(workspace, capsys):
    assert main(["report", "--log", str(workspace / "run" / "log.csv"),
                 "--per-epoch"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("epoch") for line in out)
    assert sum(1 for line in out if line.lstrip().startswith(("1", "2"))) == 2


def test_report_rejects_foreign_csv(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    assert main(["report", "--log", str(bad)]) == 2


@pytest.mark.parametrize("damage", ["total", "short", "epoch"])
def test_report_names_a_malformed_row(workspace, tmp_path, capsys, damage):
    # line 3 of a copy of the log gets a total that is not a number, ends
    # before its total, or, read per epoch, gets an epoch that is not whole
    lines = (workspace / "run" / "log.csv").read_text(
        encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    if damage == "short":
        del cells[LOG_COLUMNS.index("total"):]
    else:
        cells[LOG_COLUMNS.index(damage)] = "1.5x"
    lines[2] = ",".join(cells)
    log = tmp_path / "log.csv"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["report", "--log", str(log)]
    assert main(argv + ["--per-epoch"] * (damage == "epoch")) == 2
    err = capsys.readouterr().err
    assert f"data error: {log} line 3: " in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["manifest.tsv", "transcripts.tsv"])
def test_a_repeated_utterance_id_exits_two(workspace, tmp_path, capsys,
                                           name):
    # the split's first line again at its end: decode would write that
    # utterance twice (manifest), or read the later transcript only
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    path = data / "test" / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
                 "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{len(lines) + 1}: duplicate utterance id" in err


def test_tts_synth_writes_features(tts_workspace, capsys):
    out = tts_workspace / "synth.esf"
    rc = main(["synth", "--ckpt", str(tts_workspace / "run" / "avg.esc"),
               "--text", "a b a", "--out", str(out), "--max-frames", "30"])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "stop=" in msg
    frames = read_feature_file(str(out))
    assert frames.ndim == 2 and frames.shape[1] == 16
    assert frames.shape[0] >= 1


def test_synth_is_deterministic(tts_workspace, tmp_path):
    a, b = tmp_path / "a.esf", tmp_path / "b.esf"
    base = ["synth", "--ckpt", str(tts_workspace / "run" / "avg.esc"),
            "--text", "b c", "--max-frames", "20"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decode_refuses_tts_checkpoint(tts_workspace):
    rc = main(["decode", "--ckpt", str(tts_workspace / "run" / "avg.esc"),
               "--data", str(tts_workspace / "data")])
    assert rc == 1


def test_synth_refuses_recognition_checkpoint(workspace, tmp_path):
    rc = main(["synth", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--text", "a b", "--out", str(tmp_path / "x.esf")])
    assert rc == 1


def test_lm_training_and_fusion(workspace, tmp_path, capsys):
    lm_cfg = tmp_path / "lm.cfg"
    lm_cfg.write_text("task = lm\nd_att = 16\nepochs = 2\nseed = 1\n",
                      encoding="utf-8")
    lm_run = tmp_path / "lm_run"
    assert main(["train", "--config", str(lm_cfg),
                 "--data", str(workspace / "data"),
                 "--out", str(lm_run)]) == 0
    assert (lm_run / "lm.esc").is_file()
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"), "--split", "dev",
               "--beam", "2", "--gamma", "0.3",
               "--lm", str(lm_run / "lm.esc")])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


LM_EXP = "task = lm\nd_att = 8\nepochs = 1\nseed = 2\n"


def train_lm_run(root, data, out):
    cfg = root / "lm.cfg"
    cfg.write_text(LM_EXP, encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def lm_run(workspace):
    """An LM run directory trained on the workspace's data."""
    return train_lm_run(workspace, workspace / "data", workspace / "lm_run")


def test_lm_training_exits_3_on_a_non_finite_loss(workspace, tmp_path,
                                                  monkeypatch, capsys):
    def poisoned(cfg):
        model = build_model(cfg)
        model.out.bias.data[0] = np.nan
        return model

    monkeypatch.setattr(cli, "build_model", poisoned)
    cfg = tmp_path / "lm.cfg"
    cfg.write_text(LM_EXP, encoding="utf-8")
    out = tmp_path / "lm_run"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data",
                 str(workspace / "data"), "--out", str(out)]) == 3
    assert "epoch 1 step 1: loss nan is not finite" in capsys.readouterr().err
    assert not (out / "lm.esc").exists()


def test_an_lm_run_describes_itself(lm_run):
    # model.cfg names the vocabulary size, so it alone rebuilds the LM
    cfg = load_experiment_config(str(lm_run / "model.cfg"))
    assert cfg.model.task == "lm"
    assert cfg.model.vocab_size == len(Vocab.load(str(lm_run / "vocab.txt")))
    lm = build_model(cfg.model)
    load_into_model(lm, load_checkpoint(str(lm_run / "lm.esc")))


def test_two_lm_runs_with_one_seed_are_byte_identical(workspace, lm_run,
                                                      tmp_path):
    again = train_lm_run(tmp_path, workspace / "data", tmp_path / "lm_run")
    for name in ("lm.esc", "model.cfg", "vocab.txt"):
        assert (again / name).read_bytes() == (lm_run / name).read_bytes()


@pytest.mark.parametrize("gamma", ["0.0", "0.3"])
def test_decode_refuses_an_lm_of_another_vocabulary(workspace, tmp_path,
                                                    capsys, gamma):
    # six letters against the model's four: the LM's scores would not
    # line up with the model's, whatever their weight
    (tmp_path / "toy.cfg").write_text(with_key(TOY, "vocab_size", 6),
                                      encoding="utf-8")
    assert main(["gen-data", "--spec", str(tmp_path / "toy.cfg"),
                 "--out", str(tmp_path / "data")]) == 0
    other = train_lm_run(tmp_path, tmp_path / "data", tmp_path / "lm_run")
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"), "--gamma", gamma,
               "--lm", str(other / "lm.esc")])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert str(other / "vocab.txt") in err
    assert str(workspace / "run" / "vocab.txt") in err
    # the model's vocabulary copied beside that LM now matches, but not
    # the LM's own size, which its model.cfg gives
    shutil.copy(workspace / "run" / "vocab.txt", other / "vocab.txt")
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"), "--gamma", gamma,
               "--lm", str(other / "lm.esc")])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert f"{other / 'vocab.txt'} holds 7 tokens" in err
    assert f"{other / 'model.cfg'} says vocab_size = 9" in err


@pytest.mark.parametrize("missing,code", [("vocab.txt", 2), ("model.cfg", 1)])
def test_decode_refuses_an_lm_directory_missing_a_file(
        workspace, lm_run, tmp_path, capsys, missing, code):
    lm = tmp_path / "lm_run"
    shutil.copytree(lm_run, lm)
    (lm / missing).unlink()
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"),
               "--lm", str(lm / "lm.esc")])
    err = capsys.readouterr().err
    assert rc == code and str(lm / missing) in err
    assert "Traceback" not in err


def test_decode_refuses_an_lm_run_written_without_its_vocabulary_size(
        workspace, lm_run, tmp_path, capsys):
    # earlier LM runs recorded vocab_size = 0, which no model can have
    lm = tmp_path / "lm_run"
    shutil.copytree(lm_run, lm)
    cfg = (lm / "model.cfg").read_text(encoding="utf-8")
    (lm / "model.cfg").write_text(with_key(cfg, "vocab_size", 0),
                                  encoding="utf-8")
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"),
               "--lm", str(lm / "lm.esc")])
    err = capsys.readouterr().err
    assert rc == 1 and "vocab_size = 0" in err and "Traceback" not in err


def test_decode_keeps_language_models_and_recognizers_apart(
        workspace, lm_run, capsys):
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(lm_run / "lm.esc"),
               "--data", str(workspace / "data")])
    err = capsys.readouterr().err
    assert rc == 1 and "decode handles recognition and translation" in err
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"),
               "--lm", str(workspace / "run" / "avg.esc")])
    err = capsys.readouterr().err
    assert rc == 1 and "not lm" in err and "Traceback" not in err


def test_missing_inputs_map_to_exit_codes(workspace, tmp_path):
    assert main(["train", "--config", "/no/such.cfg",
                 "--data", str(workspace / "data"),
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["eval", "--ref", "/no/such.tsv",
                 "--hyp", "/no/such.tsv", "--metric", "wer"]) == 2
    assert main(["decode", "--ckpt", "/no/such.esc",
                 "--data", str(workspace / "data")]) == 2
    assert main(["report", "--log", "/no/such.csv"]) == 2
    assert main(["avg-ckpt", "--out", str(tmp_path / "o.esc"),
                 "/no/such.esc"]) == 2


def test_unwritable_output_maps_to_exit_code(tts_workspace, tmp_path):
    # a directory where a file is expected is a data error, not a traceback
    text = tmp_path / "text.txt"
    text.write_text("p1 p2\n", encoding="utf-8")
    assert main(["synth", "--ckpt", str(tts_workspace / "run" / "avg.esc"),
                 "--text", str(text), "--out", str(tmp_path),
                 "--max-frames", "10"]) == 2


def test_env_seed_changes_training(workspace, tmp_path, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXP.replace("epochs = 2", "epochs = 1"),
                   encoding="utf-8")
    outs = []
    for env_seed in ("101", "202"):
        monkeypatch.setenv("S2S_SEED", env_seed)
        out = tmp_path / f"run{env_seed}"
        assert main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"),
                     "--out", str(out)]) == 0
        outs.append((out / "ckpt-001.esc").read_bytes())
    monkeypatch.delenv("S2S_SEED")
    assert outs[0] != outs[1]


def test_synth_rejects_unknown_vocab_token_gracefully(tts_workspace,
                                                      tmp_path):
    # unknown words map to the unk id rather than failing
    out = tmp_path / "u.esf"
    rc = main(["synth", "--ckpt", str(tts_workspace / "run" / "avg.esc"),
               "--text", "zz qq", "--out", str(out), "--max-frames", "10"])
    assert rc == 0
    assert read_feature_file(str(out)).shape[1] == 16


def test_gen_data_rejects_bad_spec(tmp_path):
    spec = tmp_path / "toy.cfg"
    spec.write_text("task = juggling\n", encoding="utf-8")
    assert main(["gen-data", "--spec", str(spec),
                 "--out", str(tmp_path / "d")]) == 1


@pytest.mark.parametrize("cut", [6, 9, 12, "name"])
def test_corrupt_checkpoint_header_exits_two(workspace, tmp_path, capsys,
                                             cut):
    # cuts inside the epoch, inside the count and before the first name
    # length, and a first name that is not UTF-8 (it starts at byte 14)
    raw = (workspace / "run" / "avg.esc").read_bytes()
    raw = raw[:14] + b"\xff" + raw[15:] if cut == "name" else raw[:cut]
    ckpt = tmp_path / "bad.esc"
    ckpt.write_bytes(raw)
    for side in ("model.cfg", "vocab.txt"):
        (tmp_path / side).write_bytes((workspace / "run" / side).read_bytes())
    capsys.readouterr()
    assert main(["decode", "--ckpt", str(ckpt),
                 "--data", str(workspace / "data")]) == 2
    assert main(["avg-ckpt", "--out", str(tmp_path / "o.esc"),
                 str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"data error: {ckpt}: ") == 2


@pytest.mark.parametrize("sidecar", [b"x1\n", b"\xff\n"])
def test_corrupt_epoch_sidecar_exits_two(workspace, tmp_path, capsys,
                                         sidecar):
    # a corrupt .epoch file beside an ESC1 checkpoint (the format that kept
    # its epoch there) or beside one cut inside its header epoch: the
    # header is refused and the sidecar is never read
    raw = (workspace / "run" / "avg.esc").read_bytes()
    ckpt = tmp_path / "avg.esc"
    (tmp_path / "avg.esc.epoch").write_bytes(sidecar)
    for data, why in ((b"ESC1" + raw[4:], "bad checkpoint magic b'ESC1'"),
                      (raw[:6], "truncated epoch")):
        ckpt.write_bytes(data)
        capsys.readouterr()
        assert main(["avg-ckpt", "--out", str(tmp_path / "o.esc"),
                     str(ckpt)]) == 2
        assert f"data error: {ckpt}: {why}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("seed", "-1"), ("S2S_SEED", "-2"), ("feat_dim", "0"),
    ("noise_std", "nan"), ("noise_std", "-0.1"), ("n_train", "-1"),
    ("n_train", "0"), ("n_dev", "-1"), ("n_test", "-1")])
def test_gen_data_rejects_out_of_range_spec_before_writing(
        tmp_path, monkeypatch, capsys, key, value):
    # each value is refused with the key named, before --out exists;
    # S2S_SEED comes from the environment
    spec = tmp_path / "toy.cfg"
    if key == "S2S_SEED":
        monkeypatch.setenv(key, value)
        spec.write_text(TOY, encoding="utf-8")
    else:
        spec.write_text(with_key(TOY, key, value), encoding="utf-8")
    capsys.readouterr()
    assert main(["gen-data", "--spec", str(spec),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_a_directory_given_as_a_config_is_a_config_error(workspace, tmp_path,
                                                         capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    capsys.readouterr()
    assert main(["train", "--config", str(folder),
                 "--data", str(workspace / "data"),
                 "--out", str(tmp_path / "run")]) == 1
    assert main(["gen-data", "--spec", str(folder),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.count(str(folder)) == 2 and "Traceback" not in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "d").exists()


def test_bad_env_seed_in_toy_spec_exits_one(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "toy.cfg"
    spec.write_text(TOY, encoding="utf-8")
    monkeypatch.setenv("S2S_SEED", "abc")
    assert main(["gen-data", "--spec", str(spec),
                 "--out", str(tmp_path / "d")]) == 1
    assert "S2S_SEED" in capsys.readouterr().err


def test_train_without_dev_split_exits_zero(tmp_path, capsys):
    (tmp_path / "toy.cfg").write_text(TOY.replace("n_dev = 2", "n_dev = 0"),
                                      encoding="utf-8")
    (tmp_path / "exp.cfg").write_text(EXP.replace("epochs = 2", "epochs = 1"),
                                      encoding="utf-8")
    assert main(["gen-data", "--spec", str(tmp_path / "toy.cfg"),
                 "--out", str(tmp_path / "data")]) == 0
    assert main(["train", "--config", str(tmp_path / "exp.cfg"),
                 "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")]) == 0
    assert "no dev split" in capsys.readouterr().out
    assert (tmp_path / "run" / "avg.esc").is_file()


def test_train_names_too_short_utterances_and_exits_two(tmp_path, capsys):
    # one token of two frames per utterance: under the front end's 4
    (tmp_path / "toy.cfg").write_text(
        TOY + "utt_len_range = 1:1\nproto_len_range = 2:2\n", encoding="utf-8")
    (tmp_path / "exp.cfg").write_text(EXP, encoding="utf-8")
    assert main(["gen-data", "--spec", str(tmp_path / "toy.cfg"),
                 "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "exp.cfg"),
                 "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "train split" in err and "asr-train-0000 (2 frames)" in err
    assert not (tmp_path / "run" / "log.csv").exists()


def test_decode_names_too_short_utterance_and_split(workspace, tmp_path,
                                                   capsys):
    # the workspace model on a corpus of two-frame utterances
    (tmp_path / "toy.cfg").write_text(
        TOY + "utt_len_range = 1:1\nproto_len_range = 2:2\n", encoding="utf-8")
    assert main(["gen-data", "--spec", str(tmp_path / "toy.cfg"),
                 "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    assert main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
                 "--data", str(tmp_path / "data"), "--split", "test"]) == 2
    err = capsys.readouterr().err
    assert "test split" in err and "asr-test-0000 (2 frames)" in err
    assert "Traceback" not in err


def test_decode_names_checkpoint_with_per_head_parameters(workspace, tmp_path,
                                                         capsys):
    # a checkpoint from before the heads were stored side by side: one
    # (d, d) block per head, named wq.0, wq.1, ...
    old = {}
    for name, value in load_checkpoint(
            str(workspace / "run" / "avg.esc")).params.items():
        if name.rsplit(".", 1)[-1] in ("wq", "wk", "wv"):
            d = value.shape[0]
            for h in range(value.shape[1] // d):
                old[f"{name}.{h}"] = value[:, h * d:(h + 1) * d]
        else:
            old[name] = value
    save_checkpoint(str(tmp_path / "old.esc"), old)
    for f in ("model.cfg", "vocab.txt"):
        (tmp_path / f).write_bytes((workspace / "run" / f).read_bytes())
    capsys.readouterr()
    assert main(["decode", "--ckpt", str(tmp_path / "old.esc"),
                 "--data", str(workspace / "data")]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "old.esc") in err
    assert "enc_body.layers.0.mha.wq.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_frames", ["0", "-3", str(4096 * 2 + 1)])
def test_synth_rejects_max_frames_out_of_range(tts_workspace, tmp_path,
                                               capsys, max_frames):
    # 4096 positional rows at r = 2 cover 8192 frames
    out = tmp_path / "x.esf"
    capsys.readouterr()
    rc = main(["synth", "--ckpt", str(tts_workspace / "run" / "avg.esc"),
               "--text", "a b", "--out", str(out), "--max-frames", max_frames])
    assert rc == 1
    assert "--max-frames" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_training_exits_three(workspace, tmp_path, monkeypatch,
                                         capsys):
    build = cli.build_model

    def poisoned(cfg):
        model = build(cfg)
        model.dec_post.weight.data[0, 0] = np.nan
        return model

    monkeypatch.setattr(cli, "build_model", poisoned)
    run = tmp_path / "run"
    (tmp_path / "exp.cfg").write_text(EXP, encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "exp.cfg"),
                 "--data", str(workspace / "data"), "--out", str(run)]) == 3
    assert "epoch 1 step 1" in capsys.readouterr().err
    assert not list(run.glob("*.esc"))


def _rewrite_utterance(data, split, utt_id, feats=None, text=None):
    """Give one utterance of a saved corpus other frames or another text."""
    if feats is not None:
        write_feature_file(str(data / split / "feats" / f"{utt_id}.esf"),
                           feats)
    if text is not None:
        path = data / split / "transcripts.tsv"
        lines = [f"{utt_id}\t{text}" if line.split("\t")[0] == utt_id
                 else line for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _assert_refused(capsys, rc, run, *wanted):
    err = capsys.readouterr().err
    assert rc == 2, err
    for text in wanted:
        assert text in err, err
    assert "Traceback" not in err
    assert not run.exists() or not list(run.glob("*.esc"))


@pytest.mark.parametrize("split,utt,feats,text,reason", [
    ("train", "tts-train-0002", np.zeros((0, 16)), None, "(0 frames)"),
    ("dev", "tts-dev-0001", None, "", "(no tokens)"),
    ("train", "tts-train-0004", np.ones((9, 15)), None,
     "(feature dimension 15, the model's is 16)"),
])
def test_train_names_tts_utterances_it_cannot_take(tmp_path, capsys, split,
                                                   utt, feats, text, reason):
    (tmp_path / "toy.cfg").write_text(TTS_TOY, encoding="utf-8")
    (tmp_path / "exp.cfg").write_text(TTS_EXP, encoding="utf-8")
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--spec", str(tmp_path / "toy.cfg"),
                 "--out", str(data)]) == 0
    _rewrite_utterance(data, split, utt, feats, text)
    capsys.readouterr()
    rc = main(["train", "--config", str(tmp_path / "exp.cfg"),
               "--data", str(data), "--out", str(run)])
    _assert_refused(capsys, rc, run, f"{split} split: 1 utterance(s)",
                    f"{utt} {reason}")
    assert not run.exists()


def test_train_names_asr_utterance_of_another_feature_dimension(tmp_path,
                                                                capsys):
    (tmp_path / "toy.cfg").write_text(TOY, encoding="utf-8")
    (tmp_path / "exp.cfg").write_text(EXP, encoding="utf-8")
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--spec", str(tmp_path / "toy.cfg"),
                 "--out", str(data)]) == 0
    _rewrite_utterance(data, "dev", "asr-dev-0001", np.ones((30, 12)))
    capsys.readouterr()
    rc = main(["train", "--config", str(tmp_path / "exp.cfg"),
               "--data", str(data), "--out", str(run)])
    _assert_refused(capsys, rc, run, "dev split: 1 utterance(s)",
                    "asr-dev-0001 (feature dimension 12, the model's is 16)")
    assert not run.exists()


def test_decode_names_utterances_of_another_feature_dimension(workspace,
                                                              tmp_path,
                                                              capsys):
    # the workspace model (16-dim features) on a 12-dim corpus
    (tmp_path / "toy.cfg").write_text(TOY + "feat_dim = 12\n",
                                      encoding="utf-8")
    assert main(["gen-data", "--spec", str(tmp_path / "toy.cfg"),
                 "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(tmp_path / "data"), "--split", "test"])
    _assert_refused(capsys, rc, tmp_path, "test split: 2 utterance(s)",
                    "asr-test-0000 (feature dimension 12, the model's is 16)",
                    "asr-test-0001")


@pytest.mark.parametrize("command,split,utt,value,what", [
    ("decode", "test", "asr-test-0000", np.nan, "a non-finite value"),
    ("train", "train", "asr-train-0003", np.inf, "a non-finite value"),
    ("train", "train", "asr-train-0000", None, "no feature dimensions"),
])
def test_corrupt_feature_files_are_refused(workspace, tmp_path, capsys,
                                           command, split, utt, value, what):
    # value planted at frame 3, or None for a (5, 0) file: a NaN used to
    # decode to a finite score (relu reads it as 0), an inf to end
    # training in a gradient-norm error naming no file, and a (5, 0) first
    # training utterance in a config error on feat_dim
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(workspace / "data", data)
    path = data / split / "feats" / f"{utt}.esf"
    feats = np.zeros((5, 0))
    if value is not None:
        feats = read_feature_file(str(path))
        feats[3, 1] = value
    _rewrite_utterance(data, split, utt, feats)
    (tmp_path / "exp.cfg").write_text(EXP, encoding="utf-8")
    args = (["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
             "--split", "test"] if command == "decode" else
            ["train", "--config", str(tmp_path / "exp.cfg"), "--out", str(run)])
    capsys.readouterr()
    rc = main(args + ["--data", str(data)])
    _assert_refused(capsys, rc, run,
                    f"{split} split, utterance {utt}: {path} holds {what}")


@pytest.mark.parametrize("key,value", [
    ("d_att", "0"), ("d_att", "-4"), ("d_ff", "-1"),
    ("dropout_rate", "1.5"), ("dropout_rate", "-0.1"),
    ("prenet_dropout_rate", "1.0"), ("warmup_steps", "0"),
    ("noam_k", "nan"), ("noam_k", "0"), ("adadelta_lr", "inf"),
    ("keep_last", "0"), ("keep_last", "-1"),
    ("n_time_masks", "-1"), ("n_freq_masks", "-1"), ("max_t", "-1"),
    ("max_f", "-2"), ("patience", "0"), ("min_delta", "nan"),
    ("min_delta", "inf"), ("gamma", "nan"), ("gamma", "-inf"),
    ("length_penalty", "nan"), ("length_penalty", "inf"),
    ("max_len_ratio", "nan"), ("max_len_ratio", "inf"), ("seed", "-3"),
    ("train_seed", "-1"), ("prenet_units", "0"), ("postnet_layers", "0"),
    # a language model reads d_att and the model seed only
    pytest.param("d_att", "0\ntask = lm", id="lm-d_att-0"),
    pytest.param("seed", "-3\ntrain_seed = 1\ntask = lm", id="lm-seed--3")])
def test_train_rejects_out_of_range_settings_before_writing(
        workspace, tmp_path, capsys, key, value):
    # each value is refused with the key named, before --out exists
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(with_key(EXP, key, value), encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg),
                 "--data", str(workspace / "data"),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_decode_rejects_a_non_finite_gamma(workspace, tmp_path, capsys):
    hyp = tmp_path / "hyp.tsv"
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
               "--data", str(workspace / "data"), "--gamma", "nan",
               "--out", str(hyp)])
    err = capsys.readouterr().err
    assert rc == 1 and "gamma" in err and "Traceback" not in err
    assert not hyp.exists()


def test_files_that_are_not_utf8_are_named(workspace, tmp_path, capsys):
    # a config holding 0xff exits 1, a vocabulary holding 0x96 exits 2;
    # both name the file
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(EXP.encode("utf-8") + b"\xff\n")
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--data",
               str(workspace / "data"), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1 and f"{cfg}: not UTF-8" in err and "Traceback" not in err
    run = tmp_path / "copy"
    run.mkdir()
    for name in ("avg.esc", "model.cfg"):
        (run / name).write_bytes((workspace / "run" / name).read_bytes())
    (run / "vocab.txt").write_bytes(b"<blank>\n<unk>\n<sos/eos>\n\x96\n")
    rc = main(["decode", "--ckpt", str(run / "avg.esc"),
               "--data", str(workspace / "data")])
    err = capsys.readouterr().err
    assert rc == 2 and f"{run / 'vocab.txt'}: not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_a_non_finite_checkpoint_value_exits_two(workspace, tmp_path, capsys,
                                                 bad):
    # a NaN in the first front-end weight would pass a ReLU unseen, and
    # averaging would write it on
    ckpt = load_checkpoint(str(workspace / "run" / "avg.esc"))
    ckpt.params["enc_pre.conv1.weight"].flat[0] = bad
    save_checkpoint(str(tmp_path / "avg.esc"), ckpt.params, epoch=ckpt.epoch)
    for f in ("model.cfg", "vocab.txt"):
        (tmp_path / f).write_bytes((workspace / "run" / f).read_bytes())
    hyp, out = tmp_path / "hyp.tsv", tmp_path / "out.esc"
    capsys.readouterr()
    for argv in (["decode", "--ckpt", str(tmp_path / "avg.esc"),
                  "--data", str(workspace / "data"), "--out", str(hyp)],
                 ["avg-ckpt", "--out", str(out), str(tmp_path / "avg.esc")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'avg.esc'}: enc_pre.conv1.weight holds a "
                "non-finite value") in err
        assert "Traceback" not in err
    assert not hyp.exists() and not out.exists()


# model.cfg settings too large to allocate, and the commands each is
# tried with: the LM reads d_att alone of these, only a tts model has a
# postnet, and train, whose build no checkpoint bounds, runs only where
# numpy refuses the size outright
HUGE = [("d_att", 10 ** 12, "decode lm synth train"),
        ("d_att", 10 ** 30, "decode lm synth train"),
        ("d_att", 10 ** 5, "decode lm synth"),
        ("e", 10 ** 12, "decode synth"), ("d", 10 ** 12, "decode synth"),
        ("postnet_layers", 10 ** 12, "synth")]


@pytest.mark.parametrize("key, value, commands", HUGE,
                         ids=[f"{key}={value}" for key, value, _ in HUGE])
def test_a_model_too_large_to_allocate_exits_one(
        workspace, tts_workspace, lm_run, tmp_path, key, value, commands):
    # a child process under a 2 GB address-space limit runs each command
    # on a copy of its run directory whose model.cfg sets key = value; its
    # peak resident size shows that no memory was filled first
    data, cases = str(workspace / "data"), []
    for cmd in commands.split():
        copy = tmp_path / cmd
        shutil.copytree({"lm": lm_run, "synth": tts_workspace / "run"}.get(
            cmd, workspace / "run"), copy)
        cfg = copy / "model.cfg"
        cfg.write_text(with_key(cfg.read_text(encoding="utf-8"), key, value),
                       encoding="utf-8")
        ckpt = str(copy / ("lm.esc" if cmd == "lm" else "avg.esc"))
        out = str(tmp_path / f"{cmd}.out")
        argv = {"decode": ["decode", "--ckpt", ckpt, "--config", str(cfg),
                           "--data", data],
                "lm": ["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
                       "--data", data, "--lm", ckpt],
                "synth": ["synth", "--ckpt", ckpt, "--text", "a b"],
                "train": ["train", "--config", str(cfg), "--data", data]}[cmd]
        cases.append((cmd, cfg, ckpt, out, argv + ["--out", out]))
    argvs = [argv for *_, argv in cases]
    script = ("import contextlib, io, json, resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from minis2s.cli import main\n"
              "def run(argv):\n"
              "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
              "        return main(argv), err.getvalue()\n"
              f"print(json.dumps([run(argv) for argv in {argvs!r}]))\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    results, peak_kb = done.stdout.splitlines()[-2:]
    for (cmd, cfg, ckpt, out, _), (code, err) in zip(cases,
                                                    json.loads(results)):
        assert code == 1, (cmd, err)
        assert err.startswith(f"config error: {cfg}: cannot build the model "
                              "it describes"), (cmd, err)
        assert cmd == "train" or ckpt in err, (cmd, err)
        assert "Traceback" not in err
        assert not os.path.exists(out)
    assert int(peak_kb) < 256 * 1024


def test_a_beam_too_large_to_search_exits_one(workspace, tmp_path):
    # a child process under a 2 GB address-space limit decodes with a huge
    # beam, set once in a model.cfg and once by --beam: the live rows
    # multiply every step until an allocation fails, and decode refuses
    # the beam, naming where it was set
    huge = 9999999999999
    cfg = tmp_path / "model.cfg"
    cfg.write_text(with_key((workspace / "run" / "model.cfg").read_text(
        encoding="utf-8"), "beam_size", huge), encoding="utf-8")
    decode = ["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
              "--data", str(workspace / "data")]
    cases = [(str(cfg), decode + ["--config", str(cfg)]),
             ("--beam", decode + ["--beam", str(huge)])]
    argvs = [argv + ["--out", str(tmp_path / f"{i}.out")]
             for i, (_, argv) in enumerate(cases)]
    script = ("import contextlib, io, json, resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from minis2s.cli import main\n"
              "def run(argv):\n"
              "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
              "        return main(argv), err.getvalue()\n"
              f"print(json.dumps([run(argv) for argv in {argvs!r}]))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    for i, ((where, _), (code, err)) in enumerate(
            zip(cases, json.loads(done.stdout.splitlines()[-1]))):
        assert code == 1, err
        assert err.startswith(f"config error: beam_size = {huge} (set by "
                              f"{where}) holds more hypotheses than memory "
                              "does"), err
        assert "Traceback" not in err
        assert not (tmp_path / f"{i}.out").exists()


def test_no_draw_leaves_the_generator_alone():
    # a build for a checkpoint of 10 values draws nothing, and charges
    # each parameter against twice that before allocating it: up to there
    # a model is built, so that the load can name the parameters that differ
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with from_checkpoint(10, "model.cfg", "avg.esc"):
        w = glorot(rng, (3, 4), 3, 4)
        glorot(rng, (2, 4), 2, 4)
        with pytest.raises(ConfigError, match=r"^model\.cfg: cannot build the "
                           r"model it describes \(over twice the 10 values "
                           r"avg\.esc holds\)$"):
            glorot(rng, (1,), 1, 1)
    assert rng.bit_generator.state == state
    assert w.shape == (3, 4) and w.requires_grad
    glorot(rng, (3, 4), 3, 4)
    assert rng.bit_generator.state != state


def test_a_loaded_model_equals_one_built_by_drawing(workspace, tts_workspace,
                                                    tmp_path, monkeypatch):
    # _load_model_from builds without drawing, and the checkpoint then
    # writes every parameter: the same model, decode and synth as a model
    # drawn from its seed and then loaded
    for run in (workspace / "run", tts_workspace / "run"):
        ckpt = str(run / "avg.esc")
        model, cfg, _ = cli._load_model_from(ckpt)
        drawn = build_model(cfg.model)
        load_into_model(drawn, load_checkpoint(ckpt), ckpt)
        assert [(n, p.data.tobytes()) for n, p in model.named_parameters()] \
            == [(n, p.data.tobytes()) for n, p in drawn.named_parameters()]
    outputs = {}
    for how, build in (("undrawn", from_checkpoint),
                       ("drawn", lambda *_: contextlib.nullcontext())):
        monkeypatch.setattr(cli, "from_checkpoint", build)
        hyp, feats = tmp_path / f"{how}.tsv", tmp_path / f"{how}.esf"
        assert main(["decode", "--ckpt", str(workspace / "run" / "avg.esc"),
                     "--data", str(workspace / "data"), "--beam", "4",
                     "--nbest", "4", "--out", str(hyp)]) == 0
        assert main(["synth", "--ckpt", str(tts_workspace / "run" / "avg.esc"),
                     "--text", "a b a", "--eos-threshold", "1.0",
                     "--max-frames", "24", "--out", str(feats)]) == 0
        outputs[how] = hyp.read_bytes(), feats.read_bytes()
    assert outputs["undrawn"] == outputs["drawn"]


# sha256 of the checkpoint of a fresh model of each config, vocab_size 12
# and feat_dim 20, as its seed's glorot draws make it
FRESH_DIGESTS = {
    "transformer-toy": ({"preset": "transformer-toy"},
        "073d772cb042e7c60de12a29b236c7ad49f17c3a66ed7c849b3560c0b7b08ebc"),
    "tts-toy": ({"preset": "tts-toy"},
        "3ab38f8a57d7c7f50714b5a92684855ffa808b3b628c6e2a4101b45870720ad5"),
    "rnn-toy": ({"preset": "rnn-toy"},
        "ea685c7bf53e89b880b43c7852a11e020bfa613ece2528375e7fc4e725397171"),
    "transformer-toy-vgg": ({"preset": "transformer-toy", "enc_pre": "vgg"},
        "1b89d9adab320adbaa5f7f95a71c8024f8c5d2271ec10bf07357f69b9c6b4186"),
    "lm": ({"task": "lm", "d_att": "16"},
        "c1ba6dad63f8fb15f9850112d0fcf5779101c73dd5ea6b6bd694441ce79043a5"),
}


@pytest.mark.parametrize("preset", sorted(FRESH_DIGESTS))
def test_a_model_built_for_training_still_draws(preset, tmp_path):
    items, digest = FRESH_DIGESTS[preset]
    cfg = experiment_from_items({**items, "vocab_size": "12",
                                 "feat_dim": "20"}).model
    # a build for a checkpoint, refused part way, leaves nothing behind
    with pytest.raises(ConfigError), from_checkpoint(100, "m.cfg", "c.esc"):
        build_model(cfg)
    path = tmp_path / "fresh.esc"
    save_checkpoint(str(path), build_model(cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_a_checkpoint_missing_a_parameter_exits_two(workspace, tts_workspace,
                                                    tmp_path, capsys):
    # the undrawn build leaves nothing to a checkpoint that lacks a name
    for run, task, argv in (
            (workspace / "run", "asr",
             ["decode", "--data", str(workspace / "data")]),
            (tts_workspace / "run", "tts", ["synth", "--text", "a b"])):
        ckpt = load_checkpoint(str(run / "avg.esc"))
        dropped = [n for n in ckpt.params if n.endswith(".weight")][-1]
        del ckpt.params[dropped]
        (tmp_path / task).mkdir()
        path, out = tmp_path / task / "avg.esc", tmp_path / task / "out"
        save_checkpoint(str(path), ckpt.params, epoch=ckpt.epoch)
        for f in ("model.cfg", "vocab.txt"):
            (tmp_path / task / f).write_bytes((run / f).read_bytes())
        capsys.readouterr()
        assert main(argv + ["--ckpt", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: checkpoint/model parameter mismatch" in err
        assert f"1 missing ['{dropped}']" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_log_timing_fills_only_wall_ms(workspace, tmp_path):
    # the workspace run is the same run with timing off
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(with_key(EXP, "log_timing", "true"), encoding="utf-8")
    run, base = tmp_path / "run", workspace / "run"
    assert main(["train", "--config", str(cfg), "--data",
                 str(workspace / "data"), "--out", str(run)]) == 0
    on, off = ([row.split(",") for row in (r / "log.csv").read_text(
        encoding="utf-8").splitlines()] for r in (run, base))
    wall = LOG_COLUMNS.index("wall_ms")
    assert len(on) == len(off) > 1
    for row_on, row_off in zip(on[1:], off[1:]):
        assert re.fullmatch(r"\d+", row_on[wall]) and row_off[wall] == "0"
        assert row_on[:wall] + row_on[wall + 1:] == \
            row_off[:wall] + row_off[wall + 1:]
    ckpts = sorted(p.name for p in base.glob("*.esc"))
    assert ckpts == sorted(p.name for p in run.glob("*.esc"))
    for name in ckpts:
        assert (run / name).read_bytes() == (base / name).read_bytes()
