"""Fuzzed readers and config parsers: whatever the bytes or text, each
returns a value or raises DataError / ConfigError, the errors the command
line maps to exit codes 2 and 1; never another exception. The command
line itself, run on a damaged run directory, ends with an exit code,
never a traceback. The tape's broadcast rule accepts exactly the shapes
numpy broadcasts, with numpy as the oracle. The searches are
derandomized, so every run draws the same examples."""

import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minis2s import tensor as T
from minis2s.cli import main
from minis2s.config import (EXPERIMENT_KEYS, experiment_from_items,
                            parse_config_text)
from minis2s.data import (FEAT_MAGIC, ToySpec, Vocab, read_feature_file,
                          read_manifest, read_transcripts, toy_vocab)
from minis2s.errors import ConfigError, DataError, DimensionError
from minis2s.training import CKPT_MAGIC, load_checkpoint

FUZZ = settings(max_examples=500, derandomize=True, deadline=None,
                database=None)

u32 = st.integers(0, 2 ** 32 - 1)
small = st.integers(0, 6)

# a feature file: random bytes, or a well-formed header over a payload
# that may or may not fit it
feature_files = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda n, d, payload: FEAT_MAGIC + struct.pack("<II", n, d)
              + payload,
              st.one_of(small, u32), st.one_of(small, u32),
              st.binary(max_size=160)))


@st.composite
def checkpoint_files(draw):
    """A checkpoint (magic, epoch, count) whose parameter records may be
    cut short, mislabel their sizes or hold names that are not UTF-8."""
    out = CKPT_MAGIC + struct.pack("<II", draw(st.one_of(small, u32)),
                                   draw(st.one_of(small, u32)))
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.binary(max_size=6))
        shape = draw(st.lists(small, max_size=3))
        out += struct.pack("<H", draw(st.sampled_from([len(name), 65535])))
        out += name + struct.pack("<B", len(shape))
        out += b"".join(struct.pack("<I", n) for n in shape)
        out += draw(st.binary(max_size=80))
    cut = draw(st.integers(0, len(out)))
    return draw(st.sampled_from([out, out[:cut], b"ESC" + out[3:cut]]))


# line files: text with the separators the readers split on, or raw bytes
# (0x96 and 0xff are not UTF-8)
def pieces(*words: str, max_size: int = 30):
    """Text strung together from the given pieces."""
    return st.lists(st.sampled_from(words), max_size=max_size).map("".join)


line_text = pieces(*"ab\t\n #=<>/é", "<blank>", "<unk>", "<sos/eos>")
line_files = st.one_of(line_text.map(lambda s: s.encode("utf-8")),
                       st.binary(max_size=60),
                       line_text.map(lambda s: s.encode("utf-8") + b"\x96"))

# every key the loader knows, so a new setting is fuzzed as it lands
KEYS = sorted(EXPERIMENT_KEYS) + ["preset", "unknown_key"]
items = st.dictionaries(
    st.one_of(st.sampled_from(KEYS), st.text(max_size=8)),
    st.one_of(st.sampled_from(["1", "-3", "0.5", "nan", "inf", "true", "no",
                               "transformer-toy", "rnn", "1e999", "0x10",
                               "１２", "9" * 400]),
              st.text(max_size=12)),
    max_size=5)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


def _reads(reader, path, data: bytes):
    path.write_bytes(data)
    try:
        reader(str(path))
    except DataError:
        pass


def test_read_feature_file(path):
    @FUZZ
    @given(feature_files)
    def check(data):
        _reads(read_feature_file, path, data)
    check()


def test_load_checkpoint(path):
    @FUZZ
    @given(checkpoint_files())
    def check(data):
        _reads(load_checkpoint, path, data)
    check()


def test_vocab_load(path):
    @FUZZ
    @given(line_files)
    def check(data):
        _reads(Vocab.load, path, data)
    check()


def test_read_manifest(path):
    @FUZZ
    @given(line_files)
    def check(data):
        _reads(read_manifest, path, data)
    check()


def test_read_transcripts(path):
    vocab = toy_vocab(ToySpec(vocab_size=2))

    @FUZZ
    @given(line_files)
    def check(data):
        _reads(lambda p: read_transcripts(p, vocab), path, data)
    check()


@FUZZ
@given(st.one_of(pieces(*"ab=#\n\r \t1.", "preset", "==", max_size=40),
                st.text(max_size=40)))
def test_parse_config_text(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


@FUZZ
@given(items)
def test_experiment_from_items(items):
    # a vocabulary size the data would give, so the model's checks run on
    try:
        cfg = experiment_from_items({"vocab_size": "8", **items})
        for section in (cfg.model, cfg.train, cfg.beam):
            section.validate()
    except ConfigError:
        pass


# the files of a model's run directory and of a fusion LM's
RUN_FILES = ("run/avg.esc", "run/model.cfg", "run/vocab.txt",
             "lm/lm.esc", "lm/model.cfg", "lm/vocab.txt")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny trained model (d_att 8, one layer each, two utterances per
    split) and LM (d_att 8), and the bytes of the run files the damage
    starts from."""
    root = tmp_path_factory.mktemp("fuzz_run")
    (root / "toy.cfg").write_text("task = asr\nvocab_size = 3\nn_train = 2\n"
                                  "n_dev = 0\nn_test = 2\nseed = 1\n",
                                  encoding="utf-8")
    (root / "exp.cfg").write_text("preset = transformer-toy\ne = 1\nd = 1\n"
                                  "d_att = 8\nd_ff = 8\nepochs = 1\n",
                                  encoding="utf-8")
    (root / "lm.cfg").write_text("task = lm\nd_att = 8\nepochs = 1\n",
                                 encoding="utf-8")
    assert main(["gen-data", "--spec", str(root / "toy.cfg"),
                 "--out", str(root / "data")]) == 0
    for cfg, out in (("exp.cfg", "run"), ("lm.cfg", "lm")):
        assert main(["train", "--config", str(root / cfg),
                     "--data", str(root / "data"),
                     "--out", str(root / out)]) == 0
    return root, {n: (root / n).read_bytes() for n in RUN_FILES}


# one run file cut at an offset, or up to 16 of its bytes overwritten
# there. That may join a model.cfg number to the next line's digits: a
# model over twice its checkpoint's values is refused before allocation.
damage = st.tuples(st.sampled_from(RUN_FILES), st.integers(0, 2 ** 16),
                   st.one_of(st.none(), st.binary(min_size=1, max_size=16)))


# one value of a model.cfg overwritten with a decimal of up to 13 digits,
# which may take a model over its checkpoint's size. The run's beam_size
# is left out: a huge beam multiplies the search's rows until an
# allocation fails, and this target runs in process, under no memory
# limit. test_cli.py's test_a_beam_too_large_to_search_exits_one checks
# that refusal in a memory-limited child.
numbers = st.tuples(st.sampled_from(("run/model.cfg", "lm/model.cfg")),
                    st.integers(0, 2 ** 16), st.integers(0, 10 ** 13 - 1))


def _with_number(name: str, raw: bytes, at: int, number: int) -> bytes:
    lines = raw.decode("utf-8").splitlines(keepends=True)
    values = [i for i, line in enumerate(lines) if " = " in line
              and not (name == "run/model.cfg"
                       and line.startswith("beam_size "))]
    i = values[at % len(values)]
    lines[i] = f"{lines[i].split(' = ')[0]} = {number}\n"
    return "".join(lines).encode("utf-8")


def test_cli_on_damaged_run_directories(tiny_run, tmp_path, capsys):
    root, files = tiny_run
    for d in ("run", "lm"):
        (tmp_path / d).mkdir()
    decode = ["decode", "--ckpt", str(tmp_path / "run" / "avg.esc"),
              "--data", str(root / "data")]
    refused = []

    def run_damaged(name, damaged):
        for other, raw in files.items():
            (tmp_path / other).write_bytes(raw)
        (tmp_path / name).write_bytes(damaged)
        # the model's files load first, so the LM's damage needs --lm and
        # the model's does not
        for argv in ([decode + ["--lm", str(tmp_path / "lm" / "lm.esc")]]
                     if name.startswith("lm/") else
                     [decode, ["avg-ckpt", "--out", str(tmp_path / "avg.esc"),
                               str(tmp_path / "run" / "avg.esc")]]):
            assert main(argv) in (0, 1, 2, 3)
        refused.append("cannot build the model it describes"
                       in capsys.readouterr().err)

    @FUZZ
    @given(damage)
    def check(hit):
        name, at, patch = hit
        raw = files[name]
        at %= len(raw) + 1
        run_damaged(name, raw[:at] if patch is None else
                    raw[:at] + patch + raw[at + len(patch):])

    @settings(FUZZ, max_examples=200)
    @given(numbers)
    def check_numbers(hit):
        name, at, number = hit
        run_damaged(name, _with_number(name, files[name], at, number))

    check()
    check_numbers()
    # some drawn numbers reach the model build's size refusal (17 of the
    # 200 draws)
    assert sum(refused) > 0


# -- the broadcast-fit rule against numpy ---------------------------------------


@st.composite
def shape_near(draw, target):
    """A shape of up to two more or fewer axes than target, each dim, as
    aligned from the right, 1, target's or another."""
    target = (1, 1) + tuple(target)
    n = draw(st.integers(max(0, len(target) - 4), len(target)))
    return tuple(draw(st.one_of(st.just(1), st.just(t), st.integers(0, 4)))
                 for t in target[len(target) - n:])


@st.composite
def mask_and_scores(draw):
    """A mask shape and attention scores (..., H, n_q, n_k) to test it
    against, with up to two batch axes."""
    scores = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=5)))
    return draw(shape_near(scores)), scores


def _numpy_fits(shape, target):
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


@FUZZ
@given(mask_and_scores())
def test_a_mask_fits_the_weights_exactly_when_numpy_broadcasts_it_to_them(
        case):
    mask_shape, scores = case
    fits = _numpy_fits(mask_shape, scores)
    assert T._fits(mask_shape, scores) == fits
    lead, (heads, n_q, n_k) = scores[:-3], scores[-3:]
    q = T.Tensor(np.zeros(lead + (n_q, 2 * heads)))
    k = T.Tensor(np.zeros(lead + (n_k, 2 * heads)))
    mask = np.ones(mask_shape, dtype=bool)
    if fits:
        assert T.attention_weights(q, k, heads, mask).shape == scores
    else:
        with pytest.raises(DimensionError) as err:
            T.attention_weights(q, k, heads, mask)
        assert f"mask shape {mask_shape} does not fit weights {scores}" \
            in str(err.value)


@FUZZ
@given(st.lists(st.integers(0, 3), max_size=4).map(tuple).flatmap(
    lambda a: st.tuples(st.just(a), shape_near(a))))
def test_operands_broadcast_exactly_when_numpy_broadcasts_them(shapes):
    a_shape, b_shape = shapes
    a, b = T.Tensor(np.zeros(a_shape)), T.Tensor(np.zeros(b_shape))
    try:
        want = np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        for op in (operator.add, operator.mul):
            with pytest.raises(DimensionError) as err:
                op(a, b)
            assert f"incompatible shapes {a_shape} and {b_shape}" \
                in str(err.value)
        return
    assert (a + b).shape == (b + a).shape == want
    assert (a * b).shape == (b * a).shape == want
