"""Data formats, toy generators, and metric tests."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minis2s.data import (ToySpec, Utterance, Vocab, bigram_swap, gen_toy,
                          load_dataset, read_feature_file, read_manifest,
                          read_transcripts, save_dataset, toy_vocab,
                          write_feature_file, write_manifest,
                          write_transcripts, _prototypes)
from minis2s.errors import ConfigError, DataError
from minis2s.metrics import bleu, cer, edit_distance, wer
from minis2s.models import ConvSubsampler
from minis2s.reserved import BLANK_ID, N_RESERVED, RESERVED_TOKENS, UNK_ID


# -- feature files --------------------------------------------------------------


def test_feature_file_roundtrip_bit_exact(tmp_path):
    x = np.random.default_rng(0).standard_normal((7, 5)).astype(np.float32)
    path = str(tmp_path / "u.esf")
    write_feature_file(path, x.astype(np.float64))
    y = read_feature_file(path)
    assert y.dtype == np.float64
    assert np.array_equal(y, x.astype(np.float64))


def test_feature_file_float32_boundary(tmp_path):
    x = np.random.default_rng(1).standard_normal((3, 4))  # float64 source
    path = str(tmp_path / "v.esf")
    write_feature_file(path, x)
    y = read_feature_file(path)
    assert np.array_equal(y, x.astype(np.float32).astype(np.float64))


def test_feature_file_bad_magic(tmp_path):
    path = str(tmp_path / "bad.esf")
    with open(path, "wb") as fh:
        fh.write(b"JUNK" + b"\x00" * 8)
    with pytest.raises(DataError):
        read_feature_file(path)


def test_feature_file_size_mismatch(tmp_path):
    path = str(tmp_path / "short.esf")
    write_feature_file(path, np.zeros((4, 4)))
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[:-4])
    with pytest.raises(DataError):
        read_feature_file(path)


def test_feature_file_rejects_1d():
    with pytest.raises(DataError):
        write_feature_file("/tmp/x.esf", np.zeros(5))


# -- vocab and text files --------------------------------------------------------


def test_vocab_reserved_ids():
    v = Vocab(["a", "b"])
    assert v.tokens[:3] == RESERVED_TOKENS
    assert v.index["<blank>"] == BLANK_ID
    assert v.index["a"] == N_RESERVED
    assert len(v) == 5


def test_vocab_encode_unknown_maps_to_unk():
    v = Vocab(["a"])
    assert v.encode(["a", "zzz"]) == [N_RESERVED, UNK_ID]


def test_vocab_decode_range_check():
    v = Vocab(["a"])
    with pytest.raises(DataError):
        v.decode([99])


def test_vocab_save_load_roundtrip(tmp_path):
    v = Vocab(["x", "y", "z"])
    path = str(tmp_path / "vocab.txt")
    v.save(path)
    w = Vocab.load(path)
    assert w.tokens == v.tokens


def test_vocab_load_rejects_missing_reserved(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("a\nb\n")
    with pytest.raises(DataError):
        Vocab.load(path)


def test_vocab_duplicate_rejected():
    with pytest.raises(DataError):
        Vocab(["a", "a"])


def test_transcripts_roundtrip(tmp_path):
    v = Vocab(["a", "b"])
    utts = [Utterance("u1", None, [3, 4]), Utterance("u2", None, [4])]
    path = str(tmp_path / "tr.tsv")
    write_transcripts(path, utts, v)
    back = read_transcripts(path, v)
    assert back == {"u1": [3, 4], "u2": [4]}


def test_transcripts_malformed_line(tmp_path):
    path = str(tmp_path / "bad.tsv")
    with open(path, "w") as fh:
        fh.write("no-tab-here\n")
    with pytest.raises(DataError):
        read_transcripts(path, Vocab(["a"]))


def test_manifest_roundtrip(tmp_path):
    path = str(tmp_path / "m.tsv")
    entries = [("u1", "feats/u1.esf"), ("u2", "feats/u2.esf")]
    write_manifest(path, entries)
    assert read_manifest(path) == entries


# -- toy generators --------------------------------------------------------------


def small_spec(**kw):
    base = dict(task="asr", vocab_size=4, proto_len_range=(6, 8), feat_dim=8,
                noise_std=0.1, utt_len_range=(2, 5), n_train=12, n_dev=4,
                n_test=4, seed=7)
    base.update(kw)
    return ToySpec(**base)


def test_toy_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(task="mt").validate()
    with pytest.raises(ConfigError):
        small_spec(vocab_size=30).validate()
    with pytest.raises(ConfigError):
        small_spec(proto_len_range=(5, 2)).validate()


def test_gen_toy_deterministic():
    a = gen_toy(small_spec())
    b = gen_toy(small_spec())
    for split in ("train", "dev", "test"):
        for ua, ub in zip(a[split], b[split]):
            assert ua.utt_id == ub.utt_id
            assert ua.tokens == ub.tokens
            assert np.array_equal(ua.feats, ub.feats)


def test_gen_toy_token_ranges_and_no_repeats():
    splits = gen_toy(small_spec())
    for utts in splits.values():
        for u in utts:
            assert all(N_RESERVED <= t < N_RESERVED + 4 for t in u.tokens)
            assert all(x != y for x, y in zip(u.tokens, u.tokens[1:]))


def test_gen_toy_noise_free_reconstruction():
    spec = small_spec(noise_std=0.0)
    rng = np.random.default_rng(spec.seed)
    protos = _prototypes(spec, rng)
    splits = gen_toy(spec)
    u = splits["train"][0]
    want = np.concatenate([protos[t] for t in u.tokens])
    assert np.array_equal(u.feats, want)


def test_gen_toy_ctc_feasible_after_subsampling():
    # alignments must survive the 4x front-end reduction
    splits = gen_toy(small_spec())
    for utts in splits.values():
        for u in utts:
            assert ConvSubsampler.frames(len(u.feats)) >= len(u.tokens)


def test_st_shares_features_with_asr():
    asr = gen_toy(replace(small_spec(), task="asr"))
    st = gen_toy(replace(small_spec(), task="st"))
    for ua, us in zip(asr["train"], st["train"]):
        assert np.array_equal(ua.feats, us.feats)
        assert us.tokens == bigram_swap(ua.tokens)


def test_gen_helpers_set_task():
    for task in ("asr", "st", "tts"):
        utt = gen_toy(replace(small_spec(), task=task))["train"][0]
        assert utt.utt_id.startswith(f"{task}-")


def test_bigram_swap_properties():
    assert bigram_swap([1, 2, 3, 4]) == [2, 1, 4, 3]
    assert bigram_swap([1, 2, 3]) == [2, 1, 3]
    assert bigram_swap([5]) == [5]
    for seq in ([1, 2, 3, 4], [7, 3, 5], [4], []):
        assert bigram_swap(bigram_swap(seq)) == list(seq)
        assert len(bigram_swap(seq)) == len(seq)


def test_save_load_dataset_roundtrip(tmp_path):
    spec = small_spec()
    splits = gen_toy(spec)
    vocab = toy_vocab(spec)
    root = str(tmp_path / "toy")
    save_dataset(root, splits, vocab)
    back, loaded_vocab = load_dataset(root, "train")
    assert loaded_vocab.tokens == vocab.tokens
    assert len(back) == len(splits["train"])
    for orig, got in zip(splits["train"], back):
        assert got.utt_id == orig.utt_id
        assert got.tokens == orig.tokens
        want = orig.feats.astype(np.float32).astype(np.float64)
        assert np.array_equal(got.feats, want)


def test_load_dataset_missing_split(tmp_path):
    spec = small_spec()
    save_dataset(str(tmp_path / "d"), gen_toy(spec), toy_vocab(spec))
    with pytest.raises(DataError):
        load_dataset(str(tmp_path / "d"), "nope")


# -- edit distance and rates ------------------------------------------------------


def test_edit_identical():
    assert edit_distance(list("abc"), list("abc")) == 0


def test_edit_single_substitution():
    assert edit_distance("a b c".split(), "a x c".split()) == 1


def test_edit_pure_deletion_and_insertion():
    assert edit_distance(["a"], []) == 1
    assert edit_distance([], ["a"]) == 1


@pytest.mark.parametrize("seed", range(20))
def test_edit_swap_symmetry(seed):
    rng = np.random.default_rng(seed)
    ref = [int(t) for t in rng.integers(0, 4, size=rng.integers(0, 9))]
    hyp = [int(t) for t in rng.integers(0, 4, size=rng.integers(0, 9))]
    assert edit_distance(ref, hyp) == edit_distance(hyp, ref)


def _levenshtein(a: tuple, b: tuple) -> int:
    """The distance by its recursive definition, memoised: drop a's last
    unit, b's last unit, or both (at cost 1 unless they are equal)."""
    @functools.lru_cache(maxsize=None)
    def d(i, j):
        if i == 0 or j == 0:
            return i + j
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                   d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
    return d(len(a), len(b))


units = st.lists(st.integers(0, 3), max_size=9)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(units, units)
def test_edit_distance_is_the_levenshtein_distance(ref, hyp):
    got = edit_distance(ref, hyp)
    assert got == _levenshtein(tuple(ref), tuple(hyp))
    assert got == edit_distance(hyp, ref)
    assert (got == 0) == (ref == hyp)
    assert got <= max(len(ref), len(hyp))


def test_wer_hand_cases():
    assert wer(["a b c"], ["a x c"]) == pytest.approx(1.0 / 3.0)
    assert wer(["a"], [""]) == 1.0
    assert wer(["a b"], ["a b"]) == 0.0


def test_wer_corpus_pools_errors():
    got = wer(["a b c", "a"], ["a x c", "b"])
    assert got == pytest.approx(2.0 / 4.0)


def test_wer_empty_reference_rejected():
    with pytest.raises(DataError):
        wer([""], ["a"])
    with pytest.raises(DataError):
        wer(["a"], ["a", "b"])


def test_cer_characters():
    assert cer(["ab c"], ["abc"]) == 0.0
    assert cer(["abc"], ["axc"]) == pytest.approx(1.0 / 3.0)
    assert cer([["ab", "c"]], [["a", "bc"]]) == 0.0


# -- BLEU -------------------------------------------------------------------------


def test_bleu_perfect_match():
    assert bleu(["the cat sat"], ["the cat sat"]) == 1.0


def test_bleu_empty_hyp():
    assert bleu(["a b c"], [""]) == 0.0


def test_bleu_hand_computed_single_sentence():
    ref = "the cat sat on the mat"
    hyp = "the cat on the mat"
    # unigram 5/5, bigram (3+1)/(4+1), trigram (1+1)/(3+1), 4-gram (0+1)/(2+1)
    prec = 1.0 * (4 / 5) * (2 / 4) * (1 / 3)
    want = np.exp(1 - 6 / 5) * prec ** 0.25
    assert abs(bleu([ref], [hyp]) - want) < 1e-12


def test_bleu_brevity_penalty_only_when_short():
    long_hyp = bleu(["a b"], ["a b c"])
    assert long_hyp > 0.0
    # same n-gram overlap but short side gets penalized
    assert bleu(["a b c"], ["a b"]) < bleu(["a b"], ["a b"])


def test_bleu_mismatched_lengths_rejected():
    with pytest.raises(DataError):
        bleu(["a"], ["a", "b"])
    with pytest.raises(DataError):
        bleu([], [])
