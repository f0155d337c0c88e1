"""Datasets on disk and the synthetic toy tasks.

Feature files are a small binary format (magic ESF1, little-endian
u32 frame and dim counts, float32 payload); transcripts, manifests,
and vocabularies are plain UTF-8 TSV/line files. Toy corpora are pure
functions of a ToySpec: each token owns a fixed random prototype
feature chunk, utterances concatenate prototypes plus gaussian noise.
"""

from __future__ import annotations

import os
import string
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError, check_settings, setting
from .reserved import N_RESERVED, RESERVED_TOKENS, UNK_ID

FEAT_MAGIC = b"ESF1"


def read_text(path: str, error=DataError) -> str:
    """A UTF-8 text file's contents, every line end read as a newline; a
    file that is not UTF-8 raises `error` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def write_feature_file(path: str, feats: np.ndarray) -> None:
    """float32 on disk; loading promotes back to float64."""
    feats = np.asarray(feats)
    if feats.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {feats.shape}")
    n, d = feats.shape
    with open(path, "wb") as fh:
        fh.write(FEAT_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(feats, dtype="<f4").tobytes())


def read_feature_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEAT_MAGIC:
            raise DataError(f"{path}: bad feature magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise DataError(f"{path}: truncated header")
        n, d = struct.unpack("<II", header)
        payload = fh.read()
    if len(payload) != 4 * n * d:
        raise DataError(f"{path}: payload holds {len(payload)} bytes, "
                        f"header declares {4 * n * d}")
    x = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    return x.astype(np.float64)


class Vocab:
    """Token table with the three reserved ids up front."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens = RESERVED_TOKENS + [t for t in tokens
                                         if t not in RESERVED_TOKENS]
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> List[int]:
        return [self.index.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Sequence[int]) -> List[str]:
        out = []
        for i in ids:
            if not 0 <= int(i) < len(self.tokens):
                raise DataError(f"token id {i} outside vocabulary")
            out.append(self.tokens[int(i)])
        return out

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        lines = [ln for ln in read_text(path).split("\n") if ln.strip()]
        if lines[:N_RESERVED] != RESERVED_TOKENS:
            raise DataError(f"{path}: reserved tokens malformed or missing")
        return cls(lines[N_RESERVED:])


@dataclass
class Utterance:
    utt_id: str
    feats: Optional[np.ndarray]
    tokens: List[int]


def read_id_lines(path: str, layout: str, exact: bool = False
                  ) -> Dict[str, List[str]]:
    """The `utt_id<TAB>...` lines of a UTF-8 file, blank ones skipped, in
    file order as each id's fields after it: at least one, or exactly one
    when `exact`. A line with too few or too many fields, or a repeated
    id, raises DataError naming the file, the line and `layout`, what
    should follow the id."""
    out: Dict[str, List[str]] = {}
    for line_no, line in enumerate(read_text(path).split("\n"), 1):
        if not line:
            continue
        utt_id, *rest = line.split("\t")
        if not rest or (exact and len(rest) != 1):
            raise DataError(f"{path}:{line_no}: expected utt_id<TAB>{layout}")
        if utt_id in out:
            raise DataError(f"{path}:{line_no}: duplicate utterance id "
                            f"{utt_id!r}")
        out[utt_id] = rest
    return out


def write_transcripts(path: str, utts: Sequence[Utterance], vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u in utts:
            fh.write(u.utt_id + "\t" + " ".join(vocab.decode(u.tokens)) + "\n")


def read_transcripts(path: str, vocab: Vocab) -> Dict[str, List[int]]:
    return {utt_id: vocab.encode(" ".join(rest).split())
            for utt_id, rest in read_id_lines(path, "tokens").items()}


def write_manifest(path: str, entries: Sequence[Tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, rel in entries:
            fh.write(f"{utt_id}\t{rel}\n")


def read_manifest(path: str) -> List[Tuple[str, str]]:
    return [(utt_id, rest[0]) for utt_id, rest
            in read_id_lines(path, "path", exact=True).items()]


# -- toy corpora ----------------------------------------------------------------


@dataclass
class ToySpec:
    task: str = setting(choices=("asr", "st", "tts"))
    vocab_size: int = setting(8, "[1, 26]")   # real tokens, letters a..
    proto_len_range: Tuple[int, int] = setting((6, 8), "[1, inf)")
    feat_dim: int = setting(16, "[1, inf)")
    noise_std: float = setting(0.1, "[0, inf)")
    utt_len_range: Tuple[int, int] = setting((3, 8), "[1, inf)")
    n_train: int = setting(200, "[1, inf)")
    n_dev: int = setting(20, "[0, inf)")
    n_test: int = setting(20, "[0, inf)")
    seed: int = setting(0, "[0, inf)")

    def validate(self) -> "ToySpec":
        check_settings(self)
        for key in ("proto_len_range", "utt_len_range"):
            lo, hi = getattr(self, key)
            if lo > hi:
                raise ConfigError(f"{key} = {lo}:{hi} runs backwards")
        return self


def toy_vocab(spec: ToySpec) -> Vocab:
    return Vocab(list(string.ascii_lowercase[:spec.vocab_size]))


def bigram_swap(tokens: Sequence[int]) -> List[int]:
    """Swap adjacent pairs; a trailing odd token stays put. Applying
    twice restores the input."""
    out = list(tokens)
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _prototypes(spec: ToySpec, rng) -> Dict[int, np.ndarray]:
    protos = {}
    for k in range(spec.vocab_size):
        n = int(rng.integers(spec.proto_len_range[0],
                             spec.proto_len_range[1] + 1))
        protos[N_RESERVED + k] = rng.standard_normal((n, spec.feat_dim))
    return protos


def _sample_tokens(spec: ToySpec, rng) -> List[int]:
    """No immediate repeats: keeps every alignment feasible after the
    4x front-end subsampling."""
    n = int(rng.integers(spec.utt_len_range[0], spec.utt_len_range[1] + 1))
    tokens: List[int] = []
    while len(tokens) < n:
        t = N_RESERVED + int(rng.integers(0, spec.vocab_size))
        if tokens and spec.vocab_size > 1 and t == tokens[-1]:
            continue
        tokens.append(t)
    return tokens


def _token_feats(tokens: Sequence[int], protos, spec: ToySpec, rng) -> np.ndarray:
    clean = np.concatenate([protos[t] for t in tokens])
    if spec.noise_std:
        return clean + spec.noise_std * rng.standard_normal(clean.shape)
    return clean


def gen_toy(spec: ToySpec) -> Dict[str, List[Utterance]]:
    """All three toy tasks share one generator; the task decides what is
    the source and what is the target.

    asr: features in, same token sequence out (monotonic).
    st:  features in, bigram-swapped token sequence out (non-monotonic).
    tts: tokens in, prototype features out.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    protos = _prototypes(spec, rng)
    splits: Dict[str, List[Utterance]] = {}
    for split, count in [("train", spec.n_train), ("dev", spec.n_dev),
                         ("test", spec.n_test)]:
        utts = []
        for i in range(count):
            tokens = _sample_tokens(spec, rng)
            feats = _token_feats(tokens, protos, spec, rng)
            utt_id = f"{spec.task}-{split}-{i:04d}"
            if spec.task == "st":
                utts.append(Utterance(utt_id, feats, bigram_swap(tokens)))
            else:
                # tts swaps direction at the consumer; data is the same
                utts.append(Utterance(utt_id, feats, tokens))
        splits[split] = utts
    return splits


# -- dataset directories -----------------------------------------------------


def save_dataset(out_dir: str, splits: Dict[str, List[Utterance]],
                 vocab: Vocab) -> None:
    os.makedirs(out_dir, exist_ok=True)
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    for split, utts in splits.items():
        sdir = os.path.join(out_dir, split)
        fdir = os.path.join(sdir, "feats")
        os.makedirs(fdir, exist_ok=True)
        entries = []
        for u in utts:
            rel = os.path.join("feats", u.utt_id + ".esf")
            write_feature_file(os.path.join(sdir, rel), u.feats)
            entries.append((u.utt_id, rel))
        write_manifest(os.path.join(sdir, "manifest.tsv"), entries)
        write_transcripts(os.path.join(sdir, "transcripts.tsv"), utts, vocab)


def load_dataset(root: str, split: str,
                 vocab: Optional[Vocab] = None) -> Tuple[List[Utterance], Vocab]:
    """The utterances of one split of a saved corpus, and its vocabulary.
    Features with no dimensions or a non-finite value raise DataError
    naming the split, the utterance and the file."""
    if vocab is None:
        vocab = Vocab.load(os.path.join(root, "vocab.txt"))
    sdir = os.path.join(root, split)
    if not os.path.isdir(sdir):
        raise DataError(f"no such split directory: {sdir}")
    manifest = read_manifest(os.path.join(sdir, "manifest.tsv"))
    transcripts = read_transcripts(os.path.join(sdir, "transcripts.tsv"), vocab)
    utts = []
    for utt_id, rel in manifest:
        if utt_id not in transcripts:
            raise DataError(f"{utt_id}: in manifest but not in transcripts")
        path = os.path.join(sdir, rel)
        feats = read_feature_file(path)
        if not feats.shape[1]:
            raise DataError(f"{split} split, utterance {utt_id}: {path} "
                            f"holds no feature dimensions")
        if not np.isfinite(feats).all():
            raise DataError(f"{split} split, utterance {utt_id}: {path} "
                            f"holds a non-finite value")
        utts.append(Utterance(utt_id, feats, transcripts[utt_id]))
    return utts, vocab
