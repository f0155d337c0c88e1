"""Evaluation metrics: the Levenshtein distance, corpus WER/CER (summed
distances over summed reference lengths), and corpus BLEU with add-1
smoothing above unigrams."""

from __future__ import annotations

import math
from collections import Counter
from typing import List, Sequence

from .errors import DataError


def edit_distance(ref: Sequence, hyp: Sequence) -> int:
    """Unit-cost Levenshtein distance: the fewest substitutions,
    insertions and deletions that turn ref into hyp. One DP row, updated
    in place: before row[j] is overwritten it holds the distance of
    ref[:i-1] to hyp[:j], and `diag` that of ref[:i-1] to hyp[:j-1]."""
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        diag, row[0] = row[0], i
        for j, h in enumerate(hyp, 1):
            diag, row[j] = row[j], min(diag + (r != h), row[j] + 1,
                                       row[j - 1] + 1)
    return row[-1]


def _as_units(entry, char_level: bool) -> List:
    if char_level:
        if isinstance(entry, str):
            return [c for c in entry if not c.isspace()]
        return [c for tok in entry for c in str(tok)]
    if isinstance(entry, str):
        return entry.split()
    return list(entry)


def _corpus_rate(refs: Sequence, hyps: Sequence, char_level: bool) -> float:
    if len(refs) != len(hyps):
        raise DataError(f"{len(refs)} references for {len(hyps)} hypotheses")
    total_err = 0
    total_len = 0
    for ref, hyp in zip(refs, hyps):
        r = _as_units(ref, char_level)
        h = _as_units(hyp, char_level)
        total_err += edit_distance(r, h)
        total_len += len(r)
    if total_len == 0:
        raise DataError("empty reference corpus")
    return total_err / total_len


def wer(refs: Sequence, hyps: Sequence) -> float:
    """Corpus rate over word tokens: summed distances / summed ref lengths."""
    return _corpus_rate(refs, hyps, char_level=False)


def cer(refs: Sequence, hyps: Sequence) -> float:
    """Corpus rate over characters (whitespace ignored in strings)."""
    return _corpus_rate(refs, hyps, char_level=True)


def _ngrams(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(refs: Sequence[Sequence], hyps: Sequence[Sequence],
         max_n: int = 4) -> float:
    """Corpus BLEU in [0, 1]: clipped n-gram precisions with add-1
    smoothing for n >= 2, geometric mean, brevity penalty."""
    if len(refs) != len(hyps):
        raise DataError(f"{len(refs)} references for {len(hyps)} hypotheses")
    if not refs:
        raise DataError("empty corpus")
    matched = [0] * max_n
    predicted = [0] * max_n
    ref_len = 0
    hyp_len = 0
    for ref, hyp in zip(refs, hyps):
        ref = _as_units(ref, char_level=False)
        hyp = _as_units(hyp, char_level=False)
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            predicted[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(min(c, ref_counts[g])
                                  for g, c in hyp_counts.items())
    if hyp_len == 0 or matched[0] == 0:
        return 0.0
    log_prec = 0.0
    for n in range(1, max_n + 1):
        num, den = matched[n - 1], predicted[n - 1]
        if n >= 2:
            num, den = num + 1, den + 1
        if num == 0 or den == 0:
            return 0.0
        log_prec += math.log(num / den)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_prec / max_n)
