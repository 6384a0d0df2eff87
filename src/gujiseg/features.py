"""Feature templates: each character position becomes an ordered list of
categorical attribute strings.

Canonical attribute order: character unigrams by ascending offset, character
bigrams by ascending offset, pronunciation classes (by ascending offset, each
character's classes in dictionary order), entity tag, PMI bins (left pair,
then right pair). Attribute strings are the wire-level identity; downstream
layers treat them as opaque symbols, and the model's attribute index is built
in first-seen order, so this order decides the model bytes.

`feature_columns` is the one place that builds attributes. It works over a
batch of sequences, one template column at a time in canonical order, with
characters interned as integer ids: a column is one integer code per
position, and attribute strings are rendered only for the codes that occur.
It checks the resources it needs once per batch. Columns are what the
model layer consumes: training encodes a whole training set's columns at
once (`evaluation.training_set`, `crf.train`) and decoding looks each
column's few strings up in the model (`crf.column_scores`), so neither makes
per-position strings. `featurize_chars` renders the columns of one sequence
into per-position lists, for tests, the library's attribute-list calls and
`extract_features`, which slices one position out of that, so it costs
O(len(seq)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .lexicons import (
    PMI_NA,
    LexiconSet,
    RHYME_SOURCES,
    pmi_bin,
    tag_entities,
)

BOS = "<BOS>"
EOS = "<EOS>"

K_WARN_LIMIT = 10


@dataclass(frozen=True)
class FeatureConfig:
    """Which templates are active and how wide the context window is."""

    k: int = 1
    use_bigrams: bool = False
    pronunciation: Optional[str] = None
    use_words: bool = False
    use_pmi: bool = False

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("window radius k must be >= 0")
        if self.k > K_WARN_LIMIT:
            warnings.warn(f"window radius k={self.k} is unusually large")
        if self.pronunciation is not None and self.pronunciation not in RHYME_SOURCES:
            raise ValueError(f"unknown pronunciation source {self.pronunciation!r}")

    @classmethod
    def from_spec(cls, text: str, k: int = 1) -> "FeatureConfig":
        """Parse a feature-set descriptor like ``c,b,ry:guangyun,w,pmi``.

        ``c`` (character unigrams) is the base template and must be present.
        """
        use_bigrams = False
        pronunciation = None
        use_words = False
        use_pmi = False
        seen_c = False
        for raw in text.split(","):
            item = raw.strip().lower()
            if not item:
                continue
            if item == "c":
                seen_c = True
            elif item == "b":
                use_bigrams = True
            elif item.startswith("ry:"):
                pronunciation = item[3:]
            elif item == "ry":
                raise ValueError("pronunciation feature needs a source: ry:guangyun or ry:pingshuiyun")
            elif item == "w":
                use_words = True
            elif item == "pmi":
                use_pmi = True
            else:
                raise ValueError(f"unknown feature template {item!r}")
        if not seen_c:
            raise ValueError("feature set must include the base template 'c'")
        return cls(k, use_bigrams, pronunciation, use_words, use_pmi)

    def spec(self) -> str:
        parts = ["c"]
        if self.use_bigrams:
            parts.append("b")
        if self.pronunciation is not None:
            parts.append(f"ry:{self.pronunciation}")
        if self.use_words:
            parts.append("w")
        if self.use_pmi:
            parts.append("pmi")
        return ",".join(parts)


@dataclass(frozen=True)
class Instance:
    """One character position: an optional gold label plus its attributes."""

    label: Optional[str]
    attributes: tuple[str, ...]


def extract_features(
    seq: Sequence[str],
    pos: int,
    cfg: FeatureConfig,
    lex: LexiconSet = LexiconSet(),
) -> list[str]:
    """Attribute strings for one position, in canonical template order. The
    whole sequence is featurized, so one call costs O(len(seq))."""
    if not 0 <= pos < len(seq):
        raise IndexError(f"position {pos} out of range for sequence of length {len(seq)}")
    return featurize_chars(seq, cfg, lex)[pos]


def _distinct(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys, codes) of one column of integer keys, -1 firing nothing: the
    distinct keys that fire, and each position's index into them or -1."""
    keys, codes = np.unique(raw, return_inverse=True)
    if len(keys) and keys[0] < 0:
        keys, codes = keys[1:], codes - 1
    return keys, codes


def feature_columns(
    seqs: Sequence[Sequence[str]],
    cfg: FeatureConfig,
    lex: LexiconSet = LexiconSet(),
) -> Iterator[tuple[list[str], np.ndarray]]:
    """The attribute columns of a batch of sequences laid end to end, one
    template column at a time, in canonical order.

    Yields (names, codes): `codes` holds one integer per position of the
    batch, an index into `names`, or -1 where the template fires nothing
    there. `names` holds only attributes that occur; two codes can render
    the same string when multi-character tokens run together (the bigrams
    of ["C1", "C2"] and ["C", "1C2"]). Columns are made one at a time, so
    no [positions, columns] array is ever built.
    """
    if cfg.use_words and lex.entities is None:
        raise ValueError("word features requested but no entity lexicon loaded")
    rhymes = lex.rhyme_dict(cfg.pronunciation) if cfg.pronunciation is not None else None
    if cfg.use_pmi and lex.pmi is None:
        raise ValueError("PMI features requested but no PMI table loaded")
    k, n = cfg.k, len(seqs)
    vocab = {BOS: 0, EOS: 1}
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    total = int(lengths.sum())
    ids = np.array([vocab.setdefault(c, len(vocab)) for s in seqs for c in s], dtype=np.intp)
    tokens, V = list(vocab), len(vocab)
    # each sequence padded by k BOS and k EOS, laid end to end; position r of
    # the batch is padded[base[r]]
    starts = np.cumsum(lengths) - lengths
    base = np.arange(total) + np.repeat(k * (2 * np.arange(n) + 1), lengths)
    padded = np.full(total + 2 * k * n, vocab[EOS])
    padded[(starts + 2 * k * np.arange(n))[:, None] + np.arange(k)] = vocab[BOS]
    padded[base] = ids

    def at(i: int) -> np.ndarray:
        """Character ids at offset i from every position, padded per sequence."""
        return padded[base + i]

    for i in range(-k, k + 1):
        prefix = f"w[{i}]="
        keys, codes = _distinct(at(i))
        yield [f"{prefix}{tokens[v]}" for v in keys.tolist()], codes
    if cfg.use_bigrams:
        right = at(-k)
        for i in range(-k, k):
            left, right = right, at(i + 1)
            prefix = f"w[{i}_{i + 1}]="
            keys, codes = _distinct(left * V + right)
            firsts, seconds = np.divmod(keys, V)
            yield [
                f"{prefix}{tokens[a]}{tokens[b]}"
                for a, b in zip(firsts.tolist(), seconds.tolist())
            ], codes
    if rhymes is not None:
        classes = [rhymes.classes(t) for t in tokens]
        class_ids: dict[str, int] = {}
        # slots[s, v]: the s-th class of character id v, or -1
        slots = np.full((max(map(len, classes)), V), -1)
        for v, cs in enumerate(classes):
            for s, c in enumerate(cs):
                slots[s, v] = class_ids.setdefault(c, len(class_ids))
        class_names = list(class_ids)
        for i in range(-k, k + 1):
            near = at(i)
            for slot in slots:
                keys, codes = _distinct(slot[near])
                yield [f"ry[{i}]={class_names[c]}" for c in keys.tolist()], codes
    if cfg.use_words:
        tag_ids: dict[str, int] = {}
        tags = np.fromiter(
            (
                -1 if tag is None else tag_ids.setdefault(tag, len(tag_ids))
                for s in seqs
                for tag in tag_entities(s, lex.entities)
            ),
            np.intp,
            total,
        )
        # ids are handed out in first-seen order, so every one occurs
        yield [f"ne[0]={tag}" for tag in tag_ids], tags
    if cfg.use_pmi:
        # each distinct (position, next position) pair is binned once; a
        # sequence's last position has no right pair, its first no left one
        first = starts[lengths > 0]
        last = np.zeros(total, dtype=bool)
        last[np.cumsum(lengths)[lengths > 0] - 1] = True
        keys, pairs = _distinct(np.where(last, -1, ids * V + np.roll(ids, -1)))
        bin_ids = {PMI_NA: 0}
        pair_bins = [
            bin_ids.setdefault(pmi_bin(lex.pmi.value(tokens[a], tokens[b])), len(bin_ids))
            for a, b in zip(*(half.tolist() for half in np.divmod(keys, V)))
        ]
        # pair code -1 (a last position) takes the appended PMI_NA
        right = np.array(pair_bins + [0], dtype=np.intp)[pairs]
        left = np.roll(right, 1)
        left[first] = 0
        yield [f"pmi[-1_0]={b}" for b in bin_ids], left
        yield [f"pmi[0_1]={b}" for b in bin_ids], right


def featurize_chars(
    chars: Sequence[str],
    cfg: FeatureConfig,
    lex: LexiconSet = LexiconSet(),
) -> list[list[str]]:
    """Attribute lists for every position of one sequence: its
    feature_columns rendered position by position."""
    rows: list[list[str]] = [[] for _ in range(len(chars))]
    for names, codes in feature_columns([chars], cfg, lex):
        for row, code in zip(rows, codes.tolist()):
            if code >= 0:
                row.append(names[code])
    return rows


def extract_instances(seq, cfg: FeatureConfig, lex: LexiconSet = LexiconSet()) -> list[Instance]:
    """One labeled Instance per character of a LabeledSequence."""
    per_position = featurize_chars(seq.chars, cfg, lex)
    return [
        Instance(label, tuple(attrs))
        for label, attrs in zip(seq.labels, per_position)
    ]
