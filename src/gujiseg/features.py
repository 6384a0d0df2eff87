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
position into a list of attribute strings. The offsets of one template share
its code space, so a column's strings may include some that fire nowhere at
that offset. It checks the resources it needs once per batch. Columns are what the
model layer consumes: training encodes a whole training set's columns at
once (`evaluation.training_set`, `crf.train`) and decoding looks each
column's few strings up in the model (`crf.column_scores`), so neither makes
per-position strings. `featurize_chars` renders the columns of one sequence
into per-position lists, for tests, the library's attribute-list calls and
`extract_features`, which slices one position out of that, so it costs
O(len(seq)).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterator, Optional, Sequence

import numpy as np

from .lexicons import (
    LexiconSet,
    RHYME_SOURCES,
    _entity_codes,
    _pmi_codes,
    tag_entities,  # noqa: F401  stays importable: the traced benchmark run wraps it
)

BOS = "<BOS>"
EOS = "<EOS>"

K_WARN_LIMIT = 10


def check_count(name: str, value: object, least: int) -> None:
    """Raise ValueError unless `value` is an integer of at least `least`:
    an int or a numpy integer, not a bool or a float."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")


@dataclass(frozen=True)
class FeatureConfig:
    """Which templates are active and how wide the context window is."""

    k: int = 1
    use_bigrams: bool = False
    pronunciation: Optional[str] = None
    use_words: bool = False
    use_pmi: bool = False

    def __post_init__(self) -> None:
        check_count("window radius k", self.k, 0)
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


def feature_columns(
    seqs: Sequence[Sequence[str]],
    cfg: FeatureConfig,
    lex: LexiconSet = LexiconSet(),
) -> Iterator[tuple[list[str], np.ndarray]]:
    """The attribute columns of a batch of sequences laid end to end, one
    template column at a time, in canonical order.

    Yields (names, codes): `codes` holds one integer per position of the
    batch, an index into `names`, or -1 where the template fires nothing
    there. All offsets of a template share one code space, so `names` may
    hold attributes that fire nowhere at that offset, and two codes can
    render the same string when multi-character tokens run together (the
    bigrams of ["C1", "C2"] and ["C", "1C2"]). Columns are made one at a
    time, so no [positions, columns] array is ever built.

    The code spaces: unigram codes are token ids; rhyme codes are class
    ids, looked up per token id; bigram codes index the distinct adjacent
    pairs of the padded batch, found by its one sort; PMI bins are looked
    up per distinct pair (lexicons._pmi_codes) and read through the same
    pair codes; entity tags come from the batch tagger over token ids
    (lexicons._entity_codes, which tag_entities runs on one sequence). The
    resource side of both lookups is built once per resource, so a batch
    pays for its own tokens and pairs, not for the size of the lexicon or
    the PMI table.
    """
    if cfg.use_words and lex.entities is None:
        raise ValueError("word features requested but no entity lexicon loaded")
    rhymes = lex.rhyme_dict(cfg.pronunciation) if cfg.pronunciation is not None else None
    if cfg.use_pmi and lex.pmi is None:
        raise ValueError("PMI features requested but no PMI table loaded")
    k, n = cfg.k, len(seqs)
    lengths = np.fromiter(map(len, seqs), np.intp, n)
    total = int(lengths.sum())
    # two passes over the tokens, so no per-position list is held
    vocab = dict(zip(dict.fromkeys(chain.from_iterable(seqs)), count()))
    ids = np.fromiter(map(vocab.__getitem__, chain.from_iterable(seqs)), np.intp, total)
    # the batch's own tokens; the padding tokens follow unless a sequence holds them
    seen = list(vocab)
    bos, eos = vocab.setdefault(BOS, len(vocab)), vocab.setdefault(EOS, len(vocab))
    tokens, V = list(vocab), len(vocab)
    # each sequence padded by k BOS and k EOS, laid end to end; position r of
    # the batch is padded[base[r]]
    starts = np.cumsum(lengths) - lengths
    base = np.arange(total) + np.repeat(k * (2 * np.arange(n) + 1), lengths)
    padded = np.full(total + 2 * k * n, eos)
    padded[(starts + 2 * k * np.arange(n))[:, None] + np.arange(k)] = bos
    padded[base] = ids

    for i in range(-k, k + 1):
        prefix = f"w[{i}]="
        yield [prefix + t for t in tokens], padded[base + i]
    if cfg.use_bigrams or cfg.use_pmi:
        # pair p is (padded[p], padded[p + 1]); one EOS past the end gives
        # the batch's last position a pair when k = 0
        pair_keys = padded * V + np.append(padded[1:], eos)
        keys, pair_codes = np.unique(pair_keys, return_inverse=True)
        lefts, rights = np.divmod(keys, V)
    if cfg.use_bigrams:
        pairs = [tokens[a] + tokens[b] for a, b in zip(lefts.tolist(), rights.tolist())]
        for i in range(-k, k):
            prefix = f"w[{i}_{i + 1}]="
            yield [prefix + pair for pair in pairs], pair_codes[base + i]
    if rhymes is not None:
        classes = [rhymes.classes(t) for t in tokens]
        class_ids: dict[str, int] = {}
        # slots[s, v]: the s-th class of token id v, or -1
        slots = np.full((max(map(len, classes)), V), -1)
        for v, cs in enumerate(classes):
            for s, c in enumerate(cs):
                slots[s, v] = class_ids.setdefault(c, len(class_ids))
        for i in range(-k, k + 1):
            names = [f"ry[{i}]={c}" for c in class_ids]
            near = padded[base + i]
            for slot in slots:
                yield names, slot[near]
    if cfg.use_words:
        tags, codes = _entity_codes(seen, ids, lengths, lex.entities)
        yield [f"ne[0]={tag}" for tag in tags], codes
    if cfg.use_pmi:
        bins, pair_bins = _pmi_codes(tokens, lefts, rights, lex.pmi)
        # a sequence's last position has no right pair, its first no left one
        right = pair_bins[pair_codes[base]]
        right[np.cumsum(lengths)[lengths > 0] - 1] = 0
        left = np.roll(right, 1)
        left[starts[lengths > 0]] = 0
        yield [f"pmi[-1_0]={b}" for b in bins], left
        yield [f"pmi[0_1]={b}" for b in bins], right


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
