"""Feature templates: each character position becomes an ordered list of
categorical attribute strings.

Canonical attribute order: character unigrams by ascending offset, character
bigrams by ascending offset, pronunciation classes (by ascending offset, each
character's classes in dictionary order), entity tag, PMI bins (left pair,
then right pair). Attribute strings are the wire-level identity; downstream
layers treat them as opaque symbols, and the model's attribute index is built
in first-seen order, so this order decides the model bytes.

`featurize_chars` is the one place that builds attributes. It works template
by template over the whole sequence and checks the resources it needs once
per sequence; `extract_features` slices one position out of its result, so
it costs O(len(seq)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

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


def featurize_chars(
    chars: Sequence[str],
    cfg: FeatureConfig,
    lex: LexiconSet = LexiconSet(),
) -> list[list[str]]:
    """Attribute lists for every position of one sequence."""
    if cfg.use_words and lex.entities is None:
        raise ValueError("word features requested but no entity lexicon loaded")
    rhymes = lex.rhyme_dict(cfg.pronunciation) if cfg.pronunciation is not None else None
    if cfg.use_pmi and lex.pmi is None:
        raise ValueError("PMI features requested but no PMI table loaded")
    k, n = cfg.k, len(chars)
    padded = [BOS] * k + list(chars) + [EOS] * k
    # window[k + i][pos] == padded[pos + k + i] is the character at offset i from pos
    window = [padded[j : j + n] for j in range(2 * k + 1)]
    columns = [[f"w[{i}]={c}" for c in window[k + i]] for i in range(-k, k + 1)]
    if cfg.use_bigrams:
        columns += [[f"w[{i}_{i + 1}]={a}{b}" for a, b in zip(window[k + i], window[k + i + 1])]
                    for i in range(-k, k)]
    rows = [list(row) for row in zip(*columns)]
    if rhymes is not None:
        classes = [rhymes.classes(c) for c in padded]
        for pos, row in enumerate(rows):
            row += [f"ry[{i}]={cls}" for i in range(-k, k + 1) for cls in classes[pos + k + i]]
    if cfg.use_words:
        for row, tag in zip(rows, tag_entities(chars, lex.entities)):
            if tag is not None:
                row.append(f"ne[0]={tag}")
    if cfg.use_pmi:
        bins = [pmi_bin(lex.pmi.value(a, b)) for a, b in zip(chars, chars[1:])]
        for row, left, right in zip(rows, [PMI_NA] + bins, bins + [PMI_NA]):
            row += (f"pmi[-1_0]={left}", f"pmi[0_1]={right}")
    return rows


def extract_instances(seq, cfg: FeatureConfig, lex: LexiconSet = LexiconSet()) -> list[Instance]:
    """One labeled Instance per character of a LabeledSequence."""
    per_position = featurize_chars(seq.chars, cfg, lex)
    return [
        Instance(label, tuple(attrs))
        for label, attrs in zip(seq.labels, per_position)
    ]
