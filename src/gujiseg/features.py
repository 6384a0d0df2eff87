"""Feature templates: each character position becomes an ordered list of
categorical attribute strings.

Canonical attribute order: character unigrams by ascending offset, character
bigrams by ascending offset, pronunciation classes, entity tag, PMI bins.
Attribute strings are the wire-level identity; downstream layers treat them
as opaque symbols.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .lexicons import (
    EntityTag,
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


def _char_at(seq: Sequence[str], i: int) -> str:
    if i < 0:
        return BOS
    if i >= len(seq):
        return EOS
    return seq[i]


def _features_at(
    seq: Sequence[str],
    pos: int,
    cfg: FeatureConfig,
    lex: LexiconSet,
    tags: Optional[Sequence[EntityTag]],
) -> list[str]:
    k = cfg.k
    attrs = [f"w[{i}]={_char_at(seq, pos + i)}" for i in range(-k, k + 1)]
    if cfg.use_bigrams:
        for i in range(-k, k):
            attrs.append(f"w[{i}_{i + 1}]={_char_at(seq, pos + i)}{_char_at(seq, pos + i + 1)}")
    if cfg.pronunciation is not None:
        rhymes = lex.rhyme_dict(cfg.pronunciation)
        for i in range(-k, k + 1):
            for cls in rhymes.classes(_char_at(seq, pos + i)):
                attrs.append(f"ry[{i}]={cls}")
    if cfg.use_words:
        if tags is None:
            if lex.entities is None:
                raise ValueError("word features requested but no entity lexicon loaded")
            tags = tag_entities(seq, lex.entities)
        tag = tags[pos]
        if tag is not None:
            attrs.append(f"ne[0]={tag}")
    if cfg.use_pmi:
        if lex.pmi is None:
            raise ValueError("PMI features requested but no PMI table loaded")
        table = lex.pmi
        left = table.value(seq[pos - 1], seq[pos]) if pos > 0 else None
        right = table.value(seq[pos], seq[pos + 1]) if pos + 1 < len(seq) else None
        attrs.append(f"pmi[-1_0]={pmi_bin(left)}")
        attrs.append(f"pmi[0_1]={pmi_bin(right)}")
    return attrs


def extract_features(
    seq: Sequence[str],
    pos: int,
    cfg: FeatureConfig,
    lex: LexiconSet = LexiconSet(),
) -> list[str]:
    """Attribute strings for one position, in canonical template order."""
    if not 0 <= pos < len(seq):
        raise IndexError(f"position {pos} out of range for sequence of length {len(seq)}")
    tags = None
    if cfg.use_words:
        if lex.entities is None:
            raise ValueError("word features requested but no entity lexicon loaded")
        tags = tag_entities(seq, lex.entities)
    return _features_at(seq, pos, cfg, lex, tags)


def featurize_chars(
    chars: Sequence[str],
    cfg: FeatureConfig,
    lex: LexiconSet = LexiconSet(),
) -> list[list[str]]:
    """Attribute lists for every position of one sequence. Entity tags are
    computed once per sequence, not once per position."""
    tags = None
    if cfg.use_words:
        if lex.entities is None:
            raise ValueError("word features requested but no entity lexicon loaded")
        tags = tag_entities(chars, lex.entities)
    return [_features_at(chars, pos, cfg, lex, tags) for pos in range(len(chars))]


def extract_instances(seq, cfg: FeatureConfig, lex: LexiconSet = LexiconSet()) -> list[Instance]:
    """One labeled Instance per character of a LabeledSequence."""
    per_position = featurize_chars(seq.chars, cfg, lex)
    return [
        Instance(label, tuple(attrs))
        for label, attrs in zip(seq.labels, per_position)
    ]
