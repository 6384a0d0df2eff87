"""External linguistic resources: rhyme dictionaries, entity lexicons, and
PMI tables built from training text.

All loaders are single-pass over TSV streams; the resulting tables are
immutable and safe to share across threads.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, TextIO

logger = logging.getLogger(__name__)

GUANGYUN = "guangyun"
PINGSHUIYUN = "pingshuiyun"
RHYME_SOURCES = (GUANGYUN, PINGSHUIYUN)

REIGN = "REIGN"
PLACE = "PLACE"
OFFICE = "OFFICE"
ENTITY_TYPES = frozenset({REIGN, PLACE, OFFICE})

PMI_NA = "PMI_NA"

# Numbers in the PMI-table and model files are plain ASCII, in the forms the
# writers emit: integers without sign or leading zeros, and floats as
# format(x, ".17g") writes finite ones. int() and float() take more (spaces,
# "_", a "+" sign, other scripts' digits), so the readers match these first.
PLAIN_INT = re.compile(r"0|[1-9][0-9]*")
PLAIN_FLOAT = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:e[-+][0-9]+)?")

# Per-character entity tag: "<TYPE>-<POS>" with POS in B/I/E/S, or None.
EntityTag = Optional[str]


class LexiconFormatError(ValueError):
    """Raised for malformed lexicon/PMI files."""


@dataclass(frozen=True)
class RhymeDictionary:
    source: str
    entries: dict[str, tuple[str, ...]]

    def classes(self, char: str) -> tuple[str, ...]:
        return self.entries.get(char, ())


@dataclass(frozen=True)
class EntityLexicon:
    entries: dict[str, str]

    @cached_property
    def prefixes(self) -> frozenset[str]:
        """Every prefix of every entry: the empty one and the entries too."""
        return frozenset(word[:i] for word in self.entries for i in range(len(word) + 1))


@dataclass(frozen=True)
class PmiTable:
    total_bigrams: int
    pmi: dict[tuple[str, str], float]

    def value(self, a: str, b: str) -> float | None:
        return self.pmi.get((a, b))


@dataclass
class LexiconSet:
    """Bag of optional resources handed to the feature extractor."""

    rhyme_dicts: dict[str, RhymeDictionary] = field(default_factory=dict)
    entities: EntityLexicon | None = None
    pmi: PmiTable | None = None

    def rhyme_dict(self, source: str) -> RhymeDictionary:
        try:
            return self.rhyme_dicts[source]
        except KeyError:
            raise ValueError(f"no rhyme dictionary loaded for source {source!r}")


def load_rhyme_dict(source: str | TextIO, which: str) -> RhymeDictionary:
    """Load a rhyme-class TSV (`<char>\\t<class>`; repeated lines allowed for
    polyphones, class order is first-seen)."""
    if which not in RHYME_SOURCES:
        raise ValueError(f"unknown rhyme dictionary source {which!r}")
    text = source if isinstance(source, str) else source.read()
    entries: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise LexiconFormatError(
                f"rhyme dict line {lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        char, cls = fields
        if len(char) != 1 or not cls:
            raise LexiconFormatError(f"rhyme dict line {lineno}: bad entry {line!r}")
        bucket = entries.setdefault(char, [])
        if cls not in bucket:
            bucket.append(cls)
    return RhymeDictionary(which, {c: tuple(v) for c, v in entries.items()})


def load_entity_lexicon(source: str | TextIO) -> EntityLexicon:
    """Load an entity TSV (`<word>\\t<REIGN|PLACE|OFFICE>`). On conflicting
    types for one word the first entry wins and a warning is logged."""
    text = source if isinstance(source, str) else source.read()
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise LexiconFormatError(
                f"entity lexicon line {lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        word, etype = fields
        if not word or etype not in ENTITY_TYPES:
            raise LexiconFormatError(
                f"entity lexicon line {lineno}: bad entry {line!r}"
            )
        if word in entries:
            if entries[word] != etype:
                logger.warning(
                    "entity lexicon line %d: %r already loaded as %s, ignoring %s",
                    lineno,
                    word,
                    entries[word],
                    etype,
                )
            continue
        entries[word] = etype
    return EntityLexicon(entries)


def tag_entities(chars: Sequence[str], lexicon: EntityLexicon) -> list[EntityTag]:
    """Greedy left-to-right longest-match tagging.

    From each start, tokens are joined one at a time while the join is a
    prefix of an entry; the longest join that is an entry wins. A token may
    be several characters or none, and a span's length is counted in
    tokens, so an empty token inside or right after a match belongs to it.
    Matched spans get positional tags: B/I/E for length >= 3, B/E for
    length 2, S for a single token. Untagged positions stay None.
    """
    n = len(chars)
    tags: list[EntityTag] = [None] * n
    entries, prefixes = lexicon.entries, lexicon.prefixes
    i = 0
    while i < n:
        match_len, match_type, join = 0, "", ""
        for j in range(i, n):
            join += chars[j]
            if join not in prefixes:
                break
            if join in entries:
                match_len, match_type = j - i + 1, entries[join]
        if match_len == 0:
            i += 1
            continue
        if match_len == 1:
            tags[i] = f"{match_type}-S"
        else:
            tags[i] = f"{match_type}-B"
            for j in range(i + 1, i + match_len - 1):
                tags[j] = f"{match_type}-I"
            tags[i + match_len - 1] = f"{match_type}-E"
        i += match_len
    return tags


def build_pmi_table(train, min_count: int = 5) -> PmiTable:
    """PMI(a,b) = log2(N * c(ab) / (c(a) * c(b))) over adjacent pairs within
    each training sequence; marginals are positional (a as left element, b as
    right). Pairs with joint count below min_count are omitted.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    joint: Counter[tuple[str, str]] = Counter()
    left: Counter[str] = Counter()
    right: Counter[str] = Counter()
    total = 0
    for seq in train:
        chars = seq.chars if hasattr(seq, "chars") else seq
        for a, b in zip(chars, chars[1:]):
            joint[(a, b)] += 1
            left[a] += 1
            right[b] += 1
            total += 1
    pmi = {
        pair: math.log2(total * count / (left[pair[0]] * right[pair[1]]))
        for pair, count in joint.items()
        if count >= min_count
    }
    return PmiTable(total, pmi)


_PMI_BIN_EDGES = (0.0, 2.0, 4.0, 6.0)
_PMI_BIN_LABELS = ("PMI<0", "PMI0-2", "PMI2-4", "PMI4-6", "PMI>=6")


def pmi_bin(value: float | None) -> str:
    """Discretize a PMI value into a categorical bin label (lower-inclusive
    edges at 0, 2, 4, 6). None (absent pair) maps to PMI_NA."""
    if value is None:
        return PMI_NA
    for edge, label in zip(_PMI_BIN_EDGES, _PMI_BIN_LABELS):
        if value < edge:
            return label
    return _PMI_BIN_LABELS[-1]


def save_pmi_table(table: PmiTable, sink: TextIO) -> None:
    """Write a table that load_pmi_table reads back bit for bit, or raise
    ValueError for one it would reject."""
    if len(table.pmi) > table.total_bigrams:
        raise ValueError(
            f"PMI table lists {len(table.pmi)} pairs under a total of {table.total_bigrams}"
        )
    sink.write(f"#N={table.total_bigrams}\n")
    for (a, b), value in sorted(table.pmi.items()):
        if len(a) != 1 or len(b) != 1:
            raise ValueError(f"PMI pair {(a, b)!r} is not two single characters")
        pair = a + b
        if "\t" in pair or "\n" in pair:
            raise ValueError(f"PMI pair {pair!r} contains a separator")
        if not math.isfinite(value):
            raise ValueError(f"PMI pair {pair!r} has value {value!r}, which is not finite")
        sink.write(f"{pair}\t{value:.17g}\n")


def load_pmi_table(source: str | TextIO) -> PmiTable:
    """Read a PMI TSV back; every stored pair is kept.

    Errors name the line: a total that is not a plain integer (PLAIN_INT),
    a blank or whitespace-only line (the writer ends every line with a
    break, and only the empty rest after the last one is allowed), more
    pairs than the total (each pair occurs at least once among the total's
    adjacent pairs), a value that is not a plain finite number
    (PLAIN_FLOAT), a repeated pair.
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.split("\n")
    if not lines[0].startswith("#N="):
        raise LexiconFormatError("PMI table: missing #N= header line")
    if not PLAIN_INT.fullmatch(lines[0], 3):
        raise LexiconFormatError(f"PMI table line 1: bad total {lines[0]!r}")
    total = int(lines[0][3:])
    if lines[-1] == "":
        lines.pop()
    pmi: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            raise LexiconFormatError(f"PMI table line {lineno}: blank line {line!r}")
        fields = line.split("\t")
        if len(fields) != 2 or len(fields[0]) != 2:
            raise LexiconFormatError(f"PMI table line {lineno}: bad entry {line!r}")
        value = float(fields[1]) if PLAIN_FLOAT.fullmatch(fields[1]) else math.nan
        if not math.isfinite(value):
            raise LexiconFormatError(
                f"PMI table line {lineno}: value {fields[1]!r} is not a plain finite number"
            )
        pair = (fields[0][0], fields[0][1])
        if pair in pmi:
            raise LexiconFormatError(f"PMI table line {lineno}: repeated pair {fields[0]!r}")
        if len(pmi) == total:
            raise LexiconFormatError(
                f"PMI table line {lineno}: more pairs than the total of {total}"
            )
        pmi[pair] = value
    return PmiTable(total, pmi)
