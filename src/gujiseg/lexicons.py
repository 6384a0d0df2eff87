"""External linguistic resources: rhyme dictionaries, entity lexicons, and
PMI tables built from training text.

All loaders are single-pass over TSV streams; the resulting tables are
immutable and safe to share across threads.
"""

from __future__ import annotations

import logging
import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

# The taggers import numpy when they run: prepare and pmi-build load this
# module and no numpy.
if TYPE_CHECKING:
    import numpy as np

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
    def _trie(self) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray, list[str]]:
        """The entries' trie as arrays, made once per lexicon for _entity_codes.

        Its nodes are every prefix of every entry, numbered from 0 for the
        empty one, and node p[:-1] steps to node p on the character p[-1].
        Returns (chars, keys, children, kinds, types): the entries'
        characters numbered; the steps as sorted keys node(p[:-1]) *
        len(chars) + chars[p[-1]], with their child nodes, then one key
        past every step with child -1, so that searchsorted always lands on
        a key; each node's index into `types` if it is an entry, else -1;
        the entry types in first-seen order.
        """
        import numpy as np

        words = self.entries
        nodes = dict.fromkeys(chain([""], (w[:i] for w in words for i in range(1, len(w) + 1))))
        nodes = dict(zip(nodes, count()))
        chars = dict(zip(dict.fromkeys("".join(words)), count()))
        prefixes = list(nodes)[1:]
        parents = np.fromiter(map(nodes.__getitem__, (p[:-1] for p in prefixes)), np.intp,
                              len(prefixes))
        last = np.fromiter(map(chars.__getitem__, (p[-1] for p in prefixes)), np.intp,
                           len(prefixes))
        keys = parents * len(chars) + last
        order = np.argsort(keys)
        types = list(dict.fromkeys(words.values()))
        kind_of = {etype: i for i, etype in enumerate(types)}
        kinds = np.fromiter(map(kind_of.get, map(words.get, nodes), repeat(-1)), np.intp,
                            len(nodes))
        # prefix i is node i + 1
        past = np.iinfo(keys.dtype).max
        keys, children = np.append(keys[order], past), np.append(order + 1, -1)
        return chars, keys, children, kinds, types


@dataclass(frozen=True)
class PmiTable:
    total_bigrams: int
    pmi: dict[tuple[str, str], float]

    def value(self, a: str, b: str) -> float | None:
        return self.pmi.get((a, b))

    @cached_property
    def _bins(self) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
        """The table as arrays, made once per table for _pmi_codes.

        Returns (ids, keys, bins): the tokens of its pairs numbered, each
        pair (a, b) as key ids[a] * len(ids) + ids[b], sorted, and its bin,
        an index into _PMI_BINS; then one key past every pair with bin 0
        (PMI_NA), so that searchsorted always lands on a key.
        """
        import numpy as np

        ids = dict(zip(dict.fromkeys(chain.from_iterable(self.pmi)), count()))
        lefts, rights = (
            np.fromiter(map(ids.__getitem__, map(itemgetter(side), self.pmi)), np.intp,
                        len(self.pmi))
            for side in (0, 1)
        )
        keys = lefts * len(ids) + rights
        # pmi_bin's rule, + 1 for PMI_NA
        values = np.fromiter(self.pmi.values(), float, len(self.pmi))
        bins = np.searchsorted(_PMI_BIN_EDGES, values, side="right") + 1
        order = np.argsort(keys)
        past = np.iinfo(keys.dtype).max
        return ids, np.append(keys[order], past), np.append(bins[order], 0)


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
    """Greedy left-to-right longest-match tagging of one sequence.

    From each start, tokens are joined one at a time while the join is a
    prefix of an entry; the longest join that is an entry wins. A token may
    be several characters or none, and a span's length is counted in
    tokens, so an empty token inside or right after a match belongs to it.
    Matched spans get positional tags: B/I/E for length >= 3, B/E for
    length 2, S for a single token. Untagged positions stay None.

    This is the batch tagger, _entity_codes, on a batch of one sequence.
    feature_columns calls _entity_codes once per batch; the `ne` column's
    names are every tag of every entry type, so some may fire nowhere.
    """
    import numpy as np

    tokens = list(dict.fromkeys(chars))
    vocab = {token: v for v, token in enumerate(tokens)}
    ids = np.fromiter(map(vocab.__getitem__, chars), np.intp, len(chars))
    names, codes = _entity_codes(tokens, ids, np.array([len(chars)]), lexicon)
    return [None if code < 0 else names[code] for code in codes.tolist()]


def _entity_codes(
    tokens: Sequence[str], ids: np.ndarray, lengths: np.ndarray, lexicon: EntityLexicon
) -> tuple[list[str], np.ndarray]:
    """tag_entities over a batch of sequences laid end to end, given as ids
    into `tokens`, each sequence `lengths[s]` long.

    Returns (names, codes): `codes` holds one integer per position, entry
    type index * 4 + B/S/I/E, an index into `names`, or -1 where nothing is
    tagged. `names` holds every tag of every entry type, so some may be
    tagged nowhere.

    The trie's steps are the lexicon's sorted keys (EntityLexicon._trie),
    so a batch only spells its own tokens in the lexicon's characters. Every
    start is walked at once, one token per step and no walk past the end of
    its sequence; a token steps through its characters with one
    searchsorted each, and an empty token stays where it is. Each start
    keeps its longest match; one pass over the matching starts in order
    then keeps the greedy left-to-right ones.
    """
    import numpy as np

    chars, keys, children, kinds, types = lexicon._trie
    # token v is spelled[firsts[v]:firsts[v] + lens[v]], -1 for a
    # character in no entry, and one -1 past the end
    lens = np.fromiter(map(len, tokens), np.intp, len(tokens))
    firsts = np.cumsum(lens) - lens
    spelled = np.fromiter(chain(map(chars.get, "".join(tokens), repeat(-1)), (-1,)), np.intp,
                          lens.sum() + 1)

    ends = np.repeat(np.cumsum(lengths), lengths)
    size = np.zeros(len(ids), dtype=np.intp)
    kind = np.zeros(len(ids), dtype=np.intp)
    # a match starts at a token that is empty or whose first character is in some entry
    starts = np.flatnonzero(((lens == 0) | (spelled[firsts] >= 0))[ids])
    node = np.zeros(len(starts), dtype=np.intp)
    depth = 0
    while len(starts):
        inside = starts + depth < ends[starts]
        starts, node = starts[inside], node[inside]
        token = ids[starts + depth]
        at, stop = firsts[token], firsts[token] + lens[token]
        moving = np.flatnonzero(at < stop)
        while len(moving):
            char = spelled[at[moving]]
            key = node[moving] * len(chars) + char
            where = np.searchsorted(keys, key)
            found = (char >= 0) & (keys[where] == key)
            # node -1: no prefix
            node[moving] = np.where(found, children[where], -1)
            at[moving] += 1
            moving = moving[found & (at[moving] < stop[moving])]
        starts, node = starts[node >= 0], node[node >= 0]
        depth += 1
        entry = kinds[node] >= 0
        size[starts[entry]] = depth
        kind[starts[entry]] = kinds[node[entry]]

    taken, free = [], 0
    matched = np.flatnonzero(size)
    for start, length in zip(matched.tolist(), size[matched].tolist()):
        if start >= free:
            taken.append(start)
            free = start + length
    taken = np.array(taken, dtype=np.intp)
    span = size[taken]
    offset = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
    codes = np.full(len(ids), -1, dtype=np.intp)
    codes[np.repeat(taken, span) + offset] = (
        np.repeat(kind[taken] * 4, span) + 2 * (offset > 0) + (offset == np.repeat(span, span) - 1)
    )
    return [f"{etype}-{role}" for etype in types for role in "BSIE"], codes


def _pmi_codes(
    tokens: Sequence[str], lefts: np.ndarray, rights: np.ndarray, table: PmiTable
) -> tuple[tuple[str, ...], np.ndarray]:
    """The PMI bins of pairs (tokens[lefts[p]], tokens[rights[p]]).

    Returns (names, codes): `codes` holds one index into `names`, the bin
    labels with PMI_NA first, per pair. The table's pairs are sorted keys
    (PmiTable._bins), so a batch only maps its own tokens onto the table's
    tokens and finds its pairs with one searchsorted.
    """
    import numpy as np

    ids, keys, bins = table._bins
    # each token's id in the table, -1 for one that is in no pair
    table_ids = np.fromiter(map(ids.get, tokens, repeat(-1)), np.intp, len(tokens))
    a, b = table_ids[lefts], table_ids[rights]
    key = a * len(ids) + b
    where = np.searchsorted(keys, key)
    found = (a >= 0) & (b >= 0) & (keys[where] == key)
    return _PMI_BINS, np.where(found, bins[where], 0)


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
_PMI_BINS = (PMI_NA,) + _PMI_BIN_LABELS


def pmi_bin(value: float | None) -> str:
    """Discretize a PMI value into a categorical bin label (lower-inclusive
    edges at 0, 2, 4, 6). None (absent pair) maps to PMI_NA."""
    if value is None:
        return PMI_NA
    return _PMI_BIN_LABELS[bisect_right(_PMI_BIN_EDGES, value)]


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
