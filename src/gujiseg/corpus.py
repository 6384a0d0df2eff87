"""Corpus ingestion: raw punctuated text -> M/O-labeled character sequences.

A character gets label M when a boundary punctuation mark follows it in the
original text, O otherwise. Boundary marks themselves never appear in the
labeled output.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, TextIO

M = "M"
O = "O"
LABELS = (O, M)

# The three mark types that count as segment boundaries. Everything else
# punctuation-like is treated as noise and dropped (DEFAULT_DISCARD).
DEFAULT_BOUNDARY = frozenset("。，；")

DEFAULT_DISCARD = (
    frozenset(
        string.whitespace
        # with string.whitespace, every character str.splitlines() breaks
        # on: the line-oriented formats cannot hold them
        + "\x1c\x1d\x1e\x85\u2028\u2029"
        + string.punctuation
        + "　 "
        + "、：？！‥…．·・—–‐―〜～"
        + "「」『』（）《》〈〉【】〔〕〖〗〝〞“”‘’"
        + "［］｛｝｟｠｡｢｣､￠￥＂＃＄％＆＇＊＋－／；，＜＝＞＠＼＾＿｀｜"
    )
    - DEFAULT_BOUNDARY
)


class CorpusFormatError(ValueError):
    """Raised for malformed corpus input (bad encoding, unknown layout, ...)."""


class EmptySequenceError(ValueError):
    """Raised when a document contains no labelable characters."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    raw_text: str


@dataclass(frozen=True)
class LabeledSequence:
    """A document stripped of punctuation, with one M/O label per character."""

    doc_id: str
    chars: str
    labels: str

    def __post_init__(self) -> None:
        if len(self.chars) != len(self.labels):
            raise ValueError(
                f"{self.doc_id}: {len(self.chars)} chars vs {len(self.labels)} labels"
            )
        bad = set(self.labels) - {M, O}
        if bad:
            raise ValueError(f"{self.doc_id}: invalid labels {sorted(bad)!r}")

    def __len__(self) -> int:
        return len(self.chars)


@dataclass(frozen=True)
class CorpusStats:
    doc_count: int
    char_token_count: int
    char_type_count: int
    boundary_mark_count: int
    mean_chars_per_doc: float


def read_text_utf8(path) -> str:
    """Read a file as strict UTF-8, reporting the byte offset on bad input."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}"
        ) from exc
    # Tolerate (and drop) a BOM even though the format forbids it.
    return text.lstrip("﻿")


def parse_corpus(source: str | TextIO, fmt: str = "lines") -> list[Document]:
    """Parse raw corpus text into Documents.

    Formats: ``lines`` (one record per line, id = zero-padded 1-based line
    number) and ``blocks`` (records separated by blank lines, optional
    ``#ID <token>`` header line).
    """
    text = source if isinstance(source, str) else source.read()
    if fmt == "lines":
        docs = [
            Document(f"{lineno:04d}", line)
            for lineno, line in enumerate(text.splitlines(), 1)
            if line.strip()
        ]
    elif fmt == "blocks":
        docs = _parse_blocks(text)
    else:
        raise CorpusFormatError(f"unknown corpus format {fmt!r}")
    seen: set[str] = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise CorpusFormatError(f"duplicate document id {doc.doc_id!r}")
        seen.add(doc.doc_id)
    return docs


def _parse_blocks(text: str) -> list[Document]:
    docs: list[Document] = []
    block: list[str] = []

    def flush() -> None:
        if not block:
            return
        doc_id = f"{len(docs) + 1:04d}"
        body = block
        if block[0].startswith("#ID"):
            parts = block[0].split(None, 1)
            if len(parts) != 2 or not parts[1].strip():
                raise CorpusFormatError(f"block {len(docs) + 1}: malformed #ID header")
            doc_id = parts[1].strip()
            body = block[1:]
        docs.append(Document(doc_id, "\n".join(body)))
        block.clear()

    for line in text.splitlines():
        if line.strip():
            block.append(line)
        else:
            flush()
    flush()
    return docs


def labelize(
    doc: Document,
    boundary_set: frozenset[str] | set[str] = DEFAULT_BOUNDARY,
    discard_set: frozenset[str] | set[str] = DEFAULT_DISCARD,
) -> LabeledSequence:
    """Strip punctuation and label each remaining character M or O.

    A character is M iff a boundary mark follows it (ignoring discarded
    characters in between). Runs of boundary marks collapse to a single M;
    marks with no preceding character are dropped.
    """
    overlap = boundary_set & discard_set
    if overlap:
        raise ValueError(f"boundary and discard sets overlap: {sorted(overlap)!r}")
    chars: list[str] = []
    labels: list[str] = []
    for ch in doc.raw_text:
        if ch in discard_set:
            continue
        if ch in boundary_set:
            if labels:
                labels[-1] = M
            continue
        chars.append(ch)
        labels.append(O)
    if not chars:
        raise EmptySequenceError(f"{doc.doc_id}: no characters left after stripping")
    return LabeledSequence(doc.doc_id, "".join(chars), "".join(labels))


_MARKS = str.maketrans("", "", "".join(DEFAULT_BOUNDARY | DEFAULT_DISCARD))


def strip_marks(text: str) -> str:
    """What labelize keeps of `text` with the default sets: every boundary
    and discarded mark goes."""
    return text.translate(_MARKS)


def filter_short(
    docs: Iterable[LabeledSequence], min_length: int
) -> list[LabeledSequence]:
    """Keep only sequences strictly longer than min_length characters."""
    if min_length < 0:
        raise ValueError("min_length must be >= 0")
    return [d for d in docs if len(d.chars) > min_length]


def corpus_stats(docs: Iterable[LabeledSequence]) -> CorpusStats:
    docs = list(docs)
    tokens = sum(len(d.chars) for d in docs)
    types = len({c for d in docs for c in d.chars})
    marks = sum(d.labels.count(M) for d in docs)
    mean = tokens / len(docs) if docs else 0.0
    return CorpusStats(len(docs), tokens, types, marks, mean)


def reinsert_marks(seq: LabeledSequence, mark: str = "，") -> str:
    """Rebuild punctuated text by placing `mark` after every M character."""
    return "".join(c + mark if l == M else c for c, l in zip(seq.chars, seq.labels))


def _check_labeled_corpus(docs: Iterable[LabeledSequence]) -> None:
    """Raise ValueError, naming the document and the character, if a
    character is a tab or one that str.splitlines() breaks on, since
    read_labeled_corpus could not read it back."""
    for doc in docs:
        if "\t" in doc.chars or len((doc.chars + ".").splitlines()) > 1:
            bad = next(c for c in doc.chars if c == "\t" or len((c + ".").splitlines()) > 1)
            raise ValueError(
                f"document {doc.doc_id}: character {bad!r} cannot be read back from a labeled corpus"
            )


def write_labeled_corpus(docs: Iterable[LabeledSequence], sink: TextIO) -> None:
    """Write the labeled-corpus format: char<TAB>label lines, blank line
    between sequences.

    Raises ValueError before anything is written if _check_labeled_corpus
    refuses a document."""
    docs = list(docs)
    _check_labeled_corpus(docs)
    first = True
    for doc in docs:
        if not first:
            sink.write("\n")
        first = False
        for c, l in zip(doc.chars, doc.labels):
            sink.write(f"{c}\t{l}\n")


def read_labeled_corpus(source: str | TextIO) -> list[LabeledSequence]:
    """Read the labeled-corpus format. Document ids are regenerated
    sequentially (the format does not store them)."""
    text = source if isinstance(source, str) else source.read()
    docs: list[LabeledSequence] = []
    chars: list[str] = []
    labels: list[str] = []

    def flush() -> None:
        if chars:
            docs.append(
                LabeledSequence(f"{len(docs) + 1:04d}", "".join(chars), "".join(labels))
            )
            chars.clear()
            labels.clear()

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            flush()
            continue
        fields = line.split("\t")
        if len(fields) != 2 or len(fields[0]) != 1 or fields[1] not in (M, O):
            raise CorpusFormatError(f"labeled corpus line {lineno}: {line!r}")
        chars.append(fields[0])
        labels.append(fields[1])
    flush()
    return docs
