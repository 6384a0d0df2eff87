"""Linear-chain CRF over the label set {O, M}.

State features are (attribute, label) indicators; transition features are
label-pair indicators. All inference runs in log space.

Training, decoding and marginals all run over one packed time-major
layout: sequences are sorted longest first, so position t of the k[t]
sequences still running is the contiguous row block off[t]:off[t]+k[t], in
the same sequence order at every t, with no padding and no masks; a lone
sequence is the case k[t] = 1. Every pass over time runs on one blocked
layout, _Blocks, in O(SCAN_BLOCK + T / SCAN_BLOCK) numpy calls for T
positions, not a few per position. The recursion _scan gives the forward
scores; over each sequence's reversed time with the transposed transitions
it gives emissions plus backward scores, with log-sum-exp for
forward-backward and with max for Viterbi's best suffix scores. Viterbi's
path composes per-row choices on the forward layout, each row's first
argmax given the label before it. The scan sums in another order than one
np.logaddexp.reduce per step (tests/oracles.py keeps that form as the
reference, and the tests hold the scan to it within 1e-12), and a sequence
scores and decodes the same alone as in any batch.

Attribute columns are the one encoder input: (names, codes) pairs in
canonical order over a batch laid end to end (features.feature_columns, or
ColumnDataset for training). Training ranks every name by the first (row,
column) where it occurs, which is the first-seen attribute order of the
model file, and looks the codes up into the attribute-firing operator
_Firing, the ids each column fires at each packed row. Attribute lists
enter as slot columns, column s holding each row's s-th attribute, so
train(pairs), objective_and_gradient, viterbi, marginals, log_partition and
score_sequence take the same path. One kernel, _gather_add, turns ids into
emissions a column at a time: the held ids in training, columns streamed
one by one in decoding (column_scores); viterbi_emissions decodes them. One
helper, _posteriors, gives the marginals and the gradient's expectations.

Training is full-batch gradient ascent on the L2-penalized log-likelihood
with a backtracking (Armijo) line search: deterministic, monotone, and easy
to verify against finite differences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import Callable, Iterable, Optional, Sequence, TextIO

import numpy as np

from .corpus import LABELS
from .features import FeatureConfig
from .lexicons import PLAIN_FLOAT, PLAIN_INT

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
MODEL_FORMAT_VERSION = "crfmodel-v1"
# load_model parses a section in pieces of about this many characters: big
# enough that numpy's per-call cost vanishes, small enough that one piece's
# fields stay a fraction of the model
LOAD_CHUNK_CHARS = 1 << 16
# _scan cuts each sequence into blocks of this many positions, counted from
# its own start: about sqrt(T) of them for the documents of a few hundred
# positions this package sees, and a grid that does not depend on the batch
SCAN_BLOCK = 32


class TrainingError(RuntimeError):
    """Raised when the objective or gradient turns non-finite."""


class ModelFormatError(ValueError):
    """Raised for unreadable model files."""


@dataclass(frozen=True)
class TrainConfig:
    """Trainer settings (no seed: training draws no random numbers)."""

    l2_sigma: float = 1.0
    max_iterations: int = 200
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if self.l2_sigma <= 0:
            raise ValueError("l2_sigma must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")


@dataclass
class TrainMeta:
    iterations: int
    final_objective: float
    stopped_by: str
    objective_history: list[float] = field(default_factory=list, repr=False)


# (names, codes): one attribute column of a batch (features.feature_columns)
Column = tuple[Sequence[str], np.ndarray]


@dataclass(frozen=True)
class ColumnDataset:
    """A labelled batch as attribute columns: `columns` in canonical order
    over the sequences laid end to end (features.feature_columns), the
    sequences' `lengths`, and each sequence's gold `labels`."""

    columns: Sequence[Column]
    lengths: np.ndarray
    labels: Sequence[Sequence[str]]


# (attribute lists, labels) pairs, or the same sequences as columns
Dataset = Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]] | ColumnDataset


@dataclass(eq=False)
class Gradient:
    state: np.ndarray
    trans: np.ndarray


def _check_labels(labels: Sequence[str]) -> None:
    if len(set(labels)) < len(labels):
        raise ValueError(f"repeated label in {tuple(labels)!r}")


@dataclass(eq=False)
class CrfModel:
    labels: tuple[str, ...]
    attr_index: dict[str, int]
    state_weights: np.ndarray
    trans_weights: np.ndarray
    config: FeatureConfig
    meta: Optional[TrainMeta] = None

    def __post_init__(self) -> None:
        _check_labels(self.labels)
        a, l = len(self.attr_index), len(self.labels)
        if self.state_weights.shape != (a, l):
            raise ValueError(
                f"state_weights shape {self.state_weights.shape}, expected {(a, l)}"
            )
        if self.trans_weights.shape != (l, l):
            raise ValueError(
                f"trans_weights shape {self.trans_weights.shape}, expected {(l, l)}"
            )
        if not (np.all(np.isfinite(self.state_weights)) and np.all(np.isfinite(self.trans_weights))):
            raise ValueError("model weights must be finite")

    def label_id(self, label: str) -> int:
        return self.labels.index(label)


def _packed_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, off, order) of the packed layout: k[t] sequences are longer than
    t, their rows at position t start at off[t], and packed row q is row
    order[q] of the sequences laid end to end. Sequences are ranked longest
    first (ties keep their order), and rank r at position t is row off[t] + r.
    """
    k = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    off = np.cumsum(k) - k
    n, total = len(lengths), int(lengths.sum())
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(n)
    position = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    order = np.empty(total, dtype=np.int64)
    order[off[position] + np.repeat(rank, lengths)] = np.arange(total)
    return k, off, order


@dataclass(frozen=True, eq=False)
class _Blocks:
    """Where _scan reads and writes the rows of a packed batch.

    A sequence's first position starts its recursion. The positions after
    it are cut into pieces of SCAN_BLOCK, counted from the sequence's own
    start: piece b holds positions b * SCAN_BLOCK + 1 to (b + 1) * SCAN_BLOCK.
    The pieces are numbered block by block and by rank within a block, and
    that number is the piece's lane. Lanes are packed like sequences,
    longest first, so step s of every lane longer than s is one run of
    piece rows, steps[s] = (start, count).
    - first: the packed rows of the sequences' first positions, by rank;
      the first `entry` of them start the lanes of block 0
    - rows, lane: the packed row and the lane of each piece row
    - chain: for each block after the first, (its first lane, the lane of
      the same rank one block earlier, that lane's last piece row, the
      block's lane count). The earlier lanes are full pieces: they are
      packed first, in lane order, so their last rows are one run.
    """

    first: np.ndarray
    entry: int
    rows: np.ndarray
    lane: np.ndarray
    steps: list[tuple[int, int]]
    chain: list[tuple[int, int, int, int]]

    @staticmethod
    def of(lengths: np.ndarray) -> tuple[tuple[np.ndarray, ...], _Blocks, _Blocks]:
        """The packing of a batch of sequences of these lengths, (k, off,
        order) as _packed_order gives it and the rank row_rank[q] of row q,
        then its layouts for the recursion forward in time and for the one
        backward in time. Reversing time keeps each sequence's length and
        rank, so the backward layout is the forward one with each row mapped
        to the row of its mirror position."""
        k, off, order = _packed_order(lengths)
        ranked = np.sort(lengths)[::-1]
        starts = np.arange(1, len(k), SCAN_BLOCK)
        width = k[starts]
        lane_start = np.cumsum(width) - width
        block = np.repeat(np.arange(len(starts)), width)
        rank = np.arange(len(block)) - np.repeat(lane_start, width)
        size = np.minimum(ranked[rank] - starts[block], SCAN_BLOCK)
        piece_k, piece_off, piece_order = _packed_order(size)
        lane = np.repeat(np.arange(len(block)), size)
        step = np.arange(len(lane)) - np.repeat(np.cumsum(size) - size, size)
        rows = (off[starts[block[lane]] + step] + rank[lane])[piece_order]
        lane = lane[piece_order]
        last = np.empty(len(block), dtype=np.int64)
        last[lane[: len(block)]] = piece_off[size[lane[: len(block)]] - 1] + np.arange(len(block))
        chain = [
            (int(lane_start[b]), int(lane_start[b - 1]), int(last[lane_start[b - 1]]), int(width[b]))
            for b in range(1, len(starts))
        ]
        steps = list(zip(piece_off.tolist(), piece_k.tolist()))
        entry = int(width[0]) if len(width) else 0
        forward = _Blocks(np.arange(len(lengths)), entry, rows, lane, steps, chain)
        row_rank = np.arange(int(lengths.sum())) - np.repeat(off, k)
        mirror = off[ranked[row_rank] - 1 - np.repeat(np.arange(len(k)), k)] + row_rank
        backward = replace(forward, first=mirror[forward.first], rows=mirror[rows])
        return (k, off, order, row_rank), forward, backward


def _logaddexp(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.logaddexp(x, y, out=out) for finite x and y, computed as max +
    log1p(exp(min - max)): numpy's exp and log1p loops take a small part of
    the time per element that its logaddexp loop takes. `out` may be x or y."""
    low = np.minimum(x, y)
    np.maximum(x, y, out=out)
    low -= out
    np.exp(low, out=low)
    np.log1p(low, out=low)
    out += low
    return out


def _scan(
    emis: np.ndarray, trans: np.ndarray, blocks: _Blocks, add: Callable = _logaddexp
) -> np.ndarray:
    """The packed recursion x[q] = emis[q] + add over i of (x[p, i] +
    trans[i]), p the row before q in its sequence and x = emis at a
    sequence's first row, in the semiring whose sum is `add`: _logaddexp or
    np.maximum.

    With the forward layout of _Blocks.of and `trans` it gives the forward
    scores alpha. With the backward layout and trans.T it runs backward in
    time and gives emis + beta, each row scored with its suffixes: the
    backward scores of forward-backward plus the emissions, or with
    np.maximum the best suffix scores of Viterbi.

    A piece's recursion is a product of L x L transfer matrices, so all
    pieces run at once: one vectorised step per position of a piece builds
    every piece's prefix products p[i, j], from entry label i to label j,
    with the lanes on the innermost axis. One short pass along the blocks
    carries each sequence's scores from piece to piece, and one broadcast
    fold applies the carries to every prefix. For a longest sequence of T
    positions that is O(SCAN_BLOCK + T / SCAN_BLOCK) numpy calls. The sums
    are those of the step-by-step recursion (tests/oracles.py) taken in
    another order; a sequence's sums do not depend on the batch around it.
    """
    n_labels = len(trans)
    x = np.empty_like(emis)
    x[blocks.first] = emis[blocks.first]
    if not len(blocks.rows):
        return x
    e = np.take(emis.T, blocks.rows, axis=1)
    p = np.empty((n_labels, n_labels, len(blocks.rows)))
    lanes = blocks.steps[0][1]
    np.add(trans[:, :, None], e[:, :lanes], out=p[:, :, :lanes])
    buf = np.empty((n_labels, n_labels, lanes))
    for (before, _), (start, n) in zip(blocks.steps, blocks.steps[1:]):
        # p[i, j] = e[j] + add over m of (p[i, m] one step before + trans[m, j])
        out, part = p[:, :, start : start + n], buf[:, :, :n]
        np.add(p[:, :1, before : before + n], trans[0][:, None], out=out)
        for m in range(1, n_labels):
            np.add(p[:, m : m + 1, before : before + n], trans[m][:, None], out=part)
            add(out, part, out=out)
        np.add(out, e[:, start : start + n], out=out)
    del e, buf
    carry = np.empty((n_labels, lanes))
    carry[:, : blocks.entry] = emis[blocks.first[: blocks.entry]].T
    buf = np.empty((n_labels, blocks.entry))
    for lane, earlier, last, n in blocks.chain:
        # carry[j] = add over i of (carry[i] one block before + p[i, j] at its end)
        out, part = carry[:, lane : lane + n], buf[:, :n]
        np.add(p[0, :, last : last + n], carry[:1, earlier : earlier + n], out=out)
        for i in range(1, n_labels):
            np.add(p[i, :, last : last + n], carry[i : i + 1, earlier : earlier + n], out=part)
            add(out, part, out=out)
    p += np.take(carry, blocks.lane, axis=1)[:, None, :]
    for i in range(1, n_labels):
        add(p[0], p[i], out=p[0])
    for j in range(n_labels):
        # a label at a time: a row at a time copies far slower
        x[:, j][blocks.rows] = p[0, j]
    return x


def _slot_columns(attr_seqs: Iterable[Sequence[Sequence[str]]]) -> list[Column]:
    """Attribute lists as columns over their rows laid end to end: column s
    holds each row's s-th attribute, code -1 where a row has fewer. A row
    reads its list back in column order, as canonical columns do."""
    rows = [row for attrs in attr_seqs for row in attrs]
    columns: list[Column] = []
    live = [r for r, row in enumerate(rows) if row]
    while live:
        s = len(columns)
        names: dict[str, int] = {}
        codes = np.full(len(rows), -1, dtype=np.int32)
        codes[live] = [names.setdefault(rows[r][s], len(names)) for r in live]
        columns.append((list(names), codes))
        live = [r for r in live if len(rows[r]) > s + 1]
    return columns


def _as_columns(dataset: Dataset) -> ColumnDataset:
    if isinstance(dataset, ColumnDataset):
        return dataset
    return ColumnDataset(
        _slot_columns(attrs for attrs, _ in dataset),
        np.array([len(attrs) for attrs, _ in dataset], dtype=np.int64),
        [labels for _, labels in dataset],
    )


def _lookup(attr_index: dict[str, int], names: Sequence[str], missing: int) -> np.ndarray:
    """The ids of `names`, `missing` for unknown names, then one more
    `missing` for code -1 to take."""
    ids = map(attr_index.get, names, repeat(missing))
    return np.fromiter(chain(ids, (missing,)), np.intp, len(names) + 1)


def _build_attr_index(columns: Sequence[Column]) -> dict[str, int]:
    """The attribute index in first-seen order over rows, and within a row
    in column order: each name is ranked by the first (row, column) where
    its code occurs, and ids are handed out in that order, so a name that
    several codes or columns render gets the id of its first occurrence."""
    names: list[str] = []
    firsts, where = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for c, (col_names, codes) in enumerate(columns):
        present, first = np.unique(codes, return_index=True)
        if len(present) and present[0] < 0:
            present, first = present[1:], first[1:]
        names += [col_names[code] for code in present.tolist()]
        firsts.append(first)
        where.append(np.full(len(first), c))
    by_first = np.lexsort((np.concatenate(where), np.concatenate(firsts)))
    index: dict[str, int] = {}
    for name in np.array(names, dtype=object)[by_first]:
        index.setdefault(name, len(index))
    return index


class _Firing:
    """The 0/1 attribute-firing matrix F [rows, n_attrs] of attribute
    columns, row q being row order[q] of the rows they cover, held as `ids`
    [columns, rows]: the id column c fires at row q, n_attrs for none (an
    unknown name or code -1). A row fires its ids in column order, F's CSR
    row order, and both products sum in that order from zero, so they equal
    a sparse-matrix product bit for bit: scores(w) = F @ w adds one gathered
    column at a time (_gather_add), counts(m) = F.T @ m bincounts `cols`,
    the fired ids row by row.
    """

    def __init__(
        self, columns: Sequence[Column], attr_index: dict[str, int], order: np.ndarray
    ) -> None:
        self.n_attrs = n_attrs = len(attr_index)
        self.ids = np.empty((len(columns), len(order)), dtype=np.intp)
        for ids, (names, codes) in zip(self.ids, columns):
            np.take(_lookup(attr_index, names, n_attrs), codes[order], out=ids)
        fires = self.ids.T < n_attrs
        self.cols, self.fired = self.ids.T[fires], np.count_nonzero(fires, axis=1)
        self.nnz = len(self.cols)

    def scores(self, w: np.ndarray) -> np.ndarray:
        """F @ w for w [n_attrs, L]."""
        return _gather_add(w, self.ids, self.ids.shape[1])

    def counts(self, m: np.ndarray) -> np.ndarray:
        """F.T @ m for m [rows, L]."""
        return np.stack(
            [
                np.bincount(self.cols, np.repeat(m[:, l], self.fired), self.n_attrs)
                for l in range(m.shape[1])
            ],
            axis=1,
        )


def _gather_add(w: np.ndarray, id_columns: Iterable[np.ndarray], total: int) -> np.ndarray:
    """Emissions [total, L]: each column of ids in turn adds to every row
    the row of w [n_attrs, L] its id names; id n_attrs adds a zero row,
    which leaves the sum exactly as it was."""
    weights = np.vstack([w, np.zeros((1, w.shape[1]))])
    emis = np.zeros((total, w.shape[1]))
    for ids in id_columns:
        emis += np.take(weights, ids, axis=0)
    return emis


def _state_scores(model: CrfModel, attrs: Sequence[Sequence[str]]) -> np.ndarray:
    """Emissions [T, L] of one sequence given as attribute lists: each row
    sums the weights of its known attributes in list order, starting from
    zero (column_scores of its slot columns)."""
    return column_scores(model, _slot_columns([attrs]), len(attrs))


def column_scores(model: CrfModel, columns: Iterable[Column], total: int) -> np.ndarray:
    """Emissions [total, L] of a batch given as attribute columns
    (features.feature_columns), bit for bit as _Firing.scores: each column's
    names are looked up in the model once, unknown names and code -1 fire
    nothing, and the columns stream through _gather_add one at a time, so
    one column's ids are held at once."""
    n_attrs = len(model.attr_index)
    ids = (np.take(_lookup(model.attr_index, names, n_attrs), codes) for names, codes in columns)
    return _gather_add(model.state_weights, ids, total)


def score_sequence(
    model: CrfModel, attrs: Sequence[Sequence[str]], labels: Sequence[str]
) -> float:
    """Unnormalized log-potential of one labeling (no transition at t=0)."""
    if len(attrs) != len(labels) or not attrs:
        raise ValueError(f"{len(attrs)} positions vs {len(labels)} labels")
    emis = _state_scores(model, attrs)
    ids = [model.label_id(l) for l in labels]
    score = float(sum(emis[t, y] for t, y in enumerate(ids)))
    score += float(sum(model.trans_weights[a, b] for a, b in zip(ids, ids[1:])))
    return score


def log_partition(model: CrfModel, attrs: Sequence[Sequence[str]]) -> float:
    if not attrs:
        raise ValueError("empty sequence")
    lengths = np.array([len(attrs)])
    _, forward, _ = _Blocks.of(lengths)
    alpha = _scan(_state_scores(model, attrs), model.trans_weights, forward)
    return float(np.logaddexp.reduce(alpha[-1]))


def marginals(
    model: CrfModel, attrs: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """(unary [T, L], pairwise [T-1, L, L]) posterior marginals."""
    if not attrs:
        raise ValueError("empty sequence")
    lengths = np.array([len(attrs)])
    _, forward, backward = _Blocks.of(lengths)
    emis = _state_scores(model, attrs)
    trans = model.trans_weights
    alpha = _scan(emis, trans, forward)
    suffix = _scan(emis, trans.T, backward)
    log_z = np.full((len(attrs), 1), np.logaddexp.reduce(alpha[-1]))
    return _posteriors(emis, alpha, suffix, trans, log_z, np.arange(len(attrs) - 1))


def _posteriors(
    emis: np.ndarray, alpha: np.ndarray, suffix: np.ndarray, trans: np.ndarray,
    row_log_z: np.ndarray, prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(unary [rows, L], pair [len(prev), L, L]) posterior marginals of
    packed rows from the forward scores and the suffix scores emis + beta
    (_scan), row_log_z [rows, 1] holding each row's sequence log Z; the
    last len(prev) rows follow rows `prev` of their sequences."""
    nxt = slice(len(emis) - len(prev), None)
    unary = np.exp(alpha - emis + suffix - row_log_z)
    pair = np.exp(alpha[prev][:, :, None] + trans + (suffix[nxt] - row_log_z[nxt])[:, None, :])
    return unary, pair


def viterbi(
    model: CrfModel, attrs: Sequence[Sequence[str]]
) -> tuple[list[str], float]:
    """Highest-scoring labeling. Ties break toward the earlier label in
    canonical order, decided left to right: a backward pass computes best
    suffix scores, each position's first argmax given the label before it
    follows from them, and the path composes those choices from the start.
    """
    lengths = np.array([len(attrs)])
    return viterbi_emissions(model, _state_scores(model, attrs), lengths)[0]


def viterbi_emissions(
    model: CrfModel, emis: np.ndarray, lengths: np.ndarray
) -> list[tuple[list[str], float]]:
    """viterbi() of every sequence given its emissions, decoded together in
    one packed pass: `emis` [total, L] holds the sequences' rows end to end
    and `lengths` their lengths.

    Best suffix scores come from the shared recursion (_scan). A first row
    takes their first argmax; every later row maps each label i before it to
    the first argmax over j of trans[i, j] + suffix[j], one np.argmax for all
    rows. The maps compose on _scan's forward layout: one step per block
    position for every piece's prefix maps, one pass along the blocks, one
    gather to fill the rows.
    """
    if np.any(lengths == 0):
        raise ValueError("empty sequence")
    shape = (int(np.sum(lengths)), len(model.labels))
    if emis.shape != shape:
        raise ValueError(f"emissions of shape {emis.shape}, expected {shape}")
    if not len(lengths):
        return []
    (_, _, order, _), forward, backward = _Blocks.of(lengths)
    trans = model.trans_weights
    suffix = _scan(emis[order], trans.T, backward, np.maximum)
    n = len(lengths)
    path = np.empty(len(suffix), dtype=np.int64)
    path[:n] = np.argmax(suffix[:n], axis=1)
    # after[i, r]: piece row r's label when label i comes before it; the
    # steps compose these maps, so that i comes before r's piece
    after = np.argmax(trans[:, None, :] + suffix[forward.rows], axis=2)
    for (before, _), (start, m) in zip(forward.steps, forward.steps[1:]):
        after[:, start : start + m] = np.take_along_axis(
            after[:, start : start + m], after[:, before : before + m], axis=0
        )
    # each lane's entry label; a block's lanes follow the lanes before it
    entry = [path[: forward.entry]]
    for _, _, last, m in forward.chain:
        entry.append(after[entry[-1][:m], np.arange(last, last + m)])
    path[forward.rows] = after[np.concatenate(entry)[forward.lane], np.arange(len(forward.rows))]
    labels = np.empty(len(path), dtype=object)
    labels[order] = np.array(model.labels, dtype=object)[path]
    labels = labels.tolist()
    # rows 0..n-1 are the sequences' first positions, in rank order
    best = np.max(suffix[:n], axis=1)[np.argsort(order[:n])]
    ends = np.cumsum(lengths).tolist()
    return [
        (labels[end - length : end], float(b))
        for end, length, b in zip(ends, lengths.tolist(), best)
    ]


class _Encoded:
    """Dataset compiled to a firing operator in packed time-major order.

    Sequences are ranked longest first; the row of rank r at position t is
    off[t] + r (see _packed_order). The rows of the firing operator `X` and
    of every per-position array (emissions, forward and suffix scores) share
    that order, and `blocks` holds _scan's forward and backward layouts.
    Row q >= k[0] follows row `prev[q - k[0]]` of its sequence, row q
    belongs to rank `row_rank[q]`, and rank r ends at row `last[r]`.
    """

    def __init__(self, dataset: Dataset, attr_index: dict[str, int], labels: Sequence[str]) -> None:
        batch = _as_columns(dataset)
        label_id = {l: i for i, l in enumerate(labels)}
        L = len(labels)
        lengths = np.asarray(batch.lengths, dtype=np.int64)
        if len(batch.labels) != len(lengths):
            raise ValueError(f"{len(lengths)} sequences vs {len(batch.labels)} label sequences")
        for length, labs in zip(lengths.tolist(), batch.labels):
            if length != len(labs):
                raise ValueError(f"{length} positions vs {len(labs)} labels")
            if not length:
                raise ValueError("empty sequence in dataset")
        n, total = len(lengths), int(lengths.sum())
        try:
            gold = np.fromiter(
                (label_id[lab] for labs in batch.labels for lab in labs), np.int64, total
            )
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} not in {tuple(labels)}") from None
        (k, off, order, self.row_rank), *self.blocks = _Blocks.of(lengths)
        self.X = _Firing(batch.columns, attr_index, order)
        gold = gold[order]
        self.prev = np.arange(k[0], total) - np.repeat(k[:-1], k[1:])
        self.last = off[np.sort(lengths)[::-1] - 1] + np.arange(n)
        onehot = np.zeros((total, L))
        onehot[np.arange(total), gold] = 1.0
        self.observed_state = self.X.counts(onehot)
        pair_ids = gold[self.prev] * L + gold[k[0] :]
        self.observed_trans = np.bincount(pair_ids, minlength=L * L).reshape(L, L).astype(float)

    def _gold_score(self, state_w: np.ndarray, trans_w: np.ndarray) -> float:
        return float(
            np.sum(self.observed_state * state_w) + np.sum(self.observed_trans * trans_w)
        )

    def _forward_pass(
        self, state_w: np.ndarray, trans_w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(emissions, alpha, per-sequence log Z) at the given weights."""
        emis = self.X.scores(state_w)
        alpha = _scan(emis, trans_w, self.blocks[0])
        return emis, alpha, np.logaddexp.reduce(alpha[self.last], axis=1)

    def _value(
        self, state_w: np.ndarray, trans_w: np.ndarray, log_z: np.ndarray, sigma_sq: float
    ) -> float:
        penalty = (np.sum(state_w**2) + np.sum(trans_w**2)) / (2.0 * sigma_sq)
        return self._gold_score(state_w, trans_w) - float(np.sum(log_z)) - penalty

    def objective(
        self, state_w: np.ndarray, trans_w: np.ndarray, sigma_sq: float
    ) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The objective at a line-search probe, with the probe's forward
        pass, which objective_and_gradient reuses if the probe is accepted."""
        forward = self._forward_pass(state_w, trans_w)
        return self._value(state_w, trans_w, forward[2], sigma_sq), forward

    def objective_and_gradient(
        self,
        state_w: np.ndarray,
        trans_w: np.ndarray,
        sigma_sq: float,
        forward: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> tuple[float, Gradient]:
        if forward is None:
            forward = self._forward_pass(state_w, trans_w)
        emis, alpha, log_z = forward
        suffix = _scan(emis, trans_w.T, self.blocks[1])
        unary, pair = _posteriors(
            emis, alpha, suffix, trans_w, log_z[self.row_rank][:, None], self.prev
        )
        expected_state = self.X.counts(unary)
        expected_trans = pair.sum(axis=0)
        objective = self._value(state_w, trans_w, log_z, sigma_sq)
        grad = Gradient(
            self.observed_state - expected_state - state_w / sigma_sq,
            self.observed_trans - expected_trans - trans_w / sigma_sq,
        )
        if not (
            np.isfinite(objective)
            and np.all(np.isfinite(grad.state))
            and np.all(np.isfinite(grad.trans))
        ):
            raise TrainingError("objective or gradient is not finite")
        return objective, grad


def objective_and_gradient(
    model: CrfModel, dataset: Dataset, l2_sigma: float
) -> tuple[float, Gradient]:
    """Penalized log-likelihood of the dataset under the model, with its
    gradient (observed minus expected feature counts minus the prior pull).
    """
    batch = _as_columns(dataset)
    if not len(batch.lengths):
        raise ValueError("dataset must be non-empty")
    enc = _Encoded(batch, model.attr_index, model.labels)
    del batch  # slot columns made from attribute lists are spent
    return enc.objective_and_gradient(
        model.state_weights, model.trans_weights, l2_sigma**2
    )


def train(
    dataset: Dataset,
    config: TrainConfig = TrainConfig(),
    feature_config: Optional[FeatureConfig] = None,
    labels: Sequence[str] = LABELS,
) -> CrfModel:
    """Fit a model by full-batch gradient ascent with Armijo backtracking.

    `dataset` is (attribute lists, labels) pairs or a ColumnDataset; the
    attribute index comes out in first-seen order either way, so the two
    forms of one dataset give the same model.
    Deterministic given (dataset, config): weights start at zero, every
    step is full-batch and no random number is drawn.
    Stops on relative objective change below config.tolerance or after
    config.max_iterations accepted steps, whichever is first, or when the
    line search finds no acceptable step; meta.stopped_by names the rule.
    """
    _check_labels(labels)
    batch = _as_columns(dataset)
    if not len(batch.lengths):
        raise ValueError("dataset must be non-empty")
    attr_index = _build_attr_index(batch.columns)
    enc = _Encoded(batch, attr_index, labels)
    del batch  # slot columns made from attribute lists are spent
    sigma_sq = config.l2_sigma**2
    state = np.zeros((len(attr_index), len(labels)))
    trans = np.zeros((len(labels), len(labels)))
    objective, grad = enc.objective_and_gradient(state, trans, sigma_sq)
    history = [objective]
    prev_gnorm_sq = prev_step = None
    prev_grad: Optional[Gradient] = None
    iterations = 0
    stopped_by = "max_iterations"
    for _ in range(config.max_iterations):
        gnorm_sq = float(np.sum(grad.state**2) + np.sum(grad.trans**2))
        if gnorm_sq == 0.0:
            stopped_by = "converged"
            break
        # Barzilai-Borwein initial step from the previous accepted move
        # (the move was prev_step * prev_grad, so the BB quotient reduces
        # to gradient dot products); plain scaled step on iteration one.
        if prev_grad is None:
            step = 1.0 / (1.0 + np.sqrt(gnorm_sq))
        else:
            cross = float(
                np.sum(prev_grad.state * grad.state)
                + np.sum(prev_grad.trans * grad.trans)
            )
            denom = prev_gnorm_sq - cross
            if denom > 0.0 and np.isfinite(denom):
                step = prev_step * prev_gnorm_sq / denom
            else:
                step = min(prev_step * 2.0, 1.0)
            step = float(min(max(step, 1e-12), 1e8))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand_state = state + step * grad.state
            cand_trans = trans + step * grad.trans
            cand_obj, forward = enc.objective(cand_state, cand_trans, sigma_sq)
            if not np.isfinite(cand_obj):
                raise TrainingError(f"objective diverged at step size {step}")
            if cand_obj >= objective + ARMIJO_C * step * gnorm_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stopped_by = "line_search_failed"
            break
        state, trans = cand_state, cand_trans
        iterations += 1
        relative = abs(cand_obj - objective) / max(abs(objective), 1.0)
        prev_gnorm_sq, prev_step, prev_grad = gnorm_sq, step, grad
        objective, grad = enc.objective_and_gradient(state, trans, sigma_sq, forward)
        history.append(objective)
        if relative < config.tolerance:
            stopped_by = "converged"
            break
    meta = TrainMeta(iterations, objective, stopped_by, history)
    return CrfModel(
        tuple(labels),
        attr_index,
        state,
        trans,
        feature_config if feature_config is not None else FeatureConfig(),
        meta,
    )


def save_model(model: CrfModel, sink: TextIO) -> None:
    """Write a model that load_model reads back, or raise ValueError for one
    it would reject: a label or attribute name holding a separator, an
    empty attribute name, a final objective that is not finite."""
    for label in model.labels:
        if "\t" in label or "\n" in label:
            raise ValueError(f"label {label!r} contains a separator")
    sink.write(MODEL_FORMAT_VERSION + "\n")
    sink.write("labels" + "".join("\t" + l for l in model.labels) + "\n")
    sink.write(f"config\t{model.config.spec()}\t{model.config.k}\n")
    if model.meta is None:
        sink.write("meta\tnone\n")
    else:
        m = model.meta
        if not np.isfinite(m.final_objective):
            raise ValueError(f"final objective {m.final_objective!r} is not a finite number")
        sink.write(
            f"meta\titerations={m.iterations}\tfinal_objective={m.final_objective:.17g}"
            f"\tstopped_by={m.stopped_by}\n"
        )
    attrs = sorted(model.attr_index.items(), key=lambda kv: kv[1])
    sink.write(f"attrs\t{len(attrs)}\n")
    for attr, attr_id in attrs:
        if "\t" in attr or "\n" in attr:
            raise ValueError(f"attribute {attr!r} contains a separator")
        if not attr:
            raise ValueError(f"attribute {attr_id} has an empty name")
        sink.write(f"{attr_id}\t{attr}\n")
    attr_ids, label_ids = np.nonzero(model.state_weights)
    values = model.state_weights[attr_ids, label_ids]
    sink.write(f"state\t{len(values)}\n")
    sink.writelines(
        f"{attr_id}\t{model.labels[label_id]}\t{value:.17g}\n"
        for attr_id, label_id, value in zip(attr_ids.tolist(), label_ids.tolist(), values.tolist())
    )
    sink.write(f"trans\t{len(model.labels) ** 2}\n")
    for i, a in enumerate(model.labels):
        for j, b in enumerate(model.labels):
            sink.write(f"{a}\t{b}\t{model.trans_weights[i, j]:.17g}\n")
    sink.write("end\n")


def _columns(piece: str, lines: int, width: int) -> list[list[str]]:
    """The `width` columns of the `lines` tab-separated lines of `piece`.

    One split: every line break becomes a field of its own, so a row is
    `width` fields and a break, and a line with another field count moves
    a break off its place."""
    flat = piece.replace("\n", "\t\n\t").split("\t")
    step = width + 1
    if len(flat) != step * lines - 1 or flat[width::step].count("\n") != lines - 1:
        raise ValueError(f"expected {width} tab-separated fields")
    return [flat[i::step] for i in range(width)]


def _plain(form: re.Pattern, field: str) -> str:
    """The field, if `form` (PLAIN_INT or PLAIN_FLOAT) matches all of it."""
    if not form.fullmatch(field):
        raise ValueError(f"{field!r} is not a plain number")
    return field


# The bytes of plain numbers fall in these classes (0: any other byte); a
# field is checked as the pairs of adjacent classes it makes with a line
# break on either side.
_NL, _MINUS, _PLUS, _ZERO, _NONZERO, _DOT, _E = range(1, 8)
_DIGIT = [_ZERO, _NONZERO]
_BYTE_CLASS = bytearray(256)
for _class, _chars in enumerate([b"\n", b"-", b"+", b"0", b"123456789", b".", b"e"], 1):
    for _byte in _chars:
        _BYTE_CLASS[_byte] = _class


def _class_pairs(*rules: tuple[list[int], list[int]]) -> np.ndarray:
    """The allowed (before, after) class pairs, flat: entry before * 8 + after."""
    allowed = np.zeros((8, 8), dtype=bool)
    for before, after in rules:
        allowed[np.ix_(before, after)] = True
    return allowed.ravel()


_INT_PAIRS = _class_pairs(([_NL], _DIGIT), (_DIGIT, _DIGIT + [_NL]))
_FLOAT_PAIRS = _class_pairs(
    ([_NL], _DIGIT + [_MINUS]),
    ([_MINUS, _PLUS, _DOT], _DIGIT),
    (_DIGIT, _DIGIT + [_NL, _DOT, _E]),
    ([_E], [_PLUS, _MINUS]),
)


def _plain_column(fields: list[str], pairs: np.ndarray) -> list[str]:
    """The fields, if each is a plain number: PLAIN_INT (pairs _INT_PAIRS)
    or, once float() reads it, PLAIN_FLOAT (_FLOAT_PAIRS), checked for the
    whole column at once. Every two adjacent bytes must make an allowed
    pair, and a 0 that starts an integer part must be all of it; float()
    rejects what else the pairs let through (a second "." or "e", or a "."
    after the "e")."""
    text = "\n" + "\n".join(fields) + "\n"
    if text.isascii():
        c = np.frombuffer(text.encode().translate(_BYTE_CLASS), dtype=np.uint8)
        if np.take(pairs, c[:-1] * 8 + c[1:]).all():
            start = np.flatnonzero(c[:-1] == _NL) + 1
            start += c[start] == _MINUS
            if not np.any((c[start] == _ZERO) & np.isin(c[start + 1], _DIGIT)):
                return fields
    raise ValueError("not a plain number")


def load_model(source: str | TextIO) -> CrfModel:
    """Read a model that save_model wrote.

    The file is lines of tab-separated fields: the version header,
    `labels` and the label names, `config` with the feature spec and k,
    `meta` with the training facts (or `none`), then three counted
    sections and `end`. `attrs n` is followed by n lines `id name`, the ids
    0..n-1 in order; `state m` by m lines `attr_id label weight`, the
    nonzero state weights; `trans L²` by one line `label label weight` per
    label pair.

    The header lines are read one at a time. The sections are cut into
    pieces of about LOAD_CHUNK_CHARS characters, ending on a line break;
    each piece is split once and converted one column at a time with numpy,
    so besides the text and the model the parse holds one piece's fields.
    A piece that fails a check is read again line by line to name the first
    bad line.

    Raises ModelFormatError, with the line number, for another version, a
    truncated file, repeated label names, a section line with the wrong
    number of fields, a number that is not plain (PLAIN_INT, PLAIN_FLOAT),
    attribute ids out of order, a repeated or empty attribute name, a state
    attribute id out of range, a label not in the label list, a repeated
    (attribute, label) or (label, label) entry, a weight that is not
    finite, a trans section that does not hold every label pair, and any
    text after the `end` line.
    """
    text = source if isinstance(source, str) else source.read()
    pos = lineno = 0

    def take(what: str) -> str:
        nonlocal pos, lineno
        if pos > len(text):
            raise ModelFormatError(f"truncated model file: missing {what}")
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        line, pos, lineno = text[pos:end], end + 1, lineno + 1
        return line

    def section_count(name: str) -> int:
        fields = take(f"{name} section").split("\t")
        if fields[0] != name or len(fields) != 2:
            raise ModelFormatError(f"line {lineno}: expected {name} section header")
        if not PLAIN_INT.fullmatch(fields[1]):
            raise ModelFormatError(f"line {lineno}: bad {name} count {fields[1]!r}")
        return int(fields[1])

    def section(count: int, what: str, width: int, add: Callable[[list[list[str]]], None]) -> None:
        """Hand the next `count` lines to `add` as columns, a piece at a time.
        An `add` that raises leaves the model as it found it."""
        nonlocal pos, lineno
        while count:
            if pos > len(text):
                raise ModelFormatError(f"truncated model file: missing {what}")
            end = text.find("\n", pos + LOAD_CHUNK_CHARS)
            piece = text[pos:end] if end >= 0 else text[pos:]
            lines = piece.count("\n") + 1
            if lines > count:  # the section ends inside the piece
                piece = piece[: len(piece) - len(piece.split("\n", count)[-1]) - 1]
                lines = count
            try:
                add(_columns(piece, lines, width))
            except (ValueError, OverflowError):
                for number, line in enumerate(piece.split("\n"), lineno + 1):
                    try:
                        add(_columns(line, 1, width))
                    except (ValueError, OverflowError) as exc:
                        raise ModelFormatError(f"line {number}: bad {what} {line!r}: {exc}") from None
                raise
            pos += len(piece) + 1
            lineno += lines
            count -= lines

    if (header := take("version header")) != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {header!r}")
    fields = take("label list").split("\t")
    labels = tuple(fields[1:])
    if fields[0] != "labels" or not labels or len(set(labels)) < len(labels):
        raise ModelFormatError(f"line {lineno}: expected a list of distinct labels")
    fields = take("config line").split("\t")
    if fields[0] != "config" or len(fields) != 3:
        raise ModelFormatError(f"line {lineno}: expected config line")
    try:
        config = FeatureConfig.from_spec(fields[1], k=int(_plain(PLAIN_INT, fields[2])))
    except ValueError as exc:
        raise ModelFormatError(f"line {lineno}: {exc}")
    fields = take("meta line").split("\t")
    if fields[0] != "meta":
        raise ModelFormatError(f"line {lineno}: expected meta line")
    meta: Optional[TrainMeta] = None
    if fields[1:] != ["none"]:
        pairs = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
        try:
            meta = TrainMeta(
                int(_plain(PLAIN_INT, pairs["iterations"])),
                float(_plain(PLAIN_FLOAT, pairs["final_objective"])),
                pairs["stopped_by"],
            )
        except (KeyError, ValueError):
            raise ModelFormatError(f"line {lineno}: malformed meta line")

    attr_index: dict[str, int] = {}

    def add_attrs(columns: list[list[str]]) -> None:
        ids, names = columns
        start, stop = len(attr_index), len(attr_index) + len(names)
        if ids != list(map(str, range(start, stop))):
            raise ValueError(f"attribute ids must count up from {start}")
        if "" in names:
            raise ValueError("empty attribute name")
        attr_index.update(zip(names, range(start, stop)))
        if len(attr_index) < stop:
            # a repeated name: restore the names before the piece (an update
            # keeps a name's place and changes its id)
            kept = list(attr_index)[:start]
            attr_index.clear()
            attr_index.update(zip(kept, range(start)))
            raise ValueError("repeated attribute name")

    section(section_count("attrs"), "attribute entry", 2, add_attrs)
    label_pos = {l: i for i, l in enumerate(labels)}
    n_labels = len(labels)

    def label_ids(names: list[str]) -> np.ndarray:
        try:
            return np.array(list(map(label_pos.__getitem__, names)), dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unknown label {exc}") from None

    def attr_ids(ids: list[str]) -> np.ndarray:
        rows = np.array(_plain_column(ids, _INT_PAIRS), dtype=np.int64)
        if rows.max() >= len(attr_index):
            raise ValueError("attribute id out of range")
        return rows

    def weights(
        matrix: np.ndarray, row_ids: Callable[[list[str]], np.ndarray]
    ) -> Callable[[list[list[str]]], None]:
        """An `add` for section() that scatters weights into `matrix`, each
        (row, label) once."""
        flat, seen = matrix.reshape(-1), np.zeros(matrix.size, dtype=bool)

        def add(columns: list[list[str]]) -> None:
            rows, cols, values = columns
            keys = row_ids(rows) * n_labels + label_ids(cols)
            w = np.array(_plain_column(values, _FLOAT_PAIRS), dtype=float)
            if not np.all(np.isfinite(w)):
                raise ValueError("weight is not a finite number")
            ordered = np.sort(keys)
            if seen[keys].any() or np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("repeated entry")
            seen[keys] = True
            flat[keys] = w

        return add

    state = np.zeros((len(attr_index), n_labels))
    section(section_count("state"), "state weight", 3, weights(state, attr_ids))
    trans = np.zeros((n_labels, n_labels))
    if (count := section_count("trans")) != trans.size:
        raise ModelFormatError(f"line {lineno}: trans section must hold all {trans.size} label pairs")
    section(count, "transition weight", 3, weights(trans, label_ids))
    if take("end marker") != "end":
        raise ModelFormatError(f"line {lineno}: expected end marker")
    if pos < len(text):
        raise ModelFormatError(f"line {lineno + 1}: text after the end marker")
    return CrfModel(labels, attr_index, state, trans, config, meta)
