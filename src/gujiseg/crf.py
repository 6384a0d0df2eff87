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
helper, _posteriors, gives the unary marginals [rows, L] and the pair
marginals [L, L, rows] with the rows innermost: the gradient sums each
label pair's contiguous run, and marginals() hands them out as [T-1, L, L].

Training is full-batch gradient ascent on the L2-penalized log-likelihood
with a backtracking (Armijo) line search: deterministic, monotone, and easy
to verify against finite differences. The trainer holds its weights as one
flat vector, the state weights [n_attrs, L] row by row and then the
transition weights [L, L] row by row, so the objective and the step loop
are dot products and scaled sums over one array; _Encoded.split views it
as the two matrices. The dot products run in numpy's own loop (_dot), so
training makes no BLAS call.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, replace
from itertools import chain, count, repeat
from typing import Callable, Iterable, Optional, Sequence, TextIO

import numpy as np

from .corpus import LABELS
from .features import FeatureConfig, check_count
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
        if not (0 < self.l2_sigma < np.inf):
            raise ValueError("l2_sigma must be a finite number > 0")
        check_count("max_iterations", self.max_iterations, 1)
        if not (0 < self.tolerance < np.inf):
            raise ValueError("tolerance must be a finite number > 0")


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
        # the model file gives each name its id by its place, so the ids
        # must be 0..a-1, each once. load_model and train hand them out in
        # order, so the ids are compared in order first and sorted only when
        # that fails (compared lazily: no second list of a ids)
        ids = self.attr_index.values()
        if not (all(map(operator.eq, ids, range(a))) or all(map(operator.eq, sorted(ids), range(a)))):
            raise ValueError(f"attribute ids must be 0..{a - 1}, each once")
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


def _fold(terms: np.ndarray, add: Callable, out: np.ndarray) -> np.ndarray:
    """out = add over the first axis of terms, in order; out may be terms[0]."""
    if len(terms) == 1:
        np.copyto(out, terms[0])
        return out
    add(terms[0], terms[1], out=out)
    for term in terms[2:]:
        add(out, term, out=out)
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
    pieces run at once. p starts as every piece row's step matrix
    p[m, j] = trans[m, j] + emis[row, j], with the piece rows on the
    innermost axis; at a piece's first row that is already the prefix
    product from entry label i = m to label j. One vectorised step per
    position of a piece then turns each row's step matrix into its prefix
    product: one np.add builds every term p[i, m] one step before + p[m, j]
    in a flat scratch viewed as a contiguous [m, i, j, lanes], a fold over m
    in the semiring leaves the sums in a contiguous [i, j, lanes] result,
    and one np.copyto writes them over the step matrices in p that the step
    read. So every ufunc of the fold runs on contiguous arrays, not on views
    of p with two strided outer axes; the adds and their order are the same
    either way. One short pass along the blocks carries each sequence's
    scores from piece to piece, its terms [i, j, lanes] and sums [j, lanes]
    in the same scratch and result, and one broadcast fold applies the
    carries to every prefix. For a longest sequence of T positions that is
    O(SCAN_BLOCK + T / SCAN_BLOCK) numpy calls. The sums are those of the
    step-by-step recursion (tests/oracles.py) taken in another order; a
    sequence's sums do not depend on the batch around it.
    """
    L = len(trans)
    x = np.empty_like(emis)
    x[blocks.first] = emis[blocks.first]
    if not len(blocks.rows):
        return x
    p = np.empty((L, L, len(blocks.rows)))
    np.add(trans[:, :, None], np.take(emis.T, blocks.rows, axis=1), out=p)
    lanes = blocks.steps[0][1]
    scratch, result = np.empty(L**3 * lanes), np.empty(L**2 * lanes)
    for (before, _), (start, n) in zip(blocks.steps, blocks.steps[1:]):
        # p[i, j] = add over m of (p[i, m] one step before + the step matrix p[m, j])
        out, terms = p[:, :, start : start + n], scratch[: L**3 * n].reshape(L, L, L, n)
        np.add(p[:, :, None, before : before + n].swapaxes(0, 1), out[:, None], out=terms)
        np.copyto(out, _fold(terms, add, result[: L**2 * n].reshape(L, L, n)))
    carry = np.empty((L, lanes))
    carry[:, : blocks.entry] = emis[blocks.first[: blocks.entry]].T
    for lane, earlier, last, n in blocks.chain:
        # carry[j] = add over i of (carry[i] one block before + p[i, j] at its end)
        terms = scratch[: L**2 * n].reshape(L, L, n)
        np.add(carry[:, None, earlier : earlier + n], p[:, :, last : last + n], out=terms)
        np.copyto(carry[:, lane : lane + n], _fold(terms, add, result[: L * n].reshape(L, n)))
    p += np.take(carry, blocks.lane, axis=1)[:, None, :]
    _fold(p, add, p[0])
    for j in range(L):
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
    several codes or columns render gets the id of its first occurrence.

    A column's first rows come from one np.minimum.at of the row numbers
    over its codes, which keeps the least row whatever the order of the
    writes; code -1 lands in an extra last slot, which is dropped. One
    lexsort ranks the (row, column) pairs, and dict.fromkeys keeps each
    name's first place."""
    names: list[str] = []
    firsts, where = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for c, (col_names, codes) in enumerate(columns):
        first = np.full(len(col_names) + 1, len(codes), dtype=np.intp)
        np.minimum.at(first, codes, np.arange(len(codes)))
        present = np.flatnonzero(first[:-1] < len(codes))
        names += [col_names[code] for code in present.tolist()]
        firsts.append(first[present])
        where.append(np.full(len(present), c))
    by_first = np.lexsort((np.concatenate(where), np.concatenate(firsts)))
    ranked = dict.fromkeys(np.array(names, dtype=object)[by_first].tolist())
    # count() makes its ints as len() does; range's ints are 4 bytes larger
    # to tracemalloc, which the train memory test reads
    return dict(zip(ranked, count()))


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two flat vectors in numpy's own loop: `@` hands it to BLAS,
    which runs it on every core when no thread limit is set."""
    return float(np.einsum("i,i", a, b))


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
    unary, pair = _posteriors(emis, alpha, suffix, trans, log_z, np.arange(len(attrs) - 1))
    return unary, pair.transpose(2, 0, 1)


def _posteriors(
    emis: np.ndarray, alpha: np.ndarray, suffix: np.ndarray, trans: np.ndarray,
    row_log_z: np.ndarray, prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(unary [rows, L], pair [L, L, len(prev)]) posterior marginals of
    packed rows from the forward scores and the suffix scores emis + beta
    (_scan), row_log_z [rows, 1] holding each row's sequence log Z; the
    last len(prev) rows follow rows `prev` of their sequences. pair[i, j]
    holds the rows innermost, so summing it over rows reads each label
    pair's run of values in order."""
    nxt = slice(len(emis) - len(prev), None)
    unary = np.exp(alpha - emis + suffix - row_log_z)
    pair = np.empty(trans.shape + prev.shape)
    np.add(np.take(alpha, prev, axis=0).T[:, None, :], trans[:, :, None], out=pair)
    pair += (suffix[nxt] - row_log_z[nxt]).T
    np.exp(pair, out=pair)
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
    the first argmax over j of trans[i, j] + suffix[j], one fold over the
    labels for all rows. The maps compose on _scan's forward layout: one
    step per block position for every piece's prefix maps, one pass along
    the blocks, one gather to fill the rows.
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
    # after[i, r]: piece row r's label when label i comes before it, the
    # first j with the most trans[i, j] + suffix[r, j], found by a fold over
    # j in which a later label wins only when strictly greater; the steps
    # compose these maps, so that i comes before r's piece
    rows = np.take(suffix.T, forward.rows, axis=1)
    best = trans[:, :1] + rows[0]
    after = np.zeros(best.shape, dtype=np.int64)
    for j in range(1, len(trans)):
        score = trans[:, j : j + 1] + rows[j]
        np.copyto(after, j, where=score > best)
        np.maximum(best, score, out=best)
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
        if not len(lengths):
            raise ValueError("dataset must be non-empty")
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
        pair_ids = gold[self.prev] * L + gold[k[0] :]
        self.shape = (len(attr_index), L)
        self.observed = np.append(
            self.X.counts(onehot), np.bincount(pair_ids, minlength=L * L).astype(float)
        )

    def split(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(state [n_attrs, L], trans [L, L]) as views of a flat vector."""
        n_attrs, L = self.shape
        return w[: n_attrs * L].reshape(n_attrs, L), w[n_attrs * L :].reshape(L, L)

    def _forward_pass(
        self, w: np.ndarray, sigma_sq: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(emissions, alpha, per-sequence log Z, objective) at the weights w."""
        state, trans = self.split(w)
        emis = self.X.scores(state)
        alpha = _scan(emis, trans, self.blocks[0])
        log_z = np.logaddexp.reduce(alpha[self.last], axis=1)
        value = _dot(self.observed, w) - float(np.sum(log_z)) - _dot(w, w) / (2.0 * sigma_sq)
        return emis, alpha, log_z, value

    def objective(
        self, w: np.ndarray, sigma_sq: float
    ) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
        """The objective at a line-search probe, with the probe's forward
        pass, which objective_and_gradient reuses if the probe is accepted."""
        forward = self._forward_pass(w, sigma_sq)
        return forward[3], forward

    def objective_and_gradient(
        self,
        w: np.ndarray,
        sigma_sq: float,
        forward: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, float]] = None,
    ) -> tuple[float, np.ndarray]:
        """The objective and its gradient at w. `forward`, the forward pass
        objective() gave at the same w and sigma_sq, saves recomputing the
        emissions, alpha and the objective itself."""
        if forward is None:
            forward = self._forward_pass(w, sigma_sq)
        emis, alpha, log_z, objective = forward
        trans = self.split(w)[1]
        suffix = _scan(emis, trans.T, self.blocks[1])
        unary, pair = _posteriors(emis, alpha, suffix, trans, log_z[self.row_rank][:, None], self.prev)
        trans_counts = pair.sum(axis=2)
        # training's memory peaks in the state counts: hold no more there
        del suffix, pair
        # observed - expected - w / sigma_sq, built in place: one more
        # weight-sized array would raise training's peak memory
        grad = np.append(self.X.counts(unary), trans_counts)
        np.subtract(self.observed, grad, out=grad)
        grad -= w / sigma_sq
        if not (np.isfinite(objective) and np.all(np.isfinite(grad))):
            raise TrainingError("objective or gradient is not finite")
        return objective, grad


def objective_and_gradient(
    model: CrfModel, dataset: Dataset, l2_sigma: float
) -> tuple[float, Gradient]:
    """Penalized log-likelihood of the dataset under the model, with its
    gradient (observed minus expected feature counts minus the prior pull).
    """
    enc = _Encoded(dataset, model.attr_index, model.labels)
    w = np.append(model.state_weights, model.trans_weights)
    objective, grad = enc.objective_and_gradient(w, l2_sigma**2)
    return objective, Gradient(*enc.split(grad))


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
    attr_index = _build_attr_index(batch.columns)
    enc = _Encoded(batch, attr_index, labels)
    del batch  # slot columns made from attribute lists are spent
    sigma_sq = config.l2_sigma**2
    w = np.zeros(len(enc.observed))
    objective, grad = enc.objective_and_gradient(w, sigma_sq)
    history = [objective]
    prev_gnorm_sq = prev_step = prev_grad = None
    iterations = 0
    stopped_by = "max_iterations"
    for _ in range(config.max_iterations):
        gnorm_sq = _dot(grad, grad)
        if gnorm_sq == 0.0:
            stopped_by = "converged"
            break
        # Barzilai-Borwein initial step from the previous accepted move
        # (the move was prev_step * prev_grad, so the BB quotient reduces
        # to gradient dot products); plain scaled step on iteration one.
        if prev_grad is None:
            step = 1.0 / (1.0 + np.sqrt(gnorm_sq))
        else:
            denom = prev_gnorm_sq - _dot(prev_grad, grad)
            if denom > 0.0 and np.isfinite(denom):
                step = prev_step * prev_gnorm_sq / denom
            else:
                step = min(prev_step * 2.0, 1.0)
            step = float(min(max(step, 1e-12), 1e8))
        for _ in range(MAX_BACKTRACKS):
            cand = w + step * grad
            cand_obj, forward = enc.objective(cand, sigma_sq)
            if not np.isfinite(cand_obj):
                raise TrainingError(f"objective diverged at step size {step}")
            if cand_obj >= objective + ARMIJO_C * step * gnorm_sq:
                break
            step *= 0.5
        else:
            stopped_by = "line_search_failed"
            break
        w = cand
        iterations += 1
        relative = abs(cand_obj - objective) / max(abs(objective), 1.0)
        prev_gnorm_sq, prev_step, prev_grad = gnorm_sq, step, grad
        objective, grad = enc.objective_and_gradient(w, sigma_sq, forward)
        history.append(objective)
        if relative < config.tolerance:
            stopped_by = "converged"
            break
    meta = TrainMeta(iterations, objective, stopped_by, history)
    return CrfModel(
        tuple(labels),
        attr_index,
        *enc.split(w),
        feature_config if feature_config is not None else FeatureConfig(),
        meta,
    )


def save_model(model: CrfModel, sink: TextIO) -> None:
    """Write a model that load_model reads back bit for bit, or raise
    ValueError, having written nothing, for one it would reject: a label or
    attribute name holding a separator, an empty attribute name, a final
    objective that is not finite.

    Each of the three sections is its count and then one field per line:
    `attrs` the attribute names in id order, `weights` a line per attribute
    and `trans` a line per label, each line the row's L weights in label
    order as lowercase hex of little-endian IEEE-754 binary64, so 16·L hex
    digits."""
    for label in model.labels:
        if "\t" in label or "\n" in label:
            raise ValueError(f"label {label!r} contains a separator")
    m = model.meta
    if m is not None and not np.isfinite(m.final_objective):
        raise ValueError(f"final objective {m.final_objective!r} is not a finite number")
    names = sorted(model.attr_index, key=model.attr_index.__getitem__)
    joined = "".join(names)
    if "\t" in joined or "\n" in joined or "" in model.attr_index:
        for attr_id, attr in enumerate(names):
            if "\t" in attr or "\n" in attr:
                raise ValueError(f"attribute {attr!r} contains a separator")
            if not attr:
                raise ValueError(f"attribute {attr_id} has an empty name")
    sink.write(MODEL_FORMAT_VERSION + "\n")
    sink.write("labels" + "".join("\t" + l for l in model.labels) + "\n")
    sink.write(f"config\t{model.config.spec()}\t{model.config.k}\n")
    if m is None:
        sink.write("meta\tnone\n")
    else:
        sink.write(
            f"meta\titerations={m.iterations}\tfinal_objective={m.final_objective:.17g}"
            f"\tstopped_by={m.stopped_by}\n"
        )
    row = 8 * len(model.labels)
    for name, count, lines in (
        ("attrs", len(names), "\n".join(names)),
        ("weights", len(names), model.state_weights.astype("<f8").tobytes().hex("\n", row)),
        ("trans", len(model.labels), model.trans_weights.astype("<f8").tobytes().hex("\n", row)),
    ):
        sink.write(f"{name}\t{count}\n")
        if count:
            sink.write(lines + "\n")
    sink.write("end\n")


def _plain(form: re.Pattern, field: str) -> str:
    """The field, if `form` (PLAIN_INT or PLAIN_FLOAT) matches all of it."""
    if not form.fullmatch(field):
        raise ValueError(f"{field!r} is not a plain number")
    return field


def load_model(source: str | TextIO) -> CrfModel:
    """Read a model that save_model wrote.

    The file is lines of tab-separated fields: the version header,
    `labels` and the label names, `config` with the feature spec and k,
    `meta` with the training facts (or `none`), then three counted
    sections of one field per line and `end`. `attrs n` is followed by the
    n attribute names, the line number giving the id; `weights n` by a
    line per attribute and `trans L` by a line per label, each line the
    row's L weights in label order as 16·L lowercase hex digits of
    little-endian IEEE-754 binary64.

    The header lines are read one at a time. The sections are cut into
    pieces of about LOAD_CHUNK_CHARS characters, ending on a line break;
    each piece is checked for tabs and handed whole to its section's
    reader, so besides the text and the model the parse holds one piece's
    rows. A piece that fails a check is read again line by line to name
    the first bad line.

    Raises ModelFormatError, with the line number, for another version, a
    truncated file, repeated label names, a meta line other than `none` or
    the writer's three fields in order with a finite objective, a section
    line with a tab, a count or `k` that is not a plain integer (PLAIN_INT)
    or a final objective that is not a plain float (PLAIN_FLOAT), a
    repeated or empty attribute name, an attribute id column (a model
    written before bare names, to be retrained), a `weights` count other
    than the attribute count or a `trans` count other than the label count,
    a row that is not 16·L lowercase hex digits, a weight that is not
    finite, and any text after the `end` line.
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

    def section(count: int, what: str, add: Callable[[str, int], None]) -> None:
        """Hand the next `count` lines to `add` a piece at a time, as the
        piece's text and its number of lines, once the piece is found to hold
        no tab. An `add` that raises leaves the model as it found it."""
        nonlocal pos, lineno

        def add_lines(piece: str, lines: int) -> None:
            if "\t" in piece:
                raise ValueError("expected 1 field, found tab-separated fields")
            add(piece, lines)

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
                add_lines(piece, lines)
            except ValueError:
                for number, line in enumerate(piece.split("\n"), lineno + 1):
                    try:
                        add_lines(line, 1)
                    except ValueError as exc:
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
    line = take("meta line")
    if line.split("\t", 1)[0] != "meta":
        raise ModelFormatError(f"line {lineno}: expected meta line")
    meta: Optional[TrainMeta] = None
    if line != "meta\tnone":
        found = re.fullmatch(
            r"meta\titerations=([^\t]*)\tfinal_objective=([^\t]*)\tstopped_by=([^\t]*)", line
        )
        try:
            if found is None:
                raise ValueError("expected iterations=, final_objective= and stopped_by=")
            meta = TrainMeta(
                int(_plain(PLAIN_INT, found[1])), float(_plain(PLAIN_FLOAT, found[2])), found[3]
            )
            if not np.isfinite(meta.final_objective):
                raise ValueError("final objective is not a finite number")
        except ValueError as exc:
            raise ModelFormatError(f"line {lineno}: malformed meta line: {exc}")

    attr_index: dict[str, int] = {}

    def add_names(piece: str, lines: int) -> None:
        names = piece.split("\n")
        if "" in names:
            raise ValueError("empty attribute name")
        start = len(attr_index)
        attr_index.update(zip(names, range(start, start + lines)))
        if len(attr_index) < start + lines:
            # a repeated name: restore the names before the piece (an update
            # keeps a name's place and changes its id)
            kept = list(attr_index)[:start]
            attr_index.clear()
            attr_index.update(zip(kept, range(start)))
            raise ValueError("repeated attribute name")

    count = section_count("attrs")
    # every file written with an id column starts its attrs with id 0
    if count and text.startswith("0\t", pos):
        raise ModelFormatError(
            f"line {lineno + 1}: an attribute id column: the model was written before"
            " bare attribute names; retrain it"
        )
    section(count, "attribute name", add_names)
    n_labels = len(labels)

    def rows_into(target: np.ndarray) -> Callable[[str, int], None]:
        """An `add` that decodes the next hex rows into `target`."""
        filled = 0

        def add_rows(piece: str, lines: int) -> None:
            nonlocal filled
            data = bytearray.fromhex(piece)
            # the re-encoding is the one spelling: lowercase, no spaces, and
            # with the length, 16·L digits on every line
            if len(data) != 8 * n_labels * lines or data.hex("\n", 8 * n_labels) != piece:
                raise ValueError(f"expected lines of {16 * n_labels} lowercase hex digits")
            w = np.frombuffer(data, dtype="<f8").reshape(lines, n_labels)
            if not np.all(np.isfinite(w)):
                raise ValueError("weight is not a finite number")
            target[filled : filled + lines] = w
            filled += lines

        return add_rows

    state = np.zeros((len(attr_index), n_labels))
    trans = np.zeros((n_labels, n_labels))
    for name, target, per in (("weights", state, "attribute"), ("trans", trans, "label")):
        if (count := section_count(name)) != len(target):
            raise ModelFormatError(f"line {lineno}: {name} section must hold all {len(target)} {per} rows")
        section(count, f"{name} row", rows_into(target))
    if take("end marker") != "end":
        raise ModelFormatError(f"line {lineno}: expected end marker")
    if pos < len(text):
        raise ModelFormatError(f"line {lineno + 1}: text after the end marker")
    return CrfModel(labels, attr_index, state, trans, config, meta)
