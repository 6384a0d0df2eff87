"""Linear-chain CRF over the label set {O, M}.

State features are (attribute, label) indicators; transition features are
label-pair indicators. All inference runs in log space.

Training, decoding and marginals all run over one packed time-major
layout: sequences are sorted longest first, so position t of the k[t]
sequences still running is the contiguous row block off[t]:off[t]+k[t], in
the same sequence order at every t, with no padding and no masks; a lone
sequence is the case k[t] = 1. A step adds into one preallocated buffer and
folds it over the labels with out= ufunc calls, in the order a reduction
sums, so the scores equal one np.logaddexp.reduce per step bit for bit
(tests/oracles.py keeps that form as the reference). The backward
recursion is shared: folded with log-sum-exp it gives the backward scores
of forward-backward, folded with max the best suffix scores of Viterbi.

Attribute columns are the one encoder input: (names, codes) pairs in
canonical order over a batch laid end to end (features.feature_columns, or
ColumnDataset for training). Training ranks every name by the first (row,
column) where it occurs, which is the first-seen attribute order of the
model file, and turns the codes into the CSR arrays of the attribute-firing
operator _Firing (F @ w and F.T @ m in numpy alone). Attribute lists enter
as slot columns, column s holding each row's s-th attribute, so
train(pairs), objective_and_gradient, viterbi, marginals, log_partition and
score_sequence take the same path. Emissions outside training come from
column_scores, which sums each row's weights in the order F @ w does;
viterbi_emissions decodes them.

Training is full-batch gradient ascent on the L2-penalized log-likelihood
with a backtracking (Armijo) line search: deterministic, monotone, and easy
to verify against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .corpus import LABELS
from .features import FeatureConfig

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
MODEL_FORMAT_VERSION = "crfmodel-v1"


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


@dataclass(eq=False)
class CrfModel:
    labels: tuple[str, ...]
    attr_index: dict[str, int]
    state_weights: np.ndarray
    trans_weights: np.ndarray
    config: FeatureConfig
    meta: Optional[TrainMeta] = None

    def __post_init__(self) -> None:
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


def _forward(emis: np.ndarray, trans: np.ndarray, k: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Forward scores: alpha[t] = emis[t] + logsumexp_i(alpha[t-1, i] + trans[i]).

    Each step adds into one preallocated [k[t], L, L] buffer and folds it
    over the source label i left to right, as np.logaddexp.reduce(axis=1)
    does, so the scores equal that reduction bit for bit. Views are
    remade only when k[t] changes.
    """
    k, off = k.tolist(), off.tolist()
    alpha = np.empty_like(emis)
    alpha[: k[0]] = emis[: k[0]]
    alpha3 = alpha[:, :, None]
    buf = np.empty((k[0],) + trans.shape)
    n_views = 0
    for t in range(1, len(k)):
        n, a = k[t], off[t]
        if n != n_views:
            pairs = buf[:n]
            fold, (first, second, *rest) = _fold_operands(pairs, np.logaddexp)
            n_views = n
        np.add(alpha3[off[t - 1] : off[t - 1] + n], trans, out=pairs)
        acc = alpha[a : a + n]
        fold(first, second, out=acc)
        for part in rest:
            fold(acc, part, out=acc)
        np.add(emis[a : a + n], acc, out=acc)
    return alpha


def _fold_operands(pairs: np.ndarray, add: np.ufunc) -> tuple[np.ufunc, list[np.ndarray]]:
    """(ufunc, views) of a step that folds pairs[:, i] over the labels i
    with `add`. A fold takes two operands at least, so a lone label's view
    is listed twice and folded with np.maximum, which returns it bit for bit."""
    parts = [pairs[:, i] for i in range(pairs.shape[1])]
    if len(parts) == 1:
        return np.maximum, parts * 2
    return add, parts


def _backward(
    emis: np.ndarray, trans: np.ndarray, k: np.ndarray, off: np.ndarray, add=np.logaddexp
) -> np.ndarray:
    """Backward scores in the semiring whose sum is `add`: np.logaddexp for
    forward-backward, np.maximum for Viterbi. A sequence's last row keeps
    0; emis + beta scores a row together with its (best) suffix.

    beta[t, i] = add over j of (trans[i, j] + emis[t+1, j] + beta[t+1, j]),
    folded over j left to right in preallocated buffers, as
    add.reduce(axis=2) does, so the scores equal that reduction bit for bit.
    """
    k, off = k.tolist(), off.tolist()
    beta = np.zeros_like(emis)
    trans_t = np.ascontiguousarray(trans.T)
    ahead = np.empty((k[0], len(trans)))
    buf = np.empty((k[0],) + trans.shape)
    n_views = 0
    for t in range(len(k) - 2, -1, -1):
        n, a = k[t + 1], off[t + 1]
        if n != n_views:
            h, pairs = ahead[:n], buf[:n]
            h3 = h[:, :, None]
            fold, (first, second, *rest) = _fold_operands(pairs, add)
            n_views = n
        np.add(emis[a : a + n], beta[a : a + n], out=h)
        # pairs[q, j, i] = trans[i, j] + ahead[q, j]
        np.add(h3, trans_t, out=pairs)
        acc = beta[off[t] : off[t] + n]
        fold(first, second, out=acc)
        for part in rest:
            fold(acc, part, out=acc)
    return beta


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
    ids = np.fromiter((attr_index.get(name, missing) for name in names), np.intp, len(names))
    return np.append(ids, missing)


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


def _firing_csr(
    columns: Sequence[Column], attr_index: dict[str, int], order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (cols, indptr) of the attribute-firing matrix whose row q
    is row order[q] of the rows the columns cover: a row fires, column by
    column, the id of its code's name. Names not in attr_index and code -1
    fire nothing."""
    lookups = [_lookup(attr_index, names, -1) for names, _ in columns]
    fired = np.zeros(len(order), dtype=np.intp)
    for ids, (_, codes) in zip(lookups, columns):
        fired += ids[codes] >= 0
    indptr = np.zeros(len(order) + 1, dtype=np.intp)
    np.cumsum(fired[order], out=indptr[1:])
    cols = np.empty(indptr[-1], dtype=np.intp)
    # where the next entry of each row (in the columns' order) goes
    slot = np.empty_like(fired)
    slot[order] = indptr[:-1]
    for ids, (_, codes) in zip(lookups, columns):
        row_ids = ids[codes]
        hit = row_ids >= 0
        cols[slot[hit]] = row_ids[hit]
        slot += hit
    return cols, indptr


class _Firing:
    """The 0/1 attribute-firing matrix F [rows, n_attrs] whose row i fires
    cols[indptr[i]:indptr[i+1]].

    It offers the two products the CRF needs, both summed in CSR row order
    from zero, so they equal a sparse-matrix product bit for bit:
    scores(w) = F @ w and counts(m) = F.T @ m. For scores the rows are
    ranked by how many attributes they fire, most first, so the rows that
    fire an s-th attribute are a prefix and slot s adds into one slice.
    """

    def __init__(self, cols: np.ndarray, indptr: np.ndarray, n_attrs: int) -> None:
        start, fired = indptr[:-1], np.diff(indptr)
        self.n_attrs, self.nnz, self.fired, self.cols = n_attrs, len(cols), fired, cols
        by_fired = np.argsort(-fired, kind="stable")
        self.rank = np.empty_like(by_fired)
        self.rank[by_fired] = np.arange(len(fired))
        start = start[by_fired]
        self.slots = [
            cols[start[: np.count_nonzero(fired > s)] + s] for s in range(fired.max(initial=0))
        ]

    def scores(self, w: np.ndarray) -> np.ndarray:
        """F @ w for w [n_attrs, L]."""
        out = np.zeros((len(self.fired), w.shape[1]))
        for cols in self.slots:
            out[: len(cols)] += np.take(w, cols, axis=0)
        return np.take(out, self.rank, axis=0)

    def counts(self, m: np.ndarray) -> np.ndarray:
        """F.T @ m for m [rows, L]."""
        return np.stack(
            [
                np.bincount(self.cols, np.repeat(m[:, l], self.fired), self.n_attrs)
                for l in range(m.shape[1])
            ],
            axis=1,
        )


def _state_scores(model: CrfModel, attrs: Sequence[Sequence[str]]) -> np.ndarray:
    """Emissions [T, L] of one sequence given as attribute lists: each row
    sums the weights of its known attributes in list order, starting from
    zero (column_scores of its slot columns)."""
    return column_scores(model, _slot_columns([attrs]), len(attrs))


def column_scores(model: CrfModel, columns: Iterable[Column], total: int) -> np.ndarray:
    """Emissions [total, L] of a batch given as attribute columns
    (features.feature_columns): each column's names are looked up in the
    model once, and every row adds the state weights of its code's name.
    Unknown names and code -1 add a zero row, which leaves a sum exactly as
    it was, so a row sums the weights of its attribute list in list order,
    bit for bit as the firing matrix's F @ w does."""
    n_attrs, n_labels = model.state_weights.shape
    weights = np.vstack([model.state_weights, np.zeros((1, n_labels))])
    emis = np.zeros((total, n_labels))
    for names, codes in columns:
        emis += weights[_lookup(model.attr_index, names, n_attrs)[codes]]
    return emis


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
    k, off, _ = _packed_order(np.array([len(attrs)]))
    alpha = _forward(_state_scores(model, attrs), model.trans_weights, k, off)
    return float(np.logaddexp.reduce(alpha[-1]))


def marginals(
    model: CrfModel, attrs: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """(unary [T, L], pairwise [T-1, L, L]) posterior marginals."""
    if not attrs:
        raise ValueError("empty sequence")
    k, off, _ = _packed_order(np.array([len(attrs)]))
    emis = _state_scores(model, attrs)
    trans = model.trans_weights
    alpha = _forward(emis, trans, k, off)
    beta = _backward(emis, trans, k, off)
    log_z = np.logaddexp.reduce(alpha[-1])
    unary = np.exp(alpha + beta - log_z)
    pairwise = np.exp(
        alpha[:-1, :, None]
        + trans[None, :, :]
        + (emis[1:] + beta[1:])[:, None, :]
        - log_z
    )
    return unary, pairwise


def viterbi(
    model: CrfModel, attrs: Sequence[Sequence[str]]
) -> tuple[list[str], float]:
    """Highest-scoring labeling. Ties break toward the earlier label in
    canonical order, decided left to right: a backward pass computes best
    suffix scores, then a forward pass takes the first argmax at each step.
    """
    return viterbi_batch(model, [attrs])[0]


def viterbi_batch(
    model: CrfModel, attr_seqs: Iterable[Sequence[Sequence[str]]]
) -> list[tuple[list[str], float]]:
    """viterbi() of every sequence given as attribute lists, decoded
    together by viterbi_emissions.

    Each sequence is reduced to its emissions as soon as it is drawn from
    `attr_seqs`, so its attribute lists can be dropped before the next one
    is featurized.
    """
    emis_seqs = [_state_scores(model, attrs) for attrs in attr_seqs]
    lengths = np.array([len(e) for e in emis_seqs], dtype=np.int64)
    emis = np.concatenate(emis_seqs) if emis_seqs else np.zeros((0, len(model.labels)))
    del emis_seqs
    return viterbi_emissions(model, emis, lengths)


def viterbi_emissions(
    model: CrfModel, emis: np.ndarray, lengths: np.ndarray
) -> list[tuple[list[str], float]]:
    """viterbi() of every sequence given its emissions, decoded together in
    one packed pass: `emis` [total, L] holds the sequences' rows end to end
    and `lengths` their lengths.

    Best suffix scores come from the shared backward recursion, then one
    first-argmax forward pass runs over the k[t] running rows at each step:
    the candidates trans[prev] + suffix fill one preallocated buffer, and a
    fold over the labels keeps the first label that scores strictly more
    than every earlier one, as np.argmax does.
    """
    if np.any(lengths == 0):
        raise ValueError("empty sequence")
    if not len(lengths):
        return []
    k, off, order = _packed_order(lengths)
    emis = emis[order]
    trans = model.trans_weights
    suffix = emis + _backward(emis, trans, k, off, np.maximum)
    del emis
    n, steps, starts = len(lengths), k.tolist(), off.tolist()
    path = np.empty(len(suffix), dtype=np.int64)
    path[:n] = np.argmax(suffix[:n], axis=1)
    cand, better = np.empty((n, len(trans))), np.empty(n, dtype=bool)
    n_views = 0
    for t in range(1, len(steps)):
        m, a = steps[t], starts[t]
        if m != n_views:
            c, g = cand[:m], better[:m]
            # a lone label's view comes twice, and its copy never scores more
            _, parts = _fold_operands(c, np.maximum)
            n_views = m
        np.take(trans, path[starts[t - 1] : starts[t - 1] + m], axis=0, out=c)
        np.add(c, suffix[a : a + m], out=c)
        out = path[a : a + m]
        np.greater(parts[1], parts[0], out=out)
        # parts[0] becomes the best score so far
        for j in range(2, len(parts)):
            np.maximum(parts[0], parts[j - 1], out=parts[0])
            np.greater(parts[j], parts[0], out=g)
            np.copyto(out, j, where=g)
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
    of every per-position array (emissions, alpha, beta) share that order.
    Row q >= k[0] follows row `prev[q - k[0]]` of its sequence, row q
    belongs to rank `row_rank[q]`, and rank r ends at row `last[r]`.
    """

    def __init__(self, dataset: Dataset, attr_index: dict[str, int], labels: Sequence[str]) -> None:
        batch = _as_columns(dataset)
        label_id = {l: i for i, l in enumerate(labels)}
        L, A = len(labels), len(attr_index)
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
        k, off, order = _packed_order(lengths)
        self.k, self.off = k, off
        self.X = _Firing(*_firing_csr(batch.columns, attr_index, order), A)
        gold = gold[order]
        self.row_rank = np.arange(total) - np.repeat(off, k)
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
        alpha = _forward(emis, trans_w, self.k, self.off)
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
        beta = _backward(emis, trans_w, self.k, self.off)
        row_log_z = log_z[self.row_rank][:, None]
        expected_state = self.X.counts(np.exp(alpha + beta - row_log_z))
        nxt = slice(self.k[0], None)
        pair = np.exp(
            alpha[self.prev][:, :, None]
            + trans_w
            + (emis[nxt] + beta[nxt] - row_log_z[nxt])[:, None, :]
        )
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
    sink.write(MODEL_FORMAT_VERSION + "\n")
    sink.write("labels" + "".join("\t" + l for l in model.labels) + "\n")
    sink.write(f"config\t{model.config.spec()}\t{model.config.k}\n")
    if model.meta is None:
        sink.write("meta\tnone\n")
    else:
        m = model.meta
        sink.write(
            f"meta\titerations={m.iterations}\tfinal_objective={m.final_objective:.17g}"
            f"\tstopped_by={m.stopped_by}\n"
        )
    attrs = sorted(model.attr_index.items(), key=lambda kv: kv[1])
    sink.write(f"attrs\t{len(attrs)}\n")
    for attr, attr_id in attrs:
        if "\t" in attr or "\n" in attr:
            raise ValueError(f"attribute {attr!r} contains a separator")
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


def load_model(source: str | TextIO) -> CrfModel:
    text = source if isinstance(source, str) else source.read()
    lines = text.split("\n")
    cursor = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal cursor
        if cursor >= len(lines):
            raise ModelFormatError(f"truncated model file: missing {what}")
        cursor += 1
        return cursor, lines[cursor - 1]

    _, header = take("version header")
    if header != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {header!r}")
    lineno, label_line = take("label list")
    fields = label_line.split("\t")
    if fields[0] != "labels" or len(fields) < 2:
        raise ModelFormatError(f"line {lineno}: expected label list")
    labels = tuple(fields[1:])
    lineno, config_line = take("config line")
    fields = config_line.split("\t")
    if fields[0] != "config" or len(fields) != 3:
        raise ModelFormatError(f"line {lineno}: expected config line")
    try:
        config = FeatureConfig.from_spec(fields[1], k=int(fields[2]))
    except ValueError as exc:
        raise ModelFormatError(f"line {lineno}: {exc}")
    lineno, meta_line = take("meta line")
    fields = meta_line.split("\t")
    if fields[0] != "meta":
        raise ModelFormatError(f"line {lineno}: expected meta line")
    meta: Optional[TrainMeta] = None
    if fields[1:] != ["none"]:
        pairs = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
        try:
            meta = TrainMeta(
                int(pairs["iterations"]),
                float(pairs["final_objective"]),
                pairs["stopped_by"],
            )
        except (KeyError, ValueError):
            raise ModelFormatError(f"line {lineno}: malformed meta line")

    def section_count(name: str) -> int:
        lineno, line = take(f"{name} section")
        fields = line.split("\t")
        if fields[0] != name or len(fields) != 2:
            raise ModelFormatError(f"line {lineno}: expected {name} section header")
        try:
            count = int(fields[1])
        except ValueError:
            raise ModelFormatError(f"line {lineno}: bad {name} count {fields[1]!r}")
        if count < 0:
            raise ModelFormatError(f"line {lineno}: bad {name} count {count}")
        return count

    attr_index: dict[str, int] = {}
    for _ in range(section_count("attrs")):
        lineno, line = take("attribute entry")
        fields = line.split("\t")
        if len(fields) != 2 or not fields[1]:
            raise ModelFormatError(f"line {lineno}: bad attribute entry {line!r}")
        try:
            attr_id = int(fields[0])
        except ValueError:
            raise ModelFormatError(f"line {lineno}: bad attribute id {fields[0]!r}")
        if fields[1] in attr_index or attr_id != len(attr_index):
            raise ModelFormatError(f"line {lineno}: attribute ids must be dense and unique")
        attr_index[fields[1]] = attr_id
    label_pos = {l: i for i, l in enumerate(labels)}
    state = np.zeros((len(attr_index), len(labels)))
    for _ in range(section_count("state")):
        lineno, line = take("state weight")
        fields = line.split("\t")
        try:
            attr_id = int(fields[0])
            label_id = label_pos[fields[1]]
            state[attr_id, label_id] = float(fields[2])
        except (IndexError, KeyError, ValueError):
            raise ModelFormatError(f"line {lineno}: bad state weight {line!r}")
    trans = np.zeros((len(labels), len(labels)))
    for _ in range(section_count("trans")):
        lineno, line = take("transition weight")
        fields = line.split("\t")
        try:
            trans[label_pos[fields[0]], label_pos[fields[1]]] = float(fields[2])
        except (IndexError, KeyError, ValueError):
            raise ModelFormatError(f"line {lineno}: bad transition weight {line!r}")
    lineno, end_line = take("end marker")
    if end_line != "end":
        raise ModelFormatError(f"line {lineno}: expected end marker")
    return CrfModel(labels, attr_index, state, trans, config, meta)
