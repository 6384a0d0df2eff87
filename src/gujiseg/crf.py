"""Linear-chain CRF over the label set {O, M}.

State features are (attribute, label) indicators; transition features are
label-pair indicators. All inference runs in log space (sequences run to
hundreds of positions, probability-domain scaling would underflow).

Forward and backward run over a packed time-major layout: sequences are
sorted longest first, so position t of the k[t] sequences still running is
the contiguous row block off[t]:off[t]+k[t], in the same sequence order at
every t. Each step is one slice and one log-sum-exp reduction, with no
padding and no masks; a lone sequence is the case k[t] = 1.

Training is full-batch gradient ascent on the L2-penalized log-likelihood
with a backtracking (Armijo) line search: deterministic, monotone, and easy
to verify against finite differences.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np
from scipy import sparse

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
    l2_sigma: float = 1.0
    max_iterations: int = 200
    tolerance: float = 1e-5
    seed: int = 0

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
    seed: int
    stopped_by: str
    objective_history: list[float] = field(default_factory=list, repr=False)


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


def _packed_steps(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, off) of the packed layout: k[t] sequences are longer than t,
    and their rows at position t start at off[t]."""
    k = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    return k, np.cumsum(k) - k


def _forward(emis: np.ndarray, trans: np.ndarray, k: np.ndarray, off: np.ndarray) -> np.ndarray:
    k, off = k.tolist(), off.tolist()
    alpha = np.empty_like(emis)
    alpha[: k[0]] = emis[: k[0]]
    for t in range(1, len(k)):
        prev = alpha[off[t - 1] : off[t - 1] + k[t], :, None]
        rows = slice(off[t], off[t] + k[t])
        alpha[rows] = emis[rows] + np.logaddexp.reduce(prev + trans, axis=1)
    return alpha


def _backward(emis: np.ndarray, trans: np.ndarray, k: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Backward scores; a sequence's last row keeps beta = 0."""
    k, off = k.tolist(), off.tolist()
    beta = np.zeros_like(emis)
    for t in range(len(k) - 2, -1, -1):
        nxt = slice(off[t + 1], off[t + 1] + k[t + 1])
        ahead = (emis[nxt] + beta[nxt])[:, None, :]
        beta[off[t] : off[t] + k[t + 1]] = np.logaddexp.reduce(trans + ahead, axis=2)
    return beta


def _emissions(model: CrfModel, attrs: Sequence[Sequence[str]]) -> np.ndarray:
    """Per-position state scores [T, L]; unknown attributes contribute 0."""
    emis = np.zeros((len(attrs), len(model.labels)))
    index = model.attr_index
    weights = model.state_weights
    for t, row in enumerate(attrs):
        for a in row:
            j = index.get(a)
            if j is not None:
                emis[t] += weights[j]
    return emis


def score_sequence(
    model: CrfModel, attrs: Sequence[Sequence[str]], labels: Sequence[str]
) -> float:
    """Unnormalized log-potential of one labeling (no transition at t=0)."""
    if len(attrs) != len(labels) or not attrs:
        raise ValueError(f"{len(attrs)} positions vs {len(labels)} labels")
    emis = _emissions(model, attrs)
    ids = [model.label_id(l) for l in labels]
    score = float(sum(emis[t, y] for t, y in enumerate(ids)))
    score += float(sum(model.trans_weights[a, b] for a, b in zip(ids, ids[1:])))
    return score


def log_partition(model: CrfModel, attrs: Sequence[Sequence[str]]) -> float:
    if not attrs:
        raise ValueError("empty sequence")
    k, off = _packed_steps(np.array([len(attrs)]))
    alpha = _forward(_emissions(model, attrs), model.trans_weights, k, off)
    return float(np.logaddexp.reduce(alpha[-1]))


def marginals(
    model: CrfModel, attrs: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """(unary [T, L], pairwise [T-1, L, L]) posterior marginals."""
    if not attrs:
        raise ValueError("empty sequence")
    emis = _emissions(model, attrs)
    trans = model.trans_weights
    k, off = _packed_steps(np.array([len(attrs)]))
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
    if not attrs:
        raise ValueError("empty sequence")
    emis = _emissions(model, attrs)
    T, L = emis.shape
    trans = model.trans_weights
    suffix = np.empty((T, L))
    suffix[T - 1] = emis[T - 1]
    for t in range(T - 2, -1, -1):
        suffix[t] = emis[t] + np.max(trans + suffix[t + 1][None, :], axis=1)
    y = int(np.argmax(suffix[0]))
    path = [y]
    for t in range(1, T):
        y = int(np.argmax(trans[y] + suffix[t]))
        path.append(y)
    best = float(np.max(suffix[0]))
    return [model.labels[i] for i in path], best


class _Encoded:
    """Dataset compiled to a sparse firing matrix in packed time-major order.

    Sequences are ranked longest first; the row of rank r at position t is
    off[t] + r (see _packed_steps). `X` and every per-position array
    (emissions, alpha, beta) share that order. Row q >= k[0] follows row
    `prev[q - k[0]]` of its sequence, row q belongs to rank `row_rank[q]`,
    and rank r ends at row `last[r]`.
    """

    def __init__(
        self,
        dataset: Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]],
        attr_index: dict[str, int],
        labels: Sequence[str],
    ) -> None:
        label_id = {l: i for i, l in enumerate(labels)}
        L, A = len(labels), len(attr_index)
        lengths = []
        cols = array("q")
        indptr = array("q", [0])
        gold = array("q")
        for attrs, labs in dataset:
            if len(attrs) != len(labs):
                raise ValueError(f"{len(attrs)} positions vs {len(labs)} labels")
            if not attrs:
                raise ValueError("empty sequence in dataset")
            lengths.append(len(attrs))
            for row, lab in zip(attrs, labs):
                try:
                    gold.append(label_id[lab])
                except KeyError:
                    raise ValueError(f"label {lab!r} not in {tuple(labels)}")
                for a in row:
                    j = attr_index.get(a)
                    if j is not None:
                        cols.append(j)
                indptr.append(len(cols))
        lengths = np.array(lengths, dtype=np.int64)
        n, total = len(lengths), int(lengths.sum())
        self.k, self.off = k, off = _packed_steps(lengths)
        # rank sequences longest first; rank r at position t is row off[t] + r
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(-lengths, kind="stable")] = np.arange(n)
        position = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        order = np.empty(total, dtype=np.int64)
        order[off[position] + np.repeat(rank, lengths)] = np.arange(total)
        self.X = sparse.csr_matrix(
            (np.ones(len(cols)), np.array(cols, dtype=np.int64), np.array(indptr, dtype=np.int64)),
            shape=(total, A),
        )[order]
        gold = np.array(gold, dtype=np.int64)[order]
        self.row_rank = np.arange(total) - np.repeat(off, k)
        self.prev = np.arange(k[0], total) - np.repeat(k[:-1], k[1:])
        self.last = off[np.sort(lengths)[::-1] - 1] + np.arange(n)
        onehot = np.zeros((total, L))
        onehot[np.arange(total), gold] = 1.0
        self.observed_state = np.asarray(self.X.T @ onehot)
        pair_ids = gold[self.prev] * L + gold[k[0] :]
        self.observed_trans = np.bincount(pair_ids, minlength=L * L).reshape(L, L).astype(float)

    def _gold_score(self, state_w: np.ndarray, trans_w: np.ndarray) -> float:
        return float(
            np.sum(self.observed_state * state_w) + np.sum(self.observed_trans * trans_w)
        )

    def objective(self, state_w: np.ndarray, trans_w: np.ndarray, sigma_sq: float) -> float:
        alpha = _forward(np.asarray(self.X @ state_w), trans_w, self.k, self.off)
        log_z = np.logaddexp.reduce(alpha[self.last], axis=1)
        penalty = (np.sum(state_w**2) + np.sum(trans_w**2)) / (2.0 * sigma_sq)
        return self._gold_score(state_w, trans_w) - float(np.sum(log_z)) - penalty

    def objective_and_gradient(
        self, state_w: np.ndarray, trans_w: np.ndarray, sigma_sq: float
    ) -> tuple[float, Gradient]:
        emis = np.asarray(self.X @ state_w)
        alpha = _forward(emis, trans_w, self.k, self.off)
        beta = _backward(emis, trans_w, self.k, self.off)
        log_z = np.logaddexp.reduce(alpha[self.last], axis=1)
        row_log_z = log_z[self.row_rank][:, None]
        expected_state = np.asarray(self.X.T @ np.exp(alpha + beta - row_log_z))
        nxt = slice(self.k[0], None)
        pair = np.exp(
            alpha[self.prev][:, :, None]
            + trans_w
            + (emis[nxt] + beta[nxt] - row_log_z[nxt])[:, None, :]
        )
        expected_trans = pair.sum(axis=0)
        penalty = (np.sum(state_w**2) + np.sum(trans_w**2)) / (2.0 * sigma_sq)
        objective = self._gold_score(state_w, trans_w) - float(np.sum(log_z)) - penalty
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
    model: CrfModel,
    dataset: Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]],
    l2_sigma: float,
) -> tuple[float, Gradient]:
    """Penalized log-likelihood of the dataset under the model, with its
    gradient (observed minus expected feature counts minus the prior pull).
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    enc = _Encoded(dataset, model.attr_index, model.labels)
    return enc.objective_and_gradient(
        model.state_weights, model.trans_weights, l2_sigma**2
    )


def _build_attr_index(
    dataset: Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]]
) -> dict[str, int]:
    index: dict[str, int] = {}
    for attrs, _ in dataset:
        for row in attrs:
            for a in row:
                if a not in index:
                    index[a] = len(index)
    return index


def train(
    dataset: Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]],
    config: TrainConfig = TrainConfig(),
    feature_config: Optional[FeatureConfig] = None,
    labels: Sequence[str] = LABELS,
) -> CrfModel:
    """Fit a model by full-batch gradient ascent with Armijo backtracking.

    Deterministic given (dataset, config): weights start at zero and every
    step is full-batch, so the seed is recorded for provenance only.
    Stops on relative objective change below config.tolerance or after
    config.max_iterations accepted steps, whichever is first, or when the
    line search finds no acceptable step; meta.stopped_by names the rule.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    attr_index = _build_attr_index(dataset)
    enc = _Encoded(dataset, attr_index, labels)
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
            cand_obj = enc.objective(cand_state, cand_trans, sigma_sq)
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
        objective, grad = enc.objective_and_gradient(state, trans, sigma_sq)
        history.append(objective)
        if relative < config.tolerance:
            stopped_by = "converged"
            break
    meta = TrainMeta(iterations, objective, config.seed, stopped_by, history)
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
            f"\tseed={m.seed}\tstopped_by={m.stopped_by}\n"
        )
    attrs = sorted(model.attr_index.items(), key=lambda kv: kv[1])
    sink.write(f"attrs\t{len(attrs)}\n")
    for attr, attr_id in attrs:
        if "\t" in attr or "\n" in attr:
            raise ValueError(f"attribute {attr!r} contains a separator")
        sink.write(f"{attr_id}\t{attr}\n")
    nonzero = np.argwhere(model.state_weights != 0.0)
    sink.write(f"state\t{len(nonzero)}\n")
    for attr_id, label_id in nonzero:
        sink.write(
            f"{attr_id}\t{model.labels[label_id]}"
            f"\t{model.state_weights[attr_id, label_id]:.17g}\n"
        )
    sink.write(f"trans\t{len(model.labels) ** 2}\n")
    for i, a in enumerate(model.labels):
        for j, b in enumerate(model.labels):
            sink.write(f"{a}\t{b}\t{model.trans_weights[i, j]:.17g}\n")
    sink.write("end\n")


def load_model(source: str | TextIO) -> CrfModel:
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
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
                int(pairs["seed"]),
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
