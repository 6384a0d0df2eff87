"""Metrics (M as the positive class), resampled document-level splits, and
the multi-trial experiment loop.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import crf
from .corpus import LabeledSequence, M
# featurize_chars stays importable here: the traced benchmark run wraps it
from .features import FeatureConfig, feature_columns, featurize_chars  # noqa: F401
from .lexicons import LexiconSet, build_pmi_table

logger = logging.getLogger(__name__)


class SplitError(ValueError):
    """Raised when a corpus cannot be partitioned as requested."""


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @property
    def item_accuracy(self) -> float:
        total = self.tp + self.fp + self.fn + self.tn
        return (self.tp + self.tn) / total if total else 0.0


@dataclass(frozen=True)
class SplitSpec:
    train_ratio: float = 0.7
    seed: int = 0
    repetitions: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.train_ratio < 1.0:
            raise ValueError("train_ratio must be strictly between 0 and 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def evaluate(gold: Sequence, pred: Sequence[Sequence[str]]) -> Metrics:
    """Micro-averaged confusion counts pooled over every position of every
    sequence. Gold items may be LabeledSequences or bare label sequences.
    """
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sequences vs {len(pred)} predictions")
    tp = fp = fn = tn = 0
    for g, p in zip(gold, pred):
        g_labels = getattr(g, "labels", g)
        if len(g_labels) != len(p):
            raise ValueError(
                f"sequence length mismatch: {len(g_labels)} gold vs {len(p)} predicted"
            )
        for gl, pl in zip(g_labels, p):
            if gl == M:
                if pl == M:
                    tp += 1
                else:
                    fn += 1
            else:
                if pl == M:
                    fp += 1
                else:
                    tn += 1
    return Metrics(tp, fp, fn, tn)


def split(
    docs: Sequence[LabeledSequence], spec: SplitSpec, trial: int
) -> tuple[list[LabeledSequence], list[LabeledSequence]]:
    """Deterministic document-level partition for one trial.

    Train size is ceil(ratio * n); the 1e-9 nudge keeps float dust like
    0.7 * 10 == 7.000000000000001 from bumping the ceiling.
    """
    if not 0 <= trial < spec.repetitions:
        raise ValueError(f"trial {trial} outside 0..{spec.repetitions - 1}")
    if len(docs) < 2:
        raise SplitError(f"need at least 2 documents to split, got {len(docs)}")
    n_train = math.ceil(len(docs) * spec.train_ratio - 1e-9)
    rng = random.Random(spec.seed * 1_000_003 + trial)
    chosen = sorted(rng.sample(range(len(docs)), n_train))
    chosen_set = set(chosen)
    train = [docs[i] for i in chosen]
    test = [docs[i] for i in range(len(docs)) if i not in chosen_set]
    return train, test


@dataclass(frozen=True)
class ExperimentResult:
    per_trial: tuple[Metrics, ...]

    @property
    def mean_precision(self) -> float:
        return sum(m.precision for m in self.per_trial) / len(self.per_trial)

    @property
    def mean_recall(self) -> float:
        return sum(m.recall for m in self.per_trial) / len(self.per_trial)

    @property
    def mean_item_accuracy(self) -> float:
        return sum(m.item_accuracy for m in self.per_trial) / len(self.per_trial)

    @property
    def mean_f1(self) -> float:
        """Arithmetic mean of the per-trial F1 values."""
        return sum(m.f1 for m in self.per_trial) / len(self.per_trial)

    @property
    def f1_of_means(self) -> float:
        """F1 recomputed from the mean precision and mean recall."""
        p, r = self.mean_precision, self.mean_recall
        return 2 * p * r / (p + r) if p + r else 0.0


def predict_labels(
    model: crf.CrfModel,
    char_seqs: Sequence[Sequence[str]],
    lexicons: LexiconSet = LexiconSet(),
) -> list[list[str]]:
    """Viterbi-decode every sequence, all of them in one packed batch. The
    batch is featurized as integer-coded columns, so each distinct
    attribute is rendered and looked up in the model once."""
    lengths = np.array([len(chars) for chars in char_seqs], dtype=np.int64)
    columns = feature_columns(char_seqs, model.config, lexicons)
    emis = crf.column_scores(model, columns, int(lengths.sum()))
    return [labels for labels, _ in crf.viterbi_emissions(model, emis, lengths)]


def training_set(
    docs: Sequence[LabeledSequence], cfg: FeatureConfig, lexicons: LexiconSet = LexiconSet()
) -> crf.ColumnDataset:
    """The documents featurized together as attribute columns, with their
    gold labels, for crf.train."""
    chars = [d.chars for d in docs]
    # int32 codes halve what the held columns take
    return crf.ColumnDataset(
        [(names, codes.astype(np.int32)) for names, codes in feature_columns(chars, cfg, lexicons)],
        np.array([len(c) for c in chars], dtype=np.int64),
        [d.labels for d in docs],
    )


def run_experiment(
    docs: Sequence[LabeledSequence],
    feature_config: FeatureConfig,
    train_config: crf.TrainConfig,
    split_spec: SplitSpec,
    lexicons: LexiconSet = LexiconSet(),
) -> ExperimentResult:
    """Repeated-holdout experiment: split, featurize, train, decode, score.

    When PMI features are requested without a precomputed table, one is
    built from each trial's training split (never from test data).
    """
    per_trial: list[Metrics] = []
    for trial in range(split_spec.repetitions):
        train_docs, test_docs = split(docs, split_spec, trial)
        trial_lex = lexicons
        if feature_config.use_pmi and lexicons.pmi is None:
            logger.info("trial %d: building PMI table from %d training documents",
                        trial, len(train_docs))
            trial_lex = LexiconSet(
                lexicons.rhyme_dicts, lexicons.entities, build_pmi_table(train_docs)
            )
        dataset = training_set(train_docs, feature_config, trial_lex)
        model = crf.train(dataset, train_config, feature_config)
        preds = predict_labels(model, [d.chars for d in test_docs], trial_lex)
        per_trial.append(evaluate(test_docs, preds))
    return ExperimentResult(tuple(per_trial))
