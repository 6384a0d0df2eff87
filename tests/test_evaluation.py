import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import learnability_corpus
from gujiseg.corpus import M, O, LabeledSequence
from gujiseg.crf import TrainConfig
from gujiseg.evaluation import (
    ExperimentResult,
    Metrics,
    SplitError,
    SplitSpec,
    evaluate,
    run_experiment,
    split,
)
from gujiseg.features import FeatureConfig

label_seqs = st.lists(
    st.lists(st.sampled_from([O, M]), min_size=1, max_size=20),
    min_size=1,
    max_size=8,
)


def make_docs(n, length=6, seed=0):
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        chars = "".join(rng.choice("天地玄黃宇宙") for _ in range(length))
        labels = "".join(rng.choice("OM") for _ in range(length - 1)) + "M"
        docs.append(LabeledSequence(f"{i:04d}", chars, labels))
    return docs


class TestMetrics:
    def test_hand_example(self):
        got = evaluate([[O, O, M, O, M]], [[O, M, M, O, O]])
        assert got == Metrics(tp=1, fp=1, fn=1, tn=2)
        assert got.precision == 0.5
        assert got.recall == 0.5
        assert got.f1 == 0.5
        assert got.item_accuracy == pytest.approx(0.6)

    def test_perfect_prediction(self):
        gold = [[O, M, M], [M, O]]
        got = evaluate(gold, [list(g) for g in gold])
        assert got.precision == 1.0
        assert got.recall == 1.0
        assert got.f1 == 1.0
        assert got.item_accuracy == 1.0

    def test_all_o_prediction(self):
        got = evaluate([[O, M, O, M]], [[O, O, O, O]])
        assert got == Metrics(tp=0, fp=0, fn=2, tn=2)
        assert got.precision == 0.0
        assert got.recall == 0.0
        assert got.f1 == 0.0
        assert got.item_accuracy == 0.5

    def test_zero_denominators_give_zero(self):
        empty = Metrics(0, 0, 0, 0)
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0
        assert empty.item_accuracy == 0.0

    def test_accepts_labeled_sequences(self):
        doc = LabeledSequence("d", "天下太平", "OOOM")
        got = evaluate([doc], [[O, O, O, M]])
        assert got.f1 == 1.0

    def test_sequence_count_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([[O]], [[O], [M]])

    def test_sequence_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([[O, M]], [[O]])

    @given(pairs=st.lists(st.tuples(st.sampled_from([O, M]), st.sampled_from([O, M])), min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_identities(self, pairs):
        gold = [[g for g, _ in pairs]]
        pred = [[p for _, p in pairs]]
        m = evaluate(gold, pred)
        n = len(pairs)
        assert m.tp + m.fp + m.fn + m.tn == n
        assert m.item_accuracy == pytest.approx(1 - (m.fp + m.fn) / n)
        if m.precision + m.recall > 0:
            assert m.f1 == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall)
            )

    @given(gold=label_seqs, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_micro_average_equals_concatenation(self, gold, seed):
        rng = random.Random(seed)
        pred = [[rng.choice([O, M]) for _ in g] for g in gold]
        per_seq = evaluate(gold, pred)
        flat = evaluate(
            [[l for g in gold for l in g]], [[l for p in pred for l in p]]
        )
        assert per_seq == flat

    @given(gold=label_seqs, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_sequence_order_irrelevant(self, gold, seed):
        rng = random.Random(seed)
        pred = [[rng.choice([O, M]) for _ in g] for g in gold]
        order = list(range(len(gold)))
        rng.shuffle(order)
        a = evaluate(gold, pred)
        b = evaluate([gold[i] for i in order], [pred[i] for i in order])
        assert a == b


class TestSplit:
    def test_seven_three(self):
        docs = make_docs(10)
        train, test = split(docs, SplitSpec(0.7, seed=0, repetitions=3), 0)
        assert len(train) == 7
        assert len(test) == 3

    def test_partition_is_disjoint_and_covers(self):
        docs = make_docs(23)
        spec = SplitSpec(0.7, seed=4, repetitions=5)
        for trial in range(5):
            train, test = split(docs, spec, trial)
            ids = sorted(d.doc_id for d in train) + sorted(d.doc_id for d in test)
            assert sorted(ids) == sorted(d.doc_id for d in docs)
            assert not set(d.doc_id for d in train) & set(d.doc_id for d in test)

    def test_deterministic(self):
        docs = make_docs(15)
        spec = SplitSpec(0.7, seed=2, repetitions=3)
        a = split(docs, spec, 1)
        b = split(docs, spec, 1)
        assert a == b

    def test_trials_differ(self):
        docs = make_docs(20)
        spec = SplitSpec(0.7, seed=3, repetitions=4)
        partitions = {
            tuple(d.doc_id for d in split(docs, spec, t)[0]) for t in range(4)
        }
        assert len(partitions) >= 2

    def test_seed_changes_partition(self):
        docs = make_docs(20)
        a = split(docs, SplitSpec(0.7, seed=1, repetitions=1), 0)
        b = split(docs, SplitSpec(0.7, seed=2, repetitions=1), 0)
        assert [d.doc_id for d in a[0]] != [d.doc_id for d in b[0]]

    def test_train_ratio_rounds_up(self):
        docs = make_docs(9)
        train, test = split(docs, SplitSpec(0.7, seed=0, repetitions=1), 0)
        assert len(train) == math.ceil(9 * 0.7)
        assert len(test) == 9 - len(train)

    def test_too_few_documents(self):
        with pytest.raises(SplitError):
            split(make_docs(1), SplitSpec(0.7, seed=0, repetitions=1), 0)

    def test_trial_out_of_range(self):
        docs = make_docs(10)
        spec = SplitSpec(0.7, seed=0, repetitions=3)
        with pytest.raises(ValueError):
            split(docs, spec, 3)
        with pytest.raises(ValueError):
            split(docs, spec, -1)

    def test_bad_ratio_rejected(self):
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                SplitSpec(train_ratio=ratio)

    def test_bad_repetitions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(repetitions=0)


class TestExperimentResult:
    def test_mean_f1_vs_f1_of_means(self):
        # trial A: P=1, R=0.5; trial B: P=0.5, R=1. Per-trial F1 is 2/3 in
        # both, but F1 of the mean P/R is 0.75: the two summaries genuinely
        # differ, so both must be exposed separately.
        r = ExperimentResult(
            (Metrics(tp=1, fp=0, fn=1, tn=1), Metrics(tp=1, fp=1, fn=0, tn=1))
        )
        assert r.mean_f1 == pytest.approx(2 / 3)
        assert r.mean_precision == pytest.approx(0.75)
        assert r.mean_recall == pytest.approx(0.75)
        assert r.f1_of_means == pytest.approx(0.75)
        assert r.mean_f1 != pytest.approx(r.f1_of_means)

    def test_single_trial_means_equal_trial(self):
        m = Metrics(tp=3, fp=1, fn=2, tn=4)
        r = ExperimentResult((m,))
        assert r.mean_precision == m.precision
        assert r.mean_recall == m.recall
        assert r.mean_f1 == m.f1
        assert r.f1_of_means == pytest.approx(m.f1)
        assert r.mean_item_accuracy == m.item_accuracy


class TestRunExperiment:
    def test_learns_rule_corpus(self):
        docs = learnability_corpus(n_docs=300, seed=7)
        result = run_experiment(
            docs,
            FeatureConfig(k=1),
            TrainConfig(max_iterations=60),
            SplitSpec(0.7, seed=0, repetitions=1),
        )
        assert result.mean_f1 >= 0.99

    def test_repetition_count(self):
        docs = learnability_corpus(n_docs=40, seed=8)
        result = run_experiment(
            docs,
            FeatureConfig(k=1),
            TrainConfig(max_iterations=5),
            SplitSpec(0.7, seed=0, repetitions=3),
        )
        assert len(result.per_trial) == 3

    def test_deterministic(self):
        docs = learnability_corpus(n_docs=40, seed=9)
        args = (
            docs,
            FeatureConfig(k=1),
            TrainConfig(max_iterations=5),
            SplitSpec(0.7, seed=1, repetitions=2),
        )
        assert run_experiment(*args) == run_experiment(*args)

    def test_pmi_auto_build(self, caplog):
        import logging

        docs = learnability_corpus(n_docs=40, seed=10)
        with caplog.at_level(logging.INFO, logger="gujiseg.evaluation"):
            result = run_experiment(
                docs,
                FeatureConfig(k=1, use_pmi=True),
                TrainConfig(max_iterations=5),
                SplitSpec(0.7, seed=0, repetitions=1),
            )
        assert len(result.per_trial) == 1
        assert any("PMI" in r.message for r in caplog.records)
