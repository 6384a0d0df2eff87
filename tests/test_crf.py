import io
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gujiseg import crf

from gujiseg.corpus import LABELS, M, O, LabeledSequence
from gujiseg.crf import (
    CrfModel,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    load_model,
    log_partition,
    marginals,
    objective_and_gradient,
    save_model,
    score_sequence,
    train,
    viterbi,
    viterbi_emissions,
)
from gujiseg.evaluation import predict_labels, training_set
from gujiseg.features import FeatureConfig, feature_columns, featurize_chars
from gujiseg.lexicons import (
    GUANGYUN,
    PINGSHUIYUN,
    PLAIN_FLOAT,
    PLAIN_INT,
    EntityLexicon,
    LexiconSet,
    PmiTable,
    RhymeDictionary,
)
from oracles import (
    brute_log_partition,
    brute_marginals,
    brute_objective,
    brute_viterbi,
    fd_gradient,
    first_seen_encoding,
    reference_backward,
    reference_forward,
    reference_viterbi_path,
)

POOL = [f"w[0]={c}" for c in "天地玄黃宇宙洪荒"]


def make_model(attrs=("a", "b", "c"), state=None, trans=None):
    index = {a: i for i, a in enumerate(attrs)}
    if state is None:
        state = np.zeros((len(attrs), 2))
    if trans is None:
        trans = np.zeros((2, 2))
    return CrfModel(LABELS, index, np.asarray(state, float), np.asarray(trans, float), FeatureConfig())


def random_model(rng, n_attrs=6, scale=2.0):
    attrs = [f"a{i}" for i in range(n_attrs)]
    state = np.array([[rng.uniform(-scale, scale) for _ in range(2)] for _ in attrs])
    trans = np.array([[rng.uniform(-scale, scale) for _ in range(2)] for _ in range(2)])
    return make_model(attrs, state, trans)


def random_attrs(rng, model, tmax=8, tmin=1):
    universe = list(model.attr_index) + ["zz-unseen"]
    T = rng.randint(tmin, tmax)
    return [
        [rng.choice(universe) for _ in range(rng.randint(0, 3))] for _ in range(T)
    ]


class TestScoreSequence:
    def test_zero_weights(self):
        m = make_model()
        assert score_sequence(m, [["a"], ["b", "c"]], [O, M]) == 0.0

    def test_hand_sum(self):
        m = make_model(
            attrs=("a",),
            state=[[0.0, 1.5]],
            trans=[[0.0, 0.0], [0.0, 0.25]],
        )
        assert score_sequence(m, [["a"], ["a"]], [M, M]) == pytest.approx(3.25)

    def test_unknown_attributes_ignored(self):
        m = make_model(attrs=("a",), state=[[0.7, 1.5]])
        assert score_sequence(m, [["mystery"]], [M]) == 0.0
        assert score_sequence(m, [["a", "mystery"]], [M]) == pytest.approx(1.5)

    def test_no_transition_at_start(self):
        m = make_model(trans=[[9.0, 9.0], [9.0, 9.0]])
        assert score_sequence(m, [["a"]], [M]) == 0.0

    def test_length_mismatch(self):
        m = make_model()
        with pytest.raises(ValueError):
            score_sequence(m, [["a"]], [O, M])

    def test_empty_rejected(self):
        m = make_model()
        with pytest.raises(ValueError):
            score_sequence(m, [], [])


class TestLogPartition:
    def test_uniform_t3(self):
        m = make_model()
        assert log_partition(m, [[], [], []]) == pytest.approx(math.log(8))

    def test_t1_closed_form(self):
        w = 1.3
        m = make_model(attrs=("a",), state=[[0.0, w]])
        assert log_partition(m, [["a"]]) == pytest.approx(math.log(1 + math.exp(w)))

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_model(rng)
            attrs = random_attrs(rng, m)
            assert log_partition(m, attrs) == pytest.approx(
                brute_log_partition(m, attrs), abs=1e-9
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_partition(make_model(), [])


class TestMarginals:
    def test_uniform_is_half(self):
        unary, pairwise = marginals(make_model(), [[], [], []])
        assert np.allclose(unary, 0.5)
        assert np.allclose(pairwise, 0.25)

    def test_unary_rows_sum_to_one(self):
        rng = random.Random(12)
        for _ in range(25):
            m = random_model(rng)
            unary, _ = marginals(m, random_attrs(rng, m))
            assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)

    def test_pairwise_consistent_with_unary(self):
        rng = random.Random(13)
        for _ in range(25):
            m = random_model(rng)
            attrs = random_attrs(rng, m, tmin=2)
            unary, pairwise = marginals(m, attrs)
            # summing out the right label gives the left position, and vice versa
            assert np.allclose(pairwise.sum(axis=2), unary[:-1], atol=1e-9)
            assert np.allclose(pairwise.sum(axis=1), unary[1:], atol=1e-9)

    def test_matches_brute_force(self):
        rng = random.Random(14)
        for _ in range(25):
            m = random_model(rng)
            attrs = random_attrs(rng, m)
            unary, pairwise = marginals(m, attrs)
            bu, bp = brute_marginals(m, attrs)
            assert np.allclose(unary, bu, atol=1e-9)
            if len(attrs) > 1:
                assert np.allclose(pairwise, bp, atol=1e-9)


class TestViterbi:
    # every row ties, so the label O must carry across blocks, alone and
    # batched with short sequences
    @pytest.mark.parametrize(
        "lengths",
        [[4], [3 * crf.SCAN_BLOCK + 1], [2, 3 * crf.SCAN_BLOCK + 1, 1, 5]],
        ids=["short", "past-three-blocks", "batched"],
    )
    def test_zero_weights_tie_breaks_to_o(self, lengths):
        m = make_model()
        if len(lengths) == 1:
            assert viterbi(m, [[]] * lengths[0]) == ([O] * lengths[0], 0.0)
        decoded = viterbi_emissions(m, np.zeros((sum(lengths), 2)), np.array(lengths))
        assert decoded == [([O] * n, 0.0) for n in lengths]

    def test_label_cycle_carries_across_blocks(self):
        # transitions reward only O -> M -> X -> O, so no two paths merge and
        # the blocks of the long sequence start on different labels
        trans = np.roll(np.eye(3), 1, axis=1)
        m = CrfModel(("O", "M", "X"), {}, np.zeros((0, 3)), trans, FeatureConfig())
        lengths = np.array([5, 3 * crf.SCAN_BLOCK + 1, 1])
        emis = np.zeros((int(lengths.sum()), 3))
        emis[np.cumsum(lengths) - lengths, 2] = 1.0
        decoded = viterbi_emissions(m, emis, lengths)
        assert decoded == [([("X", "O", "M")[t % 3] for t in range(n)], float(n)) for n in lengths]

    def test_single_spike(self):
        m = make_model(attrs=("a",), state=[[0.0, 5.0]])
        labels, _ = viterbi(m, [[], ["a"], []])
        assert labels == [O, M, O]

    def test_matches_brute_force(self):
        rng = random.Random(15)
        for _ in range(60):
            m = random_model(rng)
            attrs = random_attrs(rng, m)
            labels, score = viterbi(m, attrs)
            bids, bscore = brute_viterbi(m, attrs)
            assert labels == [m.labels[i] for i in bids]
            assert score == pytest.approx(bscore, abs=1e-9)

    def test_ties_match_brute_force(self):
        # integer weights force exact ties; the first maximizer in
        # left-to-right canonical order must be returned
        rng = random.Random(16)
        for _ in range(60):
            m = random_model(rng)
            m = make_model(
                tuple(m.attr_index),
                np.rint(m.state_weights),
                np.rint(m.trans_weights),
            )
            attrs = random_attrs(rng, m)
            labels, score = viterbi(m, attrs)
            bids, bscore = brute_viterbi(m, attrs)
            assert labels == [m.labels[i] for i in bids]
            assert score == pytest.approx(bscore, abs=1e-9)

    def test_score_agrees_with_score_sequence(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_model(rng)
            attrs = random_attrs(rng, m)
            labels, score = viterbi(m, attrs)
            assert score == pytest.approx(score_sequence(m, attrs, labels), abs=1e-9)

    def test_labels_come_from_model(self):
        rng = random.Random(18)
        for _ in range(20):
            m = random_model(rng)
            labels, _ = viterbi(m, random_attrs(rng, m))
            assert set(labels) <= set(m.labels)

    def test_shift_invariance(self):
        rng = random.Random(19)
        for _ in range(20):
            m = random_model(rng)
            attrs = random_attrs(rng, m)
            shifted = make_model(
                tuple(m.attr_index), m.state_weights + 3.7, m.trans_weights
            )
            assert viterbi(m, attrs)[0] == viterbi(shifted, attrs)[0]
            if any(attrs):
                assert log_partition(m, attrs) != pytest.approx(
                    log_partition(shifted, attrs)
                )


def decode_batch(model, batch):
    """viterbi_emissions over the batch's emissions laid end to end."""
    emis = np.concatenate([crf._state_scores(model, attrs) for attrs in batch])
    return viterbi_emissions(model, emis, np.array([len(attrs) for attrs in batch]))


class TestViterbiBatch:
    # integer weights force exact ties, which must break as in viterbi()

    @settings(max_examples=60, deadline=None)
    @given(
        model_seed=st.integers(0, 2**32 - 1),
        specs=st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 2**32 - 1)), min_size=1, max_size=8
        ),
        data=st.data(),
    )
    def test_matches_brute_force_and_lone_decode(self, model_seed, specs, data):
        m = random_model(random.Random(model_seed))
        m = make_model(tuple(m.attr_index), np.rint(m.state_weights), np.rint(m.trans_weights))
        batch = [
            random_attrs(random.Random(seed), m, tmin=length, tmax=length)
            for length, seed in specs
        ]
        decoded = decode_batch(m, batch)
        assert len(decoded) == len(batch)
        for attrs, (labels, score) in zip(batch, decoded):
            bids, bscore = brute_viterbi(m, attrs)
            assert labels == [m.labels[i] for i in bids]
            assert score == pytest.approx(bscore, abs=1e-9)
            assert all(type(label) is str for label in labels)
            assert viterbi(m, attrs) == (labels, score)
        perm = data.draw(st.permutations(range(len(batch))))
        assert decode_batch(m, [batch[i] for i in perm]) == [decoded[i] for i in perm]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        texts=st.lists(st.text(alphabet="天地玄黃", min_size=1, max_size=8), min_size=1, max_size=6),
    )
    def test_predict_labels_matches_brute_force(self, seed, texts):
        rng = random.Random(seed)
        attr_seqs = [featurize_chars(t, FeatureConfig()) for t in texts]
        universe = sorted({a for attrs in attr_seqs for row in attrs for a in row})
        known = [a for a in universe if rng.random() < 0.7]
        m = make_model(
            known,
            np.reshape([rng.randint(-2, 2) for _ in LABELS for _ in known], (len(known), 2)),
            [[rng.randint(-2, 2) for _ in LABELS] for _ in LABELS],
        )
        preds = predict_labels(m, texts)
        assert preds == [[m.labels[i] for i in brute_viterbi(m, a)[0]] for a in attr_seqs]
        assert all(type(label) is str for labels in preds for label in labels)

    def test_empty_batch(self):
        assert viterbi_emissions(make_model(), np.zeros((0, 2)), np.zeros(0, dtype=np.int64)) == []

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            decode_batch(make_model(), [[["a"]], []])
        with pytest.raises(ValueError, match="empty sequence"):
            viterbi(make_model(), [])

    def test_misshaped_emissions_rejected(self):
        # too many rows for the lengths, and too few labels
        for shape in ((5, 2), (3, 1)):
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}, expected (3, 2)")):
                viterbi_emissions(make_model(), np.zeros(shape), np.array([2, 1]))


RICH_LEX = LexiconSet(
    rhyme_dicts={
        GUANGYUN: RhymeDictionary(
            GUANGYUN,
            {"天": ("先", "霰"), "黃": ("唐", "宕", "蕩"), "C1": ("東",), "<BOS>": ("虛",)},
        ),
        PINGSHUIYUN: RhymeDictionary(PINGSHUIYUN, {"天": ("先",), "宙": ("宥", "尤")}),
    },
    entities=EntityLexicon(
        {"天地": "PLACE", "玄黃宇": "OFFICE", "洪": "REIGN", "C1C2": "OFFICE", "<BOS>天": "PLACE"}
    ),
    # values on and around the bin edges 0, 2, 4, 6
    pmi=PmiTable(
        100,
        {
            ("天", "地"): -0.5, ("地", "玄"): 0.0, ("玄", "黃"): 2.0, ("黃", "宇"): 3.99,
            ("宇", "宙"): 4.0, ("宙", "洪"): 6.0, ("C1", "C2"): 5.0, ("<BOS>", "天"): 1.0,
        },
    ),
)
# "C1" + "C2" and "C" + "1C2" render the same bigram; "<BOS>" is also the padding
TOKENS = list("天地玄黃宇宙洪") + ["C1", "C2", "C", "1C2", "<BOS>", "<EOS>"]


class TestColumnScores:
    @settings(max_examples=150, deadline=None)
    @given(
        seqs=st.lists(
            st.one_of(
                st.text(alphabet="天地玄黃宇宙洪", min_size=1, max_size=10),
                st.lists(st.sampled_from(TOKENS), min_size=1, max_size=10),
            ),
            min_size=1,
            max_size=5,
        ),
        k=st.integers(0, 3),
        use_bigrams=st.booleans(),
        pronunciation=st.sampled_from([None, GUANGYUN, PINGSHUIYUN]),
        use_words=st.booleans(),
        use_pmi=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        seqs=[["C1", "C2"], ["C", "1C2"], ["<BOS>", "天", "地"], "天"],
        k=1, use_bigrams=True, pronunciation=GUANGYUN, use_words=True, use_pmi=True, seed=0,
    )
    def test_equal_to_attribute_lists(
        self, seqs, k, use_bigrams, pronunciation, use_words, use_pmi, seed
    ):
        cfg = FeatureConfig(k, use_bigrams, pronunciation, use_words, use_pmi)
        attr_seqs = [featurize_chars(s, cfg, RICH_LEX) for s in seqs]
        rng = random.Random(seed)
        universe = sorted({a for attrs in attr_seqs for row in attrs for a in row})
        known = [a for a in universe if rng.random() < 0.7]
        m = CrfModel(
            LABELS,
            {a: i for i, a in enumerate(known)},
            np.array([[rng.uniform(-2, 2) for _ in LABELS] for _ in known]).reshape(-1, 2),
            np.array([[rng.uniform(-2, 2) for _ in LABELS] for _ in LABELS]),
            cfg,
        )
        total = sum(map(len, seqs))
        emis = crf.column_scores(m, feature_columns(seqs, cfg, RICH_LEX), total)
        assert np.array_equal(
            emis, np.concatenate([crf._state_scores(m, attrs) for attrs in attr_seqs])
        )
        assert predict_labels(m, seqs, RICH_LEX) == [viterbi(m, attrs)[0] for attrs in attr_seqs]

    def test_decode_memory_scales_with_total_positions(self):
        # 86 template columns at k=10: the attribute strings of every
        # position would take over 100 MB, and a [positions, columns] int64
        # code matrix about 15 MB
        rng = random.Random(35)
        alphabet = [chr(0x4E00 + i) for i in range(300)]
        rhymes = RhymeDictionary(
            GUANGYUN, {c: (f"r{rng.randrange(60)}", f"q{rng.randrange(60)}") for c in alphabet}
        )
        words = {"".join(rng.sample(alphabet, 2)): "PLACE" for _ in range(200)}
        pairs = {(a, b): rng.uniform(-2, 8) for a, b in zip(alphabet, alphabet[1:])}
        lex = LexiconSet({GUANGYUN: rhymes}, EntityLexicon(words), PmiTable(100, pairs))
        cfg = FeatureConfig(10, True, GUANGYUN, True, True)
        lines = ["".join(rng.choices(alphabet, k=20000))]
        lines += ["".join(rng.choices(alphabet, k=5)) for _ in range(500)]
        known = sorted({a for row in featurize_chars(lines[0][:2000], cfg, lex) for a in row})
        m = CrfModel(
            LABELS,
            {a: i for i, a in enumerate(known)},
            np.array([[rng.uniform(-1, 1) for _ in LABELS] for _ in known]),
            np.zeros((2, 2)),
            cfg,
        )
        tracemalloc.start()
        try:
            preds = predict_labels(m, lines, lex)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(p) for p in preds] == [len(line) for line in lines]
        assert peak < 12 * 2**20


class TestFiring:
    # rows fire 0-5 attributes, repeats allowed; an empty row is what a
    # position whose attributes are all unknown becomes at decode
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n_attrs: st.tuples(
                st.just(n_attrs),
                st.lists(st.lists(st.integers(0, n_attrs), max_size=5), min_size=1, max_size=12),
                st.randoms(use_true_random=False),
            )
        )
    )
    def test_products_match_dense(self, case):
        n_attrs, rows, rng = case
        order = np.array(rng.sample(range(len(rows)), len(rows)))
        dense = np.zeros((len(rows), n_attrs))
        for i, row in enumerate(rows):
            for a in row:
                if a < n_attrs:
                    dense[i, a] += 1.0
        dense = dense[order]
        # integer-valued weights make every summation order exact
        w = np.array([[rng.randint(-9, 9) for _ in range(2)] for _ in range(n_attrs)], float)
        m = np.array([[rng.randint(-9, 9) for _ in range(2)] for _ in rows], float)
        # attribute n_attrs is not in the index and fires nothing
        columns = crf._slot_columns([[[str(a) for a in row] for row in rows]])
        attr_index = {str(a): a for a in range(n_attrs)}
        firing = crf._Firing(columns, attr_index, order)
        assert firing.nnz == dense.sum()
        assert np.array_equal(firing.scores(w), dense @ w)
        assert np.array_equal(firing.counts(m), dense.T @ m)

    def test_runtime_needs_no_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import gujiseg.cli, sys; assert 'scipy' not in sys.modules"
        subprocess.run(
            [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)}
        )


def assert_close(got, expected):
    """Equal to 1e-12 of the largest score's magnitude: the scan sums in
    another order than the step-by-step oracles, and scores near zero come
    out of sums of much larger terms."""
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def recursion_case(n_labels, lengths, tied, seed):
    """(emissions of the sequences laid end to end, transitions): integer
    scores tie everywhere and sum exactly in any order."""
    rng = np.random.default_rng(seed)
    shape = (int(np.sum(lengths)), n_labels)
    if tied:
        return (
            rng.integers(-1, 2, shape).astype(float),
            rng.integers(-1, 2, (n_labels, n_labels)).astype(float),
        )
    return rng.normal(0.0, 3.0, shape), rng.normal(0.0, 1.0, (n_labels, n_labels))


def scans(emis, trans, lengths):
    """Forward scores, suffix scores in both semirings and Viterbi paths of
    a batch, each row in the batch's own order."""
    (_, _, order, _), forward, backward = crf._Blocks.of(lengths)
    packed = emis[order]
    unpacked = []
    for scores in (
        crf._scan(packed, trans, forward),
        crf._scan(packed, trans.T, backward),
        crf._scan(packed, trans.T, backward, np.maximum),
    ):
        unpacked.append(np.empty_like(scores))
        unpacked[-1][order] = scores
    m = CrfModel(tuple("OMXY"[: len(trans)]), {}, np.zeros((0, len(trans))), trans, FeatureConfig())
    return unpacked, [path for path, _ in crf.viterbi_emissions(m, emis, lengths)]


# lengths past three blocks, with pieces of every size at the sequence ends
SCAN_LENGTHS = st.lists(st.integers(1, 3 * crf.SCAN_BLOCK + 9), min_size=1, max_size=8)


class TestRecursions:
    # ragged batches of several blocks and of single positions; integer
    # scores tie everywhere
    @settings(max_examples=150, deadline=None)
    @given(
        n_labels=st.integers(1, 4),
        lengths=st.one_of(st.lists(st.integers(1, 9), min_size=1, max_size=8), SCAN_LENGTHS),
        tied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_labels=2, lengths=[1], tied=True, seed=0)
    @example(n_labels=1, lengths=[3, 1, 2], tied=False, seed=2)
    @example(n_labels=3, lengths=[1, 4, 1, 1, 2], tied=True, seed=1)
    @example(
        n_labels=2,
        lengths=[3 * crf.SCAN_BLOCK + 1, crf.SCAN_BLOCK, crf.SCAN_BLOCK + 1, 1, 2 * crf.SCAN_BLOCK + 7],
        tied=False,
        seed=3,
    )
    @example(n_labels=4, lengths=[3 * crf.SCAN_BLOCK + 2, 2 * crf.SCAN_BLOCK], tied=True, seed=4)
    def test_equal_to_one_reduction_per_step(self, n_labels, lengths, tied, seed):
        lengths = np.array(lengths)
        emis, trans = recursion_case(n_labels, lengths, tied, seed)
        (k, off, order, _), forward, backward = crf._Blocks.of(lengths)
        packed = emis[order]
        assert_close(crf._scan(packed, trans, forward), reference_forward(packed, trans, k, off))
        assert_close(
            crf._scan(packed, trans.T, backward),
            packed + reference_backward(packed, trans, k, off, np.logaddexp),
        )
        suffix = crf._scan(packed, trans.T, backward, np.maximum)
        expected = packed + reference_backward(packed, trans, k, off, np.maximum)
        if tied:
            assert np.array_equal(suffix, expected)
        else:
            assert_close(suffix, expected)
        labels = tuple("OMXY"[:n_labels])
        m = CrfModel(labels, {}, np.zeros((0, n_labels)), trans, FeatureConfig())
        path = np.empty(len(order), dtype=np.int64)
        path[order] = reference_viterbi_path(packed, trans, k, off)
        ends = np.cumsum(lengths)
        expected = [[labels[y] for y in path[e - n : e]] for e, n in zip(ends, lengths)]
        assert [p for p, _ in crf.viterbi_emissions(m, emis, lengths)] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        n_labels=st.integers(1, 4),
        lengths=SCAN_LENGTHS,
        tied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sequence_scores_do_not_depend_on_batch(self, n_labels, lengths, tied, seed):
        lengths = np.array(lengths)
        emis, trans = recursion_case(n_labels, lengths, tied, seed)
        batch, paths = scans(emis, trans, lengths)
        ends = np.cumsum(lengths)
        for i, (end, n) in enumerate(zip(ends.tolist(), lengths.tolist())):
            alone, alone_paths = scans(emis[end - n : end], trans, lengths[i : i + 1])
            for got, own in zip(batch, alone):
                assert np.array_equal(got[end - n : end], own)
            assert paths[i] == alone_paths[0]

    def test_one_label_model(self):
        # training on one label runs; a one-label model file loads and
        # decodes, and its one labeling scores the whole partition
        dataset = [([["a"], ["b", "a"]], ["O", "O"]), ([["b"]], ["O"])]
        assert train(dataset, labels=("O",)).labels == ("O",)
        state, trans = np.array([[0.5], [-1.25]]), np.array([[0.75]])
        buf = io.StringIO()
        save_model(CrfModel(("O",), {"a": 0, "b": 1}, state, trans, FeatureConfig()), buf)
        model = load_model(buf.getvalue())
        assert score_sequence(model, *dataset[0]) == 0.5
        for attrs, labels in dataset:
            path, score = viterbi(model, attrs)
            assert path == labels
            assert score == pytest.approx(score_sequence(model, attrs, labels))
            assert log_partition(model, attrs) == pytest.approx(score)


# "天" and "地" list the same classes in either order, "玄" one class twice
ENCODER_LEX = LexiconSet(
    rhyme_dicts={
        GUANGYUN: RhymeDictionary(
            GUANGYUN, {"天": ("先", "霰"), "地": ("霰", "先"), "玄": ("東", "東"), "C1": ("東",)}
        )
    },
    entities=RICH_LEX.entities,
    pmi=RICH_LEX.pmi,
)


class TestEncoder:
    @settings(max_examples=150, deadline=None)
    @given(
        seqs=st.lists(
            st.one_of(
                st.text(alphabet="天地玄黃宇宙洪", min_size=1, max_size=10),
                st.lists(st.sampled_from(TOKENS), min_size=1, max_size=10),
            ),
            min_size=1,
            max_size=5,
        ),
        k=st.integers(0, 3),
        use_bigrams=st.booleans(),
        pronunciation=st.sampled_from([None, GUANGYUN]),
        use_words=st.booleans(),
        use_pmi=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        seqs=[["C1", "C2"], ["C", "1C2"], "天地玄", "玄地天"],
        k=1, use_bigrams=True, pronunciation=GUANGYUN, use_words=True, use_pmi=True, seed=0,
    )
    def test_equal_to_first_seen_strings(
        self, seqs, k, use_bigrams, pronunciation, use_words, use_pmi, seed
    ):
        cfg = FeatureConfig(k, use_bigrams, pronunciation, use_words, use_pmi)
        rng = random.Random(seed)
        docs = [SimpleNamespace(chars=s, labels=[rng.choice(LABELS) for _ in s]) for s in seqs]
        attr_seqs = [featurize_chars(s, cfg, ENCODER_LEX) for s in seqs]
        index, cols, indptr = first_seen_encoding(attr_seqs)
        observed = np.zeros((len(index), len(LABELS)))
        for attrs, doc in zip(attr_seqs, docs):
            for row, label in zip(attrs, doc.labels):
                for a in row:
                    observed[index[a], LABELS.index(label)] += 1
        pairs = [(attrs, doc.labels) for attrs, doc in zip(attr_seqs, docs)]
        batch = training_set(docs, cfg, ENCODER_LEX)
        for columns in (batch.columns, crf._slot_columns(attr_seqs)):
            got = crf._build_attr_index(columns)
            assert list(got.items()) == list(index.items())
            firing = crf._Firing(columns, got, np.arange(len(indptr) - 1))
            got_indptr = [0, *np.cumsum(firing.fired).tolist()]
            assert (firing.cols.tolist(), got_indptr) == (cols, indptr)
        for dataset in (batch, pairs):
            assert np.array_equal(crf._Encoded(dataset, index, LABELS).observed_state, observed)
        # training and decoding score a row alike, names the model lacks included
        known = {name: i for i, name in enumerate(n for n in index if rng.random() < 0.7)}
        w = np.array([[rng.uniform(-3, 3) for _ in LABELS] for _ in known]).reshape(-1, len(LABELS))
        model = CrfModel(LABELS, known, w, np.zeros((len(LABELS),) * 2), cfg)
        total = int(batch.lengths.sum())
        decoded = crf.column_scores(model, batch.columns, total)
        packed = crf._Encoded(batch, known, LABELS).X.scores(w)
        unpacked = np.empty_like(decoded)
        unpacked[crf._packed_order(batch.lengths)[2]] = packed
        assert np.array_equal(unpacked, decoded)
        config = TrainConfig(max_iterations=2)
        a, b = train(batch, config, cfg), train(pairs, config, cfg)
        assert list(a.attr_index.items()) == list(b.attr_index.items())
        assert np.array_equal(a.state_weights, b.state_weights)
        assert np.array_equal(a.trans_weights, b.trans_weights)

    def test_train_memory_scales_with_total_positions(self):
        # the decode memory test's corpus and 86 template columns at k=10,
        # with 377,768 distinct attributes: their strings, the index, the
        # firing operator and the weight arrays take most of the peak.
        # Training on the attribute lists of every position, as
        # featurize_chars renders them, peaks at 148.5 MB; on the batch's
        # columns at 138.0 MB, the same in every run (numpy 2.4, Python 3.11).
        rng = random.Random(36)
        alphabet = [chr(0x4E00 + i) for i in range(300)]
        rhymes = RhymeDictionary(
            GUANGYUN, {c: (f"r{rng.randrange(60)}", f"q{rng.randrange(60)}") for c in alphabet}
        )
        words = {"".join(rng.sample(alphabet, 2)): "PLACE" for _ in range(200)}
        pairs = {(a, b): rng.uniform(-2, 8) for a, b in zip(alphabet, alphabet[1:])}
        lex = LexiconSet({GUANGYUN: rhymes}, EntityLexicon(words), PmiTable(100, pairs))
        cfg = FeatureConfig(10, True, GUANGYUN, True, True)
        lines = ["".join(rng.choices(alphabet, k=20000))]
        lines += ["".join(rng.choices(alphabet, k=5)) for _ in range(500)]
        docs = [
            LabeledSequence(str(i), line, "".join(rng.choice(LABELS) for _ in line))
            for i, line in enumerate(lines)
        ]
        tracemalloc.start()
        try:
            model = train(training_set(docs, cfg, lex), TrainConfig(max_iterations=1), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.meta.iterations == 1
        assert peak < 142 * 2**20


class TestObjectiveAndGradient:
    def test_gradient_at_zero_single_position(self):
        m = make_model(attrs=("a",))
        dataset = [([["a"]], [M])]
        obj, grad = objective_and_gradient(m, dataset, l2_sigma=1.0)
        a = m.attr_index["a"]
        assert grad.state[a, m.label_id(M)] == pytest.approx(0.5)
        assert grad.state[a, m.label_id(O)] == pytest.approx(-0.5)
        assert obj == pytest.approx(-math.log(2))

    def test_objective_at_zero_is_uniform_loglik(self):
        m = make_model()
        dataset = [
            ([["a"], ["b"], []], [O, M, O]),
            ([["c"], ["a"]], [M, M]),
        ]
        obj, _ = objective_and_gradient(m, dataset, l2_sigma=1.0)
        assert obj == pytest.approx(-(3 + 2) * math.log(2))

    def test_l2_term(self):
        state = np.array([[1.0, -2.0], [0.5, 0.0], [0.0, 0.0]])
        trans = np.array([[0.3, 0.0], [0.0, -0.4]])
        m = make_model(state=state, trans=trans)
        dataset = [([["a"]], [O])]
        sigma = 2.0
        obj, _ = objective_and_gradient(m, dataset, sigma)
        expected_penalty = (np.sum(state**2) + np.sum(trans**2)) / (2 * sigma**2)
        bare = score_sequence(m, [["a"]], [O]) - log_partition(m, [["a"]])
        assert obj == pytest.approx(bare - expected_penalty)

    def test_matches_brute_objective(self):
        rng = random.Random(20)
        for _ in range(10):
            m = random_model(rng)
            dataset = []
            for _ in range(3):
                attrs = random_attrs(rng, m, tmax=5)
                labels = [rng.choice(LABELS) for _ in attrs]
                dataset.append((attrs, labels))
            obj, _ = objective_and_gradient(m, dataset, 1.5)
            assert obj == pytest.approx(brute_objective(m, dataset, 1.5), abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(21)
        for trial in range(8):
            m = random_model(rng, n_attrs=4, scale=1.0)
            dataset = []
            for _ in range(3):
                attrs = random_attrs(rng, m, tmax=4)
                labels = [rng.choice(LABELS) for _ in attrs]
                dataset.append((attrs, labels))
            sigma = 1.0 + trial * 0.25

            _, grad = objective_and_gradient(m, dataset, sigma)

            def objective():
                return objective_and_gradient(m, dataset, sigma)[0]

            for arr, got in ((m.state_weights, grad.state), (m.trans_weights, grad.trans)):
                for i in range(arr.shape[0]):
                    for j in range(arr.shape[1]):
                        def perturb(h, arr=arr, i=i, j=j):
                            arr[i, j] += h

                        fd = fd_gradient(objective, perturb)
                        rel = abs(got[i, j] - fd) / max(abs(fd), 1e-6)
                        assert rel < 1e-4

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            objective_and_gradient(make_model(), [], 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        model_seed=st.integers(0, 2**32 - 1),
        specs=st.lists(
            st.tuples(st.integers(1, 40), st.integers(0, 2**32 - 1)), min_size=1, max_size=8
        ),
        data=st.data(),
    )
    def test_dataset_is_sum_of_its_sequences(self, model_seed, specs, data):
        # each single-sequence dataset pays the L2 penalty once; the whole
        # dataset pays it once in total
        m = random_model(random.Random(model_seed))
        dataset = []
        for length, seed in specs:
            rng = random.Random(seed)
            attrs = random_attrs(rng, m, tmin=length, tmax=length)
            dataset.append((attrs, [rng.choice(LABELS) for _ in attrs]))
        sigma = 1.5
        extra = len(dataset) - 1
        penalty = (np.sum(m.state_weights**2) + np.sum(m.trans_weights**2)) / (2 * sigma**2)
        obj, grad = objective_and_gradient(m, dataset, sigma)
        singles = [objective_and_gradient(m, [seq], sigma) for seq in dataset]
        assert obj == pytest.approx(sum(o for o, _ in singles) + extra * penalty, abs=1e-9)
        pull_state = extra * m.state_weights / sigma**2
        pull_trans = extra * m.trans_weights / sigma**2
        assert np.allclose(grad.state, sum(g.state for _, g in singles) + pull_state, rtol=0, atol=1e-9)
        assert np.allclose(grad.trans, sum(g.trans for _, g in singles) + pull_trans, rtol=0, atol=1e-9)

        shuffled = data.draw(st.permutations(dataset))
        obj_p, grad_p = objective_and_gradient(m, shuffled, sigma)
        assert obj_p == pytest.approx(obj, abs=1e-9)
        assert np.allclose(grad_p.state, grad.state, rtol=0, atol=1e-9)
        assert np.allclose(grad_p.trans, grad.trans, rtol=0, atol=1e-9)

    def test_accepted_probe_reused_exactly(self):
        rng = random.Random(34)
        m = random_model(rng)
        dataset = []
        for _ in range(6):
            attrs = random_attrs(rng, m)
            dataset.append((attrs, [rng.choice(LABELS) for _ in attrs]))
        enc = crf._Encoded(dataset, m.attr_index, m.labels)
        point = (m.state_weights, m.trans_weights, 2.0)
        value, forward = enc.objective(*point)
        obj, grad = enc.objective_and_gradient(*point)
        obj_r, grad_r = enc.objective_and_gradient(*point, forward)
        assert value == obj == obj_r
        assert np.array_equal(grad_r.state, grad.state)
        assert np.array_equal(grad_r.trans, grad.trans)

    def test_memory_scales_with_total_positions(self):
        # a padded [n, t_max, 2] float batch of this dataset alone would
        # take 501 * 20000 * 2 * 8 bytes, about 160 MB
        rng = random.Random(33)
        m = random_model(rng)
        dataset = [
            (attrs, [rng.choice(LABELS) for _ in attrs])
            for attrs in [random_attrs(rng, m, tmin=20000, tmax=20000)]
            + [random_attrs(rng, m, tmin=5, tmax=5) for _ in range(500)]
        ]
        tracemalloc.start()
        try:
            obj, _ = objective_and_gradient(m, dataset, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(obj)
        assert peak < 40 * 2**20


def rule_dataset(rng, n_seqs, trigger="a5"):
    """M exactly where the previous position carried the trigger attribute."""
    dataset = []
    for _ in range(n_seqs):
        T = rng.randint(3, 12)
        attrs = [[rng.choice(POOL)] for _ in range(T)]
        labels = []
        for t in range(T):
            prev = attrs[t - 1][0] if t else None
            labels.append(M if prev == POOL[0] else O)
        for t in range(T):
            attrs[t].append(f"prev={attrs[t - 1][0] if t else '<BOS>'}")
        dataset.append((attrs, labels))
    return dataset


class TestTrain:
    def test_learns_simple_rule(self):
        rng = random.Random(22)
        data = rule_dataset(rng, 120)
        model = train(data[:100], TrainConfig(max_iterations=80))
        tp = fp = fn = 0
        for attrs, gold in data[100:]:
            pred, _ = viterbi(model, attrs)
            for g, p in zip(gold, pred):
                tp += g == M and p == M
                fp += g == O and p == M
                fn += g == M and p == O
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.99

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(max_iterations=0)

    def test_single_iteration_contract(self):
        rng = random.Random(23)
        data = rule_dataset(rng, 10)
        model = train(data, TrainConfig(max_iterations=1))
        meta = model.meta
        assert meta.iterations == 1
        assert len(meta.objective_history) == 2
        assert meta.objective_history[1] > meta.objective_history[0]
        assert meta.stopped_by == "max_iterations"

    def test_deterministic(self):
        rng = random.Random(24)
        data = rule_dataset(rng, 30)
        cfg = TrainConfig(max_iterations=25)
        a = train(data, cfg)
        b = train(data, cfg)
        assert a.attr_index == b.attr_index
        assert np.array_equal(a.state_weights, b.state_weights)
        assert np.array_equal(a.trans_weights, b.trans_weights)

    def test_objective_history_monotone(self):
        rng = random.Random(25)
        data = rule_dataset(rng, 30)
        model = train(data, TrainConfig(max_iterations=40))
        hist = model.meta.objective_history
        assert len(hist) >= 2
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_convergence_reported(self):
        rng = random.Random(26)
        data = rule_dataset(rng, 20)
        model = train(data, TrainConfig(max_iterations=5000, tolerance=1e-4))
        assert model.meta.stopped_by == "converged"
        assert model.meta.iterations < 5000

    def test_line_search_failure_reported(self, monkeypatch):
        monkeypatch.setattr(crf, "MAX_BACKTRACKS", 0)
        rng = random.Random(34)
        model = train(rule_dataset(rng, 10), TrainConfig(max_iterations=5))
        assert model.meta.stopped_by == "line_search_failed"
        assert model.meta.iterations == 0

    def test_regularization_shrinks_weights(self):
        rng = random.Random(27)
        data = rule_dataset(rng, 30)
        loose = train(data, TrainConfig(l2_sigma=10.0, max_iterations=60))
        tight = train(data, TrainConfig(l2_sigma=0.1, max_iterations=60))
        assert np.abs(tight.state_weights).max() < np.abs(loose.state_weights).max()

    def test_prediction_labels_closed(self):
        rng = random.Random(28)
        data = rule_dataset(rng, 20)
        model = train(data, TrainConfig(max_iterations=10))
        for attrs, _ in data:
            pred, _ = viterbi(model, attrs)
            assert set(pred) <= {O, M}

    def test_records_feature_config(self):
        rng = random.Random(29)
        data = rule_dataset(rng, 5)
        cfg = FeatureConfig(k=2, use_bigrams=True)
        model = train(data, TrainConfig(max_iterations=1), feature_config=cfg)
        assert model.config == cfg


class TestModelIO:
    def test_round_trip_predictions(self):
        rng = random.Random(30)
        m = random_model(rng, n_attrs=10)
        sink = io.StringIO()
        save_model(m, sink)
        back = load_model(sink.getvalue())
        assert back.labels == m.labels
        assert back.attr_index == m.attr_index
        for _ in range(100):
            attrs = random_attrs(rng, m)
            assert viterbi(back, attrs) == viterbi(m, attrs)

    def test_round_trip_trained_model_meta(self):
        rng = random.Random(31)
        model = train(rule_dataset(rng, 10), TrainConfig(max_iterations=3))
        sink = io.StringIO()
        save_model(model, sink)
        back = load_model(sink.getvalue())
        assert back.meta is not None
        assert back.meta.iterations == model.meta.iterations
        assert back.meta.final_objective == pytest.approx(model.meta.final_objective)
        assert back.config == model.config
        assert "seed=" not in sink.getvalue()

    def test_meta_line_with_seed_loads(self):
        # files written while the trainer recorded a seed carry it in the meta line
        rng = random.Random(33)
        data = rule_dataset(rng, 10)
        model = train(data, TrainConfig(max_iterations=3))
        sink = io.StringIO()
        save_model(model, sink)
        m = model.meta
        current = (f"meta\titerations={m.iterations}"
                   f"\tfinal_objective={m.final_objective:.17g}\tstopped_by={m.stopped_by}\n")
        older = current.replace("\tstopped_by=", "\tseed=42\tstopped_by=")
        assert current in sink.getvalue()
        back = load_model(sink.getvalue().replace(current, older))
        assert back.meta == load_model(sink.getvalue()).meta
        assert back.meta.final_objective == m.final_objective
        for attrs, _ in data:
            assert viterbi(back, attrs) == viterbi(model, attrs)

    def test_empty_model_is_valid(self):
        m = make_model(attrs=())
        sink = io.StringIO()
        save_model(m, sink)
        back = load_model(sink.getvalue())
        assert back.attr_index == {}
        assert viterbi(back, [["x"], ["y"]])[0] == [O, O]

    def test_version_mismatch(self):
        with pytest.raises(ModelFormatError, match="crfmodel-v0"):
            load_model("crfmodel-v0\nlabels\tO\tM\n")

    def test_truncated_file(self):
        sink = io.StringIO()
        save_model(make_model(), sink)
        text = sink.getvalue()
        lines = text.splitlines()
        with pytest.raises(ModelFormatError):
            load_model("\n".join(lines[:-2]) + "\n")

    def test_corrupted_weight_line_reports_line_number(self):
        sink = io.StringIO()
        save_model(make_model(attrs=("a",), state=[[0.5, -0.5]]), sink)
        lines = sink.getvalue().splitlines()
        target = next(i for i, l in enumerate(lines) if l.startswith("0\t"))
        lines[target] = "0\tO\tnot-a-number"
        with pytest.raises(ModelFormatError, match=str(target + 1)):
            load_model("\n".join(lines) + "\n")

    # tab and newline are the format's separators, which save_model rejects
    @settings(max_examples=40, deadline=None)
    @given(st.text(st.characters(exclude_characters="\t\n"), min_size=1, max_size=12))
    @example("天\u2028地玄黃")
    def test_round_trip_any_text(self, text):
        cfg = FeatureConfig(k=1, use_bigrams=True)
        attrs = featurize_chars(text, cfg)
        labels = [O] * (len(attrs) - 1) + [M]
        model = train([(attrs, labels)], TrainConfig(max_iterations=2), feature_config=cfg)
        sink = io.StringIO()
        save_model(model, sink)
        back = load_model(sink.getvalue())
        assert back.attr_index == model.attr_index
        assert np.array_equal(back.state_weights, model.state_weights)
        assert np.array_equal(back.trans_weights, model.trans_weights)

    def test_weights_survive_exactly(self):
        rng = random.Random(32)
        m = random_model(rng)
        sink = io.StringIO()
        save_model(m, sink)
        back = load_model(sink.getvalue())
        assert np.array_equal(back.state_weights, m.state_weights)
        assert np.array_equal(back.trans_weights, m.trans_weights)

    # each edit breaks a saved two-attribute model at the line `bad`, which
    # the error must name
    @pytest.mark.parametrize(
        "old, new, bad",
        [
            ("attrs\t2\n0\ta\n1\tb\n", "attrs\t3\n0\ta\n1\tb\n2\ta\n", "2\ta"),
            ("\n0\ta\n1\tb\n", "\n0\n1\t1\tb\n", "0"),
            ("\n1\tb\n", "\n1\t\n", "1\t"),
            ("\n1\tO\t0.25\n", "\n-1\tO\t0.25\n", "-1\tO\t0.25"),
            ("\n1\tO\t0.25\n", "\n1\tO\t0.25\t7\n", "1\tO\t0.25\t7"),
            ("state\t3\n0\tO\t0.5\n", "state\t4\n0\tO\t0.5\n0\tO\t0.125\n", "0\tO\t0.125"),
            ("trans\t4\nO\tO\t0\nO\tM\t0\nM\tO\t0\nM\tM\t0\n", "trans\t1\nO\tO\t0\n", "trans\t1"),
            ("\nM\tO\t0\n", "\nO\tO\t0.5\n", "O\tO\t0.5"),
            ("\n1\tO\t0.25\n", "\n1\tO\tnan\n", "1\tO\tnan"),
            ("\n1\tO\t0.25\n", "\n1\tO\t-inf\n", "1\tO\t-inf"),
            ("\nend\n", "\nend\nattrs\t1\n0\tb\n", "attrs\t1"),
            ("\n0\tO\t0.5\n", "\n0\tO\t0_5\n", "0\tO\t0_5"),
            ("\n0\tO\t0.5\n", "\n0\tO\t\uff10.\uff15\n", "0\tO\t\uff10.\uff15"),
            ("\n0\tO\t0.5\n", "\n0\tO\t 0.5 \n", "0\tO\t 0.5 "),
            ("\n0\tO\t0.5\n", "\n0\tO\t+0.5\n", "0\tO\t+0.5"),
            ("\n0\ta\n", "\n0_0\ta\n", "0_0\ta"),
            ("\n0\tO\t0.5\n", "\n0_0\tO\t0.5\n", "0_0\tO\t0.5"),
            ("\n1\tO\t0.25\n", "\n01\tO\t0.25\n", "01\tO\t0.25"),
            ("attrs\t2\n", "attrs\t0_2\n", "attrs\t0_2"),
        ],
        ids=["repeated-name", "fields-across-lines", "empty-name",
             "negative-id", "fourth-field", "repeated-entry", "one-trans-pair",
             "repeated-trans-pair", "nan-weight", "inf-weight", "text-after-end",
             "underscore-weight", "full-width-weight", "spaced-weight", "plus-weight",
             "underscore-attr-id", "underscore-state-id", "leading-zero-state-id",
             "underscore-count"],
    )
    def test_malformed_section_reports_line(self, old, new, bad):
        sink = io.StringIO()
        save_model(make_model(attrs=("a", "b"), state=[[0.5, -0.5], [0.25, 0.0]]), sink)
        assert old in sink.getvalue()
        text = sink.getvalue().replace(old, new, 1)
        lineno = text.split("\n").index(bad) + 1
        with pytest.raises(ModelFormatError, match=f"^line {lineno}:"):
            load_model(text)

    # pieces of a few characters split every section several times; the
    # names mix in line breaks other than \n, which the reader must not split
    @settings(max_examples=60, deadline=None)
    @given(
        chunk=st.integers(0, 48),
        labels=st.lists(st.text(st.characters(exclude_characters="\t\n"), min_size=1, max_size=3),
                        min_size=1, max_size=3, unique=True),
        names=st.lists(
            st.text(st.one_of(st.sampled_from("\u2028\r\x85\U00020000"),
                              st.characters(exclude_characters="\t\n")),
                     min_size=1, max_size=6),
            max_size=12, unique=True),
        data=st.data(),
    )
    def test_round_trip_across_pieces(self, chunk, labels, names, data):
        weight = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -1e-310, 1e308, -1e308]),
                           st.floats(allow_nan=False, allow_infinity=False))
        L = len(labels)
        state = np.array(data.draw(st.lists(weight, min_size=len(names) * L,
                                            max_size=len(names) * L))).reshape(len(names), L)
        trans = np.array(data.draw(st.lists(weight, min_size=L * L, max_size=L * L))).reshape(L, L)
        model = CrfModel(tuple(labels), {n: i for i, n in enumerate(names)}, state, trans,
                         FeatureConfig())
        sink = io.StringIO()
        save_model(model, sink)
        text = sink.getvalue()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crf, "LOAD_CHUNK_CHARS", chunk)
            back = load_model(text)
            assert list(back.attr_index.items()) == list(model.attr_index.items())
            # the file keeps the nonzero state weights only, so -0.0 reads back as 0.0
            assert np.array_equal(back.state_weights.view(np.int64), (state + 0.0).view(np.int64))
            assert np.array_equal(back.trans_weights.view(np.int64), trans.view(np.int64))

            lines = text.split("\n")
            header = next(i for i, line in enumerate(lines) if line.startswith("state\t"))
            count = int(lines[header].split("\t")[1])
            if count:
                j = data.draw(st.integers(0, count - 1))
                attr_id, label, value = lines[header + 1 + j].split("\t")
                edits = [f"{attr_id}\t{label}\tnan", f"{len(names)}\t{label}\t{value}",
                         f"{attr_id}\t{label}\t{value}\t0", f"{attr_id}\t{label}"]
                if j:
                    first_id, first_label, _ = lines[header + 1].split("\t")
                    edits.append(f"{first_id}\t{first_label}\t{value}")
                lines[header + 1 + j] = data.draw(st.sampled_from(edits))
                with pytest.raises(ModelFormatError, match=f"^line {header + 2 + j}:"):
                    load_model("\n".join(lines))

    # the whole-column check accepts exactly the fields the forms match
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.text("0123456789-+.e_ E\uff10", max_size=8),
                              st.floats(allow_nan=False).map(lambda x: f"{x:.17g}")),
                    min_size=1, max_size=4))
    @example(["0", "-0.5", "1e+308", "5e-324", "120"])
    @example(["1.5", "00"])
    def test_plain_column_matches_forms(self, fields):
        def accepts(pairs, parse):
            try:
                list(map(parse, crf._plain_column(fields, pairs)))
            except ValueError:
                return False
            return True

        assert accepts(crf._FLOAT_PAIRS, float) == all(map(PLAIN_FLOAT.fullmatch, fields))
        assert accepts(crf._INT_PAIRS, int) == all(map(PLAIN_INT.fullmatch, fields))

    def test_load_peak_stays_near_model_size(self):
        # a whole-section field list (3 strings per state line) would hold
        # more than the model itself; one piece at a time holds little
        rng = np.random.default_rng(34)
        attrs = [f"w[0]={chr(0x4E00 + i % 20000)}{i}" for i in range(30_000)]
        state = rng.normal(size=(len(attrs), 2))
        sink = io.StringIO()
        save_model(make_model(attrs, state, rng.normal(size=(2, 2))), sink)
        text = sink.getvalue()
        tracemalloc.start()
        try:
            model = load_model(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.attr_index) == len(attrs)
        assert peak < 1.5 * retained


class TestModelValidation:
    def test_state_shape_checked(self):
        with pytest.raises(ValueError):
            CrfModel(LABELS, {"a": 0}, np.zeros((2, 2)), np.zeros((2, 2)), FeatureConfig())

    def test_nonfinite_rejected(self):
        state = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            CrfModel(LABELS, {"a": 0}, state, np.zeros((2, 2)), FeatureConfig())

    def test_unknown_label_lookup(self):
        with pytest.raises(ValueError):
            make_model().label_id("B")

    # load_model reads plain finite numbers only, so save_model refuses the rest
    def test_nonfinite_final_objective_not_saved(self):
        model = make_model()
        model.meta = crf.TrainMeta(1, math.nan, "converged")
        with pytest.raises(ValueError, match="final objective"):
            save_model(model, io.StringIO())

    def test_empty_attribute_name_not_saved(self):
        model = train([([[""], ["a"]], ["O", "M"])], TrainConfig(max_iterations=1))
        with pytest.raises(ValueError, match="empty name"):
            save_model(model, io.StringIO())

    @pytest.mark.parametrize("label", ["X\tY", "X\nY"], ids=["tab", "newline"])
    def test_label_with_separator_not_saved(self, label):
        model = train(
            [([["a"], ["b"]], [label, "M"])], TrainConfig(max_iterations=1), labels=(label, "M")
        )
        with pytest.raises(ValueError, match="separator"):
            save_model(model, io.StringIO())

    def test_repeated_labels_rejected(self):
        with pytest.raises(ValueError, match="repeated label"):
            train([([["a"], ["b"]], ["O", "O"])], TrainConfig(max_iterations=1), labels=("O", "O"))

    def test_repeated_labels_rejected_before_encoding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was encoded")

        monkeypatch.setattr(crf, "_Encoded", refuse)
        with pytest.raises(ValueError, match="repeated label"):
            train([([["a"], ["b"]], ["O", "O"])], TrainConfig(max_iterations=1), labels=("O", "O"))
