import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gujiseg.corpus import Document, labelize
from gujiseg.features import (
    BOS,
    EOS,
    FeatureConfig,
    Instance,
    extract_features,
    extract_instances,
    feature_columns,
    featurize_chars,
)
from gujiseg.lexicons import (
    GUANGYUN,
    PINGSHUIYUN,
    EntityLexicon,
    LexiconSet,
    PmiTable,
    RhymeDictionary,
    build_pmi_table,
    load_rhyme_dict,
)
from oracles import brute_features

SENT = labelize(Document("x", "孝敬天啟，動必以禮。"))


class TestFeatureConfig:
    def test_defaults(self):
        cfg = FeatureConfig()
        assert cfg.k == 1
        assert not cfg.use_bigrams
        assert cfg.pronunciation is None

    def test_from_spec_round_trip(self):
        for text in ["c", "c,b", "c,b,ry:guangyun", "c,w,pmi", "c,b,ry:pingshuiyun,w,pmi"]:
            cfg = FeatureConfig.from_spec(text, k=3)
            assert cfg.spec() == text
            assert cfg.k == 3

    def test_from_spec_whitespace_tolerant(self):
        assert FeatureConfig.from_spec(" c , b ") == FeatureConfig.from_spec("c,b")

    def test_unigrams_mandatory(self):
        with pytest.raises(ValueError):
            FeatureConfig.from_spec("b")

    def test_bare_ry_rejected(self):
        with pytest.raises(ValueError):
            FeatureConfig.from_spec("c,ry")

    def test_unknown_item(self):
        with pytest.raises(ValueError):
            FeatureConfig.from_spec("c,xyz")

    def test_negative_k(self):
        with pytest.raises(ValueError):
            FeatureConfig(k=-1)

    def test_large_k_warns(self):
        with pytest.warns(UserWarning):
            FeatureConfig(k=11)

    def test_bad_pronunciation_source(self):
        with pytest.raises(ValueError):
            FeatureConfig(pronunciation="qieyun")


class TestUnigrams:
    def test_interior_window(self):
        got = extract_features(SENT.chars, 2, FeatureConfig(k=1))
        assert got == ["w[-1]=敬", "w[0]=天", "w[1]=啟"]

    def test_bos_padding(self):
        got = extract_features(SENT.chars, 0, FeatureConfig(k=1))
        assert got == [f"w[-1]={BOS}", "w[0]=孝", "w[1]=敬"]

    def test_eos_padding(self):
        last = len(SENT) - 1
        got = extract_features(SENT.chars, last, FeatureConfig(k=1))
        assert got == ["w[-1]=以", "w[0]=禮", f"w[1]={EOS}"]

    def test_k0_is_focus_only(self):
        assert extract_features(SENT.chars, 3, FeatureConfig(k=0)) == ["w[0]=啟"]

    def test_k2_spans_five(self):
        got = extract_features(SENT.chars, 2, FeatureConfig(k=2))
        assert got == ["w[-2]=孝", "w[-1]=敬", "w[0]=天", "w[1]=啟", "w[2]=動"]

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            extract_features(SENT.chars, len(SENT), FeatureConfig())
        with pytest.raises(IndexError):
            extract_features(SENT.chars, -1, FeatureConfig())


class TestBigrams:
    def test_interior_window(self):
        seq = labelize(Document("x", "甲乙丙丁戊。"))
        got = extract_features(seq.chars, 2, FeatureConfig(k=1, use_bigrams=True))
        assert got == [
            "w[-1]=乙",
            "w[0]=丙",
            "w[1]=丁",
            "w[-1_0]=乙丙",
            "w[0_1]=丙丁",
        ]

    def test_edge_uses_sentinels(self):
        seq = labelize(Document("x", "甲乙。"))
        got = extract_features(seq.chars, 0, FeatureConfig(k=1, use_bigrams=True))
        assert f"w[-1_0]={BOS}甲" in got
        assert "w[0_1]=甲乙" in got

    def test_counts(self):
        for k in range(4):
            cfg = FeatureConfig(k=k, use_bigrams=True)
            got = extract_features(SENT.chars, 4, cfg)
            assert len(got) == (2 * k + 1) + 2 * k


class TestPronunciation:
    RY = "天\t先\n天\t霰\n動\t董\n"

    def lexicons(self):
        return LexiconSet(rhyme_dicts={GUANGYUN: load_rhyme_dict(self.RY, GUANGYUN)})

    def test_whole_window_per_class(self):
        cfg = FeatureConfig(k=1, pronunciation=GUANGYUN)
        got = extract_features(SENT.chars, 2, cfg, self.lexicons())
        # 敬 and 啟 missing from the dictionary: only 天 contributes
        assert got == ["w[-1]=敬", "w[0]=天", "w[1]=啟", "ry[0]=先", "ry[0]=霰"]

    def test_neighbor_offsets(self):
        cfg = FeatureConfig(k=1, pronunciation=GUANGYUN)
        got = extract_features(SENT.chars, 3, cfg, self.lexicons())
        assert "ry[-1]=先" in got and "ry[-1]=霰" in got
        assert not any(f.startswith("ry[0]") for f in got)

    def test_sentinels_produce_nothing(self):
        cfg = FeatureConfig(k=1, pronunciation=GUANGYUN)
        got = extract_features(SENT.chars, 0, cfg, self.lexicons())
        assert not any(f.startswith("ry[") for f in got)

    def test_source_selects_dictionary(self):
        ps = load_rhyme_dict("天\t先\n", PINGSHUIYUN)
        lex = LexiconSet(
            rhyme_dicts={
                GUANGYUN: load_rhyme_dict("天\t霰\n", GUANGYUN),
                PINGSHUIYUN: ps,
            }
        )
        cfg = FeatureConfig(k=0, pronunciation=PINGSHUIYUN)
        assert extract_features(SENT.chars, 2, cfg, lex) == ["w[0]=天", "ry[0]=先"]

    def test_missing_dictionary_rejected(self):
        cfg = FeatureConfig(k=1, pronunciation=GUANGYUN)
        with pytest.raises(ValueError, match="guangyun"):
            extract_features(SENT.chars, 2, cfg, LexiconSet())


class TestWordFeatures:
    def test_focus_position_only(self):
        lex = LexiconSet(entities=EntityLexicon({"天啟": "REIGN"}))
        cfg = FeatureConfig(k=1, use_words=True)
        feats = featurize_chars(SENT.chars, cfg, lex)
        assert "ne[0]=REIGN-B" in feats[2]
        assert "ne[0]=REIGN-E" in feats[3]
        assert not any(f.startswith("ne[") for f in feats[1])
        assert not any(f.startswith("ne[") for f in feats[4])

    def test_requires_lexicon(self):
        cfg = FeatureConfig(use_words=True)
        with pytest.raises(ValueError, match="entity"):
            extract_features(SENT.chars, 0, cfg, LexiconSet())


class TestPmiFeatures:
    def lexicons(self):
        table = build_pmi_table([SENT.chars], min_count=1)
        return LexiconSet(pmi=table)

    def test_two_bins_inside(self):
        cfg = FeatureConfig(k=0, use_pmi=True)
        got = extract_features(SENT.chars, 2, cfg, self.lexicons())
        pmis = [f for f in got if f.startswith("pmi[")]
        assert len(pmis) == 2
        assert pmis[0].startswith("pmi[-1_0]=")
        assert pmis[1].startswith("pmi[0_1]=")

    def test_na_at_edges(self):
        cfg = FeatureConfig(k=0, use_pmi=True)
        first = extract_features(SENT.chars, 0, cfg, self.lexicons())
        last = extract_features(SENT.chars, len(SENT) - 1, cfg, self.lexicons())
        assert "pmi[-1_0]=PMI_NA" in first
        assert "pmi[0_1]=PMI_NA" in last

    def test_na_for_unseen_pair(self):
        lex = LexiconSet(pmi=PmiTable(100, {}))
        cfg = FeatureConfig(k=0, use_pmi=True)
        got = extract_features(SENT.chars, 2, cfg, lex)
        assert got == ["w[0]=天", "pmi[-1_0]=PMI_NA", "pmi[0_1]=PMI_NA"]

    def test_na_when_one_token_is_in_no_pair(self):
        # 宇 is in no pair of the table, so 地宇 must not be read as another of its pairs
        lex = LexiconSet(pmi=PmiTable(100, {("天", "地"): 5.0, ("地", "玄"): 1.0, ("天", "玄"): 3.0}))
        got = featurize_chars("地宇", FeatureConfig(k=0, use_pmi=True), lex)
        assert got[0] == ["w[0]=地", "pmi[-1_0]=PMI_NA", "pmi[0_1]=PMI_NA"]

    def test_known_pair_binned(self):
        lex = LexiconSet(pmi=PmiTable(100, {("天", "啟"): 4.5}))
        cfg = FeatureConfig(k=0, use_pmi=True)
        got = extract_features(SENT.chars, 2, cfg, lex)
        assert "pmi[0_1]=PMI4-6" in got

    def test_requires_table(self):
        cfg = FeatureConfig(use_pmi=True)
        with pytest.raises(ValueError, match="PMI"):
            extract_features(SENT.chars, 0, cfg, LexiconSet())


class TestExtraction:
    def test_instances_align_with_labels(self):
        insts = extract_instances(SENT, FeatureConfig(k=1))
        assert len(insts) == len(SENT)
        assert [i.label for i in insts] == list(SENT.labels)
        assert insts[3] == Instance("M", ("w[-1]=天", "w[0]=啟", "w[1]=動"))

    ALPHABET = "天地玄黃宇宙洪荒"
    ORACLE_LEX = LexiconSet(
        rhyme_dicts={
            GUANGYUN: RhymeDictionary(
                GUANGYUN,
                {"天": ("先", "霰"), "地": ("至",), "黃": ("唐", "宕", "蕩"), "C1": ("東",)},
            ),
            PINGSHUIYUN: RhymeDictionary(PINGSHUIYUN, {"天": ("先",), "宙": ("宥", "尤")}),
        },
        entities=EntityLexicon(
            {
                "天地": "PLACE", "玄黃宇": "OFFICE", "洪": "REIGN", "地玄": "REIGN",
                "C1C2": "OFFICE", "C2天": "PLACE",
            }
        ),
        # values on and around the bin edges 0, 2, 4, 6
        pmi=PmiTable(
            100,
            {
                ("天", "地"): -0.5, ("地", "玄"): 0.0, ("玄", "黃"): 2.0, ("黃", "宇"): 3.99,
                ("宇", "宙"): 4.0, ("宙", "洪"): 6.0, ("洪", "荒"): 9.5, ("天", "天"): 1.0,
                ("C1", "C2"): 5.0, ("C2", "天"): -3.0,
            },
        ),
    )

    @given(
        chars=st.one_of(
            st.text(alphabet=ALPHABET, min_size=1, max_size=12),
            st.lists(st.sampled_from(list(ALPHABET) + ["C1", "C2"]), min_size=1, max_size=12),
        ),
        k=st.integers(min_value=0, max_value=3),
        use_bigrams=st.booleans(),
        pronunciation=st.sampled_from([None, GUANGYUN, PINGSHUIYUN]),
        use_words=st.booleans(),
        use_pmi=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_featurize_matches_pointwise(
        self, chars, k, use_bigrams, pronunciation, use_words, use_pmi
    ):
        cfg = FeatureConfig(k, use_bigrams, pronunciation, use_words, use_pmi)
        feats = featurize_chars(chars, cfg, self.ORACLE_LEX)
        assert len(feats) == len(chars)
        for pos in range(len(chars)):
            assert feats[pos] == brute_features(chars, pos, cfg, self.ORACLE_LEX)

    @given(
        batch=st.lists(
            st.one_of(
                st.text(alphabet=ALPHABET, max_size=8),
                st.lists(st.sampled_from(list(ALPHABET) + ["C1", "C2"]), max_size=8),
            ),
            min_size=1,
            max_size=5,
        ),
        k=st.integers(min_value=0, max_value=3),
        use_bigrams=st.booleans(),
        pronunciation=st.sampled_from([None, GUANGYUN, PINGSHUIYUN]),
        use_words=st.booleans(),
        use_pmi=st.booleans(),
    )
    # k = 0 leaves no padding after the batch's last position
    @example(batch=["天地", "", "玄黃"], k=0, use_bigrams=False, pronunciation=None,
             use_words=False, use_pmi=True)
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_each_sequence_alone(
        self, batch, k, use_bigrams, pronunciation, use_words, use_pmi
    ):
        cfg = FeatureConfig(k, use_bigrams, pronunciation, use_words, use_pmi)
        rows = [[] for _ in range(sum(map(len, batch)))]
        for names, codes in feature_columns(batch, cfg, self.ORACLE_LEX):
            assert len(codes) == len(rows)
            for row, code in zip(rows, codes.tolist()):
                if code >= 0:
                    row.append(names[code])
        assert rows == [row for seq in batch for row in featurize_chars(seq, cfg, self.ORACLE_LEX)]

    def test_deterministic(self):
        cfg = FeatureConfig(k=2, use_bigrams=True)
        a = featurize_chars(SENT.chars, cfg)
        b = featurize_chars(SENT.chars, cfg)
        assert a == b

    @given(
        chars=st.text(alphabet="天地玄黃宇宙洪荒", min_size=1, max_size=12),
        k=st.integers(min_value=0, max_value=3),
        pos=st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=120, deadline=None)
    def test_attribute_count_invariant(self, chars, k, pos):
        if pos >= len(chars):
            pos = len(chars) - 1
        cfg = FeatureConfig(k=k, use_bigrams=True)
        got = featurize_chars(chars, cfg)[pos]
        assert len(got) == (2 * k + 1) + 2 * k

    @given(
        prefix=st.text(alphabet="天地玄黃", min_size=0, max_size=6),
        suffix=st.text(alphabet="宇宙洪荒", min_size=0, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_locality(self, prefix, suffix):
        # attributes at a position depend only on the k-window around it
        core = "日月盈昃辰宿"
        k = 1
        cfg = FeatureConfig(k=k, use_bigrams=True)
        a = featurize_chars(prefix + core + suffix, cfg)
        b = featurize_chars("列張" + core + "寒來", cfg)
        pos_a = len(prefix) + 2
        pos_b = 2 + 2
        assert a[pos_a] == b[pos_b]
