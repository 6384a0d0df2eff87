import io
import logging
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gujiseg.corpus import LabeledSequence
from gujiseg.features import FeatureConfig, feature_columns
from gujiseg.lexicons import (
    ENTITY_TYPES,
    GUANGYUN,
    OFFICE,
    PINGSHUIYUN,
    PLACE,
    PMI_NA,
    REIGN,
    EntityLexicon,
    LexiconFormatError,
    LexiconSet,
    PmiTable,
    build_pmi_table,
    load_entity_lexicon,
    load_pmi_table,
    load_rhyme_dict,
    pmi_bin,
    save_pmi_table,
    tag_entities,
)
from oracles import brute_tag_entities


class TestRhymeDict:
    def test_polyphone_aggregation(self):
        d = load_rhyme_dict("天\t先\n天\t霰\n", GUANGYUN)
        assert d.classes("天") == ("先", "霰")

    def test_first_seen_order_kept(self):
        d = load_rhyme_dict("天\t霰\n天\t先\n天\t霰\n", GUANGYUN)
        assert d.classes("天") == ("霰", "先")

    def test_empty_stream(self):
        d = load_rhyme_dict("", PINGSHUIYUN)
        assert d.entries == {}
        assert d.classes("天") == ()

    def test_one_field_line(self):
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_rhyme_dict("天\t先\n天\n", GUANGYUN)

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            load_rhyme_dict("", "qieyun")


class TestEntityLexicon:
    def test_load(self):
        lex = load_entity_lexicon("貞觀\tREIGN\n長安\tPLACE\n")
        assert lex.entries == {"貞觀": "REIGN", "長安": "PLACE"}

    def test_conflict_first_wins_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            lex = load_entity_lexicon("長安\tPLACE\n長安\tOFFICE\n")
        assert lex.entries["長安"] == "PLACE"
        assert any("長安" in r.message for r in caplog.records)

    def test_exact_duplicate_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING):
            load_entity_lexicon("長安\tPLACE\n長安\tPLACE\n")
        assert not caplog.records

    def test_bad_type(self):
        with pytest.raises(LexiconFormatError, match="line 1"):
            load_entity_lexicon("長安\tCITY\n")


class TestTagEntities:
    def test_two_char_span(self):
        lex = EntityLexicon({"貞觀": "REIGN"})
        assert tag_entities("貞觀元年", lex) == ["REIGN-B", "REIGN-E", None, None]

    def test_span_counts_tokens(self):
        # a 4-character entry spans 2 tokens: no entry is 2 characters long
        lex = EntityLexicon({"C1C2": "OFFICE"})
        assert tag_entities(["C1", "C2", "天"], lex) == ["OFFICE-B", "OFFICE-E", None]

    def test_longest_match_wins(self):
        lex = EntityLexicon({"長安": "PLACE", "長安令": "OFFICE"})
        assert tag_entities("長安令曰", lex) == [
            "OFFICE-B",
            "OFFICE-I",
            "OFFICE-E",
            None,
        ]

    def test_single_char_span(self):
        lex = EntityLexicon({"唐": "REIGN"})
        assert tag_entities("唐人", lex) == ["REIGN-S", None]

    def test_empty_lexicon(self):
        assert tag_entities("天下", EntityLexicon({})) == [None, None]

    def test_scan_resumes_after_match(self):
        # the second character of a match is not a fresh match start
        lex = EntityLexicon({"安令": "OFFICE", "長安": "PLACE"})
        assert tag_entities("長安令", lex) == ["PLACE-B", "PLACE-E", None]

    def test_matches_brute_force(self):
        rng = random.Random(5)
        # tokens may be several characters or none, so word lengths in tokens
        # and in characters differ; an empty token inside or after a match
        # belongs to it
        pool = list("天地玄黃宇宙洪荒日月") + ["C1", "C2", ""]
        types = ("REIGN", "PLACE", "OFFICE")
        for _ in range(60):
            words = {}
            for _ in range(rng.randint(1, 8)):
                w = "".join(rng.choice(pool) for _ in range(rng.randint(1, 3)))
                if w:  # the loader rejects an empty word
                    words.setdefault(w, rng.choice(types))
            lex = EntityLexicon(words)
            chars = [rng.choice(pool) for _ in range(rng.randint(0, 15))]
            assert tag_entities(chars, lex) == brute_tag_entities(chars, lex)

    def test_spans_well_formed(self):
        rng = random.Random(6)
        pool = "天地玄黃宇宙"
        lex = EntityLexicon(
            {"天地": "PLACE", "玄黃宇": "REIGN", "宙": "OFFICE", "天地玄黃": "OFFICE"}
        )
        for _ in range(100):
            chars = "".join(rng.choice(pool) for _ in range(rng.randint(0, 20)))
            tags = tag_entities(chars, lex)
            i = 0
            while i < len(tags):
                tag = tags[i]
                if tag is None or tag.endswith("-S"):
                    i += 1
                    continue
                etype, pos = tag.rsplit("-", 1)
                assert pos == "B"
                j = i + 1
                while tags[j] == f"{etype}-I":
                    j += 1
                assert tags[j] == f"{etype}-E"
                i = j + 1

    # tokens of one, two and no characters; "C" + "1C" + "2" spells "C1C2"
    TOKENS = list("天地玄黃") + ["C1", "C2", "C", "1C", "2", ""]

    @staticmethod
    @st.composite
    def lexicons(draw):
        # each drawn word may bring some of its prefixes along, so that
        # entries prefix one another
        entries = {}
        for word in draw(st.lists(st.lists(st.sampled_from(TestTagEntities.TOKENS), min_size=1,
                                           max_size=4), max_size=6)):
            for cut in sorted(draw(st.sets(st.integers(1, len(word)), min_size=1))):
                if "".join(word[:cut]):  # the loader rejects an empty word
                    entries.setdefault("".join(word[:cut]), draw(st.sampled_from(sorted(ENTITY_TYPES))))
        return EntityLexicon(entries)

    @given(
        lex=lexicons(),
        batch=st.lists(st.lists(st.sampled_from(TOKENS), max_size=10), min_size=1, max_size=5),
    )
    # a match that would cross from one sequence into the next
    @example(lex=EntityLexicon({"天地": PLACE, "天": REIGN}), batch=[["天"], ["地", "天"], ["地"]])
    @example(lex=EntityLexicon({"C1C2": OFFICE}), batch=[["C1"], [], ["C2", "C1", "", "C2"]])
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_brute_force_per_sequence(self, lex, batch):
        cfg = FeatureConfig(k=0, use_words=True)
        names, codes = list(feature_columns(batch, cfg, LexiconSet(entities=lex)))[-1]
        want = [
            None if tag is None else f"ne[0]={tag}"
            for seq in batch
            for tag in brute_tag_entities(seq, lex)
        ]
        assert [None if code < 0 else names[code] for code in codes.tolist()] == want


class TestPmiTable:
    def test_exact_independence_is_zero(self):
        # N=100 pairs from length-2 docs: c(ab)=10, c(a)=20, c(b)=50
        docs = (
            ["天月"] * 10
            + ["天水"] * 10
            + ["火月"] * 40
            + ["山川"] * 40
        )
        table = build_pmi_table(docs, min_count=5)
        assert table.total_bigrams == 100
        assert table.pmi[("天", "月")] == 0.0

    def test_log2_ten(self):
        docs = ["天月"] * 10 + [p + q for p, q in zip("一二三四五六七八九", "甲乙丙丁戊己庚辛壬")] * 10
        table = build_pmi_table(docs, min_count=5)
        assert table.total_bigrams == 100
        assert table.pmi[("天", "月")] == pytest.approx(math.log2(10))

    def test_hand_computed_small_case(self):
        # "abab": pairs ab,ba,ab -> N=3, left a=2 b=1, right b=2 a=1
        table = build_pmi_table(["天月天月"], min_count=1)
        assert table.total_bigrams == 3
        assert table.pmi[("天", "月")] == pytest.approx(math.log2(3 * 2 / (2 * 2)))
        assert table.pmi[("月", "天")] == pytest.approx(math.log2(3 * 1 / (1 * 1)))

    def test_min_count_threshold(self):
        docs = ["天月"] * 4 + ["火水"] * 5
        table = build_pmi_table(docs, min_count=5)
        assert ("天", "月") not in table.pmi
        assert ("火", "水") in table.pmi

    def test_empty_training_set(self):
        table = build_pmi_table([], min_count=5)
        assert table.total_bigrams == 0
        assert table.pmi == {}

    def test_accepts_labeled_sequences(self):
        docs = [LabeledSequence("d", "天月天月", "OOOM")]
        assert build_pmi_table(docs, 1).total_bigrams == 3

    def test_singleton_bigrams_give_log2_n(self):
        table = build_pmi_table(["天月", "火水", "山川"], min_count=1)
        assert all(
            v == pytest.approx(math.log2(3)) for v in table.pmi.values()
        )

    def test_document_order_irrelevant(self):
        rng = random.Random(9)
        docs = ["".join(rng.choice("天地玄黃宇") for _ in range(rng.randint(2, 8))) for _ in range(30)]
        a = build_pmi_table(docs, 2)
        shuffled = docs[:]
        rng.shuffle(shuffled)
        b = build_pmi_table(shuffled, 2)
        assert a == b

    def test_bad_min_count(self):
        with pytest.raises(ValueError):
            build_pmi_table(["天月"], 0)


class TestPmiBin:
    @pytest.mark.parametrize(
        "value,label",
        [
            (0.0, "PMI0-2"),
            (-1.7, "PMI<0"),
            (6.0, "PMI>=6"),
            (1.999, "PMI0-2"),
            (2.0, "PMI2-4"),
            (4.0, "PMI4-6"),
            (5.999, "PMI4-6"),
            (100.0, "PMI>=6"),
            (None, PMI_NA),
        ],
    )
    def test_edges(self, value, label):
        assert pmi_bin(value) == label


class TestPmiIO:
    def test_round_trip(self):
        table = build_pmi_table(["天月天月", "天月火水"], min_count=1)
        sink = io.StringIO()
        save_pmi_table(table, sink)
        back = load_pmi_table(sink.getvalue())
        assert back.total_bigrams == table.total_bigrams
        assert back.pmi == table.pmi

    # tab and newline are the format's separators
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(st.characters(exclude_characters="\t\n"), max_size=12), max_size=6))
    @example(["天\u2028地", "天\u2028"])
    def test_round_trip_any_text(self, docs):
        table = build_pmi_table(docs, min_count=1)
        sink = io.StringIO()
        save_pmi_table(table, sink)
        back = load_pmi_table(sink.getvalue())
        assert back.total_bigrams == table.total_bigrams
        assert back.pmi == table.pmi

    def test_multi_character_token_rejected(self):
        table = build_pmi_table([["C1", "C2", "C1", "C2"]], min_count=1)
        with pytest.raises(ValueError, match="single characters"):
            save_pmi_table(table, io.StringIO())

    def test_separator_in_pair_rejected(self):
        table = build_pmi_table(["天\t地玄"], min_count=1)
        with pytest.raises(ValueError, match="separator"):
            save_pmi_table(table, io.StringIO())

    def test_header_required(self):
        with pytest.raises(LexiconFormatError, match="#N="):
            load_pmi_table("天月\t1.5\n")

    def test_bad_pair_length(self):
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_pmi_table("#N=3\n天月火\t1.5\n")

    def test_bad_value(self):
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_pmi_table("#N=3\n天月\txyz\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("#N=3\n天月\tnan\n", 2),
            ("#N=3\n天月\t1.5\n月天\tinf\n", 3),
            ("#N=3\n天月\t-inf\n", 2),
            ("#N=-1\n", 1),
            ("#N=\n", 1),
            ("#N=0\n天月\t1.5\n", 2),
            ("#N=1\n天月\t1.5\n月天\t0.5\n", 3),
            ("#N=3\n天月\t1.5\n月天\t0.5\n天月\t2.5\n", 4),
            ("#N=1_0\n天月\t1.5\n", 1),
            ("#N=3\n天月\t1_5\n", 2),
            ("#N=3\n天月\t\uff11.\uff15\n", 2),
            ("#N=3\n天月\t 2.5 \n", 2),
            ("#N=3\n天月\t1.5\n\n月天\t0.5\n", 3),
            ("#N=3\n天月\t1.5\n  \n月天\t0.5\n", 3),
            ("#N=3\n天月\t1.5\n \u3000\n月天\t0.5\n", 3),
        ],
        ids=["nan", "inf", "-inf", "negative-total", "empty-total", "zero-total",
             "pairs-over-total", "repeated-pair", "underscore-total", "underscore-value",
             "full-width-value", "spaced-value", "blank-line", "space-line",
             "ideographic-space-line"],
    )
    def test_malformed_reports_line(self, text, lineno):
        with pytest.raises(LexiconFormatError, match=f"line {lineno}:"):
            load_pmi_table(text)

    # A table save_pmi_table writes reads back bit for bit; it refuses
    # exactly the tables load_pmi_table would reject.
    @settings(max_examples=200, deadline=None)
    @given(
        total=st.integers(-2, 2**63),
        pmi=st.dictionaries(
            st.tuples(*[st.characters(exclude_characters="\t\n")] * 2), st.floats(), max_size=6
        ),
    )
    @example(total=0, pmi={})
    @example(total=2, pmi={("天", "\u2028"): -0.0, ("\r", "𠀀"): 5e-324})
    def test_what_save_writes_reads_back(self, total, pmi):
        sink = io.StringIO()
        if len(pmi) > total or not all(map(math.isfinite, pmi.values())):
            with pytest.raises(ValueError):
                save_pmi_table(PmiTable(total, pmi), sink)
            return
        save_pmi_table(PmiTable(total, pmi), sink)
        back = load_pmi_table(sink.getvalue())
        assert back.total_bigrams == total
        assert {k: v.hex() for k, v in back.pmi.items()} == {k: v.hex() for k, v in pmi.items()}


class TestLexiconSet:
    def test_missing_rhyme_dict(self):
        with pytest.raises(ValueError, match="guangyun"):
            LexiconSet().rhyme_dict(GUANGYUN)

    def test_accessor(self):
        d = load_rhyme_dict("天\t先\n", GUANGYUN)
        assert LexiconSet(rhyme_dicts={GUANGYUN: d}).rhyme_dict(GUANGYUN) is d
