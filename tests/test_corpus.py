import io
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gujiseg.corpus import (
    DEFAULT_BOUNDARY,
    DEFAULT_DISCARD,
    CorpusFormatError,
    Document,
    EmptySequenceError,
    LabeledSequence,
    corpus_stats,
    filter_short,
    labelize,
    parse_corpus,
    read_labeled_corpus,
    read_text_utf8,
    reinsert_marks,
    strip_marks,
    write_labeled_corpus,
)

HAN = "天地玄黃宇宙洪荒日月盈昃辰宿列張寒來暑往"


class TestParseCorpus:
    def test_lines_format_ids(self):
        docs = parse_corpus("天下大亂。\n賢聖不明。\n", "lines")
        assert [d.doc_id for d in docs] == ["0001", "0002"]
        assert docs[0].raw_text == "天下大亂。"

    def test_blocks_two_records(self):
        docs = parse_corpus("天下大亂。\n\n賢聖不明。\n", "blocks")
        assert [d.doc_id for d in docs] == ["0001", "0002"]

    def test_blocks_id_header(self):
        docs = parse_corpus("#ID tang-001\n天下大亂。\n", "blocks")
        assert docs[0].doc_id == "tang-001"
        assert docs[0].raw_text == "天下大亂。"

    def test_blocks_multiline_body_joined(self):
        docs = parse_corpus("天下大亂。\n賢聖不明。\n\n道德不一。\n", "blocks")
        assert len(docs) == 2
        assert docs[0].raw_text == "天下大亂。\n賢聖不明。"

    def test_empty_source(self):
        assert parse_corpus("", "lines") == []
        assert parse_corpus("", "blocks") == []

    def test_accepts_stream(self):
        docs = parse_corpus(io.StringIO("天下。\n"), "lines")
        assert len(docs) == 1

    def test_unknown_format(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus("x", "csv")

    def test_malformed_id_header(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus("#ID\n天下。\n", "blocks")

    def test_duplicate_ids_rejected(self):
        text = "#ID a\n天下。\n\n#ID a\n大亂。\n"
        with pytest.raises(CorpusFormatError, match="duplicate"):
            parse_corpus(text, "blocks")

    def test_invalid_utf8_reports_byte_offset(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("天下".encode("utf-8") + b"\xff\xfe")
        with pytest.raises(CorpusFormatError, match="byte offset 6"):
            read_text_utf8(bad)


class TestLabelize:
    def test_worked_example(self):
        seq = labelize(Document("d", "孝敬天啟，動必以禮。"))
        assert seq.chars == "孝敬天啟動必以禮"
        assert seq.labels == "OOOMOOOM"

    def test_only_marks_is_empty(self):
        with pytest.raises(EmptySequenceError):
            labelize(Document("d", "。，；"))

    def test_collapse_and_trailing(self):
        seq = labelize(Document("d", "天。。地"))
        assert seq.chars == "天地"
        assert seq.labels == "MO"

    def test_leading_marks_dropped(self):
        seq = labelize(Document("d", "。天下"))
        assert seq.labels == "OO"

    def test_discard_between_char_and_mark(self):
        # the mark still reaches back through discarded characters
        seq = labelize(Document("d", "天 、。下"))
        assert seq.chars == "天下"
        assert seq.labels == "MO"

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            labelize(Document("d", "天。"), frozenset("。"), frozenset("。x"))

    def test_no_boundary_chars_in_output(self):
        seq = labelize(Document("d", "天。地，人；和「引」"))
        assert not set(seq.chars) & DEFAULT_BOUNDARY
        assert not set(seq.chars) & DEFAULT_DISCARD

    @given(st.text(alphabet=HAN + "。，；、 「」", min_size=0, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_reinsert_round_trip(self, text):
        try:
            seq = labelize(Document("d", text))
        except EmptySequenceError:
            return
        again = labelize(Document("d", reinsert_marks(seq)))
        assert again.chars == seq.chars
        assert again.labels == seq.labels

    # punctuate strips its input with strip_marks, so it must keep exactly
    # the characters that labelize keeps of a line
    @given(st.text(st.one_of(st.sampled_from(sorted(DEFAULT_BOUNDARY | DEFAULT_DISCARD)),
                             st.sampled_from(HAN), st.characters()), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_strip_marks_keeps_what_labelize_keeps(self, text):
        try:
            kept = labelize(Document("", text)).chars
        except EmptySequenceError:
            kept = ""
        assert strip_marks(text) == kept


class TestFilterShort:
    def _seqs(self, lengths):
        return [
            LabeledSequence(str(i), "天" * n, "O" * n) for i, n in enumerate(lengths)
        ]

    def test_threshold_is_strict(self):
        kept = filter_short(self._seqs([10, 30, 31, 480]), 30)
        assert [len(d) for d in kept] == [31, 480]

    def test_zero_keeps_all(self):
        docs = self._seqs([1, 2, 3])
        assert filter_short(docs, 0) == docs

    def test_empty_input(self):
        assert filter_short([], 5) == []

    def test_subset_and_order(self):
        rng = random.Random(0)
        docs = self._seqs([rng.randint(1, 50) for _ in range(40)])
        kept = filter_short(docs, 25)
        assert all(d in docs for d in kept)
        positions = [docs.index(d) for d in kept]
        assert positions == sorted(positions)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            filter_short([], -1)


class TestCorpusStats:
    def test_worked_example_counts(self):
        seq = labelize(Document("d", "孝敬天啟，動必以禮。"))
        stats = corpus_stats([seq])
        assert stats.doc_count == 1
        assert stats.char_token_count == 8
        assert stats.char_type_count == 8
        assert stats.boundary_mark_count == 2
        assert stats.mean_chars_per_doc == 8.0

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert (stats.doc_count, stats.char_token_count, stats.char_type_count) == (0, 0, 0)
        assert stats.boundary_mark_count == 0
        assert stats.mean_chars_per_doc == 0.0

    def test_type_token_distinction(self):
        docs = [LabeledSequence("a", "天", "O"), LabeledSequence("b", "天", "O")]
        stats = corpus_stats(docs)
        assert stats.char_token_count == 2
        assert stats.char_type_count == 1

    def test_mark_count_equals_m_labels(self):
        rng = random.Random(1)
        docs = []
        for i in range(20):
            n = rng.randint(1, 30)
            chars = "".join(rng.choice(HAN) for _ in range(n))
            labels = "".join(rng.choice("MO") for _ in range(n))
            docs.append(LabeledSequence(str(i), chars, labels))
        stats = corpus_stats(docs)
        assert stats.boundary_mark_count == sum(d.labels.count("M") for d in docs)


class TestLabeledSequence:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LabeledSequence("d", "天地", "O")

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            LabeledSequence("d", "天", "X")


class TestLabeledCorpusIO:
    def test_round_trip(self):
        docs = [
            labelize(Document("0001", "孝敬天啟，動必以禮。")),
            labelize(Document("0002", "天下大亂，賢聖不明。")),
        ]
        sink = io.StringIO()
        write_labeled_corpus(docs, sink)
        back = read_labeled_corpus(sink.getvalue())
        assert [(d.chars, d.labels) for d in back] == [
            (d.chars, d.labels) for d in docs
        ]

    @given(st.lists(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(HAN + "。，")),
                            max_size=40), max_size=5))
    @example(["天\u2028地。", "人\x85和\x1c平，"])
    @settings(max_examples=300, deadline=None)
    def test_round_trip_any_text(self, texts):
        docs = []
        for text in texts:
            try:
                docs.append(labelize(Document("d", text)))
            except EmptySequenceError:
                pass
        sink = io.StringIO()
        write_labeled_corpus(docs, sink)
        back = read_labeled_corpus(sink.getvalue())
        assert [(d.chars, d.labels) for d in back] == [(d.chars, d.labels) for d in docs]

    def test_file_shape(self):
        sink = io.StringIO()
        write_labeled_corpus([LabeledSequence("d", "天下", "OM")], sink)
        assert sink.getvalue() == "天\tO\n下\tM\n"

    @pytest.mark.parametrize("char", list("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_unreadable_character_not_written(self, char):
        docs = [LabeledSequence("d1", "天下", "OM"), LabeledSequence("d2", f"天{char}下", "OOM")]
        sink = io.StringIO()
        with pytest.raises(ValueError, match=f"document d2: character {re.escape(repr(char))}"):
            write_labeled_corpus(docs, sink)
        assert sink.getvalue() == ""

    def test_bad_line_reports_number(self):
        with pytest.raises(CorpusFormatError, match="line 2"):
            read_labeled_corpus("天\tO\n下\tX\n")

    def test_missing_tab_rejected(self):
        with pytest.raises(CorpusFormatError):
            read_labeled_corpus("天O\n")
