import itertools
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import casener.corpus
from casener.corpus import (
    AnnotatedSentence,
    Corpus,
    CorpusError,
    EntitySpan,
    ParseError,
    Scheme,
    Sentence,
    TagSequence,
    TagValidationError,
    convert_scheme,
    detect_scheme,
    extract_spans,
    parse_conll,
    spans_to_tags,
    validate_tags,
    write_conll,
)
from conftest import conll_texts, random_corpus, random_tagging
from oracles import check_tokens_reference, validate_tags_reference

TABLE_SENTENCE = "I O\nlive O\nin O\nNew B-ORG\nYork I-ORG\nCity E-ORG\n\n"


class TestTypes:
    def test_sentence_rejects_whitespace_tokens(self):
        with pytest.raises(CorpusError):
            Sentence(("New York",))
        with pytest.raises(CorpusError):
            Sentence(("ok", ""))
        with pytest.raises(CorpusError):
            Sentence(())

    def test_tag_sequence_validates_on_construction(self):
        TagSequence(("O", "B-ORG", "E-ORG"), Scheme.IOBES)
        with pytest.raises(TagValidationError):
            TagSequence(("I-ORG",), Scheme.IOBES)  # bad start
        with pytest.raises(TagValidationError):
            TagSequence(("B-ORG",), Scheme.IOBES)  # bad end
        with pytest.raises(TagValidationError):
            TagSequence(("O", "E-ORG"), Scheme.IOBES)  # bad transition
        with pytest.raises(TagValidationError):
            TagSequence(("S-ORG",), Scheme.IOB2)  # prefix outside scheme
        with pytest.raises(TagValidationError):
            TagSequence(("B",), Scheme.IOB2)  # malformed tag

    def test_annotated_sentence_length_mismatch(self):
        with pytest.raises(CorpusError):
            AnnotatedSentence(
                Sentence(("one",)), TagSequence(("O", "O"), Scheme.IOBES)
            )

    def test_entity_span_invariants(self):
        with pytest.raises(CorpusError):
            EntitySpan(3, 2, "ORG")
        with pytest.raises(CorpusError):
            EntitySpan(-1, 0, "ORG")
        with pytest.raises(CorpusError):
            EntitySpan(0, 0, "")


class TestParse:
    def test_table_sentence(self):
        corpus = parse_conll(TABLE_SENTENCE)
        assert len(corpus) == 1
        ann = corpus.sentences[0]
        assert ann.sentence.tokens == ("I", "live", "in", "New", "York", "City")
        assert ann.gold.tags == ("O", "O", "O", "B-ORG", "I-ORG", "E-ORG")
        assert ann.gold.scheme is Scheme.IOBES

    def test_empty_input(self):
        corpus = parse_conll("")
        assert len(corpus) == 0

    def test_docstart_dropped(self):
        text = (
            "-DOCSTART- O\n\nA O\n\nB S-LOC\n\n-DOCSTART- O\n\nC O\nD O\n\n"
        )
        corpus = parse_conll(text)
        assert len(corpus) == 3
        tokens = [ann.sentence.tokens for ann in corpus]
        assert tokens == [("A",), ("B",), ("C", "D")]
        assert "2 -DOCSTART- line(s) dropped" in corpus.provenance

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_conll("A O\nB O\nnotag\n")

    def test_malformed_tag_reports_line_number(self):
        with pytest.raises(TagValidationError, match="line 2.*'B_PER'"):
            parse_conll("A O\nB B_PER\n\n")

    @pytest.mark.parametrize("text", [
        "a O-X\nb S-PER\n\n",  # detected as IOBES
        "a O-X\nb I-PER\n\n",  # detected as IOB1
    ])
    def test_typed_o_tag_rejected(self, text):
        with pytest.raises(TagValidationError, match="line 1.*'O-X'"):
            parse_conll(text)

    def test_illegal_transition_reports_sentence_and_position(self):
        text = "A S-ORG\nB I-ORG\n\n"  # S- makes it IOBES; I- cannot follow S-
        with pytest.raises(TagValidationError, match="sentence 1.*position 1"):
            parse_conll(text)

    def test_crlf_and_column_selection(self):
        # The token is the first column and the tag the last.
        text = "Alpha NNP I-NP S-LOC\r\nbeta NN I-NP O\r\n\r\n"
        corpus = parse_conll(text)
        assert corpus.sentences[0].sentence.tokens == ("Alpha", "beta")
        assert corpus.sentences[0].gold.tags == ("S-LOC", "O")

    def test_one_column_line_is_malformed(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_conll("token\n")


class TestParseFuzz:
    @given(conll_texts)
    def test_any_text_parses_or_raises_corpus_error(self, text):
        try:
            corpus = parse_conll(text)
        except CorpusError:
            return
        for ann in corpus:
            for tag in ann.gold.tags:
                assert tag == "O" or tag[0] in "BIES" and tag[1] == "-"
        assert parse_conll(write_conll(corpus)).sentences == corpus.sentences


class TestDetection:
    def test_iobes_detected_by_e_or_s(self):
        assert detect_scheme([["O", "S-LOC"]]) is Scheme.IOBES
        assert detect_scheme([["B-LOC", "E-LOC"]]) is Scheme.IOBES

    def test_iob1_detected_by_orphan_i(self):
        assert detect_scheme([["I-LOC", "O"]]) is Scheme.IOB1
        assert detect_scheme([["O", "I-LOC", "I-ORG"]]) is Scheme.IOB1

    def test_iob2_default(self):
        assert detect_scheme([["O", "B-LOC", "I-LOC"]]) is Scheme.IOB2
        assert detect_scheme([["O", "O"]]) is Scheme.IOB2
        assert detect_scheme([]) is Scheme.IOB2


class TestWrite:
    def test_table_sentence_roundtrip_text(self):
        corpus = parse_conll(TABLE_SENTENCE)
        assert write_conll(corpus) == TABLE_SENTENCE

    def test_empty_corpus(self):
        assert write_conll(Corpus(())) == ""

    def test_roundtrip_random_corpora(self):
        rng = random.Random(7)
        for _ in range(10):
            corpus = random_corpus(rng, sentences=50)
            again = parse_conll(write_conll(corpus))
            assert again.sentences == corpus.sentences


class TestSchemeConversion:
    def test_iob2_to_iobes(self):
        tags = TagSequence(("B-ORG", "I-ORG", "I-ORG"), Scheme.IOB2)
        assert convert_scheme(tags, Scheme.IOBES).tags == (
            "B-ORG", "I-ORG", "E-ORG",
        )

    def test_single_token_becomes_s(self):
        tags = TagSequence(("B-LOC",), Scheme.IOB2)
        assert convert_scheme(tags, Scheme.IOBES).tags == ("S-LOC",)

    def test_iob1_adjacent_chunks(self):
        tags = TagSequence(("I-LOC", "B-LOC", "O"), Scheme.IOB1)
        assert extract_spans(tags) == (
            EntitySpan(0, 0, "LOC"), EntitySpan(1, 1, "LOC"),
        )
        assert convert_scheme(tags, Scheme.IOBES).tags == ("S-LOC", "S-LOC", "O")
        back = convert_scheme(convert_scheme(tags, Scheme.IOBES), Scheme.IOB1)
        assert back.tags == tags.tags

    def test_roundtrips_preserve_tags_and_spans(self, rng):
        for _ in range(50):
            tags = random_tagging(rng, rng.randint(1, 9))
            for a in Scheme:
                for b in Scheme:
                    converted = convert_scheme(convert_scheme(tags, a), b)
                    assert extract_spans(converted) == extract_spans(tags)
            for target in Scheme:
                there = convert_scheme(tags, target)
                assert convert_scheme(there, Scheme.IOBES).tags == tags.tags


class TestSpans:
    def test_table_spans(self):
        tags = TagSequence(
            ("O", "O", "O", "B-ORG", "I-ORG", "E-ORG"), Scheme.IOBES
        )
        assert extract_spans(tags) == (EntitySpan(3, 5, "ORG"),)

    def test_all_o(self):
        assert extract_spans(TagSequence(("O", "O"), Scheme.IOBES)) == ()

    def test_singletons(self):
        tags = TagSequence(("S-LOC", "O", "S-LOC"), Scheme.IOBES)
        assert extract_spans(tags) == (
            EntitySpan(0, 0, "LOC"), EntitySpan(2, 2, "LOC"),
        )

    def test_spans_to_tags_examples(self):
        assert spans_to_tags(
            {EntitySpan(3, 5, "ORG")}, 6, Scheme.IOBES
        ).tags == ("O", "O", "O", "B-ORG", "I-ORG", "E-ORG")
        assert spans_to_tags(set(), 4, Scheme.IOBES).tags == ("O",) * 4

    def test_spans_to_tags_rejects_bad_input(self):
        with pytest.raises(CorpusError):
            spans_to_tags([EntitySpan(0, 1, "A"), EntitySpan(1, 2, "A")], 4,
                          Scheme.IOBES)
        with pytest.raises(CorpusError):
            spans_to_tags([EntitySpan(2, 5, "A")], 4, Scheme.IOBES)

    def test_span_roundtrip_random(self, rng):
        for _ in range(100):
            length = rng.randint(1, 10)
            tags = random_tagging(rng, length)
            spans = extract_spans(tags)
            for scheme in Scheme:
                encoded = spans_to_tags(spans, length, scheme)
                assert extract_spans(encoded) == spans


def _all_span_sets(length: int, types: tuple[str, ...]):
    """Every set of non-overlapping typed spans on `length` tokens."""
    def rec(start: int):
        yield []
        for s in range(start, length):
            for e in range(s, length):
                for t in types:
                    head = EntitySpan(s, e, t)
                    for rest in rec(e + 1):
                        yield [head] + rest
    yield from rec(0)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_validation_matches_span_generated_language(scheme):
    """The validator accepts exactly the encodings of span sets (length <= 5,
    two entity types) and rejects everything else."""
    types = ("A", "B")
    prefixes = sorted(scheme.prefixes)
    alphabet = ["O"] + [f"{p}-{t}" for p in prefixes for t in types]
    for length in range(1, 6 if scheme is not Scheme.IOBES else 5):
        legal = {
            spans_to_tags(spans, length, scheme).tags
            for spans in _all_span_sets(length, types)
        }
        for candidate in itertools.product(alphabet, repeat=length):
            expected = candidate in legal
            try:
                TagSequence(candidate, scheme)
                actual = True
            except TagValidationError:
                actual = False
            assert actual == expected, (candidate, scheme)


@given(st.lists(st.sampled_from(["O", "B-X", "I-X", "E-X", "S-X", "B-Y",
                                 "I-Y", "E-Y", "S-Y"]),
                min_size=1, max_size=6))
def test_arbitrary_sequences_never_crash_validation(tags):
    try:
        seq = TagSequence(tuple(tags), Scheme.IOBES)
    except TagValidationError:
        return
    spans = extract_spans(seq)
    assert spans_to_tags(spans, len(tags), Scheme.IOBES).tags == tuple(tags)


def _outcome(check, *args):
    """(exception type, message) of `check(*args)`, or None if it passes."""
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_whitespace_pattern_is_str_isspace():
    """`Sentence` finds whitespace with a regular expression; it must match
    exactly the code points `str.isspace` accepts."""
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", text) == [c for c in text if c.isspace()]


# Separators, NEL and ideographic space are whitespace; the rest are not.
_TOKEN_PIECES = ["", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ", "\u3000",
                 "\u0130", "\u1e9e", "a", "Z", "-"]


@given(st.lists(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=3)
                .map("".join), max_size=5))
def test_sentence_check_matches_reference(tokens):
    expected = _outcome(check_tokens_reference, tokens)
    assert _outcome(Sentence, tuple(tokens)) == expected
    assert expected is None or expected[0] is CorpusError


_TAG_PIECES = ["O", "B-PER", "I-PER", "E-PER", "S-PER", "B-LOC", "I-LOC",
               "E-LOC", "S-LOC", "O-X", "B-", "X-PER"]


@given(st.lists(st.sampled_from(_TAG_PIECES), max_size=8),
       st.sampled_from(list(Scheme)))
def test_validate_tags_matches_reference(tags, scheme):
    tags = tuple(tags)
    expected = _outcome(validate_tags_reference, tags, scheme, "ctx: ")
    assert _outcome(validate_tags, tags, scheme, "ctx: ") == expected
    assert expected is None or expected[0] is TagValidationError


def test_validate_tags_parses_each_distinct_tag_once(monkeypatch):
    parsed = Counter()
    split_tag = casener.corpus.split_tag

    def counting(tag):
        parsed[tag] += 1
        return split_tag(tag)

    monkeypatch.setattr(casener.corpus, "split_tag", counting)
    tags = ("O", "B-PER", "E-PER", "O", "S-LOC", "O") * 50
    validate_tags(tags, Scheme.IOBES)
    assert parsed == Counter(set(tags))
