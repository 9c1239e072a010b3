import ast
import dataclasses
import itertools
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import casener.corpus
from casener.corpus import (
    AnnotatedSentence,
    Corpus,
    CorpusError,
    DOCSTART,
    EntitySpan,
    ParseError,
    Scheme,
    Sentence,
    TagSequence,
    TagValidationError,
    _detect,
    _to_iobes,
    extract_spans,
    label_space_rules,
    parse_conll,
    read_conll_file,
    spans_to_tags,
    validate_tags,
    write_conll,
)
from casener.synth import default_config, generate
from casener.transforms import CaseVariant, augment, make_variant
from conftest import conll_texts, random_corpus, random_tagging
from oracles import (
    _legal_end_reference,
    _legal_start_reference,
    _legal_transition_reference,
    check_tokens_reference,
    conlleval_spans,
    iob_tags_reference,
    validate_tags_reference,
)

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
            TagSequence(("B",))  # malformed tag
        assert TagSequence(("S-ORG",)).scheme is Scheme.IOBES

    @pytest.mark.parametrize("scheme", [Scheme.IOB1, Scheme.IOB2])
    def test_tag_sequence_holds_iobes_only(self, scheme):
        """IOB1 and IOB2 tags exist only in `parse_conll`'s input."""
        for tags in [("O",), ("S-ORG",), ("I-ORG", "B-ORG"),
                     ("B-ORG", "I-ORG")]:
            with pytest.raises(TagValidationError, match="IOBES"):
                TagSequence(tags, scheme)
            with pytest.raises(TagValidationError, match="IOBES"):
                validate_tags(tags, scheme)

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

    @pytest.mark.parametrize("make, field, other", [
        (lambda: Sentence(("New", "York")), "tokens", ("York",)),
        (lambda: TagSequence(("B-LOC", "E-LOC")), "tags", ("O",)),
        (lambda: AnnotatedSentence(Sentence(("Rome",)), TagSequence(("S-LOC",))),
         "gold", TagSequence(("O",))),
        (lambda: Corpus((AnnotatedSentence(Sentence(("a",)),
                                           TagSequence(("O",))),), "p"),
         "sentences", ()),
        (lambda: EntitySpan(1, 2, "ORG"), "end", 3),
    ])
    def test_value_types_are_slotted_frozen_values(self, make, field, other):
        value = make()
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, other)
        # A name that is no field has no slot to go to.  Python 3.11 raises
        # TypeError here: the generated __setattr__ names the class that
        # slots=True replaced.
        with pytest.raises((AttributeError, TypeError)):
            setattr(value, "extra", other)
        copy = make()
        assert copy is not value and copy == value and hash(copy) == hash(value)
        changed = dataclasses.replace(value, **{field: other})
        assert changed != value

    def test_corpus_equality_ignores_provenance(self):
        sentences = (AnnotatedSentence(Sentence(("a",)), TagSequence(("O",))),)
        assert Corpus(sentences, "one") == Corpus(sentences, "two")
        assert hash(Corpus(sentences, "one")) == hash(Corpus(sentences, "two"))

    def test_package_built_corpora_leave_provenance_empty(self, tmp_path):
        # Reports name the data source; no corpus the package builds
        # carries a note of its own.
        text = "-DOCSTART- O\n\nA B-LOC\nB I-LOC\n\nC O\n\n"
        path = tmp_path / "data.conll"
        path.write_text(text, encoding="utf-8")
        parsed = parse_conll(text)
        built = [parsed, read_conll_file(str(path)), augment(parsed),
                 *(make_variant(parsed, variant) for variant in CaseVariant),
                 *generate(default_config(seed=3, train_sentences=20,
                                          test_sentences=5))]
        assert [corpus.provenance for corpus in built] == [""] * len(built)

    def test_entity_spans_order_by_start_end_then_type(self):
        spans = [EntitySpan(2, 3, "LOC"), EntitySpan(0, 4, "PER"),
                 EntitySpan(0, 1, "PER"), EntitySpan(0, 1, "LOC")]
        assert sorted(spans) == [
            EntitySpan(0, 1, "LOC"), EntitySpan(0, 1, "PER"),
            EntitySpan(0, 4, "PER"), EntitySpan(2, 3, "LOC"),
        ]
        assert EntitySpan(0, 1, "LOC") < EntitySpan(0, 1, "PER")
        assert EntitySpan(0, 9, "ZZZ") < EntitySpan(1, 1, "AAA")


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
        # A marker also ends a sentence that no blank line ended.
        text = (
            "-DOCSTART- O\n\nA O\n\nB S-LOC\n-DOCSTART- -X- O\nC O\nD O\n\n"
        )
        corpus = parse_conll(text)
        tokens = [ann.sentence.tokens for ann in corpus]
        assert tokens == [("A",), ("B",), ("C", "D")]
        assert [ann.gold.tags for ann in corpus] == [("O",), ("S-LOC",), ("O", "O")]
        assert not any(DOCSTART in t for ann in corpus for t in ann.sentence.tokens)

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
        with pytest.raises(TagValidationError) as info:
            parse_conll(text)
        assert str(info.value) == (  # names no inferring line outside IOB1
            "sentence 1 (starting at line 1): position 1: transition "
            "'S-ORG' -> 'I-ORG' is illegal in scheme IOBES"
        )

    def test_crlf_and_column_selection(self):
        # The token is the first column and the tag the last.
        text = "Alpha NNP I-NP S-LOC\r\nbeta NN I-NP O\r\n\r\n"
        corpus = parse_conll(text)
        assert corpus.sentences[0].sentence.tokens == ("Alpha", "beta")
        assert corpus.sentences[0].gold.tags == ("S-LOC", "O")

    def test_file_drops_a_leading_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.conll"
        path.write_text("\ufeffEU S-ORG\nrejects O\n\n", encoding="utf-8")
        [ann] = read_conll_file(str(path))
        assert ann.sentence.tokens == ("EU", "rejects")

    def test_one_column_line_is_malformed(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_conll("token\n")

    def test_iob1_error_names_the_line_that_made_it_iob1(self):
        # An IOB2 file with one type typo: the orphan I-ORG on line 7 makes
        # the input IOB1, in which sentence 1 is illegal.
        text = "John B-PER\nSmith I-PER\n\nin O\n\nNew B-LOC\nYork I-ORG\n\n"
        with pytest.raises(TagValidationError) as info:
            parse_conll(text)
        assert str(info.value) == (
            "sentence 1 (starting at line 1): position 0: tag 'B-PER' cannot "
            "open a sentence in scheme IOB1; IOB1 was inferred from line 7, "
            "where 'I-ORG' continues no chunk"
        )


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
    def test_prefixes_are_read_without_resplitting(self, monkeypatch):
        calls = []
        real = casener.corpus.split_tag
        monkeypatch.setattr(casener.corpus, "split_tag",
                            lambda tag: calls.append(tag) or real(tag))
        assert _detect([["B-LOC", "I-LOC", "O"]] * 5)[0] is Scheme.IOB2
        assert calls == []
        # IOB2 input: each line's tag once, then each sentence's distinct
        # tags once in `_to_iobes` and once more, rewritten, in
        # `validate_tags`.
        parse_conll("a B-LOC\nb I-LOC\nc O\nd O\n\ne B-PER\n")
        assert len(calls) == 5 + (3 + 1) + (3 + 1)

    def test_iobes_detected_by_e_or_s(self):
        assert _detect([["O", "S-LOC"]])[0] is Scheme.IOBES
        assert _detect([["B-LOC", "E-LOC"]])[0] is Scheme.IOBES

    def test_iob1_detected_by_orphan_i(self):
        assert _detect([["I-LOC", "O"]])[0] is Scheme.IOB1
        assert _detect([["O", "I-LOC", "I-ORG"]])[0] is Scheme.IOB1

    def test_iob2_default(self):
        assert _detect([["O", "B-LOC", "I-LOC"]])[0] is Scheme.IOB2
        assert _detect([["O", "O"]])[0] is Scheme.IOB2
        assert _detect([])[0] is Scheme.IOB2


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
    """IOB1 and IOB2 input is rewritten as IOBES by `parse_conll`."""

    def test_iob2_to_iobes(self):
        corpus = parse_conll("a B-ORG\nb I-ORG\nc I-ORG\n\n")
        assert corpus.sentences[0].gold.tags == ("B-ORG", "I-ORG", "E-ORG")

    def test_single_token_becomes_s(self):
        corpus = parse_conll("a B-LOC\n\n")
        assert corpus.sentences[0].gold.tags == ("S-LOC",)

    def test_iob1_adjacent_chunks(self):
        corpus = parse_conll("a I-LOC\nb B-LOC\nc O\n\n")
        assert corpus.sentences[0].gold.tags == ("S-LOC", "S-LOC", "O")

    @pytest.mark.parametrize("scheme", [Scheme.IOB1, Scheme.IOB2])
    def test_every_short_sequence_keeps_its_conlleval_spans(self, scheme):
        """Every `scheme`-valid sequence of up to 6 tokens over two types,
        written as one CoNLL file, parses to IOBES tags with the chunks
        conlleval reads in the input."""
        alphabet = ["O", "B-A", "I-A", "B-B", "I-B"]
        valid = [
            candidate
            for length in range(1, 7)
            for candidate in itertools.product(alphabet, repeat=length)
            if _outcome(validate_tags_reference, candidate, scheme) is None
        ]
        assert len(valid) == 2910  # one per set of spans
        text = "".join(
            "".join(f"t {tag}\n" for tag in tags) + "\n" for tags in valid
        )
        corpus = parse_conll(text)
        assert len(corpus) == len(valid)
        for raw, ann in zip(valid, corpus):
            assert ann.gold.scheme is Scheme.IOBES
            assert [
                (s.start, s.end, s.entity_type) for s in extract_spans(ann.gold)
            ] == conlleval_spans(raw), raw


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
        assert spans_to_tags({EntitySpan(3, 5, "ORG")}, 6).tags == (
            "O", "O", "O", "B-ORG", "I-ORG", "E-ORG",
        )
        assert spans_to_tags(set(), 4).tags == ("O",) * 4

    def test_spans_to_tags_rejects_bad_input(self):
        with pytest.raises(CorpusError):
            spans_to_tags([EntitySpan(0, 1, "A"), EntitySpan(1, 2, "A")], 4)
        with pytest.raises(CorpusError):
            spans_to_tags([EntitySpan(2, 5, "A")], 4)
        with pytest.raises(CorpusError, match="at least one token"):
            spans_to_tags([], 0)

    def test_span_roundtrip_random(self, rng):
        for _ in range(100):
            length = rng.randint(1, 10)
            tags = random_tagging(rng, length)
            spans = extract_spans(tags)
            assert extract_spans(spans_to_tags(spans, length)) == spans


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
    two entity types) and rejects everything else.  IOBES encodings come
    from `spans_to_tags` and are checked by `validate_tags`; IOB1 and IOB2
    ones come from the reference writer and are checked by `_to_iobes`."""
    types = ("A", "B")
    prefixes = "BIES" if scheme is Scheme.IOBES else "BI"
    check = validate_tags if scheme is Scheme.IOBES else _to_iobes
    alphabet = ["O"] + [f"{p}-{t}" for p in prefixes for t in types]
    for length in range(1, 6 if scheme is not Scheme.IOBES else 5):
        legal = {
            spans_to_tags(spans, length).tags if scheme is Scheme.IOBES
            else iob_tags_reference(spans, length, scheme)
            for spans in _all_span_sets(length, types)
        }
        for candidate in itertools.product(alphabet, repeat=length):
            expected = candidate in legal
            actual = _outcome(check, candidate, scheme) is None
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
    assert spans_to_tags(spans, len(tags)).tags == tuple(tags)


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


@given(st.lists(st.sampled_from(_TAG_PIECES), max_size=8))
def test_validate_tags_matches_reference(tags):
    tags = tuple(tags)
    expected = _outcome(validate_tags_reference, tags, Scheme.IOBES)
    assert _outcome(validate_tags, tags, Scheme.IOBES) == expected
    assert expected is None or expected[0] is TagValidationError


@pytest.mark.parametrize("scheme", [Scheme.IOB1, Scheme.IOB2])
def test_to_iobes_checks_like_reference(scheme):
    """`_to_iobes` raises the reference validator's error, or none, on
    every non-empty sequence of up to 4 tags (a parse yields no empty
    one), and what it accepts it rewrites as the IOBES tag sequence of the
    chunks conlleval reads."""
    for length in range(1, 5):
        for tags in itertools.product(_TAG_PIECES, repeat=length):
            expected = _outcome(validate_tags_reference, tags, scheme)
            assert _outcome(_to_iobes, tags, scheme) == expected, tags
            if expected is None:
                spans = extract_spans(_to_iobes(tags, scheme))
                assert [(s.start, s.end, s.entity_type)
                        for s in spans] == conlleval_spans(tags), tags


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
    parsed.clear()
    space = ("O", "B-PER", "I-PER", "E-PER", "S-PER")
    label_space_rules(space)
    assert parsed == Counter(space)


@given(st.lists(st.text("ABC-", min_size=1, max_size=3), min_size=1,
                max_size=3, unique=True)
       .map(lambda types: ["O"] + [f"{p}-{t}" for t in types for p in "BIES"])
       .flatmap(st.permutations))
def test_label_space_rules_match_reference(tags):
    """The decoding constraints of a label space of 1-3 entity types, in
    any order, are the reference's rules for every tag and pair."""
    start, trans, end = label_space_rules(tags)
    assert start == [_legal_start_reference(t, Scheme.IOBES) for t in tags]
    assert end == [_legal_end_reference(t, Scheme.IOBES) for t in tags]
    assert trans == [
        [_legal_transition_reference(a, b, Scheme.IOBES) for b in tags]
        for a in tags
    ]


@pytest.mark.parametrize("tags, message", [
    (("O", "X-A"),
     "position 1: prefix 'X' of tag 'X-A' is not part of scheme IOBES"),
    (("B-A", "E-A"), 'the tag set lacks "O"'),
])
def test_label_space_rules_reject_a_non_iobes_tag_or_no_o(tags, message):
    # `crf.load` and `casener tag` report these texts (test_container.py).
    with pytest.raises(TagValidationError) as caught:
        label_space_rules(tags)
    assert str(caught.value) == message


def _split_tag_references(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "split_tag"
            or isinstance(node, ast.Attribute) and node.attr == "split_tag"
            or isinstance(node, ast.alias) and node.name == "split_tag"]


def test_only_corpus_parses_tags():
    """`corpus` is the one module that parses a tag or knows the IOBES
    rules, so no other module of the package names `split_tag`."""
    package = Path(casener.corpus.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        lines = _split_tag_references(ast.parse(path.read_text("utf-8")))
        if path.name == "corpus.py":
            assert lines, "corpus.py no longer parses tags with split_tag"
        else:
            found += [f"{path.name}:{line}" for line in lines]
    assert found == []
