import random

from hypothesis import given, strategies as st

from casener.corpus import AnnotatedSentence, Corpus, Scheme, Sentence, TagSequence, extract_spans
from casener.transforms import (
    CaseVariant,
    augment,
    make_variant,
    to_lower,
    to_upper,
)
from conftest import random_corpus

TABLE = Sentence(("I", "live", "in", "New", "York", "City"))

token = st.text(
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    min_size=1,
    max_size=6,
).filter(lambda s: not any(c.isspace() for c in s))
sentences = st.lists(token, min_size=1, max_size=6).map(
    lambda toks: Sentence(tuple(toks))
)


def test_table_rows():
    assert to_lower(TABLE).tokens == ("i", "live", "in", "new", "york", "city")
    assert to_upper(TABLE).tokens == ("I", "LIVE", "IN", "NEW", "YORK", "CITY")


def test_uncased_tokens_are_fixed_points():
    s = Sentence(("123", "!!"))
    assert to_lower(s) == s
    assert to_upper(s) == s


def test_sharp_s_changes_character_count_not_token_count():
    s = Sentence(("straße",))
    up = to_upper(s)
    assert up.tokens == ("STRASSE",)
    assert len(up) == len(s)


@given(sentences)
def test_case_transforms_idempotent(s):
    assert to_lower(to_lower(s)) == to_lower(s)
    assert to_upper(to_upper(s)) == to_upper(s)


@given(st.lists(st.text(st.characters(min_codepoint=33, max_codepoint=126),
                        min_size=1, max_size=6), min_size=1, max_size=6))
def test_lower_of_upper_equals_lower_on_ascii(tokens):
    s = Sentence(tuple(tokens))
    assert to_lower(to_upper(s)) == to_lower(to_lower(s))


def test_transform_annotated_preserves_tags():
    ann = AnnotatedSentence(
        TABLE, TagSequence(("O", "O", "O", "B-ORG", "I-ORG", "E-ORG"), Scheme.IOBES)
    )
    corpus = Corpus((ann,))
    (upper,) = make_variant(corpus, CaseVariant.UPPER)
    assert upper.sentence.tokens == ("I", "LIVE", "IN", "NEW", "YORK", "CITY")
    assert upper.gold is ann.gold
    assert make_variant(corpus, CaseVariant.ORIGINAL) is corpus


def test_label_and_span_preservation_random(rng):
    corpus = random_corpus(rng, sentences=30)
    for variant in CaseVariant:
        transformed = make_variant(corpus, variant)
        assert len(transformed) == len(corpus)
        for before, after in zip(corpus, transformed):
            assert after.gold.tags == before.gold.tags
            assert len(after.sentence) == len(before.sentence)
            assert extract_spans(after.gold) == extract_spans(before.gold)


def test_augment_order_and_size(rng):
    corpus = random_corpus(rng, sentences=2)
    tripled = augment(corpus)
    assert len(tripled) == 6
    sents = tripled.sentences
    assert sents[0] == corpus.sentences[0]
    assert sents[1] == corpus.sentences[1]
    assert sents[2].sentence == to_lower(corpus.sentences[0].sentence)
    assert sents[3].sentence == to_lower(corpus.sentences[1].sentence)
    assert sents[4].sentence == to_upper(corpus.sentences[0].sentence)
    assert sents[5].sentence == to_upper(corpus.sentences[1].sentence)


def test_augment_empty():
    assert len(augment(Corpus(()))) == 0


def test_augment_keeps_duplicates():
    ann = AnnotatedSentence(
        Sentence(("already", "lower")), TagSequence(("O", "O"), Scheme.IOBES)
    )
    tripled = augment(Corpus((ann,)))
    assert len(tripled) == 3
    assert tripled.sentences[0].sentence == tripled.sentences[1].sentence


def test_every_span_set_appears_three_times(rng):
    corpus = random_corpus(rng, sentences=10)
    tripled = augment(corpus)
    n = len(corpus)
    for i, ann in enumerate(corpus):
        spans = extract_spans(ann.gold)
        assert extract_spans(tripled.sentences[i].gold) == spans
        assert extract_spans(tripled.sentences[i + n].gold) == spans
        assert extract_spans(tripled.sentences[i + 2 * n].gold) == spans


def test_make_variant_idempotent_and_original_identity(rng):
    corpus = random_corpus(rng, sentences=10)
    lower = make_variant(corpus, CaseVariant.LOWER)
    assert make_variant(lower, CaseVariant.LOWER).sentences == lower.sentences
    assert make_variant(corpus, CaseVariant.ORIGINAL) is corpus
