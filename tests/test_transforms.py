import random

from hypothesis import example, given, strategies as st

from casener.corpus import AnnotatedSentence, Corpus, Scheme, Sentence, TagSequence, extract_spans
from casener.transforms import (
    CaseVariant,
    augment,
    make_variant,
    to_lower,
    to_upper,
)
from conftest import iobes_taggings, random_corpus

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


# A few tokens, so that drawn sentences repeat; "İ", "ẞ" and "ﬁ" change
# length or spelling under Unicode case mapping.
_SHARED_TOKENS = ["the", "New", "YORK", "123", "İ", "ẞ", "ﬁ"]


@st.composite
def annotated(draw) -> AnnotatedSentence:
    tokens = draw(st.lists(st.sampled_from(_SHARED_TOKENS), min_size=1,
                           max_size=3))
    return AnnotatedSentence(Sentence(tuple(tokens)),
                             draw(iobes_taggings(len(tokens))))


@st.composite
def corpora_with_repeats(draw) -> Corpus:
    """Up to 12 sentences drawn from a pool of up to 4; a repeat is either
    the pool's object or an equal copy of it."""
    pool = draw(st.lists(annotated(), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                          min_size=1, max_size=12))
    return Corpus(
        tuple(AnnotatedSentence(Sentence(ann.sentence.tokens),
                                TagSequence(ann.gold.tags)) if copy else ann
              for ann, copy in picks)
    )


def _per_sentence_variant(corpus: Corpus, variant: CaseVariant) -> Corpus:
    """`make_variant` as one transform per occurrence, sharing nothing."""
    transform = to_lower if variant is CaseVariant.LOWER else to_upper
    return Corpus(tuple(AnnotatedSentence(transform(ann.sentence), ann.gold)
                        for ann in corpus))


def _key(ann: AnnotatedSentence) -> tuple:
    return ann.sentence.tokens, ann.gold.tags


def _shared_exactly_among_equal(out, inputs) -> bool:
    """True if out[i] is out[j] exactly when inputs i and j are equal."""
    return all(
        (a is b) == (_key(x) == _key(y))
        for a, x in zip(out, inputs)
        for b, y in zip(out, inputs)
    )


_SAME_TOKENS_OTHER_TAGS = Corpus((
    AnnotatedSentence(Sentence(("New", "YORK")), TagSequence(("B-LOC", "E-LOC"))),
    AnnotatedSentence(Sentence(("New", "YORK")), TagSequence(("O", "S-ORG"))),
    AnnotatedSentence(Sentence(("New", "YORK")), TagSequence(("B-LOC", "E-LOC"))),
))


@given(corpora_with_repeats())
@example(_SAME_TOKENS_OTHER_TAGS)
def test_make_variant_shares_one_object_per_distinct_sentence(corpus):
    for variant in (CaseVariant.LOWER, CaseVariant.UPPER):
        out = make_variant(corpus, variant)
        expected = _per_sentence_variant(corpus, variant)
        assert out.sentences == expected.sentences
        assert _shared_exactly_among_equal(out, corpus)
        again = make_variant(corpus, variant)
        assert again.sentences == out.sentences
        assert not {id(a) for a in again} & {id(a) for a in out}
        assert not ({id(a.sentence) for a in again}
                    & {id(a.sentence) for a in out})


# "New", "new" and "NEW" case to one string under either variant.
_CASE_COLLISIONS = Corpus((
    AnnotatedSentence(Sentence(("New", "york", "new")),
                      TagSequence(("B-LOC", "E-LOC", "O"))),
    AnnotatedSentence(Sentence(("NEW", "York")), TagSequence(("B-LOC", "E-LOC"))),
))


@given(corpora_with_repeats())
@example(_CASE_COLLISIONS)
def test_make_variant_shares_one_string_per_distinct_cased_token(corpus):
    for variant in (CaseVariant.LOWER, CaseVariant.UPPER):
        first: dict[str, str] = {}
        for ann in make_variant(corpus, variant):
            for token in ann.sentence.tokens:
                assert first.setdefault(token, token) is token


@given(corpora_with_repeats())
@example(_SAME_TOKENS_OTHER_TAGS)
def test_augment_shares_one_object_per_distinct_sentence(corpus):
    n = len(corpus)
    out = augment(corpus)
    lower = _per_sentence_variant(corpus, CaseVariant.LOWER)
    upper = _per_sentence_variant(corpus, CaseVariant.UPPER)
    assert out.sentences == corpus.sentences + lower.sentences + upper.sentences
    assert all(a is b for a, b in zip(out, corpus))
    for copies in (out.sentences[n : 2 * n], out.sentences[2 * n :]):
        assert _shared_exactly_among_equal(copies, corpus)
    again = augment(corpus)
    assert not {id(a) for a in again.sentences[n:]} & {
        id(a) for a in out.sentences[n:]
    }
