import hashlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from casener.corpus import (
    AnnotatedSentence,
    Corpus,
    Scheme,
    Sentence,
    TagSequence,
)
from casener.crf import CrfModel, _emissions
from casener.features import (
    WINDOW,
    FeatureMap,
    TemplateSet,
    extract,
    fit_feature_map,
    word_shape,
)
from casener.harness import Strategy, training_view
from casener.synth import default_config, generate
from casener.transforms import to_lower, to_upper
from conftest import encode, iobes_taggings, random_corpus, random_sentence
from oracles import (
    extract_reference, feature_rows_reference, fit_feature_map_reference,
    observed_reference, packed_positions,
)

NYC = Sentence(("New", "York", "City"))


def test_word_shape():
    assert word_shape("York") == "Xxxx"
    assert word_shape("YORK") == "XXXX"
    assert word_shape("Acknowledgement") == "Xxxxx"
    assert word_shape("A1-b2") == "Xd#xd"
    assert word_shape("ABCDEFG") == "XXXX"


def test_case_aware_york_features():
    feats = extract(NYC, 1, TemplateSet.CASE_AWARE)
    assert "w0=york" in feats
    assert "sh0=Xxxx" in feats
    assert "cap0=InitCap" in feats
    assert "w-1=new" in feats
    assert "w1=city" in feats
    assert "pre2=yo" in feats
    assert "suf1=k" in feats


def test_uppercased_sentence_keeps_lowercased_identity():
    feats = extract(to_upper(NYC), 1, TemplateSet.CASE_AWARE)
    assert "cap0=AllCap" in feats
    assert "w0=york" in feats
    assert "sh0=XXXX" in feats


def test_boundary_sentinels():
    feats = extract(NYC, 0, TemplateSet.CASE_AWARE)
    assert "w-1=<s>" in feats and "w-2=<s>" in feats
    assert "cap-1=<s>" in feats
    assert "bos" in feats
    feats_end = extract(NYC, 2, TemplateSet.CASE_AWARE)
    assert "w1=</s>" in feats_end and "w2=</s>" in feats_end
    assert "cap1=</s>" in feats_end
    assert "bos" not in feats_end


def test_case_agnostic_drops_shape_and_cap():
    feats = extract(NYC, 1, TemplateSet.CASE_AGNOSTIC)
    assert not any(f.startswith(("sh", "cap")) for f in feats)
    assert "w0=york" in feats


def test_position_out_of_range():
    with pytest.raises(ValueError):
        extract(NYC, 3, TemplateSet.CASE_AWARE)
    with pytest.raises(ValueError):
        extract(NYC, -1, TemplateSet.CASE_AWARE)


def test_case_agnostic_invariance(rng):
    for _ in range(50):
        s = random_sentence(rng)
        i = rng.randrange(len(s))
        lowered = to_lower(s)
        uppered = to_upper(s)
        base = extract(s, i, TemplateSet.CASE_AGNOSTIC)
        assert extract(lowered, i, TemplateSet.CASE_AGNOSTIC) == base
        if to_lower(uppered) == lowered:
            assert extract(uppered, i, TemplateSet.CASE_AGNOSTIC) == base


def test_window_locality(rng):
    for _ in range(30):
        tokens = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        s = Sentence(tuple(tokens))
        j = rng.randrange(len(tokens))
        changed = list(tokens)
        changed[j] = "CHANGED"
        s2 = Sentence(tuple(changed))
        for i in range(len(tokens)):
            same = extract(s, i, TemplateSet.CASE_AWARE) == extract(
                s2, i, TemplateSet.CASE_AWARE
            )
            if abs(i - j) > 2:
                assert same
            else:
                assert not same  # the identity feature at that offset moved


class TestFeatureMap:
    def test_fit_contains_expected_entries(self):
        from casener.corpus import parse_conll

        corpus = parse_conll("I O\nlive O\nin O\nNew B-ORG\nYork I-ORG\nCity E-ORG\n\n")
        fmap = fit_feature_map(corpus, TemplateSet.CASE_AWARE)
        assert fmap.feature_index("w0=york") is not None
        assert "B-ORG" in fmap.tags
        assert fmap.tags[0] == "O"
        assert fmap.tags == ("O", "B-ORG", "E-ORG", "I-ORG", "S-ORG")

    def test_fit_deterministic_under_shuffle(self, rng):
        corpus = random_corpus(rng, sentences=15)
        shuffled = list(corpus.sentences)
        rng.shuffle(shuffled)
        a = fit_feature_map(corpus, TemplateSet.CASE_AWARE)
        b = fit_feature_map(Corpus(tuple(shuffled)), TemplateSet.CASE_AWARE)
        assert a == b
        assert list(a.features) == sorted(a.features)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_feature_map(Corpus(()), TemplateSet.CASE_AWARE)

    def test_frozen_map_never_grows(self, rng):
        corpus = random_corpus(rng, sentences=5)
        fmap = fit_feature_map(corpus, TemplateSet.CASE_AWARE)
        before = fmap.num_features
        assert fmap.feature_index("w0=never-seen-token") is None
        assert fmap.num_features == before
        with pytest.raises(AttributeError):
            fmap.features = ()

    def test_bidirectional_and_unknown_tag(self):
        fmap = FeatureMap(("f1", "f2"), ("O", "S-LOC"))
        assert fmap.feature_index("f2") == 1
        assert fmap.tag_index("S-LOC") == 1
        with pytest.raises(ValueError):
            fmap.tag_index("B-LOC")
        with pytest.raises(ValueError):
            FeatureMap(("dup", "dup"), ("O",))


# Tokens equal to the boundary sentinels, and tokens whose lowercase form
# changes length ("İ" -> "i̇") or letter ("ẞ" -> "ß") or that have no
# single-letter uppercase ("ﬁ"), next to plain ones and arbitrary text.
_TABLE_TOKENS = st.one_of(
    st.sampled_from(["<s>", "</s>", "<S>", "İ", "ẞ", "ﬁ", "ﬁnance", "Straße",
                     "New", "YORK", "city", "A1-b2", "x"]),
    st.text(st.characters(blacklist_categories=("Cs", "Z", "Cc")),
            min_size=1, max_size=6)
    .filter(lambda t: not any(c.isspace() for c in t)),
)


@st.composite
def _annotated(draw):
    """A sentence cut into O runs and entity spans of one to six tokens."""
    tokens = draw(st.lists(_TABLE_TOKENS, min_size=1, max_size=6))
    return AnnotatedSentence(
        Sentence(tuple(tokens)), draw(iobes_taggings(len(tokens)))
    )


def _corpus(*sentences):
    return Corpus(tuple(
        AnnotatedSentence(
            Sentence(tokens), TagSequence(("O",) * len(tokens), Scheme.IOBES)
        )
        for tokens in sentences
    ))


@pytest.mark.parametrize("template_set", list(TemplateSet))
@given(st.lists(_annotated(), min_size=1, max_size=6).map(
    lambda a: Corpus(tuple(a))
))
@example(_corpus(("<s>",), ("İ", "ẞ", "ﬁ"), ("a", "</s>", "<s>")))
@example(_corpus(("=", "w0=a", "x=", "bos", "</s>")))
def test_feature_table_matches_extract(template_set, corpus):
    """`extract`, fit_feature_map and the product of _encode's two feature
    factors equal spelling out and looking up the templates position by
    position (`extract_reference`), in the packed layout: the product is
    0/1 and each of its rows sorted holds the reference row."""
    for ann in corpus:
        for i in range(len(ann.sentence)):
            assert (extract(ann.sentence, i, template_set)
                    == extract_reference(ann.sentence, i, template_set))
    fmap = fit_feature_map(corpus, template_set)
    assert fmap == fit_feature_map_reference(corpus, template_set)
    enc = encode(corpus, fmap, template_set)
    # One type per window offset in every row of the position factor.
    assert (np.diff(enc.offset_types.indptr) == 2 * WINDOW + 1).all()
    rows = (enc.offset_types @ enc.type_features).tocsr()
    rows.sort_indices()
    assert (rows.data == 1.0).all()
    indices, indptr = feature_rows_reference(corpus, fmap, template_set)
    reference = [indices[a:b] for a, b in zip(indptr, indptr[1:])]
    packed = [reference[p] for p in
              packed_positions([len(ann.sentence) for ann in corpus])]
    assert np.array_equal(rows.indices, np.concatenate(packed))
    assert np.array_equal(np.diff(rows.indptr), [len(r) for r in packed])


@pytest.mark.parametrize("template_set", list(TemplateSet))
@given(
    st.lists(
        st.tuples(st.one_of(_annotated(), _TABLE_TOKENS.flatmap(
            lambda token: iobes_taggings(1).map(
                lambda tags: AnnotatedSentence(Sentence((token,)), tags)
            )
        )), st.integers(1, 3)),
        min_size=1, max_size=6,
    ),
)
@example([(s, 2) for s in _corpus(("<s>",), ("İ",), ("ẞ",), ("ﬁ",))])
@example([(s, 1) for s in _corpus(("<s>", "İ", "ẞ", "ﬁ"), ("ﬁ",))])
def test_observed_matches_reference_gold_counts(template_set, weighted):
    """_encode's `observed` equals, bit for bit, the count-weighted gold
    statistics summed position by position over `extract_reference`'s
    features (`observed_reference`), one-token sentences included."""
    corpus = Corpus(tuple(ann for ann, _ in weighted))
    counts = np.array([count for _, count in weighted], dtype=np.float64)
    fmap = fit_feature_map(corpus, template_set)
    enc = encode(corpus, fmap, template_set, counts)
    want = observed_reference(corpus, fmap, template_set, counts)
    assert enc.observed.tobytes() == want.tobytes()


def _with_entity(corpus):
    """`corpus` and a one-token LOC sentence, so its tag set has K = 5."""
    return Corpus(corpus.sentences + (AnnotatedSentence(
        Sentence(("Oslo",)), TagSequence(("S-LOC",), Scheme.IOBES)
    ),))


@pytest.mark.parametrize("template_set", list(TemplateSet))
@given(
    st.lists(_annotated(), min_size=1, max_size=4).map(
        lambda a: Corpus(tuple(a))
    ),
    st.lists(_TABLE_TOKENS, min_size=1, max_size=6).map(
        lambda tokens: Sentence(tuple(tokens))
    ),
    st.integers(0, 2**32 - 1),
)
@example(_with_entity(_corpus(("<s>",), ("İ", "ẞ", "ﬁ"), ("a", "</s>", "<s>"))),
         Sentence(("<s>", "İ", "ẞ", "ﬁ", "</s>")), 0)
@example(_with_entity(_corpus(("ﬁ",), ("New", "York"))), Sentence(("ﬁ",)), 1)
@example(_with_entity(_corpus(("İ",))), Sentence(("ẞ",)), 2)
@example(_corpus(("İ", "ẞ"), ("ﬁ",)), Sentence(("ﬁ",)), 3)
def test_emissions_sum_the_reference_rows(template_set, corpus, sentence, seed):
    """`_emissions` gives, bit for bit, `emission[row].sum(axis=0)` for the
    sorted mapped `extract_reference` features of each position (zeros
    where none is mapped).  The weights span twelve orders of magnitude,
    so another summation order would change the last bits.

    With one tag (a corpus without entities) numpy sums the lone weight
    column pairwise, over the mapped rows in that expression and over the
    slot-padded row in `_emissions`, so there the two agree to rounding;
    such a model has a single tagging."""
    fmap = fit_feature_map(corpus, template_set)
    gen = np.random.default_rng(seed)
    k = fmap.num_tags
    emission = (gen.normal(size=(fmap.num_features, k))
                * 10.0 ** gen.uniform(-6, 6, size=(fmap.num_features, 1)))
    model = CrfModel(fmap, template_set, emission, np.zeros(k), np.zeros(k),
                     np.zeros((k, k)))
    indices, indptr = feature_rows_reference(
        _corpus(sentence.tokens), fmap, template_set
    )
    rows = [emission[indices[a:b]] for a, b in zip(indptr, indptr[1:])]
    want = np.array([r.sum(axis=0) if len(r) else np.zeros(k) for r in rows])
    got = _emissions(model, sentence)
    if k > 1:
        assert got.tobytes() == want.tobytes()
    else:
        scale = np.array([np.abs(r).sum() for r in rows])
        assert (np.abs(got - want)[:, 0]
                <= 64 * np.finfo(float).eps * scale).all()


# Greek capital sigma lowercases to a final or a medial form by context.
_CASED_TOKENS = st.one_of(
    st.sampled_from(["ΟΔΟΣ", "ΣΟΦΟΣ", "Σ"]), _TABLE_TOKENS
)


@given(st.lists(_CASED_TOKENS, min_size=1, max_size=6).map(
    lambda tokens: Sentence(tuple(tokens))
))
@example(Sentence(("<s>", "İ", "ẞ", "ﬁ", "ΟΔΟΣ")))
def test_case_agnostic_features_ignore_lowercasing(sentence):
    """A caseless model tags a sentence and its lowercased copy alike, so
    it needs no test-time lowercasing: the features and a caseless model's
    emission scores are the same for both."""
    lowered = to_lower(sentence)
    for i in range(len(sentence)):
        assert (extract(sentence, i, TemplateSet.CASE_AGNOSTIC)
                == extract(lowered, i, TemplateSet.CASE_AGNOSTIC))
    fmap = fit_feature_map(_with_entity(_corpus(sentence.tokens)),
                           TemplateSet.CASE_AGNOSTIC)
    k = fmap.num_tags
    emission = np.random.default_rng(0).normal(size=(fmap.num_features, k))
    model = CrfModel(fmap, TemplateSet.CASE_AGNOSTIC, emission, np.zeros(k),
                     np.zeros(k), np.zeros((k, k)))
    assert (_emissions(model, sentence).tobytes()
            == _emissions(model, lowered).tobytes())


def test_default_feature_maps_are_pinned():
    """The feature maps of the seed-42 training views hash as recorded
    (sha256 of the newline-joined names), which pins every feature name
    and tag the featurizer keeps."""
    train, _ = generate(default_config(42))

    def digest(strings):
        return hashlib.sha256("\n".join(strings).encode("utf-8")).hexdigest()

    tags = "191cb7a21247baad6c0335e616334c994f33af0b76578226dac437dfc90de437"
    expected = {
        Strategy.BASELINE:
            "9b0121facc6153f40492b4ecb1088a2d299cf27ddeb4fea9877d97593f23bfe0",
        Strategy.CASELESS:
            "14a83feb17aa77f32e4dfa6a53be512d6dddb795c38916a74d7488418709001b",
        Strategy.AUGMENT:
            "1398c8c36925bd7c4772907249213f52b33722260e6a6fbef7f471d5d5692553",
    }
    for strategy, features in expected.items():
        fmap = fit_feature_map(*training_view(train, strategy))
        assert (digest(fmap.features), digest(fmap.tags)) == (features, tags)
