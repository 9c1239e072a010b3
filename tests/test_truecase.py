import gzip
import importlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from casener.corpus import (
    AnnotatedSentence,
    Corpus,
    Scheme,
    Sentence,
    TagSequence,
)
from casener.transforms import to_lower, to_upper
from casener.truecase import (
    CaseClass,
    Truecaser,
    TruecaserFormatError,
    classify_case,
    train_truecaser,
    truecase,
)
from conftest import (
    garbage_containers, mutated_container, old_version_blob, random_corpus,
)
from oracles import train_truecaser_reference


def ann(text: str) -> AnnotatedSentence:
    tokens = tuple(text.split())
    return AnnotatedSentence(
        Sentence(tokens), TagSequence(("O",) * len(tokens), Scheme.IOBES)
    )


class TestClassify:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("USA", CaseClass.ALL_CAP),
            ("the", CaseClass.LOWER),
            ("York", CaseClass.INIT_CAP),
            ("123", CaseClass.NO_CASE),
            ("!!", CaseClass.NO_CASE),
            ("iPhone", CaseClass.MIXED),
            ("McDonald", CaseClass.MIXED),
            ("I", CaseClass.INIT_CAP),  # a single cased char is not ALL_CAP
            ("e-Mail", CaseClass.MIXED),
            ("40kg", CaseClass.LOWER),
        ],
    )
    def test_classes(self, word, expected):
        assert classify_case(word) is expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_case("")


def restored(caser: Truecaser, word: str) -> str:
    """The spelling `caser` restores `word` to at a non-initial position."""
    return truecase(caser, Sentence(("x", word))).tokens[1]


class TestTraining:
    def test_non_initial_initcap_majority(self):
        corpus = Corpus(tuple(ann("we saw New York City") for _ in range(3)))
        caser = train_truecaser(corpus)
        assert restored(caser, "york") == "York"
        assert restored(caser, "city") == "City"

    def test_sentence_initial_only_word_becomes_lower(self):
        corpus = Corpus(tuple(ann("The deal closed today") for _ in range(3)))
        caser = train_truecaser(corpus)
        # 3 initial occurrences: INIT_CAP 0.3 vs LOWER 2.7 after the discount
        assert restored(caser, "the") == "the"

    def test_unseen_word_falls_back_to_lower(self):
        caser = train_truecaser(Corpus((ann("just one sentence"),)))
        assert restored(caser, "zzzz") == "zzzz"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_truecaser(Corpus(()))

    def test_allcap_at_sentence_start_is_not_discounted(self):
        corpus = Corpus(tuple(ann("NATO said so") for _ in range(2)))
        caser = train_truecaser(corpus)
        assert restored(caser, "nato") == "NATO"

    def test_majority_class_keeps_its_most_frequent_spelling(self):
        caser = train_truecaser(Corpus((
            ann("x McDonald MCDonald McDonald"), ann("x iPod IPod"),
            ann("x ebay eBay ebay"),
        )))
        assert restored(caser, "mcdonald") == "McDonald"
        assert restored(caser, "ipod") == "IPod"  # a tie: the smaller string
        assert restored(caser, "ebay") == "ebay"  # LOWER outvotes MIXED

    def test_lowercase_word_keeps_a_spelling_that_is_not_its_key(self):
        # "straße" keys "strasse", so its lowercase spelling must be kept.
        caser = train_truecaser(Corpus(tuple(
            ann("Die straße ist lang") for _ in range(3)
        )))
        assert restored(caser, "STRASSE") == "straße"
        assert restored(caser, "strasse") == "straße"
        assert truecase(caser, Sentence(("straße", "ist"))).tokens == (
            "Straße", "ist"
        )
        # A word restored as its key is capitalized even when the key is
        # not lowercase: "ϒ" keys to itself, an uppercase letter.
        assert truecase(caser, Sentence(("aϒ",))).tokens == ("Aϒ",)

    def test_exact_tie_goes_to_lower(self):
        # INIT_CAP 25 * 0.1 + 20 = 22.5 against LOWER 25 * 0.9 = 22.5, a tie;
        # float sums give LOWER 22.499999999999993.
        corpus = Corpus(
            tuple(ann("Foo said so") for _ in range(25))
            + tuple(ann("we saw Foo") for _ in range(20))
        )
        for caser in (train_truecaser(corpus),
                      train_truecaser_reference(corpus)):
            assert restored(caser, "foo") == "foo"
        # One more mid-sentence Foo breaks the tie.
        corpus = Corpus(corpus.sentences + (ann("we saw Foo"),))
        assert restored(train_truecaser(corpus), "foo") == "Foo"


# Cased letters whose lowercase or uppercase forms change length ("İ",
# "ẞ", "ß"), uncased characters, and a titlecase digraph ("ǅ").
_WORDS = st.text("aBcİẞßéÉǅ1-", min_size=1, max_size=4)


@st.composite
def _mixed_case_corpora(draw) -> Corpus:
    """Sentences over a small vocabulary, so tokens repeat; some open with
    an InitCap token."""
    vocab = draw(st.lists(_WORDS, min_size=1, max_size=6))
    sentences = []
    for _ in range(draw(st.integers(1, 6))):
        tokens = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=5))
        if draw(st.booleans()):
            tokens[0] = tokens[0][0].upper() + tokens[0][1:].lower()
        sentences.append(ann(" ".join(tokens)))
    return Corpus(tuple(sentences))


class TestPerTokenTraining:
    @given(_mixed_case_corpora())
    def test_matches_per_occurrence_reference(self, corpus):
        assert (train_truecaser(corpus).to_bytes()
                == train_truecaser_reference(corpus).to_bytes())

    def test_classifies_each_distinct_token_once(self, monkeypatch, rng):
        classified = []

        def counting(word):
            classified.append(word)
            return classify_case(word)

        # `casener.truecase` names the re-exported function, not the module.
        module = importlib.import_module("casener.truecase")
        monkeypatch.setattr(module, "classify_case", counting)
        corpus = random_corpus(rng, sentences=30)
        train_truecaser(corpus)
        tokens = [t for a in corpus for t in a.sentence.tokens]
        assert len(tokens) > len(set(tokens))
        assert sorted(classified) == sorted(set(tokens))


# Tokens with irregular case mappings: a titlecase digraph, letters whose
# lowercase or uppercase forms change length, a ligature, a Greek word
# ending in sigma; and uncased tokens.
_UNICODE_TOKENS = ("ǅ", "İ", "ẞ", "ﬁ", "ΟΔΟΣ", "<s>", "123", "york")
_unicode_sentences = st.lists(
    st.builds(lambda token, casing: casing(token),
              st.sampled_from(_UNICODE_TOKENS),
              st.sampled_from([str, str.lower, str.upper, str.capitalize])),
    min_size=1, max_size=6,
).map(lambda tokens: Sentence(tuple(tokens)))


class TestTruecase:
    def fit(self) -> Truecaser:
        sentences = [
            "we visited New York City today",
            "she flew to New York City",
            "the USA team met the iPhone designer",
            "reports from the USA mention the iPhone",
            "numbers like 123 stay put",
        ]
        return train_truecaser(Corpus(tuple(ann(s) for s in sentences)))

    def test_restores_casing_from_lowercase(self):
        caser = self.fit()
        restored = truecase(caser, Sentence(("new", "york", "city")))
        assert restored.tokens == ("New", "York", "City")

    def test_restores_allcap_and_mixed(self):
        caser = self.fit()
        restored = truecase(caser, Sentence(("usa", "iphone")))
        assert restored.tokens == ("USA", "iPhone")

    def test_no_case_tokens_unchanged(self):
        caser = self.fit()
        s = Sentence(("123", "!!"))
        assert truecase(caser, s) == s

    def test_sentence_initial_lower_gets_initcap(self):
        caser = self.fit()
        restored = truecase(caser, Sentence(("the", "usa", "team")))
        assert restored.tokens == ("The", "USA", "team")

    def test_case_input_invariance(self, rng):
        caser = train_truecaser(random_corpus(rng, sentences=30))
        for _ in range(30):
            s = random_corpus(rng, sentences=1).sentences[0].sentence
            low = truecase(caser, to_lower(s))
            up = truecase(caser, to_upper(s))
            plain = truecase(caser, s)
            assert low == up == plain

    def test_idempotent(self, rng):
        caser = train_truecaser(random_corpus(rng, sentences=30))
        for _ in range(30):
            s = random_corpus(rng, sentences=1).sentences[0].sentence
            once = truecase(caser, s)
            assert truecase(caser, once) == once

    def test_token_count_preserved(self, rng):
        caser = train_truecaser(random_corpus(rng, sentences=10))
        for _ in range(20):
            s = random_corpus(rng, sentences=1).sentences[0].sentence
            assert len(truecase(caser, s)) == len(s)

    @given(st.lists(_unicode_sentences, min_size=1, max_size=6),
           _unicode_sentences)
    def test_output_is_a_function_of_the_lowercased_sentence(
        self, training, sentence
    ):
        caser = train_truecaser(Corpus(tuple(
            ann(" ".join(s.tokens)) for s in training
        )))
        assert truecase(caser, sentence) == truecase(caser, to_lower(sentence))


class TestPersistence:
    def test_roundtrip_behavior(self, rng):
        caser = train_truecaser(random_corpus(rng, sentences=25))
        clone = Truecaser.from_bytes(caser.to_bytes())
        for _ in range(25):
            s = random_corpus(rng, sentences=1).sentences[0].sentence
            assert truecase(clone, s) == truecase(caser, s)
        assert clone.to_bytes() == caser.to_bytes()

    def test_bad_data_rejected(self):
        with pytest.raises(TruecaserFormatError):
            Truecaser.from_bytes(b"")
        with pytest.raises(TruecaserFormatError):
            Truecaser.from_bytes(b"garbage")
        caser = train_truecaser(Corpus((ann("tiny corpus here"),)))
        blob = caser.to_bytes()
        with pytest.raises(TruecaserFormatError):
            Truecaser.from_bytes(blob[: len(blob) // 2])

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_rejected(self, version):
        caser = train_truecaser(Corpus((ann("New York bought an iPhone"),)))
        with pytest.raises(TruecaserFormatError, match=f"version {version}"):
            Truecaser.from_bytes(old_version_blob(caser, version))


_TINY_CASER_DOC = json.loads(gzip.decompress(train_truecaser(Corpus((
    ann("New York bought an iPhone"), ann("the USA and iPhone sales"),
))).to_bytes()))


class TestFromBytesFuzz:
    """`from_bytes` raises only TruecaserFormatError, and what it loads
    serializes again and truecases."""

    @staticmethod
    def _load_or_reject(blob: bytes) -> None:
        try:
            caser = Truecaser.from_bytes(blob)
        except TruecaserFormatError:
            return
        caser.to_bytes()
        truecase(caser, Sentence(("NEW", "york", "iphone", "usa", "x")))

    @given(garbage_containers)
    def test_garbage(self, blob):
        self._load_or_reject(blob)

    @settings(max_examples=500)
    @given(mutated_container(_TINY_CASER_DOC))
    def test_mutated_fields(self, blob):
        self._load_or_reject(blob)

    @pytest.mark.parametrize("surface", [5, "", "i Phone", "iPod"])
    def test_mixed_surface_must_spell_its_key(self, surface):
        surfaces = _TINY_CASER_DOC["surfaces"]
        assert surfaces == {"iphone": "iPhone", "usa": "USA", "york": "York"}
        doc = dict(_TINY_CASER_DOC, surfaces=dict(surfaces, iphone=surface))
        with pytest.raises(TruecaserFormatError):
            Truecaser.from_bytes(gzip.compress(json.dumps(doc).encode(), mtime=0))
