import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casener.corpus import (
    AnnotatedSentence,
    Corpus,
    Scheme,
    Sentence,
    TagSequence,
    parse_conll,
    validate_tags,
)
from casener import crf
from casener.crf import (
    CrfModel,
    ModelFormatError,
    TrainConfig,
    decode,
    load,
    log_likelihood_and_gradient,
    log_partition,
    posteriors,
    save,
    score_sequence,
    train,
)
from casener.evaluation import evaluate
from casener.features import FeatureMap, TemplateSet, fit_feature_map
from conftest import random_corpus, random_model, random_sentence
from oracles import (
    emission_table,
    enumerate_best_legal_path,
    enumerate_log_partition,
    enumerate_marginals,
    finite_difference_gradient,
    path_score,
)

TABLE_CORPUS = parse_conll(
    "I O\nlive O\nin O\nNew B-ORG\nYork I-ORG\nCity E-ORG\n\n"
)
TABLE = TABLE_CORPUS.sentences[0]


def zero_model(fmap: FeatureMap, template_set=TemplateSet.CASE_AWARE) -> CrfModel:
    f, k = fmap.num_features, fmap.num_tags
    return CrfModel(
        fmap, template_set, np.zeros((f, k)), np.zeros(k), np.zeros(k),
        np.zeros((k, k)),
    )


class TestScore:
    def test_zero_weights_score_zero(self, rng):
        model = zero_model(fit_feature_map(TABLE_CORPUS, TemplateSet.CASE_AWARE))
        assert score_sequence(model, TABLE.sentence, TABLE.gold) == 0.0

    def test_single_active_feature(self):
        fmap = fit_feature_map(TABLE_CORPUS, TemplateSet.CASE_AWARE)
        model = zero_model(fmap)
        model.emission[fmap.feature_index("w0=york"), fmap.tag_index("I-ORG")] = 1.5
        assert score_sequence(model, TABLE.sentence, TABLE.gold) == pytest.approx(1.5)

    def test_unknown_tag_rejected(self):
        fmap = fit_feature_map(TABLE_CORPUS, TemplateSet.CASE_AWARE)
        model = zero_model(fmap)
        bad = TagSequence(("O",) * 5 + ("S-GPE",), Scheme.IOBES)
        with pytest.raises(ValueError):
            score_sequence(model, TABLE.sentence, bad)

    def test_matches_explicit_resummation(self, rng):
        for _ in range(20):
            model = random_model(rng)
            sentence = random_sentence(rng, max_len=5)
            emissions = emission_table(model, sentence)
            k = model.num_tags
            path = tuple(rng.randrange(k) for _ in range(len(sentence)))
            expected = path_score(model, emissions, path)
            # score_sequence accepts any tags in the model's tag set; build
            # the sequence directly to sidestep scheme validity.
            got = _raw_score(model, sentence, path)
            assert got == pytest.approx(expected, abs=1e-9)


def _raw_score(model, sentence, path):
    """score_sequence without TagSequence scheme validation."""
    from casener.crf import _emissions

    emissions = _emissions(model, sentence)
    score = model.begin[path[0]] + model.end[path[-1]]
    for pos, tag in enumerate(path):
        score += emissions[pos, tag]
    for a, b in zip(path, path[1:]):
        score += model.transition[a, b]
    return float(score)


class TestLogPartition:
    def test_zero_weights_closed_form(self, rng):
        corpus = random_corpus(rng, sentences=4)
        fmap = fit_feature_map(corpus, TemplateSet.CASE_AWARE)
        model = zero_model(fmap)
        sentence = corpus.sentences[0].sentence
        n, k = len(sentence), fmap.num_tags
        assert log_partition(model, sentence) == pytest.approx(n * math.log(k))

    def test_single_token_two_tags(self, rng):
        corpus = random_corpus(rng, sentences=4)
        model = random_model(rng, corpus, tags=("O", "S-LOC"))
        sentence = Sentence(("word",))
        emissions = emission_table(model, sentence)
        a = emissions[0, 0] + model.begin[0] + model.end[0]
        b = emissions[0, 1] + model.begin[1] + model.end[1]
        assert log_partition(model, sentence) == pytest.approx(
            math.log(math.exp(a) + math.exp(b)), abs=1e-9
        )

    def test_matches_enumeration(self, rng):
        tag_spaces = [
            ("O", "S-A"),
            ("O", "S-A", "S-B"),
            ("O", "B-A", "I-A", "E-A"),
            ("O", "B-A", "I-A", "E-A", "S-A"),
        ]
        for trial in range(25):
            model = random_model(rng, tags=rng.choice(tag_spaces))
            sentence = random_sentence(rng, max_len=5)
            expected = enumerate_log_partition(model, sentence)
            assert log_partition(model, sentence) == pytest.approx(
                expected, abs=1e-9
            )


class TestPosteriors:
    def test_node_marginals_sum_to_one(self, rng):
        for _ in range(10):
            model = random_model(rng)
            sentence = random_sentence(rng)
            _, node, _ = posteriors(model, sentence)
            assert np.allclose(node.sum(axis=1), 1.0, atol=1e-9)

    def test_edge_marginals_marginalize_to_nodes(self, rng):
        for _ in range(10):
            model = random_model(rng)
            sentence = random_sentence(rng)
            if len(sentence) < 2:
                continue
            _, node, edge = posteriors(model, sentence)
            for t in range(len(sentence) - 1):
                assert np.allclose(edge[t].sum(axis=1), node[t], atol=1e-9)
                assert np.allclose(edge[t].sum(axis=0), node[t + 1], atol=1e-9)

    def test_normalization_over_enumeration(self, rng):
        model = random_model(rng, tags=("O", "S-A", "B-A", "I-A", "E-A"))
        sentence = random_sentence(rng, max_len=4)
        logz = log_partition(model, sentence)
        emissions = emission_table(model, sentence)
        import itertools

        total = 0.0
        for path in itertools.product(range(model.num_tags), repeat=len(sentence)):
            total += math.exp(path_score(model, emissions, path) - logz)
        assert total == pytest.approx(1.0, abs=1e-9)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 6),
        tags=st.sampled_from(
            [("O", "S-A"), ("O", "S-A", "S-B"), ("O", "B-A", "I-A", "E-A")]
        ),
        scale=st.sampled_from([0.01, 1.0, 10.0, 100.0, 1000.0]),
    )
    def test_marginals_match_enumeration(self, seed, length, tags, scale):
        rng = random.Random(seed)
        model = random_model(rng, tags=tags, scale=scale)
        vocab = ("the", "Baker", "baker", "OSLO", "met", "Monday", "x9")
        sentence = Sentence(tuple(rng.choice(vocab) for _ in range(length)))
        logz, node, edge = posteriors(model, sentence)
        expected_node, expected_edge = enumerate_marginals(model, sentence)
        assert logz == pytest.approx(
            enumerate_log_partition(model, sentence), rel=1e-12
        )
        assert edge.shape == (length - 1, len(tags), len(tags))
        np.testing.assert_allclose(node, expected_node, rtol=0, atol=1e-9)
        np.testing.assert_allclose(edge, expected_edge, rtol=0, atol=1e-9)


class TestForwardBackward:
    """The scaled kernel against its log-space fallback and enumeration."""

    def test_scaled_kernel_matches_log_space(self, monkeypatch):
        rng = np.random.default_rng(5)
        k = 13
        for _ in range(40):
            s, length = int(rng.integers(2, 6)), int(rng.integers(1, 9))
            scale = float(rng.choice([0.1, 1.0, 3.0]))
            emit = rng.normal(0.0, 4 * scale, (s, length, k))
            begin, end = rng.normal(0.0, scale, (2, k))
            trans = rng.normal(0.0, scale, (k, k))
            expected = crf._forward_backward_log(emit, begin, end, trans)
            with monkeypatch.context() as patch:
                patch.setattr(crf, "_forward_backward_log", _no_fallback)
                got = crf._forward_backward(emit, begin, end, trans)
            for a, b in zip(got, expected):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_wide_transition_spread_falls_back(self, monkeypatch, rng):
        calls = []
        original = crf._forward_backward_log

        def spy(*args):
            calls.append(args[0].shape)
            return original(*args)

        monkeypatch.setattr(crf, "_forward_backward_log", spy)
        for _ in range(10):
            model = random_model(rng, tags=("O", "B-A", "I-A", "E-A"), scale=1.0)
            model.transition[0, 1] = 500.0  # spread > 800 nats
            model.transition[2, 3] = -400.0
            sentence = random_sentence(rng, max_len=5)
            logz, node, edge = posteriors(model, sentence)
            expected_node, expected_edge = enumerate_marginals(model, sentence)
            assert logz == pytest.approx(
                enumerate_log_partition(model, sentence), rel=1e-12
            )
            np.testing.assert_allclose(node, expected_node, rtol=0, atol=1e-9)
            np.testing.assert_allclose(edge, expected_edge, rtol=0, atol=1e-9)
        assert len(calls) == 10


def _no_fallback(*args):
    raise AssertionError("the scaled kernel fell back to log space")


class TestGradient:
    def test_zero_weight_likelihood(self, rng):
        corpus = random_corpus(rng, sentences=1)
        fmap = fit_feature_map(corpus, TemplateSet.CASE_AWARE)
        model = zero_model(fmap)
        n = len(corpus.sentences[0].sentence)
        ll, _ = log_likelihood_and_gradient(model, corpus, l2_sigma=1.0)
        assert ll == pytest.approx(-n * math.log(fmap.num_tags))

    def test_l2_gradient_component(self, rng):
        corpus = random_corpus(rng, sentences=2)
        model = random_model(rng, corpus)
        sigma = 0.7
        _, grad_tight = log_likelihood_and_gradient(model, corpus, sigma)
        _, grad_loose = log_likelihood_and_gradient(model, corpus, 10**9)
        w = np.concatenate([
            model.emission.ravel(), model.begin, model.end,
            model.transition.ravel(),
        ])
        assert np.allclose(grad_loose - grad_tight, w / sigma**2, atol=1e-6)

    def test_matches_finite_differences(self, rng):
        for trial in range(4):
            corpus = random_corpus(rng, sentences=3)
            model = random_model(rng, corpus, scale=0.5)
            _, grad = log_likelihood_and_gradient(model, corpus, l2_sigma=1.0)
            numeric = finite_difference_gradient(model, corpus, 1.0)
            mask = (np.abs(grad) >= 1e-8) | (np.abs(numeric) >= 1e-8)
            rel = np.abs(grad[mask] - numeric[mask]) / np.maximum(
                np.abs(numeric[mask]), 1e-8
            )
            assert rel.max() < 1e-4


class TestDecode:
    def test_zero_weights_decodes_all_o(self, rng):
        corpus = random_corpus(rng, sentences=3)
        fmap = fit_feature_map(corpus, TemplateSet.CASE_AWARE)
        model = zero_model(fmap)
        assert fmap.tags[0] == "O"
        sentence = corpus.sentences[0].sentence
        assert decode(model, sentence).tags == ("O",) * len(sentence)

    def test_matches_enumeration_with_constraints(self, rng):
        tag_spaces = [
            ("O", "S-A"),
            ("O", "B-A", "I-A", "E-A", "S-A"),
            ("O", "S-A", "S-B"),
        ]
        for trial in range(25):
            model = random_model(rng, tags=rng.choice(tag_spaces))
            sentence = random_sentence(rng, max_len=5)
            expected_tags, expected_score = enumerate_best_legal_path(
                model, sentence
            )
            got = decode(model, sentence)
            got_score = score_sequence(model, sentence, got)
            assert abs(got_score - expected_score) < 1e-9
            assert got.tags == expected_tags

    def test_output_is_always_scheme_valid(self, rng):
        for _ in range(20):
            model = random_model(rng)
            sentence = random_sentence(rng)
            tags = decode(model, sentence)
            validate_tags(tags.tags, Scheme.IOBES)  # raises on violation

    def test_shift_invariance_at_one_position(self, rng):
        # the "bos" feature fires at exactly position 0, so shifting its
        # weight row adds a constant to that position's emissions only
        for _ in range(10):
            model = random_model(rng)
            bos = model.feature_map.feature_index("bos")
            if bos is None:
                continue
            sentence = random_sentence(rng, max_len=6)
            before = decode(model, sentence)
            emission = model.emission.copy()
            emission[bos] += 11.25
            shifted = CrfModel(
                model.feature_map, model.template_set, emission,
                model.begin, model.end, model.transition,
            )
            assert decode(shifted, sentence).tags == before.tags
            assert score_sequence(shifted, sentence, before) != pytest.approx(
                score_sequence(model, sentence, before)
            )


def separable_corpus() -> Corpus:
    """Each tag is determined by the token itself: trivially learnable."""
    words = {
        "rome": "S-LOC", "oslo": "S-LOC", "lima": "S-LOC", "cairo": "S-LOC",
        "anna": "S-PER", "james": "S-PER", "maria": "S-PER", "omar": "S-PER",
        "walks": "O", "sees": "O", "likes": "O", "leaves": "O",
    }
    rng = random.Random(3)
    annotated = []
    keys = sorted(words)
    for _ in range(20):
        tokens = tuple(rng.choice(keys) for _ in range(rng.randint(2, 6)))
        tags = tuple(words[t] for t in tokens)
        annotated.append(
            AnnotatedSentence(
                Sentence(tokens), TagSequence(tags, Scheme.IOBES)
            )
        )
    return Corpus(tuple(annotated))


class TestTrain:
    def test_learns_separable_corpus(self):
        corpus = separable_corpus()
        model = train(corpus, TemplateSet.CASE_AWARE, TrainConfig(max_epochs=100))
        pred = [decode(model, ann.sentence) for ann in corpus]
        metrics = evaluate(pred, [ann.gold for ann in corpus])
        assert metrics.f1 == 1.0

    def test_metadata_records_convergence(self):
        corpus = separable_corpus()
        converged = train(corpus, TemplateSet.CASE_AWARE)
        capped = train(corpus, TemplateSet.CASE_AWARE, TrainConfig(max_epochs=1))
        assert converged.metadata["converged"] is True
        assert capped.metadata["converged"] is False
        assert capped.metadata["iterations"] == 1
        assert (
            converged.metadata["function_evaluations"]
            >= converged.metadata["iterations"]
            > capped.metadata["iterations"]
        )
        assert "seed" not in converged.metadata

    def test_trained_model_tags_table_sentence(self):
        corpus = separable_corpus()
        extra = parse_conll("anna S-PER\nsees O\nrome S-LOC\n\n")
        model = train(corpus, TemplateSet.CASE_AWARE)
        got = decode(model, extra.sentences[0].sentence)
        assert got.tags == ("S-PER", "O", "S-LOC")

    def test_tiny_sigma_shrinks_weights_to_majority_class(self):
        anns = []
        for _ in range(8):
            anns.append(AnnotatedSentence(
                Sentence(("they", "visited", "paris", "today")),
                TagSequence(("O", "O", "S-LOC", "O"), Scheme.IOBES),
            ))
        for _ in range(4):
            anns.append(AnnotatedSentence(
                Sentence(("they", "met", "paris", "today")),
                TagSequence(("O", "O", "S-PER", "O"), Scheme.IOBES),
            ))
        corpus = Corpus(tuple(anns))
        strong = train(corpus, TemplateSet.CASE_AWARE, TrainConfig(l2_sigma=0.01))
        weak = train(corpus, TemplateSet.CASE_AWARE, TrainConfig(l2_sigma=1.0))
        assert np.abs(strong.emission).max() < 0.01 * np.abs(weak.emission).max()
        gold = [ann.gold for ann in corpus]
        assert evaluate([decode(weak, a.sentence) for a in corpus], gold).f1 == 1.0
        shrunk = evaluate([decode(strong, a.sentence) for a in corpus], gold)
        assert shrunk.f1 == 0.0  # everything decodes to the majority class "O"

    def test_deterministic(self):
        corpus = separable_corpus()
        cfg = TrainConfig(max_epochs=30)
        a = train(corpus, TemplateSet.CASE_AWARE, cfg)
        b = train(corpus, TemplateSet.CASE_AWARE, cfg)
        assert np.array_equal(a.emission, b.emission)
        assert np.array_equal(a.transition, b.transition)
        assert save(a) == save(b)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(Corpus(()), TemplateSet.CASE_AWARE)

    def test_non_finite_objective_aborts(self, rng):
        from casener.crf import TrainingError

        corpus = random_corpus(rng, sentences=2)
        model = random_model(rng, corpus)
        model.emission[:] = 1e200  # finite weights, but the L2 term overflows
        with pytest.raises(TrainingError):
            log_likelihood_and_gradient(model, corpus, l2_sigma=1.0)

    def test_batched_likelihood_matches_per_sentence_functions(self, rng):
        corpus = random_corpus(rng, sentences=5)
        model = random_model(rng, corpus, scale=0.8)
        big_sigma = 10**9
        ll, _ = log_likelihood_and_gradient(model, corpus, big_sigma)
        manual = sum(
            score_sequence(model, ann.sentence, ann.gold)
            - log_partition(model, ann.sentence)
            for ann in corpus
        )
        assert ll == pytest.approx(manual, abs=1e-7)


class TestPersistence:
    def test_roundtrip_decoding_identical(self, rng):
        corpus = random_corpus(rng, sentences=8)
        model = train(corpus, TemplateSet.CASE_AWARE, TrainConfig(max_epochs=20))
        blob = save(model)
        clone = load(blob)
        for _ in range(100):
            sentence = random_sentence(rng)
            assert decode(clone, sentence).tags == decode(model, sentence).tags
            assert score_sequence(
                clone, sentence, decode(model, sentence)
            ) == score_sequence(model, sentence, decode(model, sentence))
        assert save(clone) == blob

    def test_truncated_data_rejected(self, rng):
        model = random_model(rng)
        blob = save(model)
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ModelFormatError):
                load(blob[:cut])

    def test_empty_and_garbage_rejected(self):
        with pytest.raises(ModelFormatError):
            load(b"")
        with pytest.raises(ModelFormatError):
            load(b"not a model at all")

    def test_version_mismatch_rejected(self, rng):
        import gzip, json

        model = random_model(rng)
        doc = json.loads(gzip.decompress(save(model)))
        doc["version"] = 999
        blob = gzip.compress(json.dumps(doc).encode("utf-8"), mtime=0)
        with pytest.raises(ModelFormatError, match="version"):
            load(blob)

    def test_wrong_format_rejected(self, rng):
        import gzip, json

        blob = gzip.compress(json.dumps({"format": "other"}).encode(), mtime=0)
        with pytest.raises(ModelFormatError):
            load(blob)
