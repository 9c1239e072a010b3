import gzip
import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from casener.corpus import (
    AnnotatedSentence,
    Corpus,
    Scheme,
    Sentence,
    TagSequence,
    parse_conll,
    validate_tags,
)
from casener import crf, features
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
from casener.features import (
    FeatureMap,
    TemplateSet,
    feature_factors,
    fit_feature_map,
)
from casener.synth import default_config, generate
from conftest import (
    container_blob,
    container_parts,
    encode,
    garbage_containers,
    iobes_taggings,
    mutated_container,
    random_corpus,
    random_model,
    random_sentence,
)
from oracles import (
    column_groups_reference,
    emission_table,
    enumerate_best_legal_path,
    enumerate_log_partition,
    enumerate_marginals,
    finite_difference_gradient,
    packed_positions,
    path_score,
    train_full_space_reference,
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

    def test_independent_of_string_hash_seed(self):
        # Feature sets iterate in hash order; emission rows must not be
        # summed in that order, or log Z differs in its last bits between
        # processes.
        script = (
            "import numpy as np\n"
            "from casener.crf import CrfModel, log_partition\n"
            "from casener.features import TemplateSet, fit_feature_map\n"
            "from casener.synth import default_config, generate\n"
            "train, test = generate(default_config(seed=7, "
            "train_sentences=60, test_sentences=10))\n"
            "fmap = fit_feature_map(train, TemplateSet.CASE_AWARE)\n"
            "f, k = fmap.num_features, fmap.num_tags\n"
            "rng = np.random.default_rng(0)\n"
            "model = CrfModel(fmap, TemplateSet.CASE_AWARE, "
            "rng.normal(size=(f, k)), rng.normal(size=k), "
            "rng.normal(size=k), rng.normal(size=(k, k)))\n"
            "print(' '.join(float.hex(log_partition(model, ann.sentence)) "
            "for ann in test))\n"
        )
        first, second = _outputs_under_hash_seeds(script)
        assert first == second


def _outputs_under_hash_seeds(script: str) -> list[str]:
    """Stdout of `script` run in subprocesses with PYTHONHASHSEED 1 and 2."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        outputs.append(run.stdout)
    return outputs


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


def _pack_batch(emits):
    """Per-sentence emission arrays, in the kernel's packed layout: returns
    the rows, the lengths longest first, and the sentences' order."""
    lengths = [len(e) for e in emits]
    order = sorted(range(len(emits)), key=lambda i: -lengths[i])
    rows = np.concatenate(emits)[packed_positions(lengths)]
    return rows, np.array([lengths[i] for i in order]), order


def _unpack_rows(rows, lengths):
    """Per-sentence row arrays of a packed (longest-first) batch."""
    in_order = np.empty_like(rows)
    in_order[packed_positions(lengths)] = rows
    return np.split(in_order, np.cumsum(lengths)[:-1])


def _mixed_lengths(rng, s, longest):
    """`s` lengths in [1, longest] plus a 1, longest first."""
    return np.sort(np.append(rng.integers(1, longest + 1, s), 1))[::-1]


class TestForwardBackward:
    """The scaled kernel against its log-space fallback, repeated batches
    and one-sentence `posteriors`, on packed batches of mixed lengths."""

    def test_scaled_kernel_matches_log_space(self, monkeypatch):
        rng = np.random.default_rng(5)
        k = 13
        for _ in range(40):
            lengths = _mixed_lengths(rng, int(rng.integers(1, 6)), 8)
            scale = float(rng.choice([0.1, 1.0, 3.0]))
            emit = rng.normal(0.0, 4 * scale, (lengths.sum(), k))
            weights = rng.integers(1, 4, len(lengths)).astype(np.float64)
            chain = (*rng.normal(0.0, scale, (2, k)),
                     rng.normal(0.0, scale, (k, k)))
            packed = crf._packed(lengths)
            expected = crf._forward_backward_log(emit, packed, weights, *chain)
            with monkeypatch.context() as patch:
                patch.setattr(crf, "_forward_backward_log", _no_fallback)
                got = crf._forward_backward(emit, packed, weights, *chain)
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

    def test_wide_emission_spread_falls_back(self, monkeypatch):
        """A batch whose only wide spread is one emission row goes to the
        log-space recursion with `emit` untouched, and gives its results."""
        rng = np.random.default_rng(23)
        k = 5
        lengths = _mixed_lengths(rng, 4, 6)
        emit = rng.normal(0.0, 1.0, (lengths.sum(), k))
        emit[-1] = 0.0
        emit[-1, 2] = 201.0  # every other spread is at most 12 nats
        chain = (np.zeros(k), np.zeros(k), np.zeros((k, k)))
        packed, weights = crf._packed(lengths), np.ones(len(lengths))
        untouched = emit.copy()
        calls = []
        original = crf._forward_backward_log
        monkeypatch.setattr(crf, "_forward_backward_log",
                            lambda *args: calls.append(1) or original(*args))
        got = crf._forward_backward(emit, packed, weights, *chain)
        assert calls == [1]
        assert emit.tobytes() == untouched.tobytes()
        want = original(untouched, packed, weights, *chain)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fallback", [False, True],
                             ids=["scaled", "log-space"])
    def test_weighted_edge_sum_matches_repeated_batch(self, monkeypatch,
                                                      fallback):
        """Integer weights give the results of the batch with each sentence
        repeated that many times."""
        calls = []
        if fallback:
            original = crf._forward_backward_log
            monkeypatch.setattr(crf, "_MAX_SCALED_SPREAD", -1.0)
            monkeypatch.setattr(crf, "_forward_backward_log",
                                lambda *args: calls.append(1) or original(*args))
        else:
            monkeypatch.setattr(crf, "_forward_backward_log", _no_fallback)
        rng = np.random.default_rng(11)
        k = 13
        for _ in range(20):
            lengths = _mixed_lengths(rng, int(rng.integers(0, 5)), 7)
            emits = [rng.normal(0.0, 2.0, (n, k)) for n in lengths]
            chain = (*rng.normal(0.0, 1.0, (2, k)),
                     rng.normal(0.0, 1.0, (k, k)))
            weights = rng.integers(1, 4, len(lengths))
            logz, node, edge = crf._forward_backward(
                _pack_batch(emits)[0], crf._packed(lengths),
                weights.astype(np.float64), *chain,
            )
            repeated = [e for e, w in zip(emits, weights) for _ in range(w)]
            rows, rep_lengths, _ = _pack_batch(repeated)
            rep_logz, rep_node, rep_edge = crf._forward_backward(
                rows, crf._packed(rep_lengths), np.ones(len(repeated)), *chain
            )
            np.testing.assert_allclose(np.repeat(logz, weights), rep_logz,
                                       rtol=1e-12, atol=0)
            nodes = _unpack_rows(node, lengths)
            for got, want in zip(
                (n for n, w in zip(nodes, weights) for _ in range(w)),
                _unpack_rows(rep_node, rep_lengths),
            ):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(edge, rep_edge, rtol=1e-12, atol=1e-10)
        assert len(calls) == (40 if fallback else 0)

    def test_batch_matches_one_sentence_posteriors(self, monkeypatch):
        monkeypatch.setattr(crf, "_forward_backward_log", _no_fallback)
        rng = random.Random(17)
        model = random_model(rng, scale=1.0)
        words = ("the", "Baker", "baker", "OSLO", "met", "Monday", "x9")
        sentences = [Sentence(tuple(rng.choice(words) for _ in range(n)))
                     for n in rng.sample(range(1, 41), 40)]
        rows, lengths, order = _pack_batch(
            [crf._emissions(model, s) for s in sentences]
        )
        logz, node, edge = crf._forward_backward(
            rows, crf._packed(lengths), np.ones(len(sentences)),
            model.begin, model.end, model.transition,
        )
        edge_sum = np.zeros_like(edge)
        for got_logz, got_node, i in zip(
            logz, _unpack_rows(node, lengths), order
        ):
            want_logz, want_node, want_edge = posteriors(model, sentences[i])
            assert got_logz == pytest.approx(want_logz, rel=1e-12)
            np.testing.assert_allclose(got_node, want_node, rtol=0, atol=1e-12)
            edge_sum[: len(want_edge)] += want_edge
        np.testing.assert_allclose(edge, edge_sum, rtol=0, atol=1e-12)


def _no_fallback(*args):
    raise AssertionError("the scaled kernel fell back to log space")


class TestObjective:
    """`_neg_ll_and_grad` runs one forward-backward pass per call, on the
    layout `_encode` built."""

    @staticmethod
    def _encoded(rng):
        corpus = random_corpus(rng, sentences=12)
        assert len({len(ann.sentence) for ann in corpus}) > 2
        model = random_model(rng, corpus, scale=0.5)
        enc = encode(corpus, model.feature_map, model.template_set)
        w = crf._pack(model.emission, model.begin, model.end, model.transition)
        return enc, w

    def test_one_kernel_call_per_objective_call(self, monkeypatch, rng):
        enc, w = self._encoded(rng)
        calls = []
        original = crf._forward_backward

        def spy(emit, packed, *args):
            calls.append(packed)
            return original(emit, packed, *args)

        def no_packing(lengths):
            raise AssertionError("the objective rebuilt the packed layout")

        monkeypatch.setattr(crf, "_forward_backward", spy)
        monkeypatch.setattr(crf, "_packed", no_packing)
        crf._neg_ll_and_grad(w, enc, 1.0)
        assert len(calls) == 1 and calls[0] is enc.packed

    def test_forced_fallback_matches_scaled_path(self, monkeypatch, rng):
        enc, w = self._encoded(rng)
        with monkeypatch.context() as patch:
            patch.setattr(crf, "_forward_backward_log", _no_fallback)
            scaled = crf._neg_ll_and_grad(w, enc, 1.0)
        monkeypatch.setattr(crf, "_MAX_SCALED_SPREAD", -1.0)
        log_space = crf._neg_ll_and_grad(w, enc, 1.0)
        assert log_space[0] == pytest.approx(scaled[0], rel=1e-12)
        np.testing.assert_allclose(log_space[1], scaled[1], rtol=1e-12,
                                   atol=1e-12 * np.abs(scaled[1]).max())


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

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from(
            [1.0, 1e154, 1e300, 1e306, 1e307, 1e308, sys.float_info.max]
        ),
        max_len=st.sampled_from([1, 8]),
    )
    def test_legal_or_floating_point_error_at_any_finite_scale(
        self, seed, scale, max_len
    ):
        # Weights up to the largest finite double load, but their sums can
        # overflow; then decoding must say so rather than return, or choke
        # on, an illegal path.
        rng = random.Random(seed)
        shape = random_model(rng)
        draw = np.random.default_rng(seed)
        model = CrfModel(
            shape.feature_map, shape.template_set,
            *(scale * draw.uniform(-1.0, 1.0, w.shape) for w in (
                shape.emission, shape.begin, shape.end, shape.transition,
            )),
        )
        sentence = random_sentence(rng, max_len=max_len)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                tags = decode(model, sentence)
            except FloatingPointError:
                return
        validate_tags(tags.tags, Scheme.IOBES)
        assert len(tags) == len(sentence)

    def test_overflowing_scores_raise(self, rng):
        model = random_model(rng)
        huge = np.full_like(model.emission, 1e308)
        model = CrfModel(model.feature_map, model.template_set, huge,
                         model.begin, model.end, model.transition)
        with pytest.raises(FloatingPointError):
            decode(model, random_sentence(rng))

    @pytest.mark.parametrize("entry_point", [
        posteriors,
        log_partition,
        lambda model, sentence: score_sequence(
            model, sentence, TagSequence(("O",) * len(sentence))
        ),
    ], ids=["posteriors", "log_partition", "score_sequence"])
    def test_other_entry_points_raise_on_overflow(self, entry_point):
        # Before, these returned NaN (with RuntimeWarnings) or inf.
        rng = random.Random(1)
        model = random_model(rng)
        huge = np.full_like(model.emission, 1e308)
        model = CrfModel(model.feature_map, model.template_set, huge,
                         model.begin, model.end, model.transition)
        with pytest.raises(FloatingPointError):
            entry_point(model, random_sentence(rng))

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

    @pytest.mark.parametrize(("field", "value"), [
        *itertools.product(["l2_sigma", "tolerance"], [math.nan, math.inf]),
        ("l2_sigma", 1e-200),  # its square underflows to 0
    ])
    def test_non_finite_setting_rejected(self, rng, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        if field == "l2_sigma":
            corpus = random_corpus(rng, sentences=2)
            with pytest.raises(ValueError, match=field):
                log_likelihood_and_gradient(
                    random_model(rng, corpus), corpus, value
                )

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


_VOCAB = ("the", "Baker", "baker", "OSLO", "met", "x9")


@st.composite
def _corpus_with_repeats(draw) -> Corpus:
    """Sentences of one to four tokens, some with the same tokens but other
    tags, drawn into a corpus longer than the set of them."""
    pool = []
    token_lists = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4)
    for tokens in draw(st.lists(token_lists, min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 2))):
            pool.append(AnnotatedSentence(
                Sentence(tuple(tokens)), draw(iobes_taggings(len(tokens)))
            ))
    picks = draw(st.lists(st.sampled_from(range(len(pool))),
                          min_size=len(pool) + 1, max_size=3 * len(pool)))
    return Corpus(tuple(pool[i] for i in picks))


def _one_token(token: str, tag: str) -> AnnotatedSentence:
    return AnnotatedSentence(
        Sentence((token,)), TagSequence((tag,), Scheme.IOBES)
    )


class TestDistinctTraining:
    """Training encodes each distinct (tokens, tags) pair once, weighted by
    how often it occurs."""

    @settings(deadline=None)
    @given(
        corpus=_corpus_with_repeats(),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from([0.5, 1.0, 10.0]),
    )
    @example(
        corpus=Corpus((
            _one_token("x9", "S-PER"), _one_token("x9", "O"),
            _one_token("x9", "S-PER"), _one_token("the", "O"),
            _one_token("x9", "O"),
        )),
        seed=0, sigma=1.0,
    )
    def test_grouped_objective_matches_ungrouped(self, corpus, seed, sigma):
        distinct, counts = crf._distinct(corpus)
        assert distinct.sentences == tuple(dict.fromkeys(corpus.sentences))
        assert counts.sum() == len(corpus) > len(distinct)
        model = random_model(random.Random(seed), corpus, scale=1.0)
        ll, grad = log_likelihood_and_gradient(model, corpus, sigma)
        enc = encode(corpus, model.feature_map, model.template_set)
        w = crf._pack(model.emission, model.begin, model.end, model.transition)
        neg_ll, neg_grad = crf._neg_ll_and_grad(w, enc, sigma)
        assert ll == pytest.approx(-neg_ll, rel=1e-12, abs=1e-10)
        # The gold counts are sums of whole counts, so they are exact.
        grouped = encode(distinct, model.feature_map, model.template_set,
                         counts)
        assert np.array_equal(grouped.observed, enc.observed)
        np.testing.assert_allclose(grad, -neg_grad, rtol=1e-12, atol=1e-10)

    @given(corpus=_corpus_with_repeats(),
           template_set=st.sampled_from(list(TemplateSet)))
    def test_fit_matches_distinct_sentences(self, corpus, template_set):
        distinct, _ = crf._distinct(corpus)
        assert (fit_feature_map(distinct, template_set)
                == fit_feature_map(corpus, template_set))

    def test_train_featurizes_once(self, monkeypatch):
        # extract and fit_feature_map go through features.feature_factors
        # too, so featurizing anywhere else in training would count here.
        featurized = []

        def counting(sentences, template_set):
            featurized.append(len(sentences))
            return feature_factors(sentences, template_set)

        monkeypatch.setattr(crf, "feature_factors", counting)
        monkeypatch.setattr(features, "feature_factors", counting)
        corpus = Corpus(separable_corpus().sentences * 3)
        train(corpus, TemplateSet.CASE_AWARE, TrainConfig(max_epochs=2))
        assert featurized == [len(crf._distinct(corpus)[0])]

    def test_independent_of_string_hash_seed(self):
        # The distinct sentences are found by hashing strings; their order,
        # and so the sums over them, must not follow the hash seed.
        script = (
            "import hashlib\n"
            "from casener.corpus import Corpus\n"
            "from casener.crf import TrainConfig, _distinct, save, train\n"
            "from casener.features import TemplateSet\n"
            "from casener.synth import default_config, generate\n"
            "corpus, _ = generate(default_config(seed=7, "
            "train_sentences=80, test_sentences=10))\n"
            "corpus = Corpus(corpus.sentences + corpus.sentences[::3])\n"
            "model = train(corpus, TemplateSet.CASE_AWARE, "
            "TrainConfig(max_epochs=20))\n"
            "print(len(_distinct(corpus)[0]), len(corpus), "
            "hashlib.sha256(save(model)).hexdigest())\n"
        )
        first, second = _outputs_under_hash_seeds(script)
        assert first == second
        distinct, total, _ = first.split()
        assert int(distinct) < int(total)


def _groups_of(corpus: Corpus, template_set: TemplateSet):
    """The feature map of `corpus`, the `_encode` of its distinct sentences,
    and its `_merged` copy with the group of each feature."""
    distinct, counts = crf._distinct(corpus)
    fmap = fit_feature_map(corpus, template_set)
    enc = encode(distinct, fmap, template_set, counts)
    return fmap, enc, *crf._merged(enc)


_ONE_TOKEN_CORPUS = Corpus((
    _one_token("x9", "S-PER"), _one_token("x9", "O"),
    _one_token("x9", "S-PER"), _one_token("the", "O"),
    _one_token("Baker", "S-LOC"),
))


class TestMergedColumns:
    """Training optimizes one weight row per group of features with equal
    columns, scaled by the square root of the group's size; that is the
    full-space problem in other coordinates."""

    @given(corpus=_corpus_with_repeats(),
           template_set=st.sampled_from(list(TemplateSet)))
    @example(corpus=_ONE_TOKEN_CORPUS, template_set=TemplateSet.CASE_AWARE)
    def test_groups_match_reference(self, corpus, template_set):
        fmap, _, _, group = _groups_of(corpus, template_set)
        distinct, _ = crf._distinct(corpus)
        assert group.tolist() == column_groups_reference(
            distinct, fmap, template_set
        )

    def test_colliding_keys_keep_columns_apart(self):
        # Columns 0 and 1 differ, but their keys are r[1] * r[0] and
        # r[0] * r[1], which are bitwise equal.
        r = np.random.default_rng(0).random(2)
        x = scipy.sparse.csc_matrix(np.array([[r[1], 0.0, r[1]],
                                              [0.0, r[0], 0.0]]))
        keys = x.T @ r
        assert keys[0] == keys[1]
        assert crf._column_groups(x).tolist() == [0, 1, 0]

    @settings(deadline=None)
    @given(
        corpus=_corpus_with_repeats(),
        template_set=st.sampled_from(list(TemplateSet)),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from([0.5, 1.0, 10.0]),
    )
    @example(corpus=_ONE_TOKEN_CORPUS, template_set=TemplateSet.CASE_AWARE,
             seed=0, sigma=1.0)
    def test_merged_objective_is_the_full_objective(self, corpus,
                                                    template_set, seed, sigma):
        fmap, enc, merged, group = _groups_of(corpus, template_set)
        k, size = fmap.num_tags, np.bincount(group)
        scale = np.sqrt(size)[:, None]
        u = np.random.default_rng(seed).uniform(-1, 1, merged.observed.shape)
        rows, *rest = crf._unpack(u, len(size), k)
        w = crf._pack((rows / scale)[group], *rest)
        merged_ll, merged_grad = crf._neg_ll_and_grad(u, merged, sigma)
        full_ll, full_grad = crf._neg_ll_and_grad(w, enc, sigma)
        assert merged_ll == pytest.approx(full_ll, rel=1e-12)
        full_rows, *full_rest = crf._unpack(full_grad, fmap.num_features, k)
        summed = np.zeros((len(size), k))
        np.add.at(summed, group, full_rows)
        expected = crf._pack(summed / scale, *full_rest)
        np.testing.assert_allclose(merged_grad, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    @settings(deadline=None, max_examples=30)
    @given(corpus=_corpus_with_repeats(),
           template_set=st.sampled_from(list(TemplateSet)))
    @example(corpus=_ONE_TOKEN_CORPUS, template_set=TemplateSet.CASE_AWARE)
    def test_trained_group_rows_are_bitwise_equal(self, corpus, template_set):
        model = train(corpus, template_set, TrainConfig(max_epochs=10))
        distinct, _ = crf._distinct(corpus)
        group = np.array(column_groups_reference(
            distinct, model.feature_map, template_set
        ))
        first = np.unique(group, return_index=True)[1]
        assert np.array_equal(model.emission, model.emission[first[group]])

    @pytest.mark.parametrize("corpus, template_set", [
        *[pytest.param(random_corpus(random.Random(seed), sentences=12), ts,
                       id=f"random{seed}-{ts.value}")
          for seed, ts in itertools.product(range(3), TemplateSet)],
        pytest.param(Corpus(tuple(_ONE_TOKEN_CORPUS) * 2),
                     TemplateSet.CASE_AWARE, id="one-token"),
        pytest.param(generate(default_config(
            seed=7, train_sentences=150, test_sentences=1))[0],
            TemplateSet.CASE_AWARE, id="synth7"),
    ])
    def test_train_matches_full_space_reference(self, corpus, template_set):
        cfg = TrainConfig()
        model = train(corpus, template_set, cfg)
        fmap, result = train_full_space_reference(corpus, template_set, cfg)
        assert model.feature_map == fmap
        assert (model.metadata["iterations"], model.metadata[
            "function_evaluations"]) == (result.nit, result.nfev)
        w = crf._pack(model.emission, model.begin, model.end,
                      model.transition)
        np.testing.assert_allclose(w, result.x, rtol=1e-6,
                                   atol=1e-6 * np.abs(result.x).max())


def _model_with_rows(rows, tags) -> CrfModel:
    """A CRF whose emission rows are `rows`, with begin, end and transition
    weights counted up from -1.5; each feature name holds a newline."""
    k = len(tags)
    names = [f"w0=f{i}\n" for i in range(len(rows))]
    chain = np.arange(2 * k + k * k) - 1.5
    return CrfModel(
        FeatureMap(tuple(names), tags), TemplateSet.CASE_AWARE,
        np.array(rows, dtype=np.float64).reshape(len(rows), k),
        chain[:k], chain[k : 2 * k], chain[2 * k :].reshape(k, k),
        {"iterations": 3, "converged": True},
    )


@st.composite
def models(draw) -> CrfModel:
    """A CRF of 1-6 features with arbitrary finite weights: its rows come
    from a pool of at most three, some with their zeros' signs flipped, and
    its emission array is in C or Fortran order."""
    tags = draw(st.sampled_from(
        [("O",), ("O", "S-A"), ("O", "B-A", "I-A", "E-A", "S-A")]
    ))
    k = len(tags)
    weights = st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(weights | st.sampled_from([0.0, -0.0]),
                                  min_size=k, max_size=k),
                         min_size=1, max_size=3))
    f = draw(st.integers(1, 6))
    rows = [[-x if x == 0 and draw(st.booleans()) else x
             for x in draw(st.sampled_from(pool))] for _ in range(f)]
    names = draw(st.lists(st.text(max_size=6), min_size=f, max_size=f,
                          unique=True))
    chain = draw(st.lists(weights, min_size=2 * k + k * k,
                          max_size=2 * k + k * k))
    metadata = draw(st.dictionaries(
        st.text(max_size=5), st.integers() | st.text(max_size=5) | st.booleans(),
        max_size=3,
    ))
    return CrfModel(
        FeatureMap(tuple(names), tags), draw(st.sampled_from(TemplateSet)),
        np.array(rows, dtype=np.float64, order=draw(st.sampled_from("CF"))),
        np.array(chain[:k]), np.array(chain[k : 2 * k]),
        np.array(chain[2 * k :]).reshape(k, k), metadata,
    )


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

    def test_version_mismatch_rejected(self, rng):
        model = random_model(rng)
        doc, block = container_parts(save(model))
        doc["version"] = 999
        with pytest.raises(ModelFormatError, match="version"):
            load(container_blob(doc, block))

    def test_version_1_rejected(self, rng):
        # Version 1 keyed word and affix features on `str.lower`, so on
        # non-ASCII text its feature names are not today's.
        doc, block = container_parts(save(random_model(rng)))
        doc["version"] = 1
        with pytest.raises(ModelFormatError, match="unsupported crf version 1"):
            load(container_blob(doc, block))

    @settings(max_examples=100)
    @given(model=models())
    @example(model=_model_with_rows(
        [[0.5, -1.0], [0.5, -1.0], [0.0, 2.0], [-0.0, 2.0]], ("O", "S-A")))
    @example(model=_model_with_rows([[-0.0]], ("O",)))
    def test_roundtrip_is_bitwise(self, model):
        """`load(save(m))` equals m bit for bit in every array, with
        native writable float64 arrays, and saves back to the same bytes.
        The examples hold repeated rows, rows that differ only in a zero's
        sign, and one feature."""
        blob = save(model)
        clone = load(blob)
        for name in ("emission", "begin", "end", "transition"):
            got, want = getattr(clone, name), getattr(model, name)
            assert got.dtype == np.float64 and got.dtype.isnative
            assert got.flags.writeable
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert clone.feature_map == model.feature_map
        assert clone.template_set == model.template_set
        assert clone.metadata == model.metadata
        assert save(clone) == blob

    def test_wrong_format_rejected(self, rng):
        import gzip, json

        blob = gzip.compress(json.dumps({"format": "other"}).encode(), mtime=0)
        with pytest.raises(ModelFormatError):
            load(blob)


_TINY_MODEL = CrfModel(
    FeatureMap(("w0=a", "w0=b"), ("O", "B-LOC", "E-LOC", "I-LOC", "S-LOC")),
    TemplateSet.CASE_AWARE,
    np.arange(10.0).reshape(2, 5), np.zeros(5), np.ones(5), np.eye(5),
    {"iterations": 3, "converged": True},
)
_TINY_DOC, _TINY_BLOCK = container_parts(save(_TINY_MODEL))


class TestLoadFuzz:
    """`load` raises only ModelFormatError, and what it loads saves again."""

    @staticmethod
    def _load_or_reject(blob: bytes) -> None:
        try:
            model = load(blob)
        except ModelFormatError:
            return
        save(model)

    @given(garbage_containers)
    def test_garbage(self, blob):
        self._load_or_reject(blob)

    @settings(max_examples=500)
    @given(mutated_container(_TINY_DOC, _TINY_BLOCK))
    def test_mutated_fields(self, blob):
        self._load_or_reject(blob)

    @pytest.mark.parametrize("field,value", [
        ("tags", ["O", 5, "E-LOC", "I-LOC", "S-LOC"]),
        ("features", [1, 2]),
        ("metadata", [["a", 1], [2, 3]]),
    ])
    def test_wrongly_typed_fields_rejected(self, field, value):
        doc = dict(_TINY_DOC, **{field: value})
        with pytest.raises(ModelFormatError):
            load(container_blob(doc, _TINY_BLOCK))
