import pytest

import casener.evaluation
from casener.corpus import (
    Corpus, EntitySpan, Scheme, TagSequence, spans_to_tags,
)
from casener.crf import TrainConfig, decode, train
from casener.evaluation import (
    Metrics,
    evaluate,
    metrics_lines,
    robustness_grid,
    tag_corpus,
    variant_grid,
)
from casener.features import TemplateSet
from casener.harness import Strategy, training_view
from casener.transforms import CaseVariant, make_variant, to_lower
from casener.truecase import train_truecaser, truecase
from casener.synth import default_config, generate
from conftest import random_tagging
from oracles import conlleval_counts


def seq(*tags: str) -> TagSequence:
    return TagSequence(tuple(tags), Scheme.IOBES)


class TestEvaluate:
    def test_perfect_prediction(self):
        gold = [seq("O", "O", "O", "B-ORG", "I-ORG", "E-ORG")]
        metrics = evaluate(gold, gold)
        assert metrics.precision == metrics.recall == metrics.f1 == 1.0

    def test_half_right_hand_count(self):
        gold = [spans_to_tags(
            [EntitySpan(0, 0, "LOC"), EntitySpan(3, 5, "ORG")], 6, Scheme.IOBES
        )]
        pred = [spans_to_tags(
            [EntitySpan(1, 1, "LOC"), EntitySpan(3, 5, "ORG")], 6, Scheme.IOBES
        )]
        metrics = evaluate(pred, gold)
        assert metrics.true_positives == 1
        assert metrics.precision == 0.5
        assert metrics.recall == 0.5
        assert metrics.f1 == 0.5

    def test_all_o_prediction(self):
        gold = [seq("S-LOC", "O")]
        pred = [seq("O", "O")]
        metrics = evaluate(pred, gold)
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0

    def test_zero_gold_zero_pred(self):
        metrics = evaluate([seq("O")], [seq("O")])
        assert metrics == Metrics.from_counts(0, 0, 0)
        assert metrics.f1 == 0.0

    def test_type_must_match(self):
        gold = [seq("S-LOC")]
        pred = [seq("S-PER")]
        assert evaluate(pred, gold).true_positives == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([seq("O")], [seq("O"), seq("O")])
        with pytest.raises(ValueError):
            evaluate([seq("O")], [seq("O", "O")])

    def test_micro_counts_equal_sum_of_per_type(self, rng):
        for _ in range(20):
            n = rng.randint(1, 12)
            gold = [random_tagging(rng, rng.randint(1, 9)) for _ in range(n)]
            pred = [random_tagging(rng, len(g)) for g in gold]
            metrics = evaluate(pred, gold)
            assert metrics.true_positives == sum(
                m.true_positives for m in metrics.per_type.values()
            )
            assert metrics.predicted_count == sum(
                m.predicted_count for m in metrics.per_type.values()
            )
            assert metrics.gold_count == sum(
                m.gold_count for m in metrics.per_type.values()
            )

    def test_permutation_invariance(self, rng):
        n = 10
        gold = [random_tagging(rng, rng.randint(1, 8)) for _ in range(n)]
        pred = [random_tagging(rng, len(g)) for g in gold]
        base = evaluate(pred, gold)
        order = list(range(n))
        rng.shuffle(order)
        shuffled = evaluate([pred[i] for i in order], [gold[i] for i in order])
        assert shuffled == base

    def test_agreement_with_conlleval_oracle(self, rng):
        for _ in range(50):
            n = rng.randint(1, 10)
            gold = [random_tagging(rng, rng.randint(1, 9)) for _ in range(n)]
            pred = [random_tagging(rng, len(g)) for g in gold]
            metrics = evaluate(pred, gold)
            tp, pred_n, gold_n, per_type = conlleval_counts(pred, gold)
            assert metrics.true_positives == tp
            assert metrics.predicted_count == pred_n
            assert metrics.gold_count == gold_n
            for etype, (ttp, tpred, tgold) in per_type.items():
                sub = metrics.per_type.get(etype, Metrics.from_counts(0, 0, 0))
                assert (sub.true_positives, sub.predicted_count,
                        sub.gold_count) == (ttp, tpred, tgold)

    def test_metrics_lines_format(self):
        metrics = Metrics.from_counts(1, 2, 4)
        lines = metrics_lines(metrics, prefix="x.")
        assert "x.tp=1" in lines
        assert "x.precision=0.5" in lines
        assert "x.recall=0.25" in lines


@pytest.fixture(scope="module")
def setup():
    cfg = default_config(seed=9, train_sentences=120, test_sentences=40)
    train_corpus, test_corpus = generate(cfg)
    model = train(train_corpus, TemplateSet.CASE_AWARE,
                  TrainConfig(max_epochs=60))
    return model, train_corpus, test_corpus


@pytest.fixture(scope="module")
def caseless_model(setup):
    view, tset = training_view(setup[1], Strategy.CASELESS)
    return train(view, tset, TrainConfig(max_epochs=60))


class TestRobustnessGrid:
    def test_original_cell_equals_plain_evaluate(self, setup):
        from casener.crf import decode

        model, _, test_corpus = setup
        grid = robustness_grid(model, test_corpus)
        direct = evaluate(
            [decode(model, ann.sentence) for ann in test_corpus],
            [ann.gold for ann in test_corpus],
        )
        assert grid[CaseVariant.ORIGINAL] == direct

    def test_caseless_rows_equal(self, setup, caseless_model):
        grid = robustness_grid(caseless_model, setup[2])
        assert grid[CaseVariant.ORIGINAL] == grid[CaseVariant.LOWER]
        assert grid[CaseVariant.ORIGINAL] == grid[CaseVariant.UPPER]

    def test_truecasing_rows_equal(self, setup):
        model, train_corpus, test_corpus = setup
        caser = train_truecaser(train_corpus)
        grid = robustness_grid(model, test_corpus, truecaser=caser)
        assert grid[CaseVariant.ORIGINAL] == grid[CaseVariant.LOWER]
        assert grid[CaseVariant.ORIGINAL] == grid[CaseVariant.UPPER]


class TestTagCorpus:
    def test_preprocesses_then_decodes(self, setup):
        model, train_corpus, test_corpus = setup
        caser = train_truecaser(train_corpus)
        sentences = [ann.sentence for ann in test_corpus]
        assert tag_corpus(model, test_corpus) == [
            decode(model, s) for s in sentences
        ]
        assert tag_corpus(model, test_corpus, truecaser=caser) == [
            decode(model, truecase(caser, s)) for s in sentences
        ]

    def test_identity_type_map_keeps_the_grid(self, setup):
        model, _, test_corpus = setup
        types = {tag[2:] for tag in model.feature_map.tags if tag != "O"}
        grid, dropped = variant_grid(
            model, test_corpus, type_map={t: t for t in types}
        )
        assert grid == robustness_grid(model, test_corpus)
        assert dropped == 0

    def test_decodes_each_distinct_sentence_once(self, setup, monkeypatch):
        model, train_corpus, test_corpus = setup
        caser = train_truecaser(train_corpus)
        doubled = Corpus(test_corpus.sentences * 2)
        expected = [decode(model, truecase(caser, ann.sentence))
                    for ann in doubled]
        decoded = []

        def counting(model, sentence):
            decoded.append(sentence)
            return decode(model, sentence)

        monkeypatch.setattr(casener.evaluation, "decode", counting)
        assert tag_corpus(model, doubled, truecaser=caser) == expected
        assert len(decoded) == len(set(decoded)) == len(
            {truecase(caser, ann.sentence) for ann in test_corpus}
        )

    def test_caseless_model_decodes_each_lowercased_sentence_once(
        self, setup, caseless_model, monkeypatch
    ):
        test_corpus = setup[2]
        variants = Corpus(tuple(
            ann for v in CaseVariant for ann in make_variant(test_corpus, v)
        ))
        expected = [decode(caseless_model, ann.sentence) for ann in variants]
        decoded = []

        def counting(model, sentence):
            decoded.append(sentence)
            return decode(model, sentence)

        monkeypatch.setattr(casener.evaluation, "decode", counting)
        assert tag_corpus(caseless_model, variants) == expected
        distinct = len({to_lower(ann.sentence) for ann in variants})
        assert len(decoded) == distinct < len(set(variants.sentences))
        # variant_grid tags the three variants in one tag_corpus call.
        decoded.clear()
        robustness_grid(caseless_model, test_corpus)
        assert len(decoded) == distinct

    def test_truecases_each_lowercased_sentence_once(self, setup, monkeypatch):
        model, train_corpus, test_corpus = setup
        caser = train_truecaser(train_corpus)
        variants = Corpus(tuple(
            ann for v in CaseVariant for ann in make_variant(test_corpus, v)
        ))
        expected = [decode(model, truecase(caser, ann.sentence))
                    for ann in variants]
        truecased = []

        def counting(truecaser, sentence):
            truecased.append(sentence)
            return truecase(truecaser, sentence)

        monkeypatch.setattr(casener.evaluation, "truecase", counting)
        assert tag_corpus(model, variants, truecaser=caser) == expected
        assert len(truecased) == len(
            {to_lower(ann.sentence) for ann in variants}
        ) < len(variants)
