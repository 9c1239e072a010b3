import ast
import hashlib
from pathlib import Path

import pytest

from casener import synth
from casener.corpus import (
    Sentence,
    Scheme,
    extract_spans,
    validate_tags,
    write_conll,
)
from casener.harness import Strategy, training_view
from casener.synth import SynthConfig, default_config, generate, vocabulary_overlap
from casener.truecase import train_truecaser


class TestConfig:
    def test_default_config_is_valid(self):
        cfg = default_config()
        assert cfg.seed == 42
        assert cfg.train_sentences == 2000
        assert cfg.test_sentences == 500
        assert cfg.noise_rate == 0.05

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            default_config(train_sentences=0)
        with pytest.raises(ValueError):
            default_config(test_sentences=0)
        with pytest.raises(ValueError):
            default_config(noise_rate=1.5)
        with pytest.raises(ValueError):
            SynthConfig(seed=1, train_sentences=1, test_sentences=1,
                        noise_rate=-0.1)


class TestGenerate:
    def test_deterministic(self):
        cfg = default_config(train_sentences=50, test_sentences=20)
        a_train, a_test = generate(cfg)
        b_train, b_test = generate(cfg)
        assert write_conll(a_train) == write_conll(b_train)
        assert write_conll(a_test) == write_conll(b_test)

    def test_different_seeds_differ(self):
        a, _ = generate(default_config(seed=1, train_sentences=50,
                                       test_sentences=5))
        b, _ = generate(default_config(seed=2, train_sentences=50,
                                       test_sentences=5))
        assert write_conll(a) != write_conll(b)

    def test_sizes(self):
        cfg = default_config(train_sentences=33, test_sentences=7)
        train, test = generate(cfg)
        assert len(train) == 33
        assert len(test) == 7

    def test_zero_noise_entities_start_uppercase(self):
        cfg = default_config(seed=5, train_sentences=300, test_sentences=50,
                             noise_rate=0.0)
        for corpus in generate(cfg):
            for ann in corpus:
                for span in extract_spans(ann.gold):
                    for i in range(span.start, span.end + 1):
                        token = ann.sentence.tokens[i]
                        assert token[0].isupper(), (token, span)

    def test_nonzero_noise_produces_lowercased_entities(self):
        cfg = default_config(seed=5, train_sentences=400, test_sentences=1,
                             noise_rate=0.5)
        train, _ = generate(cfg)
        lowered = 0
        for ann in train:
            for span in extract_spans(ann.gold):
                if ann.sentence.tokens[span.start][0].islower():
                    lowered += 1
        assert lowered > 50

    def test_gold_always_valid_many_sentences(self):
        cfg = default_config(seed=8, train_sentences=10_000, test_sentences=1)
        train, _ = generate(cfg)
        for ann in train:
            validate_tags(ann.gold.tags, Scheme.IOBES)
            assert len(ann.gold) == len(ann.sentence)

    def test_every_slot_yields_exactly_one_span(self, monkeypatch):
        monkeypatch.setattr(synth, "_GAZETTEERS", {
            "PER": ("Ada Lovelace", "Grace Hopper"), "LOC": ("Oslo",),
        })
        monkeypatch.setattr(synth, "_TEMPLATES",
                            (("met", "{PER}", "in", "{LOC}"),))
        cfg = SynthConfig(seed=3, train_sentences=200, test_sentences=1,
                          noise_rate=0.0)
        train, _ = generate(cfg)
        for ann in train:
            spans = extract_spans(ann.gold)
            assert len(spans) == 2
            assert {s.entity_type for s in spans} == {"PER", "LOC"}

    def test_partial_gazetteer_overlap(self):
        cfg = default_config(seed=11, train_sentences=800, test_sentences=400)
        train, test = generate(cfg)
        overlap = vocabulary_overlap(train, test)
        assert 0.2 < overlap["test_entity_types_seen"] < 0.95
        assert overlap["test_token_types_seen"] > 0.5


def test_default_corpora_are_pinned():
    """The seed-42 corpora hash as recorded, which pins the generator's
    random draws: any change to their order or number changes the text."""
    train, test = generate(default_config(42))
    digests = [hashlib.sha256(write_conll(c).encode("utf-8")).hexdigest()
               for c in (train, test)]
    assert digests == [
        "b07525c6a73119e258314127a0602d68421380ff7390d53a9418bc14c5ac09b4",
        "1b29a7286ae939f33cd74c11af57f7b9f405b09eb3caa2706f5c0ae047841093",
    ]


def test_default_truecaser_is_pinned():
    """The truecaser fitted on the seed-42 train split serializes as
    recorded, which pins every spelling it restores and its format."""
    train, _ = generate(default_config(42))
    assert hashlib.sha256(train_truecaser(train).to_bytes()).hexdigest() == (
        "5be8191bc5a501f7653efd309f6b7b1447294f6e5d80f929bae1e2f8bec219e6"
    )


def test_each_distinct_sentence_is_built_once(monkeypatch):
    """`generate` and the augment view build and check one `Sentence` and
    one tag sequence per distinct annotated sentence, not per occurrence:
    456 of the seed-42 split's 2,000 training sentences and 239 of its 500
    test sentences are distinct."""
    built = {"Sentence": 0, "spans_to_tags": 0}
    sentence_post_init = Sentence.__post_init__
    spans_to_tags = synth.spans_to_tags

    def counting_post_init(self):
        built["Sentence"] += 1
        sentence_post_init(self)

    def counting_spans_to_tags(spans, length):
        built["spans_to_tags"] += 1
        return spans_to_tags(spans, length)

    monkeypatch.setattr(Sentence, "__post_init__", counting_post_init)
    monkeypatch.setattr(synth, "spans_to_tags", counting_spans_to_tags)
    train, test = generate(default_config(42))
    assert (len(set(train)), len(set(test))) == (456, 239)
    assert built == {"Sentence": 456 + 239, "spans_to_tags": 456 + 239}
    assert len({id(ann) for ann in train}) == 456

    built.update(Sentence=0, spans_to_tags=0)
    view, _ = training_view(train, Strategy.AUGMENT)
    assert len(view) == 6000
    # The originals are reused; each case copy is built once per distinct
    # training sentence.
    assert built == {"Sentence": 2 * 456, "spans_to_tags": 0}
    assert len({id(ann) for ann in view}) == 3 * 456


def _random_references(tree: ast.AST) -> list[int]:
    """Lines that import `random` or `numpy.random`, or name `np.random`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.alias)
            and node.name.split(".")[-1] == "random"
            or isinstance(node, ast.ImportFrom)
            and node.module in ("random", "numpy.random")
            or isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")]


def test_only_synth_draws_random_numbers():
    """`synth` is the one module that draws random numbers: everything
    else the package computes is a function of its inputs alone."""
    package = Path(synth.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        lines = _random_references(ast.parse(path.read_text("utf-8")))
        if path.name == "synth.py":
            assert lines, "synth.py no longer imports random"
        else:
            found += [f"{path.name}:{line}" for line in lines]
    assert found == []
