from __future__ import annotations

import contextlib
import copy
import functools
import gzip
import io
import json
import random
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from casener import container, crf, harness
from casener.cli import EXIT_OK, main
from casener.corpus import (
    AnnotatedSentence,
    Corpus,
    EntitySpan,
    Sentence,
    spans_to_tags,
    write_conll,
    write_conll_file,
)
from casener.crf import CrfModel, _encode
from casener.features import (
    FeatureMap,
    TemplateSet,
    feature_factors,
    fit_feature_map,
)
from casener.synth import default_config, generate
from casener.truecase import CaseClass, classify_case

settings.register_profile("suite", derandomize=True, max_examples=60)
settings.load_profile("suite")

_WORDS = [
    "the", "a", "in", "on", "said", "met", "news", "old", "river", "talks",
    "boston", "oslo", "acme", "baker", "york", "city", "report", "monday",
]
_CASINGS = (str.lower, str.upper, str.capitalize)


def random_sentence(rng: random.Random, max_len: int = 8) -> Sentence:
    n = rng.randint(1, max_len)
    tokens = []
    for _ in range(n):
        word = rng.choice(_WORDS)
        tokens.append(rng.choice(_CASINGS)(word))
    return Sentence(tuple(tokens))


def random_tagging(
    rng: random.Random, length: int, types: tuple[str, ...] = ("PER", "LOC")
):
    """A random valid IOBES tagging for a sentence of `length` tokens."""
    spans = []
    i = 0
    while i < length:
        if rng.random() < 0.4:
            end = min(length - 1, i + rng.randint(0, 2))
            spans.append(EntitySpan(i, end, rng.choice(types)))
            i = end + 1
        else:
            i += 1
    return spans_to_tags(spans, length)


def random_corpus(rng: random.Random, sentences: int = 20) -> Corpus:
    annotated = []
    for _ in range(sentences):
        sent = random_sentence(rng)
        annotated.append(AnnotatedSentence(sent, random_tagging(rng, len(sent))))
    return Corpus(tuple(annotated), "random test corpus")


def random_model(
    rng: random.Random,
    corpus: Corpus | None = None,
    template_set: TemplateSet = TemplateSet.CASE_AWARE,
    scale: float = 2.0,
    tags: tuple[str, ...] | None = None,
) -> CrfModel:
    """A CRF with random uniform[-scale, scale] weights.

    The feature map comes from fitting on `corpus` (or a fresh random one);
    `tags` can override the label space, e.g. to shrink K.
    """
    corpus = corpus or random_corpus(rng, sentences=6)
    fitted = fit_feature_map(corpus, template_set)
    fmap = FeatureMap(fitted.features, tags or fitted.tags)
    f, k = fmap.num_features, fmap.num_tags
    uniform = lambda size: np.array(  # noqa: E731
        [rng.uniform(-scale, scale) for _ in range(size)]
    )
    return CrfModel(
        fmap,
        template_set,
        uniform(f * k).reshape(f, k),
        uniform(k),
        uniform(k),
        uniform(k * k).reshape(k, k),
    )


def encode(corpus: Corpus, fmap: FeatureMap, template_set: TemplateSet,
           counts: np.ndarray | None = None):
    """`crf._encode` of `corpus`, featurized with `template_set`; each
    sentence counts once unless `counts` says otherwise."""
    return _encode(
        corpus, fmap, np.ones(len(corpus)) if counts is None else counts,
        feature_factors([ann.sentence for ann in corpus], template_set),
    )


@st.composite
def iobes_taggings(draw, length: int):
    """An IOBES tagging of `length` tokens cut into O runs and PER/LOC spans
    of any length."""
    spans, start = [], 0
    while start < length:
        end = draw(st.integers(start, length - 1))
        entity_type = draw(st.sampled_from([None, "PER", "LOC"]))
        if entity_type is not None:
            spans.append(EntitySpan(start, end, entity_type))
        start = end + 1
    return spans_to_tags(spans, length)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def mutated_container(draw, doc: dict) -> bytes:
    """A gzip+JSON container like `doc` with one field, top-level or one
    level down, deleted, replaced by an arbitrary JSON value, shortened or
    extended."""
    doc = copy.deepcopy(doc)
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    inner = parent[key]
    if isinstance(inner, dict) and inner and draw(st.booleans()):
        parent, key = inner, draw(st.sampled_from(sorted(inner)))
    elif isinstance(inner, list) and inner and draw(st.booleans()):
        parent, key = inner, draw(st.integers(0, len(inner) - 1))
    value = parent[key]
    action = draw(st.sampled_from(["delete", "replace", "shorten", "extend"]))
    if action == "delete":
        del parent[key]
    elif action == "shorten" and isinstance(value, (list, str)) and value:
        parent[key] = value[: draw(st.integers(0, len(value) - 1))]
    elif action == "extend" and isinstance(value, list):
        parent[key] = value + [draw(json_values)]
    elif action == "extend" and isinstance(value, str):
        parent[key] = value + draw(st.text(min_size=1, max_size=4))
    else:
        parent[key] = draw(json_values)
    return gzip.compress(json.dumps(doc).encode("utf-8"), mtime=0)


def old_version_blob(caser, version: int) -> bytes:
    """`caser` in truecaser format version 1, 2 or 3.  Version 3 held the
    same word -> spelling map as today, keyed on `str.lower`.  Versions 1
    and 2 held per-word case class counts and the spellings of mixed-case
    words instead of one spelling per word; version 1 also held the
    sentence-initial class counts and the fallback class."""
    if version == 3:
        return container.dump("truecaser", 3, {"surfaces": caser.surfaces})
    classes = {w: classify_case(s) for w, s in caser.surfaces.items()}
    doc = {
        "format": "casener-truecaser", "version": version,
        "case_counts": {w: {c.value: 1.0} for w, c in classes.items()},
        "mixed_surface": {w: caser.surfaces[w] for w, c in classes.items()
                          if c is CaseClass.MIXED},
    }
    if version == 1:
        doc.update(initial_class_counts={"init_cap": 1.0}, fallback="lower")
    return gzip.compress(json.dumps(doc).encode(), mtime=0)


#: Random bytes, gzip around random bytes, and gzip around random JSON.
garbage_containers = (
    st.binary(max_size=64)
    | st.binary(max_size=64).map(lambda b: gzip.compress(b, mtime=0))
    | json_values.map(lambda v: gzip.compress(json.dumps(v).encode(), mtime=0))
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


_CONLL_TAGS = ["O", "B-PER", "I-PER", "E-PER", "S-PER", "B-LOC", "I-LOC",
               "E-LOC", "S-LOC", "O-X", "B-", "-X", "B-X-Y", "b-per", "B_PER"]
_CONLL_TOKENS = ["the", "New", "YORK", "-DOCSTART-", "<s>", "İ", "ẞ", "ﬁ"]
_conll_line = st.one_of(
    st.just(""),
    st.tuples(
        st.sampled_from(_CONLL_TOKENS) | st.text(min_size=1, max_size=4),
        st.lists(st.sampled_from(_CONLL_TOKENS + _CONLL_TAGS), max_size=2),
        st.sampled_from(_CONLL_TAGS) | st.text(max_size=4),
        st.sampled_from([" ", "\t", " \t"]),
        st.sampled_from(["", "\r", " "]),
    ).map(lambda t: t[3].join([t[0], *t[1], t[2]]) + t[4]),
    st.text(max_size=12),
)

#: CoNLL-like text: lines of a token, extra columns and a tag (legal or
#: not), blank lines, -DOCSTART- lines and arbitrary lines; or any text.
conll_texts = st.lists(_conll_line, max_size=12).map("\n".join) | st.text()


_TINY_SYNTH = default_config(seed=7, train_sentences=20, test_sentences=5)


@functools.cache
def _writer_inputs() -> tuple[bytes, bytes, CrfModel]:
    """The CoNLL bytes of a tiny training corpus, the saved bytes of a model
    trained on it, and the model."""
    train, _ = generate(_TINY_SYNTH)
    model = crf.train(train, TemplateSet.CASE_AWARE, crf.TrainConfig(max_epochs=2))
    return write_conll(train).encode(), crf.save(model), model


class CliFailed(Exception):
    """`cli.main` returned a nonzero exit code.  The message is the code
    after "exit ", a colon, and what the command wrote to stderr."""


def _run_cli(argv: list[str]) -> None:
    stderr = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(stderr)):
        code = main(argv)
    if code != EXIT_OK:
        raise CliFailed(f"exit {code}: {stderr.getvalue()}")


def _write_model(directory: Path) -> list[Path]:
    crf.save_file(_writer_inputs()[2], str(directory / "out.crf"))
    return [directory / "out.crf"]


def _write_truecaser(directory: Path) -> list[Path]:
    (directory / "train.conll").write_bytes(_writer_inputs()[0])
    _run_cli(["truecase", "--model", str(directory / "out.bin"),
              "--fit", str(directory / "train.conll")])
    return [directory / "out.bin"]


def _write_conll(directory: Path) -> list[Path]:
    write_conll_file(generate(_TINY_SYNTH)[1], str(directory / "out.conll"))
    return [directory / "out.conll"]


def _write_tagged(directory: Path) -> list[Path]:
    train, model, _ = _writer_inputs()
    (directory / "train.conll").write_bytes(train)
    (directory / "model.crf").write_bytes(model)
    _run_cli(["tag", "--model", str(directory / "model.crf"),
              "--input", str(directory / "train.conll"),
              "--output", str(directory / "out.conll")])
    return [directory / "out.conll"]


def _write_report(directory: Path) -> list[Path]:
    harness.run_experiment(harness.ExperimentConfig(
        harness.Strategy.BASELINE, synth=_TINY_SYNTH,
        train_config=crf.TrainConfig(max_epochs=2),
        report_path=str(directory / "rep"),
    ))
    return [directory / "rep.txt", directory / "rep.kv"]


#: Each way the package writes a file: `write(directory)` writes inputs it
#: needs with plain `Path.write_bytes`, then writes through the package's
#: own route and returns the paths written, in order.
WRITERS: dict[str, Callable[[Path], list[Path]]] = {
    "model": _write_model,
    "truecaser": _write_truecaser,
    "conll": _write_conll,
    "tagged": _write_tagged,
    "report": _write_report,
}
#: The writers that run a command through `cli.main`, which turns a failed
#: write into an exit code (`CliFailed`) rather than an exception.
CLI_WRITERS = frozenset({"truecaser", "tagged"})
