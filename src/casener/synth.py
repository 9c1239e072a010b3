"""Deterministic synthetic corpus generator for capitalization experiments.

Sentences are drawn from context templates with entity slots filled from
per-type gazetteers.  The vocabulary is built so that capitalization
carries real signal: some gazetteer entries double as common nouns and are
only entities when capitalized, acronym organizations are all-caps, and a
slice of test entities never occurs in training.  Gold tags are derived
from the slot positions, so annotations are scheme-valid by construction.

The vocabulary (gazetteers, templates and decoy nouns) is fixed in this
module; a `SynthConfig` chooses how much is drawn from it and how, and
`describe` names each of its fields.  Slot syntax inside templates:
``{PER}``/``{LOC}``/``{ORG}`` draw an entity of that type, ``{ANY}`` draws
a random type, and ``{AMB:TYPE}`` flips a coin between an ambiguous entity
of TYPE and its common-noun decoy.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, is_dataclass
from typing import Mapping

from .corpus import (
    AnnotatedSentence,
    Corpus,
    EntitySpan,
    Sentence,
    case_key,
    extract_spans,
    init_cap_form,
    spans_to_tags,
)

#: Probability that an {AMB:TYPE} slot resolves to an entity rather than a
#: decoy noun.
AMB_ENTITY_PROBABILITY = 0.5

#: Gazetteer split: training draws from the first fraction, test from the
#: last; the overlap region supplies entities seen on both sides.
_TRAIN_POOL_FRACTION = 0.80
_TEST_POOL_START = 0.30


@dataclass(frozen=True)
class SynthConfig:
    """A synthetic setup; the defaults are the standard one, which the
    experiment harness uses."""

    seed: int = 42
    train_sentences: int = 2000
    test_sentences: int = 500
    noise_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.train_sentences < 1 or self.test_sentences < 1:
            raise ValueError("sentence counts must be at least 1")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must lie in [0, 1]")


def describe(settings: object) -> list[str]:
    """Each of `settings`, a dataclass's fields or a mapping's items, as
    `name=value!r` in order: how the reports write each setting and count."""
    items = asdict(settings) if is_dataclass(settings) else settings
    return [f"{name}={value!r}" for name, value in items.items()]


def _parse_slot(token: str) -> tuple[str | None, bool] | None:
    """A template element's slot as (its entity type, None for ``{ANY}``;
    whether it is ``{AMB:TYPE}``), or None for a plain word."""
    if not (token.startswith("{") and token.endswith("}")):
        return None
    inner = token[1:-1]
    if inner == "ANY":
        return None, False
    return inner.removeprefix("AMB:"), inner.startswith("AMB:")


def _split_pools(
    rng: random.Random,
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    train: dict[str, list[str]] = {}
    test: dict[str, list[str]] = {}
    for etype in _TYPES:
        entries = list(_GAZETTEERS[etype])
        rng.shuffle(entries)
        n = len(entries)
        train_end = max(1, round(n * _TRAIN_POOL_FRACTION))
        test_start = min(n - 1, round(n * _TEST_POOL_START))
        train[etype] = entries[:train_end]
        test[etype] = entries[test_start:]
    return train, test


def _ambiguous_subset(pool: list[str], etype: str) -> list[str]:
    noun_forms = set(_DECOYS.get(etype, ()))
    subset = [e for e in pool if e.lower() in noun_forms]
    return subset or pool


#: A template with each element parsed once: (element, slot or None).
_ParsedTemplate = tuple[tuple[str, tuple[str | None, bool] | None], ...]
#: A drawn sentence before annotation: its tokens and (start, end, type)
#: entity spans.
_SentenceKey = tuple[tuple[str, ...], tuple[tuple[int, int, str], ...]]


def _make_sentence(
    rng: random.Random,
    cfg: SynthConfig,
    pools: Mapping[str, list[str]],
    ambiguous: Mapping[str, list[str]],
    built: dict[_SentenceKey, AnnotatedSentence],
) -> AnnotatedSentence:
    """Draw one sentence; a repeat of a sentence in `built` returns that
    object, and only a new one is annotated, checked and added."""
    template = rng.choice(_TEMPLATES)
    tokens: list[str] = []
    spans: list[tuple[int, int, str]] = []

    for element, slot in template:
        if slot is None:
            tokens.append(element)
            continue
        etype, is_amb = slot
        if etype is None:
            etype = rng.choice(_TYPES)
        if is_amb and rng.random() >= AMB_ENTITY_PROBABILITY:
            tokens.append(rng.choice(_DECOYS[etype]))
            continue
        phrase = rng.choice(ambiguous[etype] if is_amb else pools[etype])
        parts = phrase.split()
        if rng.random() < cfg.noise_rate:
            parts = [p.lower() for p in parts]
        start = len(tokens)
        tokens.extend(parts)
        spans.append((start, start + len(parts) - 1, etype))

    if not spans or spans[0][0] != 0:
        tokens[0] = init_cap_form(tokens[0])

    key = (tuple(tokens), tuple(spans))
    ann = built.get(key)
    if ann is None:
        gold = spans_to_tags([EntitySpan(*span) for span in spans], len(tokens))
        ann = built[key] = AnnotatedSentence(Sentence(key[0]), gold)
    return ann


def generate(cfg: SynthConfig) -> tuple[Corpus, Corpus]:
    """Produce (train, test) corpora; fully deterministic given cfg.seed."""
    rng = random.Random(cfg.seed)
    train_pools, test_pools = _split_pools(rng)

    def sentences(pools: dict[str, list[str]], n: int):
        ambiguous = {
            etype: _ambiguous_subset(pool, etype)
            for etype, pool in pools.items()
        }
        built: dict[_SentenceKey, AnnotatedSentence] = {}
        return tuple(
            _make_sentence(rng, cfg, pools, ambiguous, built)
            for _ in range(n)
        )

    train = sentences(train_pools, cfg.train_sentences)
    test = sentences(test_pools, cfg.test_sentences)
    return Corpus(train), Corpus(test)


def vocabulary_overlap(train: Corpus, test: Corpus) -> dict[str, float]:
    """How much of the test data was seen in training, by `case_key`.

    Needed to interpret robustness numbers: unseen entities are exactly the
    ones whose recognition must rest on orthographic or contextual cues.
    """
    def token_vocab(corpus: Corpus) -> set[str]:
        return {case_key(t) for ann in corpus for t in ann.sentence.tokens}

    def entity_vocab(corpus: Corpus) -> set[tuple[str, ...]]:
        return {
            tuple(map(case_key, ann.sentence.tokens[span.start : span.end + 1]))
            for ann in corpus for span in extract_spans(ann.gold)
        }

    def seen(vocab) -> float:
        test_types = vocab(test)
        return len(test_types & vocab(train)) / len(test_types) if test_types else 0.0

    return {"test_token_types_seen": seen(token_vocab),
            "test_entity_types_seen": seen(entity_vocab)}


def vocabulary_overlap_lines(train: Corpus, test: Corpus) -> list[str]:
    """The report lines of `vocabulary_overlap(train, test)`."""
    overlap = vocabulary_overlap(train, test)
    return [
        f"test {kind} types seen in training: "
        f"{overlap[f'test_{kind}_types_seen']:.3f}"
        for kind in ("token", "entity")
    ]


_PER_FIRST = (
    "Anna", "James", "Maria", "Peter", "Susan", "David", "Laura", "Kevin",
    "Nadia", "Omar", "Wei", "Yuki", "Carlos", "Elena", "Tomas", "Ingrid",
)
_PER_LAST = (
    "Ramirez", "Kowalski", "Tanaka", "Novak", "Haddad", "Larsen", "Moreau",
    "Petrov", "Okafor", "Silva", "Weber", "Rossi", "Dumont", "Eriksen",
    "Varga", "Lindqvist",
)
#: Surnames that double as common nouns; only capitalization separates the
#: entity reading from the noun reading.
_PER_AMBIGUOUS = (
    "Baker", "Hunter", "Fisher", "Mason", "Porter",
    "Cook", "Fox", "Stone", "Bush", "Wolf",
)
_LOC_PLAIN = (
    "Boston", "Oslo", "Cairo", "Lima", "Osaka", "Lagos", "Quito", "Geneva",
    "Dublin", "Madrid", "Naples", "Havana", "Kyoto", "Zurich", "Vienna",
    "Bogota", "Seoul", "Accra", "Tallinn", "Perth",
)
_LOC_AMBIGUOUS = (
    "Reading", "Mobile", "Buffalo", "Nice", "Orange", "Flint", "Bath", "Cork",
)
# All-caps acronyms give capitalization real weight: they teach a strong
# AllCap -> ORG association that misleads case-trusting models on
# upper-cased input.
_ORG_ACRONYM = (
    "IBM", "NASA", "OPEC", "FIFA", "NATO", "CERN", "UNESCO", "INTERPOL",
    "UNICEF", "WTO", "IMF", "ICAO", "OSCE", "ASEAN", "EFTA", "NORAD",
)
_ORG_NAMED = (
    "Acme Corp", "Orion Systems", "Vertex Industries", "Halcyon Group",
)

_DEFAULT_TEMPLATES = (
    # contexts that reveal the entity type
    "the minister met {PER} on friday",
    "{PER} told reporters the deal was close",
    "prosecutors said {PER} would appeal",
    "the jury heard {PER} on monday",
    "thousands marched in {LOC} yesterday",
    "the summit will be held in {LOC}",
    "heavy rain hit {LOC} over the weekend",
    "flights from {LOC} resumed on sunday",
    "shares of {ORG} fell sharply",
    "{ORG} announced record profits on monday",
    "regulators fined {ORG} after the inquiry",
    "a lawsuit against {ORG} was dismissed",
    # neutral contexts: the type must come from the entity itself
    "the report mentioned {ANY} again",
    "{ANY} was in the news this week",
    # frames where only capitalization separates entity from noun
    "the {AMB:PER} said the offer was fair",
    "they stopped near {AMB:LOC} before dark",
    # entity-free filler, including entity frames around plain nouns
    "the meeting was moved to monday",
    "officials said the talks had stalled",
    "shares of the company fell sharply",
    "the summit will be held in secret",
)


_GAZETTEERS: Mapping[str, tuple[str, ...]] = {
    "PER": tuple(
        f"{first} {last}"
        for first, last in zip(_PER_FIRST + _PER_FIRST[:8], _PER_LAST + _PER_LAST[8:])
    ) + _PER_AMBIGUOUS,
    "LOC": _LOC_PLAIN + _LOC_AMBIGUOUS,
    "ORG": _ORG_ACRONYM + _ORG_NAMED,
}
_TEMPLATES: tuple[_ParsedTemplate, ...] = tuple(
    tuple((element, _parse_slot(element)) for element in template.split())
    for template in _DEFAULT_TEMPLATES
)
#: The entity types, in the order `_split_pools` and {ANY} slots draw them.
_TYPES = tuple(sorted(_GAZETTEERS))
#: The common nouns an {AMB:TYPE} slot can resolve to instead of an entity.
_DECOYS: Mapping[str, tuple[str, ...]] = {
    "PER": tuple(w.lower() for w in _PER_AMBIGUOUS),
    "LOC": tuple(w.lower() for w in _LOC_AMBIGUOUS),
}

#: The standard synthetic setup, with any of its fields given by keyword.
default_config = SynthConfig
