"""Label-preserving case transforms and augmented-corpus construction.

Lowercasing or uppercasing every word of a sentence leaves its entity
annotation valid, so these transforms copy gold tags through unchanged.
Case mappings are the default Unicode ones (no locale tailoring).
"""

from __future__ import annotations

import enum
from typing import Callable

from .corpus import AnnotatedSentence, Corpus, Sentence


class CaseVariant(enum.Enum):
    ORIGINAL = "original"
    LOWER = "lower"
    UPPER = "upper"


def to_lower(sentence: Sentence) -> Sentence:
    """Lowercase every token; token count is unchanged."""
    return Sentence(tuple(map(str.lower, sentence.tokens)))


def to_upper(sentence: Sentence) -> Sentence:
    """Uppercase every token; token count is unchanged (characters may not be)."""
    return Sentence(tuple(map(str.upper, sentence.tokens)))


class _Cased(dict):
    """Token -> its cased string, cased on the token's first lookup.  Equal
    cased strings ("New" and "new" both lowercase to "new") are one object.
    Lookups of known tokens stay in C; a per-sentence pass in Python made
    `make_variant` about a quarter slower."""

    def __init__(self, case: Callable[[str], str]) -> None:
        super().__init__()
        self.case = case
        self.strings: dict[str, str] = {}

    def __missing__(self, token: str) -> str:
        string = self.case(token)
        string = self[token] = self.strings.setdefault(string, string)
        return string


def make_variant(corpus: Corpus, variant: CaseVariant) -> Corpus:
    """Apply `variant` to every sentence of `corpus`; gold tags are carried
    over as-is.  Each distinct (tokens, tags) pair is transformed and
    checked once, and its repeats share that immutable object; equal tokens
    share one cased string (`_Cased`).  Nothing is cached across calls."""
    if variant is CaseVariant.ORIGINAL:
        return corpus
    cased = _Cased(str.lower if variant is CaseVariant.LOWER else str.upper)
    # Keyed on the two tuples, whose hashes are computed in C; hashing the
    # AnnotatedSentence itself runs a Python-level hash per field.
    built: dict[tuple[tuple[str, ...], tuple[str, ...]], AnnotatedSentence] = {}
    sentences = []
    for ann in corpus:
        key = (ann.sentence.tokens, ann.gold.tags)
        out = built.get(key)
        if out is None:
            out = built[key] = AnnotatedSentence(
                Sentence(tuple(map(cased.__getitem__, key[0]))), ann.gold
            )
        sentences.append(out)
    return Corpus(
        tuple(sentences), f"{variant.value} variant of: {corpus.provenance}"
    )


def augment(corpus: Corpus) -> Corpus:
    """Originals, then lowercased copies, then uppercased copies (3x size).

    Duplicates are kept: a sentence that is already all-lowercase still
    contributes an identical lower copy.
    """
    n = len(corpus)
    sentences = (
        corpus.sentences
        + make_variant(corpus, CaseVariant.LOWER).sentences
        + make_variant(corpus, CaseVariant.UPPER).sentences
    )
    provenance = (
        f"augmented from {n} sentence(s): originals at [0,{n}), lower copies "
        f"at [{n},{2 * n}) with source i-{n}, upper copies at [{2 * n},{3 * n}) "
        f"with source i-{2 * n}; base: {corpus.provenance}"
    )
    return Corpus(sentences, provenance)
